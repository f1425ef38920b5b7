package canon

import "testing"

// matsPlusAND/matsPlusOR are the TRPLA plane files of MATS+ as
// bist.Program.WritePlanes renders them (4 state bits).
const (
	matsPlusAND = "0000----\n1000----\n10000---\n10001---\n0100----\n1100----\n1100--10\n1100--11\n0010----\n00100---\n00101---\n1010----\n0110----\n0110--10\n0110--11\n1110----\n11100---\n11101---\n0001-0--\n0001-1-0\n0001-1-1\n1001----\n"
	matsPlusOR  = "000001101000001000\n010011000000000000\n000000000000001000\n000000000000000100\n000001100000001100\n100101000000000010\n000000000010000000\n000000000000010000\n011011000000000000\n000000000000001100\n000000000000001010\n000000100000000110\n101100000000001110\n000000000010000000\n000000000000010000\n010010000000000000\n000000000000000110\n000000000000000001\n000001110000001000\n000001101001001000\n000000000000101001\n000000000000101001\n"
)

// cda05Inline is the built-in cda05u3m1p deck written out inline. A
// request carrying it must share the built-in deck's keys.
const cda05Inline = "name cda05u3m1p\nfeature_nm 500\nmetals 3\nvdd 3.3\nkp_n 110e-6\nkp_p 38e-6\n"

const (
	keyCDA05Typ    = "3f27b07718873f0ee1676e18a902b6a2e8ab0fbb612863658fdda17cf3f1bc54"
	keyCDA05Slow64 = "d64095d4dae14b82a6541bc44bac10544e119070a6ef898bc0b42878510c6cca"
)

// TestContentKeyGolden pins Request.Key() for requests spanning every
// built-in deck and corner and each optional key input. Every key
// addresses persisted store objects, so a change to any of them — by
// the canonical encoder, the key document or a resolved input —
// invalidates those objects: bump KeyVersion deliberately, never by
// accident.
func TestContentKeyGolden(t *testing.T) {
	cases := []struct {
		name string
		req  Request
		key  string
	}{
		{"cda05-typ-spares0-buf1", Request{Words: 1024, BPW: 8, BPC: 4, Spares: 0, BufSize: 1, Process: "cda05u3m1p", Corner: "typ"},
			keyCDA05Typ},
		{"cda05-slow-64kbyte", Request{Words: 4096, BPW: 128, BPC: 8, Spares: 4, StrapCells: 32, Process: "cda05u3m1p", Corner: "slow"},
			keyCDA05Slow64},
		{"cda05-fast-spares16-buf3", Request{Words: 2048, BPW: 16, BPC: 8, Spares: 16, BufSize: 3, Process: "cda05u3m1p", Corner: "fast"},
			"f8e26e0ae4446eafef90b43d4ade32f411170dd01d1fd4a1ae76a0cbdfca1af6"},
		{"mos06-typ-buf4", Request{Words: 512, BPW: 32, BPC: 4, Spares: 8, BufSize: 4, Process: "mos06u3m1pHP", Corner: "typ"},
			"9597da6f849734e095285e6e56e2ccc2a263c551eafbed52cff6192f3476588c"},
		{"mos06-slow-refine", Request{Words: 1024, BPW: 16, BPC: 4, Spares: 4, RefineIterations: 2000, Process: "mos06u3m1pHP", Corner: "slow"},
			"4cf2fbdff7cf6333997076fd5f56b7197bb3b5f479f06d4a894022f407daaad6"},
		{"mos06-fast-march", Request{Words: 256, BPW: 8, BPC: 4, Spares: 4, March: "b(w0); u(r0,w1); u(r1,w0); d(r0,w1); d(r1,w0); b(r0)", Process: "mos06u3m1pHP", Corner: "fast"},
			"b5c64b8e85531c77706eafece03f66016e90fac3aeacc06368716ee52c460845"},
		{"cda07-typ-default", Request{Words: 256, BPW: 8, BPC: 4, Spares: 4},
			goldenKey},
		{"cda07-slow-planes", Request{Words: 512, BPW: 8, BPC: 4, Spares: 4, ANDPlane: matsPlusAND, ORPlane: matsPlusOR, StateBits: 4, Corner: "slow"},
			"f6ddb6647b8960bcc86378dcb0b017c191ef44a94b7be116462c04a6816d36b3"},
		{"cda07-fast-marchc-strap", Request{Words: 4096, BPW: 8, BPC: 16, Spares: 16, StrapCells: 16, Test: "marchc-", Process: "cda07u3m1p", Corner: "fast"},
			"63f829ed20e40aa9391405e5d7029fdb2b47c87e47c9dc4519397bb85f163ae0"},
		{"cda07-typ-buf2-spares0", Request{Words: 8192, BPW: 64, BPC: 8, Spares: 0, BufSize: 2, RefineIterations: 500, Test: "ifa13"},
			"24a9a47ec0d8bec299bc5a6157f69dc7433004c67c424887d6372d549b37cb15"},
		{"inline-cda05-typ", Request{Words: 1024, BPW: 8, BPC: 4, Spares: 0, BufSize: 1, Deck: cda05Inline, Corner: "typ"},
			keyCDA05Typ},
		{"inline-cda05-slow-64kbyte", Request{Words: 4096, BPW: 128, BPC: 8, Spares: 4, StrapCells: 32, Deck: cda05Inline, Corner: "slow"},
			keyCDA05Slow64},
	}
	for _, tc := range cases {
		k, err := tc.req.Key()
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if k != tc.key {
			t.Errorf("%s: content key drifted:\n got  %s\n want %s", tc.name, k, tc.key)
		}
	}
}
