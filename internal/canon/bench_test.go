package canon

import "testing"

var benchKey string

// BenchmarkKeyOfParams keys a resolved 64-kbyte request on the
// cda05u3m1p deck at the slow corner: the canonical encoding and hash
// every compile request pays before its cache lookup.
func BenchmarkKeyOfParams(b *testing.B) {
	p, err := Request{Words: 4096, BPW: 128, BPC: 8, Spares: 4, StrapCells: 32,
		Process: "cda05u3m1p", Corner: "slow"}.Params()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k, err := KeyOfParams(p)
		if err != nil {
			b.Fatal(err)
		}
		benchKey = k
	}
}
