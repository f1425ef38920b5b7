package canon

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/cerr"
	"repro/internal/compiler"
	"repro/internal/tech"
)

func smallRequest() Request {
	return Request{Words: 256, BPW: 8, BPC: 4, Spares: 4}
}

func TestDefaultsApplied(t *testing.T) {
	p, err := smallRequest().Params()
	if err != nil {
		t.Fatal(err)
	}
	if p.Process.Name != DefaultProcess {
		t.Fatalf("process %q, want default %q", p.Process.Name, DefaultProcess)
	}
	if p.BufSize != DefaultBufSize {
		t.Fatalf("bufsize %d, want %d", p.BufSize, DefaultBufSize)
	}
	if p.Test.Name != "IFA-9" && !strings.Contains(strings.ToLower(p.Test.Name), "ifa") {
		t.Fatalf("unexpected default test %q", p.Test.Name)
	}
}

func TestKeyStableAcrossRuns(t *testing.T) {
	r := smallRequest()
	k1, err := r.Key()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		k2, err := r.Key()
		if err != nil {
			t.Fatal(err)
		}
		if k1 != k2 {
			t.Fatalf("key changed between runs: %s vs %s", k1, k2)
		}
	}
	if len(k1) != 64 {
		t.Fatalf("key %q is not sha256 hex", k1)
	}
}

func TestExplicitDefaultsAliasOmitted(t *testing.T) {
	implicit := smallRequest()
	explicit := smallRequest()
	explicit.Process = DefaultProcess
	explicit.Corner = DefaultCorner
	explicit.Test = DefaultTest
	explicit.BufSize = DefaultBufSize
	k1, err := implicit.Key()
	if err != nil {
		t.Fatal(err)
	}
	k2, err := explicit.Key()
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatal("spelled-out defaults must hash identically to omitted defaults")
	}
}

func TestDistinctInputsDistinctKeys(t *testing.T) {
	seen := map[string]string{}
	variants := []Request{
		smallRequest(),
		{Words: 512, BPW: 8, BPC: 4, Spares: 4},
		{Words: 256, BPW: 16, BPC: 4, Spares: 4},
		{Words: 256, BPW: 8, BPC: 4, Spares: 8},
		{Words: 256, BPW: 8, BPC: 4, Spares: 4, Corner: "slow"},
		{Words: 256, BPW: 8, BPC: 4, Spares: 4, Test: "marchx"},
		{Words: 256, BPW: 8, BPC: 4, Spares: 4, Process: "cda05u3m1p"},
		{Words: 256, BPW: 8, BPC: 4, Spares: 4, RefineIterations: 100},
	}
	for i, r := range variants {
		k, err := r.Key()
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		if prev, dup := seen[k]; dup {
			t.Fatalf("variant %d collides with %s", i, prev)
		}
		seen[k] = r.Test + r.Process + r.Corner
	}
}

func TestCustomMarchNotationAliases(t *testing.T) {
	a := smallRequest()
	a.March = "b(w0); u(r0,w1); d(r1,w0)"
	b := smallRequest()
	b.March = "b(w0);u(r0,w1);d(r1,w0)"
	ka, err := a.Key()
	if err != nil {
		t.Fatal(err)
	}
	kb, err := b.Key()
	if err != nil {
		t.Fatal(err)
	}
	if ka != kb {
		t.Fatal("whitespace variants of the same march test must alias")
	}
}

func TestInlineDeckKeyedByContent(t *testing.T) {
	deck := `name userdeck
feature_nm 700
metals 3
vdd 5.0
kp_n 90e-6
kp_p 30e-6
`
	a := smallRequest()
	a.Deck = deck
	b := smallRequest()
	b.Deck = deck + "# a comment changes nothing semantic\n"
	ka, err := a.Key()
	if err != nil {
		t.Fatal(err)
	}
	kb, err := b.Key()
	if err != nil {
		t.Fatal(err)
	}
	if ka != kb {
		t.Fatal("comment-only deck difference must not change the key")
	}
	c := smallRequest()
	c.Deck = strings.Replace(deck, "vdd 5.0", "vdd 3.3", 1)
	kc, err := c.Key()
	if err != nil {
		t.Fatal(err)
	}
	if kc == ka {
		t.Fatal("semantically different decks must not alias")
	}
}

func TestInvalidRequestsTyped(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Request)
		code cerr.Code
	}{
		{"bad process", func(r *Request) { r.Process = "nope" }, cerr.CodeInvalidParams},
		{"bad corner", func(r *Request) { r.Corner = "scorching" }, cerr.CodeInvalidParams},
		{"bad test", func(r *Request) { r.Test = "march-omega" }, cerr.CodeInvalidParams},
		{"bad march", func(r *Request) { r.March = "q(z9)" }, cerr.CodeMarchParse},
		{"bad geometry", func(r *Request) { r.Words = 255 }, cerr.CodeInvalidParams},
		{"half planes", func(r *Request) { r.ANDPlane = "x" }, cerr.CodePlaneParse},
		{"bad deck", func(r *Request) { r.Deck = "feature_nm banana" }, cerr.CodeDeckParse},
	}
	for _, tc := range cases {
		r := smallRequest()
		tc.mut(&r)
		_, err := r.Params()
		if err == nil {
			t.Fatalf("%s: expected error", tc.name)
		}
		if cerr.CodeOf(err) != tc.code {
			t.Fatalf("%s: code %v, want %v (err: %v)", tc.name, cerr.CodeOf(err), tc.code, err)
		}
	}
}

func TestParseRequestStrict(t *testing.T) {
	if _, err := ParseRequest([]byte(`{"words":256,"bpw":8,"bpc":4,"spares":4}`)); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseRequest([]byte(`{"wordz":256}`)); err == nil {
		t.Fatal("unknown field must be rejected")
	} else if cerr.CodeOf(err) != cerr.CodeInvalidParams {
		t.Fatalf("code %v", cerr.CodeOf(err))
	}
	for _, tail := range []string{` {"words":2}`, `}`, `]`, `]]`, `1}`} {
		if _, err := ParseRequest([]byte(`{"words":1}` + tail)); err == nil {
			t.Fatalf("trailing data %q must be rejected", tail)
		}
	}
	if _, err := ParseRequest([]byte("{\"words\":1} \t\r\n")); err != nil {
		t.Fatalf("trailing whitespace must be accepted: %v", err)
	}
}

func TestKeyOfParamsMatchesRequestKey(t *testing.T) {
	r := smallRequest()
	p, err := r.Params()
	if err != nil {
		t.Fatal(err)
	}
	k1, err := r.Key()
	if err != nil {
		t.Fatal(err)
	}
	k2, err := KeyOfParams(p)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatal("Request.Key and KeyOfParams disagree")
	}
}

func TestKeyOfParamsRejectsInvalid(t *testing.T) {
	_, err := KeyOfParams(compiler.Params{})
	if err == nil {
		t.Fatal("unvalidated params must not be keyable")
	}
	if !errors.Is(err, cerr.ErrInvalidParams) {
		t.Fatalf("want ErrInvalidParams, got %v", err)
	}
}

func TestTestNamesAllResolve(t *testing.T) {
	for _, n := range TestNames() {
		if _, err := TestByName(n); err != nil {
			t.Fatalf("TestNames lists %q but TestByName rejects it", n)
		}
	}
}

func TestNamedDeckAliasesIdenticalInline(t *testing.T) {
	// A named built-in deck and its own value round-tripped through the
	// key document must alias: the key addresses content, not spelling.
	byName := smallRequest()
	p1, err := byName.Params()
	if err != nil {
		t.Fatal(err)
	}
	p2 := p1
	proc, err := tech.ByName(DefaultProcess)
	if err != nil {
		t.Fatal(err)
	}
	cp := *proc
	p2.Process = &cp // distinct pointer, same content
	k1, err := KeyOfParams(p1)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := KeyOfParams(p2)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatal("identical deck content behind different pointers must alias")
	}
}
