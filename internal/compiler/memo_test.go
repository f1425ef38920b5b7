package compiler

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/leafcell"
	"repro/internal/obs"
	"repro/internal/tech"
)

// resetAnalysisMemo empties the decode and TLB transient memos, so the
// next compile simulates both circuits again.
func resetAnalysisMemo() {
	decodeMemo.Reset()
	tlbMemo.Reset()
}

// TestAnalysisMemoLossless is the memo's differential: over a seeded
// sample of deck × corner × bufsize × words × bpw × bpc × spares,
// compiles served from a warm memo (in shuffled order, so each hit was
// stored by a different design) must equal compiles that simulate
// every transient afresh, byte for byte. The sample draws its decks
// from a few (deck, corner, bufsize) contexts and its geometries from
// small axes, so points repeat circuits and differ in one key field at
// a time: a key that dropped any field would serve a wrong delay.
func TestAnalysisMemoLossless(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	decks := []string{"cda05u3m1p", "cda07u3m1p", "mos06u3m1pHP"}
	corners := []string{"typ", "slow", "fast"}
	type deckContext struct {
		proc *tech.Process
		buf  int
	}
	contexts := make([]deckContext, 4)
	for i := range contexts {
		deck, err := tech.ByName(decks[rng.Intn(len(decks))])
		if err != nil {
			t.Fatal(err)
		}
		proc, err := deck.Corner(corners[rng.Intn(len(corners))])
		if err != nil {
			t.Fatal(err)
		}
		contexts[i] = deckContext{proc: proc, buf: 1 + rng.Intn(4)}
	}
	words := []int{256, 512}
	bpws := []int{4, 8, 16}
	bpcs := []int{4, 8}
	spares := []int{0, 4, 8, 16}
	pick := func(v []int) int { return v[rng.Intn(len(v))] }

	const n = 32
	params := make([]Params, n)
	for i := range params {
		c := contexts[rng.Intn(len(contexts))]
		params[i] = Params{
			Words: pick(words), BPW: pick(bpws), BPC: pick(bpcs), Spares: pick(spares),
			BufSize: c.buf, StrapCells: 32, Process: c.proc,
			Parallelism: 1 + i%2,
		}
	}
	compile := func(p Params) string {
		t.Helper()
		d, err := Compile(p)
		if err != nil {
			t.Fatal(err)
		}
		js, err := d.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return js
	}

	resetAnalysisMemo()
	decodeHits, tlbHits := decodeMemo.Stats().Hits, tlbMemo.Stats().Hits
	warm := make([]string, n)
	for _, i := range rng.Perm(n) {
		warm[i] = compile(params[i])
	}
	if decodeMemo.Stats().Hits == decodeHits || tlbMemo.Stats().Hits == tlbHits {
		t.Fatal("the warm pass missed the decode or TLB memo throughout; the sample tests nothing")
	}
	for i, p := range params {
		resetAnalysisMemo()
		if cold := compile(p); cold != warm[i] {
			t.Errorf("point %d (%s buf %d, %dx%d bpc %d spares %d): memo-served report differs from a fresh simulation",
				i, p.Process.Name, p.BufSize, p.Words, p.BPW, p.BPC, p.Spares)
		}
	}
}

// TestAnalysisMemoKeysOnContent: a deck re-derived under a new pointer
// shares the memo entry, while a change to any key field misses.
func TestAnalysisMemoKeysOnContent(t *testing.T) {
	resetAnalysisMemo()
	base := Params{Words: 256, BPW: 8, BPC: 4, Spares: 4, BufSize: 1, StrapCells: 32, Process: tech.CDA07}
	if _, err := Compile(base); err != nil {
		t.Fatal(err)
	}
	clone := *tech.CDA07
	for _, tc := range []struct {
		name           string
		p              Params
		decode, tlbHit bool
	}{
		{"same content, new pointer", func() Params { p := base; p.Process = &clone; return p }(), true, true},
		{"wider word", func() Params { p := base; p.BPW = 16; return p }(), true, true},
		{"more spares", func() Params { p := base; p.Spares = 8; return p }(), true, false},
		{"more rows", func() Params { p := base; p.Words = 512; return p }(), false, false},
		{"bigger buffers", func() Params { p := base; p.BufSize = 2; return p }(), false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d0, t0 := decodeMemo.Stats().Hits, tlbMemo.Stats().Hits
			if _, err := Compile(tc.p); err != nil {
				t.Fatal(err)
			}
			if got := decodeMemo.Stats().Hits > d0; got != tc.decode {
				t.Errorf("decode hit = %v, want %v", got, tc.decode)
			}
			if got := tlbMemo.Stats().Hits > t0; got != tc.tlbHit {
				t.Errorf("TLB hit = %v, want %v", got, tc.tlbHit)
			}
		})
	}
}

// TestAnalysisSpansMarkMemo: traces still explain the analysis time.
// A miss marks its timing span memo=miss and records the transients
// beneath it; a hit marks memo=hit and records none.
func TestAnalysisSpansMarkMemo(t *testing.T) {
	p := Params{Words: 256, BPW: 8, BPC: 4, Spares: 4, BufSize: 1, StrapCells: 32, Process: tech.CDA07}
	resetAnalysisMemo()
	for _, tc := range []struct {
		memo       string
		transients int
	}{{"miss", 3}, {"hit", 0}} {
		tr := obs.NewTrace("memo")
		if _, err := CompileCtx(obs.WithTrace(context.Background(), tr), p); err != nil {
			t.Fatal(err)
		}
		transients, marked := 0, 0
		for _, sp := range tr.Spans() {
			switch sp.Name {
			case "spice.transient":
				transients++
			case "timing.access", "timing.tlb":
				for _, a := range sp.Attrs {
					if a.Key == "memo" && a.Value == tc.memo {
						marked++
					}
				}
			}
		}
		if marked != 2 || transients != tc.transients {
			t.Errorf("%s: %d timing spans marked memo=%s (want 2), %d spice.transient spans (want %d)",
				tc.memo, marked, tc.memo, transients, tc.transients)
		}
	}
}

// BenchmarkAnalysisCold times the timing analysis with the memo
// emptied before every iteration: the decode and TLB transients of a
// 1024 × 16, bpc 4, spares 4 design, so the SPICE kernel keeps a number
// now that compiles mostly hit the memo.
func BenchmarkAnalysisCold(b *testing.B) {
	d, err := Compile(Params{Words: 1024, BPW: 16, BPC: 4, Spares: 4, BufSize: 2,
		StrapCells: 32, Process: tech.CDA07})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resetAnalysisMemo()
		if _, err := d.decodeTransient(ctx); err != nil {
			b.Fatal(err)
		}
		if _, err := d.tlbTransient(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompileCold times a whole compile as a daemon's first
// request for a design sees it: the analysis memo is emptied before
// every iteration, so both transients simulate beside the layout
// stages, and the compile runs at Parallelism = GOMAXPROCS, the
// daemon's default. The design is mid-size (1024 × 16, bpc 4) with 4
// spares and no refine; `-cpu 1,2` compares the serial pipeline with
// the fan-out.
func BenchmarkCompileCold(b *testing.B) {
	p := Params{Words: 1024, BPW: 16, BPC: 4, Spares: 4, BufSize: 2,
		StrapCells: 32, Process: tech.CDA07, Parallelism: runtime.GOMAXPROCS(0)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		resetAnalysisMemo()
		if _, err := Compile(p); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSharedLibraryCarriesFingerprint: the shared library carries the
// deck digest and buffer size the analysis keys read, so a compile
// hashes its deck once.
func TestSharedLibraryCarriesFingerprint(t *testing.T) {
	lib, err := leafcell.Shared(tech.CDA07, 3)
	if err != nil {
		t.Fatal(err)
	}
	deck, err := leafcell.DigestDeck(tech.CDA07)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := lib.Fingerprint(), (leafcell.Fingerprint{Deck: deck, BufSize: 3}); got != want {
		t.Fatalf("fingerprint %x/%d, want %x/%d", got.Deck[:4], got.BufSize, want.Deck[:4], want.BufSize)
	}
}
