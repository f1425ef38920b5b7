package cjson_test

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"

	"repro/internal/cjson"
	"repro/internal/compiler"
	"repro/internal/march"
	"repro/internal/tech"
)

// compileEnvelope mirrors the daemon's compile response document: the
// uniform /v1 envelope around a job payload that carries the cached
// report as a json.RawMessage.
type compileEnvelope struct {
	Job   *compileJob `json:"job,omitempty"`
	Error *struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

type compileJob struct {
	Key       string          `json:"key"`
	JobID     string          `json:"job_id,omitempty"`
	State     string          `json:"state"`
	Cached    bool            `json:"cached"`
	Deduped   bool            `json:"deduped,omitempty"`
	CacheTier string          `json:"cache_tier,omitempty"`
	ElapsedMs float64         `json:"elapsed_ms"`
	Artifacts map[string]int  `json:"artifacts,omitempty"`
	Report    json.RawMessage `json:"report,omitempty"`
}

func mustProcess(t testing.TB, name, corner string) *tech.Process {
	t.Helper()
	p, err := tech.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	if p, err = p.Corner(corner); err != nil {
		t.Fatal(err)
	}
	return p
}

var (
	designsOnce sync.Once
	designs     []*compiler.Design
	designsErr  error
)

// realDesigns compiles a few designs spanning the decks, spares,
// refinement and a custom march test.
func realDesigns(t testing.TB) []*compiler.Design {
	t.Helper()
	designsOnce.Do(func() {
		custom, err := march.Parse("custom", "b(w0); u(r0,w1); d(r1,w0)")
		if err != nil {
			designsErr = err
			return
		}
		for _, p := range []compiler.Params{
			{Words: 4096, BPW: 128, BPC: 8, Spares: 4, BufSize: 2, StrapCells: 32, Process: mustProcess(t, "cda05u3m1p", "slow")},
			{Words: 256, BPW: 8, BPC: 4, Spares: 0, BufSize: 1, Process: mustProcess(t, "cda07u3m1p", "typ")},
			{Words: 1024, BPW: 16, BPC: 8, Spares: 16, BufSize: 3, RefineIterations: 500, Process: mustProcess(t, "mos06u3m1pHP", "fast"), Test: custom},
		} {
			d, err := compiler.Compile(p)
			if err != nil {
				designsErr = err
				return
			}
			designs = append(designs, d)
		}
	})
	if designsErr != nil {
		t.Fatal(designsErr)
	}
	return designs
}

func envelopeFor(t testing.TB, d *compiler.Design) compileEnvelope {
	t.Helper()
	js, err := d.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return compileEnvelope{Job: &compileJob{
		Key: "3f27b07718873f0ee1676e18a902b6a2e8ab0fbb612863658fdda17cf3f1bc54", State: "done",
		Cached: true, CacheTier: "hit-disk", ElapsedMs: 0.0421,
		Artifacts: map[string]int{"datasheet.json": len(js), "datasheet.txt": 2113, "layout.gds": 196608, "layout.svg": 40211, "trpla_and.plane": 176, "trpla_or.plane": 396},
		Report:    json.RawMessage(js),
	}}
}

// TestRealValuesMatchOracle runs the differential on the values the
// service really encodes: compiled reports, every deck at every corner
// (the content-key input), and a compile envelope around a report.
func TestRealValuesMatchOracle(t *testing.T) {
	var values []any
	for _, d := range realDesigns(t) {
		values = append(values, d.Report(), envelopeFor(t, d))
	}
	for _, name := range tech.Names() {
		for _, corner := range []string{"typ", "slow", "fast"} {
			values = append(values, mustProcess(t, name, corner))
		}
	}
	for _, v := range values {
		for _, pair := range []struct {
			got, want func(any) ([]byte, error)
		}{{cjson.Marshal, cjson.RefMarshal}, {cjson.MarshalIndent, cjson.RefMarshalIndent}} {
			got, err := pair.got(v)
			want, refErr := pair.want(v)
			if err != nil || refErr != nil || !bytes.Equal(got, want) {
				t.Fatalf("%T diverges from the oracle:\n got  %s (err %v)\n want %s (err %v)", v, got, err, want, refErr)
			}
		}
	}
	for _, d := range realDesigns(t) {
		js, err := d.JSON()
		if err != nil {
			t.Fatal(err)
		}
		got, err := cjson.Canonicalize([]byte(js))
		want, refErr := cjson.RefCanonicalize([]byte(js))
		if err != nil || refErr != nil || !bytes.Equal(got, want) {
			t.Fatalf("Canonicalize diverges from the oracle:\n got  %s (err %v)\n want %s (err %v)", got, err, want, refErr)
		}
	}
}

var benchOut []byte

func benchmarkEnvelope(b *testing.B, marshal func(any) ([]byte, error)) {
	env := envelopeFor(b, realDesigns(b)[0])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := marshal(env)
		if err != nil {
			b.Fatal(err)
		}
		benchOut = out
	}
}

// BenchmarkMarshalIndentEnvelope renders the response to a cache hit:
// the compile envelope around a 64-kbyte design's cached report.
func BenchmarkMarshalIndentEnvelope(b *testing.B) { benchmarkEnvelope(b, cjson.MarshalIndent) }

// BenchmarkMarshalIndentEnvelopeRef is the same render by the
// round-trip oracle.
func BenchmarkMarshalIndentEnvelopeRef(b *testing.B) { benchmarkEnvelope(b, cjson.RefMarshalIndent) }

// BenchmarkCanonicalize re-canonicalizes a 64-kbyte design's report.
func BenchmarkCanonicalize(b *testing.B) {
	js, err := realDesigns(b)[0].JSON()
	if err != nil {
		b.Fatal(err)
	}
	raw := []byte(js)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := cjson.Canonicalize(raw)
		if err != nil {
			b.Fatal(err)
		}
		benchOut = out
	}
}
