package sweep

import (
	"errors"
	"math"
	"testing"

	"repro/internal/cerr"
	"repro/internal/cjson"
)

// FuzzParseSpec drives the sweep-request decoder with arbitrary
// bytes: ParseSpec must never panic, every rejection must be a typed
// *cerr.Error, and any spec that parses must survive a bounded Expand
// without panicking (rejections again typed). The seed corpus covers
// the wire shapes the handlers actually see: the paper's Fig. 4 sweep,
// single-point specs, version pins, and the classic decoder traps
// (unknown fields, trailing garbage, deep nesting, huge numbers).
// Every point of an accepted spec must also give finite results-row
// values, so the results document always encodes.
func FuzzParseSpec(f *testing.F) {
	seeds := []string{
		// Paper evaluation shape: yield vs defects across spare counts.
		`{"base":{"words":4096,"bpw":32,"bpc":8,"spares":4},"axes":{"spares":[0,2,4,8],"defects":[0,5,10,20]}}`,
		// Single point, no axes.
		`{"base":{"words":1024,"bpw":16,"bpc":4,"spares":2},"axes":{}}`,
		// Version pinned + priority class.
		`{"version":2,"base":{"words":2048,"bpw":32,"bpc":8,"spares":4},"axes":{"words":[1024,2048]},"priority":"batch"}`,
		// Process/test axes (string-valued).
		`{"base":{"words":4096,"bpw":32,"bpc":8,"spares":4},"axes":{"process":["p0","p1"],"test":["march-c"]}}`,
		// Decoder traps.
		`{"base":{},"axes":{},"bogus":1}`,
		`{"base":{},"axes":{}} trailing`,
		`{"version":999,"base":{},"axes":{}}`,
		`{"axes":{"defects":[1e308,-1e308,0.0]}}`,
		`[[[[[[[[[[{}]]]]]]]]]]`,
		`{"base":{"words":-1,"bpw":0},"axes":{"spares":[9223372036854775807]}}`,
		``,
		`null`,
		`{}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ParseSpec(data)
		if err != nil {
			var ce *cerr.Error
			if !errors.As(err, &ce) {
				t.Fatalf("ParseSpec returned untyped error %T: %v", err, err)
			}
			return
		}
		pts, err := spec.Expand(DefaultMaxPoints)
		if err != nil {
			var ce *cerr.Error
			if !errors.As(err, &ce) {
				t.Fatalf("Expand returned untyped error %T: %v", err, err)
			}
			return
		}
		checkFiniteRows(t, pts)
	})
}

// checkFiniteRows evaluates the results row of every point as a done
// point of a 64x64 array with growth factor 1.2 and requires finite
// yields and improvement, and a results document that encodes.
func checkFiniteRows(t *testing.T, pts []Point) {
	t.Helper()
	sw := &Sweep{ID: "sweep-000001"}
	for i, p := range pts {
		sw.points = append(sw.points, &point{
			index: i, req: p.Req, defects: p.Defects, spares: 4, state: pointDone,
			metrics: Metrics{Rows: 64, Cols: 64, GrowthFactor: 1.2},
		})
	}
	res := sw.Results()
	for _, row := range res.Rows {
		for _, v := range []float64{row.Defects, row.YieldNoRepair, row.YieldBISR, row.Improvement} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("accepted defects %g gives a non-finite row %+v", row.Defects, row)
			}
		}
	}
	if _, err := cjson.MarshalIndent(res); err != nil {
		t.Fatalf("results document does not encode: %v", err)
	}
}
