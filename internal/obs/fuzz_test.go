package obs

import (
	"bytes"
	"math"
	"testing"
)

// FuzzExpositionRoundTrip: a registry built from the input — label
// values of any bytes, quotes, backslashes and newlines included —
// writes an exposition that ParsePrometheus reads back into families
// that WritePrometheus renders as the same bytes.
func FuzzExpositionRoundTrip(f *testing.F) {
	f.Add("200", "a\"b\\c\nd", uint32(3), 2.5, 0.25)
	f.Add("", "{}=,", uint32(0), math.Inf(-1), math.NaN())
	f.Add("\\n", "le", uint32(math.MaxUint32), -0.0, 1e300)
	f.Fuzz(func(t *testing.T, l1, l2 string, n uint32, g, x float64) {
		r := NewRegistry()
		r.Counter("c_total", "A counter.").Add(uint64(n))
		r.GaugeFunc("g", "A gauge.", func() float64 { return g })
		r.GaugeFunc("gf", "A gauge callback.", func() float64 { return x })
		r.CounterFunc("cf_total", "A counter callback.", func() float64 { return float64(n) })
		r.CounterFuncLabeled("cl_total", "Labelled callbacks.", map[string]string{"k": l1}, func() float64 { return 1 })
		r.CounterFuncLabeled("cl_total", "Labelled callbacks.", map[string]string{"j": l1, "k": l2}, func() float64 { return 2 })
		cv := r.CounterVec("cv_total", "A counter vec.", "code")
		cv.With(l1).Add(uint64(n))
		cv.With(l2).Inc()
		r.Info("info", "Build metadata.", map[string]string{"v": l2})
		h := r.Histogram("h", "A histogram.", []float64{0.1, 1})
		h.Observe(x)
		h.Observe(g)
		hv := r.HistogramVec("hv", "A histogram vec.", "stage", []float64{1})
		hv.With(l1).Observe(x)
		hv.With(l2).Observe(g)

		var first, second bytes.Buffer
		if err := r.WritePrometheus(&first); err != nil {
			t.Fatal(err)
		}
		fams, err := ParsePrometheus(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("parsing the registry's exposition: %v\n%s", err, first.Bytes())
		}
		if err := WritePrometheus(&second, fams); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("round trip changed the exposition\n--- written ---\n%s\n--- rewritten ---\n%s", first.Bytes(), second.Bytes())
		}
	})
}
