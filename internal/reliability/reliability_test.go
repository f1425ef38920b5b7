package reliability

import (
	"math"
	"testing"
	"testing/quick"
)

// fig5Model is the paper's Fig. 5 configuration: 1024 regular rows,
// bpc = bpw = 4. The per-cell hard-failure rate of 1e-8 per hour
// (1e-5 per kilo-hour) places the 4-vs-8-spare crossover in the
// multi-year range the paper reports (~8 years).
func fig5Model(spares int) Model {
	return Model{Rows: 1024, BPC: 4, BPW: 4, Spares: spares, LambdaBit: 1e-8}
}

func TestValidate(t *testing.T) {
	if err := fig5Model(4).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := fig5Model(4)
	bad.LambdaBit = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero rate accepted")
	}
	bad2 := Model{Rows: -1, BPC: 4, BPW: 4, LambdaBit: 1}
	if err := bad2.Validate(); err == nil {
		t.Fatal("negative rows accepted")
	}
}

func TestGeometry(t *testing.T) {
	m := fig5Model(4)
	if m.Words() != 4096 || m.SpareWords() != 16 {
		t.Fatalf("words %d spare words %d", m.Words(), m.SpareWords())
	}
}

func TestReliabilityBoundsAndMonotone(t *testing.T) {
	m := fig5Model(4)
	if m.Reliability(0) != 1 || m.Reliability(-5) != 1 {
		t.Fatal("R(<=0) must be 1")
	}
	prev := 1.0
	for _, yr := range []float64{1, 2, 5, 10, 20, 50} {
		r := m.Reliability(yr * HoursPerYear)
		if r < 0 || r > prev+1e-12 {
			t.Fatalf("R not in [0,1] or not monotone at %g years: %g (prev %g)", yr, r, prev)
		}
		prev = r
	}
}

func TestWordFailProb(t *testing.T) {
	m := fig5Model(4)
	q := m.WordFailProb(1e6)
	want := 1 - math.Exp(-1e-8*4*1e6)
	if math.Abs(q-want) > 1e-15 {
		t.Fatalf("q = %g want %g", q, want)
	}
}

func TestEarlyReliabilityDecreasesWithSpares(t *testing.T) {
	// The paper's headline observation: early in life, more spares
	// mean lower reliability (spares must stay fault-free).
	early := 1.0 * HoursPerYear
	r0 := fig5Model(0).Reliability(early)
	r4 := fig5Model(4).Reliability(early)
	r8 := fig5Model(8).Reliability(early)
	r16 := fig5Model(16).Reliability(early)
	// With 0 spares there is no repair at all: a single word failure
	// kills it, so r0 is NOT the best; compare among BISR configs.
	if !(r4 > r8 && r8 > r16) {
		t.Fatalf("early reliability ordering violated: %g %g %g", r4, r8, r16)
	}
	_ = r0
}

func TestLateReliabilityIncreasesWithSpares(t *testing.T) {
	late := 30.0 * HoursPerYear
	r0 := fig5Model(0).Reliability(late)
	r4 := fig5Model(4).Reliability(late)
	r8 := fig5Model(8).Reliability(late)
	r16 := fig5Model(16).Reliability(late)
	if !(r16 > r8 && r8 > r4 && r4 > r0) {
		t.Fatalf("late reliability ordering violated: %g %g %g %g", r0, r4, r8, r16)
	}
}

func TestCrossoverAgeInYearsRange(t *testing.T) {
	// 4-vs-8 spares crossover: the paper reports roughly 8 years
	// (~70000 h) for its rate; ours must land in a plausible
	// multi-year window for the same geometry.
	age, err := CrossoverAge(fig5Model(0), 4, 8, 100*HoursPerYear)
	if err != nil {
		t.Fatal(err)
	}
	years := age / HoursPerYear
	if years < 1 || years > 50 {
		t.Fatalf("crossover at %.1f years, outside plausible window", years)
	}
	// More spares cross later: 8-vs-16 crossover should be later than
	// 4-vs-8.
	age2, err := CrossoverAge(fig5Model(0), 8, 16, 200*HoursPerYear)
	if err != nil {
		t.Fatal(err)
	}
	if !(age2 > age) {
		t.Fatalf("8-16 crossover %.0fh should be after 4-8 crossover %.0fh", age2, age)
	}
}

func TestCrossoverErrors(t *testing.T) {
	// Horizon too small: no crossover.
	if _, err := CrossoverAge(fig5Model(0), 4, 8, 10); err == nil {
		t.Fatal("expected no-crossover error for tiny horizon")
	}
}

func TestMTTFPositiveAndOrdering(t *testing.T) {
	m4 := fig5Model(4)
	mttf4 := m4.MTTF()
	if mttf4 <= 0 {
		t.Fatalf("MTTF %g", mttf4)
	}
	// MTTF with spares beats MTTF without (repair extends life).
	mttf0 := fig5Model(0).MTTF()
	if !(mttf4 > mttf0) {
		t.Fatalf("MTTF ordering: %g vs %g", mttf4, mttf0)
	}
	// Sanity: the no-repair module with 4096 words of 4 bits has
	// MTTF = 1/(N*bpw*lambda) analytically (first failure kills it).
	want := 1 / (4096.0 * 4 * 1e-8)
	if math.Abs(mttf0-want)/want > 0.02 {
		t.Fatalf("no-repair MTTF %g, analytic %g", mttf0, want)
	}
}

// Property: R is within [0,1] and decreasing for random times.
func TestQuickReliabilityShape(t *testing.T) {
	m := fig5Model(8)
	f := func(a, b uint32) bool {
		t1 := float64(a%1000000) * 10
		t2 := float64(b%1000000) * 10
		if t1 > t2 {
			t1, t2 = t2, t1
		}
		r1, r2 := m.Reliability(t1), m.Reliability(t2)
		return r1 >= r2-1e-12 && r1 >= 0 && r1 <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
