// Package reliability implements the paper's Section VIII field
// reliability model for built-in self-repairable RAMs: the survival
// function R(t), the failure probability density, the mean time to
// failure, and the spare-count crossover age at which more spares stop
// hurting and start helping.
package reliability

import (
	"math"

	"repro/internal/cerr"
)

// Model describes one BISR'ed RAM for reliability evaluation.
// The paper's formulation is word-granular: the module survives until
// t iff at most SpareWords() regular words have failed and every spare
// word is itself fault-free.
type Model struct {
	Rows   int // regular rows
	BPC    int // words per row
	BPW    int // bits per word
	Spares int // spare rows

	// LambdaBit is the hard-failure rate per bit per hour.
	LambdaBit float64
}

// Validate checks model sanity. Non-finite failure rates are rejected
// with cerr.ErrNonFinite (note a NaN rate would slide through a plain
// `<= 0` comparison), out-of-range finite values with
// cerr.ErrInvalidParams.
func (m Model) Validate() error {
	if m.Rows <= 0 || m.BPC <= 0 || m.BPW <= 0 || m.Spares < 0 {
		return cerr.New(cerr.CodeInvalidParams,
			"reliability: bad geometry rows=%d bpc=%d bpw=%d spares=%d", m.Rows, m.BPC, m.BPW, m.Spares)
	}
	if math.IsNaN(m.LambdaBit) || math.IsInf(m.LambdaBit, 0) {
		return cerr.New(cerr.CodeNonFinite, "reliability: non-finite failure rate")
	}
	if m.LambdaBit <= 0 {
		return cerr.New(cerr.CodeInvalidParams, "reliability: non-positive failure rate %g", m.LambdaBit)
	}
	return nil
}

// Words returns the regular word count.
func (m Model) Words() int { return m.Rows * m.BPC }

// SpareWords returns the spare word count s*bpc.
func (m Model) SpareWords() int { return m.Spares * m.BPC }

// WordFailProb returns q_w(t) = 1 - e^(-lambda*bpw*t): the probability
// that a bpw-bit word has failed by time t (hours).
func (m Model) WordFailProb(t float64) float64 {
	return 1 - math.Exp(-m.LambdaBit*float64(m.BPW)*t)
}

// Reliability returns R(t): the probability the module still works at
// age t hours, under the paper's criterion.
func (m Model) Reliability(t float64) float64 {
	if t <= 0 {
		return 1
	}
	q := m.WordFailProb(t)
	n := m.Words()
	s := m.SpareWords()
	return binomCDF(n, s, q) * math.Pow(1-q, float64(s))
}

// MTTF integrates R(t) from 0 to infinity with an adaptive horizon:
// the integration extends until R falls below 1e-12 of its initial
// value.
func (m Model) MTTF() float64 {
	// Find a horizon where R is negligible, by doubling.
	hi := 1000.0
	for m.Reliability(hi) > 1e-12 && hi < 1e12 {
		hi *= 2
	}
	return simpson(m.Reliability, 0, hi, 4000)
}

// CrossoverAge returns the age (hours) at which the reliability of
// the configuration with moreSpares overtakes the one with fewerSpares
// — the paper's observation that extra spares pay off only after
// several years. It returns an error when no crossover exists within
// the horizon.
func CrossoverAge(base Model, fewerSpares, moreSpares int, horizonHours float64) (float64, error) {
	if math.IsNaN(horizonHours) || math.IsInf(horizonHours, 0) {
		return 0, cerr.New(cerr.CodeNonFinite, "reliability: non-finite horizon %v", horizonHours)
	}
	if fewerSpares < 0 || moreSpares <= fewerSpares || horizonHours <= 1 {
		return 0, cerr.New(cerr.CodeInvalidParams,
			"reliability: bad crossover query spares %d..%d horizon %g", fewerSpares, moreSpares, horizonHours)
	}
	a := base
	a.Spares = fewerSpares
	if err := a.Validate(); err != nil {
		return 0, err
	}
	b := base
	b.Spares = moreSpares
	diff := func(t float64) float64 { return b.Reliability(t) - a.Reliability(t) }
	// Expect diff < 0 early, > 0 late.
	lo, hi := 1.0, horizonHours
	if diff(lo) >= 0 {
		return 0, cerr.New(cerr.CodeInvalidParams,
			"reliability: %d spares already better at t=%g", moreSpares, lo)
	}
	if diff(hi) <= 0 {
		return 0, cerr.New(cerr.CodeInvalidParams,
			"reliability: no crossover before %g hours", horizonHours)
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if diff(mid) < 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, nil
}

// HoursPerYear converts years to the hour axis used throughout.
const HoursPerYear = 8760.0

func binomCDF(n, k int, p float64) float64 {
	if k >= n {
		return 1
	}
	if p <= 0 {
		return 1
	}
	if p >= 1 {
		if k >= n {
			return 1
		}
		return 0
	}
	q := 1 - p
	logTerm := float64(n) * math.Log(q)
	term := math.Exp(logTerm)
	sum := term
	for i := 0; i < k && i < n; i++ {
		term *= float64(n-i) / float64(i+1) * (p / q)
		sum += term
	}
	if sum > 1 {
		sum = 1
	}
	return sum
}

func simpson(f func(float64) float64, a, b float64, n int) float64 {
	if n%2 == 1 {
		n++
	}
	h := (b - a) / float64(n)
	sum := f(a) + f(b)
	for i := 1; i < n; i++ {
		x := a + float64(i)*h
		if i%2 == 1 {
			sum += 4 * f(x)
		} else {
			sum += 2 * f(x)
		}
	}
	return sum * h / 3
}
