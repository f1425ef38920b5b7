// Package yield implements the paper's Section VII yield models: the
// Poisson single-cell yield, the Stapper negative-binomial array
// yield with defect clustering, the repairability probability P_R of
// a row-redundant BISR'ed RAM under the paper's strict "goodness"
// criterion (faulty rows ≤ spares and all spares fault-free), and the
// chip-level product model used for the cost analysis.
package yield

import (
	"math"

	"repro/internal/cerr"
)

// Model describes one BISR'ed RAM array for yield evaluation.
type Model struct {
	Rows   int // regular rows
	Cols   int // cells per row (bpw * bpc)
	Spares int // spare rows

	// GrowthFactor is area(redundant array + BIST/BISR) divided by
	// area(nonredundant array); defects injected scale with it. 1.0
	// means no area penalty; the compiler reports the real value.
	GrowthFactor float64

	// Alpha is Stapper's clustering parameter; +Inf (or 0, treated as
	// unclustered) selects the pure Poisson model.
	Alpha float64
}

// maxDefects is the largest defect count whose yields stay
// representable. Past ln(MaxFloat64) ≈ 709.8 the unrepaired yield e^-n
// is below 1/MaxFloat64, so ImprovementFactor, at most 1/e^-n,
// overflows to +Inf; past about 745, e^-n itself rounds to 0.
var maxDefects = math.Log(math.MaxFloat64)

// CheckDefects validates a defect-count axis value: non-finite inputs
// are rejected with cerr.ErrNonFinite, negative ones and ones above
// maxDefects with cerr.ErrInvalidParams. The plain evaluation methods
// clamp negative inputs to zero, so a caller taking the count from a
// client checks it here first.
func CheckDefects(defects float64) error {
	if math.IsNaN(defects) || math.IsInf(defects, 0) {
		return cerr.New(cerr.CodeNonFinite, "yield: non-finite defect count %v", defects)
	}
	if defects < 0 {
		return cerr.New(cerr.CodeInvalidParams, "yield: negative defect count %g", defects)
	}
	if defects > maxDefects {
		return cerr.New(cerr.CodeInvalidParams,
			"yield: defect count %g is above %.1f, where the unrepaired yield e^-n leaves float64's range", defects, maxDefects)
	}
	return nil
}

// clampDefects clamps negative finite defect counts to zero (the
// documented clamp for slightly-below-zero numeric noise). Non-finite
// values pass through and surface as NaN results; CheckDefects exists
// to reject them with a typed error.
func clampDefects(defects float64) float64 {
	if defects < 0 {
		return 0
	}
	return defects
}

// Stapper returns the negative-binomial yield (1 + n/alpha)^-alpha
// for n expected defects with clustering alpha. As alpha -> inf it
// approaches the Poisson e^-n.
func Stapper(n, alpha float64) float64 {
	if alpha <= 0 || math.IsInf(alpha, 1) {
		return math.Exp(-n)
	}
	return math.Pow(1+n/alpha, -alpha)
}

// binomCDF returns P[X <= k] for X ~ Binomial(n, p), computed with an
// incremental stable recurrence (n up to a few thousand, k small).
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
	// term_0 = q^n computed in log space to survive large n.
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

// lambdaCell converts "defects injected into the nonredundant array"
// (the paper's x axis) into the per-cell fault rate.
func (m Model) lambdaCell(defects float64) float64 {
	return defects / (float64(m.Rows) * float64(m.Cols))
}

// YieldNoRepair returns the yield of the nonredundant array with n
// expected defects: the probability of zero faults (Poisson) or the
// Stapper equivalent under clustering.
func (m Model) YieldNoRepair(defects float64) float64 {
	return Stapper(clampDefects(defects), m.Alpha)
}

// repairProbPoisson returns P_R for a fixed per-cell rate lambda:
// the probability that at most Spares regular rows are faulty and all
// spare rows are fault-free.
func (m Model) repairProbPoisson(lambda float64) float64 {
	pRowGood := math.Exp(-lambda * float64(m.Cols))
	pRowBad := 1 - pRowGood
	return binomCDF(m.Rows, m.Spares, pRowBad) * math.Pow(pRowGood, float64(m.Spares))
}

// repairProbIterated is the relaxed 2k-pass criterion: the number of
// fault-free spares must cover the faulty regular rows.
func (m Model) repairProbIterated(lambda float64) float64 {
	pRowGood := math.Exp(-lambda * float64(m.Cols))
	pRowBad := 1 - pRowGood
	total := 0.0
	// Sum over g = number of good spares.
	for g := 0; g <= m.Spares; g++ {
		pg := binomPMF(m.Spares, g, pRowGood) // g good spares
		total += pg * binomCDF(m.Rows, g, pRowBad)
	}
	return total
}

func binomPMF(n, k int, p float64) float64 {
	if k < 0 || k > n {
		return 0
	}
	// log C(n,k) + k log p + (n-k) log(1-p)
	lg := lgamma(float64(n+1)) - lgamma(float64(k+1)) - lgamma(float64(n-k+1))
	var lp, lq float64
	if p > 0 {
		lp = float64(k) * math.Log(p)
	} else if k > 0 {
		return 0
	}
	if p < 1 {
		lq = float64(n-k) * math.Log(1-p)
	} else if n-k > 0 {
		return 0
	}
	return math.Exp(lg + lp + lq)
}

func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

// logicCells returns the BIST/BISR logic area expressed in cell
// equivalents: the growth beyond the regular plus spare rows.
func (m Model) logicCells() float64 {
	arrayCells := float64((m.Rows + m.Spares) * m.Cols)
	totalCells := m.GrowthFactor * float64(m.Rows*m.Cols)
	extra := totalCells - arrayCells
	if extra < 0 {
		return 0
	}
	return extra
}

// YieldBISR returns the yield of the BISR'ed RAM when n defects would
// land in the *nonredundant* array (the paper's axis convention: the
// redundant array actually absorbs n times the growth factor). A
// defect in the BIST/BISR logic itself is fatal. Under clustering the
// Poisson result is integrated over a gamma-distributed defect rate.
func (m Model) YieldBISR(defects float64) float64 {
	return m.yieldBISR(defects, m.repairProbPoisson)
}

// YieldBISRIterated is YieldBISR under the relaxed 2k-pass
// repairability criterion (faulty spares themselves replaced).
func (m Model) YieldBISRIterated(defects float64) float64 {
	return m.yieldBISR(defects, m.repairProbIterated)
}

func (m Model) yieldBISR(defects float64, pr func(float64) float64) float64 {
	defects = clampDefects(defects)
	fixed := func(lambda float64) float64 {
		logicOK := math.Exp(-lambda * m.logicCells())
		return logicOK * pr(lambda)
	}
	lambda := m.lambdaCell(defects)
	if m.Alpha <= 0 || math.IsInf(m.Alpha, 1) {
		return fixed(lambda)
	}
	// Clustered: lambda' ~ Gamma(alpha, lambda/alpha); integrate.
	return gammaMixture(fixed, lambda, m.Alpha)
}

// gammaMixture computes E[f(L)] for L ~ Gamma(shape=alpha, mean=mean)
// by adaptive Simpson integration over a generous support.
func gammaMixture(f func(float64) float64, mean, alpha float64) float64 {
	if mean == 0 {
		return f(0)
	}
	scale := mean / alpha
	// Integrand: f(x) * gammaPDF(x).
	pdf := func(x float64) float64 {
		if x <= 0 {
			return 0
		}
		lg := (alpha-1)*math.Log(x) - x/scale - lgamma(alpha) - alpha*math.Log(scale)
		return math.Exp(lg)
	}
	g := func(x float64) float64 { return f(x) * pdf(x) }
	// Support: up to mean + 12 std devs.
	hi := mean + 12*math.Sqrt(alpha)*scale
	return simpson(g, 0, hi, 2000)
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

// ImprovementFactor returns YieldBISR / YieldNoRepair at the given
// defect count — the factor the cost model multiplies into the chip
// yield.
func (m Model) ImprovementFactor(defects float64) float64 {
	base := m.YieldNoRepair(defects)
	if base == 0 {
		return math.Inf(1)
	}
	return m.YieldBISR(defects) / base
}
