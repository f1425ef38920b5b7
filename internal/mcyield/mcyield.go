// Package mcyield is the statistical yield engine: a seeded,
// deterministic Monte-Carlo estimator of SRAM cell failure
// probability under per-device threshold-voltage and
// transconductance (β) variation, classified through the internal
// SPICE solver's batch-reuse Session API.
//
// The paper sizes its BISR arrays against a closed-form defect model
// (internal/yield); this package supplies the complementary
// *parametric* failure view the memory-yield literature (and tools
// like OpenYield) use: sample a cell's device parameters, classify
// hold/read/write failures with DC analyses, and estimate the
// failure probability. Because interesting cells fail at 4–6σ, plain
// Monte-Carlo needs ~10⁷ samples per point; the engine therefore
// importance-samples the tail — threshold draws are mean-shifted into
// the tails via a defensive two-sided mixture and reweighted by the
// exact likelihood ratio — so sigma-level estimates converge in ~10³
// samples.
//
// Determinism contract: an estimate is a pure function of
// (process, samples, sigma, shift, seed). Each sample index derives
// its own RNG stream, workers write verdicts into per-index slots,
// and the reduction runs serially in index order, so the result is
// bit-identical at any worker count.
package mcyield

import (
	"context"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cerr"
	"repro/internal/chaos"
	"repro/internal/obs"
	"repro/internal/tech"
)

// Validation bounds. MaxSamples keeps a single sweep point's CPU time
// bounded (≈10⁶ DC solves); MaxSigma keeps the perturbed devices
// physical (σ is relative to |VT0|, and beyond 50% the level-1 model
// is meaningless); MaxShift caps the importance-sampling mean shift
// where likelihood-ratio weights degenerate.
const (
	MaxSamples = 1 << 20
	MaxSigma   = 0.5
	MaxShift   = 6.0
	// DefaultShift is the mean shift the sweep axis uses: ~3σ into
	// the tail, a good variance/robustness trade for 4–6σ cells.
	DefaultShift = 3.0
)

// chunk is how many consecutive sample indices a worker claims per
// cursor bump; one chaos checkpoint fires per chunk.
const chunk = 32

// Config parameterizes Estimate.
type Config struct {
	Process *tech.Process
	Samples int
	// Sigma is the relative per-device parameter spread; see Params.
	Sigma float64
	// Shift is the importance-sampling mean shift; 0 means plain
	// Monte-Carlo. Use DefaultShift for tail estimation.
	Shift float64
	Seed  int64
	// Workers bounds the solver pool; 0 means GOMAXPROCS. Each worker
	// owns a private CellSim (circuit + factorization scratch).
	Workers int
	Chaos   *chaos.Injector
	Stats   *Stats
}

func (c Config) validate() error {
	switch {
	case c.Process == nil:
		return cerr.New(cerr.CodeInvalidParams, "mcyield: nil process")
	case c.Samples < 1 || c.Samples > MaxSamples:
		return cerr.New(cerr.CodeInvalidParams, "mcyield: samples %d out of range [1, %d]", c.Samples, MaxSamples)
	case !(c.Sigma > 0) || c.Sigma > MaxSigma:
		return cerr.New(cerr.CodeInvalidParams, "mcyield: sigma %g out of range (0, %g]", c.Sigma, MaxSigma)
	case math.IsNaN(c.Shift) || c.Shift < 0 || c.Shift > MaxShift:
		return cerr.New(cerr.CodeInvalidParams, "mcyield: shift %g out of range [0, %g]", c.Shift, MaxShift)
	}
	return nil
}

// Result is a finished estimate. FailProb is the (weighted) cell
// failure probability; StdErr its Monte-Carlo standard error;
// SigmaLevel the equivalent normal quantile Φ⁻¹(1−FailProb), floored
// via a 1/(2(N+1)) probability bound when no failures were observed.
// The mode counts are raw (unweighted) sample tallies.
type Result struct {
	Samples    int     `json:"samples"`
	Sigma      float64 `json:"sigma"`
	Shift      float64 `json:"shift"`
	Seed       int64   `json:"seed"`
	FailProb   float64 `json:"fail_prob"`
	StdErr     float64 `json:"std_err"`
	SigmaLevel float64 `json:"sigma_level"`
	Fails      int     `json:"fails"`
	HoldFails  int     `json:"hold_fails"`
	ReadFails  int     `json:"read_fails"`
	WriteFails int     `json:"write_fails"`
	Diverged   int     `json:"diverged"`
	Trip       float64 `json:"trip_v"`
}

// CellYield is 1 − FailProb, clamped to [0, 1].
func (r Result) CellYield() float64 {
	return math.Min(1, math.Max(0, 1-r.FailProb))
}

// ArrayYield is the probability that all cells of an array work:
// (1 − p)^cells, computed in log space so megabit arrays at small p
// stay accurate.
func ArrayYield(failProb float64, cells int) float64 {
	if failProb <= 0 {
		return 1
	}
	if failProb >= 1 {
		return 0
	}
	return math.Exp(float64(cells) * math.Log1p(-failProb))
}

// sigmaLevel converts a failure probability into the equivalent
// one-sided normal quantile. Zero observed failures report the
// resolution bound of the run rather than +Inf, keeping the field
// JSON-encodable and honest about what N samples can claim.
func sigmaLevel(p float64, n int) float64 {
	if p >= 1 {
		return 0
	}
	if p <= 0 {
		p = 1 / (2 * float64(n+1))
	}
	if p < 1e-10 {
		return tailQuantile(p)
	}
	return math.Sqrt2 * math.Erfinv(1-2*p)
}

// tailQuantile solves Q(z) = p for a tail probability p < 1e-10,
// where Q(z) = Erfc(z/√2)/2 is the upper normal tail. The closed form
// Sqrt2*Erfinv(1-2p) cannot serve here: 1-2p rounds to 1 for
// p ≲ 5.5e-17 and yields +Inf (math.Erfcinv(2p) is the same
// expression in Go). Newton's method on ln Q(z) − ln p starts from
// sqrt(−2 ln p), which lies beyond the root because Q(z) < e^(−z²/2);
// ln Q is concave, so the iterates fall monotonically onto the root.
// If Q or the density underflows (p near the subnormal range) the
// last iterate stands, which is finite.
func tailQuantile(p float64) float64 {
	lp := math.Log(p)
	z := math.Sqrt(-2 * lp)
	for i := 0; i < 50; i++ {
		q := 0.5 * math.Erfc(z/math.Sqrt2)
		pdf := math.Exp(-z*z/2) / math.Sqrt(2*math.Pi)
		if q == 0 || pdf == 0 {
			break
		}
		step := (math.Log(q) - lp) * q / pdf
		z += step
		if math.Abs(step) <= 1e-12*z {
			break
		}
	}
	return z
}

// Estimate runs the Monte-Carlo yield estimate. Worker goroutines
// claim chunks of the index space from an atomic cursor, classify
// each sample with a per-worker CellSim, and record verdicts into
// per-index slots; the weighted reduction then runs serially, so the
// result is identical for identical configs at any worker count.
func Estimate(ctx context.Context, cfg Config) (Result, error) {
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	start := time.Now()
	n := cfg.Samples
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}

	params := Params{Sigma: cfg.Sigma, Shift: cfg.Shift, Seed: cfg.Seed}
	modes := make([]uint8, n)
	weights := make([]float64, n)

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		cursor   atomic.Int64
		errOnce  sync.Once
		firstErr error
		tripOnce sync.Once
		trip     float64 // workers agree: pure function of the process
		wg       sync.WaitGroup
	)
	fail := func(err error) {
		errOnce.Do(func() { firstErr = err; cancel() })
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cs, err := NewCellSim(cfg.Process)
			if err != nil {
				fail(err)
				return
			}
			tripOnce.Do(func() { trip = cs.Trip() })
			for {
				base := int(cursor.Add(chunk)) - chunk
				if base >= n {
					return
				}
				if err := ctx.Err(); err != nil {
					fail(cerr.New(cerr.CodeBudgetExceeded, "mcyield: estimate canceled: %v", err))
					return
				}
				if err := cfg.Chaos.Point(chaos.PointMCSample); err != nil {
					fail(cerr.Wrap(cerr.CodeInternal, err, "mcyield: chaos injection"))
					return
				}
				end := base + chunk
				if end > n {
					end = n
				}
				for i := base; i < end; i++ {
					smp, err := cs.Sample(uint64(i), params)
					if err != nil {
						fail(err)
						return
					}
					modes[i] = uint8(smp.Mode)
					weights[i] = smp.Weight
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return Result{}, firstErr
	}

	res := Result{Samples: n, Sigma: cfg.Sigma, Shift: cfg.Shift, Seed: cfg.Seed, Trip: trip}
	var sumW, sumW2 float64
	for i := 0; i < n; i++ {
		m := Mode(modes[i])
		if m == ModeNone {
			continue
		}
		res.Fails++
		w := weights[i]
		sumW += w
		sumW2 += w * w
		switch m {
		case ModeHold:
			res.HoldFails++
		case ModeRead:
			res.ReadFails++
		case ModeWrite:
			res.WriteFails++
		case ModeDiverged:
			res.Diverged++
		}
	}
	fn := float64(n)
	res.FailProb = sumW / fn
	res.StdErr = math.Sqrt(math.Max(0, sumW2/fn-res.FailProb*res.FailProb) / fn)
	res.SigmaLevel = sigmaLevel(res.FailProb, n)
	cfg.Stats.record(res, time.Since(start))
	return res, nil
}

// Stats holds the engine's observability instruments; register once
// per process with NewStats and share across estimates. A nil *Stats
// (or one built from a nil registry) records nothing.
type Stats struct {
	Estimates *obs.Counter
	Samples   *obs.Counter
	Failures  *obs.Counter
	Duration  *obs.Histogram
	SigmaLvl  *obs.Histogram
}

// NewStats registers the mcyield metric family on r (nil r is fine:
// every instrument degrades to a no-op).
func NewStats(r *obs.Registry) *Stats {
	return &Stats{
		Estimates: r.Counter("mcyield_estimates_total",
			"Completed Monte-Carlo yield estimates."),
		Samples: r.Counter("mcyield_samples_total",
			"Monte-Carlo cell samples classified."),
		Failures: r.Counter("mcyield_sample_failures_total",
			"Samples that failed a hold/read/write test (unweighted)."),
		Duration: r.Histogram("mcyield_estimate_duration_seconds",
			"Wall time of one yield estimate.", nil),
		SigmaLvl: r.Histogram("mcyield_sigma_level",
			"Estimated cell sigma level per estimate.",
			[]float64{1, 2, 3, 4, 5, 6, 7}),
	}
}

func (s *Stats) record(res Result, dur time.Duration) {
	if s == nil {
		return
	}
	s.Estimates.Inc()
	s.Samples.Add(uint64(res.Samples))
	s.Failures.Add(uint64(res.Fails))
	s.Duration.Observe(dur.Seconds())
	s.SigmaLvl.Observe(res.SigmaLevel)
}
