package experiments

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand"

	"repro/internal/bisr"
	"repro/internal/bist"
	"repro/internal/compiler"
	"repro/internal/march"
	"repro/internal/mcyield"
	"repro/internal/sram"
	"repro/internal/tech"
	"repro/internal/yield"
)

// TLBDelay reproduces the Section VI timing claim: the TLB match and
// map delay on the 0.7 µm process is of the order of a nanosecond
// with four spare rows — at least an order of magnitude below the RAM
// access time — and grows with the spare count, which is why only
// small TLBs are guaranteed maskable.
func TLBDelay() (*Table, error) {
	t := &Table{
		ID:     "TLBD",
		Title:  "TLB match+map delay vs spares and process (paper: ~1.2 ns at 0.7 um, 4 spares)",
		Header: []string{"process", "spares", "tlb_ns", "access_ns", "ratio", "maskable"},
	}
	for _, proc := range []*tech.Process{tech.CDA05, tech.MOS06, tech.CDA07} {
		for _, s := range []int{4, 8, 16} {
			p := compiler.Params{
				Words: 4096, BPW: 32, BPC: 8, Spares: s,
				BufSize: 2, StrapCells: 32, Process: proc,
			}
			d, err := compiler.Compile(p)
			if err != nil {
				return nil, err
			}
			t.Add(proc.Name, s, d.Timing.TLBNs, d.Timing.AccessNs,
				d.Timing.AccessNs/d.Timing.TLBNs, d.Timing.TLBMaskable)
		}
	}
	t.Note("paper: delay penalty maskable by overlapping with precharge/address-register phase for 1-4 spares")
	return t, nil
}

// Corners signs off the §VI timing claims across process corners: the
// TLB delay must remain maskable even at the slow corner, where every
// path degrades together.
func Corners() (*Table, error) {
	t := &Table{
		ID:     "CORNERS",
		Title:  "Timing sign-off across process corners (16-kbyte array, 4 spares, cda07u3m1p)",
		Header: []string{"corner", "access_ns", "tlb_ns", "ratio", "maskable"},
	}
	for _, corner := range []string{"fast", "typ", "slow"} {
		proc, err := tech.CDA07.Corner(corner)
		if err != nil {
			return nil, err
		}
		d, err := compiler.Compile(compiler.Params{
			Words: 4096, BPW: 32, BPC: 8, Spares: 4,
			BufSize: 2, StrapCells: 32, Process: proc,
		})
		if err != nil {
			return nil, err
		}
		t.Add(corner, d.Timing.AccessNs, d.Timing.TLBNs,
			d.Timing.AccessNs/d.Timing.TLBNs, d.Timing.TLBMaskable)
	}
	t.Note("TLB masking must hold at the slow corner: both paths degrade together, so the ratio is corner-stable")
	return t, nil
}

// Controller reproduces the Section VI controller claims: the
// combined test-and-repair controller is a handful of flip-flops
// driving a small PLA, and its area is a vanishing fraction of a
// 16-kbyte RAM.
func Controller() (*Table, error) {
	t := &Table{
		ID:     "CTRL",
		Title:  "Test-and-repair controller size (paper: 59 states, 6 flip-flops, <0.1% of a 16-kbyte RAM)",
		Header: []string{"algorithm", "states", "flipflops", "terms", "pla_pct_of_16kbyte_array"},
	}
	for _, alg := range []march.Test{march.IFA9(), march.IFA13(), march.MATSPlus(), march.MarchCMinus()} {
		p := compiler.Params{
			Words: 16384, BPW: 8, BPC: 8, Spares: 4,
			BufSize: 2, StrapCells: 32, Process: tech.CDA07,
			Test: alg,
		}
		d, err := compiler.Compile(p)
		if err != nil {
			return nil, err
		}
		pct := 100 * float64(d.Macros["trpla"].Bounds().Area()) / 1e6 / d.Area.ArrayRegular
		t.Add(alg.Name, d.Prog.NumStates, d.Prog.StateBits, len(d.Prog.Terms), pct)
	}
	t.Note("our linear microprogram encoding reaches fewer states than the paper's 59; both fit the 6-flip-flop budget")
	return t, nil
}

// Clustering validates the Stapper-clustering intuition end to end:
// at the same mean defect count, clustered defects concentrate into
// fewer rows, so the full BIST+BISR flow repairs clustered arrays
// more often than uniformly-defective ones — the simulation-side
// counterpart of Stapper's negative-binomial yield advantage.
func Clustering(trials int, seed int64) (*Table, error) {
	if trials <= 0 {
		trials = 40
	}
	t := &Table{
		ID:     "CLUSTER",
		Title:  "Repair rate: uniform vs clustered defects (64-word array, 4 spares)",
		Header: []string{"defects", "uniform", "clustered"},
	}
	cfg := sram.Config{Words: 64, BPW: 4, BPC: 4, SpareRows: 4}
	rng := rand.New(rand.NewSource(seed))
	for _, nd := range []int{4, 6, 8, 12} {
		var okU, okC int
		for trial := 0; trial < trials; trial++ {
			aU, err := sram.New(cfg)
			if err != nil {
				return nil, err
			}
			for i := 0; i < nd; i++ {
				k := sram.SA0
				if rng.Intn(2) == 1 {
					k = sram.SA1
				}
				_ = aU.Inject(sram.CellAddr{Row: rng.Intn(cfg.TotalRows()), Col: rng.Intn(cfg.Cols())},
					sram.Fault{Kind: k})
			}
			aC, err := sram.New(cfg)
			if err != nil {
				return nil, err
			}
			aC.InjectClustered(nd, 4, 1, rng)
			outU, err := bisr.NewController(bisr.NewRAM(aU)).Run()
			if err != nil {
				return nil, err
			}
			outC, err := bisr.NewController(bisr.NewRAM(aC)).Run()
			if err != nil {
				return nil, err
			}
			if outU.Repaired {
				okU++
			}
			if outC.Repaired {
				okC++
			}
		}
		t.Add(nd, fmt.Sprintf("%.0f%%", 100*float64(okU)/float64(trials)),
			fmt.Sprintf("%.0f%%", 100*float64(okC)/float64(trials)))
	}
	t.Note("clustered defects hit fewer distinct rows, so row redundancy repairs them more often — the simulated face of Stapper's clustering advantage")
	return t, nil
}

// GateLevel cross-checks the gate-level realisation of the complete
// BIST+BISR block (structural TRPLA + ADDGEN + DATAGEN + comparator +
// TLB, simulated gate by gate) against the behavioural controller on
// identical fault patterns, and reports the netlist size.
func GateLevel(trials int, seed int64) (*Table, error) {
	t := &Table{
		ID:     "GATE",
		Title:  "Gate-level BIST+BISR vs behavioural controller (32-word array, 4 spares)",
		Header: []string{"faults", "agree", "gl_repair_rate", "gates", "dffs", "gl_cycles"},
	}
	if trials <= 0 {
		trials = 8
	}
	rng := rand.New(rand.NewSource(seed))
	cfg := sram.Config{Words: 32, BPW: 4, BPC: 4, SpareRows: 4}
	// Every trial uses the same geometry and march program, so the
	// gate-level netlist is elaborated once and Rerun per trial.
	prog, err := bist.Assemble(march.IFA9())
	if err != nil {
		return nil, err
	}
	seedArr, err := sram.New(cfg)
	if err != nil {
		return nil, err
	}
	g, err := bisr.NewGateLevel(seedArr, prog)
	if err != nil {
		return nil, err
	}
	for _, nf := range []int{0, 1, 2, 4, 6} {
		agree, repaired := 0, 0
		var gates, dffs int
		var cycles int64
		for trial := 0; trial < trials; trial++ {
			type fp struct {
				cell sram.CellAddr
				kind sram.FaultKind
			}
			pattern := make([]fp, nf)
			for i := range pattern {
				k := sram.SA0
				if rng.Intn(2) == 1 {
					k = sram.SA1
				}
				pattern[i] = fp{cell: sram.CellAddr{Row: rng.Intn(cfg.Rows()), Col: rng.Intn(cfg.Cols())}, kind: k}
			}
			build := func() *sram.Array {
				a, _ := sram.New(cfg) // cfg is a validated literal
				for _, f := range pattern {
					_ = a.Inject(f.cell, sram.Fault{Kind: f.kind})
				}
				return a
			}
			if err := g.Rerun(build(), 4_000_000); err != nil {
				return nil, err
			}
			out, err := bisr.NewController(bisr.NewRAM(build())).Run()
			if err != nil {
				return nil, err
			}
			if g.Repaired() == out.Repaired {
				agree++
			}
			if g.Repaired() {
				repaired++
			}
			gates, dffs = g.GateCount()
			cycles = g.Cycles
		}
		t.Add(nf, fmt.Sprintf("%d/%d", agree, trials),
			fmt.Sprintf("%.0f%%", 100*float64(repaired)/float64(trials)),
			gates, dffs, cycles)
	}
	t.Note("agree = gate-level and behavioural reach the same repair verdict on the same fault pattern")
	return t, nil
}

// covCfg is the shared geometry of the coverage experiments: a 64-word,
// bpw=8 column-muxed array, small enough that the sampled fault sites
// below cover it densely.
var covCfg = sram.Config{Words: 64, BPW: 8, BPC: 4, SpareRows: 0}

// faultSite is one (victim, fault) position of a coverage campaign.
type faultSite struct {
	victim sram.CellAddr
	fault  sram.Fault
}

// batchCoverage evaluates a detection campaign bit-parallel: the
// ordered site list is packed 64 lanes at a time into BatchArrays and
// each chunk runs the test once, so 64 single-fault machines share one
// march pass. Detection verdicts are identical to injecting each site
// into its own scalar Array (the differential test in
// claims_batch_test.go pins this), so the COV table is byte-identical
// to the scalar implementation it replaced.
func batchCoverage(cfg sram.Config, sites []faultSite, test march.Test, backgrounds []uint64) (detected, injected int, err error) {
	if err := cfg.Validate(); err != nil {
		return 0, 0, err
	}
	for start := 0; start < len(sites); start += sram.BatchLanes {
		end := start + sram.BatchLanes
		if end > len(sites) {
			end = len(sites)
		}
		b, err := sram.NewBatch(cfg)
		if err != nil {
			return 0, 0, err
		}
		var active uint64
		for lane, s := range sites[start:end] {
			// An uninjectable site is skipped and uncounted, exactly as
			// the scalar loop skipped it.
			if err := b.Inject(lane, s.victim, s.fault); err != nil {
				continue
			}
			active |= 1 << uint(lane)
			injected++
		}
		if active == 0 {
			continue
		}
		det := march.RunBatch(b, test, backgrounds, cfg.BPW)
		detected += bits.OnesCount64(det & active)
	}
	return detected, injected, nil
}

// coverageSites samples the single-fault positions of one kind across
// the array: every 2nd row, every 3rd column (full space for the small
// array would be 512 cells x kinds x tests; the stride keeps position
// diversity at a fraction of the cost).
func coverageSites(kind sram.FaultKind) []faultSite {
	cfg := covCfg
	sites := make([]faultSite, 0, cfg.Rows()*cfg.Cols()/6)
	for row := 0; row < cfg.Rows(); row += 2 {
		for col := 0; col < cfg.Cols(); col += 3 {
			f := sram.Fault{Kind: kind}
			switch kind {
			case sram.CFID, sram.CFIN, sram.CFST:
				ar := row + 1
				if ar >= cfg.Rows() {
					ar = row - 1
				}
				f.Aggressor = sram.CellAddr{Row: ar, Col: col}
				f.AggrRise = (row+col)%2 == 0
				f.Forced = col%2 == 0
			}
			sites = append(sites, faultSite{victim: sram.CellAddr{Row: row, Col: col}, fault: f})
		}
	}
	return sites
}

// coverageCase injects every single fault of one kind across a sample
// of cells and reports the detection rate of a test/background
// combination, evaluating 64 fault machines per march pass.
func coverageCase(kind sram.FaultKind, test march.Test, backgrounds []uint64) (detected, injected int, err error) {
	return batchCoverage(covCfg, coverageSites(kind), test, backgrounds)
}

// intraWordSites samples couplings between bits of the same word — the
// case the paper's Johnson backgrounds exist for.
func intraWordSites() []faultSite {
	cfg := covCfg
	var sites []faultSite
	for row := 0; row < cfg.Rows(); row += 3 {
		for vb := 0; vb < cfg.BPW; vb++ {
			ab := (vb + 3) % cfg.BPW
			sites = append(sites, faultSite{
				victim: sram.CellAddr{Row: row, Col: vb*cfg.BPC + 1},
				fault: sram.Fault{
					Kind:      sram.CFID,
					Aggressor: sram.CellAddr{Row: row, Col: ab*cfg.BPC + 1},
					AggrRise:  vb%2 == 0,
					Forced:    vb%3 == 0,
				},
			})
		}
	}
	return sites
}

// intraWordCoverage measures detection of intra-word couplings with
// the same bit-parallel engine as coverageCase.
func intraWordCoverage(test march.Test, backgrounds []uint64) (detected, injected int, err error) {
	return batchCoverage(covCfg, intraWordSites(), test, backgrounds)
}

// Coverage reproduces the Section V fault-coverage claims: IFA-9
// detects stuck-at, transition, retention and state-coupling faults;
// IFA-13's read-after-write adds stuck-open coverage; and the Johnson
// multi-background DATAGEN catches intra-word couplings that a
// single-background generator (Chen-Sunada style) misses.
func Coverage() (*Table, error) {
	t := &Table{
		ID:     "COV",
		Title:  "Fault coverage by test algorithm and data backgrounds (64-word, bpw=8 array)",
		Header: []string{"fault", "MATS+", "March C-", "IFA-9", "IFA-13", "IFA-9(single bg)"},
	}
	tests := []march.Test{march.MATSPlus(), march.MarchCMinus(), march.IFA9(), march.IFA13()}
	bg := march.JohnsonBackgrounds(8)
	kinds := []sram.FaultKind{sram.SA0, sram.SA1, sram.TFU, sram.TFD,
		sram.SOF, sram.DRF0, sram.DRF1, sram.CFID, sram.CFIN, sram.CFST}
	for _, k := range kinds {
		row := []interface{}{k.String()}
		for _, test := range tests {
			det, inj, err := coverageCase(k, test, bg)
			if err != nil {
				return nil, err
			}
			row = append(row, pct(det, inj))
		}
		det, inj, err := coverageCase(k, march.IFA9(), march.SingleBackground())
		if err != nil {
			return nil, err
		}
		row = append(row, pct(det, inj))
		t.Add(row...)
	}
	// Intra-word coupling: the Johnson-vs-single-background ablation.
	rowJ := []interface{}{"CFID(intra-word)"}
	for _, test := range tests {
		det, inj, err := intraWordCoverage(test, bg)
		if err != nil {
			return nil, err
		}
		rowJ = append(rowJ, pct(det, inj))
	}
	detS, injS, err := intraWordCoverage(march.IFA9(), march.SingleBackground())
	if err != nil {
		return nil, err
	}
	rowJ = append(rowJ, pct(detS, injS))
	t.Add(rowJ...)
	t.Note("IFA-13 = IFA-9 + read-after-write: adds SOF coverage")
	t.Note("Johnson backgrounds strictly dominate the single background on intra-word couplings")
	return t, nil
}

func pct(det, inj int) string {
	if inj == 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f%%", 100*float64(det)/float64(inj))
}

// RepairComparison is the baseline ablation: BISRAMGEN's TLB versus
// Sawada's single fail-address register and Chen-Sunada's
// two-capture-per-subblock scheme, on identical random fault
// patterns. The compare-latency difference the paper stresses is a
// property of each architecture, stated in the table's note, not a
// measured column.
func RepairComparison(trials int, seed int64) (*Table, error) {
	t := &Table{
		ID:     "BASE",
		Title:  "Repair success rate vs prior schemes (64-word array, random single-cell faults)",
		Header: []string{"faults", "BISRAMGEN(4sp)", "BISRAMGEN(2k-pass)", "Sawada'89", "ChenSunada'93"},
	}
	if trials <= 0 {
		trials = 40
	}
	rng := rand.New(rand.NewSource(seed))
	cfg := sram.Config{Words: 64, BPW: 4, BPC: 4, SpareRows: 4}
	for _, nf := range []int{1, 2, 3, 4, 6, 8} {
		var okTLB, okIter, okSaw, okCS int
		for trial := 0; trial < trials; trial++ {
			// One shared fault pattern per trial.
			type fp struct {
				cell sram.CellAddr
				kind sram.FaultKind
			}
			pattern := make([]fp, nf)
			for i := range pattern {
				k := sram.SA0
				if rng.Intn(2) == 1 {
					k = sram.SA1
				}
				pattern[i] = fp{
					cell: sram.CellAddr{Row: rng.Intn(cfg.Rows()), Col: rng.Intn(cfg.Cols())},
					kind: k,
				}
			}
			build := func() *sram.Array {
				a, _ := sram.New(cfg) // cfg is a validated literal
				for _, f := range pattern {
					_ = a.Inject(f.cell, sram.Fault{Kind: f.kind})
				}
				return a
			}
			// BISRAMGEN single 2-pass run.
			ram := bisr.NewRAM(build())
			out, err := bisr.NewController(ram).Run()
			if err != nil {
				return nil, err
			}
			if out.Repaired {
				okTLB++
			}
			// Iterated.
			ram2 := bisr.NewRAM(build())
			ctl := bisr.NewController(ram2)
			ctl.MaxIterations = 4
			out2, err := ctl.Run()
			if err != nil {
				return nil, err
			}
			if out2.Repaired {
				okIter++
			}
			// Sawada: word-granular, one address.
			res := march.Run(build(), march.IFA9(), march.JohnsonBackgrounds(4), 4)
			saw := bisr.NewSawada()
			sawOK := true
			for _, ad := range res.FailedAddrs() {
				if !saw.Register(ad) {
					sawOK = false
				}
			}
			if sawOK && saw.Repaired() {
				okSaw++
			}
			// Chen-Sunada: 16-word subblocks, 1 spare block.
			cs, err := bisr.NewChenSunada(bisr.ChenSunadaConfig{Words: 64, SubblockWords: 16, SpareBlocks: 1})
			if err != nil {
				return nil, err
			}
			for _, ad := range res.FailedAddrs() {
				cs.Register(ad)
			}
			if cs.Resolve() {
				okCS++
			}
		}
		rate := func(n int) string { return fmt.Sprintf("%.0f%%", 100*float64(n)/float64(trials)) }
		t.Add(nf, rate(okTLB), rate(okIter), rate(okSaw), rate(okCS))
	}
	t.Note("TLB compares all entries in parallel (1 op); Chen-Sunada compares its two capture blocks sequentially")
	return t, nil
}

// YieldAblation quantifies the 2k-pass extension: yield under the
// strict goodness criterion versus the iterated criterion that
// replaces faulty spares.
func YieldAblation() (*Table, error) {
	gf, err := GrowthFactors()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "ABL-YIELD",
		Title:  "Strict vs iterated (2k-pass) repairability yield, 8 spares",
		Header: []string{"defects", "strict", "iterated", "gain_pct"},
	}
	m := yield.Model{Rows: fig45Rows, Cols: 16, Spares: 8, GrowthFactor: gf[8]}
	for _, n := range []float64{2, 5, 10, 15, 20, 30} {
		s := m.YieldBISR(n)
		it := m.YieldBISRIterated(n)
		gain := 0.0
		if s > 0 {
			gain = 100 * (it - s) / s
		}
		t.Add(n, s, it, gain)
	}
	t.Note("the iterated flow repairs faults within the spares themselves (Section VI's 2k-pass algorithm)")
	return t, nil
}

// MonteCarloYield validates the analytic Fig. 4 model against the
// actual BIST/BISR machinery: defects are thrown at simulated arrays,
// the full two-pass self-test-and-repair runs, and the empirical
// repair rate is compared with the analytic prediction.
func MonteCarloYield(trials int, seed int64) (*Table, error) {
	if trials <= 0 {
		trials = 30
	}
	t := &Table{
		ID:     "MC",
		Title:  "Monte-Carlo repair rate vs analytic model (64-word array, 4 spares)",
		Header: []string{"defects", "simulated", "analytic"},
	}
	rng := rand.New(rand.NewSource(seed))
	cfg := sram.Config{Words: 64, BPW: 4, BPC: 4, SpareRows: 4}
	model := yield.Model{Rows: cfg.Rows(), Cols: cfg.Cols(), Spares: 4, GrowthFactor: 1}
	for _, nd := range []int{1, 2, 4, 6, 8} {
		ok := 0
		for trial := 0; trial < trials; trial++ {
			a, err := sram.New(cfg)
			if err != nil {
				return nil, err
			}
			// Poisson-like: nd stuck-at defects at uniform cells
			// across regular AND spare rows (growth handled by the
			// total row count).
			for i := 0; i < nd; i++ {
				k := sram.SA0
				if rng.Intn(2) == 1 {
					k = sram.SA1
				}
				_ = a.Inject(sram.CellAddr{
					Row: rng.Intn(cfg.TotalRows()), Col: rng.Intn(cfg.Cols()),
				}, sram.Fault{Kind: k})
			}
			ram := bisr.NewRAM(a)
			out, err := bisr.NewController(ram).Run()
			if err != nil {
				return nil, err
			}
			if out.Repaired {
				ok++
			}
		}
		// Analytic: scale defects to the regular-array axis the model
		// uses (defects here land on total rows including spares).
		nEff := float64(nd) * float64(cfg.Rows()) / float64(cfg.TotalRows())
		t.Add(nd, fmt.Sprintf("%.0f%%", 100*float64(ok)/float64(trials)),
			fmt.Sprintf("%.0f%%", 100*model.YieldBISR(nEff)))
	}
	t.Note("simulated = full microprogrammed BIST + TLB repair; analytic = Section VII binomial model")
	return t, nil
}

// StatisticalYield puts the two yield views side by side: the seeded
// Monte-Carlo parametric estimate (per-cell Vth/β variation classified
// through the SPICE solver, importance-sampled into the tail) against
// the closed-form Poisson defect model fed the SAME expected fault
// count. Where the views agree, the binomial machinery of Section VII
// is a faithful stand-in for device-level variation; where sigma grows,
// the table shows the parametric tail the defect model cannot see.
func StatisticalYield(samples int, seed int64) (*Table, error) {
	if samples <= 0 {
		samples = 2000
	}
	const cells = 128 * 128 // a 16 Kb array, the paper's working size class
	t := &Table{
		ID:    "STATY",
		Title: fmt.Sprintf("Statistical (Monte-Carlo) vs closed-form yield, %d-cell array", cells),
		Header: []string{"sigma", "fail_prob", "std_err", "sigma_level",
			"mc_array_yield", "closed_form_yield", "delta_pct"},
	}
	closed := yield.Model{Rows: 128, Cols: 128, GrowthFactor: 1}
	for _, sigma := range []float64{0.08, 0.10, 0.12, 0.15, 0.20} {
		res, err := mcyield.Estimate(context.Background(), mcyield.Config{
			Process: tech.CDA07,
			Samples: samples,
			Sigma:   sigma,
			Shift:   mcyield.DefaultShift,
			Seed:    seed,
		})
		if err != nil {
			return nil, err
		}
		mcY := mcyield.ArrayYield(res.FailProb, cells)
		// The closed-form model speaks "expected defects in the array";
		// the MC failure probability implies exactly that count.
		cfY := closed.YieldNoRepair(res.FailProb * cells)
		delta := 0.0
		if cfY > 0 {
			delta = 100 * (mcY - cfY) / cfY
		}
		t.Add(sigma, fmt.Sprintf("%.3g", res.FailProb), fmt.Sprintf("%.2g", res.StdErr),
			fmt.Sprintf("%.2f", res.SigmaLevel),
			fmt.Sprintf("%.4f", mcY), fmt.Sprintf("%.4f", cfY),
			fmt.Sprintf("%+.2f", delta))
	}
	t.Note("mc = importance-sampled 6T-cell Monte-Carlo (internal/mcyield, seeded); closed form = Poisson at the MC-implied defect count")
	return t, nil
}
