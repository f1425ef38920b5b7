// Command bisrsim runs fault-injection campaigns against the
// behavioural BISR RAM: it injects random defects, executes the
// microprogrammed two-pass (or iterated 2k-pass) self-test-and-repair
// flow, and reports repair outcomes, spare usage and march-test
// verification.
//
// Example:
//
//	bisrsim -words 1024 -bpw 8 -bpc 4 -spares 4 -faults 3 -trials 100
//
// The `faultcampaign` subcommand instead runs the adversarial-input
// campaign against the full compiler pipeline and exits non-zero if
// any input produced a panic, hang or untyped error:
//
//	bisrsim faultcampaign [-v] [-timeout 30s]
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro/internal/bisr"
	"repro/internal/bist"
	"repro/internal/canon"
	"repro/internal/cerr"
	"repro/internal/faultcampaign"
	"repro/internal/logicsim"
	"repro/internal/march"
	"repro/internal/obs"
	"repro/internal/sram"
)

// fail reports a pipeline error, leading with its stable ERR_* code
// name, and exits non-zero. Typed errors already render their own
// code; untyped failures get an explicit ERR_UNKNOWN prefix.
func fail(err error) {
	if cerr.IsTyped(err) {
		fmt.Fprintf(os.Stderr, "bisrsim: %v\n", err)
	} else {
		fmt.Fprintf(os.Stderr, "bisrsim: %s: %v\n", cerr.CodeOf(err), err)
	}
	os.Exit(1)
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "faultcampaign" {
		runFaultCampaign(os.Args[2:])
		return
	}
	var (
		words  = flag.Int("words", 1024, "number of words")
		bpw    = flag.Int("bpw", 8, "bits per word (<= 64)")
		bpc    = flag.Int("bpc", 4, "bits per column")
		spares = flag.Int("spares", 4, "spare rows")
		faults = flag.Int("faults", 3, "random faults injected per trial")
		trials = flag.Int("trials", 50, "number of trials")
		iters  = flag.Int("iterations", 1, "max test-and-repair iterations (2k-pass when > 1)")
		seed   = flag.Int64("seed", 1, "random seed")
		v      = flag.Bool("v", false, "per-trial detail")
		gate   = flag.Bool("gatelevel", false, "run one trial on the gate-level BIST+BISR netlist instead")
		vcd    = flag.String("vcd", "", "with -gatelevel: dump control waveforms to this VCD file")
	)
	flag.Parse()

	// Geometry validation routes through the shared canon loader: the
	// simulator accepts exactly the envelope the compiler (CLI and
	// daemon) accepts, rather than keeping a looser private check.
	req := canon.Request{Words: *words, BPW: *bpw, BPC: *bpc, Spares: *spares}
	p, err := req.Params()
	if err != nil {
		fail(err)
	}
	cfg := sram.Config{Words: p.Words, BPW: p.BPW, BPC: p.BPC, SpareRows: p.Spares}
	if err := cfg.Validate(); err != nil {
		fail(err) // behavioural-model limits (e.g. bpw <= 64) on top of the envelope
	}
	if *gate {
		runGateLevel(cfg, *faults, *seed, *vcd)
		return
	}
	rng := rand.New(rand.NewSource(*seed))
	var repaired, verified, overflow int
	var totalSpares, totalCaptures, totalIters int
	for trial := 0; trial < *trials; trial++ {
		arr, err := sram.New(cfg)
		if err != nil {
			fail(err)
		}
		victims := arr.InjectRandom(*faults, rng)
		ram := bisr.NewRAM(arr)
		ctl := bisr.NewController(ram)
		ctl.MaxIterations = *iters
		out, err := ctl.Run()
		if err != nil {
			fail(err)
		}
		pass := false
		if out.Repaired {
			repaired++
			pass = march.Run(ram, march.IFA9(), march.JohnsonBackgrounds(*bpw), *bpw).Pass()
			if pass {
				verified++
			}
		}
		if out.Overflow {
			overflow++
		}
		totalSpares += out.SparesUsed
		totalCaptures += out.Captures
		totalIters += out.Iterations
		if *v {
			fmt.Printf("trial %3d: %d faults on %d cells, repaired=%v verified=%v spares=%d iters=%d\n",
				trial, arr.FaultCount(), len(victims), out.Repaired, pass, out.SparesUsed, out.Iterations)
		}
	}
	n := float64(*trials)
	fmt.Printf("configuration: %d words x %d bits (bpc %d), %d spare rows, %d faults/trial, %d max iterations\n",
		*words, *bpw, *bpc, *spares, *faults, *iters)
	fmt.Printf("repaired:    %d/%d (%.1f%%)\n", repaired, *trials, 100*float64(repaired)/n)
	fmt.Printf("verified:    %d/%d post-repair march passes\n", verified, repaired)
	fmt.Printf("overflowed:  %d trials exhausted the TLB\n", overflow)
	fmt.Printf("avg spares used: %.2f, avg captures: %.2f, avg iterations: %.2f\n",
		float64(totalSpares)/n, float64(totalCaptures)/n, float64(totalIters)/n)
}

// runGateLevel executes one fault-injection trial on the full
// gate-level BIST+BISR netlist, optionally dumping control waveforms.
func runGateLevel(cfg sram.Config, faults int, seed int64, vcdPath string) {
	arr, err := sram.New(cfg)
	if err != nil {
		fail(err)
	}
	arr.InjectRandom(faults, rand.New(rand.NewSource(seed)))
	prog, err := bist.Assemble(march.IFA9())
	if err != nil {
		fail(err)
	}
	g, err := bisr.NewGateLevel(arr, prog)
	if err != nil {
		fail(err)
	}
	var rec *logicsim.VCDRecorder
	if vcdPath != "" {
		rec = logicsim.NewVCDRecorder(g.Sim, g.WatchNets())
	}
	if err := g.Run(20_000_000); err != nil {
		fail(err)
	}
	gates, dffs := g.GateCount()
	fmt.Printf("gate-level run: %d gates, %d flip-flops, %d cycles\n", gates, dffs, g.Cycles)
	fmt.Printf("faults injected: %d; captures: %d; repaired: %v; spares used: %d\n",
		arr.FaultCount(), g.Captures, g.Repaired(), g.SparesUsed())
	if rec != nil {
		f, err := os.Create(vcdPath)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		if err := rec.Write(f, "1ns"); err != nil {
			fail(err)
		}
		fmt.Printf("wrote %s (%d timesteps)\n", vcdPath, rec.Events())
	}
}

// runFaultCampaign executes the built-in adversarial-input campaign
// against the full compile pipeline and reports the classified
// outcomes. Exit status is non-zero unless every case ended in a clean
// compile or a typed error.
func runFaultCampaign(args []string) {
	fs := flag.NewFlagSet("faultcampaign", flag.ExitOnError)
	var (
		verbose  = fs.Bool("v", false, "print every case, not just failures")
		timeout  = fs.Duration("timeout", faultcampaign.DefaultTimeout, "per-case deadline")
		traceOut = fs.String("trace", "", "write a Chrome trace-event JSON of the campaign (one span per case, pipeline stages nested)")
	)
	_ = fs.Parse(args)

	var tr *obs.Trace
	if *traceOut != "" {
		tr = obs.NewTrace("faultcampaign")
	}
	cases := faultcampaign.Cases()
	fmt.Printf("fault campaign: %d adversarial inputs, %v per-case deadline\n", len(cases), *timeout)
	rep := faultcampaign.RunTraced(cases, *timeout, tr)
	if tr != nil {
		doc, err := tr.SpanSet("bisrsim").ChromeJSON()
		if err != nil {
			fail(err)
		}
		if err := os.WriteFile(*traceOut, doc, 0o644); err != nil {
			fail(err)
		}
		fmt.Printf("wrote %s (%d spans; open in chrome://tracing)\n", *traceOut, tr.Len())
	}
	for _, res := range rep.Results {
		bad := !res.Outcome.Acceptable()
		if !*verbose && !bad {
			continue
		}
		code := ""
		if res.Code.String() != "ERR_UNKNOWN" {
			code = " " + res.Code.String()
		}
		fmt.Printf("  %-38s [%-6s] %-12s%s (%s)\n", res.Name, res.Kind, res.Outcome, code, res.Elapsed.Round(time.Microsecond))
	}
	c := rep.Counts()
	fmt.Printf("outcomes: %d ok, %d typed-error, %d untyped, %d panic, %d hang\n",
		c[faultcampaign.OK], c[faultcampaign.TypedError], c[faultcampaign.UntypedError],
		c[faultcampaign.Panicked], c[faultcampaign.Hung])
	if !rep.Clean() {
		fmt.Fprintln(os.Stderr, "bisrsim: FAULT CAMPAIGN FAILED — pipeline produced a panic, hang or untyped error")
		os.Exit(1)
	}
	fmt.Println("fault campaign clean: every outcome is a typed error or a successful compile")
}
