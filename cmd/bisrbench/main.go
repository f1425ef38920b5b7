// Command bisrbench is the seeded end-to-end and per-layer benchmark
// of the BISRAMGEN compile service. It runs the real server.New and
// cluster.NewGateway stack in-process on httptest listeners with the
// daemon's defaults, drives it with closed-loop clients (at most nproc
// of them), checks every response, and prints each metric as
// "name value unit" followed by a one-line JSON summary.
//
// Usage:
//
//	bisrbench -workload cold-compile|hit-serve|mixed-rw|fleet-sweep|all -seed N
//	          [-seconds S] [-trace 0|1|DIR] [-json] [-repeat N] [-compile-par K] [-scale F]
//
// -seconds S sizes the measured phase to S seconds of work at the
// workload's nominal rate; without it each workload sends its fixed op
// count times -scale. -trace selects the traced run,
// which reports per-layer numbers and writes DIR/layers.json and
// DIR/trace.json ("1" picks a directory under the temp dir). -repeat
// runs the workload N times in fresh processes and prints each metric's
// median and (max-min)/median. See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
)

// Extra set-ups, each in a fresh process, join the run's own in the
// setup_s median: at least minProbes, then more until probing has
// taken probeSeconds, so a quarter-second set-up is not left to one
// scheduler hiccup. A fresh process pays the process-wide warm-up
// (the leaf-cell memo) that a second in-process set-up would skip.
const (
	minProbes    = 4
	maxProbes    = 12
	probeSeconds = 2.0
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "bisrbench: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bisrbench", flag.ContinueOnError)
	var (
		opts  options
		trace string
		probe bool
		rep   int
	)
	fs.StringVar(&opts.workload, "workload", "", "cold-compile, hit-serve, mixed-rw, fleet-sweep or all")
	fs.Uint64Var(&opts.seed, "seed", 1, "workload seed; request bodies are a pure function of it")
	fs.Float64Var(&opts.seconds, "seconds", 0, "size the measured phase to this many seconds at the workload's nominal rate (0 = its fixed op count)")
	fs.Float64Var(&opts.scale, "scale", 1, "multiplies the fixed op counts of a run without -seconds")
	fs.StringVar(&trace, "trace", "", "traced run: 0 = off, 1 = write under the temp dir, else the output directory")
	fs.BoolVar(&opts.json, "json", false, "also print the full result document, failures included, as one JSON line")
	fs.IntVar(&rep, "repeat", 1, "run N times in fresh processes and print each metric's median and spread")
	fs.IntVar(&opts.compilePar, "compile-par", runtime.GOMAXPROCS(0), "per-compile fan-out of the in-process daemons (bisramgend -compile-par)")
	fs.BoolVar(&probe, "setup-probe", false, "internal: time one set-up in this process and exit")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: bisrbench -workload NAME|all -seed N [flags]\n\nworkloads:\n")
		for _, w := range workloads {
			fmt.Fprintf(fs.Output(), "  %-13s %s\n", w.name, w.why)
		}
		fmt.Fprintf(fs.Output(), "\nflags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if opts.scale <= 0 || opts.seconds < 0 || rep < 1 || opts.compilePar < 1 {
		return errors.New("-scale, -repeat and -compile-par must be positive and -seconds non-negative")
	}
	switch {
	case opts.workload == "all":
		return runAll(opts, trace, rep, stdout)
	case rep > 1:
		return runRepeat(opts, trace, rep, stdout)
	case probe:
		return runProbe(opts, stdout)
	}
	if trace != "" && trace != "0" {
		opts.traceDir = trace
		if trace == "1" {
			opts.traceDir = filepath.Join(os.TempDir(), fmt.Sprintf("bisrbench-trace-%s-%d", opts.workload, opts.seed))
		}
		if err := os.MkdirAll(opts.traceDir, 0o755); err != nil {
			return err
		}
	}
	opts.probe = opts.traceDir == "" // the traced run reports no setup_s
	res, err := runWorkload(opts)
	if err != nil {
		return err
	}
	if opts.traceDir != "" {
		fmt.Fprintf(os.Stderr, "bisrbench: wrote %s and %s\n",
			filepath.Join(opts.traceDir, "layers.json"), filepath.Join(opts.traceDir, "trace.json"))
	}
	return report(stdout, res, opts.json)
}

// childArgs are the flags of a child run of one workload.
func childArgs(o options, workload, trace string, extra ...string) []string {
	args := []string{
		"-workload", workload,
		"-seed", fmt.Sprint(o.seed),
		"-seconds", fmtFloat(o.seconds),
		"-scale", fmtFloat(o.scale),
		"-compile-par", fmt.Sprint(o.compilePar),
	}
	if trace != "" {
		args = append(args, "-trace", trace)
	}
	return append(args, extra...)
}

// child runs this binary with args and returns its standard output;
// its standard error passes through.
func child(args []string) ([]byte, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return out.Bytes(), fmt.Errorf("%s: %w", strings.Join(args, " "), err)
	}
	return out.Bytes(), nil
}

// lastLine returns the last non-empty line of out.
func lastLine(out []byte) []byte {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	return lines[len(lines)-1]
}

// runProbe is a set-up probe: build the workload's stack, time it,
// tear it down.
func runProbe(opts options, stdout io.Writer) error {
	w, ok := workloadByName(opts.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", opts.workload)
	}
	b := &bench{opts: opts, w: w, oracle: newOracle()}
	secs, err := timeSetup(b)
	if b.st != nil {
		if cerr := b.st.close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(stdout).Encode(map[string]float64{"setup_s": secs})
}

// probeSetup times one set-up in a fresh child process.
func probeSetup(opts options) (float64, error) {
	out, err := child(childArgs(opts, opts.workload, "", "-setup-probe"))
	if err != nil {
		return 0, err
	}
	var v struct {
		SetupS float64 `json:"setup_s"`
	}
	if err := json.Unmarshal(lastLine(out), &v); err != nil {
		return 0, fmt.Errorf("probe output: %w", err)
	}
	return v.SetupS, nil
}

// runAll runs every workload in its own process, one after another.
func runAll(opts options, trace string, rep int, stdout io.Writer) error {
	var errs []error
	for _, w := range workloads {
		t := trace
		if t != "" && t != "0" && t != "1" {
			t = filepath.Join(trace, w.name)
		}
		out, err := child(childArgs(opts, w.name, t, "-repeat", fmt.Sprint(rep), fmt.Sprintf("-json=%t", opts.json)))
		stdout.Write(out)
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// runRepeat runs one workload rep times in fresh processes with the
// same seed and prints, per metric, the median and (max-min)/median.
func runRepeat(opts options, trace string, rep int, stdout io.Writer) error {
	var runs []result
	for i := 0; i < rep; i++ {
		out, err := child(childArgs(opts, opts.workload, trace, "-json"))
		if err != nil {
			return err
		}
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		if len(lines) < 2 {
			return fmt.Errorf("run %d printed no result document", i+1)
		}
		var r result
		if err := json.Unmarshal(lines[len(lines)-2], &r); err != nil {
			return fmt.Errorf("run %d: %w", i+1, err)
		}
		runs = append(runs, r)
	}
	fmt.Fprintf(stdout, "# %s seed=%d runs=%d nproc=%d %s compile_par=%d\n",
		opts.workload, opts.seed, rep, runs[0].Nproc, runs[0].GoVersion, runs[0].CompilePar)
	fmt.Fprintf(stdout, "# metric median spread unit values\n")
	sum := &result{Workload: opts.workload, Seed: opts.seed, Traced: runs[0].Traced}
	for _, m := range runs[0].Metrics {
		var vals []string
		var vs []float64
		for _, r := range runs {
			if v, ok := r.value(m.Name); ok {
				vs = append(vs, v.Value)
				vals = append(vals, fmtFloat(v.Value))
			}
		}
		med := median(vs)
		spread := ratio(slices.Max(vs)-slices.Min(vs), med)
		fmt.Fprintf(stdout, "%s %s %.4f %s [%s]\n", m.Name, fmtFloat(med), spread, m.Unit, strings.Join(vals, " "))
		sum.add(m.Name, med, m.Unit)
	}
	for _, r := range runs {
		sum.Attempted += r.Attempted
		sum.Failed += r.Failed
	}
	return reportSummary(stdout, sum)
}
