// Command bisramgen is the compiler CLI: it takes the circuit
// parameters of the paper's Fig. 1 (words, bits per word, bits per
// column, spare rows, critical gate size, strap spacing, process) and
// generates the BISR-RAM module: an SVG layout plot, a datasheet, the
// TRPLA control plane files, and an extracted SPICE deck for the
// sense amplifier leaf cell.
//
// Flag parsing routes through internal/canon — the same request
// loader the bisramgend daemon uses — so validation, defaulting and
// content keying are identical no matter how a compile is invoked.
// -dump-request prints the daemon-compatible JSON request and its
// content address instead of compiling, so a CLI invocation can be
// replayed against a running service:
//
//	bisramgen -words 4096 -bpw 128 -dump-request | curl -sd @- localhost:8047/v1/compile
//
// Example:
//
//	bisramgen -words 4096 -bpw 128 -bpc 8 -spares 4 -strap 32 \
//	          -process cda07u3m1p -out fig6
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"

	"repro/internal/canon"
	"repro/internal/cerr"
	"repro/internal/cjson"
	"repro/internal/compiler"
	"repro/internal/obs"
	"repro/internal/render"
	"repro/internal/spice"
	"repro/internal/tech"
)

func main() {
	var (
		words    = flag.Int("words", 4096, "number of words (power of 2)")
		bpw      = flag.Int("bpw", 32, "bits per word")
		bpc      = flag.Int("bpc", 8, "bits per column (column mux ratio, power of 2)")
		spares   = flag.Int("spares", 4, "spare rows: 0, 4, 8 or 16")
		bufsize  = flag.Int("bufsize", canon.DefaultBufSize, "critical gate size multiplier (1..4)")
		strap    = flag.Int("strap", 32, "cells between straps (0 = none)")
		refine   = flag.Int("refine", 0, "simulated-annealing floorplan refinement moves (0 = off)")
		process  = flag.String("process", canon.DefaultProcess, "process deck: "+fmt.Sprint(tech.Names()))
		procFile = flag.String("process-file", "", "load a user process deck (key/value text; see internal/tech.Parse)")
		corner   = flag.String("corner", canon.DefaultCorner, "process corner: typ, slow, fast")
		test     = flag.String("test", canon.DefaultTest, "march algorithm: "+strings.Join(canon.TestNames(), ", "))
		custom   = flag.String("march", "", `custom march notation, e.g. "b(w0); u(r0,w1); d(r1,w0)"`)
		andFile  = flag.String("and-plane", "", "load TRPLA control code: AND plane file")
		orFile   = flag.String("or-plane", "", "load TRPLA control code: OR plane file")
		stBits   = flag.Int("state-bits", canon.DefaultStateBits, "state register width for loaded plane files")
		reqFile  = flag.String("request", "", "load a daemon-format JSON compile request (overrides the parameter flags)")
		dumpReq  = flag.String("dump-request", "", `print the request as daemon JSON and exit; "" compiles, "-" writes stdout, else a file path`)
		outDir   = flag.String("out", "bisram_out", "output directory")
		ascii    = flag.Bool("ascii", false, "print an ASCII floorplan to stdout")
		traceOut = flag.String("trace", "", "write a Chrome trace-event JSON of the compile to this file (load in chrome://tracing)")
		par      = flag.Int("compile-par", runtime.GOMAXPROCS(0), "per-compile goroutine fan-out (output is byte-identical at any value; 1 = serial)")
	)
	// -dump-request doubles as a boolean-ish flag: plain
	// `-dump-request` with no value is awkward in the flag package, so
	// "-" means stdout.
	flag.Parse()

	req, err := requestFromFlags(
		*reqFile, *words, *bpw, *bpc, *spares, *bufsize, *strap, *refine,
		*process, *procFile, *corner, *test, *custom, *andFile, *orFile, *stBits)
	if err != nil {
		fatal(err)
	}

	if *dumpReq != "" {
		if err := writeRequest(req, *dumpReq); err != nil {
			fatal(err)
		}
		return
	}

	// One shared loader resolves deck/corner/march/planes and validates
	// the envelope; the CLI no longer has its own resolution path.
	p, err := req.Params()
	if err != nil {
		fatal(err)
	}
	// Local concurrency default, applied after keying material is
	// fixed: parallelism never reaches the canonical key or the dumped
	// request, it only bounds this process's goroutine fan-out. A
	// request file naming an explicit parallelism wins.
	if p.Parallelism == 0 && *par > 0 {
		p.Parallelism = *par
	}
	key, err := canon.KeyOfParams(p)
	if err != nil {
		fatal(err)
	}
	// -trace attaches a span collector to the compile context; the
	// recorded stage/kernel spans are written as Chrome trace-event JSON
	// after the run (even a failed one would have been, but fatal exits).
	ctx := context.Background()
	var tr *obs.Trace
	if *traceOut != "" {
		tr = obs.NewTrace("")
		ctx = obs.WithTrace(ctx, tr)
	}
	d, err := compiler.CompileCtx(ctx, p)
	if err != nil {
		fatal(err)
	}
	if tr != nil {
		doc, terr := tr.SpanSet("bisramgen").ChromeJSON()
		if terr != nil {
			fatal(terr)
		}
		if err := os.WriteFile(*traceOut, doc, 0o644); err != nil {
			fatal(cerr.Wrap(cerr.CodeInvalidParams, err, "bisramgen: writing -trace"))
		}
		fmt.Fprintf(os.Stderr, "bisramgen: wrote %s (%d spans; open in chrome://tracing)\n", *traceOut, tr.Len())
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}
	write := func(name string, content []byte) {
		path := filepath.Join(*outDir, name)
		if err := os.WriteFile(path, content, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s (%d bytes)\n", path, len(content))
	}

	// A degraded compile may have no floorplan (estimate-only rung of
	// the ladder): its artifact set still holds the datasheet, report
	// and TRPLA control-code planes (loaded back at runtime by the tool,
	// and editable to change the test algorithm), just no layout.
	for _, deg := range d.Degradations {
		fmt.Fprintf(os.Stderr, "bisramgen: warning: degraded result: %s\n", deg)
	}
	if d.Top == nil {
		fmt.Fprintln(os.Stderr, "bisramgen: warning: no floorplan — skipping layout.svg and layout.gds")
	}
	arts, err := d.Artifacts()
	if err != nil {
		fatal(err)
	}
	names := make([]string, 0, len(arts))
	for name := range arts {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		write(name, arts[name])
	}

	// Extracted SPICE deck for the sense amplifier leaf cell.
	ckt := spice.New()
	ckt.V("vdd", "xvdd", spice.DC(p.Process.VDD))
	d.Lib.SenseAmp.Extract(ckt, "x")
	write("senseamp.sp", []byte(ckt.Deck("extracted current-mode sense amplifier")))

	fmt.Printf("\ncontent address: %s\n\n", key)
	fmt.Print(d.Datasheet())
	if *ascii && d.Top != nil {
		fmt.Println()
		fmt.Print(render.ASCII(d.Top, 78))
	}
}

// requestFromFlags assembles the daemon-format compile request from
// the CLI flags, inlining any referenced files (process deck, TRPLA
// planes) so the result is self-contained. When reqFile is set the
// request is loaded from it verbatim instead.
func requestFromFlags(reqFile string, words, bpw, bpc, spares, bufsize, strap, refine int,
	process, procFile, corner, test, custom, andFile, orFile string, stBits int) (canon.Request, error) {
	if reqFile != "" {
		data, err := os.ReadFile(reqFile)
		if err != nil {
			return canon.Request{}, cerr.Wrap(cerr.CodeInvalidParams, err, "bisramgen: reading -request")
		}
		return canon.ParseRequest(data)
	}
	req := canon.Request{
		Words: words, BPW: bpw, BPC: bpc, Spares: spares,
		BufSize: bufsize, StrapCells: strap, RefineIterations: refine,
		Process: process, Corner: corner,
		Test: test, March: custom,
	}
	if procFile != "" {
		deck, err := os.ReadFile(procFile)
		if err != nil {
			return canon.Request{}, cerr.Wrap(cerr.CodeDeckParse, err, "bisramgen: reading -process-file")
		}
		req.Deck = string(deck)
		req.Process = ""
	}
	// The paper's runtime control-code path: user-edited plane files
	// replace the built-in microprogram.
	if andFile != "" || orFile != "" {
		if andFile == "" || orFile == "" {
			return canon.Request{}, cerr.New(cerr.CodeInvalidParams, "both -and-plane and -or-plane are required")
		}
		and, err := os.ReadFile(andFile)
		if err != nil {
			return canon.Request{}, cerr.Wrap(cerr.CodePlaneParse, err, "bisramgen: reading -and-plane")
		}
		or, err := os.ReadFile(orFile)
		if err != nil {
			return canon.Request{}, cerr.Wrap(cerr.CodePlaneParse, err, "bisramgen: reading -or-plane")
		}
		req.ANDPlane, req.ORPlane = string(and), string(or)
		req.StateBits = stBits
	}
	return req, nil
}

// writeRequest renders the normalized request as canonical JSON plus
// its content address (on stderr), writing to stdout when dst is "-".
func writeRequest(req canon.Request, dst string) error {
	key, err := req.Key() // also fully validates the request
	if err != nil {
		return err
	}
	doc, err := cjson.MarshalIndent(req.Normalized())
	if err != nil {
		return err
	}
	if dst == "-" {
		os.Stdout.Write(doc)
	} else if err := os.WriteFile(dst, doc, 0o644); err != nil {
		return cerr.Wrap(cerr.CodeInvalidParams, err, "bisramgen: writing -dump-request")
	}
	fmt.Fprintf(os.Stderr, "bisramgen: content address %s\n", key)
	return nil
}

// fatal reports a pipeline error, leading with its stable ERR_* code
// name, and exits non-zero so scripts can branch on the taxonomy.
// Typed errors already render their own code; untyped OS-level
// failures get an explicit ERR_UNKNOWN prefix.
func fatal(err error) {
	if cerr.IsTyped(err) {
		fmt.Fprintf(os.Stderr, "bisramgen: %v\n", err)
	} else {
		fmt.Fprintf(os.Stderr, "bisramgen: %s: %v\n", cerr.CodeOf(err), err)
	}
	os.Exit(1)
}
