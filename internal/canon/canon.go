// Package canon defines the wire form of a BISRAMGEN compile request
// and its content address: a deterministic canonicalization of the
// fully-validated inputs (circuit parameters + resolved technology
// deck + march/test specification) hashed with SHA-256.
//
// The same Request/Params loader serves three front ends — the
// bisramgend HTTP daemon, the bisramgen CLI, and the bisrsim fault
// simulator — so validation, defaulting and keying behave identically
// no matter how a compile is invoked. Two requests that resolve to the
// same effective inputs (e.g. a built-in deck referenced by name vs.
// the identical deck pasted inline, or a march test written with
// different whitespace) produce the same key, which is what makes the
// serving layer's content-addressed cache safe: a key collision is a
// semantic equivalence, never an accident of formatting.
package canon

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"strings"

	"repro/internal/bist"
	"repro/internal/cerr"
	"repro/internal/cjson"
	"repro/internal/compiler"
	"repro/internal/march"
	"repro/internal/mcyield"
	"repro/internal/tech"
)

// KeyVersion is the canonical-form schema version. It is folded into
// every key so a change to the canonicalization (new field, different
// deck serialization) invalidates old cache entries instead of
// aliasing them.
const KeyVersion = 1

// WireVersion is the current compile-request wire-format version. A
// request may omit the field (it defaults to WireVersion); any other
// value is rejected with ERR_BAD_REQUEST at parse time. The wire
// version is deliberately NOT part of the content key: a version-1
// request with and without the explicit field resolves to the same
// key (the key schema has its own independent KeyVersion).
const WireVersion = 1

// Request is the JSON wire form of one compile request — the inputs
// of the paper's Fig. 1 plus the test-algorithm selection, exactly
// mirroring the bisramgen CLI flags. The zero value of each optional
// field selects the CLI's default.
type Request struct {
	// Version is the wire-format version; 0 (absent) defaults to
	// WireVersion, anything else must equal WireVersion.
	Version int `json:"version,omitempty"`

	// Geometry (required; validated by compiler.Params.Validate).
	Words  int `json:"words"`
	BPW    int `json:"bpw"`
	BPC    int `json:"bpc"`
	Spares int `json:"spares"`

	// Sizing knobs. BufSize defaults to 2 (the CLI default) when 0.
	BufSize    int `json:"bufsize,omitempty"`
	StrapCells int `json:"strap_cells,omitempty"`

	// RefineIterations enables the simulated-annealing floorplan
	// refiner for that many moves.
	RefineIterations int `json:"refine_iterations,omitempty"`

	// Process selects a built-in deck by name (default cda07u3m1p);
	// Deck, when non-empty, is an inline process deck in the
	// internal/tech.Parse key/value format and takes precedence.
	Process string `json:"process,omitempty"`
	Deck    string `json:"deck,omitempty"`
	// Corner is typ (default), slow or fast.
	Corner string `json:"corner,omitempty"`

	// Test names a built-in march algorithm (default ifa9); March,
	// when non-empty, is a custom test in the standard notation, e.g.
	// "b(w0); u(r0,w1); d(r1,w0)", and takes precedence.
	Test  string `json:"test,omitempty"`
	March string `json:"march,omitempty"`

	// ANDPlane/ORPlane carry TRPLA control-plane file contents (the
	// runtime control-code loading path); both must be set together.
	// StateBits is the state-register width for loaded planes
	// (default 5).
	ANDPlane  string `json:"and_plane,omitempty"`
	ORPlane   string `json:"or_plane,omitempty"`
	StateBits int    `json:"state_bits,omitempty"`

	// Parallelism bounds the goroutine fan-out of the compile's
	// independent stages (0 lets the server pick its configured
	// default). It is an execution knob, not a design input: the
	// compiler guarantees byte-identical output for every value, so
	// Parallelism is deliberately EXCLUDED from the canonical key form
	// — a parallel compile must hit the cache entry a serial compile
	// wrote, and vice versa (see keyForm and the golden-key test).
	Parallelism int `json:"parallelism,omitempty"`

	// Monte-Carlo yield analysis knobs (internal/mcyield). MCSamples
	// cell samples are classified at relative parameter spread MCSigma
	// with deterministic seed MCSeed; both MCSamples and MCSigma must
	// be set together (zero means no statistical yield analysis).
	// Like Parallelism these are analysis-only: they select extra
	// post-compile analysis and are deliberately EXCLUDED from the
	// canonical key form, so every MC variant of a design shares the
	// one compiled artifact exactly as defect-rate sweep points do.
	MCSamples int     `json:"mc_samples,omitempty"`
	MCSigma   float64 `json:"mc_sigma,omitempty"`
	MCSeed    int64   `json:"mc_seed,omitempty"`
}

// MCEnabled reports whether the request asks for Monte-Carlo yield
// analysis.
func (r Request) MCEnabled() bool { return r.MCSamples > 0 }

// ValidateMC checks the Monte-Carlo analysis knobs against the
// engine's envelope. The zero value (no MC analysis) is valid.
func (r Request) ValidateMC() error {
	switch {
	case r.MCSamples < 0 || r.MCSamples > mcyield.MaxSamples:
		return cerr.New(cerr.CodeInvalidParams,
			"canon: mc_samples %d out of range [0, %d]", r.MCSamples, mcyield.MaxSamples)
	case math.IsNaN(r.MCSigma) || r.MCSigma < 0 || r.MCSigma > mcyield.MaxSigma:
		return cerr.New(cerr.CodeInvalidParams,
			"canon: mc_sigma %g out of range [0, %g]", r.MCSigma, mcyield.MaxSigma)
	case (r.MCSamples > 0) != (r.MCSigma > 0):
		return cerr.New(cerr.CodeInvalidParams,
			"canon: mc_samples and mc_sigma must be set together (got %d, %g)",
			r.MCSamples, r.MCSigma)
	}
	return nil
}

// Defaults, shared with the CLI flag definitions.
const (
	DefaultProcess   = "cda07u3m1p"
	DefaultCorner    = "typ"
	DefaultTest      = "ifa9"
	DefaultBufSize   = 2
	DefaultStateBits = 5
)

// Normalized returns the request with every optional selector filled
// with its documented default, so canonicalization never depends on
// whether a default was spelled out or omitted.
func (r Request) Normalized() Request {
	if r.Version == 0 {
		r.Version = WireVersion
	}
	if r.Deck == "" && r.Process == "" {
		r.Process = DefaultProcess
	}
	if r.Corner == "" {
		r.Corner = DefaultCorner
	}
	if r.March == "" && r.Test == "" {
		r.Test = DefaultTest
	}
	if r.BufSize == 0 {
		r.BufSize = DefaultBufSize
	}
	if (r.ANDPlane != "" || r.ORPlane != "") && r.StateBits == 0 {
		r.StateBits = DefaultStateBits
	}
	return r
}

// Params resolves the request into fully-validated compiler
// parameters: deck lookup or inline parse, corner derivation, march
// resolution, optional TRPLA plane loading, and the compiler's own
// envelope validation. Every failure carries a cerr code.
// CheckVersion validates the wire-format version: absent (0) and
// WireVersion are accepted, anything else is ERR_BAD_REQUEST.
func (r Request) CheckVersion() error {
	if r.Version != 0 && r.Version != WireVersion {
		return cerr.New(cerr.CodeBadRequest,
			"canon: unsupported request version %d (this server speaks version %d)",
			r.Version, WireVersion)
	}
	return nil
}

func (r Request) Params() (compiler.Params, error) {
	var zero compiler.Params
	if err := r.CheckVersion(); err != nil {
		return zero, err
	}
	if err := r.ValidateMC(); err != nil {
		return zero, err
	}
	r = r.Normalized()

	var proc *tech.Process
	var err error
	if r.Deck != "" {
		proc, err = tech.Parse(strings.NewReader(r.Deck))
		if err != nil {
			return zero, cerr.Wrap(cerr.CodeDeckParse, err, "canon: inline deck rejected")
		}
	} else {
		proc, err = tech.ByName(r.Process)
		if err != nil {
			return zero, err
		}
	}
	proc, err = proc.Corner(r.Corner)
	if err != nil {
		return zero, err
	}

	var alg march.Test
	if r.March != "" {
		alg, err = march.Parse("custom", r.March)
		if err != nil {
			return zero, err
		}
	} else {
		alg, err = TestByName(r.Test)
		if err != nil {
			return zero, err
		}
	}

	p := compiler.Params{
		Words: r.Words, BPW: r.BPW, BPC: r.BPC, Spares: r.Spares,
		BufSize: r.BufSize, StrapCells: r.StrapCells,
		RefineIterations: r.RefineIterations,
		Parallelism:      r.Parallelism,
		Process:          proc, Test: alg,
	}

	if r.ANDPlane != "" || r.ORPlane != "" {
		if r.ANDPlane == "" || r.ORPlane == "" {
			return zero, cerr.New(cerr.CodePlaneParse,
				"canon: both and_plane and or_plane are required to load TRPLA control code")
		}
		prog, perr := bist.ReadPlanes("custom", r.StateBits,
			strings.NewReader(r.ANDPlane), strings.NewReader(r.ORPlane))
		if perr != nil {
			return zero, perr
		}
		p.Program = prog
	}

	if err := p.Validate(); err != nil {
		return zero, err
	}
	return p, nil
}

// keyForm is the canonical document that gets hashed: the resolved,
// validated inputs, never the raw request. Field names are part of the
// key schema; bump KeyVersion when changing them.
//
// Parallelism is deliberately NOT a field here: it is an execution
// knob with no influence on the output bytes (the compiler's
// byte-determinism contract), so requests differing only in
// parallelism must alias to one cache entry.
type keyForm struct {
	V          int           `json:"v"`
	Words      int           `json:"words"`
	BPW        int           `json:"bpw"`
	BPC        int           `json:"bpc"`
	Spares     int           `json:"spares"`
	BufSize    int           `json:"bufsize"`
	StrapCells int           `json:"strap_cells"`
	Refine     int           `json:"refine_iterations"`
	Process    *tech.Process `json:"process"`
	// Test is the resolved march test in canonical notation
	// (march.Test.String()), so spelling variants alias.
	Test string `json:"test"`
	// Planes, when a raw TRPLA program is supplied, is the program's
	// canonical re-serialization (WritePlanes output) plus the state
	// width — equivalent plane files alias to one key.
	Planes *planeForm `json:"planes,omitempty"`
}

type planeForm struct {
	StateBits int    `json:"state_bits"`
	AND       string `json:"and"`
	OR        string `json:"or"`
}

// CanonicalParams renders fully-validated compiler parameters as the
// canonical key document (compact canonical JSON, sorted keys, fixed
// float formatting — see internal/cjson).
func CanonicalParams(p compiler.Params) ([]byte, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	test := p.Test
	if test.Name == "" {
		test = march.IFA9()
	}
	kf := keyForm{
		V:     KeyVersion,
		Words: p.Words, BPW: p.BPW, BPC: p.BPC, Spares: p.Spares,
		BufSize: p.BufSize, StrapCells: p.StrapCells,
		Refine:  p.RefineIterations,
		Process: p.Process,
		Test:    test.String(),
	}
	if p.Program != nil {
		var and, or bytes.Buffer
		if err := p.Program.WritePlanes(&and, &or); err != nil {
			return nil, cerr.Wrap(cerr.CodePlaneParse, err, "canon: program re-serialization failed")
		}
		kf.Planes = &planeForm{StateBits: p.Program.StateBits, AND: and.String(), OR: or.String()}
	}
	return cjson.Marshal(kf)
}

// KeyOfParams returns the SHA-256 content address (hex) of validated
// compiler parameters.
func KeyOfParams(p compiler.Params) (string, error) {
	doc, err := CanonicalParams(p)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(doc)
	return hex.EncodeToString(sum[:]), nil
}

// Key resolves the request and returns its SHA-256 content address.
func (r Request) Key() (string, error) {
	p, err := r.Params()
	if err != nil {
		return "", err
	}
	return KeyOfParams(p)
}

// ParseRequest decodes the JSON wire form strictly: unknown fields
// and trailing garbage are rejected with ERR_INVALID_PARAMS, so a
// typo'd field name fails loudly instead of silently selecting a
// default.
func ParseRequest(data []byte) (Request, error) {
	var r Request
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		return Request{}, cerr.Wrap(cerr.CodeInvalidParams, err, "canon: bad request JSON")
	}
	if len(bytes.TrimLeft(data[dec.InputOffset():], " \t\r\n")) != 0 {
		return Request{}, cerr.New(cerr.CodeInvalidParams, "canon: trailing data after request JSON")
	}
	if err := r.CheckVersion(); err != nil {
		return Request{}, err
	}
	return r, nil
}

// TestByName resolves a built-in march algorithm name. It is the one
// name table shared by the CLIs and the daemon.
func TestByName(name string) (march.Test, error) {
	switch name {
	case "ifa9":
		return march.IFA9(), nil
	case "ifa13":
		return march.IFA13(), nil
	case "mats+":
		return march.MATSPlus(), nil
	case "marchx":
		return march.MarchX(), nil
	case "marchy":
		return march.MarchY(), nil
	case "marchb":
		return march.MarchB(), nil
	case "marchc-":
		return march.MarchCMinus(), nil
	}
	return march.Test{}, cerr.New(cerr.CodeInvalidParams, "unknown test %q", name)
}

// TestNames lists the built-in march algorithm names accepted by
// TestByName, for CLI help strings and API docs.
func TestNames() []string {
	return []string{"ifa9", "ifa13", "mats+", "marchx", "marchy", "marchb", "marchc-"}
}
