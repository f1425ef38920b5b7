package compiler

import (
	"bytes"
	"fmt"

	"repro/internal/cjson"
	"repro/internal/gds"
	"repro/internal/render"
)

// Report is the machine-readable datasheet — the structured
// counterpart of Datasheet(), for downstream flow integration.
type Report struct {
	Name    string `json:"name"`
	Process struct {
		Name      string  `json:"name"`
		FeatureUm float64 `json:"feature_um"`
		Metals    int     `json:"metals"`
		VDD       float64 `json:"vdd"`
	} `json:"process"`
	Organisation struct {
		Words     int `json:"words"`
		BPW       int `json:"bits_per_word"`
		BPC       int `json:"bits_per_column"`
		Rows      int `json:"rows"`
		SpareRows int `json:"spare_rows"`
		Columns   int `json:"columns"`
		Bits      int `json:"bits"`
	} `json:"organisation"`
	Test struct {
		Algorithm   string `json:"algorithm"`
		Backgrounds int    `json:"backgrounds"`
		States      int    `json:"controller_states"`
		FlipFlops   int    `json:"controller_flipflops"`
		PLATerms    int    `json:"pla_terms"`
	} `json:"test"`
	Area   AreaReport   `json:"area_um2"`
	Timing TimingReport `json:"timing_ns"`
	Power  PowerReport  `json:"power"`
	Plan   struct {
		Rectangularity float64 `json:"rectangularity"`
		AspectRatio    float64 `json:"aspect_ratio"`
		AbuttedNets    int     `json:"abutted_nets"`
		RoutedNets     int     `json:"routed_nets"`
		WirelengthUm   float64 `json:"wirelength_um"`
		// EstimateOnly marks a report produced without a floorplan
		// (degradation-ladder rung 3): the area figures are macro
		// bounding-box sums and the fields above are zero.
		EstimateOnly bool `json:"estimate_only,omitempty"`
	} `json:"floorplan"`
	// Degradations lists the fallbacks the compiler took to keep this
	// compile alive (see Design.Degradations). Empty when the full flow
	// succeeded.
	Degradations []string `json:"degradations,omitempty"`
}

// Report assembles the structured datasheet.
func (d *Design) Report() Report {
	p := d.Params
	var r Report
	r.Name = d.Name
	r.Process.Name = p.Process.Name
	r.Process.FeatureUm = float64(p.Process.Feature) / 1000
	r.Process.Metals = p.Process.Metals
	r.Process.VDD = p.Process.VDD
	r.Organisation.Words = p.Words
	r.Organisation.BPW = p.BPW
	r.Organisation.BPC = p.BPC
	r.Organisation.Rows = p.Rows()
	r.Organisation.SpareRows = p.Spares
	r.Organisation.Columns = p.BPW * p.BPC
	r.Organisation.Bits = p.Bits()
	r.Test.Algorithm = d.Prog.Name
	r.Test.Backgrounds = p.BPW + 1
	r.Test.States = d.Prog.NumStates
	r.Test.FlipFlops = d.Prog.StateBits
	r.Test.PLATerms = len(d.Prog.Terms)
	r.Area = d.Area
	r.Timing = d.Timing
	r.Power = d.Power
	if d.Plan != nil {
		r.Plan.Rectangularity = d.Plan.Rectangularity
		r.Plan.AspectRatio = d.Plan.AspectRatio
		r.Plan.AbuttedNets = d.Plan.AbuttedNets
		r.Plan.RoutedNets = d.Plan.RoutedNets
		r.Plan.WirelengthUm = float64(d.Plan.Wirelength) / 1000
	} else {
		r.Plan.EstimateOnly = true
	}
	r.Degradations = d.Degradations
	return r
}

// JSON renders the structured datasheet as canonical JSON
// (internal/cjson): sorted keys at every level, fixed shortest
// round-trip float formatting, two-space indentation and a trailing
// newline. The output is byte-deterministic — compiling the same
// validated inputs always yields the same bytes — which is what lets
// the serving layer cache and content-compare datasheets, and keeps
// golden tests stable across runs and platforms.
func (d *Design) JSON() (string, error) {
	b, err := cjson.MarshalIndent(d.Report())
	if err != nil {
		return "", fmt.Errorf("compiler: %w", err)
	}
	return string(b), nil
}

// Artifacts renders the files a compiled design ships, by name: the
// canonical report (datasheet.json), the text datasheet, the TRPLA
// control-code planes and, when the design has a layout, layout.svg
// and the GDSII stream layout.gds. It is the one definition of the
// artifact set: the daemon caches and persists it, bisramgen writes it
// to disk, and the layout figures read their drawings from it.
func (d *Design) Artifacts() (map[string][]byte, error) {
	js, err := d.JSON()
	if err != nil {
		return nil, err
	}
	var and, or bytes.Buffer
	if err := d.Prog.WritePlanes(&and, &or); err != nil {
		return nil, fmt.Errorf("compiler: TRPLA planes: %w", err)
	}
	a := map[string][]byte{
		"datasheet.json":  []byte(js),
		"datasheet.txt":   []byte(d.Datasheet()),
		"trpla_and.plane": and.Bytes(),
		"trpla_or.plane":  or.Bytes(),
	}
	if d.Top != nil {
		a["layout.svg"] = []byte(render.SVG(d.Top, render.Options{Depth: 0}))
		a["layout.gds"] = gds.Bytes(d.Top, d.Top.Name)
	}
	return a, nil
}
