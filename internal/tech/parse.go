package tech

import (
	"bufio"
	"io"
	"math"
	"strconv"
	"strings"

	"repro/internal/cerr"
	"repro/internal/geom"
)

// Parse limits. User decks are small key/value files; anything past
// these bounds is garbage input, and bounding them keeps adversarial
// decks from exhausting memory.
const (
	maxDeckLines   = 1 << 16 // 65536 lines
	maxDeckLineLen = 4096    // bytes per line
)

// Parse reads a user-supplied process deck — the "any input process
// technology and set of design rules" capability the paper inherits
// from the CDA and ARC compilers. The format is line-oriented
// key/value text; '#' starts a comment:
//
//	name       my05u3m1p
//	feature_nm 500
//	metals     3
//	vdd        3.3
//	kp_n       110e-6
//	kp_p       38e-6
//	vt_n       0.7
//	vt_p       -0.8
//	# optional per-layer overrides, values in lambda:
//	rule metal1 width 3 spacing 3
//
// Anything not specified inherits the scalable λ-rule defaults used
// by the built-in decks.
//
// All failures — syntax, missing keys, non-finite or out-of-envelope
// values, oversized input — are typed cerr.ErrDeckParse; Parse never
// panics on adversarial input (see FuzzParseDeck and the
// faultcampaign suite).
func Parse(r io.Reader) (*Process, error) {
	perr := func(format string, args ...any) error {
		return cerr.New(cerr.CodeDeckParse, format, args...)
	}
	vals := map[string]string{}
	type ruleOverride struct {
		layer          geom.Layer
		width, spacing int
	}
	var overrides []ruleOverride

	layerByName := map[string]geom.Layer{}
	for l := geom.Layer(0); l < NumLayers; l++ {
		layerByName[LayerName(l)] = l
	}

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1024), maxDeckLineLen)
	line := 0
	for sc.Scan() {
		line++
		if line > maxDeckLines {
			return nil, perr("tech: deck exceeds %d lines", maxDeckLines)
		}
		text := strings.TrimSpace(sc.Text())
		if i := strings.IndexByte(text, '#'); i >= 0 {
			text = strings.TrimSpace(text[:i])
		}
		if text == "" {
			continue
		}
		fields := strings.Fields(text)
		switch fields[0] {
		case "rule":
			if len(fields) != 6 || fields[2] != "width" || fields[4] != "spacing" {
				return nil, perr("tech: line %d: want 'rule <layer> width <n> spacing <n>'", line)
			}
			l, ok := layerByName[fields[1]]
			if !ok {
				return nil, perr("tech: line %d: unknown layer %q", line, fields[1])
			}
			w, err1 := strconv.Atoi(fields[3])
			s, err2 := strconv.Atoi(fields[5])
			if err1 != nil || err2 != nil || w <= 0 || s <= 0 || w > 1<<20 || s > 1<<20 {
				return nil, perr("tech: line %d: bad rule numbers", line)
			}
			overrides = append(overrides, ruleOverride{l, w, s})
		default:
			if len(fields) != 2 {
				return nil, perr("tech: line %d: want 'key value'", line)
			}
			if len(vals) >= 256 {
				return nil, perr("tech: line %d: too many keys", line)
			}
			vals[fields[0]] = fields[1]
		}
	}
	if err := sc.Err(); err != nil {
		return nil, cerr.Wrap(cerr.CodeDeckParse, err, "tech: reading deck")
	}

	get := func(key string) (string, error) {
		v, ok := vals[key]
		if !ok {
			return "", perr("tech: missing required key %q", key)
		}
		return v, nil
	}
	// getF parses a float and rejects NaN/Inf: a non-finite deck value
	// would otherwise propagate through every downstream timing, power
	// and yield computation.
	getF := func(key string) (float64, error) {
		s, err := get(key)
		if err != nil {
			return 0, err
		}
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return 0, perr("tech: key %q: %v", key, err)
		}
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return 0, perr("tech: key %q: non-finite value %q", key, s)
		}
		return f, nil
	}

	name, err := get("name")
	if err != nil {
		return nil, err
	}
	featF, err := getF("feature_nm")
	if err != nil {
		return nil, err
	}
	if featF < 2 || featF > maxFeatureNm {
		return nil, perr("tech: feature_nm %g outside [2, %d]", featF, maxFeatureNm)
	}
	feature := int(featF)
	if feature < 2 || feature%2 != 0 {
		return nil, perr("tech: feature_nm %d must be a positive even number", feature)
	}
	vdd, err := getF("vdd")
	if err != nil {
		return nil, err
	}
	kpN, err := getF("kp_n")
	if err != nil {
		return nil, err
	}
	kpP, err := getF("kp_p")
	if err != nil {
		return nil, err
	}

	p := newProcess(name, feature, vdd, kpN, kpP)
	if v, ok := vals["metals"]; ok {
		m, err := strconv.Atoi(v)
		if err != nil {
			return nil, perr("tech: metals: %v", err)
		}
		p.Metals = m
	}
	if v, ok := vals["vt_n"]; ok {
		f, err := getF("vt_n")
		if err != nil {
			return nil, perr("tech: vt_n: bad value %q", v)
		}
		p.NMOS.VT0 = f
	}
	if v, ok := vals["vt_p"]; ok {
		f, err := getF("vt_p")
		if err != nil {
			return nil, perr("tech: vt_p: bad value %q", v)
		}
		p.PMOS.VT0 = f
	}
	for _, ov := range overrides {
		p.Rules[ov.layer] = geom.Rule{MinWidth: p.L(ov.width), MinSpacing: p.L(ov.spacing)}
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}
