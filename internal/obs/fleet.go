package obs

import (
	"bufio"
	"fmt"
	"io"
	"maps"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Fleet metrics aggregation: parse each node's Prometheus text
// exposition (the authoritative format — it carries TYPE metadata the
// expvar JSON lacks) into Families, merge the per-node families, and
// re-emit one fleet-wide document in both expositions. Merge rules:
//
//   - counters: summed across nodes per label set — the fleet total.
//   - histograms: bucket counts, counts and sums summed per label set
//     (bounds must agree, which they do — the registry's buckets are
//     compile-time constants).
//   - gauges: kept per node, distinguished by an added `node` label —
//     summing uptimes or queue depths would be meaningless.
//
// The output is deterministic (families and label sets sorted), so a
// fleet scrape of settled shards is golden-testable.

// ParsePrometheus decodes a text exposition (format 0.0.4) into
// families, in order of first appearance. A histogram's
// name_bucket/_sum/_count samples fold into one series per label set
// (le excluded); its buckets must come in increasing order, +Inf last,
// as the format requires. Unknown constructs fail loudly — a fleet
// scrape must not silently mis-merge.
func ParsePrometheus(r io.Reader) ([]Family, error) {
	byName := map[string]*Family{}
	var order []*Family
	family := func(name string) *Family {
		if f, ok := byName[name]; ok {
			return f
		}
		f := &Family{Name: name, Type: "untyped"}
		byName[name] = f
		order = append(order, f)
		return f
	}
	// familyOf resolves a sample name to (family, suffix): histogram
	// components attach to their declared family.
	familyOf := func(sample string) (*Family, string) {
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(sample, suf)
			if base != sample {
				if f, ok := byName[base]; ok && f.Type == "histogram" {
					return f, suf
				}
			}
		}
		return family(sample), ""
	}
	// hists holds the histogram series being folded, by family name and
	// rendered labels.
	hists := map[string]*HistogramSnapshot{}

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) >= 3 {
				switch fields[1] {
				case "HELP":
					f := family(fields[2])
					if len(fields) == 4 {
						f.Help = fields[3]
					}
				case "TYPE":
					if len(fields) == 4 {
						f := family(fields[2])
						if len(f.Series) > 0 {
							return nil, fmt.Errorf("obs: exposition: TYPE of %s follows its samples", f.Name)
						}
						f.Type = fields[3]
					}
				}
			}
			continue
		}
		name, labels, value, err := parseSampleLine(line)
		if err != nil {
			return nil, err
		}
		f, suffix := familyOf(name)
		if f.Type != "histogram" {
			f.Series = append(f.Series, Series{Labels: labels, Value: value})
			continue
		}
		if suffix == "" {
			return nil, fmt.Errorf("obs: exposition: bare sample %q in histogram %s", line, f.Name)
		}
		le, hasLe := labels["le"]
		delete(labels, "le")
		key := f.Name + renderLabels(labels)
		h := hists[key]
		if h == nil {
			h = &HistogramSnapshot{}
			hists[key] = h
			f.Series = append(f.Series, Series{Labels: labels, Hist: h})
		}
		switch suffix {
		case "_bucket":
			bound, err := strconv.ParseFloat(le, 64)
			n := len(h.Bounds)
			if !hasLe || err != nil || len(h.Cumulative) > n || (n > 0 && bound <= h.Bounds[n-1]) {
				return nil, fmt.Errorf("obs: exposition: bucket %q out of order or without a bound", line)
			}
			if !math.IsInf(bound, 1) {
				h.Bounds = append(h.Bounds, bound)
			}
			h.Cumulative = append(h.Cumulative, uint64(value))
		case "_sum":
			h.Sum = value
		case "_count":
			h.Count = uint64(value)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: exposition read: %w", err)
	}
	out := make([]Family, len(order))
	for i, f := range order {
		out[i] = *f
	}
	return out, nil
}

// parseSampleLine splits `name{k="v",...} value` (labels optional).
func parseSampleLine(line string) (string, map[string]string, float64, error) {
	name := line
	var labels map[string]string
	rest := ""
	if i := strings.IndexByte(line, '{'); i >= 0 {
		name = line[:i]
		j := strings.LastIndexByte(line, '}')
		if j < i {
			return "", nil, 0, fmt.Errorf("obs: exposition: unbalanced braces in %q", line)
		}
		var err error
		labels, err = parseLabels(line[i+1 : j])
		if err != nil {
			return "", nil, 0, err
		}
		rest = strings.TrimSpace(line[j+1:])
	} else {
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return "", nil, 0, fmt.Errorf("obs: exposition: bad sample line %q", line)
		}
		name, rest = fields[0], fields[1]
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
	if err != nil {
		return "", nil, 0, fmt.Errorf("obs: exposition: bad value in %q: %w", line, err)
	}
	return name, labels, v, nil
}

// parseLabels decodes `k="v",k2="v2"` with exposition escapes.
func parseLabels(s string) (map[string]string, error) {
	out := map[string]string{}
	for len(s) > 0 {
		eq := strings.IndexByte(s, '=')
		if eq < 0 || eq+1 >= len(s) || s[eq+1] != '"' {
			return nil, fmt.Errorf("obs: exposition: bad label block %q", s)
		}
		key := strings.TrimSpace(s[:eq])
		rest := s[eq+2:]
		var b strings.Builder
		i := 0
		for ; i < len(rest); i++ {
			c := rest[i]
			if c == '\\' && i+1 < len(rest) {
				i++
				switch rest[i] {
				case 'n':
					b.WriteByte('\n')
				default:
					b.WriteByte(rest[i])
				}
				continue
			}
			if c == '"' {
				break
			}
			b.WriteByte(c)
		}
		if i >= len(rest) {
			return nil, fmt.Errorf("obs: exposition: unterminated label value in %q", s)
		}
		out[key] = b.String()
		s = strings.TrimPrefix(strings.TrimSpace(rest[i+1:]), ",")
		s = strings.TrimSpace(s)
	}
	return out, nil
}

// MergeHistograms sums histogram snapshots bucket-by-bucket. Inputs
// with differing bounds are rejected — silently aligning mismatched
// buckets would fabricate quantiles. Empty snapshots are ignored, so
// a cold shard doesn't block the merge.
func MergeHistograms(snaps ...HistogramSnapshot) (HistogramSnapshot, error) {
	var out HistogramSnapshot
	for _, s := range snaps {
		if len(s.Cumulative) == 0 && s.Count == 0 {
			continue
		}
		if out.Cumulative == nil {
			out.Bounds = append([]float64(nil), s.Bounds...)
			out.Cumulative = make([]uint64, len(s.Cumulative))
		} else if !slices.Equal(out.Bounds, s.Bounds) || len(out.Cumulative) != len(s.Cumulative) {
			return HistogramSnapshot{}, fmt.Errorf("obs: merging histograms with different buckets")
		}
		for i, c := range s.Cumulative {
			out.Cumulative[i] += c
		}
		out.Count += s.Count
		out.Sum += s.Sum
	}
	return out, nil
}

// FleetScrape is one node's parsed exposition.
type FleetScrape struct {
	Node     string
	Families []Family
}

// MergeFleet merges per-node families under the documented rules (sum
// counters, sum histogram buckets, label gauges per node) into one
// fleet document: families sorted by name, series by label set. A
// histogram series whose buckets disagree across nodes is dropped
// rather than failing the whole scrape.
func MergeFleet(scrapes []FleetScrape) []Family {
	type key struct{ name, labels string }
	heads := map[string]*Family{}
	merged := map[key]*Series{}
	hists := map[key][]HistogramSnapshot{}
	var keys []key
	for _, sc := range scrapes {
		for _, f := range sc.Families {
			head := heads[f.Name]
			if head == nil {
				head = &Family{Name: f.Name, Type: f.Type}
				heads[f.Name] = head
			}
			if f.Help != "" {
				head.Help = f.Help
			}
			if head.Type == "untyped" {
				head.Type = f.Type
			}
			for _, s := range f.Series {
				labels := s.Labels
				if f.Type != "counter" && f.Type != "histogram" {
					labels = map[string]string{"node": sc.Node}
					maps.Copy(labels, s.Labels)
				}
				k := key{f.Name, canonLabels(labels)}
				m := merged[k]
				if m == nil {
					m = &Series{Labels: labels}
					merged[k] = m
					keys = append(keys, k)
				}
				switch f.Type {
				case "counter":
					m.Value += s.Value
				case "histogram":
					hists[k] = append(hists[k], *s.Hist)
				default:
					m.Value = s.Value
				}
			}
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].name != keys[j].name {
			return keys[i].name < keys[j].name
		}
		return keys[i].labels < keys[j].labels
	})
	var out []Family
	for _, k := range keys {
		s := merged[k]
		if hs := hists[k]; hs != nil {
			h, err := MergeHistograms(hs...)
			if err != nil {
				continue // mismatched buckets: drop the series
			}
			s.Hist = &h
		}
		if n := len(out); n == 0 || out[n-1].Name != k.name {
			f := *heads[k.name]
			if f.Type == "untyped" {
				f.Type = "gauge"
			}
			out = append(out, f)
		}
		f := &out[len(out)-1]
		f.Series = append(f.Series, *s)
	}
	return out
}

// canonLabels renders labels in sorted `k=v` form for map keys.
func canonLabels(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(labels[k])
	}
	return b.String()
}

// FleetSnapshot renders a merged fleet document as a JSON-able map —
// the expvar half of the dual exposition, mirroring Registry.Snapshot:
// counters become fleet-summed numbers, gauges nest per node, and
// histograms take the {count, sum, buckets} shape.
func FleetSnapshot(fams []Family) map[string]any {
	out := map[string]any{}
	for _, f := range fams {
		if f.Type == "gauge" {
			family := map[string]any{}
			for _, s := range f.Series {
				family[canonLabels(s.Labels)] = s.Value
			}
			out[f.Name] = family
			continue
		}
		for _, s := range f.Series {
			name := f.Name + renderLabels(s.Labels)
			if s.Hist != nil {
				out[name] = histJSON(*s.Hist)
			} else {
				out[name] = s.Value
			}
		}
	}
	return out
}
