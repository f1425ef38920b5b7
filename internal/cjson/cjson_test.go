package cjson

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestMapKeysSorted(t *testing.T) {
	v := map[string]any{"zeta": 1, "alpha": 2, "mid": map[string]int{"b": 1, "a": 2}}
	got, err := Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"alpha":2,"mid":{"a":2,"b":1},"zeta":1}`
	if string(got) != want {
		t.Fatalf("got %s want %s", got, want)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	v := map[string]any{
		"pi": 3.141592653589793, "e": math.E, "neg": -0.000125,
		"big": 1e300, "small": 5e-324, "int": 42, "list": []any{1.5, "x"},
	}
	first, err := Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		again, err := Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if string(again) != string(first) {
			t.Fatalf("iteration %d differs:\n%s\n%s", i, again, first)
		}
	}
}

func TestFloatFixedForm(t *testing.T) {
	got, err := Canonicalize([]byte(`{"a": 1.50, "b": 1.5e0, "c": 0.15e1, "d": 2.0}`))
	if err != nil {
		t.Fatal(err)
	}
	want := `{"a":1.5,"b":1.5,"c":1.5,"d":2}`
	if string(got) != want {
		t.Fatalf("got %s want %s", got, want)
	}
}

func TestNonFiniteRejected(t *testing.T) {
	if _, err := Marshal(map[string]float64{"x": math.NaN()}); err == nil {
		t.Fatal("NaN must be rejected")
	}
	if _, err := Marshal(math.Inf(1)); err == nil {
		t.Fatal("Inf must be rejected")
	}
}

func TestStructTagsRespected(t *testing.T) {
	type inner struct {
		B int `json:"b"`
		A int `json:"a"`
	}
	type outer struct {
		Z     inner  `json:"z"`
		Omit  string `json:"omit,omitempty"`
		Named int    `json:"renamed"`
	}
	got, err := Marshal(outer{Z: inner{B: 2, A: 1}, Named: 7})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"renamed":7,"z":{"a":1,"b":2}}`
	if string(got) != want {
		t.Fatalf("got %s want %s", got, want)
	}
}

func TestIndentFormAndTrailingNewline(t *testing.T) {
	got, err := MarshalIndent(map[string]any{"b": []int{1, 2}, "a": 1})
	if err != nil {
		t.Fatal(err)
	}
	want := "{\n  \"a\": 1,\n  \"b\": [\n    1,\n    2\n  ]\n}\n"
	if string(got) != want {
		t.Fatalf("got %q want %q", got, want)
	}
}

func TestNoHTMLEscaping(t *testing.T) {
	got, err := Marshal("a<b>&c ⇑(r0,w1)")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(got), `\u00`) {
		t.Fatalf("HTML-escaped output %s", got)
	}
	if string(got) != `"a<b>&c ⇑(r0,w1)"` {
		t.Fatalf("got %s", got)
	}
}

func TestCanonicalizeRejectsTrailingData(t *testing.T) {
	for _, doc := range []string{`{"a":1} {"b":2}`, `{"a":1}}`, `{"a":1}]`, `{"a":1}]]`, `1}`} {
		if _, err := Canonicalize([]byte(doc)); err == nil {
			t.Fatalf("trailing data in %q must be rejected", doc)
		}
	}
	if got, err := Canonicalize([]byte("{\"a\":1} \t\r\n")); err != nil || string(got) != `{"a":1}` {
		t.Fatalf("trailing whitespace: got %s, %v", got, err)
	}
}

func TestControlCharsEscaped(t *testing.T) {
	got, err := Marshal("a\x01b\nc")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != `"a\u0001b\nc"` {
		t.Fatalf("got %s", got)
	}
}

func TestCanonicalizeIdempotent(t *testing.T) {
	in := []byte(`{"z": [3, 2.50, {"k":"v","a":null}], "a": true}`)
	once, err := Canonicalize(in)
	if err != nil {
		t.Fatal(err)
	}
	twice, err := Canonicalize(once)
	if err != nil {
		t.Fatal(err)
	}
	if string(once) != string(twice) {
		t.Fatalf("not idempotent: %s vs %s", once, twice)
	}
}

type ruleBase struct{ X, Y int }

type ruleOther struct {
	X int
	Y int `json:"Y"`
}

type ruleOuter struct {
	ruleBase
	*ruleOther
	Omit string `json:"omit,omitempty"`
	Skip int    `json:"-"`
	Dash int    `json:"-,"`
	low  int
}

// TestCanonicalRules pins each rule of the canonical form, on the
// one-pass encoder and on the round-trip oracle alike.
func TestCanonicalRules(t *testing.T) {
	cases := []struct {
		name string
		v    any
		want string // "" means an error
	}{
		{"keys in byte order", map[string]int{"b": 1, "B": 2, "a": 3, "é": 4}, `{"B":2,"a":3,"b":1,"é":4}`},
		{"integer keys as strings", map[int]string{10: "x", 2: "y", -1: "z"}, `{"-1":"z","10":"x","2":"y"}`},
		{"fields by JSON name", struct {
			Z int `json:"a"`
			A int `json:"z"`
		}{1, 2}, `{"a":1,"z":2}`},
		{"dominance, tags, omitempty and -", ruleOuter{ruleBase: ruleBase{1, 2}, ruleOther: &ruleOther{3, 4}, Skip: 5, low: 6}, `{"-":0,"Y":4}`},
		{"nil embedded pointer", ruleOuter{ruleBase: ruleBase{1, 2}, Omit: "o"}, `{"-":0,"omit":"o"}`},
		{"NaN", math.NaN(), ""},
		{"+Inf", map[string]float64{"x": math.Inf(1)}, ""},
		{"-Inf", []float32{float32(math.Inf(-1))}, ""},
		{"-0", math.Copysign(0, -1), `0`},
		{"2^53", math.Ldexp(1, 53), `9007199254740992`},
		{"2^60", math.Ldexp(1, 60), `1152921504606847000`},
		{"2^63", math.Ldexp(1, 63), `9223372036854776000`},
		{"1e20", 1e20, `1e+20`},
		{"1e-7", 1e-7, `1e-07`},
		{"fraction", 123456789.5, `1.234567895e+08`},
		{"float32", float32(0.1), `0.1`},
		{"escapes", "\"\\\n\r\t\x01\x1f\x7f", `"\"\\\n\r\t\u0001\u001f` + "\x7f\""},
		{"invalid UTF-8", "a\xffb", "\"a\ufffdb\""},
		{"HTML and separators raw", "<>&\u2028\u2029", "\"<>&\u2028\u2029\""},
		{"bytes", []byte("hi"), `"aGk="`},
		{"nil and empty", map[string]any{"ns": []int(nil), "nm": map[string]int(nil), "es": []int{}, "em": map[string]int{}},
			`{"em":{},"es":[],"nm":null,"ns":null}`},
		{"marshaler keys sorted, last wins", json.RawMessage(`{"b":1,"a":{"d":1,"c":2},"b":3}`), `{"a":{"c":2,"d":1},"b":3}`},
		{"marshaler numbers", json.RawMessage(`[1.50,1.5e0,-0,-0.0,100000000000000000000,1e400,18446744073709551615]`),
			`[1.5,1.5,0,-0,1e+20,1e400,18446744073709551615]`},
		{"marshaler escapes", json.RawMessage(`"A\ud83d\ude00\ud800x\/"`), "\"A\U0001F600\ufffdx/\""},
		{"invalid marshaler output", json.RawMessage(`{"a":}`), ""},
		{"marshaler trailing data", json.RawMessage(`1 2`), ""},
		{"marshaler trailing bracket", json.RawMessage(`{}]`), ""},
	}
	for _, tc := range cases {
		for _, enc := range []struct {
			name    string
			marshal func(any) ([]byte, error)
		}{{"Marshal", Marshal}, {"oracle", refMarshal}} {
			got, err := enc.marshal(tc.v)
			switch {
			case tc.want == "" && err == nil:
				t.Errorf("%s: %s: got %s, want an error", tc.name, enc.name, got)
			case tc.want != "" && (err != nil || string(got) != tc.want):
				t.Errorf("%s: %s: got %s (%v), want %s", tc.name, enc.name, got, err, tc.want)
			}
		}
	}
}

func TestIndentEmptyContainers(t *testing.T) {
	v := map[string]any{"b": []int{}, "a": map[string]int{}, "c": []any{1, map[string]any{}}}
	want := "{\n  \"a\": {},\n  \"b\": [],\n  \"c\": [\n    1,\n    {}\n  ]\n}\n"
	for _, marshal := range []func(any) ([]byte, error){MarshalIndent, refMarshalIndent} {
		if got, err := marshal(v); err != nil || string(got) != want {
			t.Fatalf("got %q (%v), want %q", got, err, want)
		}
	}
}

type textKey int

func (k textKey) MarshalText() ([]byte, error) { return []byte("k"), nil }

// TestUnsupportedFeaturesNameTheType: encoding/json features no
// marshalled type uses are refused, naming the type, rather than
// approximated.
func TestUnsupportedFeaturesNameTheType(t *testing.T) {
	type quoted struct {
		N int `json:"n,string"`
	}
	type omitZero struct {
		N int `json:"n,omitzero"`
	}
	for _, v := range []any{quoted{}, omitZero{}, textKey(1), map[textKey]int{1: 1}} {
		_, err := Marshal(v)
		if err == nil {
			t.Errorf("%T: no error", v)
			continue
		}
		name := reflect.TypeOf(v).String()
		if m, ok := v.(map[textKey]int); ok {
			name = reflect.TypeOf(m).Key().String()
		}
		if !strings.Contains(err.Error(), name) {
			t.Errorf("%T: error %q does not name the type", v, err)
		}
	}
}
