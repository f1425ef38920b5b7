package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestTextSymbols: only text symbols under the prefix count; type
// arguments (spaces and nested brackets included) are dropped, so a
// generic's instantiations name its declaration, and a method value's
// -fm wrapper names its method.
func TestTextSymbols(t *testing.T) {
	nm := strings.Join([]string{
		"  6b9f20 T repro/internal/memo.(*Table[go.shape.struct { Deck repro/internal/leafcell.DeckDigest; BufSize int },go.shape.*uint8]).Do",
		"  6ba2c0 T repro/internal/memo.(*Table[go.shape.string,go.shape.[]uint8]).Len.deferwrap1",
		"  4a0000 t repro/internal/sram.(*Array).Read",
		"  4a0100 T repro/internal/obs.(*Registry).Counter-fm",
		"  4a0200 T repro/internal/yield.Stapper",
		"  7b0000 D repro/internal/yield.maxDefects",
		"  4a0300 T repro/cmd/bisramgen.main",
		"           U repro/internal/geom.Check",
	}, "\n")
	got := textSymbols([]byte(nm), "repro/internal/")
	want := []string{
		"memo.(*Table).Do",
		"memo.(*Table).Len.deferwrap1",
		"sram.(*Array).Read",
		"obs.(*Registry).Counter",
		"yield.Stapper",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("textSymbols = %q, want %q", got, want)
	}
}

// TestDeclared renders functions, value and pointer methods and
// methods of generic types the way textSymbols names them, skips init
// and test files, and counts the doc comment into a function's lines.
func TestDeclared(t *testing.T) {
	dir := t.TempDir()
	pkg := filepath.Join(dir, "demo")
	if err := os.MkdirAll(pkg, 0o755); err != nil {
		t.Fatal(err)
	}
	src := `package demo

type T struct{}

type G[K comparable, V any] struct{}

func init() {}

// F is documented
// on two lines.
func F() {}

func (T) Value() {}

func (*T) Ptr() {}

func (g *G[K, V]) Do() {}
`
	if err := os.WriteFile(filepath.Join(pkg, "demo.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(pkg, "demo_test.go"), []byte("package demo\n\nfunc helper() {}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	funcs, err := declared(dir)
	if err != nil {
		t.Fatal(err)
	}
	var syms []string
	for _, f := range funcs {
		syms = append(syms, f.Sym)
	}
	if want := []string{"demo.F", "demo.T.Value", "demo.(*T).Ptr", "demo.(*G).Do"}; !reflect.DeepEqual(syms, want) {
		t.Fatalf("declared = %q, want %q", syms, want)
	}
	if funcs[0].Lines != 3 {
		t.Fatalf("F spans %d lines with its doc comment, want 3", funcs[0].Lines)
	}
}

// TestCheck: the allowlist must equal the unreached set. An unreached
// function missing from it, a listed function a program reaches and a
// listed function that is gone each give one problem.
func TestCheck(t *testing.T) {
	decls := []Func{{Sym: "a.Used"}, {Sym: "a.Listed"}, {Sym: "a.New", Pos: "internal/a/a.go:9"}, {Sym: "a.NowUsed"}}
	reached := map[string]bool{"a.Used": true, "a.NowUsed": true}
	allow := map[string]string{"a.Listed": "oracle", "a.NowUsed": "oracle", "a.Gone": "oracle"}
	unreached, problems := check(decls, reached, allow)
	if len(unreached) != 2 || unreached[0].Sym != "a.Listed" || unreached[1].Sym != "a.New" {
		t.Fatalf("unreached = %+v", unreached)
	}
	want := []string{"a.New (internal/a/a.go:9): no program", "a.NowUsed: allowlisted, but a program now reaches it", "a.Gone: allowlisted, but no such function"}
	if len(problems) != len(want) {
		t.Fatalf("problems = %q", problems)
	}
	for i, w := range want {
		if !strings.HasPrefix(problems[i], w) {
			t.Errorf("problem %d = %q, want prefix %q", i, problems[i], w)
		}
	}
	if _, problems := check(decls, reached, map[string]string{"a.Listed": "x", "a.New": "y"}); len(problems) != 0 {
		t.Fatalf("matching allowlist reported %q", problems)
	}
}

// TestReadAllowlist: comments and blank lines are skipped; a line
// without a reason, a line with more than one symbol and a duplicate
// are errors.
func TestReadAllowlist(t *testing.T) {
	write := func(body string) string {
		p := filepath.Join(t.TempDir(), "allow.txt")
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	allow, err := readAllowlist(write("# header\n\na.F  # item 2\nb.(*T).M # oracle: reference\n"))
	if err != nil {
		t.Fatal(err)
	}
	if want := map[string]string{"a.F": "item 2", "b.(*T).M": "oracle: reference"}; !reflect.DeepEqual(allow, want) {
		t.Fatalf("allowlist = %v, want %v", allow, want)
	}
	for _, bad := range []string{"a.F\n", "a.F #  \n", "a.F b.G # two\n", "a.F # x\na.F # y\n"} {
		if _, err := readAllowlist(write(bad)); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}
