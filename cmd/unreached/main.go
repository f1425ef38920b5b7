// Command unreached lists every function declared in a non-test file
// under internal/ that no program in the tree contains, and fails
// unless that list equals the checked-in allowlist.
//
// Usage, from the repository root:
//
//	go run ./cmd/unreached
//
// It builds every main package — cmd/*, examples/* and the separate
// cmd/bisrbench module — with -gcflags=all=-l, so no call is inlined
// away, and reads the text symbols of each binary with `go tool nm`.
// A generic's instantiations (memo.(*Table[go.shape.…]).Do) count as
// its declaration. It then parses the func declarations of internal/
// with go/ast and prints each one whose symbol is in no binary.
//
// The allowlist (cmd/unreached/allowlist.txt) holds one function a
// line, `symbol  # reason`, in the printed form (sram.(*Array).InjectRow).
// The command exits 1 when an unreached function is not on it, and
// when a line names a function that a program now reaches or that no
// longer exists, so the list can only shrink.
package main

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// allowlistPath is the allowlist, relative to the repository root.
const allowlistPath = "cmd/unreached/allowlist.txt"

// Func is one declared function or method.
type Func struct {
	Sym   string // printed form: pkg.Name, pkg.T.M or pkg.(*T).M
	Pos   string // file:line of the declaration
	Lines int    // source lines, doc comment included
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "unreached:", err)
		os.Exit(1)
	}
}

func run() error {
	mod, err := modulePath("go.mod")
	if err != nil {
		return err
	}
	decls, err := declared("internal")
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "unreached-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	reached := map[string]bool{}
	// cmd/bisrbench is a module of its own, so ./... at the root skips it.
	for i, root := range []string{".", "cmd/bisrbench"} {
		out := filepath.Join(dir, fmt.Sprint(i)) + string(filepath.Separator)
		if err := goCmd(root, "build", "-gcflags=all=-l", "-o", out, "./..."); err != nil {
			return err
		}
		bins, err := os.ReadDir(out)
		if err != nil {
			return err
		}
		for _, b := range bins {
			syms, err := goOutput(".", "tool", "nm", filepath.Join(out, b.Name()))
			if err != nil {
				return err
			}
			for _, s := range textSymbols(syms, mod+"/internal/") {
				reached[s] = true
			}
		}
	}
	allow, err := readAllowlist(allowlistPath)
	if err != nil {
		return err
	}
	unreached, problems := check(decls, reached, allow)
	lines := 0
	for _, f := range unreached {
		lines += f.Lines
		fmt.Printf("%-48s %-56s %4d\n", f.Pos, f.Sym, f.Lines)
	}
	fmt.Printf("%d functions, %d lines with their doc comments, in no program\n", len(unreached), lines)
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, p)
		}
		return fmt.Errorf("%d allowlist mismatches (%s)", len(problems), allowlistPath)
	}
	return nil
}

// check returns the declared functions no binary contains, in
// declaration order, and one message per disagreement with allow.
func check(decls []Func, reached map[string]bool, allow map[string]string) ([]Func, []string) {
	var unreached []Func
	var problems []string
	known := map[string]bool{}
	for _, f := range decls {
		known[f.Sym] = true
		if reached[f.Sym] {
			if _, ok := allow[f.Sym]; ok {
				problems = append(problems, fmt.Sprintf("%s: allowlisted, but a program now reaches it; remove its line", f.Sym))
			}
			continue
		}
		unreached = append(unreached, f)
		if _, ok := allow[f.Sym]; !ok {
			problems = append(problems, fmt.Sprintf("%s (%s): no program reaches it; call it from one, delete it, or allowlist it with a reason", f.Sym, f.Pos))
		}
	}
	var gone []string
	for sym := range allow {
		if !known[sym] {
			gone = append(gone, fmt.Sprintf("%s: allowlisted, but no such function is declared; remove its line", sym))
		}
	}
	sort.Strings(gone)
	return unreached, append(problems, gone...)
}

// declared parses every non-test Go file under root and returns its
// functions and methods in file order. init and blank functions have
// no callable symbol and are skipped.
func declared(root string) ([]Func, error) {
	var out []Func
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		pkg := filepath.Base(filepath.Dir(path))
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Name.Name == "init" || fd.Name.Name == "_" {
				continue
			}
			start := fd.Pos()
			if fd.Doc != nil {
				start = fd.Doc.Pos()
			}
			out = append(out, Func{
				Sym:   pkg + "." + recvPrefix(fd) + fd.Name.Name,
				Pos:   fmt.Sprintf("%s:%d", filepath.ToSlash(path), fset.Position(fd.Pos()).Line),
				Lines: fset.Position(fd.End()).Line - fset.Position(start).Line + 1,
			})
		}
		return nil
	})
	return out, err
}

// recvPrefix renders a method's receiver as the linker names it:
// "(*T)." for a pointer receiver, "T." for a value one, and "" for a
// plain function. Type parameters are dropped, as textSymbols drops
// the instantiations.
func recvPrefix(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	ptr := false
	if s, ok := t.(*ast.StarExpr); ok {
		ptr, t = true, s.X
	}
	switch g := t.(type) {
	case *ast.IndexExpr:
		t = g.X
	case *ast.IndexListExpr:
		t = g.X
	}
	name := t.(*ast.Ident).Name
	if ptr {
		return "(*" + name + ")."
	}
	return name + "."
}

// nmLine is one line of `go tool nm`: address (blank for undefined
// symbols), type letter and name, which may contain spaces.
var nmLine = regexp.MustCompile(`^\s*[0-9a-f]*\s+([A-Za-z])\s+(.+)$`)

// textSymbols returns the text symbols of nm output that lie under
// prefix, with prefix removed, bracketed type arguments dropped and a
// method value's -fm wrapper folded into its method.
func textSymbols(nm []byte, prefix string) []string {
	var out []string
	sc := bufio.NewScanner(bytes.NewReader(nm))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := nmLine.FindStringSubmatch(sc.Text())
		if m == nil || (m[1] != "T" && m[1] != "t") || !strings.HasPrefix(m[2], prefix) {
			continue
		}
		out = append(out, strings.TrimSuffix(dropTypeArgs(strings.TrimPrefix(m[2], prefix)), "-fm"))
	}
	return out
}

// dropTypeArgs removes every balanced [...] group from a symbol name.
func dropTypeArgs(s string) string {
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// readAllowlist parses `symbol  # reason` lines; blank lines and lines
// starting with # are comments. Every entry needs a reason.
func readAllowlist(path string) (map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	allow := map[string]string{}
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sym, reason, _ := strings.Cut(line, "#")
		sym, reason = strings.TrimSpace(sym), strings.TrimSpace(reason)
		switch {
		case reason == "":
			return nil, fmt.Errorf("%s:%d: %q states no reason", path, i+1, sym)
		case strings.ContainsAny(sym, " \t"):
			return nil, fmt.Errorf("%s:%d: %q is not one symbol", path, i+1, sym)
		case allow[sym] != "":
			return nil, fmt.Errorf("%s:%d: %s is listed twice", path, i+1, sym)
		}
		allow[sym] = reason
	}
	return allow, nil
}

// modulePath reads the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			return f[1], nil
		}
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}

func goCmd(dir string, args ...string) error {
	cmd := exec.Command("go", args...)
	cmd.Dir, cmd.Stdout, cmd.Stderr = dir, os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("go %s in %s: %w", strings.Join(args, " "), dir, err)
	}
	return nil
}

func goOutput(dir string, args ...string) ([]byte, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir, cmd.Stderr = dir, os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go %s: %w", strings.Join(args, " "), err)
	}
	return out, nil
}
