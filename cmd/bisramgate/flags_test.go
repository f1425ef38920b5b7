package main

import (
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"testing"
)

// TestFlagSurface pins the command-line surface of both service
// binaries: each runs with -h and the flag names its usage lists must
// equal the literal set below, so adding or removing a knob is a
// reviewed edit of this test.
func TestFlagSurface(t *testing.T) {
	want := map[string][]string{
		"repro/cmd/bisramgend": {
			"addr", "cache-mb", "chaos-spec", "compile-par", "deadline",
			"debug-stacks", "drain-timeout", "gateway", "peers", "pprof",
			"probe-interval", "queue", "quiet", "self", "slow-compile",
			"store-dir", "store-mb", "sweep-journal-dir", "workers",
		},
		"repro/cmd/bisramgate": {
			"addr", "chaos-spec", "deadline", "drain-timeout",
			"probe-interval", "queue", "route-workers", "shards",
		},
	}
	flagLine := regexp.MustCompile(`(?m)^  -(\S+)`)
	dir := t.TempDir()
	for pkg, names := range want {
		bin := filepath.Join(dir, path.Base(pkg))
		if out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", pkg, err, out)
		}
		// -h prints the usage and exits; the status carries nothing.
		usage, _ := exec.Command(bin, "-h").CombinedOutput()
		var got []string
		for _, m := range flagLine.FindAllStringSubmatch(string(usage), -1) {
			got = append(got, m[1])
		}
		slices.Sort(got)
		if !slices.Equal(got, names) {
			t.Errorf("%s flags (%d) = %v\nwant (%d) %v", path.Base(pkg), len(got), got, len(names), names)
		}
	}
}
