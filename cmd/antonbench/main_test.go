package main

import (
	"bytes"
	"os"
	"path"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

func TestRegistryNamesUnique(t *testing.T) {
	seen := map[string]bool{"all": true, "cheap": true}
	for _, e := range registry {
		if seen[e.name] {
			t.Errorf("experiment name %q used twice (or shadows a selector)", e.name)
		}
		seen[e.name] = true
	}
}

func TestUnknownExperiment(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-experiment", "table1,no-such-table"}, &stdout, &stderr); code == 0 {
		t.Fatal("unknown experiment exited 0")
	}
	if stdout.Len() != 0 {
		t.Errorf("an unknown name must stop before any experiment runs; printed:\n%s", stdout.String())
	}
	for _, e := range registry {
		if !strings.Contains(stderr.String(), "  "+e.name+"\n") {
			t.Errorf("error output does not list %q:\n%s", e.name, stderr.String())
		}
	}
}

func TestFlagError(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-steps", "3"}, &stdout, &stderr); code != 2 {
		t.Errorf("undefined flag: exit %d, want 2", code)
	}
}

func TestRunOneExperiment(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-experiment", "table1"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d:\n%s", code, stderr.String())
	}
	if !strings.HasPrefix(stdout.String(), "==================== table1 ====================\nTable 1:") {
		t.Errorf("unexpected output:\n%s", stdout.String())
	}
}

// TestCheapGolden pins the model reports: `-experiment cheap` prints
// testdata/cheap.golden byte for byte. A change that moves a modelled
// number must say so and re-record the file.
func TestCheapGolden(t *testing.T) {
	// Compilers that fuse multiply-adds (arm64, ppc64, s390x) round
	// differently, so the recorded output holds on amd64 only.
	if runtime.GOARCH != "amd64" {
		t.Skip("golden output recorded on amd64")
	}
	want, err := os.ReadFile("testdata/cheap.golden")
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-experiment", "cheap"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d:\n%s", code, stderr.String())
	}
	if got := stdout.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gl), len(wl)) {
			if gl[i] != wl[i] {
				t.Fatalf("cheap output differs from testdata/cheap.golden at line %d:\n got: %q\nwant: %q", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("cheap output has %d lines, testdata/cheap.golden %d", len(gl), len(wl))
	}
}

// experimentArg matches an -experiment argument in the docs: a name, a
// comma-separated list, a glob such as ablation-* or a brace list such
// as ablation-{mts,nt}.
var experimentArg = regexp.MustCompile(`(?:^|[\s\x60])-experiment[ =]+([a-z0-9*,{}-]+)`)

// docNames splits an -experiment argument into the names it selects.
func docNames(arg string) []string {
	if open := strings.IndexByte(arg, '{'); open >= 0 {
		if end := strings.IndexByte(arg[open:], '}'); end > 0 {
			var out []string
			for _, alt := range strings.Split(arg[open+1:open+end], ",") {
				out = append(out, docNames(arg[:open]+alt+arg[open+end+1:])...)
			}
			return out
		}
	}
	return strings.Split(strings.TrimRight(arg, ",-"), ",")
}

// TestDocCommandsResolve: every `-experiment <name>` the docs and the
// build files show must name a registry entry, so that deleting an entry
// cannot leave a command that fails.
func TestDocCommandsResolve(t *testing.T) {
	for _, file := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "Makefile", "scripts/verify.sh"} {
		data, err := os.ReadFile("../../" + file)
		if err != nil {
			t.Fatal(err)
		}
		found := 0
		for _, m := range experimentArg.FindAllStringSubmatch(string(data), -1) {
			for _, name := range docNames(m[1]) {
				found++
				if !resolves(name) {
					t.Errorf("%s: -experiment %s names no registry entry", file, name)
				}
			}
		}
		if found == 0 {
			t.Errorf("%s shows no -experiment command; is the pattern stale?", file)
		}
	}
}

// resolves reports whether a doc's experiment name selects at least one
// registry entry.
func resolves(name string) bool {
	if name == "all" || name == "cheap" {
		return true
	}
	for _, e := range registry {
		if ok, _ := path.Match(name, e.name); ok {
			return true
		}
	}
	return false
}
