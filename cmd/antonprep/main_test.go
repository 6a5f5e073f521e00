package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"anton/internal/core"
	"anton/internal/ppip"
	"anton/internal/system"
)

// TestPreparedTablesAreTheEngines: on `small`, every .ppip file antonprep
// writes is byte for byte the table an engine of the system holds, and
// ReadTable reads it back to the same bytes. The run prints the files in
// a fixed order.
func TestPreparedTablesAreTheEngines(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-system", "small", "-out", dir}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d:\n%s", code, stderr.String())
	}
	s, err := system.ByName("small")
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.NewEngine(s, core.DefaultConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	var order []string
	for _, tc := range engineTables(e) {
		order = append(order, "wrote "+tc.file)
		var want bytes.Buffer
		if err := tc.tab.Write(&want); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, tc.file))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("%s differs from the engine's table", tc.file)
		}
		back, err := ppip.ReadTable(bytes.NewReader(got))
		if err != nil {
			t.Fatalf("%s: %v", tc.file, err)
		}
		var again bytes.Buffer
		if err := back.Write(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), got) {
			t.Errorf("%s does not round-trip through ReadTable", tc.file)
		}
	}
	order = append(order, "wrote initial.pdb", "wrote summary.txt")
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) != len(order) {
		t.Fatalf("printed %d lines, want %d:\n%s", len(lines), len(order), stdout.String())
	}
	for i, want := range order {
		if lines[i] != want && !strings.HasPrefix(lines[i], want+" (") {
			t.Errorf("line %d: %q, want %q first", i+1, lines[i], want)
		}
	}
	for _, f := range []string{"initial.pdb", "summary.txt"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Error(err)
		}
	}
}

func TestExitCodes(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-steps", "3"}, &stdout, &stderr); code != 2 {
		t.Errorf("undefined flag: exit %d, want 2", code)
	}
	if code := run([]string{"-system", "nope", "-out", t.TempDir()}, &stdout, &stderr); code != 1 {
		t.Errorf("unknown system: exit %d, want 1", code)
	}
}
