package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"anton/internal/ledger"
	"anton/internal/service"
)

func skipShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("skipping multi-second simulation test in -short mode")
	}
}

var digestLine = regexp.MustCompile(`state digest at step (\d+): ([0-9a-f]{16})`)

// antonsim runs the CLI in process and returns the step and state digest
// it printed.
func antonsim(t *testing.T, args ...string) (step int, digest string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("antonsim %v: exit %d\n%s", args, code, stderr.String())
	}
	m := digestLine.FindStringSubmatch(stdout.String())
	if m == nil {
		t.Fatalf("antonsim %v printed no state digest:\n%s", args, stdout.String())
	}
	step, _ = strconv.Atoi(m[1])
	return step, m[2]
}

func readLedger(t *testing.T, path string) []ledger.Record {
	t.Helper()
	if _, err := ledger.VerifyFile(path); err != nil {
		t.Fatal(err)
	}
	recs, err := ledger.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

func resumesOf(recs []ledger.Record) (out []ledger.Resume) {
	for _, r := range recs {
		if r.Kind == ledger.KindResume {
			out = append(out, *r.Resume)
		}
	}
	return out
}

// TestCLIDigestAgreement: one spec, three drivers of service.Run. The
// digest antonsim prints equals the one an antond job with the same spec
// finishes on and the one antonaudit's replay of antonsim's own ledger
// re-derives, and the two ledgers open with the same genesis.
func TestCLIDigestAgreement(t *testing.T) {
	skipShort(t)
	dir := t.TempDir()
	ckpt, path := filepath.Join(dir, "run.ckpt"), filepath.Join(dir, "run.ledger")
	step, digest := antonsim(t, "-system", "small", "-steps", "40", "-checkpoint", ckpt, "-ledger", path)
	if step != 40 {
		t.Fatalf("antonsim stopped at step %d, want 40", step)
	}

	d, err := service.New(service.Config{
		StateDir: filepath.Join(dir, "state"),
		Workers:  1,
		Logger:   slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Kill()
	js, _, err := d.Submit(service.JobSpec{System: "small", Steps: 40})
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	js, ok := d.AwaitJob(js.ID, 2*time.Minute, func(j service.JobStatus) bool {
		return j.State != service.StateQueued && j.State != service.StateRunning
	})
	if !ok || js.State != service.StateDone {
		t.Fatalf("antond job ended %s (err %q)", js.State, js.Error)
	}
	if js.Digest != digest {
		t.Fatalf("antond finished on %s, antonsim printed %s", js.Digest, digest)
	}
	cli, _ := ledger.GenesisOf(readLedger(t, path))
	job, _ := ledger.GenesisOf(readLedger(t, d.LedgerPath(js.ID)))
	if !reflect.DeepEqual(cli, job) {
		t.Fatalf("genesis differs for one spec:\n  antonsim %s %+v\n  antond   %s %+v", cli.Spec, cli, job.Spec, job)
	}

	out, err := exec.Command("go", "run", "anton/cmd/antonaudit", "-ledger", path, "-replay", "-1", "-q").CombinedOutput()
	if err != nil {
		t.Fatalf("antonaudit -replay -1 on antonsim's ledger: %v\n%s", err, out)
	}
	if want := "replay OK: digest " + digest + " at step 40"; !strings.Contains(string(out), want) {
		t.Fatalf("antonaudit did not print %q:\n%s", want, out)
	}
}

// TestCLIResume: stopping at step 20 and resuming to 40 lands on the
// uninterrupted run's digest, monolithic and across 8 shards, and the
// ledger records each resume with the restored step and a running count
// — also when the ledger file did not survive.
func TestCLIResume(t *testing.T) {
	skipShort(t)
	_, want := antonsim(t, "-system", "small", "-steps", "40")
	for _, shards := range []string{"0", "8"} {
		t.Run("shards-"+shards, func(t *testing.T) {
			dir := t.TempDir()
			ckpt, path := filepath.Join(dir, "run.ckpt"), filepath.Join(dir, "run.ledger")
			base := []string{"-system", "small", "-shards", shards, "-checkpoint", ckpt, "-ledger", path}
			if step, _ := antonsim(t, append(base, "-steps", "20")...); step != 20 {
				t.Fatalf("first leg stopped at step %d, want 20", step)
			}
			for leg, resumes := range [][]ledger.Resume{
				{{RestoredStep: 20, Resumes: 1}},
				{{RestoredStep: 20, Resumes: 1}, {RestoredStep: 40, Resumes: 2}}, // nothing left to run
			} {
				step, got := antonsim(t, append(base, "-steps", "40", "-resume", ckpt)...)
				if step != 40 || got != want {
					t.Fatalf("resume %d reached step %d digest %s, uninterrupted run has %s at 40", leg+1, step, got, want)
				}
				recs := readLedger(t, path)
				if g, _ := ledger.GenesisOf(recs); g.System != "small" {
					t.Fatalf("genesis system %q, want the spec's %q", g.System, "small")
				}
				if got := resumesOf(recs); !reflect.DeepEqual(got, resumes) {
					t.Fatalf("resume records %+v, want %+v", got, resumes)
				}
			}
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
			antonsim(t, append(base, "-steps", "40", "-resume", ckpt)...)
			if got, want := resumesOf(readLedger(t, path)), []ledger.Resume{{RestoredStep: 40, Resumes: 1}}; !reflect.DeepEqual(got, want) {
				t.Fatalf("resume without a ledger file recorded %+v, want %+v", got, want)
			}
		})
	}
}

// TestCLICheckpointBytes pins the checkpoint image of a 20-step `small`
// run byte for byte: a change to the codec must not change the format.
// Floating-point kernels may round differently off amd64, so the image
// recorded there holds on amd64 only.
func TestCLICheckpointBytes(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("checkpoint image recorded on amd64")
	}
	path := filepath.Join(t.TempDir(), "run.ckpt")
	antonsim(t, "-system", "small", "-steps", "20", "-checkpoint", path)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const (
		size = 54276
		crc  = 0xe4be1e92
		sum  = "bd9e1eb1687ea49c71102540263bd12e76f07f17a1b46b2e77befc52be55bf13"
	)
	if len(b) != size {
		t.Fatalf("checkpoint is %d bytes, want %d", len(b), size)
	}
	if got := binary.LittleEndian.Uint32(b[len(b)-4:]); got != crc {
		t.Errorf("trailing CRC %#x, want %#x", got, crc)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(b)); got != sum {
		t.Errorf("checkpoint sha256 %s, want %s", got, sum)
	}
}

// TestCLIFlagErrors: the retired knobs are the flag package's usage
// error (exit 2), and a spec the daemon would refuse at submit exits 1
// before anything is built.
func TestCLIFlagErrors(t *testing.T) {
	for _, c := range []struct {
		args   []string
		code   int
		stderr string
	}{
		{[]string{"-trace-nodes"}, 2, "flag provided but not defined: -trace-nodes"},
		{[]string{"-trace-ring", "64"}, 2, "flag provided but not defined: -trace-ring"},
		{[]string{"-watch-every", "5"}, 2, "flag provided but not defined: -watch-every"},
		{[]string{"-ledger-every", "5"}, 2, "flag provided but not defined: -ledger-every"},
		{[]string{"-chaos-restarts", "1"}, 2, "flag provided but not defined: -chaos-restarts"},
		{[]string{"-checkpoint-every", "5"}, 2, "flag provided but not defined: -checkpoint-every"},
		{[]string{"-chaos-heartbeat", "300ms"}, 2, "flag provided but not defined: -chaos-heartbeat"},
		{[]string{"-system", "small", "-steps", "0"}, 1, "invalid run"},
		{[]string{"-system", "small", "-chaos", "seed=7,drop=0.02"}, 1, "invalid run"},
		{[]string{"-system", "small", "-steps", "4", "-temp", "NaN"}, 1, "non-finite temperature"},
		{[]string{"-system", "small", "-steps", "4", "-temp", "Inf"}, 1, "non-finite temperature"},
		{[]string{"-system", "small", "-steps", "4", "-temp", "1e30"}, 1, "exceeds the 1000 K cap"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(c.args, &stdout, &stderr)
		if code != c.code || !strings.Contains(stderr.String(), c.stderr) {
			t.Errorf("antonsim %v: exit %d, want %d with %q on stderr; got:\n%s", c.args, code, c.code, c.stderr, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("antonsim %v printed to stdout before refusing:\n%s", c.args, stdout.String())
		}
	}
}
