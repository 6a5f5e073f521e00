package service

import (
	"os"
	"path/filepath"
	"testing"
)

func testSpec() JobSpec {
	s := JobSpec{System: "small", Steps: 100}
	if err := s.Normalize(); err != nil {
		panic(err)
	}
	return s
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	a, err := st.Create(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	b, err := st.Create(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if a.ID == b.ID {
		t.Fatalf("duplicate job ID %s", a.ID)
	}
	if a.State != StateQueued || a.ResumedFrom != -1 {
		t.Fatalf("fresh job state = %s/resumed_from %d, want queued/-1", a.State, a.ResumedFrom)
	}

	a.State = StateDone
	a.Step = 100
	a.Digest = "deadbeefdeadbeef"
	if err := st.Put(a); err != nil {
		t.Fatal(err)
	}

	// A fresh store over the same directory must see everything: the map
	// is a cache, the files are the truth.
	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := st2.Get(a.ID)
	if !ok {
		t.Fatalf("reopened store lost %s", a.ID)
	}
	if got.State != StateDone || got.Step != 100 || got.Digest != "deadbeefdeadbeef" {
		t.Fatalf("round-tripped status = %+v", got)
	}
	if l := st2.List(); len(l) != 2 || l[0].ID != a.ID || l[1].ID != b.ID {
		t.Fatalf("List() = %v, want [%s %s]", l, a.ID, b.ID)
	}
	// New IDs must continue the sequence, not collide with loaded jobs.
	c, err := st2.Create(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if c.ID <= b.ID {
		t.Fatalf("reopened store allocated non-monotonic ID %s after %s", c.ID, b.ID)
	}
}

func TestStoreRecover(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	queued, _ := st.Create(testSpec())
	running, _ := st.Create(testSpec())
	done, _ := st.Create(testSpec())
	running.State = StateRunning
	running.Step = 50
	if err := st.Put(running); err != nil {
		t.Fatal(err)
	}
	done.State = StateDone
	if err := st.Put(done); err != nil {
		t.Fatal(err)
	}

	// Recovery happens on a freshly opened store (daemon restart).
	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := st2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(rec) != 2 {
		t.Fatalf("recovered %d jobs, want 2 (queued + interrupted)", len(rec))
	}
	if rec[0].ID != queued.ID || rec[1].ID != running.ID {
		t.Fatalf("recovered %s,%s — want submission order %s,%s",
			rec[0].ID, rec[1].ID, queued.ID, running.ID)
	}
	// The interrupted job is flipped to queued, durably, keeping its step.
	got, _ := st2.Get(running.ID)
	if got.State != StateQueued || got.Step != 50 {
		t.Fatalf("interrupted job = %s at step %d, want queued at 50", got.State, got.Step)
	}
	st3, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := st3.Get(running.ID); got.State != StateQueued {
		t.Fatalf("recovery flip was not persisted: %s", got.State)
	}
	if got, _ := st3.Get(done.ID); got.State != StateDone {
		t.Fatalf("recovery touched a terminal job: %s", got.State)
	}
}

// reopenOverStatus creates a store holding two queued jobs, replaces the
// first one's status.json with mutilate(its bytes), and opens the store
// again over the result — which must succeed whatever the bytes are.
func reopenOverStatus(t testing.TB, mutilate func([]byte) []byte) (st2 *Store, victim, healthy JobStatus, path string) {
	t.Helper()
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	victim, _ = st.Create(testSpec())
	healthy, _ = st.Create(testSpec())
	path = filepath.Join(st.Dir(victim.ID), "status.json")
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, mutilate(orig), 0o644); err != nil {
		t.Fatal(err)
	}
	st2, err = OpenStore(dir)
	if err != nil {
		t.Fatalf("open over a damaged status record failed instead of quarantining: %v", err)
	}
	return st2, victim, healthy, path
}

// TestStoreCorruptStatus is the fails-open contract of the open scan:
// every flavor of damaged status record — torn, bit-flipped, empty,
// garbage, or naming the wrong job — quarantines that one job as
// failed_poisoned (evidence preserved as status.json.corrupt) instead of
// refusing to open the store or, worse, silently re-running the job.
func TestStoreCorruptStatus(t *testing.T) {
	corruptions := []struct {
		name     string
		mutilate func([]byte) []byte
	}{
		{"zero-length", func([]byte) []byte { return nil }},
		{"truncated", func(b []byte) []byte { return b[:len(b)/2] }},
		{"bit-flipped-brace", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[0] ^= 0x40 // '{' -> ';': unparseable from byte 0
			return c
		}},
		{"garbage", func([]byte) []byte { return []byte("{not json") }},
		{"wrong-job-id", func(b []byte) []byte {
			return []byte(`{"id":"job-999999","state":"queued","spec":{"system":"small","steps":1}}`)
		}},
	}
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			st2, victim, healthy, path := reopenOverStatus(t, tc.mutilate)
			got, ok := st2.Get(victim.ID)
			if !ok || got.State != StateQuarantined {
				t.Fatalf("victim = %+v ok=%v, want failed_poisoned", got, ok)
			}
			if q := st2.Quarantined(); len(q) != 1 || q[0] != victim.ID {
				t.Fatalf("Quarantined() = %v, want [%s]", q, victim.ID)
			}
			if _, err := os.Stat(path + ".corrupt"); err != nil {
				t.Fatalf("damaged bytes not preserved: %v", err)
			}
			// The healthy neighbor is untouched, and recovery never
			// re-queues the quarantined job (no silent re-run).
			if got, ok := st2.Get(healthy.ID); !ok || got.State != StateQueued {
				t.Fatalf("healthy job = %+v ok=%v", got, ok)
			}
			rec, err := st2.Recover()
			if err != nil {
				t.Fatal(err)
			}
			for _, js := range rec {
				if js.ID == victim.ID {
					t.Fatal("recovery re-queued a quarantined job")
				}
			}
		})
	}

	// A job directory with no status.json at all is a mkdir-then-crash
	// remnant and is skipped, not fatal and not quarantined.
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	js, _ := st.Create(testSpec())
	if err := os.Remove(filepath.Join(st.Dir(js.ID), "status.json")); err != nil {
		t.Fatal(err)
	}
	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st2.Get(js.ID); ok {
		t.Fatal("store resurrected a job with no status record")
	}
	if len(st2.Quarantined()) != 0 {
		t.Fatal("empty remnant dir quarantined")
	}
}

// TestStoreIdempotencyIndex: the key -> job index round-trips a reopen,
// so duplicate-submission detection survives daemon restarts.
func TestStoreIdempotencyIndex(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec()
	spec.IdempotencyKey = "client-retry-7"
	js, err := st.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := st.ByKey("client-retry-7"); !ok || got.ID != js.ID {
		t.Fatalf("ByKey = %+v ok=%v", got, ok)
	}
	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := st2.ByKey("client-retry-7"); !ok || got.ID != js.ID {
		t.Fatalf("reopened ByKey = %+v ok=%v — index must rebuild from disk", got, ok)
	}
	if _, ok := st2.ByKey("unseen"); ok {
		t.Fatal("ByKey invented a job")
	}
}
