package ledger

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeSample builds a representative ledger: genesis, a fault
// campaign, cadenced digests, checkpoints, a recovery, an alert, with
// the given batch size. Returns the ledger path.
func writeSample(t testing.TB, batch int, steps int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.ledger")
	w, err := Create(path, Options{Batch: batch})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendGenesis(Genesis{
		Spec:        []byte(`{"system":"small","steps":100}`),
		Fingerprint: "00c0ffee00c0ffee",
		System:      "small", Atoms: 1234,
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendFaults(0, "seed=7,drop=0.03", 7); err != nil {
		t.Fatal(err)
	}
	for s := 10; s <= steps; s += 10 {
		if err := w.AppendDigest(int64(s), uint64(s)*0x9e3779b97f4a7c15); err != nil {
			t.Fatal(err)
		}
		if s%50 == 0 {
			if err := w.AppendCheckpoint(int64(s), "job.ckpt", uint32(s), uint64(s)*0x9e3779b97f4a7c15); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.AppendRecovery(Recovery{DetectedStep: 42, RestoredStep: 40, Crashed: []int32{3}}); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendAlert(60, Alert{Monitor: "energy-drift", Severity: "warn", Value: 1.5, Threshold: 1.0}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestLedgerRoundTrip: a written ledger reads back, verifies, and
// reports the expected structure.
func TestLedgerRoundTrip(t *testing.T) {
	path := writeSample(t, 8, 100)
	rep, err := VerifyFile(path)
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if rep.Pending != 0 {
		t.Errorf("pending %d after Close, want 0", rep.Pending)
	}
	if rep.Commits == 0 || rep.Committed == 0 {
		t.Errorf("no commits verified: %+v", rep)
	}
	if rep.Committed+rep.Commits != rep.Records {
		t.Errorf("committed %d + commits %d != records %d", rep.Committed, rep.Commits, rep.Records)
	}
	if rep.TornTail {
		t.Error("clean ledger reported a torn tail")
	}

	recs, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if g, ok := GenesisOf(recs); !ok || g.System != "small" {
		t.Errorf("genesis payload lost: %+v ok=%v", g, ok)
	}
	if d, ok := DigestAt(recs, 50); !ok || d == "" {
		t.Error("digest at step 50 not found")
	}
	ck, ok := CheckpointAt(recs, 73)
	if !ok || ck.Step != 50 {
		t.Errorf("nearest checkpoint for step 73 = %+v, want step 50", ck)
	}
	if ck.Checkpoint.File != "job.ckpt" {
		t.Errorf("checkpoint file %q", ck.Checkpoint.File)
	}
	if _, ok := CheckpointAt(recs, 49); ok {
		t.Error("found a checkpoint before any was written")
	}
}

// TestLedgerTamper: flipping any single byte of a committed ledger must
// fail verification, and the failure must name a record. This is the
// provenance contract in its sharpest form, so it is exhaustive over
// the file rather than sampling.
func TestLedgerTamper(t *testing.T) {
	path := writeSample(t, 4, 60)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyFile(path); err != nil {
		t.Fatalf("pristine ledger must verify: %v", err)
	}
	for i := range orig {
		if orig[i] == '\n' {
			// Newline flips change the line structure; covered separately
			// below (they either corrupt JSON or shift records — both
			// still fail, but exhaustively testing every flip value here
			// keeps the loop O(n), not O(256 n)).
			continue
		}
		mut := append([]byte(nil), orig...)
		mut[i] ^= 0x01
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := VerifyFile(path)
		if err == nil {
			t.Fatalf("flip at byte %d (%q) not detected", i, orig[i])
		}
		if !errors.Is(err, ErrVerify) {
			t.Fatalf("flip at byte %d: error not tagged ErrVerify: %v", i, err)
		}
		if !strings.Contains(err.Error(), "record") && !strings.Contains(err.Error(), "head") {
			t.Fatalf("flip at byte %d: error does not locate the damage: %v", i, err)
		}
	}
	// A newline flip too, for completeness.
	mut := append([]byte(nil), orig...)
	for i := range mut {
		if mut[i] == '\n' {
			mut[i] = ' '
			break
		}
	}
	if err := os.WriteFile(path, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyFile(path); err == nil {
		t.Fatal("newline flip not detected")
	}
	// Restore and re-verify: the harness itself must not be the reason
	// verification fails.
	if err := os.WriteFile(path, orig, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyFile(path); err != nil {
		t.Fatalf("restored ledger must verify: %v", err)
	}
}

// TestLedgerTruncatedCommittedTail: cutting records off the end of a
// committed ledger must fail head agreement even though the remaining
// prefix is internally consistent.
func TestLedgerTruncatedCommittedTail(t *testing.T) {
	path := writeSample(t, 4, 60)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(b), "\n")
	// Drop the last two complete lines (at least one commit among them).
	trunc := strings.Join(lines[:len(lines)-3], "")
	if err := os.WriteFile(path, []byte(trunc), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyFile(path); err == nil {
		t.Fatal("truncated committed tail not detected")
	}
}

// TestLedgerTornTail: an incomplete final line after the last commit is
// the expected crash shape — verification succeeds and reports it, and
// Open truncates it away and continues the chain.
func TestLedgerTornTail(t *testing.T) {
	path := writeSample(t, 4, 60)
	// Append garbage with no newline: a torn in-flight record.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"seq":999,"kind":"digest","ste`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	rep, err := VerifyFile(path)
	if err != nil {
		t.Fatalf("torn tail must verify as uncommitted: %v", err)
	}
	if !rep.TornTail {
		t.Error("torn tail not reported")
	}

	w, err := Open(path, Options{Batch: 4})
	if err != nil {
		t.Fatalf("open over torn tail: %v", err)
	}
	if err := w.AppendResume(60, 1); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err = VerifyFile(path)
	if err != nil {
		t.Fatalf("verify after resume-append: %v", err)
	}
	if rep.TornTail || rep.Pending != 0 {
		t.Errorf("after reopen+close: torn=%v pending=%d", rep.TornTail, rep.Pending)
	}
}

// TestLedgerOpenContinuesChain: Open must continue the hash chain and
// the root chain exactly where the previous writer stopped, and must
// refuse a ledger whose committed region is damaged.
func TestLedgerOpenContinuesChain(t *testing.T) {
	path := writeSample(t, 4, 60)
	w, err := Open(path, Options{Batch: 4})
	if err != nil {
		t.Fatal(err)
	}
	for s := 70; s <= 120; s += 10 {
		if err := w.AppendDigest(int64(s), uint64(s)*0x9e3779b97f4a7c15); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := VerifyFile(path)
	if err != nil {
		t.Fatalf("verify after append: %v", err)
	}
	if rep.Pending != 0 {
		t.Errorf("pending %d, want 0", rep.Pending)
	}

	// Damage a committed byte; Open must refuse.
	b, _ := os.ReadFile(path)
	b[40] ^= 0x01
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, Options{}); err == nil {
		t.Fatal("Open accepted a damaged ledger")
	}
}

// TestLedgerDigestConflict: a ledger recording two different digests
// for the same step is evidence of a broken replay — verification must
// refuse it.
func TestLedgerDigestConflict(t *testing.T) {
	path := filepath.Join(t.TempDir(), "conflict.ledger")
	w, err := Create(path, Options{Batch: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendGenesis(Genesis{System: "small"}); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendDigest(10, 0xaaaa); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendResume(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendDigest(10, 0xbbbb); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = VerifyFile(path)
	if err == nil {
		t.Fatal("digest conflict not detected")
	}
	if !strings.Contains(err.Error(), "digest conflict") {
		t.Fatalf("wrong failure: %v", err)
	}
}

// TestLedgerDirectMode: Batch=1 commits every record individually; the
// structure still verifies and every data record is committed.
func TestLedgerDirectMode(t *testing.T) {
	path := writeSample(t, 1, 40)
	rep, err := VerifyFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pending != 0 {
		t.Errorf("pending %d in direct mode", rep.Pending)
	}
	if rep.Commits != rep.Committed {
		t.Errorf("direct mode: %d commits for %d records", rep.Commits, rep.Committed)
	}
}

// TestLedgerWriterStats: the monotonic counters tally records, commits
// and bytes.
func TestLedgerWriterStats(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stats.ledger")
	w, err := Create(path, Options{Batch: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendGenesis(Genesis{System: "small"}); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendDigest(1, 1); err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	if st.Commits != 1 {
		t.Errorf("commits %d after filling one batch, want 1", st.Commits)
	}
	if st.Records != 3 { // genesis + digest + commit
		t.Errorf("records %d, want 3", st.Records)
	}
	if st.Bytes <= 0 {
		t.Error("bytes not counted")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != w.stats.Bytes {
		t.Errorf("file size %d != counted bytes %d", fi.Size(), w.stats.Bytes)
	}
}

// TestLedgerOldAdoptedRecovery: ledgers written while the shard
// supervisor still had crash adoption carry "adopted" in their recovery
// records. The field is gone from Recovery, but a record's identity is
// the hash of its raw line, so such a ledger still verifies, decodes, and
// extends. The recovery line below is byte-for-byte what that writer
// marshalled.
func TestLedgerOldAdoptedRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.ledger")
	var file []byte
	var leaves [][]byte
	prev := ""
	add := func(line []byte) {
		prev = hashLine(line)
		file = append(append(file, line...), '\n')
	}
	leaf := func(line []byte) {
		add(line)
		h, _ := hex.DecodeString(prev)
		leaves = append(leaves, h)
	}
	marshal := func(r Record) []byte {
		r.Prev = prev
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	leaf(marshal(Record{Seq: 0, Kind: KindGenesis, Genesis: &Genesis{System: "small", Atoms: 645}}))
	leaf([]byte(fmt.Sprintf(`{"seq":1,"kind":"recovery","step":42,"recovery":`+
		`{"detected_step":42,"restored_step":40,"crashed":[3],"adopted":[3]},"prev":%q}`, prev)))
	root := hex.EncodeToString(MerkleRoot(leaves))
	add(marshal(Record{Seq: 2, Kind: KindCommit, Commit: &Commit{Root: root, First: 0, Last: 1}}))
	head, _ := json.Marshal(Head{Seq: 2, Hash: prev, Root: root})
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(HeadPath(path), append(head, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err := VerifyFile(path)
	if err != nil {
		t.Fatalf("old ledger with an adopted list: %v", err)
	}
	if rep.Records != 3 || rep.Committed != 2 || rep.Pending != 0 {
		t.Fatalf("report %+v, want 3 records, 2 committed", rep)
	}
	recs, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if r := recs[1].Recovery; r == nil || r.DetectedStep != 42 || len(r.Crashed) != 1 || r.Crashed[0] != 3 {
		t.Fatalf("recovery payload lost: %+v", recs[1].Recovery)
	}

	// A resumed run audits the old chain and extends it.
	w, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("open old ledger: %v", err)
	}
	if err := w.AppendDigest(50, 0xfeed); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyFile(path); err != nil {
		t.Fatalf("extended old ledger: %v", err)
	}
}

// FuzzReadVerify feeds the ledger decoder and the chain verifier hostile
// bytes, seeded from a real ledger and the tamper and torn-tail cases:
// neither may panic, a rejection is tagged ErrVerify, the complete-record
// prefix ReadAll reports re-reads to the same records, and an accepted
// chain's report accounts for every record.
func FuzzReadVerify(f *testing.F) {
	good, err := os.ReadFile(writeSample(f, 4, 60))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)/2])                                   // cut mid-record: torn tail
	f.Add(append(append([]byte(nil), good...), "{\"seq\":"...)) // in-flight append
	f.Add(bytes.Replace(good, []byte("\n"), []byte(" "), 1))    // newline flip
	for _, off := range []int{9, len(good) / 3, len(good) - 9} {
		mut := append([]byte(nil), good...)
		mut[off] ^= 0x01
		f.Add(mut)
	}
	f.Add([]byte("{}\n{}\n"))
	f.Add([]byte(`{"seq":0,"kind":"commit"}` + "\n"))
	f.Add([]byte(`{"seq":0,"kind":"recovery","recovery":{"crashed":[3],"adopted":[3]}}` + "\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, hashes, good, torn, err := ReadAll(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(recs) != len(hashes) || good < 0 || good > int64(len(data)) || (!torn && good != int64(len(data))) {
			t.Fatalf("%d records, %d hashes, %d good of %d bytes, torn=%v", len(recs), len(hashes), good, len(data), torn)
		}
		again, _, good2, torn2, err := ReadAll(bytes.NewReader(data[:good]))
		if err != nil || len(again) != len(recs) || good2 != good || torn2 {
			t.Fatalf("good prefix re-reads to %d records (%d bytes, torn=%v, err %v); want %d (%d bytes)",
				len(again), good2, torn2, err, len(recs), good)
		}
		rep, err := Verify(recs, hashes)
		if err != nil {
			if !errors.Is(err, ErrVerify) {
				t.Fatalf("rejection not tagged ErrVerify: %v", err)
			}
			return
		}
		if rep.Records != uint64(len(recs)) || rep.Committed+rep.Commits+rep.Pending != rep.Records {
			t.Fatalf("report does not account for %d records: %+v", len(recs), rep)
		}
	})
}
