package faults

import (
	"reflect"
	"testing"
	"time"
)

// TestParseSpecRoundTrip: the canonical rendering of a parsed spec parses
// back to the same spec.
func TestParseSpecRoundTrip(t *testing.T) {
	in := "seed=7,drop=0.02,dup=0.01,delay=0.02,corrupt=0.005,stall=0.01,crashes=2,horizon=120"
	sp, err := ParseSpec(in)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Seed != 7 || sp.Drop != 0.02 || sp.Crashes != 2 || sp.CrashHorizon != 120 {
		t.Fatalf("parsed %+v", sp)
	}
	// Defaults fill the unset bounds.
	if sp.MaxDelay != 2*time.Millisecond || sp.SafeAttempt != 3 {
		t.Fatalf("defaults not applied: %+v", sp)
	}
	// Non-default bounds must survive too: safe changes which attempts
	// are refused, so a rendering that drops it names another campaign.
	bounded, err := ParseSpec(in + ",maxdelay=7ms,maxstall=5ms,safe=5")
	if err != nil {
		t.Fatal(err)
	}
	if bounded.MaxDelay != 7*time.Millisecond || bounded.MaxStall != 5*time.Millisecond || bounded.SafeAttempt != 5 {
		t.Fatalf("parsed bounds: %+v", bounded)
	}
	for _, sp := range []Spec{sp, bounded, DefaultSpec()} {
		sp2, err := ParseSpec(sp.String())
		if err != nil {
			t.Fatal(err)
		}
		if sp2 != sp {
			t.Fatalf("round trip through %q changed the spec:\n%#v\nvs\n%#v", sp.String(), sp, sp2)
		}
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, bad := range []string{"drop", "drop=x", "unknown=1", "maxdelay=5"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
	if sp, err := ParseSpec(""); err != nil || sp != DefaultSpec() {
		t.Errorf("empty spec: %+v, %v", sp, err)
	}
	// Probabilities clamp instead of erroring.
	sp, err := ParseSpec("drop=1.5")
	if err != nil || sp.Drop != 1 {
		t.Errorf("clamp: %+v, %v", sp, err)
	}
}

// TestScheduleDeterministic: the same seed always produces the same crash
// schedule, message verdicts and stall decisions — the replay guarantee.
func TestScheduleDeterministic(t *testing.T) {
	sp, err := ParseSpec("seed=42,drop=0.1,dup=0.05,delay=0.1,corrupt=0.02,stall=0.05,crashes=4,horizon=50")
	if err != nil {
		t.Fatal(err)
	}
	a, b := New(sp, 8), New(sp, 8)
	if !reflect.DeepEqual(a.Schedule(), b.Schedule()) {
		t.Fatalf("schedules differ:\n%v\nvs\n%v", a.Schedule(), b.Schedule())
	}
	if len(a.Schedule()) != 4 {
		t.Fatalf("scheduled %d crashes, want 4", len(a.Schedule()))
	}
	for _, ev := range a.Schedule() {
		if ev.Step < 1 || ev.Shard < 0 || ev.Shard >= 8 {
			t.Fatalf("event out of range: %+v", ev)
		}
	}
	for step := int64(0); step < 20; step++ {
		for xid := uint32(0); xid < 4; xid++ {
			for att := 1; att <= 4; att++ {
				va := a.Message(step, xid, 0, 1, 2, att)
				vb := b.Message(step, xid, 0, 1, 2, att)
				if va != vb {
					t.Fatalf("verdicts differ at step %d xid %d attempt %d", step, xid, att)
				}
			}
		}
		if a.StallNs(step, 3, 5) != b.StallNs(step, 3, 5) {
			t.Fatalf("stall decisions differ at step %d", step)
		}
	}
}

// TestSafeAttempt: attempts at or past SafeAttempt are never faulted — the
// retransmission loop's progress guarantee.
func TestSafeAttempt(t *testing.T) {
	sp := DefaultSpec()
	sp.Drop, sp.Dup, sp.Delay, sp.Corrupt = 1, 0, 0, 0 // drop everything faultable
	p := New(sp, 4)
	if v := p.Message(1, 1, 0, 0, 1, 1); v.Act != ActDrop {
		t.Fatalf("attempt 1 with drop=1 delivered: %+v", v)
	}
	for att := sp.SafeAttempt; att < sp.SafeAttempt+3; att++ {
		if v := p.Message(1, 1, 0, 0, 1, att); v.Act != ActDeliver {
			t.Fatalf("safe attempt %d faulted: %+v", att, v)
		}
	}
}

// TestCrashConsumedOnce: a scheduled crash fires exactly once — the
// restored replay of the same step must not refire it.
func TestCrashConsumedOnce(t *testing.T) {
	sp := DefaultSpec()
	sp.Crashes, sp.CrashHorizon = 3, 30
	p := New(sp, 8)
	evs := p.Schedule()
	fired := 0
	for _, ev := range evs {
		if !p.Crash(ev.Step, ev.Shard, ev.Point) {
			t.Fatalf("scheduled crash %+v did not fire", ev)
		}
		fired++
		if p.Crash(ev.Step, ev.Shard, ev.Point) {
			t.Fatalf("crash %+v fired twice", ev)
		}
		// Wrong point or shard: no fire.
		if p.Crash(ev.Step, ev.Shard, 1-ev.Point) {
			t.Fatalf("crash %+v fired at the wrong point", ev)
		}
	}
	c := p.Counts()
	if c.CrashesFired != int64(fired) || c.CrashesScheduled != 3 {
		t.Fatalf("counts %+v after firing %d", c, fired)
	}
}

// TestVerdictCounts: the per-kind tallies track the issued verdicts.
func TestVerdictCounts(t *testing.T) {
	sp := DefaultSpec()
	sp.Drop, sp.Corrupt, sp.Dup, sp.Delay = 0.25, 0.25, 0.25, 0.25
	p := New(sp, 4)
	var got Counts
	for i := 0; i < 4000; i++ {
		switch p.Message(int64(i), 1, 0, 0, 1, 1).Act {
		case ActDrop:
			got.Drops++
		case ActCorrupt:
			got.Corrupts++
		case ActDup:
			got.Dups++
		case ActDelay:
			got.Delays++
		default:
			t.Fatalf("delivered with total fault probability 1 (i=%d)", i)
		}
	}
	c := p.Counts()
	if c.Drops != got.Drops || c.Dups != got.Dups || c.Delays != got.Delays || c.Corrupts != got.Corrupts {
		t.Fatalf("tallies %+v disagree with observed %+v", c, got)
	}
	if c.Drops == 0 || c.Dups == 0 || c.Delays == 0 || c.Corrupts == 0 {
		t.Fatalf("some verdict class never drawn: %+v", c)
	}
}

// TestDelayBounds: delay and stall draws stay within [max/4, max].
func TestDelayBounds(t *testing.T) {
	sp := DefaultSpec()
	sp.Delay = 1
	sp.Stall = 1
	p := New(sp, 4)
	for i := 0; i < 500; i++ {
		if v := p.Message(int64(i), 1, 0, 0, 1, 1); v.Act == ActDelay {
			if v.DelayNs < int64(sp.MaxDelay)/4 || v.DelayNs > int64(sp.MaxDelay) {
				t.Fatalf("delay %d ns outside [%d, %d]", v.DelayNs, int64(sp.MaxDelay)/4, int64(sp.MaxDelay))
			}
		}
		if ns := p.StallNs(int64(i), 0, 1); ns < int64(sp.MaxStall)/4 || ns > int64(sp.MaxStall) {
			t.Fatalf("stall %d ns outside bounds", ns)
		}
	}
}

// TestNilPlane: a nil plane is a quiet plane (the plain transport path).
func TestNilPlane(t *testing.T) {
	var p *Plane
	if v := p.Message(1, 1, 0, 0, 1, 1); v.Act != ActDeliver {
		t.Fatal("nil plane faulted a message")
	}
	if p.StallNs(1, 0, 0) != 0 || p.Crash(1, 0, 0) {
		t.Fatal("nil plane stalled or crashed")
	}
	if p.Counts() != (Counts{}) {
		t.Fatal("nil plane has counts")
	}
}

// FuzzParseSpecs drives both campaign grammars (one parseKeys, two key
// tables) with hostile text: neither may panic, and a spec either accepts
// is normalized — probabilities in [0, 1], positive bounds — and parses
// back from its own String() to the same spec.
func FuzzParseSpecs(f *testing.F) {
	for _, s := range []string{
		"", ",,", "drop", "drop=x", "unknown=1", "maxdelay=5", "drop=1.5", "drop=nan", "stall=-0",
		"seed=7,drop=0.02,dup=0.01,delay=0.02,corrupt=0.005,stall=0.01,crashes=2,horizon=120",
		"seed=7,maxdelay=7ms,maxstall=5ms,safe=5", " seed = -9 , horizon=-1,safe=0",
		"seed=11,enospc=0.05,eio=0.08,torn=0.05,fsyncdrop=0.1,stall=0.02,maxstall=2ms,crashes=6,horizon=40",
		"nonsense", "bogus=1", "enospc=lots", "crashes=99999999999999999999",
	} {
		f.Add(s)
	}
	prob := func(t *testing.T, s string, ps ...float64) {
		for _, p := range ps {
			if !(p >= 0 && p <= 1) {
				t.Fatalf("%q: probability %v outside [0, 1]", s, p)
			}
		}
	}
	f.Fuzz(func(t *testing.T, s string) {
		if sp, err := ParseSpec(s); err == nil {
			prob(t, s, sp.Drop, sp.Dup, sp.Delay, sp.Corrupt, sp.Stall)
			if sp.MaxDelay <= 0 || sp.MaxStall <= 0 || sp.CrashHorizon <= 0 || sp.SafeAttempt <= 0 {
				t.Fatalf("%q: bounds not normalized: %+v", s, sp)
			}
			if sp2, err := ParseSpec(sp.String()); err != nil || sp2 != sp {
				t.Fatalf("%q renders as %q, which parses to %+v, %v; want %+v", s, sp.String(), sp2, err, sp)
			}
		}
		if sp, err := ParseFSSpec(s); err == nil {
			prob(t, s, sp.ENOSPC, sp.EIO, sp.Torn, sp.FsyncDrop, sp.Stall)
			if sp.MaxStall <= 0 || sp.CrashHorizon <= 0 || sp.SafeAttempt <= 0 {
				t.Fatalf("%q: bounds not normalized: %+v", s, sp)
			}
			if sp2, err := ParseFSSpec(sp.String()); err != nil || sp2 != sp {
				t.Fatalf("%q renders as %q, which parses to %+v, %v; want %+v", s, sp.String(), sp2, err, sp)
			}
		}
	})
}
