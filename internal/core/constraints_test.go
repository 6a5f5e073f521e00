package core

import (
	"math"
	"math/rand"
	"testing"

	"anton/internal/ff"
	"anton/internal/system"
	"anton/internal/vec"
)

// The sweep-by-sweep SHAKE and RATTLE: every term recomputed on every
// pass, one group after another on one goroutine — the engine's constraint
// code before the loop invariants were hoisted and the groups spread over
// workers, kept as the oracle for TestConstraintHoistBitwise.

// refConstraints installs the oracle on e: the constraint phases run
// serially through refShakeGroup / refRattleGroup.
func refConstraints(e *Engine) {
	top := e.Sys.Top
	byGroup := make([][]*ff.Constraint, len(e.groups))
	for ci := range top.Constraints {
		c := &top.Constraints[ci]
		byGroup[e.groupOf[c.I]] = append(byGroup[e.groupOf[c.I]], c)
	}
	cur := make([]vec.V3, e.maxGroupLen)
	ref := make([]vec.V3, e.maxGroupLen)
	e.shakeChunkFn = func(_, _, _ int) {
		for gi := range e.groups {
			refShakeGroup(e, gi, byGroup[gi], cur, ref)
		}
	}
	e.rattleChunkFn = func(_, _, _ int) {
		for gi := range e.groups {
			refRattleGroup(e, gi, byGroup[gi], cur)
		}
	}
	e.Cfg.Workers = 1 // one chunk: the closures above cover every group
}

// localIndex returns atom a's position within the group's atom list.
func localIndex(atoms []int, a int) int {
	for li, b := range atoms {
		if a == b {
			return li
		}
	}
	panic("atom not in its constraint group")
}

func refShakeGroup(e *Engine, gi int, cons []*ff.Constraint, cur, ref []vec.V3) {
	if len(cons) == 0 {
		return
	}
	top := e.Sys.Top
	box := e.Sys.Box
	atoms := e.groups[gi]
	oldPos, dt := e.oldPos, e.Cfg.Dt
	for li, a := range atoms {
		cur[li] = e.Coder.Decode(e.Pos[a])
		ref[li] = e.Coder.Decode(oldPos[a])
	}
	const tol = 1e-10
	for iter := 0; iter < 200; iter++ {
		worst := 0.0
		for _, c := range cons {
			li, lj := localIndex(atoms, c.I), localIndex(atoms, c.J)
			d := refMinImage(box, cur[li].Sub(cur[lj]))
			diff := d.Norm2() - c.R*c.R
			if v := math.Abs(diff) / (c.R * c.R); v > worst {
				worst = v
			}
			if math.Abs(diff) < tol {
				continue
			}
			rd := refMinImage(box, ref[li].Sub(ref[lj]))
			mi := 1 / top.Atoms[c.I].Mass
			mj := 1 / top.Atoms[c.J].Mass
			g := diff / (2 * (mi + mj) * d.Dot(rd))
			corr := rd.Scale(g)
			cur[li] = cur[li].Sub(corr.Scale(mi))
			cur[lj] = cur[lj].Add(corr.Scale(mj))
		}
		if worst < tol {
			break
		}
	}
	for li, a := range atoms {
		if top.Atoms[a].Mass == 0 {
			continue
		}
		e.Pos[a] = e.Coder.Encode(box.Wrap(cur[li]))
		disp := e.Coder.DeltaToPhys(e.Pos[a].Sub(oldPos[a]))
		e.Vel[a] = EncodeVel(disp.Scale(1 / dt))
	}
}

func refRattleGroup(e *Engine, gi int, cons []*ff.Constraint, v []vec.V3) {
	if len(cons) == 0 {
		return
	}
	top := e.Sys.Top
	atoms := e.groups[gi]
	for li, a := range atoms {
		v[li] = e.Vel[a].Float()
	}
	for iter := 0; iter < 100; iter++ {
		worst := 0.0
		for _, c := range cons {
			li, lj := localIndex(atoms, c.I), localIndex(atoms, c.J)
			d := e.Coder.DeltaToPhys(e.Pos[c.I].Sub(e.Pos[c.J]))
			rel := v[li].Sub(v[lj])
			dot := d.Dot(rel)
			if math.Abs(dot) > worst {
				worst = math.Abs(dot)
			}
			mi := 1 / top.Atoms[c.I].Mass
			mj := 1 / top.Atoms[c.J].Mass
			k := dot / (d.Norm2() * (mi + mj))
			v[li] = v[li].Sub(d.Scale(k * mi))
			v[lj] = v[lj].Add(d.Scale(k * mj))
		}
		if worst < 1e-12 {
			break
		}
	}
	for li, a := range atoms {
		if top.Atoms[a].Mass == 0 {
			continue
		}
		e.Vel[a] = EncodeVel(v[li])
	}
}

// refMinImage is Box.MinImage on the round-and-wrap form of MinImage1
// (vec's own test holds the fast path equal to it; using the long form
// here keeps this oracle independent of that).
func refMinImage(b vec.Box, d vec.V3) vec.V3 {
	one := func(d, l float64) float64 {
		d -= l * math.Round(d/l)
		if d < -l/2 {
			d += l
		} else if d >= l/2 {
			d -= l
		}
		return d
	}
	return vec.V3{X: one(d.X, b.L.X), Y: one(d.Y, b.L.Y), Z: one(d.Z, b.L.Z)}
}

// TestConstraintHoistBitwise: hoisting SHAKE's and RATTLE's loop
// invariants and running the groups on several workers (or in shards)
// moves no bit of the trajectory. 50 steps of `small` (rigid waters plus
// the protein's X-H bonds) against the oracle at workers 1/2/4/8 and at 8
// shards, four-site water (massless sites in the groups) at 2 workers,
// and without -short a few steps of DHFR.
func TestConstraintHoistBitwise(t *testing.T) {
	same := func(what string, e, ref *Engine) {
		t.Helper()
		p, v := e.Snapshot()
		rp, rv := ref.Snapshot()
		for i := range rp {
			if p[i] != rp[i] || v[i] != rv[i] {
				t.Fatalf("%s: atom %d differs from the sweep-by-sweep oracle", what, i)
			}
		}
	}
	const steps = 50
	ref := smallWaterEngine(t, 8, nil)
	refConstraints(ref)
	ref.Step(steps)
	for _, workers := range []int{1, 2, 4, 8} {
		e := smallWaterEngine(t, 8, func(c *Config) { c.Workers = workers })
		e.Step(steps)
		same("small", e, ref)
	}
	sh := smallWaterSharded(t, 8, nil)
	sh.Step(steps)
	same("small, 8 shards", sh, ref)

	build := func(s *system.System, workers int) *Engine {
		cfg := DefaultConfig(8)
		cfg.Workers = workers
		e, err := NewEngine(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		e.SetVelocities(system.InitVelocities(s.Top, 300, rand.New(rand.NewSource(5))))
		return e
	}
	others := map[string]*system.System{"tip4p": tip4pSmall(t)}
	n := 20
	if !testing.Short() {
		s, err := system.ByName("DHFR")
		if err != nil {
			t.Fatal(err)
		}
		others["DHFR"] = s
	}
	for name, s := range others {
		if name == "DHFR" {
			n = 3
		}
		ref := build(s, 1)
		refConstraints(ref)
		ref.Step(n)
		e := build(s, 2)
		e.Step(n)
		same(name, e, ref)
	}
}

// TestConstraintCounters: no group of `small` (100 steps) or DHFR (8
// steps, without -short) leaves SHAKE or RATTLE at the sweep cap, the
// sweep count is what the oracle's loops would run (every constrained
// group sweeps at least once per pass), and both counters are the same
// for every worker and shard count.
func TestConstraintCounters(t *testing.T) {
	const steps = 100
	var want Stats
	for _, workers := range []int{1, 2, 8} {
		e := smallWaterEngine(t, 8, func(c *Config) { c.Workers = workers })
		e.Step(steps)
		if e.Stats.ConstraintUnconverged != 0 {
			t.Errorf("workers=%d: %d constraint groups hit the sweep cap", workers, e.Stats.ConstraintUnconverged)
		}
		if floor := int64(2 * steps * len(e.consGroups)); e.Stats.ConstraintSweeps < floor {
			t.Errorf("workers=%d: %d sweeps, want at least one per group per pass (%d)",
				workers, e.Stats.ConstraintSweeps, floor)
		}
		if workers == 1 {
			want = e.Stats
			t.Logf("small: %d sweeps over %d steps, %.1f per group per pass",
				want.ConstraintSweeps, steps, float64(want.ConstraintSweeps)/float64(2*steps*len(e.consGroups)))
		} else if e.Stats != want {
			t.Errorf("workers=%d: stats %+v, one worker had %+v", workers, e.Stats, want)
		}
	}
	if !testing.Short() {
		sh := smallWaterSharded(t, 8, nil)
		sh.Step(steps)
		if sh.Stats != want {
			t.Errorf("8 shards: stats %+v, monolithic %+v", sh.Stats, want)
		}
		s, err := system.ByName("DHFR")
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewEngine(s, DefaultConfig(8))
		if err != nil {
			t.Fatal(err)
		}
		e.SetVelocities(system.InitVelocities(s.Top, 300, rand.New(rand.NewSource(7))))
		e.Step(8)
		if e.Stats.ConstraintUnconverged != 0 || e.Stats.ConstraintSweeps == 0 {
			t.Errorf("DHFR: %d sweeps, %d groups at the cap", e.Stats.ConstraintSweeps, e.Stats.ConstraintUnconverged)
		}
	}
}

// TestConstraintCapIsCounted: a group that cannot converge is reported.
// Two constraints that contradict each other (one bond, two lengths) keep
// SHAKE sweeping to its cap.
func TestConstraintCapIsCounted(t *testing.T) {
	s, err := system.Small(true, 21)
	if err != nil {
		t.Fatal(err)
	}
	c := s.Top.Constraints[0]
	c.R *= 1.2
	s.Top.Constraints = append(s.Top.Constraints, c)
	e, err := NewEngine(s, DefaultConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	e.Step(1)
	if e.Stats.ConstraintUnconverged == 0 {
		t.Fatalf("contradictory constraints went unreported (%d sweeps)", e.Stats.ConstraintSweeps)
	}
}
