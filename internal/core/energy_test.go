package core

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"
	"unsafe"
)

// energyBits is every energy an evaluation reports, as bit patterns:
// PotentialEnergy and the four Breakdown components.
func energyBits(e *Engine) [5]uint64 {
	b := e.Breakdown
	return [5]uint64{
		math.Float64bits(e.PotentialEnergy),
		math.Float64bits(b.RangeLimited), math.Float64bits(b.Bonded),
		math.Float64bits(b.Mesh), math.Float64bits(b.Correction),
	}
}

// TestEnergyInvariance: every reported energy is a wrapping fixed-point
// sum of per-term quantized energies, so PotentialEnergy, the breakdown
// and the checkpoint bytes (which carry the long-range energy) are
// bitwise the same for any worker count and any shard count, and a
// restore from that checkpoint steps on to the same energies. 21 steps
// cross long-range refreshes and the migrations at steps 4..20, and end
// on a step that reports the stale long-range energy.
func TestEnergyInvariance(t *testing.T) {
	const steps, more = 21, 4
	type run struct {
		name string
		eng  *Engine
	}
	var runs []run
	for _, w := range []int{1, 2, 3, 8} {
		e := smallWaterEngine(t, 8, func(c *Config) { c.Workers = w })
		runs = append(runs, run{fmt.Sprintf("workers=%d", w), e})
	}
	for _, n := range []int{8, 64} {
		runs = append(runs, run{fmt.Sprintf("shards=%d", n), smallWaterSharded(t, n, nil)})
	}

	var refBits [5]uint64
	var refCkpt []byte
	for i, r := range runs {
		r.eng.Step(steps)
		var buf bytes.Buffer
		if err := r.eng.WriteCheckpoint(&buf); err != nil {
			t.Fatal(err)
		}
		bits := energyBits(r.eng)
		t.Logf("%-10s PotentialEnergy %.17g", r.name, r.eng.PotentialEnergy)
		if i == 0 {
			refBits, refCkpt = bits, buf.Bytes()
			continue
		}
		if bits != refBits {
			t.Errorf("%s: energies %x differ from %s's %x", r.name, bits, runs[0].name, refBits)
		}
		if !bytes.Equal(buf.Bytes(), refCkpt) {
			t.Errorf("%s: checkpoint bytes differ from %s's", r.name, runs[0].name)
		}
	}

	// The reference steps on; restores into another worker count and
	// another shard count must report the same energies at every step.
	ref := runs[0]
	var want [more][5]uint64
	for k := range want {
		ref.eng.Step(1)
		want[k] = energyBits(ref.eng)
	}
	mono := smallWaterEngine(t, 8, func(c *Config) { c.Workers = 3 })
	sh := smallWaterSharded(t, 8, nil)
	restored := []run{
		{"restored workers=3", mono},
		{"restored shards=8", sh},
	}
	if err := mono.RestoreCheckpoint(bytes.NewReader(refCkpt)); err != nil {
		t.Fatal(err)
	}
	if err := sh.RestoreCheckpoint(bytes.NewReader(refCkpt)); err != nil {
		t.Fatal(err)
	}
	for _, r := range restored {
		for k := range want {
			r.eng.Step(1)
			if got := energyBits(r.eng); got != want[k] {
				t.Errorf("%s: step %d energies %x, uninterrupted run %x", r.name, steps+k+1, got, want[k])
			}
		}
	}
}

// TestEvalDiagMergeCoversEveryField: every numeric field of evalDiag,
// nested ones included, is set to a distinct non-zero value by
// reflection and the whole is merged into a zero evalDiag, which must
// come out equal. A field added to evalDiag but not to merge (or to
// htis.PairStats.Merge) fails here, rather than reading zero for every
// worker but the first.
func TestEvalDiagMergeCoversEveryField(t *testing.T) {
	var src evalDiag
	next := int64(0)
	var fill func(v reflect.Value, path string)
	fill = func(v reflect.Value, path string) {
		switch v.Kind() {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			next++
			v.SetInt(next)
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			next++
			v.SetUint(uint64(next))
		case reflect.Float32, reflect.Float64:
			next++
			v.SetFloat(float64(next))
		case reflect.Array:
			for i := 0; i < v.Len(); i++ {
				fill(v.Index(i), fmt.Sprintf("%s[%d]", path, i))
			}
		case reflect.Struct:
			// evalDiag's fields are unexported: reach each one through a
			// settable view of its memory.
			for i := 0; i < v.NumField(); i++ {
				f := v.Field(i)
				f = reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem()
				fill(f, path+"."+v.Type().Field(i).Name)
			}
		default:
			t.Fatalf("%s: kind %s has no merge rule this test knows", path, v.Kind())
		}
	}
	fill(reflect.ValueOf(&src).Elem(), "evalDiag")
	if next < 10 {
		t.Fatalf("filled only %d fields", next)
	}
	var got evalDiag
	got.merge(&src)
	if got != src {
		t.Errorf("merge dropped a field:\n got  %+v\n want %+v", got, src)
	}
}
