package service

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// FuzzJobSpec decodes hostile bytes the way the submit handler does
// (unknown fields refused) and normalizes the result. Neither step may
// panic; a spec Normalize accepts is a fixed point of Normalize and
// survives the status record's JSON round trip unchanged — the stored
// spec is the one a resumed job rebuilds its engine from.
func FuzzJobSpec(f *testing.F) {
	for _, s := range []string{
		`{"system":"small","steps":100}`,
		`{"system":"DHFR","steps":5,"ensemble":"nve","nodes":64,"seed":-3,"priority":2}`,
		`{"system":"small","steps":80,"shards":8,"chaos":"seed=7,drop=0.02,crashes=1","checkpoint_every":10}`,
		`{"system":"small","steps":1,"idempotency_key":"k","deadline_sec":30,"temperature":310.5,"name":"n"}`,
		`{"system":"small","steps":10,"chaos":"seed=7"}`, // chaos without shards
		`{"system":"small","steps":10,"shards":3}`,
		`{"system":"small","steps":10,"shards":64}`, `{"system":"small","steps":10,"shards":32768}`,
		`{"system":"small","steps":0}`, `{"system":"nope","steps":1}`, `{"steps":1}`,
		`{"system":"small","steps":1,"nodes":3}`, `{"system":"small","steps":1e9}`,
		`{"system":"small","steps":1,"bogus":true}`, `{"system":"small","steps":"1"}`,
		`{"system":"small","steps":1}{"system":"small"}`, `{not json`, ``, `null`, `[]`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec JobSpec
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if dec.Decode(&spec) != nil || spec.Normalize() != nil {
			return
		}
		if spec.Shards > MaxShards {
			t.Fatalf("accepted %d shards, over the %d cap", spec.Shards, MaxShards)
		}
		again := spec
		if err := again.Normalize(); err != nil || again != spec {
			t.Fatalf("Normalize is not idempotent: %+v -> %+v, %v", spec, again, err)
		}
		b, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		var stored JobSpec
		if err := json.Unmarshal(b, &stored); err != nil || stored != spec {
			t.Fatalf("normalized spec does not survive its JSON round trip: %+v -> %s -> %+v, %v", spec, b, stored, err)
		}
	})
}

// FuzzStatusScan plants hostile bytes as one job's status.json beside a
// healthy job and opens the store over them, seeded with the corruption
// cases of TestStoreCorruptStatus. The scan must fail open: the store
// opens, the healthy job is untouched, and the victim is either loaded
// under its own ID or quarantined with the damaged bytes preserved —
// never re-queued by recovery once quarantined.
func FuzzStatusScan(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte("{not json"))
	f.Add([]byte(`{"id":"job-999999","state":"queued","spec":{"system":"small","steps":1}}`))
	f.Add([]byte(`{"id":"job-000001","state":"running","spec":{"system":"small","steps":100},"step":25,"resumed_from":-1}`))
	f.Add([]byte(`{"id":"job-000001","state":"banana","spec":{"idempotency_key":"k"},"submitted_at":"yesterday"}`))
	f.Add([]byte(`{"id":"job-000001","state":"done","spec":{"system":"small","steps":1e99}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		st2, victim, healthy, path := reopenOverStatus(t, func([]byte) []byte { return data })
		if got, ok := st2.Get(healthy.ID); !ok || got.State != StateQueued {
			t.Fatalf("healthy job = %+v ok=%v", got, ok)
		}
		got, ok := st2.Get(victim.ID)
		if !ok || got.ID != victim.ID {
			t.Fatalf("victim = %+v ok=%v", got, ok)
		}
		quarantined := len(st2.Quarantined()) == 1
		if quarantined {
			if kept, err := os.ReadFile(path + ".corrupt"); err != nil || !bytes.Equal(kept, data) {
				t.Fatalf("damaged bytes not preserved: %q, %v", kept, err)
			}
			if got.State != StateQuarantined {
				t.Fatalf("quarantined victim in state %s", got.State)
			}
		}
		rec, err := st2.Recover()
		if err != nil {
			t.Fatal(err)
		}
		for _, js := range rec {
			if quarantined && js.ID == victim.ID {
				t.Fatal("recovery re-queued a quarantined job")
			}
		}
	})
}
