package health

import (
	"encoding/json"
	"slices"
	"testing"
)

// healthySample is a sample every monitor classifies as OK.
func healthySample(step int64, e float64) Sample {
	return Sample{
		Step:            step,
		TotalEnergy:     e,
		MomentumPerAtom: 0,
		HeadroomBits:    30,
		Drift:           0.1,
		Slack:           1.0,
	}
}

func TestHealthySamplesStaySilent(t *testing.T) {
	r := New(true)
	for s := int64(1); s <= 200; s++ {
		if alerts := r.Eval(healthySample(s, -1000.0)); len(alerts) != 0 {
			t.Fatalf("step %d: healthy sample fired %v", s, alerts)
		}
	}
	if r.Worst() != SevOK {
		t.Errorf("worst latched severity %v, want ok", r.Worst())
	}
	if r.Fired(SevWarn)+r.Fired(SevCrit) != 0 {
		t.Error("alert counters nonzero on a healthy run")
	}
}

// TestFiresExactlyOncePerCrossing: a monitor that crosses its warn
// threshold and stays above it fires exactly one alert, no matter how
// many samples arrive while the value is elevated.
func TestFiresExactlyOncePerCrossing(t *testing.T) {
	r := New(true)
	base := -1000.0
	r.Eval(healthySample(1, base)) // captures the energy baseline

	// Drift to 1% (above the 0.2% warn, below the 2% crit) and hold.
	drifted := base * (1 + 0.01)
	total := 0
	for s := int64(2); s <= 50; s++ {
		for _, a := range r.Eval(healthySample(s, drifted)) {
			if a.Monitor != "energy-drift" {
				t.Fatalf("unexpected monitor fired: %+v", a)
			}
			if a.Severity != SevWarn {
				t.Fatalf("severity %v, want warn", a.Severity)
			}
			total++
		}
	}
	if total != 1 {
		t.Fatalf("warn fired %d times for one sustained crossing, want exactly 1", total)
	}
}

// TestEscalationAndRearm: warn -> crit escalation fires a second alert;
// dropping below the re-arm threshold silently resets, and a fresh
// crossing fires again.
func TestEscalationAndRearm(t *testing.T) {
	r := New(true)
	base := -1000.0
	r.Eval(healthySample(1, base))

	fire := func(step int64, relDrift float64) []Alert {
		return r.Eval(healthySample(step, base*(1+relDrift)))
	}

	if a := fire(2, 0.005); len(a) != 1 || a[0].Severity != SevWarn {
		t.Fatalf("warn crossing: %+v", a)
	}
	if a := fire(3, 0.05); len(a) != 1 || a[0].Severity != SevCrit {
		t.Fatalf("crit escalation: %+v", a)
	}
	// Still above warn*rearm: latched, no new alert even though the value
	// dipped below crit.
	if a := fire(4, 0.005); len(a) != 0 {
		t.Fatalf("latched monitor re-fired: %+v", a)
	}
	// Retreat fully below warn*rearm (2e-3*0.8 = 1.6e-3): silent re-arm.
	if a := fire(5, 1e-4); len(a) != 0 {
		t.Fatalf("re-arm must be silent: %+v", a)
	}
	if r.Worst() != SevOK {
		t.Fatalf("monitor did not re-arm: worst=%v", r.Worst())
	}
	// A fresh crossing fires again.
	if a := fire(6, 0.005); len(a) != 1 || a[0].Severity != SevWarn {
		t.Fatalf("re-armed monitor silent on new crossing: %+v", a)
	}
	if r.Fired(SevWarn) != 2 || r.Fired(SevCrit) != 1 {
		t.Errorf("lifetime counts warn=%d crit=%d, want 2/1", r.Fired(SevWarn), r.Fired(SevCrit))
	}
}

// TestOscillationInsideHysteresisBand: bouncing between the threshold and
// the re-arm level must not flood the ring — that is the point of
// hysteresis.
func TestOscillationInsideHysteresisBand(t *testing.T) {
	r := New(true)
	base := -1000.0
	r.Eval(healthySample(1, base))
	fired := 0
	for s := int64(2); s <= 100; s++ {
		rel := 0.0019 // between warn*rearm (0.0016) and warn (0.002)
		if s%2 == 0 {
			rel = 0.0021 // just above warn
		}
		fired += len(r.Eval(healthySample(s, base*(1+rel))))
	}
	if fired != 1 {
		t.Fatalf("oscillation inside the hysteresis band fired %d alerts, want 1", fired)
	}
}

// TestFallingMonitorHeadroom: the overflow-headroom monitor alerts when
// the value drops (a falling monitor) and re-arms when it recovers past
// threshold/rearm.
func TestFallingMonitorHeadroom(t *testing.T) {
	r := New(true) // warn at 8 bits, crit at 2
	s := healthySample(1, -1000)
	r.Eval(s)

	shot := func(step int64, bits float64) []Alert {
		smp := healthySample(step, -1000)
		smp.HeadroomBits = bits
		return r.Eval(smp)
	}
	if a := shot(2, 6); len(a) != 1 || a[0].Severity != SevWarn || a[0].Monitor != "overflow-headroom" {
		t.Fatalf("headroom warn: %+v", a)
	}
	if a := shot(3, 1); len(a) != 1 || a[0].Severity != SevCrit {
		t.Fatalf("headroom crit: %+v", a)
	}
	// Recovery to 9 bits is still below warn/rearm = 10: stays latched.
	if a := shot(4, 9); len(a) != 0 {
		t.Fatalf("latched falling monitor re-fired: %+v", a)
	}
	// 9 > crit/rearm = 2.5 but still <= warn/rearm, so the latch relaxes
	// from crit to warn without firing.
	if r.Worst() != SevWarn {
		t.Fatalf("latched level %v, want warn", r.Worst())
	}
	// Full recovery re-arms; next dip fires again.
	shot(5, 30)
	if a := shot(6, 6); len(a) != 1 || a[0].Severity != SevWarn {
		t.Fatalf("re-armed falling monitor silent: %+v", a)
	}
}

// TestAlertOrdering: alerts fired by one sample are ranked most severe
// first, with ties keeping table order.
func TestAlertOrdering(t *testing.T) {
	r := New(true)
	r.Eval(healthySample(1, -1000))

	bad := healthySample(2, -1000*(1+0.005)) // energy: warn
	bad.HeadroomBits = 1                     // headroom: crit
	bad.Drift = 0.7                          // slack 0.7: warn
	alerts := r.Eval(bad)
	if len(alerts) != 3 {
		t.Fatalf("got %d alerts, want 3: %+v", len(alerts), alerts)
	}
	if alerts[0].Monitor != "overflow-headroom" || alerts[0].Severity != SevCrit {
		t.Fatalf("most severe alert must lead: %+v", alerts)
	}
	// The two warns keep table order: energy-drift before
	// migration-slack.
	if alerts[1].Monitor != "energy-drift" || alerts[2].Monitor != "migration-slack" {
		t.Fatalf("warn tie broke table order: %+v", alerts)
	}
}

// TestAlertRingBounded: the ring keeps the newest maxAlerts alerts,
// oldest first, while the lifetime counters count every one.
func TestAlertRingBounded(t *testing.T) {
	r := New(true)
	r.Eval(healthySample(1, -1000))
	// Alternate a full re-arm and a crossing: every crossing fires.
	const crossings = maxAlerts + 44
	for s := int64(2); s <= 2*crossings+1; s++ {
		smp := healthySample(s, -1000)
		if s%2 == 0 {
			smp.HeadroomBits = 6
		}
		r.Eval(smp)
	}
	alerts := r.Alerts()
	if len(alerts) != maxAlerts {
		t.Fatalf("ring holds %d alerts, want capacity %d", len(alerts), maxAlerts)
	}
	for i := 1; i < len(alerts); i++ {
		if alerts[i].Step <= alerts[i-1].Step {
			t.Fatal("ring not oldest-first")
		}
	}
	if last := alerts[len(alerts)-1].Step; last != 2*crossings {
		t.Errorf("newest retained alert at step %d, want %d", last, 2*crossings)
	}
	if r.Fired(SevWarn) != crossings {
		t.Errorf("lifetime warn count %d survives eviction, want %d", r.Fired(SevWarn), crossings)
	}
}

// TestAbsentValuesSkipped: a sample without transport data or without a
// measured slack leaves those monitors unevaluated.
func TestAbsentValuesSkipped(t *testing.T) {
	r := New(true)
	if a := r.Eval(Sample{Step: 1, HeadroomBits: 30}); len(a) != 0 {
		t.Fatalf("sample with no retry data or slack fired: %+v", a)
	}
	for _, m := range r.Status().Monitors {
		want := m.Name != "migration-slack" && m.Name != "retry-storm"
		if m.Seen != want {
			t.Errorf("monitor %q seen=%v, want %v", m.Name, m.Seen, want)
		}
	}
}

// TestDisableEnergyDropsMonitor: a registry for a run that does not
// conserve energy lists the other four monitors, in table order, and a
// wild energy swing fires nothing.
func TestDisableEnergyDropsMonitor(t *testing.T) {
	r := New(false)
	r.Eval(healthySample(1, -1000))
	if a := r.Eval(healthySample(2, -2)); len(a) != 0 {
		t.Fatalf("disabled energy monitor fired: %+v", a)
	}
	var names []string
	for _, m := range r.Status().Monitors {
		names = append(names, m.Name)
	}
	want := []string{"net-momentum", "overflow-headroom", "migration-slack", "retry-storm"}
	if !slices.Equal(names, want) {
		t.Fatalf("monitors %v, want %v", names, want)
	}
}

// TestStatusJSON: the /healthz document marshals with stable severity
// names.
func TestStatusJSON(t *testing.T) {
	r := New(true)
	r.Eval(healthySample(1, -1000))
	smp := healthySample(2, -1000)
	smp.HeadroomBits = 1
	r.Eval(smp)

	raw, err := json.Marshal(r.Status())
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Worst  string `json:"status"`
		Alerts []struct {
			Monitor  string `json:"monitor"`
			Severity string `json:"severity"`
		} `json:"alerts"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Worst != "critical" {
		t.Errorf("status %q, want critical", doc.Worst)
	}
	if len(doc.Alerts) != 1 || doc.Alerts[0].Severity != "critical" {
		t.Errorf("alerts: %+v", doc.Alerts)
	}
}

// TestRetryStormMonitor: the transport retransmit ratio is absent on a
// non-sharded run (HaveRetry false → silent), warns past 0.5 and latches
// critical past 2.
func TestRetryStormMonitor(t *testing.T) {
	r := New(true)
	s := healthySample(1, -1000.0)
	if alerts := r.Eval(s); len(alerts) != 0 {
		t.Fatalf("sample without retry data fired %v", alerts)
	}

	s.Step, s.HaveRetry, s.RetryRate = 2, true, 0.1
	if alerts := r.Eval(s); len(alerts) != 0 {
		t.Fatalf("quiet transport fired %v", alerts)
	}

	s.Step, s.RetryRate = 3, 0.8 // past the 0.5 warn threshold
	alerts := r.Eval(s)
	if len(alerts) != 1 || alerts[0].Monitor != "retry-storm" || alerts[0].Severity != SevWarn {
		t.Fatalf("retry rate 0.8 fired %v, want one retry-storm warn", alerts)
	}

	s.Step, s.RetryRate = 4, 3.0 // past the 2.0 crit threshold
	alerts = r.Eval(s)
	if len(alerts) != 1 || alerts[0].Severity != SevCrit {
		t.Fatalf("retry rate 3.0 fired %v, want one critical", alerts)
	}
	if r.Worst() != SevCrit {
		t.Errorf("worst = %v, want critical", r.Worst())
	}
}
