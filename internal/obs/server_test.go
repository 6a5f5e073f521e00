package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"anton/internal/obs/health"
)

func TestTelemetryEndpoints(t *testing.T) {
	tel := NewTelemetry()
	srv := httptest.NewServer(tel.Handler())
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var b strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			b.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return resp.StatusCode, b.String()
	}

	// Before anything is published: metrics has only build info, healthz
	// reports unknown, trace is a 404.
	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "anton_build_info") {
		t.Fatalf("/metrics empty-state: %d %q", code, body)
	}
	if code, body := get("/healthz"); code != 200 || !strings.Contains(body, `"unknown"`) {
		t.Fatalf("/healthz empty-state: %d %q", code, body)
	}
	if code, _ := get("/trace"); code != 404 {
		t.Fatalf("/trace with no publication: %d, want 404", code)
	}

	// Publish everything.
	rec := NewRecorder()
	tr := NewTracer(64)
	rec.Trace(tr)
	rec.AddPhase(PhaseIntegration, Now(), 5_000_000)
	rec.StepDone(1)
	tel.PublishSnapshot(rec.Snapshot())
	tel.PublishSample(StepSample{Step: 7, Temperature: 301.5, TotalEnergy: -950})

	reg := health.New(true)
	reg.Eval(health.Sample{Step: 1, HeadroomBits: 1}) // latch critical
	tel.PublishHealth(reg.Status())

	if err := tel.PublishTrace(tr); err != nil {
		t.Fatal(err)
	}

	code, body := get("/metrics")
	if code != 200 {
		t.Fatalf("/metrics: %d", code)
	}
	for _, want := range []string{
		"anton_steps_total 1",
		`anton_phase_seconds_total{phase="integration"} 0.005`,
		"anton_step 7",
		"anton_temperature_kelvin 301.5",
		`anton_energy_kcal{component="total"} -950`,
		"anton_health_level 2",
		`anton_health_monitor_level{monitor="overflow-headroom"} 2`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// Critical latch makes /healthz a 503 with parseable JSON.
	code, body = get("/healthz")
	if code != 503 {
		t.Fatalf("/healthz with critical latch: %d, want 503", code)
	}
	var st struct {
		Schema string `json:"schema"`
		Worst  string `json:"status"`
	}
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("/healthz not JSON: %v", err)
	}
	if st.Schema != SchemaVersion || st.Worst != "critical" {
		t.Fatalf("/healthz schema %q status %q, want %q critical", st.Schema, st.Worst, SchemaVersion)
	}

	// Trace round-trips.
	code, body = get("/trace")
	if code != 200 {
		t.Fatalf("/trace: %d", code)
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/trace not JSON: %v", err)
	}
	if _, ok := doc["traceEvents"]; !ok {
		t.Error("/trace missing traceEvents")
	}
}

func TestPromEscape(t *testing.T) {
	if got := promEscape("a\"b\\c\nd"); got != `a\"b\\c\nd` {
		t.Errorf("promEscape = %q", got)
	}
}
