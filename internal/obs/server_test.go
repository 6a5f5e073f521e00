package obs

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

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

	reg := health.New(health.DefaultConfig())
	reg.Eval(health.Sample{Step: 1, HeadroomBits: 1, HaveHeadroom: true}) // latch critical
	tel.PublishHealth(reg.Status(SchemaVersion))

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
	var st health.Status
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("/healthz not JSON: %v", err)
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

// TestTelemetryShutdown: Serve blocks until Shutdown, which returns the
// blocked call as nil (not http.ErrServerClosed) and closes the
// listener. Shutdown on a telemetry surface that never served is a
// no-op.
func TestTelemetryShutdown(t *testing.T) {
	if err := NewTelemetry().Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown with no server: %v", err)
	}

	tel := NewTelemetry()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- tel.Serve(ln) }()

	// The surface is live: a scrape answers before shutdown.
	url := "http://" + ln.Addr().String() + "/metrics"
	var resp *http.Response
	for i := 0; ; i++ {
		resp, err = http.Get(url)
		if err == nil {
			break
		}
		if i > 100 {
			t.Fatalf("server never came up: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	resp.Body.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := tel.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve returned %v after graceful shutdown, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after Shutdown")
	}
	if _, err := http.Get(url); err == nil {
		t.Fatal("listener still accepting after shutdown")
	}
}
