package obs

import (
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"
)

// TestTelemetrySet: keyed registration, routing, and 404s for unknown
// keys/endpoints.
func TestTelemetrySet(t *testing.T) {
	set := NewTelemetrySet()
	if got := set.Get("a"); got != nil {
		t.Fatalf("Get on empty set = %v, want nil", got)
	}
	ta := set.Acquire("a")
	if ta == nil || set.Acquire("a") != ta {
		t.Fatal("Acquire is not stable per key")
	}
	set.Acquire("b")
	if keys := set.Keys(); !reflect.DeepEqual(keys, []string{"a", "b"}) {
		t.Fatalf("Keys = %v, want [a b]", keys)
	}

	ta.PublishSample(StepSample{Step: 42, Temperature: 300})

	get := func(key, ep string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		r := httptest.NewRequest("GET", "/"+ep, nil)
		set.ServeEndpoint(w, r, key, ep)
		return w
	}
	if w := get("a", "metrics"); w.Code != http.StatusOK {
		t.Fatalf("metrics for a: %d", w.Code)
	}
	if w := get("a", "healthz"); w.Code != http.StatusOK {
		t.Fatalf("healthz for a: %d", w.Code)
	}
	if w := get("a", "trace"); w.Code != http.StatusNotFound {
		t.Fatalf("trace with no publish: %d, want 404", w.Code)
	}
	if w := get("zzz", "metrics"); w.Code != http.StatusNotFound {
		t.Fatalf("unknown key: %d, want 404", w.Code)
	}
	if w := get("a", "nope"); w.Code != http.StatusNotFound {
		t.Fatalf("unknown endpoint: %d, want 404", w.Code)
	}

	set.Drop("a")
	if w := get("a", "metrics"); w.Code != http.StatusNotFound {
		t.Fatalf("dropped key still routed: %d", w.Code)
	}
	set.Drop("a") // idempotent
}

// TestTelemetrySetDropRace: Drop racing Acquire, publishes and
// ServeEndpoint across many keys must be data-race free (the verify.sh
// obs gate runs this under -race). Requests resolve to either the live
// surface or a 404 — never a torn read.
func TestTelemetrySetDropRace(t *testing.T) {
	set := NewTelemetrySet()
	keys := []string{"job-1", "job-2", "job-3", "job-4"}
	var wg sync.WaitGroup
	stop := make(chan struct{})

	for _, k := range keys {
		wg.Add(2)
		// Publisher: acquire and publish in a loop (a worker's life).
		go func(k string) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				tel := set.Acquire(k)
				tel.PublishSample(StepSample{Step: 1})
			}
		}(k)
		// Reaper: drop the same key concurrently.
		go func(k string) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				set.Drop(k)
			}
		}(k)
	}
	// Scrapers: route requests across all keys while the churn runs.
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, k := range keys {
					w := httptest.NewRecorder()
					r := httptest.NewRequest("GET", "/metrics", nil)
					set.ServeEndpoint(w, r, k, "metrics")
					if w.Code != http.StatusOK && w.Code != http.StatusNotFound {
						t.Errorf("racing scrape of %s: %d", k, w.Code)
						return
					}
				}
				set.Keys()
			}
		}()
	}
	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()
}

// TestTelemetrySetDropServes404: after a drop, every per-job endpoint
// answers 404 (not a stale surface), and re-acquiring the key starts a
// fresh surface with none of the old publishes.
func TestTelemetrySetDropServes404(t *testing.T) {
	set := NewTelemetrySet()
	tel := set.Acquire("job-9")
	tel.PublishSample(StepSample{Step: 7, Temperature: 300})

	get := func(ep string) int {
		w := httptest.NewRecorder()
		r := httptest.NewRequest("GET", "/"+ep, nil)
		set.ServeEndpoint(w, r, "job-9", ep)
		return w.Code
	}
	for _, ep := range []string{"metrics", "healthz"} {
		if code := get(ep); code != http.StatusOK {
			t.Fatalf("%s before drop: %d", ep, code)
		}
	}
	set.Drop("job-9")
	for _, ep := range []string{"metrics", "healthz", "trace"} {
		if code := get(ep); code != http.StatusNotFound {
			t.Fatalf("%s after drop: %d, want 404", ep, code)
		}
	}
	// A fresh Acquire under the same key is a new, empty surface: its
	// healthz has no published health yet, so it must not leak the old
	// surface's state.
	if set.Acquire("job-9") == tel {
		t.Fatal("Acquire after Drop returned the dropped surface")
	}
}
