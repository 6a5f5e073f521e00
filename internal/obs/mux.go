package obs

import (
	"net/http"
	"sort"
	"sync"
)

// TelemetrySet multiplexes many Telemetry surfaces behind one HTTP
// server. The per-run CLI binds one Telemetry to one listener; a
// multi-tenant daemon instead keeps one surface per job and routes
// /jobs/{id}/metrics-style requests here. Surfaces outlive their jobs on
// purpose: a completed job's last published snapshot stays scrapeable
// until the set's owner drops it. The set itself never evicts — each
// surface pins its rendered trace (~0.5 MB for a full 4096-span ring), so
// an owner that never calls Drop grows by one trace per job; antond keeps
// the running jobs and the last few finished ones
// (service.retainedTelemetry).
//
// The set is safe for concurrent use: workers publish into their job's
// surface while HTTP handlers resolve and read others.
type TelemetrySet struct {
	mu sync.RWMutex
	m  map[string]*Telemetry
}

// NewTelemetrySet builds an empty set.
func NewTelemetrySet() *TelemetrySet {
	return &TelemetrySet{m: make(map[string]*Telemetry)}
}

// Acquire returns the surface for key, creating it if absent.
func (s *TelemetrySet) Acquire(key string) *Telemetry {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.m[key]
	if !ok {
		t = NewTelemetry()
		s.m[key] = t
	}
	return t
}

// Get returns the surface for key, or nil.
func (s *TelemetrySet) Get(key string) *Telemetry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.m[key]
}

// Drop removes the surface for key. Dropping an absent key is a no-op.
func (s *TelemetrySet) Drop(key string) {
	s.mu.Lock()
	delete(s.m, key)
	s.mu.Unlock()
}

// Keys lists the registered keys in sorted order.
func (s *TelemetrySet) Keys() []string {
	s.mu.RLock()
	out := make([]string, 0, len(s.m))
	for k := range s.m {
		out = append(out, k)
	}
	s.mu.RUnlock()
	sort.Strings(out)
	return out
}

// ServeEndpoint routes one request to the named endpoint ("metrics",
// "healthz" or "trace" — the same three the standalone Telemetry serves)
// of the surface registered under key. Unknown keys and endpoints answer
// 404, so a daemon can delegate its {id}/{endpoint} route here verbatim.
func (s *TelemetrySet) ServeEndpoint(w http.ResponseWriter, r *http.Request, key, endpoint string) {
	t := s.Get(key)
	if t == nil {
		http.Error(w, "no telemetry for "+key, http.StatusNotFound)
		return
	}
	switch endpoint {
	case "metrics":
		t.serveMetrics(w, r)
	case "healthz":
		t.serveHealthz(w, r)
	case "trace":
		t.serveTrace(w, r)
	default:
		http.Error(w, "unknown telemetry endpoint "+endpoint, http.StatusNotFound)
	}
}
