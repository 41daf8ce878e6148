// Package httpapi is the run daemon's HTTP/JSON surface over the runsvc
// run service. `realtor-scen serve` mounts it; tests and the bench stand
// up the exact same routes in-process. The /metrics names keep their
// historical realtord_ prefix.
package httpapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"

	"realtor/internal/buildinfo"
	"realtor/internal/metrics"
	"realtor/internal/runsvc"
)

// server is the thin HTTP shell over runsvc.Service: every route is a
// decode → service call → encode sandwich. All run semantics (caps,
// queueing, cancellation, history) live in the service; the shell only
// maps sentinel errors onto status codes and streams watch snapshots
// as server-sent events.
type server struct {
	svc *runsvc.Service

	mu        sync.Mutex // metrics.Counter is not goroutine-safe
	requests  metrics.Counter
	errors    metrics.Counter
	submitted metrics.Counter
	canceled  metrics.Counter
}

// New returns the daemon's handler over svc.
func New(svc *runsvc.Service) *http.ServeMux { return (&server{svc: svc}).mux() }

// mux wires the routes (Go 1.22 method+wildcard patterns).
func (s *server) mux() *http.ServeMux {
	m := http.NewServeMux()
	m.HandleFunc("POST /runs", s.count(s.handleSubmit))
	m.HandleFunc("GET /runs", s.count(s.handleList))
	m.HandleFunc("GET /runs/{id}", s.count(s.handleGet))
	m.HandleFunc("DELETE /runs/{id}", s.count(s.handleCancel))
	m.HandleFunc("GET /runs/{id}/events", s.count(s.handleEvents))
	m.HandleFunc("GET /runs/{id}/summary", s.count(s.handleSummary))
	m.HandleFunc("GET /compare", s.count(s.handleCompare))
	m.HandleFunc("GET /healthz", s.count(s.handleHealthz))
	m.HandleFunc("GET /metrics", s.count(s.handleMetrics))
	return m
}

// count wraps a handler with the request counter.
func (s *server) count(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		s.requests.Inc()
		s.mu.Unlock()
		h(w, r)
	}
}

// fail maps a service error onto its status code and a JSON body.
func (s *server) fail(w http.ResponseWriter, err error) {
	s.mu.Lock()
	s.errors.Inc()
	s.mu.Unlock()
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, runsvc.ErrBadRequest):
		code = http.StatusBadRequest
	case errors.Is(err, runsvc.ErrNotFound):
		code = http.StatusNotFound
	case errors.Is(err, runsvc.ErrQueueFull):
		code = http.StatusTooManyRequests
	case errors.Is(err, runsvc.ErrClosed):
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v)
}

func (s *server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req runsvc.Request
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.fail(w, fmt.Errorf("%w: %v", runsvc.ErrBadRequest, err))
		return
	}
	v, err := s.svc.Submit(req)
	if err != nil {
		s.fail(w, err)
		return
	}
	s.mu.Lock()
	s.submitted.Inc()
	s.mu.Unlock()
	writeJSON(w, http.StatusAccepted, v)
}

func (s *server) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.svc.List())
}

func (s *server) handleGet(w http.ResponseWriter, r *http.Request) {
	v, err := s.svc.Get(r.PathValue("id"))
	if err != nil {
		s.fail(w, err)
		return
	}
	writeJSON(w, http.StatusOK, v)
}

func (s *server) handleCancel(w http.ResponseWriter, r *http.Request) {
	v, err := s.svc.Cancel(r.PathValue("id"))
	if err != nil {
		s.fail(w, err)
		return
	}
	s.mu.Lock()
	s.canceled.Inc()
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, v)
}

// handleSummary serves a done run's summary as the exact canonical
// bytes (scenario.EncodeSummary form, one trailing newline) — the same
// bytes `realtor-scen run -json` prints, so clients can byte-compare a
// daemon run against a local one with plain cmp.
func (s *server) handleSummary(w http.ResponseWriter, r *http.Request) {
	v, err := s.svc.Get(r.PathValue("id"))
	if err != nil {
		s.fail(w, err)
		return
	}
	if len(v.Summary) == 0 {
		s.fail(w, fmt.Errorf("%w: run %q has no summary (state %s)", runsvc.ErrBadRequest, v.ID, v.State))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(v.Summary)
	w.Write([]byte("\n"))
}

// handleEvents streams a run's snapshots as server-sent events, one
// `data:` frame per snapshot, closing after the terminal one.
func (s *server) handleEvents(w http.ResponseWriter, r *http.Request) {
	ch, stop, err := s.svc.Watch(r.PathValue("id"))
	if err != nil {
		s.fail(w, err)
		return
	}
	defer stop()
	fl, ok := w.(http.Flusher)
	if !ok {
		s.fail(w, errors.New("realtord: response writer cannot stream"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	for {
		select {
		case snap, open := <-ch:
			if !open {
				return
			}
			b, err := json.Marshal(snap)
			if err != nil {
				return
			}
			fmt.Fprintf(w, "data: %s\n\n", b)
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

func (s *server) handleCompare(w http.ResponseWriter, r *http.Request) {
	a, b := r.URL.Query().Get("a"), r.URL.Query().Get("b")
	if a == "" || b == "" {
		s.fail(w, fmt.Errorf("%w: compare wants ?a=<run>&b=<run>", runsvc.ErrBadRequest))
		return
	}
	diffs, err := s.svc.Compare(a, b)
	if err != nil {
		s.fail(w, err)
		return
	}
	writeJSON(w, http.StatusOK, diffs)
}

func (s *server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status": "ok",
		"build":  buildinfo.Get(),
	})
}

// handleMetrics renders the daemon's counters plus a per-state census
// of every known run, in a flat Prometheus-style text form.
func (s *server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	requests, errs := s.requests.Value(), s.errors.Value()
	submitted, canceled := s.submitted.Value(), s.canceled.Value()
	s.mu.Unlock()
	states := map[runsvc.State]*metrics.Counter{}
	for _, v := range s.svc.List() {
		c := states[v.State]
		if c == nil {
			c = &metrics.Counter{}
			states[v.State] = c
		}
		c.Inc()
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "realtord_http_requests_total %d\n", requests)
	fmt.Fprintf(w, "realtord_http_errors_total %d\n", errs)
	fmt.Fprintf(w, "realtord_runs_submitted_total %d\n", submitted)
	fmt.Fprintf(w, "realtord_cancel_requests_total %d\n", canceled)
	for _, st := range []runsvc.State{
		runsvc.StateQueued, runsvc.StateRunning, runsvc.StateDone,
		runsvc.StateFailed, runsvc.StateCanceled,
	} {
		n := uint64(0)
		if c := states[st]; c != nil {
			n = c.Value()
		}
		fmt.Fprintf(w, "realtord_runs{state=%q} %d\n", st, n)
	}
}
