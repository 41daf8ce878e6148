package httpapi

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"realtor/internal/fuzzscen"
	"realtor/internal/runsvc"
	"realtor/internal/scenario"
)

// newTestDaemon stands up a service + HTTP shell on a temp scenario
// root holding one exported fuzz package, and returns the base URL,
// the package name, and a shutdown func.
func newTestDaemon(t *testing.T, cfg runsvc.Config) (string, string, func()) {
	t.Helper()
	root := t.TempDir()
	name := "daemon-pkg"
	if _, err := scenario.WritePackage(root, scenario.Export(name, fuzzscen.Generate(31))); err != nil {
		t.Fatalf("write package: %v", err)
	}
	cfg.ScenarioRoot = root
	svc, err := runsvc.New(cfg)
	if err != nil {
		t.Fatalf("new service: %v", err)
	}
	ts := httptest.NewServer(New(svc))
	return ts.URL, name, func() {
		svc.Close()
		ts.Close()
	}
}

func postJSON(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	return resp
}

// TestHTTPErrorPaths is the status-code table: every service sentinel
// must surface as its documented status, with a JSON error body.
func TestHTTPErrorPaths(t *testing.T) {
	base, name, shutdown := newTestDaemon(t, runsvc.Config{Workers: 1, QueueDepth: 1})
	defer shutdown()

	// Hold the single worker with a live run so queue-full is reachable
	// deterministically (the live backend runs in scaled wall time).
	resp := postJSON(t, base+"/runs", fmt.Sprintf(`{"package":%q,"backend":"live"}`, name))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("live submit: status %d", resp.StatusCode)
	}
	var live runsvc.JobView
	if err := json.NewDecoder(resp.Body).Decode(&live); err != nil {
		t.Fatalf("decode submit: %v", err)
	}
	resp.Body.Close()
	deadline := time.Now().Add(30 * time.Second)
	for {
		r, err := http.Get(base + "/runs/" + live.ID)
		if err != nil {
			t.Fatalf("poll: %v", err)
		}
		var v runsvc.JobView
		json.NewDecoder(r.Body).Decode(&v)
		r.Body.Close()
		if v.State == runsvc.StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("live run never started")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Fill the one queue slot.
	resp = postJSON(t, base+"/runs", fmt.Sprintf(`{"package":%q}`, name))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("queued submit: status %d", resp.StatusCode)
	}
	resp.Body.Close()

	// An inline spec that still carries the retired middleware's
	// "policies" is refused, never run bare.
	legacy := strings.Replace(string(scenario.Export("legacy", fuzzscen.Generate(31)).Canonical()),
		`"scenario": {`, `"scenario": {"policies": {"bucket": {"rate": 1.5, "burst": 3}},`, 1)

	cases := []struct {
		label  string
		method string
		path   string
		body   string
		want   int
	}{
		{"bad JSON", "POST", "/runs", `{"package":`, http.StatusBadRequest},
		{"inline spec with policies", "POST", "/runs", `{"spec":` + legacy + `}`, http.StatusBadRequest},
		{"unknown field", "POST", "/runs", `{"pakage":"x"}`, http.StatusBadRequest},
		{"no selector", "POST", "/runs", `{}`, http.StatusBadRequest},
		{"unknown package", "POST", "/runs", `{"package":"no-such"}`, http.StatusNotFound},
		{"bad backend", "POST", "/runs", fmt.Sprintf(`{"package":%q,"backend":"x"}`, name), http.StatusBadRequest},
		{"queue full", "POST", "/runs", fmt.Sprintf(`{"package":%q}`, name), http.StatusTooManyRequests},
		{"unknown run", "GET", "/runs/run-999999", "", http.StatusNotFound},
		{"unknown run cancel", "DELETE", "/runs/run-999999", "", http.StatusNotFound},
		{"unknown run summary", "GET", "/runs/run-999999/summary", "", http.StatusNotFound},
		{"unknown run events", "GET", "/runs/run-999999/events", "", http.StatusNotFound},
		{"compare missing args", "GET", "/compare?a=run-000001", "", http.StatusBadRequest},
		{"wrong method", "PUT", "/runs", "", http.StatusMethodNotAllowed},
	}
	for _, c := range cases {
		req, err := http.NewRequest(c.method, base+c.path, strings.NewReader(c.body))
		if err != nil {
			t.Fatalf("%s: %v", c.label, err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s: %v", c.label, err)
		}
		if resp.StatusCode != c.want {
			t.Errorf("%s: status = %d, want %d", c.label, resp.StatusCode, c.want)
		}
		if c.want != http.StatusMethodNotAllowed { // mux's own response is not JSON
			var e map[string]string
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e["error"] == "" {
				t.Errorf("%s: error body missing (%v)", c.label, err)
			}
		}
		resp.Body.Close()
	}

	// Cancel the held run so shutdown doesn't wait out the live clock.
	req, _ := http.NewRequest("DELETE", base+"/runs/"+live.ID, nil)
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
	}
}

// TestDaemonRunSummaryAndEvents drives the happy path over HTTP: submit,
// stream events to terminal, fetch the canonical summary bytes, and
// check them against a direct scenario run.
func TestDaemonRunSummaryAndEvents(t *testing.T) {
	base, name, shutdown := newTestDaemon(t, runsvc.Config{})
	defer shutdown()

	resp := postJSON(t, base+"/runs", fmt.Sprintf(`{"package":%q}`, name))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	var v runsvc.JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decode: %v", err)
	}
	resp.Body.Close()

	// Stream snapshots until the channel closes at the terminal state.
	es, err := http.Get(base + "/runs/" + v.ID + "/events")
	if err != nil {
		t.Fatalf("events: %v", err)
	}
	defer es.Body.Close()
	if ct := es.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content type = %q", ct)
	}
	var last runsvc.JobView
	frames := 0
	sc := bufio.NewScanner(es.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &last); err != nil {
			t.Fatalf("bad SSE frame: %v", err)
		}
		frames++
	}
	if frames == 0 || last.State != runsvc.StateDone {
		t.Fatalf("stream ended after %d frame(s) in state %s (error %q), want done",
			frames, last.State, last.Error)
	}

	// The summary endpoint must serve the exact canonical byte form.
	sumResp, err := http.Get(base + "/runs/" + v.ID + "/summary")
	if err != nil {
		t.Fatalf("summary: %v", err)
	}
	defer sumResp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(sumResp.Body)
	var sum scenario.Summary
	if err := json.Unmarshal(buf.Bytes(), &sum); err != nil {
		t.Fatalf("summary decode: %v", err)
	}
	if got, want := buf.Bytes(), scenario.EncodeSummary(sum); !bytes.Equal(got, want) {
		t.Fatalf("summary endpoint is not canonical:\n got: %q\nwant: %q", got, want)
	}

	// /metrics counts the run.
	mResp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	defer mResp.Body.Close()
	var mbuf bytes.Buffer
	mbuf.ReadFrom(mResp.Body)
	if !strings.Contains(mbuf.String(), `realtord_runs{state="done"} 1`) {
		t.Fatalf("metrics missing done census:\n%s", mbuf.String())
	}

	// /healthz reports build identity.
	hResp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	defer hResp.Body.Close()
	var health struct {
		Status string          `json:"status"`
		Build  json.RawMessage `json:"build"`
	}
	if err := json.NewDecoder(hResp.Body).Decode(&health); err != nil {
		t.Fatalf("healthz decode: %v", err)
	}
	if health.Status != "ok" || len(health.Build) == 0 {
		t.Fatalf("healthz = %+v", health)
	}
}

// TestDaemonShutdownLeaksNoGoroutines pins the lifecycle contract: after
// running work (including an SSE stream cut off mid-run by cancel) and
// closing the service, the process returns to its baseline goroutine
// count. Run under -race in CI, where a leaked worker or watcher also
// trips the detector's exit checks.
func TestDaemonShutdownLeaksNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()

	base, name, shutdown := newTestDaemon(t, runsvc.Config{Workers: 2})
	resp := postJSON(t, base+"/runs", fmt.Sprintf(`{"package":%q,"backend":"live"}`, name))
	var v runsvc.JobView
	json.NewDecoder(resp.Body).Decode(&v)
	resp.Body.Close()

	// Open an SSE stream, then cancel the run underneath it.
	es, err := http.Get(base + "/runs/" + v.ID + "/events")
	if err != nil {
		t.Fatalf("events: %v", err)
	}
	req, _ := http.NewRequest("DELETE", base+"/runs/"+v.ID, nil)
	cResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("cancel: %v", err)
	}
	cResp.Body.Close()
	// Drain the stream to its close — the terminal snapshot ends it.
	buf := make([]byte, 4096)
	for {
		if _, err := es.Body.Read(buf); err != nil {
			break
		}
	}
	es.Body.Close()

	shutdown()
	http.DefaultClient.CloseIdleConnections()

	// Goroutine teardown is asynchronous; poll briefly.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+2 {
			return // +2 tolerates runtime/test housekeeping goroutines
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: before=%d after=%d\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}
