package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"realtor/internal/httpapi"
	"realtor/internal/rng"
	"realtor/internal/runsvc"
	"realtor/internal/scenario"
)

// daemonSpec is bench/workloads/daemon-jobs.json.
type daemonSpec struct {
	ScenarioRoot string `json:"scenario_root"`
	Workers      int    `json:"workers"`
	QueueDepth   int    `json:"queue_depth"`
	Clients      int    `json:"clients"`
}

// daemonJobs drives the management plane the way `realtor-scen -server`
// does: submit a committed package over HTTP, follow the run's SSE
// stream to its terminal snapshot, fetch the canonical summary. The
// simulations are 16-node toys, so httpapi, runsvc and the scenario
// codec do the work. Each client walks the packages in an order drawn
// from the workload seed.
type daemonJobs struct {
	env     *env
	spec    daemonSpec
	pkgs    []*scenario.Package
	order   [][]int // per client
	next    []int   // per client: jobs started
	svc     *runsvc.Service
	srv     *httptest.Server
	history string
}

// traceJobs is how many jobs per client one traced batch runs.
func traceJobs(smoke bool) int {
	if smoke {
		return 3
	}
	return 600
}

func (w *daemonJobs) setUp(e *env) error {
	w.env = e
	data, err := e.workloadFile("daemon-jobs")
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, &w.spec); err != nil {
		return fmt.Errorf("daemon-jobs.json: %w", err)
	}
	if n := runtime.NumCPU(); w.spec.Clients > n {
		w.spec.Clients = n
	}
	root := filepath.Join(e.root, w.spec.ScenarioRoot)
	dirs, err := scenario.List(root)
	if err != nil {
		return err
	}
	w.pkgs = nil
	for _, d := range dirs {
		p, err := scenario.LoadPackage(d)
		if err != nil {
			return err
		}
		if p.Golden == nil {
			return fmt.Errorf("daemon-jobs: package %s has no golden to check against", p.Spec.Name)
		}
		w.pkgs = append(w.pkgs, p)
	}
	if len(w.pkgs) == 0 {
		return fmt.Errorf("daemon-jobs: no packages under %s", root)
	}
	r := rng.New(e.seed).Derive("bench-daemon")
	w.order = make([][]int, w.spec.Clients)
	w.next = make([]int, w.spec.Clients)
	for c := range w.order {
		w.order[c] = r.Perm(len(w.pkgs))
	}
	w.history = filepath.Join(e.dir, "history.jsonl")
	w.svc, err = runsvc.New(runsvc.Config{
		ScenarioRoot: root,
		HistoryPath:  w.history,
		Workers:      w.spec.Workers,
		QueueDepth:   w.spec.QueueDepth,
	})
	if err != nil {
		return err
	}
	w.srv = httptest.NewServer(httpapi.New(w.svc))
	// Warm-up: every client runs every package ten times (or once).
	passes := 10
	if e.smoke {
		passes = 1
	}
	return w.batch(passes*len(w.pkgs), func(c int) error { return w.op(c) })
}

func (w *daemonJobs) clients() int { return w.spec.Clients }

// pick returns client c's next package.
func (w *daemonJobs) pick(c int) *scenario.Package {
	p := w.pkgs[w.order[c][w.next[c]%len(w.pkgs)]]
	w.next[c]++
	return p
}

func (w *daemonJobs) op(c int) error {
	_, err := w.httpJob(w.pick(c), nil, 0)
	return err
}

// batch runs n jobs on every client concurrently and returns the first
// error.
func (w *daemonJobs) batch(n int, job func(c int) error) error {
	errs := make([]error, w.spec.Clients)
	var wg sync.WaitGroup
	for c := 0; c < w.spec.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < n && errs[c] == nil; i++ {
				errs[c] = job(c)
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// jobTiming is what one traced HTTP job saw from the client side.
type jobTiming struct {
	submit, firstEvent, stream, summary float64 // seconds
	events                              int
	view                                runsvc.JobView // terminal snapshot
}

// httpJob runs one job over HTTP and checks it: 202 on submit, a stream
// that ends in state done with the gate passed, and summary bytes equal
// to the package golden's canonical summary. With a tracer it records
// one span per request under a job span.
func (w *daemonJobs) httpJob(p *scenario.Package, tr *tracer, round int) (jobTiming, error) {
	var jt jobTiming
	client := w.srv.Client()
	name := p.Spec.Name
	job := -1
	span := func(what string) func() float64 {
		t := time.Now()
		if tr == nil {
			return func() float64 { return seconds(t) }
		}
		id := tr.begin(what, job, round)
		return func() float64 { return tr.end(id) }
	}
	if tr != nil {
		job = tr.begin("job", -1, round)
		defer tr.end(job)
	}

	done := span("POST /runs")
	body, err := json.Marshal(runsvc.Request{Package: name})
	if err != nil {
		return jt, err
	}
	resp, err := client.Post(w.srv.URL+"/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		return jt, err
	}
	var v runsvc.JobView
	err = json.NewDecoder(resp.Body).Decode(&v)
	resp.Body.Close()
	jt.submit = done()
	if resp.StatusCode != http.StatusAccepted {
		return jt, fmt.Errorf("daemon-jobs: submit %s: status %d", name, resp.StatusCode)
	}
	if err != nil {
		return jt, fmt.Errorf("daemon-jobs: submit %s: %w", name, err)
	}

	done = span("GET /runs/{id}/events")
	t := time.Now()
	resp, err = client.Get(w.srv.URL + "/runs/" + v.ID + "/events")
	if err != nil {
		return jt, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return jt, fmt.Errorf("daemon-jobs: events %s: status %d", v.ID, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var last string
	for sc.Scan() {
		if frame, ok := strings.CutPrefix(sc.Text(), "data: "); ok {
			if jt.events == 0 {
				jt.firstEvent = seconds(t)
			}
			jt.events++
			last = frame
		}
	}
	err = sc.Err()
	resp.Body.Close()
	jt.stream = done()
	if err != nil {
		return jt, fmt.Errorf("daemon-jobs: events %s: %w", v.ID, err)
	}
	if err := json.Unmarshal([]byte(last), &jt.view); err != nil {
		return jt, fmt.Errorf("daemon-jobs: events %s: last frame: %w", v.ID, err)
	}
	if jt.view.State != runsvc.StateDone || jt.view.GateFailed {
		return jt, fmt.Errorf("daemon-jobs: run %s (%s) ended %s gate_failed=%v %s",
			v.ID, name, jt.view.State, jt.view.GateFailed, jt.view.Error)
	}

	done = span("GET /runs/{id}/summary")
	resp, err = client.Get(w.srv.URL + "/runs/" + v.ID + "/summary")
	if err != nil {
		return jt, err
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	jt.summary = done()
	if err != nil {
		return jt, err
	}
	if resp.StatusCode != http.StatusOK {
		return jt, fmt.Errorf("daemon-jobs: summary %s: status %d", v.ID, resp.StatusCode)
	}
	if want := scenario.EncodeSummary(p.Golden.Summary); !bytes.Equal(got, want) {
		return jt, fmt.Errorf("daemon-jobs: %s summary %s differs from golden %s", name, got, want)
	}
	return jt, nil
}

// inprocJob is the same job through the service with no HTTP: Submit,
// Watch to the terminal snapshot, check the summary.
func (w *daemonJobs) inprocJob(p *scenario.Package) (submit float64, err error) {
	t := time.Now()
	v, err := w.svc.Submit(runsvc.Request{Package: p.Spec.Name})
	submit = seconds(t)
	if err != nil {
		return submit, err
	}
	ch, stop, err := w.svc.Watch(v.ID)
	if err != nil {
		return submit, err
	}
	defer stop()
	for snap := range ch {
		v = snap
	}
	if v.State != runsvc.StateDone || v.GateFailed {
		return submit, fmt.Errorf("daemon-jobs: in-process run %s ended %s", v.ID, v.State)
	}
	want := bytes.TrimSuffix(scenario.EncodeSummary(p.Golden.Summary), []byte("\n"))
	if !bytes.Equal(v.Summary, want) {
		return submit, fmt.Errorf("daemon-jobs: in-process %s summary differs from golden", p.Spec.Name)
	}
	return submit, nil
}

func (w *daemonJobs) reference() []byte { return nil }

func (w *daemonJobs) finish() layers {
	l := layers{}
	if w.srv != nil {
		t := time.Now()
		list := w.svc.List()
		l["runsvc.list_ms_at_end"] = seconds(t) * 1e3
		sink += len(list)
		w.srv.Client().CloseIdleConnections()
		w.srv.Close()
		w.svc.Close()
		w.srv = nil
		l["httpapi.goroutines_end"] = float64(runtime.NumGoroutine())
	}
	return l
}

func (w *daemonJobs) traceRound(tr *tracer, round int) (layers, budget, error) {
	l := layers{}
	n := traceJobs(w.env.smoke)
	clients := w.spec.Clients
	total := float64(n * clients)

	// An untraced batch of the same shape, to compare the traced one with.
	var plain []float64
	var mu sync.Mutex
	err := w.batch(n, func(c int) error {
		jt, err := w.httpJob(w.pick(c), nil, round)
		mu.Lock()
		plain = append(plain, jt.submit+jt.stream+jt.summary)
		mu.Unlock()
		return err
	})
	if err != nil {
		return nil, budget{}, err
	}
	l["_untraced_op_s"] = median(plain)
	sizeBefore := fileSize(w.history)

	// The traced batch: every client records into its own tracer.
	timings := make([][]jobTiming, clients)
	tracers := make([]*tracer, clients)
	for c := range tracers {
		tracers[c] = &tracer{t0: tr.t0}
	}
	t := time.Now()
	err = w.batch(n, func(c int) error {
		jt, err := w.httpJob(w.pick(c), tracers[c], round)
		timings[c] = append(timings[c], jt)
		return err
	})
	httpWall := seconds(t)
	if err != nil {
		return nil, budget{}, err
	}
	var job, submit, first, summary, wait, run []float64
	events := 0
	for c := range timings {
		tr.merge(tracers[c])
		for _, jt := range timings[c] {
			job = append(job, jt.submit+jt.stream+jt.summary)
			submit = append(submit, jt.submit*1e3)
			first = append(first, jt.firstEvent*1e3)
			summary = append(summary, jt.summary*1e3)
			events += jt.events
			if v := jt.view; v.StartedAt != nil && v.FinishedAt != nil {
				wait = append(wait, v.StartedAt.Sub(v.SubmittedAt).Seconds()*1e3)
				run = append(run, v.FinishedAt.Sub(*v.StartedAt).Seconds()*1e3)
			}
		}
	}
	l["_traced_op_s"] = median(job)
	l["httpapi.job_s_p99"] = percentile(job, 99)
	l["httpapi.submit_ms_p50"] = median(submit)
	l["httpapi.sse_first_event_ms_p50"] = median(first)
	l["httpapi.summary_get_ms_p50"] = median(summary)
	l["httpapi.sse_events_per_job"] = float64(events) / total
	l["runsvc.queue_wait_ms_p50"] = median(wait)
	l["runsvc.queue_wait_ms_p99"] = percentile(wait, 99)
	l["runsvc.run_ms_p50"] = median(run)
	l["runsvc.run_ms_p99"] = percentile(run, 99)
	l["runsvc.history_bytes_per_job"] = float64(fileSize(w.history)-sizeBefore) / total
	// A closed loop of `clients` jobs cannot fill the queue, and a refused
	// submit fails the op above, so this reads 0 unless that changes.
	l["runsvc.rejected_per_1k"] = 0

	// The same job loop with no HTTP in the way.
	var submits []float64
	t = time.Now()
	err = w.batch(n, func(c int) error {
		s, err := w.inprocJob(w.pick(c))
		mu.Lock()
		submits = append(submits, s*1e6)
		mu.Unlock()
		return err
	})
	inprocWall := seconds(t)
	if err != nil {
		return nil, budget{}, err
	}
	l["runsvc.submit_us"] = median(submits)
	l["runsvc.inproc_jobs_per_s"] = total / inprocWall
	httpJob := httpWall * float64(clients) / total
	inprocJob := inprocWall * float64(clients) / total
	l["httpapi.overhead_ms_per_job"] = (httpJob - inprocJob) * 1e3
	l["httpapi.http_vs_inproc_ratio"] = httpWall / inprocWall

	// What one job's run is made of: the staged replica of every package,
	// averaged per job.
	sums := layers{}
	direct := 0.0
	for _, p := range w.pkgs {
		whole, err := scenarioStages(tr, round, sums, p.Spec.Canonical(), p.Golden, 1)
		if err != nil {
			return nil, budget{}, err
		}
		direct += whole
	}
	per := float64(len(w.pkgs))
	for k, v := range sums {
		if k == "sim.pool_high_water" {
			l[k] = v
		} else {
			l[k] = v / per
		}
	}
	direct /= per
	pairs, iters := probeSizes(w.env.smoke)
	first0 := w.pkgs[0].Spec.Effective()
	topologyLayer(l, first0.Graph, w.env.seed, pairs)
	coreLayer(l, first0.ProtocolConfig(), iters)
	deriveLayers(l)
	scenarioRatios(l)

	b := scenarioBudget(l, httpJob)
	b.parts = append([]part{
		{"httpapi (HTTP, SSE, JSON)", httpJob - inprocJob},
		{"runsvc (queue, watch, history)", inprocJob - direct},
	}, b.parts...)
	return l, b, nil
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}
