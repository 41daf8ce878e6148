// Package runsvc is the management plane's run service: it wraps the
// scenario/harness run pipeline (never forks it) behind a job model —
// submit, queue, execute on a bounded worker pool under per-run
// resource caps, cancel cooperatively, watch live progress, and read
// terminal runs back from an append-only on-disk history. cmd/realtord
// is a thin HTTP shell over this package; everything here is equally
// usable in-process (the daemon's tests drive it directly).
//
// Determinism contract: the service only observes runs from their
// quiescent checkpoints (harness.Probe), so a job run through runsvc
// produces a summary byte-identical to the same package run through
// `realtor-scen run` — pinned by the daemon smoke test. A cancelled job
// reports state "canceled" and never a summary: partial stats fail
// conservation audits by construction and must not be compared, gated,
// or blessed.
package runsvc

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"realtor/internal/fuzzscen"
	"realtor/internal/harness"
	"realtor/internal/scenario"
	"realtor/internal/sim"
)

// State is a job's lifecycle position. Transitions:
// queued → running → done|failed, queued|running → canceled.
type State string

// The five job states.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"     // run completed (the gate may still have failed — see GateFailed)
	StateFailed   State = "failed"   // backend error or wall-clock timeout
	StateCanceled State = "canceled" // stopped by Cancel or service shutdown; no summary
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Request describes one run submission. Exactly one of Package, Spec,
// or FuzzSeed selects the scenario.
type Request struct {
	// Package names a scenario package under the service's root
	// (scenarios/<name>/scenario.json + optional golden).
	Package string `json:"package,omitempty"`

	// Spec is an inline scenario.json document (strict JSON; decoded by
	// scenario.DecodeSpec). Inline specs carry no golden, so the gate is
	// their expect bands only.
	Spec json.RawMessage `json:"spec,omitempty"`

	// FuzzSeed runs fuzzscen.Generate(*FuzzSeed) exported as a package
	// spec — the daemon-side twin of `realtor-scen export`.
	FuzzSeed *int64 `json:"fuzz_seed,omitempty"`

	// Backend selects "sim" (default) or "live".
	Backend string `json:"backend,omitempty"`

	// Shards is the sim kernel's shard count (default 1).
	Shards int `json:"shards,omitempty"`
}

// Sentinel errors; the HTTP layer maps them onto status codes.
var (
	ErrNotFound   = errors.New("runsvc: not found")
	ErrQueueFull  = errors.New("runsvc: queue full")
	ErrBadRequest = errors.New("runsvc: bad request")
	ErrClosed     = errors.New("runsvc: service closed")
)

// Config sizes the service.
type Config struct {
	// ScenarioRoot is the directory holding scenario packages (required
	// for Request.Package submissions).
	ScenarioRoot string

	// HistoryPath is the append-only JSONL run history ("" keeps history
	// in memory only).
	HistoryPath string

	// Workers bounds concurrent runs (default 2).
	Workers int

	// QueueDepth bounds waiting submissions beyond the running ones
	// (default 16); past it Submit returns ErrQueueFull.
	QueueDepth int

	// MaxNodes rejects scenarios with more nodes (0 = unlimited).
	MaxNodes int

	// MaxNodeSeconds rejects scenarios whose nodes × duration product
	// exceeds it — the per-run cost cap (0 = unlimited).
	MaxNodeSeconds float64

	// MaxWall aborts a run after this much wall time; the job then
	// fails with a timeout error (0 = no limit).
	MaxWall time.Duration

	// ProgressEvery is the minimum scaled-seconds between progress
	// snapshots (0 = backend default of Duration/64).
	ProgressEvery sim.Time
}

// ProgressView is the wire-friendly live-progress snapshot.
type ProgressView struct {
	Now        float64 `json:"now"`        // sim clock, scaled seconds
	End        float64 `json:"end"`        // scenario duration
	Pct        float64 `json:"pct"`        // Now/End, capped at 100
	Events     uint64  `json:"events"`     // scheduler events fired — kernel effort, not messages: a flood is one event per hop-ring (0 on live)
	Offered    uint64  `json:"offered"`    // tasks offered so far
	Admitted   uint64  `json:"admitted"`   // tasks admitted so far
	Violations int     `json:"violations"` // oracle findings so far
}

// JobView is one job's externally visible snapshot.
type JobView struct {
	ID          string          `json:"id"`
	Name        string          `json:"name"` // package name, inline spec name, or fuzz-<seed>
	Backend     string          `json:"backend"`
	Shards      int             `json:"shards"`
	State       State           `json:"state"`
	Error       string          `json:"error,omitempty"`
	GateFailed  bool            `json:"gate_failed,omitempty"`
	GateDetail  string          `json:"gate_detail,omitempty"`
	SubmittedAt time.Time       `json:"submitted_at"`
	StartedAt   *time.Time      `json:"started_at,omitempty"`
	FinishedAt  *time.Time      `json:"finished_at,omitempty"`
	Progress    *ProgressView   `json:"progress,omitempty"`
	Summary     json.RawMessage `json:"summary,omitempty"` // canonical scenario.EncodeSummary bytes
}

// job is the internal mutable record. Fields after mu are guarded by it.
type job struct {
	id  string
	pkg *scenario.Package
	req Request

	mu       sync.Mutex
	view     JobView
	cancel   context.CancelFunc // non-nil while running
	asked    bool               // Cancel was called (distinguishes cancel from wall timeout)
	watchers map[int]chan JobView
	nextW    int
}

// Service is the run service. Create with New, stop with Close.
type Service struct {
	cfg     Config
	rootCtx context.Context
	stop    context.CancelFunc
	queue   chan *job
	wg      sync.WaitGroup
	history *historyStore

	mu     sync.Mutex
	jobs   map[string]*job
	order  []string // submission order, for List
	nextID int
	closed bool
}

// New builds a service, loads any existing run history, and starts the
// worker pool.
func New(cfg Config) (*Service, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 16
	}
	h, err := openHistory(cfg.HistoryPath)
	if err != nil {
		return nil, err
	}
	ctx, stop := context.WithCancel(context.Background())
	s := &Service{
		cfg:     cfg,
		rootCtx: ctx,
		stop:    stop,
		queue:   make(chan *job, cfg.QueueDepth),
		history: h,
		jobs:    map[string]*job{},
		nextID:  h.maxSeq(),
	}
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s, nil
}

// Close stops the service: no further submissions, running jobs are
// cancelled at their next checkpoint, queued jobs become canceled, and
// Close returns once every worker has drained. Idempotent.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	close(s.queue)
	s.mu.Unlock()
	s.stop() // cancels every running job's context
	s.wg.Wait()
}

// Submit validates and enqueues one run. The returned view is the
// queued snapshot; follow it with Get or Watch.
func (s *Service) Submit(req Request) (JobView, error) {
	pkg, name, err := s.resolve(req)
	if err != nil {
		return JobView{}, err
	}
	if req.Backend == "" {
		req.Backend = "sim"
	}
	if req.Shards == 0 {
		req.Shards = 1
	}
	// Fail unknown backends and shard counts at submit, not dequeue.
	if _, err := scenario.Backend(req.Backend, req.Shards); err != nil {
		return JobView{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if err := s.checkCaps(pkg); err != nil {
		return JobView{}, err
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return JobView{}, ErrClosed
	}
	s.nextID++
	j := &job{
		id:  fmt.Sprintf("run-%06d", s.nextID),
		pkg: pkg,
		req: req,
		view: JobView{
			Name:        name,
			Backend:     req.Backend,
			Shards:      req.Shards,
			State:       StateQueued,
			SubmittedAt: time.Now().UTC(),
		},
	}
	j.view.ID = j.id
	// Copied before the send: a waiting worker may dequeue and start (or
	// finish) the job before this function returns, and what Submit
	// reports is the submission, not the race.
	queued := j.view
	select {
	case s.queue <- j:
	default:
		s.nextID--
		s.mu.Unlock()
		return JobView{}, ErrQueueFull
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.mu.Unlock()
	return queued, nil
}

// resolve turns a request into a runnable package and a display name.
func (s *Service) resolve(req Request) (*scenario.Package, string, error) {
	selected := 0
	for _, on := range []bool{req.Package != "", len(req.Spec) > 0, req.FuzzSeed != nil} {
		if on {
			selected++
		}
	}
	if selected != 1 {
		return nil, "", fmt.Errorf("%w: exactly one of package, spec, fuzz_seed must be set", ErrBadRequest)
	}
	switch {
	case req.Package != "":
		if strings.ContainsAny(req.Package, "/\\") || req.Package == ".." {
			return nil, "", fmt.Errorf("%w: invalid package name %q", ErrBadRequest, req.Package)
		}
		if s.cfg.ScenarioRoot == "" {
			return nil, "", fmt.Errorf("%w: service has no scenario root", ErrBadRequest)
		}
		p, err := scenario.LoadPackage(filepath.Join(s.cfg.ScenarioRoot, req.Package))
		if err != nil {
			return nil, "", fmt.Errorf("%w: package %q: %v", ErrNotFound, req.Package, err)
		}
		return p, req.Package, nil
	case len(req.Spec) > 0:
		sp, err := scenario.DecodeSpec(req.Spec)
		if err != nil {
			return nil, "", fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
		return &scenario.Package{Spec: sp}, sp.Name, nil
	default:
		seed := *req.FuzzSeed
		gen := fuzzscen.Generate(seed)
		name := fmt.Sprintf("fuzz-%d", seed)
		sp := scenario.Export(name, gen)
		if err := sp.Validate(); err != nil {
			return nil, "", fmt.Errorf("%w: seed %d: %v", ErrBadRequest, seed, err)
		}
		return &scenario.Package{Spec: sp}, name, nil
	}
}

// checkCaps enforces the per-run resource caps at submit time.
func (s *Service) checkCaps(pkg *scenario.Package) error {
	eff := pkg.Spec.Effective()
	nodes := eff.Nodes()
	if s.cfg.MaxNodes > 0 && nodes > s.cfg.MaxNodes {
		return fmt.Errorf("%w: scenario has %d nodes, cap is %d", ErrBadRequest, nodes, s.cfg.MaxNodes)
	}
	if ns := float64(nodes) * eff.Duration; s.cfg.MaxNodeSeconds > 0 && ns > s.cfg.MaxNodeSeconds {
		return fmt.Errorf("%w: scenario costs %.0f node-seconds, cap is %.0f",
			ErrBadRequest, ns, s.cfg.MaxNodeSeconds)
	}
	return nil
}

// Get returns a job's snapshot — live jobs first, then history.
func (s *Service) Get(id string) (JobView, error) {
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j != nil {
		return j.snapshot(), nil
	}
	if v, ok := s.history.get(id); ok {
		return v, nil
	}
	return JobView{}, fmt.Errorf("%w: run %q", ErrNotFound, id)
}

// List returns every known run — historical then this session's, in
// submission order.
func (s *Service) List() []JobView {
	s.mu.Lock()
	live := make([]*job, 0, len(s.order))
	seen := map[string]bool{}
	for _, id := range s.order {
		live = append(live, s.jobs[id])
		seen[id] = true
	}
	s.mu.Unlock()
	out := []JobView{}
	for _, v := range s.history.list() {
		if !seen[v.ID] {
			out = append(out, v)
		}
	}
	for _, j := range live {
		out = append(out, j.snapshot())
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// Cancel asks a job to stop: a queued job is cancelled on the spot, a
// running one at its backend's next checkpoint. Cancelling a terminal
// job is a no-op (the terminal state wins the race and is reported).
func (s *Service) Cancel(id string) (JobView, error) {
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		if v, ok := s.history.get(id); ok {
			return v, nil // already terminal in a past session
		}
		return JobView{}, fmt.Errorf("%w: run %q", ErrNotFound, id)
	}
	j.mu.Lock()
	j.asked = true
	switch j.view.State {
	case StateQueued:
		// The worker will observe the canceled state at dequeue and skip.
		j.finishLocked(StateCanceled, "canceled before start")
		v := j.view
		j.mu.Unlock()
		s.history.append(v)
		return v, nil
	case StateRunning:
		j.cancel()
	}
	v := j.view
	j.mu.Unlock()
	return v, nil
}

// Watch subscribes to a job's snapshots: the current one immediately,
// then one per state change or progress tick. The channel closes after
// the terminal snapshot. stop unsubscribes early (always call it).
func (s *Service) Watch(id string) (<-chan JobView, func(), error) {
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		if v, ok := s.history.get(id); ok {
			ch := make(chan JobView, 1)
			ch <- v
			close(ch)
			return ch, func() {}, nil
		}
		return nil, nil, fmt.Errorf("%w: run %q", ErrNotFound, id)
	}
	// Buffered so notify never blocks a checkpoint: a slow consumer
	// coalesces to the freshest snapshot instead of stalling the run.
	ch := make(chan JobView, 8)
	j.mu.Lock()
	if j.watchers == nil {
		j.watchers = map[int]chan JobView{}
	}
	w := j.nextW
	j.nextW++
	cur := j.view
	if cur.State.Terminal() {
		j.mu.Unlock()
		ch <- cur
		close(ch)
		return ch, func() {}, nil
	}
	j.watchers[w] = ch
	// Sent under j.mu (it cannot block: ch is fresh and buffered): once
	// the watcher is registered, a finishing run may notify and close ch
	// at any moment, and the current snapshot must go first, not onto a
	// closed channel.
	ch <- cur
	j.mu.Unlock()
	stop := func() {
		j.mu.Lock()
		if c, ok := j.watchers[w]; ok {
			delete(j.watchers, w)
			close(c)
		}
		j.mu.Unlock()
	}
	return ch, stop, nil
}

// Compare diffs two terminal runs' canonical summaries with the golden
// machinery (exact by default — both runs came from the deterministic
// pipeline).
func (s *Service) Compare(aID, bID string) ([]scenario.MetricDiff, error) {
	a, err := s.summaryOf(aID)
	if err != nil {
		return nil, err
	}
	b, err := s.summaryOf(bID)
	if err != nil {
		return nil, err
	}
	return scenario.Golden{Summary: a}.Diff(b), nil
}

func (s *Service) summaryOf(id string) (scenario.Summary, error) {
	v, err := s.Get(id)
	if err != nil {
		return scenario.Summary{}, err
	}
	if len(v.Summary) == 0 {
		return scenario.Summary{}, fmt.Errorf("%w: run %q has no summary (state %s)", ErrBadRequest, id, v.State)
	}
	var sum scenario.Summary
	if err := json.Unmarshal(v.Summary, &sum); err != nil {
		return scenario.Summary{}, fmt.Errorf("runsvc: run %q: corrupt summary: %w", id, err)
	}
	return sum, nil
}

// worker drains the queue until Close.
func (s *Service) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// runJob executes one dequeued job end to end.
func (s *Service) runJob(j *job) {
	// Claim: queued → running, unless Cancel (or Close) got there first.
	j.mu.Lock()
	if j.view.State != StateQueued {
		j.mu.Unlock()
		return
	}
	if j.asked || s.rootCtx.Err() != nil {
		j.finishLocked(StateCanceled, "canceled before start")
		v := j.view
		j.mu.Unlock()
		s.history.append(v)
		return
	}
	var ctx context.Context
	var cancel context.CancelFunc
	if s.cfg.MaxWall > 0 {
		ctx, cancel = context.WithTimeout(s.rootCtx, s.cfg.MaxWall)
	} else {
		ctx, cancel = context.WithCancel(s.rootCtx)
	}
	defer cancel()
	j.cancel = cancel
	now := time.Now().UTC()
	j.view.State = StateRunning
	j.view.StartedAt = &now
	j.notifyLocked()
	j.mu.Unlock()

	be, err := scenario.Backend(j.req.Backend, j.req.Shards)
	if err != nil {
		// Unreachable: Submit validated the pair. Fail the job anyway.
		s.finish(j, StateFailed, err.Error(), nil)
		return
	}
	res, err := scenario.RunWith(j.pkg, be, j.req.Shards, scenario.RunConfig{
		Ctx:           ctx,
		ProgressEvery: s.cfg.ProgressEvery,
		OnProgress:    func(p harness.Progress) { j.progress(p) },
	})
	switch {
	case errors.Is(err, harness.ErrCanceled):
		j.mu.Lock()
		asked := j.asked
		j.mu.Unlock()
		if !asked && ctx.Err() == context.DeadlineExceeded {
			s.finish(j, StateFailed, fmt.Sprintf("wall-clock timeout after %s", s.cfg.MaxWall), nil)
			return
		}
		s.finish(j, StateCanceled, "", nil)
	case err != nil:
		s.finish(j, StateFailed, err.Error(), nil)
	default:
		s.finish(j, StateDone, "", &res)
	}
}

// finish moves a job to a terminal state, records history, and closes
// its watchers.
func (s *Service) finish(j *job, st State, errMsg string, res *scenario.Result) {
	j.mu.Lock()
	if res != nil {
		// EncodeSummary's trailing newline is presentation; the stored
		// RawMessage is the same canonical bytes without it.
		j.view.Summary = json.RawMessage(strings.TrimSuffix(string(scenario.EncodeSummary(res.Summary)), "\n"))
		if res.Failed() {
			j.view.GateFailed = true
			j.view.GateDetail = res.Explain()
		}
	}
	j.finishLocked(st, errMsg)
	v := j.view
	j.mu.Unlock()
	s.history.append(v)
}

// finishLocked is finish's state transition; callers hold j.mu.
func (j *job) finishLocked(st State, errMsg string) {
	now := time.Now().UTC()
	j.view.State = st
	j.view.Error = errMsg
	j.view.FinishedAt = &now
	j.view.Progress = nil // stale mid-run numbers; the summary is the record
	j.notifyLocked()
	for w, ch := range j.watchers {
		delete(j.watchers, w)
		close(ch)
	}
}

// progress folds one harness snapshot into the view and notifies.
func (j *job) progress(p harness.Progress) {
	pct := 0.0
	if p.End > 0 {
		pct = 100 * float64(p.Now) / float64(p.End)
		if pct > 100 {
			pct = 100 // settling past Duration
		}
	}
	j.mu.Lock()
	j.view.Progress = &ProgressView{
		Now:        float64(p.Now),
		End:        float64(p.End),
		Pct:        pct,
		Events:     p.Events,
		Offered:    p.Stats.Offered,
		Admitted:   p.Stats.Admitted,
		Violations: p.Violations,
	}
	j.notifyLocked()
	j.mu.Unlock()
}

// notifyLocked fans the current view out to watchers, coalescing for
// slow consumers: if a watcher's buffer is full, the oldest pending
// snapshot is dropped for the new one. Callers hold j.mu.
func (j *job) notifyLocked() {
	for _, ch := range j.watchers {
		select {
		case ch <- j.view:
		default:
			select {
			case <-ch:
			default:
			}
			select {
			case ch <- j.view:
			default:
			}
		}
	}
}

// snapshot returns a copy of the job's view.
func (j *job) snapshot() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.view
}
