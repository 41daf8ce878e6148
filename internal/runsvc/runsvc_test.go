package runsvc

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"realtor/internal/fuzzscen"
	"realtor/internal/scenario"
)

// writePkg materializes the fuzz scenario for seed as a package under
// root and returns its name.
func writePkg(t *testing.T, root string, seed int64) string {
	t.Helper()
	name := fmt.Sprintf("svc-seed-%d", seed)
	sp := scenario.Export(name, fuzzscen.Generate(seed))
	if _, err := scenario.WritePackage(root, sp); err != nil {
		t.Fatalf("write package: %v", err)
	}
	return name
}

// waitTerminal polls Get until the job reaches a terminal state.
func waitTerminal(t *testing.T, s *Service, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		v, err := s.Get(id)
		if err != nil {
			t.Fatalf("get %s: %v", id, err)
		}
		if v.State.Terminal() {
			return v
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("run %s did not finish in time", id)
	return JobView{}
}

// TestRunPackageMatchesLocalRunByteForByte is the tentpole's core
// promise: a package submitted through the service yields exactly the
// canonical summary bytes a direct scenario.Run produces — at one
// shard and at four.
func TestRunPackageMatchesLocalRunByteForByte(t *testing.T) {
	root := t.TempDir()
	name := writePkg(t, root, 7)
	pkg, err := scenario.LoadPackage(filepath.Join(root, name))
	if err != nil {
		t.Fatalf("load package: %v", err)
	}

	s, err := New(Config{ScenarioRoot: root})
	if err != nil {
		t.Fatalf("new service: %v", err)
	}
	defer s.Close()

	for _, shards := range []int{1, 4} {
		be, err := scenario.Backend("sim", shards)
		if err != nil {
			t.Fatalf("backend: %v", err)
		}
		res, err := scenario.Run(pkg, be, shards)
		if err != nil {
			t.Fatalf("local run: %v", err)
		}
		want := bytes.TrimSuffix(scenario.EncodeSummary(res.Summary), []byte("\n"))

		v, err := s.Submit(Request{Package: name, Shards: shards})
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		if v.State != StateQueued {
			t.Fatalf("submitted job state = %s, want queued", v.State)
		}
		fin := waitTerminal(t, s, v.ID)
		if fin.State != StateDone {
			t.Fatalf("shards=%d: state = %s (error %q), want done", shards, fin.State, fin.Error)
		}
		if !bytes.Equal(fin.Summary, want) {
			t.Fatalf("shards=%d: daemon summary diverged from local run:\n got: %s\nwant: %s",
				shards, fin.Summary, want)
		}
	}

	// Both runs are on record; the shard-1 and shard-4 summaries must
	// compare clean (the kernel promises shard-count invariance).
	all := s.List()
	if len(all) != 2 {
		t.Fatalf("List returned %d runs, want 2", len(all))
	}
	diffs, err := s.Compare(all[0].ID, all[1].ID)
	if err != nil {
		t.Fatalf("compare: %v", err)
	}
	if scenario.Drifted(diffs) {
		t.Fatalf("shard-1 vs shard-4 summaries drifted:\n%s", scenario.Report(diffs))
	}
}

// Submit reports the submission — state queued, not started — even when
// a worker is parked on the queue and takes the job the instant it is
// sent. Each round waits for the pool to go idle again, so every Submit
// races a waiting worker (a snapshot taken after the send loses that
// race in about one -race run in three).
func TestSubmitReturnsQueuedViewWhileAWorkerWaits(t *testing.T) {
	s, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatalf("new service: %v", err)
	}
	defer s.Close()
	seed := int64(7)
	for round := 0; round < 50; round++ {
		v, err := s.Submit(Request{FuzzSeed: &seed})
		if err != nil {
			t.Fatalf("round %d: submit: %v", round, err)
		}
		if v.State != StateQueued || v.StartedAt != nil || v.FinishedAt != nil || v.Summary != nil {
			t.Fatalf("round %d: Submit returned %+v, want the queued snapshot", round, v)
		}
		if fin := waitTerminal(t, s, v.ID); fin.State != StateDone {
			t.Fatalf("round %d: state = %s (error %q), want done", round, fin.State, fin.Error)
		}
	}
}

// A Watch that subscribes while the run is finishing still gets the
// current snapshot first and the terminal one last — never a send on
// the channel finish has already closed. Toy runs last about a
// millisecond, so subscribing right after Submit lands in that window
// every few rounds.
func TestWatchRacingFinishStaysOrdered(t *testing.T) {
	s, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatalf("new service: %v", err)
	}
	defer s.Close()
	seed := int64(7)
	for round := 0; round < 30; round++ {
		v, err := s.Submit(Request{FuzzSeed: &seed})
		if err != nil {
			t.Fatalf("round %d: submit: %v", round, err)
		}
		ch, stop, err := s.Watch(v.ID)
		if err != nil {
			t.Fatalf("round %d: watch: %v", round, err)
		}
		rank := map[State]int{StateQueued: 0, StateRunning: 1, StateDone: 2}
		last := JobView{State: StateQueued}
		for snap := range ch {
			if rank[snap.State] < rank[last.State] {
				t.Fatalf("round %d: snapshot %s arrived after %s", round, snap.State, last.State)
			}
			last = snap
		}
		stop()
		if last.State != StateDone {
			t.Fatalf("round %d: last snapshot %s (error %q), want done", round, last.State, last.Error)
		}
	}
}

// TestWatchStreamsSnapshotsToTerminal checks the Watch contract: first
// the current snapshot, progress along the way, the terminal snapshot
// last, then a closed channel.
func TestWatchStreamsSnapshotsToTerminal(t *testing.T) {
	root := t.TempDir()
	name := writePkg(t, root, 11)
	s, err := New(Config{ScenarioRoot: root, ProgressEvery: 1})
	if err != nil {
		t.Fatalf("new service: %v", err)
	}
	defer s.Close()

	v, err := s.Submit(Request{Package: name})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	ch, stop, err := s.Watch(v.ID)
	if err != nil {
		t.Fatalf("watch: %v", err)
	}
	defer stop()

	var last JobView
	n := 0
	for snap := range ch {
		last = snap
		n++
	}
	if n == 0 {
		t.Fatal("watch delivered no snapshots")
	}
	if !last.State.Terminal() {
		t.Fatalf("last snapshot state = %s, want terminal", last.State)
	}
	if last.State != StateDone {
		t.Fatalf("state = %s (error %q), want done", last.State, last.Error)
	}

	// Watching a finished run yields its terminal snapshot and closes.
	ch2, stop2, err := s.Watch(v.ID)
	if err != nil {
		t.Fatalf("watch finished run: %v", err)
	}
	defer stop2()
	snap, ok := <-ch2
	if !ok || snap.State != StateDone {
		t.Fatalf("finished-run watch: got (%v, %v), want done snapshot", snap.State, ok)
	}
	if _, ok := <-ch2; ok {
		t.Fatal("finished-run watch channel did not close")
	}
}

// TestCancelYieldsCanceledStateAndNoSummary submits and immediately
// cancels: whether the cancel lands while queued or mid-run, the job
// must end canceled with no summary — a partial summary must never be
// recorded.
func TestCancelYieldsCanceledStateAndNoSummary(t *testing.T) {
	root := t.TempDir()
	name := writePkg(t, root, 3)
	s, err := New(Config{ScenarioRoot: root, ProgressEvery: 1})
	if err != nil {
		t.Fatalf("new service: %v", err)
	}
	defer s.Close()

	v, err := s.Submit(Request{Package: name})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if _, err := s.Cancel(v.ID); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	fin := waitTerminal(t, s, v.ID)
	if fin.State != StateCanceled {
		t.Fatalf("state = %s, want canceled", fin.State)
	}
	if len(fin.Summary) != 0 {
		t.Fatalf("canceled run recorded a summary: %s", fin.Summary)
	}
	if fin.Progress != nil {
		t.Fatal("terminal snapshot still carries mid-run progress")
	}

	// Comparing against a canceled run is a bad request, not a crash.
	if _, err := s.Compare(v.ID, v.ID); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("compare canceled run: err = %v, want ErrBadRequest", err)
	}
	// Cancelling a terminal run is a no-op that reports the final state.
	again, err := s.Cancel(v.ID)
	if err != nil || again.State != StateCanceled {
		t.Fatalf("re-cancel: (%v, %v), want canceled, nil", again.State, err)
	}
}

// TestWallTimeoutFailsTheRun pins the cap semantics: a wall-clock
// timeout is a resource-limit failure, not a user cancel.
func TestWallTimeoutFailsTheRun(t *testing.T) {
	root := t.TempDir()
	name := writePkg(t, root, 5)
	s, err := New(Config{ScenarioRoot: root, MaxWall: time.Nanosecond})
	if err != nil {
		t.Fatalf("new service: %v", err)
	}
	defer s.Close()

	v, err := s.Submit(Request{Package: name})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	fin := waitTerminal(t, s, v.ID)
	if fin.State != StateFailed {
		t.Fatalf("state = %s, want failed", fin.State)
	}
	if !strings.Contains(fin.Error, "wall-clock timeout") {
		t.Fatalf("error = %q, want a wall-clock timeout", fin.Error)
	}
	if len(fin.Summary) != 0 {
		t.Fatalf("timed-out run recorded a summary: %s", fin.Summary)
	}
}

// TestSubmitValidation walks the request-rejection table.
func TestSubmitValidation(t *testing.T) {
	root := t.TempDir()
	name := writePkg(t, root, 9)
	seed := int64(9)
	s, err := New(Config{ScenarioRoot: root, MaxNodes: 4, MaxNodeSeconds: 1})
	if err != nil {
		t.Fatalf("new service: %v", err)
	}
	defer s.Close()

	cases := []struct {
		label string
		req   Request
		want  error
	}{
		{"no selector", Request{}, ErrBadRequest},
		{"two selectors", Request{Package: name, FuzzSeed: &seed}, ErrBadRequest},
		{"path traversal", Request{Package: "../" + name}, ErrBadRequest},
		{"unknown package", Request{Package: "no-such-pkg"}, ErrNotFound},
		{"bad backend", Request{Package: name, Backend: "quantum"}, ErrBadRequest},
		{"live is unsharded", Request{Package: name, Backend: "live", Shards: 4}, ErrBadRequest},
		{"bad inline spec", Request{Spec: []byte(`{"name":"x"`)}, ErrBadRequest},
		{"over node cap", Request{Package: name}, ErrBadRequest},
	}
	for _, c := range cases {
		if _, err := s.Submit(c.req); !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.label, err, c.want)
		}
	}
}

// TestQueueBackpressureAndClose fills a one-deep queue behind a busy
// worker, checks ErrQueueFull, then checks Close cancels everything
// still in flight and refuses new submissions.
func TestQueueBackpressureAndClose(t *testing.T) {
	root := t.TempDir()
	// The live backend runs in scaled wall-clock time, so it holds the
	// single worker long enough to make the backpressure deterministic.
	liveName := writePkg(t, root, 13)
	simName := writePkg(t, root, 17)

	s, err := New(Config{ScenarioRoot: root, Workers: 1, QueueDepth: 1})
	if err != nil {
		t.Fatalf("new service: %v", err)
	}

	live, err := s.Submit(Request{Package: liveName, Backend: "live"})
	if err != nil {
		t.Fatalf("submit live: %v", err)
	}
	// Wait for the worker to claim it so the queue slot is free.
	deadline := time.Now().Add(30 * time.Second)
	for {
		v, err := s.Get(live.ID)
		if err != nil {
			t.Fatalf("get: %v", err)
		}
		if v.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("live run never started")
		}
		time.Sleep(2 * time.Millisecond)
	}

	queued, err := s.Submit(Request{Package: simName})
	if err != nil {
		t.Fatalf("submit queued: %v", err)
	}
	if _, err := s.Submit(Request{Package: simName}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit: err = %v, want ErrQueueFull", err)
	}

	done := make(chan struct{})
	go func() { s.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Close did not drain within 30s")
	}

	if _, err := s.Submit(Request{Package: simName}); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close submit: err = %v, want ErrClosed", err)
	}
	for _, id := range []string{live.ID, queued.ID} {
		v, err := s.Get(id)
		if err != nil {
			t.Fatalf("get %s: %v", id, err)
		}
		if v.State != StateCanceled {
			t.Errorf("%s after Close: state = %s, want canceled", id, v.State)
		}
	}
}

// TestHistoryPersistsAcrossRestart runs a job, restarts the service on
// the same history file, and checks the record survives, IDs continue,
// and Compare still works on the recalled summaries.
func TestHistoryPersistsAcrossRestart(t *testing.T) {
	root := t.TempDir()
	name := writePkg(t, root, 21)
	hist := filepath.Join(t.TempDir(), "runs", "history.jsonl")

	s1, err := New(Config{ScenarioRoot: root, HistoryPath: hist})
	if err != nil {
		t.Fatalf("new service: %v", err)
	}
	v1, err := s1.Submit(Request{Package: name})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	fin1 := waitTerminal(t, s1, v1.ID)
	if fin1.State != StateDone {
		t.Fatalf("state = %s (error %q), want done", fin1.State, fin1.Error)
	}
	s1.Close()

	s2, err := New(Config{ScenarioRoot: root, HistoryPath: hist})
	if err != nil {
		t.Fatalf("reopen service: %v", err)
	}
	defer s2.Close()

	got, err := s2.Get(v1.ID)
	if err != nil {
		t.Fatalf("get recalled run: %v", err)
	}
	if got.State != StateDone || !bytes.Equal(got.Summary, fin1.Summary) {
		t.Fatalf("recalled run drifted: %+v", got)
	}

	v2, err := s2.Submit(Request{Package: name})
	if err != nil {
		t.Fatalf("submit after restart: %v", err)
	}
	if v2.ID <= v1.ID {
		t.Fatalf("restart reused ID space: %s after %s", v2.ID, v1.ID)
	}
	fin2 := waitTerminal(t, s2, v2.ID)
	if fin2.State != StateDone {
		t.Fatalf("state = %s (error %q), want done", fin2.State, fin2.Error)
	}
	diffs, err := s2.Compare(v1.ID, v2.ID)
	if err != nil {
		t.Fatalf("compare across restart: %v", err)
	}
	if scenario.Drifted(diffs) {
		t.Fatalf("same package drifted across restart:\n%s", scenario.Report(diffs))
	}

	if len(s2.List()) != 2 {
		t.Fatalf("List after restart returned %d runs, want 2", len(s2.List()))
	}
}

// TestFuzzSeedSubmission exercises the third selector: a run generated
// from a fuzz seed, gated only by its exported expect bands.
func TestFuzzSeedSubmission(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatalf("new service: %v", err)
	}
	defer s.Close()

	seed := int64(23)
	v, err := s.Submit(Request{FuzzSeed: &seed})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if v.Name != "fuzz-23" {
		t.Fatalf("name = %q, want fuzz-23", v.Name)
	}
	fin := waitTerminal(t, s, v.ID)
	if fin.State != StateDone {
		t.Fatalf("state = %s (error %q), want done", fin.State, fin.Error)
	}
	if len(fin.Summary) == 0 {
		t.Fatal("done run has no summary")
	}
}
