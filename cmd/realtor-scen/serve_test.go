package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"strings"
	"testing"
	"time"

	"realtor/internal/runsvc"
)

// TestServeDrainsOnCancel drives the daemon the way main does, with a
// cancelled context standing in for SIGTERM: serve binds a free port
// and prints it, answers /healthz with a build identity, takes one
// package to done over HTTP with summary bytes equal to a local
// `run -json`, and returns 0 promptly once its context is cancelled.
func TestServeDrainsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pr, pw := io.Pipe()
	lines := make(chan string, 16)
	go func() {
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	var errw bytes.Buffer
	exit := make(chan int, 1)
	go func() {
		code := run(ctx, []string{"serve", "-addr", "127.0.0.1:0", "-dir", scenRoot}, pw, &errw)
		pw.Close()
		exit <- code
	}()

	var addr string
	select {
	case line := <-lines:
		_, after, ok := strings.Cut(line, " listening on ")
		if !ok {
			t.Fatalf("first line %q names no address (exit %d): %s", line, <-exit, errw.String())
		}
		addr = strings.Fields(after)[0]
	case <-time.After(10 * time.Second):
		t.Fatal("serve printed no address within 10s")
	}
	c := newScenClient("http://" + addr)

	resp, err := c.hc.Get(c.base + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	var health struct {
		Status string
		Build  struct{ Version, Go string }
	}
	err = json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if err != nil || health.Status != "ok" || health.Build.Version == "" || !strings.HasPrefix(health.Build.Go, "go") {
		t.Fatalf("healthz = %+v (%v), want ok with a build identity", health, err)
	}

	const pkg = "baseline-poisson"
	v, err := c.submit(runsvc.Request{Package: pkg})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	fin, err := c.wait(v.ID)
	if err != nil || fin.State != runsvc.StateDone {
		t.Fatalf("run %s ended %s (%v): %s", v.ID, fin.State, err, fin.Error)
	}
	remote, err := c.summaryBytes(fin.ID)
	if err != nil {
		t.Fatalf("summary: %v", err)
	}
	code, local, errs := runCLI(t, "run", "-json", "-dir", scenRoot, pkg)
	if code != 0 {
		t.Fatalf("local run exit %d: %s", code, errs)
	}
	if string(remote) != local {
		t.Fatalf("served summary diverged from local run -json:\nserved: %q\n local: %q", remote, local)
	}

	cancel()
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("serve exit %d after cancel, want 0: %s", code, errw.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not return within 10s of cancel")
	}
}
