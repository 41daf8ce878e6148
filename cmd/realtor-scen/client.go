package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"realtor/internal/runsvc"
	"realtor/internal/scenario"
)

// This file is realtor-scen's -server mode: instead of running
// packages in-process, submit them to a serve daemon and render the
// results through the exact same output paths as a local run. The
// daemon stores canonical scenario.EncodeSummary bytes and serves them
// verbatim from /runs/{id}/summary, so `run -json -server URL pkg` is
// byte-identical to `run -json pkg` — the property the daemon smoke
// test pins with cmp.

// scenClient is a minimal HTTP client of the serve daemon.
type scenClient struct {
	base string
	hc   *http.Client
}

func newScenClient(base string) *scenClient {
	return &scenClient{base: strings.TrimSuffix(base, "/"), hc: &http.Client{Timeout: 30 * time.Second}}
}

// submit posts one run request and returns the accepted job.
func (c *scenClient) submit(req runsvc.Request) (runsvc.JobView, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return runsvc.JobView{}, err
	}
	resp, err := c.hc.Post(c.base+"/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		return runsvc.JobView{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return runsvc.JobView{}, c.apiError(resp)
	}
	var v runsvc.JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return runsvc.JobView{}, fmt.Errorf("decode response: %w", err)
	}
	return v, nil
}

// wait polls the job until it reaches a terminal state.
func (c *scenClient) wait(id string) (runsvc.JobView, error) {
	for {
		resp, err := c.hc.Get(c.base + "/runs/" + id)
		if err != nil {
			return runsvc.JobView{}, err
		}
		if resp.StatusCode != http.StatusOK {
			defer resp.Body.Close()
			return runsvc.JobView{}, c.apiError(resp)
		}
		var v runsvc.JobView
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil {
			return runsvc.JobView{}, fmt.Errorf("decode response: %w", err)
		}
		if v.State.Terminal() {
			return v, nil
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// summaryBytes fetches the canonical summary byte form for a done run.
func (c *scenClient) summaryBytes(id string) ([]byte, error) {
	resp, err := c.hc.Get(c.base + "/runs/" + id + "/summary")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, c.apiError(resp)
	}
	return io.ReadAll(resp.Body)
}

// apiError turns a non-2xx daemon response into a readable error.
func (c *scenClient) apiError(resp *http.Response) error {
	var e struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err == nil && e.Error != "" {
		return fmt.Errorf("daemon: %s (HTTP %d)", e.Error, resp.StatusCode)
	}
	return fmt.Errorf("daemon: HTTP %d", resp.StatusCode)
}

// runRemote gates the named packages through a serve daemon,
// mirroring runRun's local output and exit codes: 0 clean, 1 on any
// gate failure or daemon error.
func runRemote(server string, names []string, backend string, shards int, jsonOut bool, out, errw io.Writer) int {
	c := newScenClient(server)
	failures := 0
	for _, name := range names {
		v, err := c.submit(runsvc.Request{Package: name, Backend: backend, Shards: shards})
		if err != nil {
			fmt.Fprintf(errw, "realtor-scen: %s: %v\n", name, err)
			return 1
		}
		fin, err := c.wait(v.ID)
		if err != nil {
			fmt.Fprintf(errw, "realtor-scen: %s: %v\n", name, err)
			return 1
		}
		if fin.State != runsvc.StateDone {
			fmt.Fprintf(errw, "realtor-scen: %s: run %s ended %s: %s\n", name, fin.ID, fin.State, fin.Error)
			return 1
		}
		if jsonOut {
			raw, err := c.summaryBytes(fin.ID)
			if err != nil {
				fmt.Fprintf(errw, "realtor-scen: %s: %v\n", name, err)
				return 1
			}
			out.Write(raw)
		}
		var sum scenario.Summary
		if err := json.Unmarshal(fin.Summary, &sum); err != nil {
			fmt.Fprintf(errw, "realtor-scen: %s: corrupt summary: %v\n", name, err)
			return 1
		}
		// In -json mode stdout carries only summary JSON; human-readable
		// verdicts move to stderr so pipelines stay parseable.
		human := out
		if jsonOut {
			human = errw
		}
		switch {
		case fin.GateFailed:
			fmt.Fprintf(human, "FAIL  %s (%s, %d shard(s))\n%s", name, fin.Backend, fin.Shards, fin.GateDetail)
			failures++
		case !jsonOut:
			fmt.Fprintf(human, "ok    %s (%s, %d shard(s))  admission %.2f%%  %.2f units/task\n",
				name, fin.Backend, fin.Shards, sum.AdmissionPct, sum.UnitsPerTask)
		}
	}
	if failures > 0 {
		dest := out
		if jsonOut {
			dest = errw
		}
		fmt.Fprintf(dest, "%d of %d package(s) failed the gate\n", failures, len(names))
		return 1
	}
	return 0
}
