package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// report is bench/out/results.json: every measured set, then the traced
// pass, keyed by workload.
type report struct {
	Seed    int64               `json:"seed"`
	Seconds float64             `json:"seconds"`
	Sets    []map[string]result `json:"sets"`
	Traced  map[string]result   `json:"traced"`
}

// child re-executes this binary for one run of one workload, so heap
// state and peak RSS do not leak between workloads, passes the child's
// report through and returns its result line.
func child(name string, seed int64, secs float64, trace, smoke bool) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	pass := "0"
	if trace {
		pass = "1"
	}
	args := []string{"-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(secs, 'g', -1, 64), "-trace", pass}
	if smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	out = bytes.TrimRight(out, "\n")
	cut := bytes.LastIndexByte(out, '\n') + 1
	os.Stdout.Write(out[:cut])
	var res result
	if err := json.Unmarshal(out[cut:], &res); err != nil {
		if runErr != nil {
			return result{}, fmt.Errorf("bench: %s: %w", name, runErr)
		}
		return result{}, fmt.Errorf("bench: %s: result line: %w", name, err)
	}
	return res, nil
}

// runAll runs `repeat` measured sets of every workload and one traced
// pass, writes results.json, and fails on a failed op or — across sets
// — a metric that moved by more than its bound.
func runAll(root string, decl declaration, seed int64, secs float64, repeat int, smoke bool) error {
	rep := report{Seed: seed, Seconds: secs, Traced: map[string]result{}}
	failed := 0
	for set := 0; set < repeat; set++ {
		if repeat > 1 {
			fmt.Printf("== set %d of %d\n", set+1, repeat)
		}
		results := map[string]result{}
		for _, w := range decl.Workloads {
			res, err := child(w.Name, seed, secs, false, smoke)
			if err != nil {
				return err
			}
			results[w.Name] = res
			failed += res.Failed
		}
		rep.Sets = append(rep.Sets, results)
	}
	fmt.Println("== traced pass")
	for _, w := range decl.Workloads {
		res, err := child(w.Name, seed, secs, true, smoke)
		if err != nil {
			return err
		}
		rep.Traced[w.Name] = res
		failed += res.Failed
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(outDir(root), "results.json"), append(data, '\n'), 0o644); err != nil {
		return err
	}
	moved := 0
	if repeat > 1 {
		moved = compareSets(decl, rep.Sets)
	}
	switch {
	case failed > 0:
		return fmt.Errorf("bench: %d failed ops", failed)
	case moved > 0:
		return fmt.Errorf("bench: %d metric × workload pairs moved by more than their bound between sets", moved)
	}
	return nil
}

// compareSets prints, per workload and end-to-end metric, the minimum,
// median, maximum and spread over the sets, and returns how many pairs
// have two sets further apart than the metric's bound.
func compareSets(decl declaration, sets []map[string]result) int {
	moved := 0
	fmt.Printf("== %d sets compared\n%-12s %-16s %12s %12s %12s %8s %6s\n",
		len(sets), "workload", "metric", "min", "median", "max", "spread", "bound")
	for _, w := range decl.Workloads {
		for _, m := range decl.EndToEnd {
			var xs []float64
			for _, set := range sets {
				xs = append(xs, set[w.Name].Metrics[m.Name].Value)
			}
			s := sorted(xs)
			verdict := "ok"
			if !withinBound(xs, m.Better, m.Bound) {
				verdict = "MOVED"
				moved++
			}
			fmt.Printf("%-12s %-16s %12.6g %12.6g %12.6g %7.2f%% %5.0f%% %s\n",
				w.Name, m.Name, s[0], median(xs), s[len(s)-1], 100*spread(xs), 100*m.Bound, verdict)
		}
	}
	return moved
}
