// Command realtor-scen lists, runs, blesses and fuzzes declarative
// scenario packages (internal/scenario): directories under scenarios/
// holding a scenario.json spec and a blessed golden.json run summary.
// It also serves them: `serve` is the run daemon (serve.go).
//
// Usage:
//
//	realtor-scen list                       # enumerate packages
//	realtor-scen run -all                   # gate every package (sim, 1 shard)
//	realtor-scen run -all -shards 4         # same, on the parallel kernel —
//	                                        # summaries must be byte-identical
//	realtor-scen run baseline-poisson       # gate one package
//	realtor-scen run -backend live diurnal  # live cluster: bands only,
//	                                        # golden digest not enforced
//	realtor-scen bless -all                 # re-bless every golden from a
//	                                        # fresh sim run (review the diff!)
//	realtor-scen run -json baseline-poisson # canonical summary JSON on stdout
//	realtor-scen serve -addr :7070 -dir scenarios -history runs.jsonl
//	                                        # the run daemon, over HTTP/JSON
//	realtor-scen run -server http://host:7070 baseline-poisson
//	                                        # submit to a serve daemon; output
//	                                        # (and -json bytes) match a local run
//	realtor-scen fuzz -seed 1 -n 200        # oracle + differential sweep of
//	                                        # generated scenarios; the lowest
//	                                        # failing seed, shrunk, is written
//	                                        # as the unblessed package fuzz-<seed>
//	realtor-scen fuzz -n 50 -meta           # also the metamorphic relations
//	realtor-scen fuzz -n 50 -mutant expiry  # the seeded soft-state-expiry bug
//	                                        # must be caught (breaker: the
//	                                        # miswired circuit breaker, I10)
//	realtor-scen fuzz -n 50 -policy all     # force the full policy stack on
//	realtor-scen fuzz -backend live -n 25   # the oracle on the live cluster
//	realtor-scen fuzz -parity -n 1 -seed 13 # sim vs live aggregate metrics
//	realtor-scen fuzz fuzz-7                # the same layers on packages
//
// The gate fails a package on any invariant-oracle violation, any
// expect-band miss, or (sim only) any drift from golden.json beyond the
// golden's per-metric tolerances; the failure prints a per-metric diff
// table. Exit status: 0 clean, 1 gate failure (fuzz: a counterexample,
// or an uncaught mutant), 2 usage error; serve exits 0 after a
// signal-driven drain.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"

	"realtor/internal/buildinfo"
	"realtor/internal/scenario"
)

func main() {
	ctx := context.Background()
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		// Only serve drains on a signal; every other subcommand keeps the
		// default of dying on one.
		var stop context.CancelFunc
		ctx, stop = signal.NotifyContext(ctx, syscall.SIGINT, syscall.SIGTERM)
		defer stop()
	}
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, out, errw io.Writer) int {
	if len(args) == 0 {
		usage(errw)
		return 2
	}
	switch args[0] {
	case "-version", "--version":
		fmt.Fprintf(out, "realtor-scen %s\n", buildinfo.Get().String())
		return 0
	case "list":
		return runList(args[1:], out, errw)
	case "run":
		return runRun(args[1:], out, errw, false)
	case "bless":
		return runRun(args[1:], out, errw, true)
	case "fuzz":
		return runFuzz(args[1:], out, errw)
	case "serve":
		return runServe(ctx, args[1:], out, errw)
	}
	fmt.Fprintf(errw, "realtor-scen: unknown command %q\n", args[0])
	usage(errw)
	return 2
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: realtor-scen <list|run|bless|fuzz|serve|-version> [flags] [package...]")
}

func runList(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("list", flag.ContinueOnError)
	fs.SetOutput(errw)
	dir := fs.String("dir", "scenarios", "package root directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	dirs, err := scenario.List(*dir)
	if err != nil {
		fmt.Fprintf(errw, "realtor-scen: %v\n", err)
		return 1
	}
	for _, d := range dirs {
		p, err := scenario.LoadPackage(d)
		if err != nil {
			fmt.Fprintf(errw, "realtor-scen: %v\n", err)
			return 1
		}
		golden := "golden"
		if p.Golden == nil {
			golden = "UNBLESSED"
		}
		fmt.Fprintf(out, "%-20s %-8s %-10s %s\n", p.Spec.Name, p.Spec.Protocol, golden, p.Spec.Description)
	}
	return 0
}

// runRun gates (or, with bless, re-blesses) the selected packages.
func runRun(args []string, out, errw io.Writer, bless bool) int {
	verb := "run"
	if bless {
		verb = "bless"
	}
	fs := flag.NewFlagSet(verb, flag.ContinueOnError)
	fs.SetOutput(errw)
	dir := fs.String("dir", "scenarios", "package root directory")
	backend := fs.String("backend", "sim", "backend: sim | live")
	shards := fs.Int("shards", 1, "sim kernel shard count")
	all := fs.Bool("all", false, "select every package under -dir")
	jsonOut := fs.Bool("json", false, "emit canonical summary JSON on stdout (one line per package)")
	server := fs.String("server", "", "submit to a realtor-scen serve daemon at this base URL instead of running locally")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if bless && *backend != "sim" {
		fmt.Fprintln(errw, "realtor-scen: goldens are blessed from the deterministic sim backend only")
		return 2
	}
	if *server != "" {
		// Thin-client mode: the daemon resolves names against ITS scenario
		// root, so only names make sense here (-dir and -all are local
		// concepts, and blessing writes local files from a local run).
		if bless {
			fmt.Fprintln(errw, "realtor-scen: bless runs locally; -server does not apply")
			return 2
		}
		if *all || len(fs.Args()) == 0 {
			fmt.Fprintln(errw, "realtor-scen: -server mode takes explicit package names (the daemon owns the root)")
			return 2
		}
		return runRemote(*server, fs.Args(), *backend, *shards, *jsonOut, out, errw)
	}
	be, err := scenario.Backend(*backend, *shards)
	if err != nil {
		fmt.Fprintf(errw, "realtor-scen: %v\n", err)
		return 2
	}
	dirs, code := selectPackages(fs.Args(), *dir, *all, errw)
	if code != 0 {
		return code
	}
	failures := 0
	for _, d := range dirs {
		p, err := scenario.LoadPackage(d)
		if err != nil {
			fmt.Fprintf(errw, "realtor-scen: %v\n", err)
			return 1
		}
		res, err := scenario.Run(p, be, *shards)
		if err != nil {
			fmt.Fprintf(errw, "realtor-scen: %v\n", err)
			return 1
		}
		// In -json mode stdout carries only the canonical summary bytes
		// (scenario.EncodeSummary form, one line per package — the exact
		// bytes the daemon stores); human verdicts move to stderr.
		human := out
		if *jsonOut {
			human = errw
			if !bless {
				out.Write(scenario.EncodeSummary(res.Summary))
			}
		}
		switch {
		case bless:
			// A blessed golden must still be an oracle-clean, in-band run:
			// blessing a broken scenario would enshrine the breakage.
			if res.Outcome.Failed() || len(res.BandErrs) > 0 {
				fmt.Fprintf(human, "FAIL  %s (refusing to bless)\n%s", p.Spec.Name, res.Explain())
				failures++
				continue
			}
			if err := scenario.Bless(p, res.Summary); err != nil {
				fmt.Fprintf(errw, "realtor-scen: %v\n", err)
				return 1
			}
			fmt.Fprintf(human, "bless %s  digest %s  admission %.2f%%\n",
				p.Spec.Name, res.Summary.TraceDigest, res.Summary.AdmissionPct)
		case res.Failed():
			fmt.Fprintf(human, "FAIL  %s (%s, %d shard(s))\n%s", p.Spec.Name, res.Backend, *shards, res.Explain())
			failures++
		case !*jsonOut:
			fmt.Fprintf(human, "ok    %s (%s, %d shard(s))  admission %.2f%%  %.2f units/task\n",
				p.Spec.Name, res.Backend, *shards, res.Summary.AdmissionPct, res.Summary.UnitsPerTask)
		}
	}
	if failures > 0 {
		dest := out
		if *jsonOut {
			dest = errw
		}
		fmt.Fprintf(dest, "%d of %d package(s) failed the gate\n", failures, len(dirs))
		return 1
	}
	return 0
}

func selectPackages(names []string, root string, all bool, errw io.Writer) ([]string, int) {
	if all == (len(names) > 0) {
		fmt.Fprintln(errw, "realtor-scen: name packages or pass -all (not both, not neither)")
		return nil, 2
	}
	if all {
		dirs, err := scenario.List(root)
		if err != nil {
			fmt.Fprintf(errw, "realtor-scen: %v\n", err)
			return nil, 1
		}
		if len(dirs) == 0 {
			fmt.Fprintf(errw, "realtor-scen: no packages under %s\n", root)
			return nil, 1
		}
		return dirs, 0
	}
	dirs := make([]string, 0, len(names))
	for _, n := range names {
		dirs = append(dirs, filepath.Join(root, n))
	}
	return dirs, 0
}
