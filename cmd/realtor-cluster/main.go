// Command realtor-cluster reproduces the paper's Figure 9: REALTOR's
// admission probability measured on a live cluster of goroutine hosts
// exchanging real messages — the stand-in for the paper's 20 Linux
// workstations (see DESIGN.md for the substitution).
//
// Usage:
//
//	realtor-cluster                        # 20 hosts, chan transport
//	realtor-cluster -transport udp         # real UDP over loopback
//	realtor-cluster -hosts 20 -queue 50 -scale 200 -duration 300
//	realtor-cluster -study deadlines       # EDF vs FIFO deadline misses
//	realtor-cluster -study attack          # kill hosts mid-run, watch recovery
//	realtor-cluster -trace run.jsonl       # record the unified event stream
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"realtor/internal/agile"
	"realtor/internal/agile/transport"
	"realtor/internal/buildinfo"
	"realtor/internal/harness"
	"realtor/internal/trace"
)

func main() {
	hosts := flag.Int("hosts", 20, "number of hosts")
	queue := flag.Float64("queue", 50, "per-host queue capacity, seconds")
	scale := flag.Float64("scale", 200, "scaled seconds per wall second")
	duration := flag.Float64("duration", 300, "scaled seconds of arrivals per lambda")
	meanSize := flag.Float64("mean", 5, "mean task size, seconds")
	lambdas := flag.String("lambdas", "1,2,3,4,5,6,7,8", "comma-separated arrival rates")
	transportName := flag.String("transport", "chan", "transport: chan, udp or tcp")
	seed := flag.Int64("seed", 1, "workload seed")
	study := flag.String("study", "fig9", "measurement: fig9 (admission), deadlines (EDF vs FIFO), or attack (live survivability)")
	slack := flag.Float64("slack", 2, "deadline slack in mean task sizes (deadlines study)")
	victims := flag.Int("victims", 5, "hosts killed in the attack study")
	traceFile := flag.String("trace", "", "write the unified harness event stream as JSON Lines to this file (same format realtor-sim -trace -json emits)")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		buildinfo.Print("realtor-cluster")
		return
	}

	cfg := agile.DefaultConfig()
	cfg.Hosts = *hosts
	cfg.QueueCapacity = *queue
	cfg.TimeScale = *scale
	cfg.NegotiationTimeout = 250 * time.Millisecond

	var traceOut *trace.JSONL
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "realtor-cluster:", err)
			os.Exit(2)
		}
		defer f.Close()
		// JSONL serializes internally; NewLocked guards any recorder that
		// does not, so the live hosts may emit concurrently either way.
		traceOut = trace.NewJSONL(f)
		cfg.Trace = trace.NewLocked(traceOut)
	}

	mk, err := transport.ByName(*transportName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "realtor-cluster:", err)
		os.Exit(2)
	}

	var ls []float64
	for _, f := range strings.Split(*lambdas, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil || v <= 0 {
			fmt.Fprintf(os.Stderr, "realtor-cluster: bad lambda %q\n", f)
			os.Exit(2)
		}
		ls = append(ls, v)
	}

	switch *study {
	case "fig9":
		fmt.Printf("# Figure 9: live Agile Objects cluster, %d hosts, queue=%gs,\n", *hosts, *queue)
		fmt.Printf("# task mean=%gs, transport=%s, time scale=%gx, %gs of arrivals per point\n",
			*meanSize, *transportName, *scale, *duration)
		points, err := agile.RunFigure9(cfg, ls, *meanSize, *duration, *seed, mk)
		if err != nil {
			fmt.Fprintln(os.Stderr, "realtor-cluster:", err)
			os.Exit(1)
		}
		fmt.Print(agile.F9Table(points))
	case "deadlines":
		fmt.Printf("# Deadline study (A6): EDF vs FIFO, %d hosts, queue=%gs,\n", *hosts, *queue)
		fmt.Printf("# slack=%g mean sizes, transport=%s\n", *slack, *transportName)
		results, err := agile.RunDeadlineStudy(cfg, ls, *meanSize, *slack, *duration, *seed, mk)
		if err != nil {
			fmt.Fprintln(os.Stderr, "realtor-cluster:", err)
			os.Exit(1)
		}
		fmt.Print(agile.DeadlineTable(results))
	case "attack":
		if *victims >= *hosts {
			fmt.Fprintln(os.Stderr, "realtor-cluster: cannot kill every host")
			os.Exit(2)
		}
		ids := make([]int, *victims)
		for i := range ids {
			ids[i] = i
		}
		st := harness.AttackStudy{Victims: ids, KillAt: *duration / 3, ReviveAt: 2 * *duration / 3}
		lambda := ls[len(ls)-1] // use the highest requested rate
		fmt.Printf("# Live survivability: %d hosts, %d killed during the middle third,\n",
			*hosts, *victims)
		fmt.Printf("# λ=%g, task mean=%gs, transport=%s\n", lambda, *meanSize, *transportName)
		res, err := harness.RunLiveAttack(cfg, st, lambda, *meanSize, *duration,
			*duration/10, *seed, mk)
		if err != nil {
			fmt.Fprintln(os.Stderr, "realtor-cluster:", err)
			os.Exit(1)
		}
		fmt.Print(harness.AttackTable(res, *duration/10))
	default:
		fmt.Fprintf(os.Stderr, "realtor-cluster: unknown study %q\n", *study)
		os.Exit(2)
	}

	if traceOut != nil {
		if err := traceOut.Err(); err != nil {
			fmt.Fprintln(os.Stderr, "realtor-cluster: trace:", err)
			os.Exit(1)
		}
	}
}
