// Command realtor-report regenerates the full experiment suite into a
// results directory: every entry of the study catalogue
// (internal/experiment.Catalogue — the table `realtor-sim -fig` prints
// from) plus the three live-cluster studies, each as a standalone text
// file, with an index. It is what produced the checked-in results/
// directory.
//
// Usage:
//
//	realtor-report                  # full-scale runs into ./results
//	realtor-report -quick           # shorter runs (CI-sized)
//	realtor-report -out /tmp/res    # elsewhere
//	realtor-report -parallel 8      # fan simulation cells over 8 workers
//
// The simulator studies fan their independent runs over -parallel worker
// goroutines (default GOMAXPROCS); outputs are byte-identical for any
// worker count, so regenerated results never churn from parallelism.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"realtor/internal/agile"
	"realtor/internal/agile/transport"
	"realtor/internal/buildinfo"
	"realtor/internal/experiment"
	"realtor/internal/harness"
)

// liveFiles are the studies that run on the live Agile cluster, not the
// simulator, and so stay out of the catalogue.
var liveFiles = []string{"figure_9.txt", "deadlines.txt", "live_attack.txt"}

// resultFiles lists everything a run writes next to INDEX.md: the
// catalogue's files, then the live ones.
func resultFiles() []string {
	var files []string
	for _, s := range experiment.Catalogue() {
		if s.File != "" {
			files = append(files, s.File)
		}
	}
	return append(files, liveFiles...)
}

func main() {
	out := flag.String("out", "results", "output directory")
	quick := flag.Bool("quick", false, "shorter runs")
	seed := flag.Int64("seed", 1, "base seed")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0),
		"worker goroutines for independent simulator runs")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		buildinfo.Print("realtor-report")
		return
	}
	experiment.SetParallelism(*parallel)
	stopProfiles, err := experiment.StartProfiles(*cpuprofile, *memprofile)
	check(err)
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintln(os.Stderr, "realtor-report:", err)
		}
	}()

	check(os.MkdirAll(*out, 0o755))
	write := func(name, content string) {
		path := filepath.Join(*out, name)
		check(os.WriteFile(path, []byte(content), 0o644))
		fmt.Println("wrote", path)
	}

	for _, s := range experiment.Catalogue() {
		if s.File == "" {
			continue
		}
		content, err := s.Run(experiment.Options{Seed: *seed, Quick: *quick})
		check(err)
		write(s.File, content)
	}

	liveDur, liveScale := 300.0, 100.0
	if *quick {
		liveDur, liveScale = 150, 400
	}
	mk, err := transport.ByName("chan")
	check(err)
	acfg := agile.DefaultConfig()
	acfg.TimeScale = liveScale
	acfg.NegotiationTimeout = 250 * time.Millisecond
	f9, err := agile.RunFigure9(acfg, []float64{1, 2, 3, 4, 5, 6, 7, 8}, 5, liveDur, *seed, mk)
	check(err)
	write("figure_9.txt",
		fmt.Sprintf("# Figure 9: live cluster, %d hosts, queue=%gs, %gx scale\n%s",
			acfg.Hosts, acfg.QueueCapacity, acfg.TimeScale, agile.F9Table(f9)))

	dl, err := agile.RunDeadlineStudy(acfg, []float64{1.8, 2.2, 2.6}, 5, 3, liveDur, *seed, mk)
	check(err)
	write("deadlines.txt", "# A6 EDF vs FIFO on the live runtime, mixed-urgency deadlines\n"+
		agile.DeadlineTable(dl))

	lcfg := acfg
	lcfg.Hosts = 12
	att, err := harness.RunLiveAttack(lcfg,
		harness.AttackStudy{Victims: []int{0, 1, 2, 3}, KillAt: liveDur / 3, ReviveAt: 2 * liveDur / 3},
		4, 5, liveDur, liveDur/10, *seed, mk)
	check(err)
	write("live_attack.txt", "# L1 live survivability: 4 of 12 hosts down for the middle third\n"+
		harness.AttackTable(att, liveDur/10))

	write("INDEX.md", "# Experiment outputs\n\n"+
		"Regenerate everything with: go run ./cmd/realtor-report\n\n"+
		"- "+strings.Join(resultFiles(), "\n- ")+"\n")
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "realtor-report:", err)
		os.Exit(1)
	}
}
