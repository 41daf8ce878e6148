package experiment

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// StartProfiles begins CPU profiling into file cpu (if non-empty) and
// returns a stop function that finishes the CPU profile and writes a
// heap profile to file mem (if non-empty). Call stop exactly once,
// after the workload. Both drivers' -cpuprofile/-memprofile flags land
// here.
func StartProfiles(cpu, mem string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpu != "" {
		if cpuFile, err = os.Create(cpu); err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return fmt.Errorf("cpuprofile: %w", err)
			}
		}
		if mem == "" {
			return nil
		}
		f, err := os.Create(mem)
		if err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		runtime.GC() // up-to-date allocation data
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("memprofile: %w", err)
		}
		return f.Close()
	}, nil
}
