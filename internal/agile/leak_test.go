package agile

import (
	"runtime"
	"testing"
	"time"

	"realtor/internal/agile/transport"
)

// TestClusterStopLeaksNoGoroutines is the shutdown regression test: a
// cluster stopped while admission negotiations are still in flight —
// timers armed, packets queued, fault-schedule timers pending — must
// release every goroutine it started. It runs under `make race` too,
// where the detector would also flag any unsynchronised teardown.
func TestClusterStopLeaksNoGoroutines(t *testing.T) {
	before := stableGoroutines(t)

	for round := 0; round < 3; round++ {
		mk, err := transport.ByName("chan")
		if err != nil {
			t.Fatal(err)
		}
		nw, err := mk(8)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.Hosts = 8
		cfg.QueueCapacity = 10
		cfg.TimeScale = 400
		// Long timeout: the negotiations started below are guaranteed to
		// still be pending when Stop runs.
		cfg.NegotiationTimeout = 10 * time.Second
		c, err := NewCluster(cfg, nw)
		if err != nil {
			t.Fatal(err)
		}

		// Saturate host 0 so follow-up submissions migrate, leaving
		// admission requests in flight across the transport.
		for i := 0; i < 40; i++ {
			c.Host(0).Submit(comp(uint64(round*100+i+1), 2, 0))
		}
		time.Sleep(20 * time.Millisecond) // let actors pick the work up mid-negotiation
		c.Stop()
	}

	// Goroutine counts wobble while the runtime retires workers; poll
	// rather than assert a single instantaneous reading.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		after := runtime.NumGoroutine()
		if after <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked across Stop: before=%d after=%d\n%s",
				before, after, buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// stableGoroutines samples the goroutine count once the runtime settles.
func stableGoroutines(t *testing.T) int {
	t.Helper()
	prev := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		time.Sleep(5 * time.Millisecond)
		cur := runtime.NumGoroutine()
		if cur == prev {
			return cur
		}
		prev = cur
	}
	return prev
}
