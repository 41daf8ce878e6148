package agile

import (
	"runtime"
	"testing"
	"time"

	"realtor/internal/agile/transport"
)

// TestClusterStopLeaksNoGoroutines is the shutdown regression test: a
// wall-clock cluster (UDP, the driver that starts goroutines) stopped
// while admission negotiations are still in flight — timers armed,
// packets queued, fault-schedule timers pending — must release every
// goroutine it started. It runs under `make race` too, where the
// detector would also flag any unsynchronised teardown.
func TestClusterStopLeaksNoGoroutines(t *testing.T) {
	before := stableGoroutines(t)

	for round := 0; round < 3; round++ {
		nw, err := transport.NewUDP(8)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.Hosts = 8
		cfg.QueueCapacity = 10
		cfg.TimeScale = 400
		// Long timeout: the negotiations started below are guaranteed to
		// still be pending when Stop runs.
		cfg.NegotiationTimeout = 4000
		c, err := NewCluster(cfg, nw)
		if err != nil {
			t.Fatal(err)
		}
		c.At(1e4, func() { t.Error("fault-schedule timer fired after Stop") })

		// Saturate host 0 so follow-up submissions migrate, leaving
		// admission requests in flight across the transport.
		for i := 0; i < 40; i++ {
			c.Host(0).Submit(comp(uint64(round*100+i+1), 2, 0))
		}
		c.Advance(8) // let actors pick the work up mid-negotiation
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

// The deterministic driver runs every step on the caller's goroutine:
// a whole drive, kills and revives included, starts none.
func TestDeterministicDriverStartsNoGoroutine(t *testing.T) {
	before := stableGoroutines(t)
	cfg := fastConfig(6)
	c, err := NewCluster(cfg, transport.NewLocal(cfg.Hosts))
	if err != nil {
		t.Fatal(err)
	}
	c.At(20, c.Host(1).Kill)
	c.At(40, c.Host(1).Revive)
	peak := 0
	c.At(30, func() { peak = runtime.NumGoroutine() })
	st := drivePoisson(c, 4, 2, 60, 3)
	c.Stop()
	if st.Offered == 0 {
		t.Fatal("the drive offered no tasks")
	}
	if peak > before || runtime.NumGoroutine() > before {
		t.Fatalf("goroutines: %d before, %d mid-drive, %d after", before, peak, runtime.NumGoroutine())
	}
}
