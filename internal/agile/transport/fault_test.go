package transport

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"realtor/internal/protocol"
)

// drain consumes packets from e until the deadline, returning the count.
func drainFor(e Endpoint, d time.Duration) int {
	n := 0
	deadline := time.After(d)
	for {
		select {
		case _, ok := <-e.Inbox():
			if !ok {
				return n
			}
			n++
		case <-deadline:
			return n
		}
	}
}

func TestFaultPassThroughByDefault(t *testing.T) {
	f := NewFault(NewChan(3), 1)
	defer f.Close()
	if err := f.Endpoint(0).Send(2, Packet{Disc: &protocol.Message{Kind: protocol.Pledge}}); err != nil {
		t.Fatal(err)
	}
	p := recvOne(t, f.Endpoint(2))
	if p.From != 0 || p.To != 2 || p.Disc == nil {
		t.Fatalf("pass-through packet %+v", p)
	}
	if err := f.Endpoint(1).Broadcast(Packet{}); err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{0, 2} {
		if p := recvOne(t, f.Endpoint(id)); p.From != 1 {
			t.Fatalf("endpoint %d got broadcast %+v", id, p)
		}
	}
	if f.Sent() != 3 || f.Dropped() != 0 {
		t.Fatalf("sent=%d dropped=%d, want 3/0", f.Sent(), f.Dropped())
	}
}

// Per-pair drop streams are seeded: the same seed produces the same
// delivered count, and a different seed (almost surely) a different one.
func TestFaultDropDeterministicPerSeed(t *testing.T) {
	run := func(seed int64) int {
		f := NewFault(NewChan(2), seed)
		defer f.Close()
		f.SetDefaultDrop(0.5)
		for i := 0; i < 200; i++ {
			f.Endpoint(0).Send(1, Packet{})
		}
		return drainFor(f.Endpoint(1), 50*time.Millisecond)
	}
	a, b := run(7), run(7)
	if a != b {
		t.Fatalf("same seed delivered %d vs %d", a, b)
	}
	if a == 0 || a == 200 {
		t.Fatalf("drop 0.5 delivered %d/200", a)
	}
}

func TestFaultRuleValidation(t *testing.T) {
	f := NewFault(NewChan(2), 1)
	defer f.Close()
	for _, bad := range []float64{-0.1, 1.1} {
		for _, set := range []func(float64){f.SetDefaultDrop, func(p float64) { f.SetDrop(0, 1, p) }} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("drop probability %v accepted", bad)
					}
				}()
				set(bad)
			}()
		}
	}
}

// The acceptance scenario: a FaultNetwork-wrapped UDP cluster under
// concurrent traffic survives a cut of every cross pair between two
// halves — the same drop-1 pair rules a live cut installs — and its
// heal, and tearing it down leaks no goroutines.
func TestFaultUDPCutHealNoGoroutineLeaks(t *testing.T) {
	baseline := runtime.NumGoroutine()

	udp, err := NewUDP(4)
	if err != nil {
		t.Fatal(err)
	}
	f := NewFault(udp, 42)

	const probeSeq = 1 << 40
	probed := make(chan struct{})
	var probeOnce sync.Once
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for id := 0; id < 4; id++ {
		wg.Add(2)
		go func(e Endpoint) { // sender
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				e.Send((e.ID()+1+i%3)%4, Packet{Adm: &Admission{Seq: uint64(i)}})
				time.Sleep(200 * time.Microsecond)
			}
		}(f.Endpoint(id))
		go func(e Endpoint) { // receiver
			defer wg.Done()
			for p := range e.Inbox() {
				if p.Adm != nil && p.Adm.Seq == probeSeq {
					probeOnce.Do(func() { close(probed) })
				}
			}
		}(f.Endpoint(id))
	}

	cut := func(p float64) {
		for _, a := range []int{0, 1} {
			for _, b := range []int{2, 3} {
				f.SetDrop(a, b, p)
				f.SetDrop(b, a, p)
			}
		}
	}
	time.Sleep(20 * time.Millisecond)
	cut(1)
	time.Sleep(30 * time.Millisecond)
	if f.faultDrops.Load() == 0 {
		t.Error("no drops while the halves were cut under traffic")
	}
	cut(0)

	// Post-heal cross-half delivery works. Loopback UDP may lose a
	// datagram under burst, so the probe repeats until one lands.
	deadline := time.After(2 * time.Second)
	tick := time.NewTicker(10 * time.Millisecond)
	for delivered := false; !delivered; {
		if err := f.Endpoint(0).Send(2, Packet{Adm: &Admission{Seq: probeSeq}}); err != nil {
			t.Fatalf("post-heal send failed: %v", err)
		}
		select {
		case <-probed:
			delivered = true
		case <-tick.C:
		case <-deadline:
			t.Fatal("no post-heal probe crossed the healed cut")
		}
	}
	tick.Stop()

	close(stop)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait() // receivers exit when inboxes close

	// All read loops must be gone.
	deadline2 := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline2) {
		time.Sleep(5 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > baseline {
		buf := make([]byte, 1<<16)
		t.Fatalf("goroutine leak: %d > baseline %d\n%s", g, baseline, buf[:runtime.Stack(buf, true)])
	}
}

// Regression for the ChanNetwork shutdown race: a Send concurrent with
// Close must never push into a closed inbox. Run with -race.
func TestChanCloseDeliverRace(t *testing.T) {
	for i := 0; i < 100; i++ {
		n := NewChan(2)
		var wg sync.WaitGroup
		stop := make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			e := n.Endpoint(0)
			for {
				select {
				case <-stop:
					return
				default:
					e.Send(1, Packet{})
				}
			}
		}()
		time.Sleep(100 * time.Microsecond)
		n.Close()
		close(stop)
		wg.Wait()
	}
}
