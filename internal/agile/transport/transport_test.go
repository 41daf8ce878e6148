package transport

import (
	"testing"
	"time"

	"realtor/internal/protocol"
)

func recvOne(t *testing.T, e Endpoint) Packet {
	t.Helper()
	select {
	case p := <-e.Inbox():
		return p
	case <-time.After(2 * time.Second):
		t.Fatal("timeout waiting for packet")
		return Packet{}
	}
}

func networks(t *testing.T, n int) map[string]Network {
	t.Helper()
	udp, err := NewUDP(n)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Network{
		"chan":  NewChan(n),
		"udp":   udp,
		"fault": NewFault(NewChan(n), 1), // loss layer, no drops set: pass-through
	}
}

func TestUnicastBothImplementations(t *testing.T) {
	for name, nw := range networks(t, 3) {
		t.Run(name, func(t *testing.T) {
			defer nw.Close()
			msg := &protocol.Message{Kind: protocol.Pledge, From: 0, Headroom: 42}
			if err := nw.Endpoint(0).Send(2, Packet{Disc: msg}); err != nil {
				t.Fatal(err)
			}
			p := recvOne(t, nw.Endpoint(2))
			if p.From != 0 || p.To != 2 {
				t.Fatalf("addressing %+v", p)
			}
			if p.Disc == nil || p.Disc.Headroom != 42 || p.Disc.Kind != protocol.Pledge {
				t.Fatalf("payload %+v", p.Disc)
			}
		})
	}
}

func TestBroadcastBothImplementations(t *testing.T) {
	for name, nw := range networks(t, 4) {
		t.Run(name, func(t *testing.T) {
			defer nw.Close()
			msg := &protocol.Message{Kind: protocol.Help, From: 1}
			if err := nw.Endpoint(1).Broadcast(Packet{Disc: msg}); err != nil {
				t.Fatal(err)
			}
			for _, id := range []int{0, 2, 3} {
				p := recvOne(t, nw.Endpoint(id))
				if p.From != 1 || p.Disc.Kind != protocol.Help {
					t.Fatalf("endpoint %d got %+v", id, p)
				}
			}
			// Sender must not hear its own broadcast.
			select {
			case p := <-nw.Endpoint(1).Inbox():
				t.Fatalf("sender received own broadcast: %+v", p)
			case <-time.After(50 * time.Millisecond):
			}
		})
	}
}

func TestAdmissionPayloadRoundTrip(t *testing.T) {
	for name, nw := range networks(t, 2) {
		t.Run(name, func(t *testing.T) {
			defer nw.Close()
			adm := &Admission{Request: true, Seq: 7, Component: 99, Cost: 3.5,
				Deadline: 12, Version: 4}
			if err := nw.Endpoint(0).Send(1, Packet{Adm: adm}); err != nil {
				t.Fatal(err)
			}
			p := recvOne(t, nw.Endpoint(1))
			if p.Adm == nil || *p.Adm != *adm {
				t.Fatalf("admission round trip: %+v", p.Adm)
			}
		})
	}
}

func TestInvalidDestination(t *testing.T) {
	for name, nw := range networks(t, 2) {
		t.Run(name, func(t *testing.T) {
			defer nw.Close()
			if err := nw.Endpoint(0).Send(5, Packet{}); err == nil {
				t.Fatal("send to unknown endpoint succeeded")
			}
			if err := nw.Endpoint(0).Send(-1, Packet{}); err == nil {
				t.Fatal("send to -1 succeeded")
			}
		})
	}
}

func TestSentCounters(t *testing.T) {
	nw := NewChan(5)
	defer nw.Close()
	nw.Endpoint(0).Send(1, Packet{})
	nw.Endpoint(0).Broadcast(Packet{})
	if nw.Sent() != 1+4 {
		t.Fatalf("sent %d, want 5", nw.Sent())
	}
}

func TestCloseIdempotentAndClosesInboxes(t *testing.T) {
	for name, nw := range networks(t, 2) {
		t.Run(name, func(t *testing.T) {
			if err := nw.Close(); err != nil {
				t.Fatal(err)
			}
			if err := nw.Close(); err != nil {
				t.Fatal(err)
			}
			if _, open := <-nw.Endpoint(0).Inbox(); open {
				t.Fatal("inbox still open after close")
			}
		})
	}
}

func TestUDPManyPacketsNoCorruption(t *testing.T) {
	nw, err := NewUDP(2)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	const count = 500
	go func() {
		for i := 0; i < count; i++ {
			nw.Endpoint(0).Send(1, Packet{Adm: &Admission{Seq: uint64(i)}})
			if i%50 == 49 {
				time.Sleep(time.Millisecond) // don't outrun the kernel buffer
			}
		}
	}()
	seen := 0
	deadline := time.After(5 * time.Second)
	for seen < count {
		select {
		case p := <-nw.Endpoint(1).Inbox():
			if p.Adm == nil {
				t.Fatal("corrupted packet")
			}
			seen++
		case <-deadline:
			// UDP over loopback may legitimately drop under burst; accept
			// a high delivery fraction plus consistent drop accounting.
			if uint64(seen)+nw.Dropped() < count {
				t.Fatalf("delivered %d + dropped %d < sent %d", seen, nw.Dropped(), count)
			}
			return
		}
	}
}
