package transport

import (
	"strings"
	"testing"
	"time"
)

// TestEveryKnownTransport exercises each switch arm of ByName: the factory
// must build a fabric with the requested endpoint count and the fabric
// must actually carry a packet end to end (loopback sockets for udp,
// channels for chan).
func TestEveryKnownTransport(t *testing.T) {
	for _, name := range []string{"chan", "udp"} {
		name := name
		t.Run(name, func(t *testing.T) {
			mk, err := ByName(name)
			if err != nil {
				t.Fatalf("ByName(%q): %v", name, err)
			}
			nw, err := mk(3)
			if err != nil {
				t.Fatalf("%s: building 3 endpoints: %v", name, err)
			}
			defer nw.Close()
			if nw.N() != 3 {
				t.Fatalf("%s: endpoints %d, want 3", name, nw.N())
			}

			// Round-trip one admission packet 0→2.
			want := Packet{Adm: &Admission{Request: true, Seq: 7, Cost: 1.5}}
			if err := nw.Endpoint(0).Send(2, want); err != nil {
				t.Fatalf("%s: send: %v", name, err)
			}
			select {
			case got, ok := <-nw.Endpoint(2).Inbox():
				if !ok {
					t.Fatalf("%s: inbox closed before delivery", name)
				}
				if got.From != 0 || got.Adm == nil || got.Adm.Seq != 7 {
					t.Fatalf("%s: delivered %+v, want From=0 Seq=7", name, got)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("%s: packet never delivered", name)
			}

			if nw.Sent() == 0 {
				t.Fatalf("%s: Sent() == 0 after a send", name)
			}
		})
	}
}

// TestUnknownTransport covers the default arm: a helpful error naming
// the offender and the accepted values, and no factory.
func TestUnknownTransport(t *testing.T) {
	mk, err := ByName("carrier-pigeon")
	if err == nil {
		t.Fatal("unknown transport accepted")
	}
	if mk != nil {
		t.Fatal("error case returned a non-nil factory")
	}
	for _, frag := range []string{"carrier-pigeon", "chan", "udp"} {
		if !strings.Contains(err.Error(), frag) {
			t.Fatalf("error %q does not mention %q", err, frag)
		}
	}
	if _, err := ByName("tcp"); err == nil {
		t.Fatal("tcp accepted; udp is the one socket transport")
	}
}
