// Package transport provides the messaging substrate of the live Agile
// Objects runtime. The paper's implementation used IP multicast for HELP,
// UDP for PLEDGE, and TCP for admission negotiation on a 20-host cluster;
// here a Network abstracts that as per-host endpoints with unicast and
// broadcast, with two fabrics:
//
//   - Local: the in-process fabric (transport "chan", the default for
//     experiments and tests). A send hands the packet to the attached
//     delivery function at once, on the sender's goroutine, so the
//     cluster's deterministic driver can order it on its scheduler.
//   - UDPNetwork: real UDP sockets over the loopback interface, with
//     broadcast emulated by iterated unicast (the multicast substitution
//     documented in DESIGN.md). Packets are delivered from the fabric's
//     own reader goroutines.
//
// Loss and link cuts live in one place, FaultNetwork, which wraps either
// fabric with seeded per-directed-pair drop probabilities.
package transport

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"realtor/internal/protocol"
)

// Broadcast is the To value addressing every other endpoint.
const Broadcast = -1

// Admission is the admission-control negotiation payload. A request
// carries the migrating component's full state (speculative migration:
// the state travels with the negotiation, so a grant completes the move
// in a single round trip). The response reports the decision.
type Admission struct {
	Request   bool
	Seq       uint64 // correlates responses with requests
	Component uint64
	Cost      float64 // remaining execution time, seconds
	Deadline  float64
	Arrive    float64 // the component's arrival instant, for the outcome the target reports
	Version   uint64  // naming version observed by the requester
	Granted   bool    // response only
}

// Packet is the wire unit: exactly one payload field is non-nil.
type Packet struct {
	From int
	To   int // Broadcast or a host ID
	Disc *protocol.Message
	Adm  *Admission
}

// Endpoint is one host's attachment to the network.
type Endpoint interface {
	// Send unicasts p to one endpoint (From is stamped automatically).
	Send(to int, p Packet) error
	// Broadcast sends p to every other endpoint.
	Broadcast(p Packet) error
}

// Network is a cluster's message fabric.
type Network interface {
	// N returns the number of endpoints.
	N() int
	// Endpoint returns endpoint id (panics if out of range).
	Endpoint(id int) Endpoint
	// Attach installs the function every delivered packet is handed to,
	// with the endpoint it reached (a broadcast copy is addressed to
	// Broadcast). Call it once, before the first send; the fabric drops
	// what it carries until then, and after Close.
	Attach(deliver func(to int, p Packet))
	// Inline reports whether delivery runs inside Send, on the sender's
	// goroutine (the in-process fabric), rather than on goroutines of
	// the fabric's own (UDP).
	Inline() bool
	// Sent returns the total packets sent (unicast counts 1; a broadcast
	// counts one per recipient, matching the paper's link-based costing).
	Sent() uint64
	// Dropped returns packets lost to simulated loss, undecodable
	// datagrams, or sends with no delivery function.
	Dropped() uint64
	// Close tears the fabric down; nothing is delivered after it. A
	// second Close is a no-op.
	Close() error
}

// Factory builds a network with n endpoints.
type Factory func(n int) (Network, error)

// ByName returns the factory for a transport name ("chan" or "udp"),
// shared by realtor-sim's -transport flag and the live studies of
// internal/experiment.
func ByName(name string) (Factory, error) {
	switch name {
	case "chan":
		return func(n int) (Network, error) { return NewLocal(n), nil }, nil
	case "udp":
		return func(n int) (Network, error) { return NewUDP(n) }, nil
	default:
		return nil, fmt.Errorf("unknown transport %q (want chan or udp)", name)
	}
}

// Local is the in-process fabric: a send hands the packet to the
// delivery function on the sender's goroutine, before Send returns.
// Nothing is buffered, so nothing is dropped but what Close and a
// missing delivery function drop.
type Local struct {
	n       int
	deliver func(int, Packet)
	closed  atomic.Bool
	sent    atomic.Uint64
	dropped atomic.Uint64
}

// NewLocal returns an in-process network with n endpoints.
func NewLocal(n int) *Local {
	if n <= 0 {
		panic("transport: need at least one endpoint")
	}
	return &Local{n: n}
}

// N implements Network.
func (l *Local) N() int { return l.n }

// Endpoint implements Network.
func (l *Local) Endpoint(id int) Endpoint {
	if id < 0 || id >= l.n {
		panic(fmt.Sprintf("transport: no endpoint %d", id))
	}
	return localEndpoint{l, id}
}

// Attach implements Network.
func (l *Local) Attach(deliver func(int, Packet)) { l.deliver = deliver }

// Inline implements Network: delivery runs inside Send.
func (l *Local) Inline() bool { return true }

// Sent implements Network.
func (l *Local) Sent() uint64 { return l.sent.Load() }

// Dropped implements Network.
func (l *Local) Dropped() uint64 { return l.dropped.Load() }

// Close implements Network.
func (l *Local) Close() error {
	l.closed.Store(true)
	return nil
}

func (l *Local) carry(to int, p Packet) {
	if l.closed.Load() || l.deliver == nil {
		l.dropped.Add(1)
		return
	}
	l.sent.Add(1)
	l.deliver(to, p)
}

type localEndpoint struct {
	net *Local
	id  int
}

func (e localEndpoint) Send(to int, p Packet) error {
	if to < 0 || to >= e.net.n {
		return fmt.Errorf("transport: no endpoint %d", to)
	}
	p.From, p.To = e.id, to
	e.net.carry(to, p)
	return nil
}

// Broadcast addresses the copies to Broadcast, as the sockets do, and
// hands them over in endpoint order.
func (e localEndpoint) Broadcast(p Packet) error {
	p.From, p.To = e.id, Broadcast
	for i := 0; i < e.net.n; i++ {
		if i != e.id {
			e.net.carry(i, p)
		}
	}
	return nil
}

// UDPNetwork runs each endpoint on its own loopback UDP socket with
// gob-encoded packets. Broadcast iterates unicast to every peer — the
// documented stand-in for the paper's IP multicast.
type UDPNetwork struct {
	endpoints []*udpEndpoint
	addrs     []*net.UDPAddr
	deliver   atomic.Pointer[func(int, Packet)]
	sent      atomic.Uint64
	dropped   atomic.Uint64
	closed    atomic.Bool
	wg        sync.WaitGroup
}

// NewUDP binds n ephemeral loopback sockets and starts their readers,
// which hand each decoded packet to the attached delivery function.
func NewUDP(n int) (*UDPNetwork, error) {
	if n <= 0 {
		return nil, fmt.Errorf("transport: need at least one endpoint")
	}
	nw := &UDPNetwork{}
	for i := 0; i < n; i++ {
		conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			nw.Close()
			return nil, fmt.Errorf("transport: bind endpoint %d: %w", i, err)
		}
		// Large kernel buffers: the OS silently discards datagrams that
		// overflow them, which our drop counter cannot see.
		conn.SetReadBuffer(1 << 20)
		conn.SetWriteBuffer(1 << 20)
		nw.endpoints = append(nw.endpoints, &udpEndpoint{
			net: nw, id: i, conn: conn,
		})
		nw.addrs = append(nw.addrs, conn.LocalAddr().(*net.UDPAddr))
	}
	for _, e := range nw.endpoints {
		nw.wg.Add(1)
		go e.readLoop(&nw.wg)
	}
	return nw, nil
}

// N implements Network.
func (n *UDPNetwork) N() int { return len(n.endpoints) }

// Endpoint implements Network.
func (n *UDPNetwork) Endpoint(id int) Endpoint { return n.endpoints[id] }

// Sent implements Network.
func (n *UDPNetwork) Sent() uint64 { return n.sent.Load() }

// Dropped implements Network.
func (n *UDPNetwork) Dropped() uint64 { return n.dropped.Load() }

// Attach implements Network.
func (n *UDPNetwork) Attach(deliver func(int, Packet)) { n.deliver.Store(&deliver) }

// Inline implements Network: the reader goroutines deliver.
func (n *UDPNetwork) Inline() bool { return false }

// Close implements Network.
func (n *UDPNetwork) Close() error {
	if n.closed.Swap(true) {
		return nil
	}
	for _, e := range n.endpoints {
		if e != nil && e.conn != nil {
			e.conn.Close()
		}
	}
	n.wg.Wait()
	return nil
}

type udpEndpoint struct {
	net  *UDPNetwork
	id   int
	conn *net.UDPConn
}

func (e *udpEndpoint) Send(to int, p Packet) error {
	if to < 0 || to >= e.net.N() {
		return fmt.Errorf("transport: no endpoint %d", to)
	}
	p.From, p.To = e.id, to
	return e.write(to, p)
}

func (e *udpEndpoint) Broadcast(p Packet) error {
	p.From, p.To = e.id, Broadcast
	var first error
	for i := range e.net.endpoints {
		if i == e.id {
			continue
		}
		if err := e.write(i, p); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (e *udpEndpoint) write(to int, p Packet) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(p); err != nil {
		return fmt.Errorf("transport: encode: %w", err)
	}
	e.net.sent.Add(1)
	if _, err := e.conn.WriteToUDP(buf.Bytes(), e.net.addrs[to]); err != nil {
		e.net.dropped.Add(1)
		return fmt.Errorf("transport: send to %d: %w", to, err)
	}
	return nil
}

func (e *udpEndpoint) readLoop(wg *sync.WaitGroup) {
	defer wg.Done()
	buf := make([]byte, 64<<10)
	for {
		n, _, err := e.conn.ReadFromUDP(buf)
		if err != nil {
			return // closed
		}
		var p Packet
		if err := gob.NewDecoder(bytes.NewReader(buf[:n])).Decode(&p); err != nil {
			e.net.dropped.Add(1)
			continue
		}
		if d := e.net.deliver.Load(); d != nil {
			(*d)(e.id, p)
		} else {
			e.net.dropped.Add(1)
		}
	}
}
