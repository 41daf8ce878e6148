// Package transport provides the messaging substrate of the live Agile
// Objects runtime. The paper's implementation used IP multicast for HELP,
// UDP for PLEDGE, and TCP for admission negotiation on a 20-host cluster;
// here a Network abstracts that as per-host endpoints with unicast and
// broadcast, with two fabrics:
//
//   - ChanNetwork: a plain in-process channel pipe (the default for
//     experiments and tests — fast, and lossless unless an inbox fills).
//   - UDPNetwork: real UDP sockets over the loopback interface, with
//     broadcast emulated by iterated unicast (the multicast substitution
//     documented in DESIGN.md).
//
// Loss and link cuts live in one place, FaultNetwork, which wraps either
// fabric with seeded per-directed-pair drop probabilities.
//
// Both fabrics drop packets rather than block when a receiver's inbox is
// full — the same best-effort semantics as the UDP substrate they stand
// in for.
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
	// ID returns the endpoint's host ID.
	ID() int
	// Send unicasts p to one endpoint (From is stamped automatically).
	Send(to int, p Packet) error
	// Broadcast sends p to every other endpoint.
	Broadcast(p Packet) error
	// Inbox delivers incoming packets. It is closed by Network.Close.
	Inbox() <-chan Packet
}

// Network is a cluster's message fabric.
type Network interface {
	// N returns the number of endpoints.
	N() int
	// Endpoint returns endpoint id (panics if out of range).
	Endpoint(id int) Endpoint
	// Sent returns the total packets sent (unicast counts 1; a broadcast
	// counts one per recipient, matching the paper's link-based costing).
	Sent() uint64
	// Dropped returns packets lost to full inboxes or simulated loss.
	Dropped() uint64
	// Close tears the fabric down and closes all inboxes.
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
		return func(n int) (Network, error) { return NewChan(n), nil }, nil
	case "udp":
		return func(n int) (Network, error) { return NewUDP(n) }, nil
	default:
		return nil, fmt.Errorf("unknown transport %q (want chan or udp)", name)
	}
}

const inboxDepth = 4096

// ChanNetwork is the in-process implementation: a send lands in the
// receiver's buffered inbox at once, or is dropped if the inbox is full.
type ChanNetwork struct {
	endpoints []*chanEndpoint

	sent    atomic.Uint64
	dropped atomic.Uint64

	// closeMu fences the inboxes: deliver holds it for reading across
	// its closed check and push, and Close takes it for writing before
	// closing them, so a send can never hit a closed inbox.
	closeMu sync.RWMutex
	closed  bool
}

// NewChan returns an in-process network with n endpoints.
func NewChan(n int) *ChanNetwork {
	if n <= 0 {
		panic("transport: need at least one endpoint")
	}
	net := &ChanNetwork{}
	for i := 0; i < n; i++ {
		net.endpoints = append(net.endpoints, &chanEndpoint{
			net: net, id: i, inbox: make(chan Packet, inboxDepth),
		})
	}
	return net
}

// N implements Network.
func (n *ChanNetwork) N() int { return len(n.endpoints) }

// Endpoint implements Network.
func (n *ChanNetwork) Endpoint(id int) Endpoint { return n.endpoints[id] }

// Sent implements Network.
func (n *ChanNetwork) Sent() uint64 { return n.sent.Load() }

// Dropped implements Network.
func (n *ChanNetwork) Dropped() uint64 { return n.dropped.Load() }

// Close implements Network.
func (n *ChanNetwork) Close() error {
	n.closeMu.Lock()
	defer n.closeMu.Unlock()
	if n.closed {
		return nil
	}
	n.closed = true
	for _, e := range n.endpoints {
		close(e.inbox)
	}
	return nil
}

func (n *ChanNetwork) deliver(to int, p Packet) {
	n.closeMu.RLock()
	defer n.closeMu.RUnlock()
	if n.closed {
		n.dropped.Add(1)
		return
	}
	n.sent.Add(1)
	select {
	case n.endpoints[to].inbox <- p:
	default:
		n.dropped.Add(1)
	}
}

type chanEndpoint struct {
	net   *ChanNetwork
	id    int
	inbox chan Packet
}

func (e *chanEndpoint) ID() int { return e.id }

func (e *chanEndpoint) Send(to int, p Packet) error {
	if to < 0 || to >= e.net.N() {
		return fmt.Errorf("transport: no endpoint %d", to)
	}
	p.From, p.To = e.id, to
	e.net.deliver(to, p)
	return nil
}

func (e *chanEndpoint) Broadcast(p Packet) error {
	p.From, p.To = e.id, Broadcast
	for i := range e.net.endpoints {
		if i != e.id {
			e.net.deliver(i, p)
		}
	}
	return nil
}

func (e *chanEndpoint) Inbox() <-chan Packet { return e.inbox }

// UDPNetwork runs each endpoint on its own loopback UDP socket with
// gob-encoded packets. Broadcast iterates unicast to every peer — the
// documented stand-in for the paper's IP multicast.
type UDPNetwork struct {
	endpoints []*udpEndpoint
	addrs     []*net.UDPAddr
	sent      atomic.Uint64
	dropped   atomic.Uint64
	closed    atomic.Bool
	wg        sync.WaitGroup
}

// NewUDP binds n ephemeral loopback sockets and starts their readers.
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
			net: nw, id: i, conn: conn, inbox: make(chan Packet, inboxDepth),
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
	for _, e := range n.endpoints {
		close(e.inbox)
	}
	return nil
}

type udpEndpoint struct {
	net   *UDPNetwork
	id    int
	conn  *net.UDPConn
	inbox chan Packet
}

func (e *udpEndpoint) ID() int { return e.id }

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
		select {
		case e.inbox <- p:
		default:
			e.net.dropped.Add(1)
		}
	}
}

func (e *udpEndpoint) Inbox() <-chan Packet { return e.inbox }
