package transport

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
)

// FaultNetwork wraps any Network with seeded packet loss on each DIRECTED
// endpoint pair: a default drop probability for every pair, overridden
// per pair. It is the live-cluster counterpart of the simulator's link
// faults — a scenario's LossProb is the default, and a cut link is a
// per-pair probability of 1 — applied without touching the inner fabric.
//
// Randomness is drawn from one seeded stream per directed pair, and only
// while that pair's probability is positive, so the loss pattern each
// pair experiences is a deterministic function of (seed, pair, per-pair
// send count) regardless of how goroutines interleave across pairs.
type FaultNetwork struct {
	inner Network

	mu    sync.RWMutex // guards def, drops
	def   float64
	drops map[[2]int]float64

	rnds      []pairRand // n*n seeded streams, indexed from*n+to
	endpoints []*faultEndpoint

	faultDrops atomic.Uint64 // packets the loss layer discarded
}

type pairRand struct {
	mu sync.Mutex
	r  *rand.Rand
}

// NewFault wraps inner. The seed fixes every per-pair loss stream; no
// packet is dropped until SetDefaultDrop or SetDrop is called.
func NewFault(inner Network, seed int64) *FaultNetwork {
	n := inner.N()
	f := &FaultNetwork{
		inner: inner,
		drops: make(map[[2]int]float64),
		rnds:  make([]pairRand, n*n),
	}
	for from := 0; from < n; from++ {
		for to := 0; to < n; to++ {
			// Distinct deterministic stream per directed pair.
			f.rnds[from*n+to].r = rand.New(rand.NewSource(
				seed*1000003 + int64(from)*8191 + int64(to)))
		}
	}
	for i := 0; i < n; i++ {
		f.endpoints = append(f.endpoints, &faultEndpoint{net: f, id: i})
	}
	return f
}

func validDrop(p float64) {
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("transport: drop probability %v outside [0,1]", p))
	}
}

// SetDefaultDrop sets the drop probability of every pair without its own.
func (f *FaultNetwork) SetDefaultDrop(p float64) {
	validDrop(p)
	f.mu.Lock()
	f.def = p
	f.mu.Unlock()
}

// SetDrop overrides the drop probability of the directed pair from→to.
func (f *FaultNetwork) SetDrop(from, to int, p float64) {
	validDrop(p)
	f.mu.Lock()
	f.drops[[2]int{from, to}] = p
	f.mu.Unlock()
}

// N implements Network.
func (f *FaultNetwork) N() int { return f.inner.N() }

// Endpoint implements Network.
func (f *FaultNetwork) Endpoint(id int) Endpoint { return f.endpoints[id] }

// Sent implements Network: packets that actually entered the inner fabric.
func (f *FaultNetwork) Sent() uint64 { return f.inner.Sent() }

// Dropped implements Network: inner drops plus injected loss.
func (f *FaultNetwork) Dropped() uint64 { return f.inner.Dropped() + f.faultDrops.Load() }

// Close implements Network.
func (f *FaultNetwork) Close() error { return f.inner.Close() }

// Attach implements Network: receiving is untouched by the loss layer.
func (f *FaultNetwork) Attach(deliver func(int, Packet)) { f.inner.Attach(deliver) }

// Inline implements Network.
func (f *FaultNetwork) Inline() bool { return f.inner.Inline() }

// dropFor returns the effective drop probability for from→to.
func (f *FaultNetwork) dropFor(from, to int) float64 {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if p, ok := f.drops[[2]int{from, to}]; ok {
		return p
	}
	return f.def
}

// send draws the pair's loss and forwards a surviving packet to the
// inner endpoint. A lost packet is silent, like the real thing.
func (f *FaultNetwork) send(from, to int, p Packet) error {
	if drop := f.dropFor(from, to); drop > 0 {
		pr := &f.rnds[from*f.inner.N()+to]
		pr.mu.Lock()
		lost := pr.r.Float64() < drop
		pr.mu.Unlock()
		if lost {
			f.faultDrops.Add(1)
			return nil
		}
	}
	return f.inner.Endpoint(from).Send(to, p)
}

type faultEndpoint struct {
	net *FaultNetwork
	id  int
}

// Send implements Endpoint.
func (e *faultEndpoint) Send(to int, p Packet) error {
	if to < 0 || to >= e.net.N() {
		return fmt.Errorf("transport: no endpoint %d", to)
	}
	return e.net.send(e.id, to, p)
}

// Broadcast implements Endpoint. It iterates per-destination sends so
// each pair's loss applies independently, exactly as it would on the
// iterated-unicast fabrics underneath.
func (e *faultEndpoint) Broadcast(p Packet) error {
	var first error
	for i := 0; i < e.net.N(); i++ {
		if i == e.id {
			continue
		}
		if err := e.net.send(e.id, i, p); err != nil && first == nil {
			first = err
		}
	}
	return first
}
