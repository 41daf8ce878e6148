package protocol

import (
	"testing"

	"realtor/internal/sim"
	"realtor/internal/topology"
)

// BenchmarkPledgeListAdvertRound is Pure PUSH's access shape: each
// PushInterval every one of an organizer's 24 peers refreshes its entry
// with new headroom and a new timestamp, and the list is read once, as
// Candidates reads it, per round. One op is one round.
func BenchmarkPledgeListAdvertRound(b *testing.B) {
	const peers = 24
	l := NewPledgeList(100)
	for i := 0; i < peers; i++ {
		l.Update(0, topology.NodeID(i), float64(i+1))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		now := sim.Time(n + 1)
		for i := 0; i < peers; i++ {
			l.Update(now, topology.NodeID(i), float64((i*7+n)%peers+1))
		}
		l.Snapshot(now)
	}
}

// BenchmarkPledgeListDirectoryReads is the DHT home directory's access
// shape: a 1 000-entry list served to GETs far more often than PUTs
// refresh it — one write, to a rotating entry with new headroom, every
// 50 reads. One op is one read.
func BenchmarkPledgeListDirectoryReads(b *testing.B) {
	const entries, readsPerWrite = 1000, 50
	l := NewPledgeList(1e9)
	for i := 0; i < entries; i++ {
		l.Update(0, topology.NodeID(i), float64(i%97+1))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if n%readsPerWrite == 0 {
			w := n / readsPerWrite
			l.Update(sim.Time(w), topology.NodeID(w*37%entries), float64(w*13%97+1))
		}
		l.Snapshot(sim.Time(n / readsPerWrite))
	}
}
