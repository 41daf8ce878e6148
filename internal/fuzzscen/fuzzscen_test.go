package fuzzscen

import (
	"encoding/json"
	"hash/fnv"
	"testing"
)

// smokeSeeds is how many generated scenarios the package tests sweep.
// The CLI's fuzz-smoke target runs far more; this is the fast tier-1
// floor.
const smokeSeeds = 25

func TestGenerateIsDeterministicAndValid(t *testing.T) {
	for seed := int64(1); seed <= smokeSeeds; seed++ {
		a, b := Generate(seed), Generate(seed)
		if a.JSON() != b.JSON() {
			t.Fatalf("seed %d: generation not deterministic", seed)
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("seed %d: generated invalid scenario: %v\n%s", seed, err, a.JSON())
		}
	}
}

// generateStream is the FNV-64a hash of the compact JSON of
// Generate(1..500), one line per seed. It was taken from the generator
// that still drew the retired traffic-protection middleware, with those
// draws' fields cleared before encoding: Generate must keep making the
// same draws, or every seed's scenario, pinned violation list and
// mutant catch rate moves.
const generateStream = 0x597dc910e8758fa8

func TestGenerateStreamPinned(t *testing.T) {
	h := fnv.New64a()
	for seed := int64(1); seed <= 500; seed++ {
		b, err := json.Marshal(Generate(seed))
		if err != nil {
			t.Fatal(err)
		}
		h.Write(b)
		h.Write([]byte{'\n'})
	}
	if got := h.Sum64(); got != generateStream {
		t.Fatalf("Generate(1..500) hashes to %#x, want %#x: the draw stream moved", got, generateStream)
	}
}

func TestDifferentialFastVsReference(t *testing.T) {
	for seed := int64(1); seed <= smokeSeeds; seed++ {
		if why, ok := Differential(Generate(seed)); !ok {
			t.Errorf("seed %d: fast and reference diverge: %s\n%s",
				seed, why, Generate(seed).JSON())
		}
	}
}

// TestDifferentialSharded runs the fast-vs-reference differential on
// the conservative-parallel kernel: both twins replay sharded, and the
// seeds that exercised global-event floods (exhaust attacks routing
// cross-shard mail through a barrier) are inside the sweep. Divergence
// here means the sharded kernel reordered decisions.
func TestDifferentialSharded(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		for _, shards := range []int{2, 4} {
			if why, ok := DifferentialShards(Generate(seed), shards); !ok {
				t.Errorf("seed %d shards %d: fast and reference diverge: %s\n%s",
					seed, shards, why, Generate(seed).JSON())
			}
		}
	}
}

func TestMetamorphicRelations(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		s := Generate(seed)
		if why, ok := CheckRelabel(s, seed+1000); !ok {
			t.Errorf("seed %d relabel: %s\n%s", seed, why, s.JSON())
		}
		if why, ok := CheckCapacity(s); !ok {
			t.Errorf("seed %d capacity: %s\n%s", seed, why, s.JSON())
		}
		if why, ok := CheckFloodScope(s); !ok {
			t.Errorf("seed %d flood scope: %s\n%s", seed, why, s.JSON())
		}
	}
}

func TestShrinkLeavesPassingScenarioAlone(t *testing.T) {
	s := Generate(7)
	got := Shrink(s, func(Scenario) bool { return false })
	if got.JSON() != s.JSON() {
		t.Fatal("shrinking a non-failing scenario changed it")
	}
}
