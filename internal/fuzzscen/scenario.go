// Package fuzzscen is the deterministic scenario fuzzer: it generates
// whole simulation scenarios — topology, protocol parameters, workload,
// and a fault schedule drawn from the attack package — from a single
// seed, runs them under the invariant oracle and the differential
// checker of internal/check, and shrinks failing scenarios to minimal
// replayable counterexamples.
//
// A Scenario is plain data, stored as the scenario of a package
// (internal/scenario), which is the form `realtor-scen fuzz` writes a
// counterexample in and `realtor-scen run` replays bit-exactly.
// Everything downstream of the Scenario struct is a pure function of its
// fields: Graph(), Workload(), Attacks(), and the two config
// constructors rebuild identical objects on every call.
package fuzzscen

import (
	"encoding/json"
	"fmt"

	"realtor/internal/attack"
	"realtor/internal/engine"
	"realtor/internal/protocol"
	"realtor/internal/protocol/hier"
	"realtor/internal/rng"
	"realtor/internal/sim"
	"realtor/internal/topology"
	"realtor/internal/workload"
)

// Event is one scheduled fault in a scenario. Op selects the attack
// kind; the remaining fields are interpreted per op (see Attacks):
//
//	kill     Node down at At; revived at Until when Until > At.
//	cut      link A–B cut at At; restored at Until when Until > At.
//	flap     Node cycles Down seconds dead / Up seconds alive on
//	         [At, Until).
//	exhaust  Node's queue stuffed with Chunk bogus seconds every
//	         Interval on [At, Until).
//	churn    a random live link (drawn from Seed) cut every Interval on
//	         [At, Until), healing after Down seconds.
type Event struct {
	Op       string  `json:"op"`
	At       float64 `json:"at"`
	Until    float64 `json:"until,omitempty"`
	Node     int     `json:"node,omitempty"`
	A        int     `json:"a,omitempty"`
	B        int     `json:"b,omitempty"`
	Down     float64 `json:"down,omitempty"`
	Up       float64 `json:"up,omitempty"`
	Interval float64 `json:"interval,omitempty"`
	Chunk    float64 `json:"chunk,omitempty"`
	Seed     int64   `json:"seed,omitempty"`
}

// Scenario is one fully specified fuzz case. All fields are data; the
// struct round-trips through JSON without loss.
type Scenario struct {
	// Seed is the generator seed this scenario came from (0 for
	// hand-built scenarios). Informational: replay uses the fields
	// below, never regenerates.
	Seed int64 `json:"seed"`

	// Topology: "mesh" | "torus" | "ring" | "random".
	Topology string  `json:"topology"`
	Rows     int     `json:"rows,omitempty"` // mesh, torus
	Cols     int     `json:"cols,omitempty"` // mesh, torus
	N        int     `json:"n,omitempty"`    // ring, random
	EdgeProb float64 `json:"edge_prob,omitempty"`
	TopoSeed int64   `json:"topo_seed,omitempty"`

	// Engine parameters.
	Duration      float64 `json:"duration"`
	QueueCapacity float64 `json:"queue_capacity"`
	HopDelay      float64 `json:"hop_delay"`
	LossProb      float64 `json:"loss_prob,omitempty"`
	MaxTries      int     `json:"max_tries,omitempty"`
	FloodRadius   int     `json:"flood_radius,omitempty"`
	EngineSeed    int64   `json:"engine_seed"`

	// Protocol parameters (unlisted protocol.Config fields keep their
	// defaults). TTLs are generated short relative to Duration so the
	// soft-state expiry paths actually run.
	Threshold      float64 `json:"threshold"`
	EntryTTL       float64 `json:"entry_ttl"`
	MembershipTTL  float64 `json:"membership_ttl"`
	MaxMemberships int     `json:"max_memberships"`
	Alpha          float64 `json:"alpha"`
	Beta           float64 `json:"beta"`
	PledgeWait     float64 `json:"pledge_wait"`
	HelpInit       float64 `json:"help_init"`

	// Discovery selects the protocol under test: "" (REALTOR, the
	// default), "dht" (the Chord-style overlay), "hier" (k-level
	// hierarchical REALTOR, which also scopes engine floods to its
	// level-0 communities), or "fed" (the same hierarchy at depth 1:
	// one-level federation over contiguous neighbor groups). The
	// fast-vs-reference differential and the label-sensitive metamorphic
	// relations stay REALTOR-only — overlay scenarios exercise the
	// invariant oracle and the engine instead.
	Discovery string `json:"discovery,omitempty"`

	// Workload: Poisson arrivals at Lambda tasks/s of mean size
	// MeanSize seconds, uniformly over the nodes — unless Load is set,
	// which replaces the whole generator with a declarative spec
	// (MMPP, on/off bursts, diurnal, heavy tail, hot-spot skew; see
	// workload.Spec). Lambda/MeanSize are ignored when Load is set.
	Lambda   float64        `json:"lambda"`
	MeanSize float64        `json:"mean_size"`
	WorkSeed int64          `json:"work_seed"`
	Load     *workload.Spec `json:"load,omitempty"`

	// Capacities, when non-empty, assigns heterogeneous per-node queue
	// capacities: entry i%len(Capacities) goes to node i, so a short
	// list tiles a striped capacity profile over any mesh. Sim backend
	// only — the live cluster's hosts share one QueueCapacity.
	Capacities []float64 `json:"capacities,omitempty"`

	// Events is the fault schedule.
	Events []Event `json:"events,omitempty"`
}

// minDHTEntryTTL bounds the work a DHT spec can ask for: the DHT
// republishes every entry_ttl/2. It sits below the generator's minTTL.
const minDHTEntryTTL = 1

// Validate reports the first structurally invalid field, or nil. Engine
// and protocol parameters that engine.New or the protocol constructors
// would panic on, and self-link cuts, fail here, at decode time, instead
// of mid-run.
func (s Scenario) Validate() error {
	switch s.Topology {
	case "mesh", "torus":
		if s.Rows < 1 || s.Cols < 1 || s.Rows*s.Cols < 2 {
			return fmt.Errorf("fuzzscen: %s %dx%d too small", s.Topology, s.Rows, s.Cols)
		}
	case "ring", "random":
		if s.N < 2 {
			return fmt.Errorf("fuzzscen: %s with %d nodes", s.Topology, s.N)
		}
	default:
		return fmt.Errorf("fuzzscen: unknown topology %q", s.Topology)
	}
	switch {
	case s.Duration <= 0:
		return fmt.Errorf("fuzzscen: duration %v", s.Duration)
	case s.QueueCapacity <= 0:
		return fmt.Errorf("fuzzscen: queue capacity %v", s.QueueCapacity)
	case s.HopDelay < 0:
		return fmt.Errorf("fuzzscen: hop_delay %v is negative", s.HopDelay)
	case s.LossProb < 0 || s.LossProb > 1:
		return fmt.Errorf("fuzzscen: loss_prob %v outside [0,1]", s.LossProb)
	case s.MaxTries < 0:
		return fmt.Errorf("fuzzscen: max_tries %d is negative", s.MaxTries)
	case s.Threshold <= 0 || s.Threshold > 1:
		return fmt.Errorf("fuzzscen: threshold %v", s.Threshold)
	case s.Load == nil && (s.Lambda <= 0 || s.MeanSize <= 0):
		return fmt.Errorf("fuzzscen: workload lambda=%v meanSize=%v", s.Lambda, s.MeanSize)
	}
	if err := s.ProtocolConfig().Validate(); err != nil {
		return fmt.Errorf("fuzzscen: protocol parameters: %w", err)
	}
	switch s.Discovery {
	case "", "hier", "fed":
	case "dht":
		if s.EntryTTL < minDHTEntryTTL {
			return fmt.Errorf("fuzzscen: entry_ttl %v below %v s: the DHT republishes every entry_ttl/2", s.EntryTTL, minDHTEntryTTL)
		}
	default:
		return fmt.Errorf("fuzzscen: unknown discovery protocol %q", s.Discovery)
	}
	n := s.Nodes()
	if s.Load != nil {
		if err := s.Load.Validate(n); err != nil {
			return fmt.Errorf("fuzzscen: %w", err)
		}
	}
	for i, c := range s.Capacities {
		if c <= 0 {
			return fmt.Errorf("fuzzscen: capacity %d is %v, want positive", i, c)
		}
	}
	for i, ev := range s.Events {
		switch ev.Op {
		case "kill", "flap", "exhaust":
			if ev.Node < 0 || ev.Node >= n {
				return fmt.Errorf("fuzzscen: event %d targets node %d of %d", i, ev.Node, n)
			}
		case "cut":
			if ev.A < 0 || ev.A >= n || ev.B < 0 || ev.B >= n {
				return fmt.Errorf("fuzzscen: event %d cuts %d-%d of %d nodes", i, ev.A, ev.B, n)
			}
			if ev.A == ev.B {
				return fmt.Errorf("fuzzscen: event %d cuts self-link %d-%d", i, ev.A, ev.B)
			}
		case "churn":
			// no node reference
		default:
			return fmt.Errorf("fuzzscen: event %d has unknown op %q", i, ev.Op)
		}
		if (ev.Op == "flap" || ev.Op == "churn") && ev.Down <= 0 {
			return fmt.Errorf("fuzzscen: event %d needs positive down-time", i)
		}
		if ev.Op == "flap" && ev.Up <= 0 {
			return fmt.Errorf("fuzzscen: event %d needs positive up-time", i)
		}
		if (ev.Op == "exhaust" || ev.Op == "churn") && ev.Interval <= 0 {
			return fmt.Errorf("fuzzscen: event %d needs positive interval", i)
		}
		if ev.Op == "exhaust" && ev.Chunk <= 0 {
			return fmt.Errorf("fuzzscen: event %d needs positive chunk", i)
		}
	}
	return nil
}

// Nodes returns the node count without building the graph.
func (s Scenario) Nodes() int {
	if s.Topology == "mesh" || s.Topology == "torus" {
		return s.Rows * s.Cols
	}
	return s.N
}

// Graph rebuilds the scenario's topology. Deterministic: the random
// topology is drawn from TopoSeed, never from the generator stream.
func (s Scenario) Graph() *topology.Graph {
	switch s.Topology {
	case "mesh":
		return topology.Mesh(s.Rows, s.Cols)
	case "torus":
		return topology.Torus(s.Rows, s.Cols)
	case "ring":
		return topology.Ring(s.N)
	case "random":
		return topology.Random(s.N, s.EdgeProb, rng.New(s.TopoSeed).Derive("topo"))
	}
	panic("fuzzscen: unknown topology " + s.Topology)
}

// ProtocolConfig maps the scenario onto protocol.Config, leaving
// unfuzzed fields at their paper defaults.
func (s Scenario) ProtocolConfig() protocol.Config {
	cfg := protocol.DefaultConfig()
	cfg.Threshold = s.Threshold
	cfg.EntryTTL = sim.Time(s.EntryTTL)
	cfg.MembershipTTL = sim.Time(s.MembershipTTL)
	cfg.MaxMemberships = s.MaxMemberships
	cfg.Alpha = s.Alpha
	cfg.Beta = s.Beta
	if s.PledgeWait > 0 {
		cfg.PledgeWait = sim.Time(s.PledgeWait)
	}
	if s.HelpInit > 0 {
		cfg.HelpInit = sim.Time(s.HelpInit)
	}
	return cfg
}

// EngineConfig maps the scenario onto engine.Config for the given
// (freshly built) graph. Trace and Observer are left nil for the caller
// to wire.
func (s Scenario) EngineConfig(g *topology.Graph) engine.Config {
	cfg := engine.Config{
		Graph:         g,
		QueueCapacity: s.QueueCapacity,
		HopDelay:      sim.Time(s.HopDelay),
		Threshold:     s.Threshold,
		Duration:      sim.Time(s.Duration),
		LossProb:      s.LossProb,
		MaxTries:      s.MaxTries,
		FloodRadius:   s.FloodRadius,
		Seed:          s.EngineSeed,
	}
	if s.Discovery == "hier" || s.Discovery == "fed" {
		// Both overlays scope floods to their communities via engine
		// groups; a radius limit on top would double-scope them.
		cfg.Groups = hier.Groups(s.Nodes(), fuzzGroupSize)
		cfg.FloodRadius = 0
	}
	if len(s.Capacities) > 0 {
		caps := make([]float64, s.Nodes())
		for i := range caps {
			caps[i] = s.Capacities[i%len(s.Capacities)]
		}
		cfg.Capacities = caps
	}
	return cfg
}

// Workload rebuilds the arrival source: the declarative Load spec when
// one is set, the paper's plain Poisson otherwise.
func (s Scenario) Workload(g *topology.Graph) workload.Source {
	seed := rng.New(s.WorkSeed).Derive("fuzz-load")
	if s.Load != nil {
		return s.Load.Build(g.N(), seed)
	}
	return workload.NewPoisson(s.Lambda, s.MeanSize, g.N(), seed)
}

// Attacks compiles the fault schedule into attack scenarios, ready to
// Apply to either kernel's attack.Target.
func (s Scenario) Attacks() []attack.Scenario {
	out := make([]attack.Scenario, 0, len(s.Events))
	for _, ev := range s.Events {
		out = append(out, ev.compile())
	}
	return out
}

func (ev Event) compile() attack.Scenario {
	switch ev.Op {
	case "kill":
		return attack.Kill{
			Targets: []topology.NodeID{topology.NodeID(ev.Node)},
			At:      sim.Time(ev.At),
			Revive:  sim.Time(ev.Until),
		}
	case "cut":
		return attack.LinkCut{
			Links:   [][2]topology.NodeID{{topology.NodeID(ev.A), topology.NodeID(ev.B)}},
			At:      sim.Time(ev.At),
			Restore: sim.Time(ev.Until),
		}
	case "flap":
		return attack.Flap{
			Target:  topology.NodeID(ev.Node),
			Start:   sim.Time(ev.At),
			DownFor: sim.Time(ev.Down),
			UpFor:   sim.Time(ev.Up),
			Until:   sim.Time(ev.Until),
		}
	case "exhaust":
		return attack.Exhaust{
			Target:   topology.NodeID(ev.Node),
			At:       sim.Time(ev.At),
			Until:    sim.Time(ev.Until),
			Interval: sim.Time(ev.Interval),
			Chunk:    ev.Chunk,
		}
	case "churn":
		return attack.LinkChurn{
			Start:    sim.Time(ev.At),
			Until:    sim.Time(ev.Until),
			Interval: sim.Time(ev.Interval),
			Down:     sim.Time(ev.Down),
			Seed:     ev.Seed,
		}
	}
	panic("fuzzscen: unknown event op " + ev.Op)
}

// JSON renders the scenario as indented JSON, a diagnostic for test
// failure messages. It is not a file format: a scenario is stored,
// replayed and reviewed as a package's scenario.json (internal/scenario).
func (s Scenario) JSON() string {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		panic(err) // plain-data struct: cannot fail
	}
	return string(b)
}
