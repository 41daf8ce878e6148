// Package resource models the non-CPU resource dimensions the paper
// mentions but does not simulate: "More general resource scenarios such
// as network bandwidth, current security level, etc., would give similar
// results" (Section 5, footnote 3), and the survivability motivation
// that components "may want to migrate ... to locations that run at
// higher security levels" (Section 1).
//
// CPU stays the single *consumable* resource (the queue of seconds);
// bandwidth class, memory class and security level are node attributes
// that constrain placement. Static attributes live in the system
// directory (the naming service in the live runtime, the engine in the
// simulator), so discovery still only has to track the fast-moving CPU
// headroom — which is exactly why the paper expected "similar results".
package resource

import "fmt"

// Attrs describes a node's placement-relevant attributes, or — as a
// requirement — the minimum a task demands of its host. The zero value
// requires (and offers) nothing.
type Attrs struct {
	// Bandwidth is the node's network class in arbitrary units (e.g.
	// Mbit/s); a requirement is a minimum.
	Bandwidth float64
	// Memory is the node's memory class in arbitrary units; a
	// requirement is a minimum.
	Memory float64
	// Security is the node's clearance level; a requirement is a
	// minimum. Attacks can lower it at runtime, which is what forces
	// security-constrained components to migrate.
	Security int
}

// Satisfies reports whether a host with attributes a can accommodate a
// task requiring req.
func (a Attrs) Satisfies(req Attrs) bool {
	return a.Bandwidth >= req.Bandwidth &&
		a.Memory >= req.Memory &&
		a.Security >= req.Security
}

// String renders the attributes compactly.
func (a Attrs) String() string {
	return fmt.Sprintf("bw=%g mem=%g sec=%d", a.Bandwidth, a.Memory, a.Security)
}
