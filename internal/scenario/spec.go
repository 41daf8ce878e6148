// Package scenario implements declarative scenario packages with a
// golden-run regression gate. A package is a directory holding
// scenario.json — a Spec naming the protocol variant, the embedded
// fuzzscen.Scenario (topology, workload, fault schedule)
// and the expected outcome bands — plus an optional golden.json, the
// blessed canonical Summary of a sim run. The runner executes a package
// through the backend-agnostic harness with the invariant oracle
// attached and fails on any oracle violation, band miss, or drift from
// the golden beyond per-metric tolerances.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"regexp"

	"realtor/internal/fuzzscen"
)

// Bands is the expected-outcome envelope a run must land in on any
// backend. Percentages are on [0,100]; MaxUnitsPerTask caps the
// paper's message-cost metric (MessageUnits per admitted task) and is
// unchecked when 0. RejectPct stands in for the deadline-miss rate:
// every rejected task is a task whose deadline the cluster declined to
// meet.
type Bands struct {
	AdmissionMinPct float64 `json:"admission_min_pct"`
	AdmissionMaxPct float64 `json:"admission_max_pct"`
	MaxUnitsPerTask float64 `json:"max_units_per_task,omitempty"`
	MaxRejectPct    float64 `json:"max_reject_pct"`
}

// Validate reports the first inconsistent band, or nil.
func (b Bands) Validate() error {
	switch {
	case b.AdmissionMinPct < 0 || b.AdmissionMinPct > 100:
		return fmt.Errorf("scenario: expect.admission_min_pct %v outside [0,100]", b.AdmissionMinPct)
	case b.AdmissionMaxPct < b.AdmissionMinPct || b.AdmissionMaxPct > 100:
		return fmt.Errorf("scenario: expect.admission_max_pct %v outside [min,100]", b.AdmissionMaxPct)
	case b.MaxUnitsPerTask < 0:
		return fmt.Errorf("scenario: expect.max_units_per_task %v negative", b.MaxUnitsPerTask)
	case b.MaxRejectPct < 0 || b.MaxRejectPct > 100:
		return fmt.Errorf("scenario: expect.max_reject_pct %v outside [0,100]", b.MaxRejectPct)
	}
	return nil
}

// Check returns a human-readable complaint per band the summary missed.
func (b Bands) Check(sum Summary) []string {
	var errs []string
	if sum.AdmissionPct < b.AdmissionMinPct || sum.AdmissionPct > b.AdmissionMaxPct {
		errs = append(errs, fmt.Sprintf("admission %.2f%% outside expected [%g%%, %g%%]",
			sum.AdmissionPct, b.AdmissionMinPct, b.AdmissionMaxPct))
	}
	if b.MaxUnitsPerTask > 0 && sum.UnitsPerTask > b.MaxUnitsPerTask {
		errs = append(errs, fmt.Sprintf("message cost %.3f units/task above cap %g",
			sum.UnitsPerTask, b.MaxUnitsPerTask))
	}
	if sum.RejectPct > b.MaxRejectPct {
		errs = append(errs, fmt.Sprintf("reject (deadline-miss) rate %.2f%% above cap %g%%",
			sum.RejectPct, b.MaxRejectPct))
	}
	return errs
}

// Protocols a package may select. "realtor" is the flood protocol
// (fuzzscen's empty Discovery); the rest name the overlays.
var protocols = map[string]string{
	"realtor": "", "dht": "dht", "hier": "hier", "fed": "fed",
}

// Spec is one declarative scenario package: everything scenario.json
// holds. The embedded fuzzscen.Scenario must leave its Discovery field
// empty — the package-level Protocol is the single selector, applied by
// Effective().
type Spec struct {
	Name        string            `json:"name"`
	Description string            `json:"description,omitempty"`
	Protocol    string            `json:"protocol"`
	Scenario    fuzzscen.Scenario `json:"scenario"`
	Expect      Bands             `json:"expect"`
}

var nameRe = regexp.MustCompile(`^[a-z0-9][a-z0-9-]*$`)

// Validate reports the first invalid field, or nil. Errors name the
// offending field path so a broken package is diagnosable from the
// message alone.
func (sp Spec) Validate() error {
	if !nameRe.MatchString(sp.Name) {
		return fmt.Errorf("scenario: name %q must match %s", sp.Name, nameRe)
	}
	if _, ok := protocols[sp.Protocol]; !ok {
		return fmt.Errorf("scenario: protocol %q unknown (want realtor|dht|hier|fed)", sp.Protocol)
	}
	if sp.Scenario.Discovery != "" {
		return fmt.Errorf("scenario: scenario.discovery %q must be empty — the package-level protocol field is the selector", sp.Scenario.Discovery)
	}
	if err := sp.Effective().Validate(); err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	if err := sp.Expect.Validate(); err != nil {
		return err
	}
	return nil
}

// Effective returns the runnable scenario: the embedded one with the
// package's protocol selection applied.
func (sp Spec) Effective() fuzzscen.Scenario {
	s := sp.Scenario
	s.Discovery = protocols[sp.Protocol]
	return s
}

// Canonical renders the spec in the one blessed byte form: two-space
// indented JSON with a trailing newline. DecodeSpec(Canonical(sp))
// re-marshals byte-identically, the stability the codec tests pin.
func (sp Spec) Canonical() []byte {
	b, err := json.MarshalIndent(sp, "", "  ")
	if err != nil {
		panic(err) // plain-data struct: cannot fail
	}
	return append(b, '\n')
}

// DecodeSpec parses and validates scenario.json bytes. Decoding is
// strict: unknown fields are rejected (a typoed knob must not silently
// fall back to a default), and validation errors carry field paths.
func DecodeSpec(data []byte) (Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var sp Spec
	if err := dec.Decode(&sp); err != nil {
		return Spec{}, fmt.Errorf("scenario: %w", err)
	}
	if dec.More() {
		return Spec{}, fmt.Errorf("scenario: trailing data after spec object")
	}
	if err := sp.Validate(); err != nil {
		return Spec{}, err
	}
	return sp, nil
}

// Export converts a fuzz counterexample (or any runnable scenario) into
// a package spec: the Discovery field moves up to the package-level
// Protocol and the expect bands open fully, so the exported package
// replays the identical run — same trace digest — while the gate is
// carried by the golden blessed afterwards.
func Export(name string, s fuzzscen.Scenario) Spec {
	proto := "realtor"
	if s.Discovery != "" {
		proto = s.Discovery
	}
	s.Discovery = ""
	return Spec{
		Name:        name,
		Description: "exported fuzz scenario",
		Protocol:    proto,
		Scenario:    s,
		Expect:      Bands{AdmissionMaxPct: 100, MaxRejectPct: 100},
	}
}
