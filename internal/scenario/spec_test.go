package scenario

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"realtor/internal/fuzzscen"
	"realtor/internal/workload"
)

// scenRoot is the committed package tree, relative to this test file.
const scenRoot = "../../scenarios"

func testSpec() Spec {
	return Spec{
		Name:        "codec-probe",
		Description: "hand-built spec for codec tests",
		Protocol:    "hier",
		Scenario: fuzzscen.Scenario{
			Topology: "mesh", Rows: 3, Cols: 3,
			Duration: 10, QueueCapacity: 8, HopDelay: 0.01,
			EngineSeed: 1, WorkSeed: 2,
			Threshold: 0.8, EntryTTL: 6, MembershipTTL: 9, MaxMemberships: 3,
			Alpha: 0.5, Beta: 0.3, PledgeWait: 1, HelpInit: 1,
			Load:   &workload.Spec{Kind: "mmpp", LambdaLow: 3, LambdaHigh: 12, MeanHold: 2, MeanSize: 1},
			Events: []fuzzscen.Event{{Op: "kill", At: 3, Until: 6, Node: 4}},
		},
		Expect: Bands{AdmissionMinPct: 50, AdmissionMaxPct: 100, MaxRejectPct: 50},
	}
}

// Parse → validate → re-marshal is byte-stable: Canonical is a fixed
// point of the codec. Checked for a hand-built spec and for every
// committed package, so the on-disk corpus is pinned to the canonical
// form too.
func TestSpecRoundTripByteStable(t *testing.T) {
	specs := [][]byte{testSpec().Canonical()}
	dirs, err := List(scenRoot)
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) < 8 {
		t.Fatalf("only %d committed packages, want ≥ 8", len(dirs))
	}
	for _, d := range dirs {
		p, err := LoadPackage(d)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, p.Spec.Canonical())
	}
	for i, raw := range specs {
		sp, err := DecodeSpec(raw)
		if err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		if got := sp.Canonical(); !bytes.Equal(got, raw) {
			t.Fatalf("spec %d: canonical form not a fixed point:\n%s\nvs\n%s", i, raw, got)
		}
	}
}

// Committed scenario.json files must be stored in canonical bytes, not
// merely decode to the same value — a hand-edited reordering would
// break byte-diffing of blessed changes.
func TestCommittedSpecsAreCanonical(t *testing.T) {
	dirs, err := List(scenRoot)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		raw, err := os.ReadFile(filepath.Join(d, SpecFile))
		if err != nil {
			t.Fatal(err)
		}
		sp, err := DecodeSpec(raw)
		if err != nil {
			t.Fatalf("%s: %v", d, err)
		}
		if !bytes.Equal(raw, sp.Canonical()) {
			t.Errorf("%s: scenario.json is not in canonical form — rewrite it with Spec.Canonical or WritePackage", d)
		}
		graw, err := os.ReadFile(filepath.Join(d, GoldenFile))
		if err != nil {
			t.Fatalf("%s: missing golden.json — bless it: %v", d, err)
		}
		g, err := DecodeGolden(graw)
		if err != nil {
			t.Fatalf("%s: %v", d, err)
		}
		if !bytes.Equal(graw, g.Canonical()) {
			t.Errorf("%s: golden.json is not in canonical form", d)
		}
	}
}

// Malformed specs are rejected with errors naming the offending field —
// including unknown protocol, workload, and fault-op names.
// specFieldErrors are malformed specs, each a mutation of testSpec,
// with the text the error must carry.
var specFieldErrors = []struct {
	name    string
	mutate  func(*Spec)
	wantErr string
}{
	{"bad name", func(sp *Spec) { sp.Name = "Bad Name!" }, "name"},
	{"unknown protocol", func(sp *Spec) { sp.Protocol = "gossip" }, `protocol "gossip" unknown`},
	{"discovery set inside", func(sp *Spec) { sp.Scenario.Discovery = "dht" }, "scenario.discovery"},
	{"unknown topology", func(sp *Spec) { sp.Scenario.Topology = "blob" }, `unknown topology "blob"`},
	{"unknown workload kind", func(sp *Spec) { sp.Scenario.Load = &workload.Spec{Kind: "zipf"} }, "workload.kind"},
	{"misplaced workload field", func(sp *Spec) { sp.Scenario.Load.Shape = 2 }, "workload.shape"},
	{"unknown fault op", func(sp *Spec) { sp.Scenario.Events[0].Op = "meteor" }, `unknown op "meteor"`},
	{"fault out of range", func(sp *Spec) { sp.Scenario.Events[0].Node = 99 }, "targets node 99"},
	{"self-link cut", func(sp *Spec) { sp.Scenario.Events[0] = fuzzscen.Event{Op: "cut", At: 3, A: 4, B: 4} }, "self-link 4-4"},
	{"negative hop delay", func(sp *Spec) { sp.Scenario.HopDelay = -0.01 }, "hop_delay"},
	{"loss above one", func(sp *Spec) { sp.Scenario.LossProb = 1.5 }, "loss_prob 1.5"},
	{"negative loss", func(sp *Spec) { sp.Scenario.LossProb = -0.1 }, "loss_prob -0.1"},
	{"negative max tries", func(sp *Spec) { sp.Scenario.MaxTries = -1 }, "max_tries"},
	{"help_init below HelpMin", func(sp *Spec) { sp.Scenario.HelpInit = 0.001 }, "HELP interval bounds (init=0.001"},
	{"negative beta", func(sp *Spec) { sp.Scenario.Beta = -0.1 }, "beta=-0.1"},
	{"negative capacity", func(sp *Spec) { sp.Scenario.Capacities = []float64{5, -1} }, "capacity"},
	{"dht entry_ttl below floor", func(sp *Spec) { sp.Protocol = "dht"; sp.Scenario.EntryTTL = 1e-6 }, "entry_ttl 1e-06"},
	{"admission band inverted", func(sp *Spec) { sp.Expect.AdmissionMinPct = 80; sp.Expect.AdmissionMaxPct = 20 }, "admission_max_pct"},
	{"reject band overflow", func(sp *Spec) { sp.Expect.MaxRejectPct = 130 }, "max_reject_pct"},
}

func TestDecodeSpecFieldErrors(t *testing.T) {
	for _, tc := range specFieldErrors {
		t.Run(tc.name, func(t *testing.T) {
			sp := testSpec()
			tc.mutate(&sp)
			_, err := DecodeSpec(sp.Canonical())
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("err = %v, want mention of %q", err, tc.wantErr)
			}
		})
	}
}

// Unknown JSON fields are rejected outright: a typoed knob must fail,
// not silently revert to a default.
func TestDecodeSpecRejectsUnknownFields(t *testing.T) {
	raw := bytes.Replace(testSpec().Canonical(),
		[]byte(`"protocol"`), []byte(`"protocl"`), 1)
	if _, err := DecodeSpec(raw); err == nil || !strings.Contains(err.Error(), "protocl") {
		t.Fatalf("err = %v, want unknown-field error naming the typo", err)
	}
	// Unknown fields nested inside the scenario object fail too.
	raw = append(bytes.TrimRight(testSpec().Canonical(), "}\n"), []byte(`,"extra": 1}`)...)
	if _, err := DecodeSpec(raw); err == nil {
		t.Fatal("trailing unknown field accepted")
	}
	// A package written when the scenario could carry a traffic-protection
	// middleware stack fails loudly: it must never run bare.
	raw = bytes.Replace(testSpec().Canonical(), []byte(`"scenario": {`),
		[]byte(`"scenario": {"policies": {"bucket": {"rate": 1.5, "burst": 3}},`), 1)
	if _, err := DecodeSpec(raw); err == nil || !strings.Contains(err.Error(), `unknown field "policies"`) {
		t.Fatalf("err = %v, want the retired policies field rejected as unknown", err)
	}
}

// FuzzDecodeSpec holds the strict decoder to three properties on any
// input: it never panics; a spec it accepts, marshalled again, is
// accepted; and that second decode marshals to the same bytes. The
// corpus is the malformed specs above and every committed
// scenario.json.
func FuzzDecodeSpec(f *testing.F) {
	f.Add(testSpec().Canonical())
	for _, tc := range specFieldErrors {
		sp := testSpec()
		tc.mutate(&sp)
		f.Add(sp.Canonical())
	}
	dirs, err := List(scenRoot)
	if err != nil {
		f.Fatal(err)
	}
	for _, d := range dirs {
		raw, err := os.ReadFile(filepath.Join(d, SpecFile))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sp, err := DecodeSpec(data)
		if err != nil {
			return
		}
		once := sp.Canonical()
		again, err := DecodeSpec(once)
		if err != nil {
			t.Fatalf("accepted spec rejected after a marshal: %v\n%s", err, once)
		}
		if twice := again.Canonical(); !bytes.Equal(once, twice) {
			t.Fatalf("second marshal differs:\n%s\nvs\n%s", once, twice)
		}
	})
}

func TestExportMovesDiscoveryToProtocol(t *testing.T) {
	s := fuzzscen.Generate(1)
	s.Discovery = "dht"
	sp := Export("exported-probe", s)
	if sp.Protocol != "dht" || sp.Scenario.Discovery != "" {
		t.Fatalf("protocol %q, inner discovery %q; want dht and empty", sp.Protocol, sp.Scenario.Discovery)
	}
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	if sp.Effective().Discovery != "dht" {
		t.Fatal("effective scenario lost the protocol selection")
	}
	if Export("plain", fuzzscen.Generate(4)).Protocol == "" {
		t.Fatal("flood scenario must export as protocol realtor")
	}
}
