package experiment

import (
	"strings"
	"testing"
)

func TestRunFederationRescues(t *testing.T) {
	pts := RunFederation(6, []float64{8}, 1)
	if len(pts) != 1 {
		t.Fatalf("points %d", len(pts))
	}
	// All load lands in one of four groups: plain group-scoped REALTOR
	// cannot see past it, and escalation must recover most of the rest.
	p := pts[0]
	if p.FedAdm <= p.PlainAdm+0.1 || p.FedAdm < 0.5 {
		t.Fatalf("federation did not rescue the hot group: plain=%v fed=%v", p.PlainAdm, p.FedAdm)
	}
	if err := p.Plain.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := p.Federated.Validate(); err != nil {
		t.Fatal(err)
	}
	tab := FederationTable(pts)
	if !strings.Contains(tab, "fed-adm") {
		t.Fatalf("federation table malformed:\n%s", tab)
	}
}

func TestRunFederationOddMeshPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	RunFederation(5, []float64{4}, 1)
}
