package experiment

import (
	"strings"
	"testing"
)

func TestRunSecurityInvariants(t *testing.T) {
	r := RunSecurity(4, 0.3, 1)
	if r.SecureAdmission <= 0 || r.SecureAdmission > 1 {
		t.Fatalf("secure admission %v", r.SecureAdmission)
	}
	if r.RelaxedAdmission < r.SecureAdmission {
		t.Fatalf("relaxed (%v) below secure (%v): constraints should only hurt",
			r.RelaxedAdmission, r.SecureAdmission)
	}
	// At moderate load with resource-triggered discovery, constrained
	// tasks should still mostly be served.
	if r.SecureAdmission < 0.8 {
		t.Fatalf("secure admission %v too low at λ=4", r.SecureAdmission)
	}
	tab := SecurityTable([]SecurityResult{r})
	if !strings.Contains(tab, "secure-adm") ||
		len(strings.Split(strings.TrimSpace(tab), "\n")) != 2 {
		t.Fatalf("security table malformed:\n%s", tab)
	}
}

func TestRunSecurityZeroFraction(t *testing.T) {
	r := RunSecurity(3, 0, 2)
	if r.SecureAdmission != 0 {
		t.Fatal("no secure tasks but secure admission nonzero")
	}
	if r.RelaxedAdmission < 0.99 {
		t.Fatalf("relaxed admission %v at λ=3", r.RelaxedAdmission)
	}
}
