package resource

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestSatisfies(t *testing.T) {
	host := Attrs{Bandwidth: 100, Memory: 64, Security: 2}
	cases := []struct {
		req  Attrs
		want bool
	}{
		{Attrs{}, true},
		{Attrs{Bandwidth: 100, Memory: 64, Security: 2}, true},
		{Attrs{Bandwidth: 101}, false},
		{Attrs{Memory: 65}, false},
		{Attrs{Security: 3}, false},
		{Attrs{Bandwidth: 50, Memory: 32, Security: 1}, true},
	}
	for i, c := range cases {
		if host.Satisfies(c.req) != c.want {
			t.Fatalf("case %d: Satisfies(%+v) != %v", i, c.req, c.want)
		}
	}
}

func TestString(t *testing.T) {
	s := Attrs{Bandwidth: 10, Memory: 20, Security: 3}.String()
	if !strings.Contains(s, "sec=3") {
		t.Fatalf("string %q", s)
	}
}

// Satisfies is a partial order: reflexive and transitive.
func TestQuickSatisfiesOrder(t *testing.T) {
	gen := func(a, b, c uint8) Attrs {
		return Attrs{Bandwidth: float64(a % 4), Memory: float64(b % 4), Security: int(c % 3)}
	}
	f := func(a1, a2, a3, b1, b2, b3, c1, c2, c3 uint8) bool {
		x, y, z := gen(a1, a2, a3), gen(b1, b2, b3), gen(c1, c2, c3)
		if !x.Satisfies(x) {
			return false
		}
		if x.Satisfies(y) && y.Satisfies(z) && !x.Satisfies(z) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
