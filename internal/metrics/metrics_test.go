package metrics

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"realtor/internal/rng"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter %d, want 5", c.Value())
	}
}

func TestCounterNegativePanics(t *testing.T) {
	var c Counter
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.Add(-1)
}

func TestSummaryBasics(t *testing.T) {
	var s Summary
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Observe(v)
	}
	if s.N() != 8 {
		t.Fatalf("n=%d", s.N())
	}
	if math.Abs(s.Mean()-5) > 1e-12 {
		t.Fatalf("mean %v", s.Mean())
	}
	if math.Abs(s.Var()-32.0/7) > 1e-12 {
		t.Fatalf("var %v, want %v", s.Var(), 32.0/7)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("min/max %v/%v", s.Min(), s.Max())
	}
}

func TestSummaryEmptyAndSingle(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Var() != 0 || s.CI95() != 0 {
		t.Fatal("empty summary not zero")
	}
	s.Observe(3)
	if s.Var() != 0 || s.CI95() != 0 {
		t.Fatal("single-sample variance should be 0")
	}
	if s.Min() != 3 || s.Max() != 3 {
		t.Fatal("single-sample min/max")
	}
}

// Property: merging two summaries equals observing the concatenation.
func TestQuickSummaryMergeAssociative(t *testing.T) {
	f := func(ra, rb []int16) bool {
		// Map generated integers into a bounded range: merge correctness
		// is a finite-precision property, not an overflow test.
		a := make([]float64, len(ra))
		b := make([]float64, len(rb))
		for i, v := range ra {
			a[i] = float64(v) / 16
		}
		for i, v := range rb {
			b[i] = float64(v) / 16
		}
		var merged, direct, sb Summary
		for _, v := range a {
			merged.Observe(v)
			direct.Observe(v)
		}
		for _, v := range b {
			sb.Observe(v)
			direct.Observe(v)
		}
		merged.Merge(&sb)
		if merged.N() != direct.N() {
			return false
		}
		if direct.N() == 0 {
			return true
		}
		tol := 1e-6 * (1 + math.Abs(direct.Mean()))
		if math.Abs(merged.Mean()-direct.Mean()) > tol {
			return false
		}
		return math.Abs(merged.Var()-direct.Var()) <= 1e-6*(1+direct.Var())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSummaryCI95Shrinks(t *testing.T) {
	s := rng.New(1)
	var small, large Summary
	for i := 0; i < 20; i++ {
		small.Observe(s.Normal(0, 1))
	}
	for i := 0; i < 2000; i++ {
		large.Observe(s.Normal(0, 1))
	}
	if large.CI95() >= small.CI95() {
		t.Fatalf("CI did not shrink: %v vs %v", large.CI95(), small.CI95())
	}
}

// TestTimeline pins arrival-instant bucketing: a task counts in the bin
// its arrival falls in, bins are appended lazily up to the latest
// arrival, and an empty bin reads as full admission.
func TestTimeline(t *testing.T) {
	tl := Timeline{Width: 10}
	tl.Record(3, true)
	tl.Record(9.999, false)
	tl.Record(25, true)
	want := []Bin{{Start: 0, Offered: 2, Admitted: 1}, {Start: 10}, {Start: 20, Offered: 1, Admitted: 1}}
	if !reflect.DeepEqual(tl.Bins, want) {
		t.Fatalf("bins %+v, want %+v", tl.Bins, want)
	}
	if p := tl.Bins[0].AdmissionProbability(); p != 0.5 {
		t.Fatalf("bin 0 admission %v, want 0.5", p)
	}
	if p := tl.Bins[1].AdmissionProbability(); p != 1 {
		t.Fatalf("empty bin admission %v, want 1", p)
	}
}

func TestTimelineZeroWidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	var tl Timeline
	tl.Record(1, true)
}

func TestHistogram(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 5})
	for _, v := range []float64{0.5, 1, 1.5, 3, 10} {
		h.Observe(v)
	}
	// buckets: ≤1: {0.5, 1} = 2; ≤2: {1.5} = 1; ≤5: {3} = 1; overflow: {10} = 1
	want := []uint64{2, 1, 1, 1}
	for i, w := range want {
		if h.Count(i) != w {
			t.Fatalf("bucket %d = %d, want %d", i, h.Count(i), w)
		}
	}
	if h.Total() != 5 {
		t.Fatalf("total %d", h.Total())
	}
	if q := h.Quantile(0.5); q != 2 {
		t.Fatalf("p50 %v, want 2", q)
	}
	if q := h.Quantile(1.0); !math.IsInf(q, 1) {
		t.Fatalf("p100 %v, want +Inf", q)
	}
}

func TestHistogramEmptyAndInvalid(t *testing.T) {
	h := NewHistogram([]float64{1, 2})
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile not 0")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic for descending bounds")
			}
		}()
		NewHistogram([]float64{2, 1})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic for q out of range")
			}
		}()
		h.Observe(1)
		h.Quantile(1.5)
	}()
}

func TestRunStatsDerived(t *testing.T) {
	r := RunStats{Offered: 100, Admitted: 90, Rejected: 10, Migrated: 27,
		MessageUnits: 450}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	if p := r.AdmissionProbability(); p != 0.9 {
		t.Fatalf("admission %v", p)
	}
	if m := r.MigrationRate(); m != 0.3 {
		t.Fatalf("migration rate %v", m)
	}
	if c := r.CostPerAdmitted(); c != 5 {
		t.Fatalf("cost per admitted %v", c)
	}
}

func TestRunStatsZeroDivision(t *testing.T) {
	var r RunStats
	if r.AdmissionProbability() != 0 || r.MigrationRate() != 0 || r.CostPerAdmitted() != 0 {
		t.Fatal("zero-run derived metrics should be 0")
	}
}

func TestRunStatsValidateCatches(t *testing.T) {
	bad := []RunStats{
		{Offered: 5, Admitted: 3, Rejected: 1},
		{Offered: 2, Admitted: 2, Migrated: 3},
		{MessageUnits: -1},
	}
	for i, r := range bad {
		if r.Validate() == nil {
			t.Fatalf("case %d: invalid stats passed validation", i)
		}
	}
}

func TestRunStatsAdd(t *testing.T) {
	a := RunStats{Offered: 10, Admitted: 8, Rejected: 2, Migrated: 1,
		HelpMsgs: 3, PledgeMsgs: 4, AdvertMsgs: 5, ControlMsgs: 6, MessageUnits: 7}
	b := a
	a.Add(b)
	if a.Offered != 20 || a.Admitted != 16 || a.MessageUnits != 14 ||
		a.HelpMsgs != 6 || a.ControlMsgs != 12 {
		t.Fatalf("add result %+v", a)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestReplicationFormat(t *testing.T) {
	var r Replication
	r.Observe(1)
	r.Observe(2)
	if got := r.Format(); got == "" {
		t.Fatal("empty format")
	}
}

func BenchmarkSummaryObserve(b *testing.B) {
	var s Summary
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Observe(float64(i % 100))
	}
}
