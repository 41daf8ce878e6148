// Package metrics collects the statistics reported in the paper's
// evaluation: admission probability, message counts (total, per admitted
// task) and migration rate, plus generic building blocks (counters,
// admission timelines, running summaries, histograms, replication
// aggregation).
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Counter is a monotonically non-decreasing event count. The zero value
// is ready to use.
type Counter struct {
	n uint64
}

// Add increments by delta. Negative deltas panic — message and task
// counts never go down, and a negative increment is always a bug.
func (c *Counter) Add(delta int) {
	if delta < 0 {
		panic("metrics: negative counter increment")
	}
	c.n += uint64(delta)
}

// Inc increments by one.
func (c *Counter) Inc() { c.n++ }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n }

// Summary accumulates a running mean/variance/min/max of observations
// (Welford's algorithm, numerically stable for long runs).
type Summary struct {
	n        uint64
	mean, m2 float64
	min, max float64
}

// Observe records one sample.
func (s *Summary) Observe(v float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = v, v
	} else {
		if v < s.min {
			s.min = v
		}
		if v > s.max {
			s.max = v
		}
	}
	delta := v - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (v - s.mean)
}

// N returns the number of samples.
func (s *Summary) N() uint64 { return s.n }

// Mean returns the sample mean (0 with no samples).
func (s *Summary) Mean() float64 { return s.mean }

// Var returns the unbiased sample variance (0 with <2 samples).
func (s *Summary) Var() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// Stddev returns the sample standard deviation.
func (s *Summary) Stddev() float64 { return math.Sqrt(s.Var()) }

// Min returns the smallest observation (0 with no samples).
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest observation (0 with no samples).
func (s *Summary) Max() float64 { return s.max }

// CI95 returns the half-width of a 95% normal-approximation confidence
// interval for the mean. With fewer than two samples it returns 0.
func (s *Summary) CI95() float64 {
	if s.n < 2 {
		return 0
	}
	return 1.96 * s.Stddev() / math.Sqrt(float64(s.n))
}

// Merge folds other into s, as if all of other's samples had been
// observed by s (exact for n/mean/m2; min/max take the extremes).
func (s *Summary) Merge(other *Summary) {
	if other.n == 0 {
		return
	}
	if s.n == 0 {
		*s = *other
		return
	}
	n1, n2 := float64(s.n), float64(other.n)
	delta := other.mean - s.mean
	tot := n1 + n2
	s.mean += delta * n2 / tot
	s.m2 += other.m2 + delta*delta*n1*n2/tot
	s.n += other.n
	if other.min < s.min {
		s.min = other.min
	}
	if other.max > s.max {
		s.max = other.max
	}
}

// Bin is one interval of an admission timeline.
type Bin struct {
	Start    float64
	Offered  uint64
	Admitted uint64
}

// AdmissionProbability returns Admitted/Offered for the bin (1 if empty,
// so idle intervals plot as "no loss").
func (b Bin) AdmissionProbability() float64 {
	if b.Offered == 0 {
		return 1
	}
	return float64(b.Admitted) / float64(b.Offered)
}

// Timeline buckets task outcomes into Width-wide intervals by arrival
// instant: a task counts in the bin its arrival falls in, whenever its
// verdict lands, so no bin can admit more than it was offered. Bins are
// appended lazily up to the latest arrival recorded. Both kernels feed
// it from their outcome hook; the zero Width is invalid.
type Timeline struct {
	Width float64
	Bins  []Bin
}

// Record counts one task that arrived at instant arrive.
func (tl *Timeline) Record(arrive float64, admitted bool) {
	if tl.Width <= 0 {
		panic("metrics: timeline width must be positive")
	}
	idx := int(arrive / tl.Width)
	for len(tl.Bins) <= idx {
		tl.Bins = append(tl.Bins, Bin{Start: float64(len(tl.Bins)) * tl.Width})
	}
	tl.Bins[idx].Offered++
	if admitted {
		tl.Bins[idx].Admitted++
	}
}

// Histogram is a fixed-bucket histogram for latency/size distributions.
type Histogram struct {
	bounds []float64 // ascending upper bounds; last bucket is overflow
	counts []uint64
	total  uint64
}

// NewHistogram returns a histogram with the given ascending bucket upper
// bounds plus an implicit overflow bucket.
func NewHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("metrics: histogram bounds not ascending")
		}
	}
	return &Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.total++
}

// Count returns the number of observations in bucket i (len(bounds) is
// the overflow bucket).
func (h *Histogram) Count(i int) uint64 { return h.counts[i] }

// Total returns the number of observations.
func (h *Histogram) Total() uint64 { return h.total }

// Quantile returns an upper bound on the q-quantile (q in [0,1]) using
// bucket boundaries; it returns +Inf if the quantile falls in the
// overflow bucket and 0 if the histogram is empty.
func (h *Histogram) Quantile(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	if q < 0 || q > 1 {
		panic("metrics: quantile out of [0,1]")
	}
	target := uint64(math.Ceil(q * float64(h.total)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= target {
			if i == len(h.bounds) {
				return math.Inf(1)
			}
			return h.bounds[i]
		}
	}
	return math.Inf(1)
}

// RunStats is the per-run result record for one simulation: everything
// needed to compute the y-values of the paper's Figures 5–8.
type RunStats struct {
	Offered     uint64 // tasks generated in the measurement window
	Admitted    uint64 // tasks eventually accepted (locally or remotely)
	Rejected    uint64 // tasks dropped
	Migrated    uint64 // admitted tasks that ran on a non-arrival node
	MigrateFail uint64 // migration tries whose candidate had no room

	HelpMsgs     uint64  // HELP floods (count of floods, not links)
	PledgeMsgs   uint64  // PLEDGE unicasts
	AdvertMsgs   uint64  // push advertisement floods
	ControlMsgs  uint64  // admission-negotiation unicasts
	MessageUnits float64 // link-weighted total per the paper's cost model

	// PartitionDrops counts protocol deliveries dropped because the
	// destination was unreachable in the live overlay (link cuts /
	// network partitions) — distinct from probabilistic LossProb drops,
	// which model lossy links that still exist.
	PartitionDrops uint64
}

// AdmissionProbability returns Admitted/Offered (paper Fig. 5's y-axis).
func (r RunStats) AdmissionProbability() float64 {
	if r.Offered == 0 {
		return 0
	}
	return float64(r.Admitted) / float64(r.Offered)
}

// MigrationRate returns Migrated/Admitted (paper Fig. 8's y-axis).
func (r RunStats) MigrationRate() float64 {
	if r.Admitted == 0 {
		return 0
	}
	return float64(r.Migrated) / float64(r.Admitted)
}

// CostPerAdmitted returns MessageUnits/Admitted (paper Fig. 7's y-axis).
func (r RunStats) CostPerAdmitted() float64 {
	if r.Admitted == 0 {
		return 0
	}
	return r.MessageUnits / float64(r.Admitted)
}

// Validate checks internal consistency and returns an error describing
// the first violated invariant, or nil.
func (r RunStats) Validate() error {
	if r.Admitted+r.Rejected != r.Offered {
		return fmt.Errorf("metrics: admitted(%d)+rejected(%d) != offered(%d)",
			r.Admitted, r.Rejected, r.Offered)
	}
	if r.Migrated > r.Admitted {
		return fmt.Errorf("metrics: migrated(%d) > admitted(%d)", r.Migrated, r.Admitted)
	}
	if r.MessageUnits < 0 {
		return fmt.Errorf("metrics: negative message units %v", r.MessageUnits)
	}
	return nil
}

// Add accumulates other into r (used when summing per-node stats).
func (r *RunStats) Add(other RunStats) {
	r.Offered += other.Offered
	r.Admitted += other.Admitted
	r.Rejected += other.Rejected
	r.Migrated += other.Migrated
	r.MigrateFail += other.MigrateFail
	r.HelpMsgs += other.HelpMsgs
	r.PledgeMsgs += other.PledgeMsgs
	r.AdvertMsgs += other.AdvertMsgs
	r.ControlMsgs += other.ControlMsgs
	r.MessageUnits += other.MessageUnits
	r.PartitionDrops += other.PartitionDrops
}

// Replication aggregates one scalar across independent replications.
type Replication struct {
	Summary
}

// Format renders "mean ± ci95" for tables.
func (r *Replication) Format() string {
	return fmt.Sprintf("%.4f ± %.4f", r.Mean(), r.CI95())
}
