package agile

import (
	"context"
	"fmt"
	"strings"

	"realtor/internal/agile/transport"
	"realtor/internal/metrics"
	"realtor/internal/rng"
	"realtor/internal/workload"
)

// F9Point is one λ of the Figure 9 measurement.
type F9Point struct {
	Lambda  float64
	Stats   metrics.RunStats
	Packets uint64 // raw transport packets during the run
}

// RunFigure9 reproduces the paper's Section 6 measurement: admission
// probability of REALTOR on a live cluster (20 hosts, 50-second queues,
// task-size mean 5) across arrival rates. Each λ gets a fresh cluster so
// runs are independent. mkNet selects the transport ("chan" or "udp" via
// transport.ByName).
func RunFigure9(cfg Config, lambdas []float64, meanSize, duration float64,
	seed int64, mkNet transport.Factory) ([]F9Point, error) {
	out := make([]F9Point, 0, len(lambdas))
	for i, lambda := range lambdas {
		nw, err := mkNet(cfg.Hosts)
		if err != nil {
			return nil, fmt.Errorf("agile: λ=%g: %w", lambda, err)
		}
		c, err := NewCluster(cfg, nw)
		if err != nil {
			nw.Close()
			return nil, err
		}
		st, _ := c.Drive(context.Background(),
			workload.NewPoisson(lambda, meanSize, cfg.Hosts, rng.New(seed+int64(i))), duration)
		pkts := nw.Sent()
		c.Stop()
		if err := st.Validate(); err != nil {
			return nil, fmt.Errorf("agile: λ=%g: %w", lambda, err)
		}
		out = append(out, F9Point{Lambda: lambda, Stats: st, Packets: pkts})
	}
	return out, nil
}

// F9Table renders the measurement like the paper's Figure 9 (plus the
// packet counts the paper does not show).
func F9Table(points []F9Point) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s%-12s%-10s%-12s%-10s\n",
		"lambda", "admission", "offered", "migrated", "packets")
	for _, p := range points {
		fmt.Fprintf(&b, "%-8.3g%-12.4f%-10d%-12d%-10d\n",
			p.Lambda, p.Stats.AdmissionProbability(), p.Stats.Offered,
			p.Stats.Migrated, p.Packets)
	}
	return b.String()
}
