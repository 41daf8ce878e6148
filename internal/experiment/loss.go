package experiment

import (
	"fmt"
	"strings"

	"realtor/internal/topology"
)

// LossPoint is one (protocol, loss-rate) cell of the robustness study
// (R1): the paper claims REALTOR "works well in highly adverse
// environments due to its statelessness"; this measures how admission
// degrades as the network drops discovery messages.
type LossPoint struct {
	Loss      float64
	Admission map[string]float64 // by protocol label
}

// RunLoss sweeps message-loss probabilities at a fixed load for the
// given protocols. The (loss, protocol) cells run on the experiment
// worker pool; results are keyed by index so output is order-independent.
func RunLoss(losses []float64, lambda float64, protos []Protocol, seed int64) []LossPoint {
	nP := len(protos)
	adm := collect(len(losses)*nP, 0, func(i int) float64 {
		loss, p := losses[i/nP], protos[i%nP]
		ecfg := PaperCell(topology.Mesh(5, 5), 200, 1200, seed)
		ecfg.LossProb = loss
		return newCell(ecfg, p.Build).Run(PoissonSource(ecfg, lambda)).AdmissionProbability()
	})
	out := make([]LossPoint, 0, len(losses))
	for li, loss := range losses {
		pt := LossPoint{Loss: loss, Admission: make(map[string]float64, nP)}
		for pi, p := range protos {
			pt.Admission[p.Label] = adm[li*nP+pi]
		}
		out = append(out, pt)
	}
	return out
}

// LossTable renders the robustness study: one row per loss rate, one
// column per protocol.
func LossTable(points []LossPoint, protos []Protocol) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s", "loss")
	for _, p := range protos {
		fmt.Fprintf(&b, "%14s", p.Label)
	}
	b.WriteByte('\n')
	for _, pt := range points {
		fmt.Fprintf(&b, "%-8.2f", pt.Loss)
		for _, p := range protos {
			fmt.Fprintf(&b, "%14.4f", pt.Admission[p.Label])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
