package serretime

import (
	"context"
	"fmt"
	"sort"

	"serretime/internal/graph"
	"serretime/internal/ser"
)

// Contributor is one element's share of the design's SER.
type Contributor struct {
	// Name is the gate output net (for kind "gate") or the driving net of
	// the register chain (for kind "register").
	Name string
	// Kind is "gate" or "register".
	Kind string
	// SER is the element's eq. (4) contribution; Share is its fraction of
	// the total.
	SER, Share float64
	// Obs is the element's observability, Window its |ELW|.
	Obs, Window float64
}

// CriticalElements ranks the top-n SER contributors of the unretimed
// design at clock period phi (0 = critical path): the per-gate and
// per-register-chain terms of eq. (4), as ser.Terms evaluates them for
// Analyze. This is the view a designer uses to decide where hardening or
// retiming will pay off. phi is checked as Analyze checks it.
func (d *Design) CriticalElements(phi float64, n int, opt AnalysisOptions) ([]Contributor, error) {
	if err := checkPhi("serretime.CriticalElements", phi); err != nil {
		return nil, err
	}
	if err := d.ensureObs(context.Background(), opt, 0, nil); err != nil {
		return nil, err
	}
	g := d.g
	r := graph.NewRetiming(g)
	in := d.serInputs(g, r, elwParams(phi), opt)
	var out []Contributor
	var total float64
	ser.Terms(g, r, in, func(t ser.Term) {
		total += t.SER
		if t.SER <= 0 {
			return
		}
		c := Contributor{Kind: "gate", SER: t.SER, Obs: t.Obs, Window: t.Window}
		if t.Regs == 0 {
			c.Name = g.Name(t.Vertex)
		} else {
			e := g.Edge(t.Edge)
			name := "<input>"
			if e.From != graph.Host {
				name = g.Name(e.From)
			} else if int(e.SrcPort) >= 0 && int(e.SrcPort) < len(d.c.PIs()) {
				name = d.c.Node(d.c.PIs()[e.SrcPort]).Name
			}
			c.Kind = "register"
			c.Name = fmt.Sprintf("%s (x%d)", name, t.Regs)
		}
		out = append(out, c)
	})
	sort.Slice(out, func(i, j int) bool { return out[i].SER > out[j].SER })
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	if total > 0 {
		for i := range out {
			out[i].Share = out[i].SER / total
		}
	}
	return out, nil
}
