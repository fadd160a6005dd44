package sim

import (
	"fmt"

	"serretime/internal/circuit"
)

// Stepper is a cycle-accurate bit-parallel simulator with explicit state,
// used for sequential equivalence checking. Unlike Run, the caller supplies
// the primary-input signatures of every cycle and the initial flip-flop
// contents.
type Stepper struct {
	c     *circuit.Circuit
	csr   *circuit.CSR
	words int
	vals  []uint64 // current-cycle net values, node-major
	state []uint64 // DFF outputs for the current cycle, node-major
	dffs  []circuit.NodeID
}

// NewStepper builds a stepper with all-zero initial state.
func NewStepper(c *circuit.Circuit, words int) (*Stepper, error) {
	if words <= 0 {
		return nil, fmt.Errorf("sim: words = %d", words)
	}
	csr := c.CSR()
	return &Stepper{
		c:     c,
		csr:   csr,
		words: words,
		vals:  make([]uint64, csr.N*words),
		state: make([]uint64, csr.N*words),
		dffs:  c.NodesOfKind(circuit.KindDFF),
	}, nil
}

// Words returns the signature width in 64-bit words.
func (s *Stepper) Words() int { return s.words }

// Value returns a copy of the given net's signature from the most recent
// Step call (zero before the first Step).
func (s *Stepper) Value(id circuit.NodeID) []uint64 {
	out := make([]uint64, s.words)
	copy(out, s.vals[int(id)*s.words:int(id+1)*s.words])
	return out
}

// SetState sets the stored value of a flip-flop for the next Step call.
func (s *Stepper) SetState(dff circuit.NodeID, sig []uint64) error {
	if s.c.Node(dff).Kind != circuit.KindDFF {
		return fmt.Errorf("sim: SetState on non-DFF %q", s.c.Node(dff).Name)
	}
	if len(sig) != s.words {
		return fmt.Errorf("sim: SetState width %d, want %d", len(sig), s.words)
	}
	copy(s.state[int(dff)*s.words:], sig)
	return nil
}

// Step simulates one clock cycle: pi maps each primary input (by position
// in c.PIs()) to its signature; the returned slice holds the primary-output
// signatures by position in c.POs(). The returned signatures are copies.
func (s *Stepper) Step(pi [][]uint64) ([][]uint64, error) {
	pis := s.c.PIs()
	if len(pi) != len(pis) {
		return nil, fmt.Errorf("sim: %d PI signatures for %d inputs", len(pi), len(pis))
	}
	for i, id := range pis {
		if len(pi[i]) != s.words {
			return nil, fmt.Errorf("sim: PI %d width %d, want %d", i, len(pi[i]), s.words)
		}
		copy(s.vals[int(id)*s.words:int(id+1)*s.words], pi[i])
	}
	// Sources first: DFF outputs must be visible before any gate reads
	// them, regardless of their position in the topological order.
	for _, id := range s.dffs {
		base := int(id) * s.words
		copy(s.vals[base:base+s.words], s.state[base:base+s.words])
	}
	for _, id := range s.csr.GateOrder {
		fanin := s.csr.FaninOf(id)
		fn := s.csr.Fn[id]
		base := int(id) * s.words
		for w := 0; w < s.words; w++ {
			s.vals[base+w] = fn.EvalFanin(s.vals, fanin, s.words, w)
		}
	}
	out := make([][]uint64, len(s.c.POs()))
	for i, id := range s.c.POs() {
		sig := make([]uint64, s.words)
		copy(sig, s.vals[int(id)*s.words:int(id+1)*s.words])
		out[i] = sig
	}
	// Latch next state.
	for _, id := range s.dffs {
		d := s.c.Node(id).Fanin[0]
		copy(s.state[int(id)*s.words:int(id+1)*s.words], s.vals[int(d)*s.words:int(d+1)*s.words])
	}
	return out, nil
}
