package verify

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"serretime/internal/benchfmt"
	"serretime/internal/circuit"
	"serretime/internal/graph"
)

func load(t testing.TB, name string) (*circuit.Circuit, *graph.Graph) {
	t.Helper()
	c, err := benchfmt.ParseFile("../../testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.FromCircuit(c)
	return c, g
}

func TestIdentityRetimingEquivalent(t *testing.T) {
	c, g := load(t, "s27.bench")
	if err := ForwardEquivalent(c, g, graph.NewRetiming(g), DefaultOptions()); err != nil {
		t.Fatal(err)
	}
}

// TestSingleForwardMoveEquivalent checks every legal single-vertex
// forward move of pipeline4 (n3, n5 and fb read registers on every pin;
// s27 has no legal forward move at all).
func TestSingleForwardMoveEquivalent(t *testing.T) {
	c, g := load(t, "pipeline4.bench")
	found := 0
	for v := 1; v < g.NumVertices(); v++ {
		r := graph.NewRetiming(g)
		r[v]--
		if g.CheckLegal(r) != nil {
			continue
		}
		found++
		if err := ForwardEquivalent(c, g, r, DefaultOptions()); err != nil {
			t.Fatalf("vertex %s: %v", g.Name(graph.VertexID(v)), err)
		}
	}
	if found < 3 {
		t.Fatalf("%d legal single forward moves in pipeline4, want at least 3 (n3, n5, fb)", found)
	}
}

func TestPipeline4ForwardMoves(t *testing.T) {
	c, g := load(t, "pipeline4.bench")
	rng := rand.New(rand.NewSource(11))
	r := graph.NewRetiming(g)
	moves := 0
	for tries := 0; tries < 100 && moves < 5; tries++ {
		v := graph.VertexID(1 + rng.Intn(g.NumGates()))
		r[v]--
		if g.CheckLegal(r) != nil {
			r[v]++
			continue
		}
		moves++
	}
	if moves == 0 {
		t.Skip("no legal forward moves found")
	}
	if err := ForwardEquivalent(c, g, r, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
}

func TestBackwardRetimingRejected(t *testing.T) {
	c, g := load(t, "s27.bench")
	r := graph.NewRetiming(g)
	// Find a vertex where an increment is legal.
	for v := 1; v < g.NumVertices(); v++ {
		r[v]++
		if g.CheckLegal(r) == nil {
			break
		}
		r[v]--
	}
	err := ForwardEquivalent(c, g, r, DefaultOptions())
	if err == nil || !strings.Contains(err.Error(), "forward") {
		t.Fatalf("backward retiming not rejected: %v", err)
	}
}

func TestIllegalRetimingRejected(t *testing.T) {
	c, g := load(t, "s27.bench")
	r := graph.NewRetiming(g)
	r[1] = -100
	if err := ForwardEquivalent(c, g, r, DefaultOptions()); err == nil {
		t.Fatal("illegal retiming accepted")
	}
}

// randomSeqCircuit builds a random sequential circuit with enough
// registers to admit forward moves.
func randomSeqCircuit(rng *rand.Rand, nGates int) (*circuit.Circuit, error) {
	b := circuit.NewBuilder("rnd")
	names := []string{"pi0", "pi1", "pi2"}
	for _, n := range names {
		b.PI(n)
	}
	fns := []circuit.Func{circuit.FnAnd, circuit.FnOr, circuit.FnNand, circuit.FnNor, circuit.FnXor}
	avail := append([]string(nil), names...)
	gi, qi := 0, 0
	for i := 0; i < nGates; i++ {
		src := avail[rng.Intn(len(avail))]
		if rng.Intn(3) == 0 {
			q := "q" + itoa(qi)
			qi++
			b.DFF(q, src)
			avail = append(avail, q)
			continue
		}
		src2 := avail[rng.Intn(len(avail))]
		gname := "g" + itoa(gi)
		gi++
		b.Gate(gname, fns[rng.Intn(len(fns))], src, src2)
		avail = append(avail, gname)
	}
	b.PO(avail[len(avail)-1])
	b.PO(avail[len(avail)/2])
	return b.Build()
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var bs []byte
	for i > 0 {
		bs = append([]byte{byte('0' + i%10)}, bs...)
		i /= 10
	}
	return string(bs)
}

func TestPropertyRandomForwardRetimingsEquivalent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c, err := randomSeqCircuit(rng, 12+rng.Intn(20))
		if err != nil {
			return true // degenerate build (e.g. PO of a PI): skip
		}
		g := graph.FromCircuit(c)
		r := graph.NewRetiming(g)
		for tries := 0; tries < 30; tries++ {
			v := graph.VertexID(1 + rng.Intn(g.NumGates()))
			r[v]--
			if g.CheckLegal(r) != nil {
				r[v]++
			}
		}
		opt := DefaultOptions()
		opt.Seed = seed
		opt.Cycles = 16
		return ForwardEquivalent(c, g, r, opt) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyMultiStepForwardMoves(t *testing.T) {
	// Repeated decrements of the same vertex (multi-register moves).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c, err := randomSeqCircuit(rng, 20)
		if err != nil {
			return true
		}
		g := graph.FromCircuit(c)
		r := graph.NewRetiming(g)
		for v := 1; v < g.NumVertices(); v++ {
			for k := 0; k < 3; k++ {
				r[v]--
				if g.CheckLegal(r) != nil {
					r[v]++
					break
				}
			}
		}
		opt := DefaultOptions()
		opt.Seed = seed
		opt.Cycles = 12
		return ForwardEquivalent(c, g, r, opt) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
