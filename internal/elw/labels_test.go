package elw

import (
	"math"
	"math/rand"
	"testing"

	"serretime/internal/graph"
)

// randomLabeled builds a random synchronous graph and its labels at a
// random legal-ish retiming state (zero retiming: FromCircuit-style
// weights are already non-negative).
func randomLabeled(t *testing.T, rng *rand.Rand) (*graph.Graph, graph.Retiming, Params, *Labels) {
	t.Helper()
	n := 4 + rng.Intn(20)
	b := graph.NewBuilder()
	vs := make([]graph.VertexID, n)
	for i := range vs {
		vs[i] = b.AddVertex("v", 1+float64(rng.Intn(4)))
	}
	b.AddEdge(graph.Host, vs[0], int32(rng.Intn(2)))
	for i := 1; i < n; i++ {
		b.AddEdge(vs[rng.Intn(i)], vs[i], int32(rng.Intn(3)))
		if rng.Intn(3) == 0 {
			b.AddEdge(vs[i], vs[rng.Intn(i+1)], 1+int32(rng.Intn(2)))
		}
	}
	b.AddEdge(vs[n-1], graph.Host, 0)
	g := b.Build()
	r := graph.NewRetiming(g)
	_, crit, err := g.ArrivalTimes(r)
	if err != nil {
		t.Fatal(err)
	}
	p := Params{Phi: crit * (1 + rng.Float64()), Ts: 0, Th: 2}
	lab, err := ComputeLabels(g, r, p)
	if err != nil {
		t.Fatal(err)
	}
	return g, r, p, lab
}

// TestRelabelVertexIdempotent re-runs the sweep's per-vertex kernel on
// every vertex of an already-correct label vector: since successors hold
// final labels, each relabel must reproduce the vertex bit-exactly, so the
// sweep's result is a fixpoint of eq. (6).
func TestRelabelVertexIdempotent(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g, r, p, lab := randomLabeled(t, rng)
		got := lab.Clone()
		wr := g.EdgeWeights(r)
		for v := 1; v < g.NumVertices(); v++ {
			got.relabelVertex(g, p, wr, graph.VertexID(v))
		}
		if v, diff := got.FirstDiff(lab); diff {
			t.Fatalf("seed %d: relabel not idempotent at v%d", seed, v)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g, _, _, lab := randomLabeled(t, rng)
	cl := lab.Clone()
	v := g.NumVertices() - 1
	cl.L[v] = -12345
	cl.HasWindow[v] = !cl.HasWindow[v]
	cl.LT[v] = graph.VertexID(v)
	if lab.L[v] == -12345 {
		t.Fatal("Clone shares L storage")
	}
	if _, diff := lab.FirstDiff(cl); !diff {
		t.Fatal("FirstDiff missed the divergence")
	}
}

func TestFirstDiffPerField(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	_, _, _, lab := randomLabeled(t, rng)
	if v, diff := lab.FirstDiff(lab.Clone()); diff {
		t.Fatalf("identical labels diff at v%d", v)
	}
	// Each field independently trips the comparison at the right vertex.
	target := graph.VertexID(len(lab.L) - 1)
	for name, mutate := range map[string]func(*Labels){
		"L":         func(l *Labels) { l.L[target] = -9999.5 },
		"R":         func(l *Labels) { l.R[target] = 9999.5 },
		"HasWindow": func(l *Labels) { l.HasWindow[target] = !l.HasWindow[target] },
		"LT":        func(l *Labels) { l.LT[target] = graph.VertexID(1 << 20) },
		"RT":        func(l *Labels) { l.RT[target] = graph.VertexID(1 << 20) },
	} {
		cl := lab.Clone()
		mutate(cl)
		if v, diff := lab.FirstDiff(cl); !diff || v != target {
			t.Errorf("%s mutation: diff=%v at v%d, want v%d", name, diff, v, target)
		}
	}
	short := newLabels(1)
	if _, diff := lab.FirstDiff(short); !diff {
		t.Error("length mismatch not detected")
	}
}

func TestNewLabelsEmpty(t *testing.T) {
	lab := newLabels(3)
	for v := 0; v < 3; v++ {
		if lab.HasWindow[v] || !math.IsInf(lab.L[v], 1) || !math.IsInf(lab.R[v], -1) {
			t.Fatalf("v%d not empty: %v %g %g", v, lab.HasWindow[v], lab.L[v], lab.R[v])
		}
		if lab.LT[v] != graph.Host || lab.RT[v] != graph.Host {
			t.Fatalf("v%d endpoints not host", v)
		}
	}
}
