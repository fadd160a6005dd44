package elw

import (
	"math/rand"
	"testing"

	"serretime/internal/graph"
)

func benchGraph(b *testing.B) *graph.Graph {
	rng := rand.New(rand.NewSource(7))
	g := randomGraph(rng, 500)
	if err := g.Check(); err != nil {
		b.Fatal(err)
	}
	return g
}

func BenchmarkExact500(b *testing.B) {
	g := benchGraph(b)
	p := DefaultParams(100)
	r := graph.NewRetiming(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Exact(g, r, p, 0)
	}
}

func BenchmarkLabels500(b *testing.B) {
	g := benchGraph(b)
	p := DefaultParams(100)
	r := graph.NewRetiming(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ComputeLabels(g, r, p, nil)
	}
}
