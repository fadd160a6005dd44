package maxflow

import (
	"math/rand"
	"testing"
)

// BenchmarkMaxClosure replays one sequence of queries on a 1000-node
// network: each query follows a few new arcs and weight changes. "warm"
// updates one network and augments from the previous flow; "cold"
// rebuilds the network from scratch for every query.
func BenchmarkMaxClosure(b *testing.B) {
	const n, queries = 1000, 40
	rng := rand.New(rand.NewSource(3))
	m := &model{w: make([]int64, n), frozen: make([]bool, n)}
	for v := range m.w {
		m.w[v] = int64(rng.Intn(201) - 100)
	}
	for len(m.arcs) < 3*n {
		if u, v := int32(rng.Intn(n)), int32(rng.Intn(n)); u != v {
			m.arcs = append(m.arcs, [2]int32{u, v})
		}
	}
	type update struct {
		arcs    [][2]int32
		weights [][2]int64 // node, weight
	}
	updates := make([]update, queries)
	for i := range updates {
		for k := 0; k < 3; k++ {
			if u, v := int32(rng.Intn(n)), int32(rng.Intn(n)); u != v {
				updates[i].arcs = append(updates[i].arcs, [2]int32{u, v})
			}
		}
		for k := 0; k < 5; k++ {
			updates[i].weights = append(updates[i].weights, [2]int64{int64(rng.Intn(n)), int64(rng.Intn(201) - 100)})
		}
	}
	run := func(b *testing.B, query func(m *model, nw *Network, u update) *Network) {
		for i := 0; i < b.N; i++ {
			mm := &model{w: append([]int64(nil), m.w...), frozen: m.frozen, arcs: append([][2]int32(nil), m.arcs...)}
			nw := mm.build()
			nw.MaxClosure()
			for _, u := range updates {
				nw = query(mm, nw, u)
				nw.MaxClosure()
			}
		}
	}
	b.Run("warm", func(b *testing.B) {
		run(b, func(m *model, nw *Network, u update) *Network {
			for _, a := range u.arcs {
				nw.AddArc(a[0], a[1])
			}
			for _, w := range u.weights {
				nw.SetWeight(int32(w[0]), w[1], false)
			}
			return nw
		})
	})
	b.Run("cold", func(b *testing.B) {
		run(b, func(m *model, _ *Network, u update) *Network {
			m.arcs = append(m.arcs, u.arcs...)
			for _, w := range u.weights {
				m.w[w[0]] = w[1]
			}
			return m.build()
		})
	})
}
