package maxflow

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// model mirrors the operations applied to a Network so that tests can
// check its selection by brute force or against a cold rebuild.
type model struct {
	w      []int64
	frozen []bool
	arcs   [][2]int32
}

// build returns a fresh Network holding the model's final state.
func (m *model) build() *Network {
	nw := NewNetwork()
	for range m.w {
		nw.AddNode()
	}
	for _, a := range m.arcs {
		nw.AddArc(a[0], a[1])
	}
	for v := range m.w {
		nw.SetWeight(int32(v), m.w[v], m.frozen[v])
	}
	return nw
}

// apply performs one operation, chosen by op, on both nw and m: add a
// node (up to maxNodes), add an arc x→y, or set the weight of x from y.
// Weight changes include decreases below the flow a previous MaxClosure
// left on a terminal arc, freezes and unfreezes.
func (m *model) apply(nw *Network, op, x, y, maxNodes int) {
	n := len(m.w)
	switch {
	case n < 2 || op%4 == 0:
		if n < maxNodes {
			if v := nw.AddNode(); int(v) != n {
				panic("AddNode: nodes are not numbered in order")
			}
			m.w = append(m.w, 0)
			m.frozen = append(m.frozen, false)
		}
	case op%4 == 1:
		u, v := int32(x%n), int32(y%n)
		if u != v {
			nw.AddArc(u, v)
			m.arcs = append(m.arcs, [2]int32{u, v})
		}
	default:
		v := x % n
		w := int64(y%21 - 10)
		frozen := op%4 == 3 && op&4 != 0
		nw.SetWeight(int32(v), w, frozen)
		m.w[v], m.frozen[v] = w, frozen
	}
}

// bruteClosure enumerates every closed set and returns the minimal
// maximum-weight one. Maximum closures are closed under intersection, so
// the minimal one is unique: the intersection of all of them.
func bruteClosure(w []int64, frozen []bool, arcs [][2]int32) []bool {
	n := len(w)
	succ := make([]int, n) // succ[v]: the nodes v forces, as a bit mask
	for _, a := range arcs {
		succ[a[0]] |= 1 << a[1]
	}
	best, inter := int64(-1), 0
	for m := 0; m < 1<<n; m++ {
		var sum int64
		ok := true
		for v := 0; v < n && ok; v++ {
			if m&(1<<v) != 0 {
				ok = !frozen[v] && succ[v]&^m == 0
				sum += w[v]
			}
		}
		switch {
		case !ok:
		case sum > best:
			best, inter = sum, m
		case sum == best:
			inter &= m
		}
	}
	sel := make([]bool, n)
	for v := range sel {
		sel[v] = inter&(1<<v) != 0
	}
	return sel
}

// checkSequence applies ops three bytes at a time and, after each
// operation, compares the warm-started selection with the brute-force
// minimal maximum closure.
func checkSequence(t *testing.T, ops []byte) {
	t.Helper()
	const maxNodes = 10
	nw, m := NewNetwork(), &model{}
	for i := 0; i+2 < len(ops); i += 3 {
		m.apply(nw, int(ops[i]), int(ops[i+1]), int(ops[i+2]), maxNodes)
		got := nw.MaxClosure()
		if want := bruteClosure(m.w, m.frozen, m.arcs); !slices.Equal(got, want) {
			t.Fatalf("op %d: selection %v, want %v (weights %v frozen %v arcs %v)",
				i/3, got, want, m.w, m.frozen, m.arcs)
		}
	}
}

func TestMaxClosureSimple(t *testing.T) {
	// 0 (+5) forces 1 (−3): worth it. 2 (+1) forces 3 (−9): not.
	m := &model{w: []int64{5, -3, 1, -9}, frozen: make([]bool, 4), arcs: [][2]int32{{0, 1}, {2, 3}}}
	if sel := m.build().MaxClosure(); !slices.Equal(sel, []bool{true, true, false, false}) {
		t.Fatalf("sel = %v", sel)
	}
}

func TestMaxClosureFrozen(t *testing.T) {
	m := &model{w: []int64{5, 0}, frozen: []bool{false, true}, arcs: [][2]int32{{0, 1}}}
	if sel := m.build().MaxClosure(); sel[0] || sel[1] {
		t.Fatalf("sel = %v", sel)
	}
}

func TestMaxClosureChain(t *testing.T) {
	// 0(+10) -> 1(-2) -> 2(-3): closure {0,1,2} = +5.
	m := &model{w: []int64{10, -2, -3}, frozen: make([]bool, 3), arcs: [][2]int32{{0, 1}, {1, 2}}}
	if sel := m.build().MaxClosure(); !sel[0] || !sel[1] || !sel[2] {
		t.Fatalf("sel = %v", sel)
	}
}

func TestMaxClosureEmpty(t *testing.T) {
	m := &model{w: []int64{-1, -2}, frozen: make([]bool, 2)}
	if sel := m.build().MaxClosure(); sel[0] || sel[1] {
		t.Fatalf("sel = %v", sel)
	}
	if sel := NewNetwork().MaxClosure(); len(sel) != 0 {
		t.Fatalf("empty network selected %v", sel)
	}
}

func TestPropertyClosureMatchesBrute(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, 3*40)
		rng.Read(ops)
		checkSequence(t, ops)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

// TestWarmMatchesCold runs a long sequence of operations on one network
// and checks, at intervals and at the end, that the warm-started
// selection equals that of a fresh network built from the same state.
func TestWarmMatchesCold(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		maxNodes := 200 + rng.Intn(301)
		nw, m := NewNetwork(), &model{}
		for step := 1; step <= 6000; step++ {
			m.apply(nw, rng.Intn(8), rng.Intn(1<<16), rng.Intn(1<<16), maxNodes)
			if step%25 != 0 {
				continue
			}
			got := nw.MaxClosure()
			if step%500 == 0 || step == 6000 {
				if want := m.build().MaxClosure(); !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d: warm selection differs from cold (%d nodes, %d arcs)",
						seed, step, len(m.w), len(m.arcs))
				}
			}
		}
	}
}

// FuzzNetwork runs the brute-force sequence oracle of
// TestPropertyClosureMatchesBrute on fuzzer-chosen operations: three
// bytes per operation, at most ten nodes.
func FuzzNetwork(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 1, 0, 1, 2, 0, 10, 2, 1, 3, 6, 0, 7})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 1, 1, 2, 2, 0, 20, 2, 2, 5, 7, 2, 0, 2, 0, 12})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 3*64 {
			ops = ops[:3*64]
		}
		checkSequence(t, ops)
	})
}
