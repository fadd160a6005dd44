package graph

import "math"

// WD holds the classic Leiserson–Saxe path matrices:
//
//	W(u,v) = minimum register count over all u->v paths,
//	D(u,v) = maximum total vertex delay (endpoints included) over the
//	         u->v paths achieving W(u,v).
//
// Paths never route *through* the host (the environment is a timing
// barrier), though they may start or end there. Unreachable pairs have
// W = NoPath.
type WD struct {
	n int
	w []int32
	d []float64
}

// NoPath marks an unreachable vertex pair in W.
const NoPath int32 = math.MaxInt32

// W returns W(u,v), or NoPath if v is unreachable from u.
func (m *WD) W(u, v VertexID) int32 { return m.w[int(u)*m.n+int(v)] }

// D returns D(u,v); meaningful only when W(u,v) != NoPath.
func (m *WD) D(u, v VertexID) float64 { return m.d[int(u)*m.n+int(v)] }

type pqItem struct {
	v    VertexID
	dist int32
}

// heapPush and heapPop implement a binary min-heap on a plain slice.
// container/heap would box every pqItem through interface{} — measured at
// ~9M allocs for one 2500-vertex ComputeWD — so the heap is hand-rolled.
// Tie order among equal dists is irrelevant: Dijkstra's dist fixpoint is
// unique, which keeps the matrices deterministic.
func heapPush(h *[]pqItem, it pqItem) {
	s := append(*h, it)
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if s[p].dist <= s[i].dist {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
	*h = s
}

func heapPop(h *[]pqItem) pqItem {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	i := 0
	for {
		l := 2*i + 1
		if l >= len(s) {
			break
		}
		min := l
		if r := l + 1; r < len(s) && s[r].dist < s[l].dist {
			min = r
		}
		if s[i].dist <= s[min].dist {
			break
		}
		s[i], s[min] = s[min], s[i]
		i = min
	}
	*h = s
	return top
}

// wdScratch is the working set of the row fill: Dijkstra dists and heap,
// Kahn indegrees and queue. One scratch serves every source row.
type wdScratch struct {
	dist  []int32
	indeg []int32
	queue []VertexID
	h     []pqItem
}

// ComputeWD builds the W/D matrices for the base weights of g. This costs
// Θ(|V|²) memory and O(|V| · |E| log |V|) time; it exists for the exact
// reference solver and for validation, not for the incremental algorithms.
func (g *Graph) ComputeWD() *WD {
	n := g.NumVertices()
	m := &WD{n: n, w: make([]int32, n*n), d: make([]float64, n*n)}
	// No matrix-wide init: wdFrom overwrites every entry of its row.
	sc := &wdScratch{
		dist:  make([]int32, n),
		indeg: make([]int32, n),
		queue: make([]VertexID, 0, n),
		h:     make([]pqItem, 0, n),
	}
	for src := 0; src < n; src++ {
		g.wdFrom(VertexID(src), m, sc)
	}
	return m
}

// wdFrom fills row src of the matrices.
func (g *Graph) wdFrom(src VertexID, m *WD, sc *wdScratch) {
	n := g.NumVertices()
	dist := sc.dist
	for i := range dist {
		dist[i] = NoPath
	}
	// Phase 1: Dijkstra on register counts (all weights >= 0).
	dist[src] = 0
	h := sc.h[:0]
	heapPush(&h, pqItem{src, 0})
	for len(h) > 0 {
		it := heapPop(&h)
		if it.dist > dist[it.v] {
			continue
		}
		if it.v == Host && src != Host {
			continue // do not route through the environment
		}
		for _, eid := range g.Out(it.v) {
			to := g.eTo[eid]
			if nd := it.dist + g.eW[eid]; nd < dist[to] {
				dist[to] = nd
				heapPush(&h, pqItem{to, nd})
			}
		}
	}
	sc.h = h
	// Phase 2: longest-delay DP over the tight subgraph (edges on some
	// min-register path). The tight subgraph is acyclic because a tight
	// cycle would be a zero-weight cycle, which Check() excludes.
	row := int(src) * n
	// dDP[v] = max delay of a min-register path src..v, *excluding* d(v)
	// accumulation handled by adding d at relaxation time; we store the
	// full path delay including both endpoints.
	dDP := m.d[row : row+n]
	wRow := m.w[row : row+n]
	for v := 0; v < n; v++ {
		wRow[v] = dist[v]
	}
	// Process vertices in ascending (dist, topo-within-level) order via
	// Kahn's algorithm restricted to tight edges.
	indeg := sc.indeg
	clear(indeg)
	for i := range g.eW {
		from := g.eFrom[i]
		if dist[from] == NoPath || (from == Host && src != Host) {
			continue
		}
		if dist[from]+g.eW[i] == dist[g.eTo[i]] {
			indeg[g.eTo[i]]++
		}
	}
	queue := sc.queue[:0]
	for v := 0; v < n; v++ {
		if dist[v] != NoPath && indeg[v] == 0 {
			queue = append(queue, VertexID(v))
		}
	}
	for v := range dDP {
		dDP[v] = math.Inf(-1)
	}
	dDP[src] = g.delay[src]
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if v == Host && v != src {
			continue
		}
		for _, eid := range g.Out(v) {
			to := g.eTo[eid]
			if dist[v]+g.eW[eid] != dist[to] {
				continue
			}
			if nd := dDP[v] + g.delay[to]; nd > dDP[to] {
				dDP[to] = nd
			}
			indeg[to]--
			if indeg[to] == 0 {
				queue = append(queue, to)
			}
		}
	}
	sc.queue = queue
}
