// Package maxflow extracts maximum-weight closed sets (the max-weight
// closure reduction to a minimum s–t cut) from a digraph that grows and
// changes between queries. The retiming core keeps one Network per round
// of its active-constraint digraph and warm-starts every cut from the
// previous maximum flow instead of rebuilding.
package maxflow

import "math"

// Inf is the capacity used for must-follow (closure) arcs.
const Inf int64 = math.MaxInt64 / 4

// The source and the sink are internal nodes 0 and 1; caller node v is
// internal node v+2.
const (
	src  = 0
	sink = 1
	base = 2
)

// Network is a flow network for the max-weight closure problem, stored as
// a flat forward-star arc list: head[u] is u's most recently added arc,
// next[a] the arc added before it, and arc a^1 is the reverse of arc a.
// Each caller node v owns one s→v arc (capacity w(v) when w(v) > 0) and
// one v→t arc (capacity −w(v) when w(v) < 0, Inf when frozen); closure
// arcs u→v have capacity Inf. cap holds residual capacities, so the flow
// of the last maximum-flow computation stays in the network and the next
// MaxClosure augments from it.
type Network struct {
	head []int32
	next []int32
	to   []int32
	cap  []int64

	term   []int32 // term[v]: caller node v's s→v arc; v→t is term[v]+2
	offset []int64 // capacity added to both terminal arcs by reparametrization

	// MaxClosure scratch, reused across calls.
	level []int32
	iter  []int32
	queue []int32
	path  []int32
	sel   []bool
}

// NewNetwork returns an empty network (just the source and the sink).
func NewNetwork() *Network {
	return &Network{head: []int32{-1, -1}}
}

// arc appends the arc u→v of capacity c and its reverse of capacity 0.
func (nw *Network) arc(u, v int32, c int64) {
	a := int32(len(nw.to))
	nw.to = append(nw.to, v, u)
	nw.cap = append(nw.cap, c, 0)
	nw.next = append(nw.next, nw.head[u], nw.head[v])
	nw.head[u], nw.head[v] = a, a+1
}

// AddNode adds a caller node of weight 0 and returns its index (0, 1, …
// in order of addition).
func (nw *Network) AddNode() int32 {
	v := int32(len(nw.term))
	nw.head = append(nw.head, -1)
	nw.term = append(nw.term, int32(len(nw.to)))
	nw.arc(src, v+base, 0)
	nw.arc(v+base, sink, 0)
	nw.offset = append(nw.offset, 0)
	return v
}

// AddArc records that selecting u forces selecting v. A new arc carries no
// flow, so the current flow stays feasible.
func (nw *Network) AddArc(u, v int32) { nw.arc(u+base, v+base, Inf) }

// SetWeight sets v's weight and whether v is frozen (never selectable).
// Raising a terminal capacity keeps the current flow feasible. When a new
// terminal capacity would fall below the flow already on its arc (a
// weight decrease or a freeze), both of v's terminal capacities rise by
// the shortfall instead (Kohli and Torr, "Dynamic Graph Cuts", ICCV
// 2005): every s–t cut crosses exactly one of them, so every cut grows by
// the same constant and the minimum cuts do not change. Setting the
// weight a node already has changes nothing.
func (nw *Network) SetWeight(v int32, w int64, frozen bool) {
	var cs, ct int64
	switch {
	case frozen:
		ct = Inf
	case w > 0:
		cs = w
	default:
		ct = -w
	}
	a, b := nw.term[v], nw.term[v]+2
	fs, ft := nw.cap[a^1], nw.cap[b^1] // reverse residual = flow
	off := nw.offset[v]
	short := max(fs-(cs+off), ft-(ct+off), 0)
	off += short
	nw.offset[v] = off
	nw.cap[a] = cs + off - fs
	nw.cap[b] = ct + off - ft
}

// MaxClosure augments the current flow to a maximum flow (Dinic) and
// returns the minimal maximum-weight closed set: sel[v] reports whether
// caller node v is on the source side of the residual graph. That side is
// the same for every maximum flow, so the answer does not depend on the
// flow the network was warm-started from. sel is reused by the next call.
func (nw *Network) MaxClosure() []bool {
	n := len(nw.head)
	nw.level = grow(nw.level, n)
	nw.iter = grow(nw.iter, n)
	for nw.bfs() {
		copy(nw.iter, nw.head)
		nw.augment()
	}
	nw.sel = grow(nw.sel, len(nw.term))
	for v := range nw.sel {
		nw.sel[v] = nw.level[v+base] >= 0
	}
	return nw.sel
}

// bfs levels the residual graph from the source and reports whether the
// sink is reachable. It stops once the sink is labelled; when the sink is
// unreachable the labelled nodes are exactly the source side.
func (nw *Network) bfs() bool {
	for i := range nw.level {
		nw.level[i] = -1
	}
	nw.level[src] = 0
	q := append(nw.queue[:0], src)
	for i := 0; i < len(q); i++ {
		u := q[i]
		for a := nw.head[u]; a >= 0; a = nw.next[a] {
			v := nw.to[a]
			if nw.cap[a] <= 0 || nw.level[v] >= 0 {
				continue
			}
			nw.level[v] = nw.level[u] + 1
			if v == sink {
				nw.queue = q
				return true
			}
			q = append(q, v)
		}
	}
	nw.queue = q
	return false
}

// augment saturates a blocking flow of the level graph with an iterative
// depth-first search: path holds the arcs from the source to the current
// node, iter[u] the next arc of u still worth trying.
func (nw *Network) augment() {
	path := nw.path[:0]
	u := int32(src)
	for {
		if u == sink {
			f := Inf
			for _, a := range path {
				f = min(f, nw.cap[a])
			}
			keep := -1
			for i, a := range path {
				nw.cap[a] -= f
				nw.cap[a^1] += f
				if keep < 0 && nw.cap[a] == 0 {
					keep = i
				}
			}
			// Resume from the tail of the first saturated arc.
			path = path[:keep]
			u = src
			if keep > 0 {
				u = nw.to[path[keep-1]]
			}
			continue
		}
		a := nw.iter[u]
		for ; a >= 0; a = nw.next[a] {
			if nw.cap[a] > 0 && nw.level[nw.to[a]] == nw.level[u]+1 {
				break
			}
		}
		nw.iter[u] = a
		if a >= 0 {
			path = append(path, a)
			u = nw.to[a]
			continue
		}
		// Dead end: no blocking-flow path leaves u.
		if u == src {
			break
		}
		nw.level[u] = -1
		last := path[len(path)-1]
		path = path[:len(path)-1]
		u = nw.to[last^1]
		nw.iter[u] = nw.next[nw.iter[u]]
	}
	nw.path = path
}

func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
