// Package maxflow implements Dinic's maximum-flow algorithm, used by the
// retiming core to extract maximum-gain closed sets (the max-weight
// closure reduction) from the active-constraint digraph.
package maxflow

import "math"

// Inf is the capacity used for must-follow (closure) arcs.
const Inf int64 = math.MaxInt64 / 4

type edge struct {
	to  int32
	cap int64
	rev int32
}

// Graph is a flow network under construction.
type Graph struct {
	adj [][]edge
	// scratch
	level []int32
	iter  []int32
}

// New creates a network with n nodes (0..n-1).
func New(n int) *Graph {
	return &Graph{adj: make([][]edge, n)}
}

// AddEdge adds a directed edge with the given capacity.
func (g *Graph) AddEdge(from, to int32, cap int64) {
	g.adj[from] = append(g.adj[from], edge{to: to, cap: cap, rev: int32(len(g.adj[to]))})
	g.adj[to] = append(g.adj[to], edge{to: from, cap: 0, rev: int32(len(g.adj[from]) - 1)})
}

// MaxFlow computes the maximum s-t flow.
func (g *Graph) MaxFlow(s, t int32) int64 {
	var flow int64
	n := len(g.adj)
	g.level = make([]int32, n)
	g.iter = make([]int32, n)
	for g.bfs(s, t) {
		for i := range g.iter {
			g.iter[i] = 0
		}
		for {
			f := g.dfs(s, t, Inf)
			if f == 0 {
				break
			}
			flow += f
		}
	}
	return flow
}

func (g *Graph) bfs(s, t int32) bool {
	for i := range g.level {
		g.level[i] = -1
	}
	queue := []int32{s}
	g.level[s] = 0
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, e := range g.adj[v] {
			if e.cap > 0 && g.level[e.to] < 0 {
				g.level[e.to] = g.level[v] + 1
				queue = append(queue, e.to)
			}
		}
	}
	return g.level[t] >= 0
}

func (g *Graph) dfs(v, t int32, f int64) int64 {
	if v == t {
		return f
	}
	for ; g.iter[v] < int32(len(g.adj[v])); g.iter[v]++ {
		e := &g.adj[v][g.iter[v]]
		if e.cap <= 0 || g.level[v] >= g.level[e.to] {
			continue
		}
		d := f
		if e.cap < d {
			d = e.cap
		}
		d = g.dfs(e.to, t, d)
		if d > 0 {
			e.cap -= d
			g.adj[e.to][e.rev].cap += d
			return d
		}
	}
	return 0
}

// MinCutSide returns the source side of a minimum cut after MaxFlow:
// the set of nodes reachable from s in the residual network.
func (g *Graph) MinCutSide(s int32) []bool {
	side := make([]bool, len(g.adj))
	stack := []int32{s}
	side[s] = true
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.adj[v] {
			if e.cap > 0 && !side[e.to] {
				side[e.to] = true
				stack = append(stack, e.to)
			}
		}
	}
	return side
}

// MaxClosure computes a maximum-weight closed set of a digraph: selecting
// a node forces selecting all of its must-follow successors. weights may
// be negative; frozen nodes can never be selected. It returns the selected
// mask and the total weight of the selection (0 with an empty selection
// when no positive-weight closure exists).
func MaxClosure(n int, weights []int64, frozen []bool, arcs [][2]int32) ([]bool, int64) {
	// Standard reduction: source s -> v with cap w(v) for positive
	// weights, v -> sink t with cap -w(v) for negative (Inf for frozen),
	// Inf arcs for the closure constraints. The source side of a min cut
	// is a maximum-weight closure.
	s, t := int32(n), int32(n+1)
	g := New(n + 2)
	var totalPos int64
	for v := 0; v < n; v++ {
		if frozen[v] {
			g.AddEdge(int32(v), t, Inf)
			continue
		}
		if weights[v] > 0 {
			g.AddEdge(s, int32(v), weights[v])
			totalPos += weights[v]
		} else if weights[v] < 0 {
			g.AddEdge(int32(v), t, -weights[v])
		}
	}
	for _, a := range arcs {
		g.AddEdge(a[0], a[1], Inf)
	}
	cut := g.MaxFlow(s, t)
	side := g.MinCutSide(s)
	sel := make([]bool, n)
	for v := 0; v < n; v++ {
		sel[v] = side[v]
	}
	return sel, totalPos - cut
}
