package core

import (
	"fmt"

	"serretime/internal/maxflow"
)

// closureEngine keeps the active constraints as an explicit digraph and
// extracts the maximum-gain closed set with a min-cut. The digraph lives in
// one maxflow.Network per round (DESIGN.md §5.4): a constraint that first
// touches a vertex adds its node, every constraint adds an infinite arc,
// and each exact cut augments the previous cut's maximum flow instead of
// rebuilding the network. Between exact recomputations it maintains the
// current set incrementally: a new constraint out of a member drags the
// target's arc-closure in; weight updates adjust the running total; any
// doubt (a frozen vertex joins, or the total stops being positive)
// invalidates the cache, and the caller falls back to the exact cut.
type closureEngine struct {
	n      int
	gains  []int64
	w      []int32
	frozen []bool
	arcSet map[uint64]struct{}
	// arcs holds the constraints as flat linked lists, so recording one
	// allocates at most a growth of arcs. v's arcs out run from
	// outFirst[v] to outLast[v] in the order they were added; its arcs in
	// start at inHead[v], newest first. -1 ends a list. net holds the
	// same arcs, but its per-node lists also carry terminal and reverse
	// arcs, which made the closure walks measurably slower.
	arcs     []constraintArc
	outFirst []int32
	outLast  []int32
	inHead   []int32

	net    *maxflow.Network
	node   []int32 // vertex -> network node, -1 until a constraint touches it
	vertex []int32 // network node -> vertex, in first-touch order

	cacheValid bool
	mask       []bool
	// members lists the cached set. dropForcing and Freeze only clear
	// mask bits; PositiveSetFast drops the stale entries on its next walk.
	members []int32
	pos     []int32 // pos[v]: index of v's live entry in members

	seen  []uint32 // epoch stamps of AddConstraint's closure walk
	epoch uint32
	work  []int32 // AddConstraint / dropForcing worklist
}

// constraintArc is the closure engine's record of the constraint from →
// to: nextOut and nextIn continue from's out-list and to's in-list.
type constraintArc struct{ from, to, nextOut, nextIn int32 }

func newClosureEngine(n int, gains []int64) *closureEngine {
	e := &closureEngine{
		n:        n,
		gains:    gains,
		w:        make([]int32, n),
		frozen:   make([]bool, n),
		arcSet:   make(map[uint64]struct{}),
		outFirst: make([]int32, n),
		outLast:  make([]int32, n),
		inHead:   make([]int32, n),
		net:      maxflow.NewNetwork(),
		node:     make([]int32, n),
		mask:     make([]bool, n),
		pos:      make([]int32, n),
		seen:     make([]uint32, n),
	}
	for v := range e.w {
		e.w[v] = 1
		e.outFirst[v], e.outLast[v], e.inHead[v], e.node[v] = -1, -1, -1, -1
	}
	return e
}

// PositiveSetFast returns the cached incrementally-maintained set; exact
// reports whether it is known to be the maximum-gain closure. Its walk
// over members also compacts them: an entry stays only while its vertex
// is in the set and it is that vertex's live entry (pos), so no vertex is
// listed twice.
func (e *closureEngine) PositiveSetFast() ([]int32, []bool, bool) {
	if !e.cacheValid {
		return nil, nil, false
	}
	kept := e.members[:0]
	var total int64
	for i, m := range e.members {
		if !e.mask[m] || e.pos[m] != int32(i) {
			continue
		}
		e.pos[m] = int32(len(kept))
		kept = append(kept, m)
		total += e.gains[m] * int64(e.w[m])
	}
	e.members = kept
	if total <= 0 {
		e.cacheValid = false
		return nil, nil, false
	}
	return e.members, e.mask, false
}

func (e *closureEngine) PositiveSet() ([]int32, []bool) {
	// Refresh every node's terminal capacities: SetWeight, Freeze and
	// seedRequirementClosure only write w and frozen.
	for id, v := range e.vertex {
		e.net.SetWeight(int32(id), e.gains[v]*int64(e.w[v]), e.frozen[v])
	}
	sel := e.net.MaxClosure()
	clear(e.mask)
	members := e.members[:0]
	// Vertices untouched by any constraint are independent: a positive
	// one is always in the maximum closure, a non-positive one never.
	// Only the constraint-touching subgraph needs the min-cut, which
	// keeps the flow network proportional to the discovered constraints
	// rather than to |V|.
	for v := 0; v < e.n; v++ {
		if e.node[v] < 0 && !e.frozen[v] && e.gains[v]*int64(e.w[v]) > 0 {
			e.mask[v] = true
			e.pos[v] = int32(len(members))
			members = append(members, int32(v))
		}
	}
	// The cut selects the minimal maximum closure of the touched
	// subgraph, which is empty unless its weight is positive, so the
	// set is positive exactly when it is non-empty.
	for id, v := range e.vertex {
		if sel[id] {
			e.mask[v] = true
			e.pos[v] = int32(len(members))
			members = append(members, v)
		}
	}
	e.members = members
	e.cacheValid = len(members) > 0
	return members, e.mask
}

func (e *closureEngine) Weight(v int32) int32 { return e.w[v] }

// seedArc records the constraint p → q without the incremental-cache
// maintenance of AddConstraint and reports whether the arc is new. Bulk
// loaders (seedRequirementClosure) use it and invalidate the cached set
// once, when done.
func (e *closureEngine) seedArc(p, q int32) bool {
	key := uint64(uint32(p))<<32 | uint64(uint32(q))
	if _, dup := e.arcSet[key]; dup {
		return false
	}
	e.arcSet[key] = struct{}{}
	k := int32(len(e.arcs))
	e.arcs = append(e.arcs, constraintArc{from: p, to: q, nextOut: -1, nextIn: e.inHead[q]})
	if last := e.outLast[p]; last >= 0 {
		e.arcs[last].nextOut = k
	} else {
		e.outFirst[p] = k
	}
	e.outLast[p], e.inHead[q] = k, k
	e.net.AddArc(e.nodeOf(p), e.nodeOf(q))
	return true
}

// nodeOf returns v's network node, adding it on first touch.
func (e *closureEngine) nodeOf(v int32) int32 {
	if e.node[v] < 0 {
		e.node[v] = e.net.AddNode()
		e.vertex = append(e.vertex, v)
	}
	return e.node[v]
}

func (e *closureEngine) SetWeight(q int32, w int32) error {
	if w < 1 {
		return fmt.Errorf("core: weight %d < 1", w)
	}
	e.w[q] = w
	// The cached total shifts; PositiveSetFast re-sums and invalidates
	// itself if the set stops being positive.
	return nil
}

func (e *closureEngine) AddConstraint(p, q int32) error {
	if p == q {
		return fmt.Errorf("core: self-constraint at %d", p)
	}
	if !e.seedArc(p, q) {
		return nil
	}
	if e.cacheValid && e.mask[p] && !e.mask[q] {
		// Phase 1: explore q's arc-closure without mutating; a frozen
		// vertex inside means the cached set cannot absorb q.
		e.epoch++
		closure := append(e.work[:0], q)
		e.seen[q] = e.epoch
		frozenHit := e.frozen[q]
		for i := 0; i < len(closure) && !frozenHit; i++ {
			for k := e.outFirst[closure[i]]; k >= 0; k = e.arcs[k].nextOut {
				nx := e.arcs[k].to
				if e.seen[nx] == e.epoch || e.mask[nx] {
					continue
				}
				if e.frozen[nx] {
					frozenHit = true
					break
				}
				e.seen[nx] = e.epoch
				closure = append(closure, nx)
			}
		}
		e.work = closure
		if frozenHit {
			// Drop every cached member that (transitively) forces q: the
			// remainder is still a closed set (anything pointing into the
			// dropped part would itself force q).
			e.dropForcing(q)
			return nil
		}
		for _, v := range closure {
			e.mask[v] = true
			e.pos[v] = int32(len(e.members))
			e.members = append(e.members, v)
		}
	}
	return nil
}

// dropForcing removes from the cached set all members with an arc path to
// target. It only clears their mask bits; PositiveSetFast compacts members.
func (e *closureEngine) dropForcing(target int32) {
	stack := append(e.work[:0], target)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for k := e.inHead[v]; k >= 0; k = e.arcs[k].nextIn {
			if pr := e.arcs[k].from; e.mask[pr] {
				e.mask[pr] = false
				stack = append(stack, pr)
			}
		}
	}
	e.work = stack
}

func (e *closureEngine) Freeze(v int32) {
	e.frozen[v] = true
	if e.cacheValid && e.mask[v] {
		e.mask[v] = false
		e.dropForcing(v)
	}
}

func (e *closureEngine) Frozen(v int32) bool { return e.frozen[v] }
