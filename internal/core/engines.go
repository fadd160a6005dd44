package core

import (
	"fmt"

	"serretime/internal/forest"
	"serretime/internal/maxflow"
	"serretime/internal/telemetry"
)

// closureEngine keeps the active constraints as an explicit digraph and
// extracts the maximum-gain closed set with a min-cut. Between exact
// recomputations it maintains the current set incrementally: a new
// constraint out of a member drags the target's arc-closure in; weight
// updates adjust the running total; any doubt (a frozen vertex joins, or
// the total stops being positive) invalidates the cache, and the caller
// falls back to the exact cut.
type closureEngine struct {
	n      int
	gains  []int64
	w      []int32
	frozen []bool
	arcSet map[[2]int32]struct{}
	arcs   [][2]int32
	arcOut [][]int32
	arcIn  [][]int32

	cacheValid bool
	mask       []bool
	members    []int32
}

func newClosureEngine(n int, gains []int64) *closureEngine {
	e := &closureEngine{
		n:      n,
		gains:  gains,
		w:      make([]int32, n),
		frozen: make([]bool, n),
		arcSet: make(map[[2]int32]struct{}),
		arcOut: make([][]int32, n),
		arcIn:  make([][]int32, n),
	}
	for v := range e.w {
		e.w[v] = 1
	}
	return e
}

func (e *closureEngine) total() int64 {
	var t int64
	for _, v := range e.members {
		t += e.gains[v] * int64(e.w[v])
	}
	return t
}

// PositiveSetFast returns the cached incrementally-maintained set; exact
// reports whether it is known to be the maximum-gain closure.
func (e *closureEngine) PositiveSetFast() ([]int32, []bool, bool) {
	if !e.cacheValid {
		return nil, nil, false
	}
	if e.total() <= 0 {
		e.cacheValid = false
		return nil, nil, false
	}
	return e.members, e.mask, false
}

func (e *closureEngine) PositiveSet() ([]int32, []bool) {
	// Vertices untouched by any constraint are independent: a positive
	// one is always in the maximum closure, a non-positive one never.
	// Only the constraint-touching subgraph needs the min-cut, which
	// keeps the flow network proportional to the discovered constraints
	// rather than to |V|.
	touched := make(map[int32]int32, 2*len(e.arcs)) // vertex -> local id
	var local []int32                               // local id -> vertex
	idOf := func(v int32) int32 {
		if id, ok := touched[v]; ok {
			return id
		}
		id := int32(len(local))
		touched[v] = id
		local = append(local, v)
		return id
	}
	subArcs := make([][2]int32, len(e.arcs))
	for i, a := range e.arcs {
		subArcs[i] = [2]int32{idOf(a[0]), idOf(a[1])}
	}
	weights := make([]int64, len(local))
	frozen := make([]bool, len(local))
	for id, v := range local {
		weights[id] = e.gains[v] * int64(e.w[v])
		frozen[id] = e.frozen[v]
	}
	subSel, subTotal := maxflow.MaxClosure(len(local), weights, frozen, subArcs)

	mask := make([]bool, e.n)
	var members []int32
	var total int64
	for v := 0; v < e.n; v++ {
		vid := int32(v)
		if _, ok := touched[vid]; ok {
			continue
		}
		if !e.frozen[v] && e.gains[v]*int64(e.w[v]) > 0 {
			mask[v] = true
			members = append(members, vid)
			total += e.gains[v] * int64(e.w[v])
		}
	}
	if subTotal > 0 {
		for id, v := range local {
			if subSel[id] {
				mask[v] = true
				members = append(members, v)
			}
		}
		total += subTotal
	}
	if total <= 0 || len(members) == 0 {
		e.cacheValid = false
		return nil, make([]bool, e.n)
	}
	e.members = members
	e.mask = mask
	e.cacheValid = true
	return members, mask
}

func (e *closureEngine) Weight(v int32) int32 { return e.w[v] }

// seedArc records the constraint p → q without the incremental-cache
// maintenance of AddConstraint and reports whether the arc is new. Bulk
// loaders (seedRequirementClosure) use it and invalidate the cached set
// once, when done.
func (e *closureEngine) seedArc(p, q int32) bool {
	key := [2]int32{p, q}
	if _, dup := e.arcSet[key]; dup {
		return false
	}
	e.arcSet[key] = struct{}{}
	e.arcs = append(e.arcs, key)
	e.arcOut[p] = append(e.arcOut[p], q)
	e.arcIn[q] = append(e.arcIn[q], p)
	return true
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
		closure := []int32{q}
		seen := map[int32]bool{q: true}
		frozenHit := e.frozen[q]
		for i := 0; i < len(closure) && !frozenHit; i++ {
			for _, nx := range e.arcOut[closure[i]] {
				if seen[nx] || e.mask[nx] {
					continue
				}
				if e.frozen[nx] {
					frozenHit = true
					break
				}
				seen[nx] = true
				closure = append(closure, nx)
			}
		}
		if frozenHit {
			// Drop every cached member that (transitively) forces q: the
			// remainder is still a closed set (anything pointing into the
			// dropped part would itself force q).
			e.dropForcing(q)
			return nil
		}
		for _, v := range closure {
			e.mask[v] = true
			e.members = append(e.members, v)
		}
	}
	return nil
}

// dropForcing removes from the cached set all members with an arc path to
// target.
func (e *closureEngine) dropForcing(target int32) {
	drop := make(map[int32]bool, 8)
	stack := []int32{target}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, pr := range e.arcIn[v] {
			if e.mask[pr] && !drop[pr] {
				drop[pr] = true
				stack = append(stack, pr)
			}
		}
	}
	if len(drop) == 0 {
		return
	}
	kept := e.members[:0]
	for _, m := range e.members {
		if drop[m] {
			e.mask[m] = false
		} else {
			kept = append(kept, m)
		}
	}
	e.members = kept
}

func (e *closureEngine) Freeze(v int32) {
	e.frozen[v] = true
	if e.cacheValid && e.mask[v] {
		e.mask[v] = false
		for i, m := range e.members {
			if m == v {
				e.members = append(e.members[:i], e.members[i+1:]...)
				break
			}
		}
		e.dropForcing(v)
	}
}

func (e *closureEngine) Frozen(v int32) bool { return e.frozen[v] }

// forestEngine adapts the weighted regular forest to the engine interface.
type forestEngine struct {
	f *forest.Forest
}

func newForestEngine(n int, gains []int64, rec telemetry.Recorder) (*forestEngine, error) {
	f, err := forest.New(n, gains)
	if err != nil {
		return nil, err
	}
	f.Instrument(rec)
	return &forestEngine{f: f}, nil
}

func (e *forestEngine) PositiveSet() ([]int32, []bool) { return e.f.PositiveSet() }

// PositiveSetFast: the forest maintains its trees incrementally and its
// set is always authoritative.
func (e *forestEngine) PositiveSetFast() ([]int32, []bool, bool) {
	m, mask := e.f.PositiveSet()
	return m, mask, true
}

func (e *forestEngine) Weight(v int32) int32 { return e.f.Weight(v) }

func (e *forestEngine) SetWeight(q int32, w int32) error {
	if e.f.Weight(q) == w {
		return nil
	}
	if !e.f.IsSingleton(q) {
		e.f.Break(q) // Figure 3: BreakTree before the weight update
	}
	return e.f.SetWeight(q, w)
}

func (e *forestEngine) AddConstraint(p, q int32) error { return e.f.Link(p, q) }
func (e *forestEngine) Freeze(v int32)                 { e.f.Freeze(v) }
func (e *forestEngine) Frozen(v int32) bool            { return e.f.Frozen(v) }
