// Package forest implements the weighted regular forest of Section IV of
// the paper (extending the regular forest of Wang & Zhou, DAC'08 [20]).
//
// The forest manages the set A of active constraints discovered by the
// retiming algorithm. A constraint (p, q) with weight w means: whenever p
// decreases its retiming label, q must decrease by w. Constraints form
// trees; each vertex carries a gain b(v) and a move weight w(v), and a
// tree's total gain is Σ b(v)·w(v) over its members. The candidate move
// set V_P(F) is the union of all positive trees (positive gain, no frozen
// member).
//
// Edges store the constraint direction with the label U(v) on the child:
// U(v) = true means (v, parent) is the constraint (the child's subtree
// pushes the parent); U(v) = false means (parent, v) (the child hangs as
// baggage the parent requires). Regularity — positive subtrees point up,
// non-positive subtrees hang down — is restored after every update by
// cutting edges that violate it; a cut constraint is not lost for good,
// because the algorithm re-discovers any still-binding constraint from the
// next tentative move's violations.
package forest

import "fmt"

// None marks the absence of a parent.
const None int32 = -1

// Forest is the weighted regular forest over vertices 0..n-1.
type Forest struct {
	b      []int64 // per-vertex gain (fixed)
	w      []int32 // per-vertex move weight (≥ 1)
	parent []int32
	up     []bool // U(v), meaningful when parent != None
	kids   [][]int32
	frozen []bool

	// Aggregates maintained incrementally per subtree.
	sumBW     []int64 // B(v): Σ b·w over the subtree rooted at v
	numFrozen []int32 // frozen vertices in the subtree
}

// New creates a forest of n singleton trees with unit weights.
func New(n int, gains []int64) (*Forest, error) {
	if len(gains) != n {
		return nil, fmt.Errorf("forest: %d gains for %d vertices", len(gains), n)
	}
	f := &Forest{
		b:         append([]int64(nil), gains...),
		w:         make([]int32, n),
		parent:    make([]int32, n),
		up:        make([]bool, n),
		kids:      make([][]int32, n),
		frozen:    make([]bool, n),
		sumBW:     make([]int64, n),
		numFrozen: make([]int32, n),
	}
	for v := 0; v < n; v++ {
		f.w[v] = 1
		f.parent[v] = None
		f.sumBW[v] = gains[v]
	}
	return f, nil
}

// Len returns the number of vertices.
func (f *Forest) Len() int { return len(f.b) }

// Weight returns w(v).
func (f *Forest) Weight(v int32) int32 { return f.w[v] }

// Gain returns b(v).
func (f *Forest) Gain(v int32) int64 { return f.b[v] }

// Freeze marks v immovable: any tree containing v is never positive.
func (f *Forest) Freeze(v int32) {
	if f.frozen[v] {
		return
	}
	f.frozen[v] = true
	for x := v; x != None; x = f.parent[x] {
		f.numFrozen[x]++
	}
}

// Frozen reports whether v is frozen.
func (f *Forest) Frozen(v int32) bool { return f.frozen[v] }

// Root returns the root of v's tree.
func (f *Forest) Root(v int32) int32 {
	for f.parent[v] != None {
		v = f.parent[v]
	}
	return v
}

// SameTree reports whether u and v belong to one tree.
func (f *Forest) SameTree(u, v int32) bool { return f.Root(u) == f.Root(v) }

// IsSingleton reports whether v is a tree by itself.
func (f *Forest) IsSingleton(v int32) bool {
	return f.parent[v] == None && len(f.kids[v]) == 0
}

// TreePositive reports whether v's tree is positive (gain > 0, no frozen
// member).
func (f *Forest) TreePositive(v int32) bool {
	r := f.Root(v)
	return f.sumBW[r] > 0 && f.numFrozen[r] == 0
}

// PositiveSet returns V_P(F): all members of positive trees, plus a
// membership mask.
func (f *Forest) PositiveSet() ([]int32, []bool) {
	n := len(f.b)
	mask := make([]bool, n)
	var out []int32
	for v := 0; v < n; v++ {
		if f.parent[int32(v)] == None && f.sumBW[v] > 0 && f.numFrozen[v] == 0 {
			out = f.collect(int32(v), out, mask)
		}
	}
	return out, mask
}

func (f *Forest) collect(v int32, out []int32, mask []bool) []int32 {
	out = append(out, v)
	mask[v] = true
	for _, c := range f.kids[v] {
		out = f.collect(c, out, mask)
	}
	return out
}

// SetWeight updates w(q). Per Section IV-C, the weight of a vertex may
// only change while it is a tree by itself (callers Break first).
func (f *Forest) SetWeight(q int32, w int32) error {
	if w < 1 {
		return fmt.Errorf("forest: weight %d < 1", w)
	}
	if !f.IsSingleton(q) {
		return fmt.Errorf("forest: SetWeight on non-singleton vertex %d", q)
	}
	f.w[q] = w
	f.sumBW[q] = f.b[q] * int64(w)
	return nil
}

// Break implements the BreakTree routine: it re-roots q's tree at q and
// deletes the edges from q to its children, leaving q a singleton and each
// former neighbor's component its own tree.
func (f *Forest) Break(q int32) {
	f.reroot(q)
	for _, c := range f.kids[q] {
		f.parent[c] = None
	}
	f.kids[q] = f.kids[q][:0]
	f.sumBW[q] = f.b[q] * int64(f.w[q])
	f.numFrozen[q] = btoi(f.frozen[q])
}

// reroot makes q the root of its tree, flipping the stored constraint
// directions along the path.
func (f *Forest) reroot(q int32) {
	// Collect the path q -> old root.
	var path []int32
	for x := q; x != None; x = f.parent[x] {
		path = append(path, x)
	}
	if len(path) == 1 {
		return
	}
	// Reverse parent pointers along the path. The old edge (child=path[i],
	// parent=path[i+1], up=U) becomes (child=path[i+1], parent=path[i],
	// up=!U): the constraint direction is physical, the tree orientation
	// is bookkeeping.
	for i := len(path) - 2; i >= 0; i-- {
		child, par := path[i], path[i+1]
		oldUp := f.up[child]
		// Remove child from par's kids.
		f.removeKid(par, child)
		// Attach par under child.
		f.parent[par] = child
		f.up[par] = !oldUp
		f.kids[child] = append(f.kids[child], par)
	}
	f.parent[q] = None
	// Recompute aggregates bottom-up along the reversed path.
	for i := len(path) - 1; i >= 0; i-- {
		f.recompute(path[i])
	}
}

func (f *Forest) removeKid(par, child int32) {
	ks := f.kids[par]
	for i, c := range ks {
		if c == child {
			ks[i] = ks[len(ks)-1]
			f.kids[par] = ks[:len(ks)-1]
			return
		}
	}
}

// recompute refreshes v's aggregates from its children (which must be
// current).
func (f *Forest) recompute(v int32) {
	f.sumBW[v] = f.b[v] * int64(f.w[v])
	f.numFrozen[v] = btoi(f.frozen[v])
	for _, c := range f.kids[v] {
		f.sumBW[v] += f.sumBW[c]
		f.numFrozen[v] += f.numFrozen[c]
	}
}

func btoi(b bool) int32 {
	if b {
		return 1
	}
	return 0
}

// Link adds the active constraint (p, q): p's decrease forces q's. q's
// tree is re-rooted at q and hung under p with U(q) = false. If p and q
// already share a tree the call is a no-op (the constraint is implied).
// After linking, regularity is restored along the affected path.
func (f *Forest) Link(p, q int32) error {
	if p == q {
		return fmt.Errorf("forest: self-link of %d", p)
	}
	if f.SameTree(p, q) {
		return nil
	}
	f.reroot(q)
	f.parent[q] = p
	f.up[q] = false
	f.kids[p] = append(f.kids[p], q)
	// Refresh aggregates up the path from p.
	for x := p; x != None; x = f.parent[x] {
		f.recompute(x)
	}
	f.enforce(q)
	return nil
}

// enforce restores regularity on the path from v to its root: a child
// with U=true must head a positive subtree (it pushes its parent); a child
// with U=false must head a non-positive subtree (it hangs as baggage).
// Violating edges are cut; the detached subtree becomes its own tree. A
// frozen subtree hanging below keeps its edge (it pins the tree at zero
// moves regardless).
func (f *Forest) enforce(v int32) {
	for v != None {
		par := f.parent[v]
		if par == None {
			return
		}
		bad := (f.up[v] && f.sumBW[v] <= 0) || (!f.up[v] && f.sumBW[v] > 0)
		if bad && f.numFrozen[v] == 0 {
			// Cut (v, par).
			f.removeKid(par, v)
			f.parent[v] = None
			for x := par; x != None; x = f.parent[x] {
				f.recompute(x)
			}
			v = par
			continue
		}
		v = par
	}
}

// Check validates internal invariants (for tests): aggregates match a
// recomputation and parent/child pointers are consistent.
func (f *Forest) Check() error {
	n := len(f.b)
	for v := 0; v < n; v++ {
		for _, c := range f.kids[v] {
			if f.parent[c] != int32(v) {
				return fmt.Errorf("forest: child %d of %d has parent %d", c, v, f.parent[c])
			}
		}
		var sum int64 = f.b[v] * int64(f.w[v])
		var fr int32 = btoi(f.frozen[v])
		for _, c := range f.kids[v] {
			sum += f.sumBW[c]
			fr += f.numFrozen[c]
		}
		if sum != f.sumBW[v] || fr != f.numFrozen[v] {
			return fmt.Errorf("forest: stale aggregates at %d", v)
		}
	}
	// Acyclicity: walking up from any vertex terminates.
	for v := 0; v < n; v++ {
		steps := 0
		for x := int32(v); x != None; x = f.parent[x] {
			steps++
			if steps > n {
				return fmt.Errorf("forest: parent cycle at %d", v)
			}
		}
	}
	return nil
}
