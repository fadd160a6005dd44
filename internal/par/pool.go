package par

import "sync"

// SlicePool recycles equally-typed scratch slices across calls and
// workers, killing the per-call slab allocations of the sharded analysis
// paths (signature planes, ODC mask slabs, fast-engine planes).
// The zero value is ready to use; a SlicePool is safe for concurrent use.
type SlicePool[T any] struct {
	p sync.Pool
}

// Get returns a zeroed slice of length n (a recycled slab when one of
// sufficient capacity is available, a fresh allocation otherwise).
// Zeroing keeps pooled and non-pooled runs bit-identical: `make` also
// returns zeroed memory, and the clear of a warm slab is a memclr, not a
// per-element loop.
func (sp *SlicePool[T]) Get(n int) []T {
	if v, ok := sp.p.Get().(*[]T); ok && cap(*v) >= n {
		s := (*v)[:n]
		clear(s)
		return s
	}
	return make([]T, n)
}

// Put returns a slice to the pool for reuse. The caller must not touch
// the slice afterwards.
func (sp *SlicePool[T]) Put(s []T) {
	if cap(s) == 0 {
		return
	}
	s = s[:0]
	sp.p.Put(&s)
}
