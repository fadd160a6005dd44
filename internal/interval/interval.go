// Package interval implements sets of disjoint closed real intervals.
//
// Error-latching windows (ELWs) in soft-error timing analysis are unions of
// disjoint intervals on the time axis (Lu & Zhou, DATE 2013, eq. 2). This
// package provides the set algebra the ELW computation of eq. (3) needs:
// in-place union (optionally of a translated operand), scalar shift and
// total measure.
package interval

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Interval is a closed interval [L, R] with L <= R.
type Interval struct {
	L, R float64
}

// Len returns the length R - L of the interval.
func (iv Interval) Len() float64 { return iv.R - iv.L }

// Shift returns the interval translated by delta.
func (iv Interval) Shift(delta float64) Interval {
	return Interval{iv.L + delta, iv.R + delta}
}

func (iv Interval) String() string {
	return fmt.Sprintf("[%g, %g]", iv.L, iv.R)
}

// Set is a union of disjoint, sorted, non-touching closed intervals.
// The zero value is the empty set and is ready to use.
type Set struct {
	ivs []Interval
}

// New builds a Set from arbitrary intervals, merging overlaps.
// Intervals with R < L are rejected with an error.
func New(ivs ...Interval) (Set, error) {
	for _, iv := range ivs {
		if iv.R < iv.L {
			return Set{}, fmt.Errorf("interval: inverted interval [%g, %g]", iv.L, iv.R)
		}
		if math.IsNaN(iv.L) || math.IsNaN(iv.R) {
			return Set{}, fmt.Errorf("interval: NaN bound in [%g, %g]", iv.L, iv.R)
		}
	}
	s := Set{ivs: append([]Interval(nil), ivs...)}
	s.normalize()
	return s, nil
}

// MustNew is New, panicking on invalid input. For tests and literals.
func MustNew(ivs ...Interval) Set {
	s, err := New(ivs...)
	if err != nil {
		panic(err)
	}
	return s
}

// Single returns the set containing exactly [l, r].
func Single(l, r float64) Set {
	if r < l {
		panic(fmt.Sprintf("interval: inverted interval [%g, %g]", l, r))
	}
	return Set{ivs: []Interval{{l, r}}}
}

// normalize sorts and merges the interval list in place.
func (s *Set) normalize() {
	if len(s.ivs) <= 1 {
		return
	}
	sort.Slice(s.ivs, func(i, j int) bool { return s.ivs[i].L < s.ivs[j].L })
	out := s.ivs[:1]
	for _, iv := range s.ivs[1:] {
		last := &out[len(out)-1]
		if iv.L <= last.R {
			if iv.R > last.R {
				last.R = iv.R
			}
		} else {
			out = append(out, iv)
		}
	}
	s.ivs = out
}

// Empty reports whether the set contains no intervals.
func (s Set) Empty() bool { return len(s.ivs) == 0 }

// Count returns the number of disjoint intervals (the paper's l in ELW_l).
func (s Set) Count() int { return len(s.ivs) }

// Intervals returns a copy of the disjoint intervals in ascending order.
func (s Set) Intervals() []Interval {
	return append([]Interval(nil), s.ivs...)
}

// Measure returns the total length sum_i (R_i - L_i), i.e. |ELW| in eq. (4).
func (s Set) Measure() float64 {
	var m float64
	for _, iv := range s.ivs {
		m += iv.Len()
	}
	return m
}

// Min returns the smallest left endpoint L_1. Panics on the empty set.
func (s Set) Min() float64 {
	if s.Empty() {
		panic("interval: Min of empty set")
	}
	return s.ivs[0].L
}

// Max returns the largest right endpoint R_l. Panics on the empty set.
func (s Set) Max() float64 {
	if s.Empty() {
		panic("interval: Max of empty set")
	}
	return s.ivs[len(s.ivs)-1].R
}

// UnionInPlace merges o into s, reusing s's storage where possible. o may
// be s itself. A copy of s taken before the call shares the storage the
// merge rewrites and must not be used afterwards.
func (s *Set) UnionInPlace(o Set) { s.unionIn(o.ivs, 0, false) }

// UnionShiftedInPlace merges o translated by delta into s, as
// s.UnionInPlace(o.Shift(delta)) does, without materializing the shifted
// copy. The ELW recurrence of eq. (3) calls it once per fanout edge with
// delta = −d(f).
func (s *Set) UnionShiftedInPlace(o Set, delta float64) { s.unionIn(o.ivs, delta, true) }

// unionIn merges b (translated by delta when shift is set) into s in one
// pass. s's intervals move to the tail of a buffer holding both inputs,
// and the merge writes the result from the front: after consuming i of
// s's intervals and j of b's, it has written at most i+j−1, while s's
// next unread one sits at len(b)+i, so no write reaches an unread
// interval. s's own storage is that buffer when it is large enough and b
// is not s itself, whose intervals the tail move would overwrite.
func (s *Set) unionIn(b []Interval, delta float64, shift bool) {
	if len(b) == 0 {
		return
	}
	na, nb := len(s.ivs), len(b)
	var buf []Interval
	if cap(s.ivs) >= na+nb && (na == 0 || &b[0] != &s.ivs[0]) {
		buf = s.ivs[:na+nb]
		copy(buf[nb:], buf[:na])
	} else {
		buf = make([]Interval, na+nb, max(na+nb, 2*cap(s.ivs)))
		copy(buf[nb:], s.ivs)
	}
	s.ivs = merge(buf[:0], buf[nb:], b, delta, shift)
}

// merge appends to dst the canonical union of a and b, b translated by
// delta when shift is set. a must be canonical (sorted, disjoint, not
// touching); b must be sorted by left end, which translation preserves
// even where rounding makes two of its intervals touch. The union of
// closed intervals has one canonical form, so the result equals what
// sorting the concatenation and coalescing (New, normalize) produces, and
// the translation performs the same L+delta and R+delta additions as
// Shift: every endpoint is bit-identical.
func merge(dst, a, b []Interval, delta float64, shift bool) []Interval {
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		var iv Interval
		if j < len(b) {
			iv = b[j]
			if shift {
				iv = iv.Shift(delta)
			}
		}
		if j == len(b) || (i < len(a) && a[i].L <= iv.L) {
			iv = a[i]
			i++
		} else {
			j++
		}
		if n := len(dst); n > 0 && iv.L <= dst[n-1].R {
			if iv.R > dst[n-1].R {
				dst[n-1].R = iv.R
			}
		} else {
			dst = append(dst, iv)
		}
	}
	return dst
}

// Shift returns the set translated by delta (the ELW(f) - d(f) operation
// of eq. 3 uses delta = -d(f)).
func (s Set) Shift(delta float64) Set {
	out := Set{ivs: make([]Interval, len(s.ivs))}
	for i, iv := range s.ivs {
		out.ivs[i] = iv.Shift(delta)
	}
	return out
}

// Equal reports whether the two sets contain exactly the same intervals.
func (s Set) Equal(o Set) bool {
	if len(s.ivs) != len(o.ivs) {
		return false
	}
	for i := range s.ivs {
		if s.ivs[i] != o.ivs[i] {
			return false
		}
	}
	return true
}

func (s Set) String() string {
	if s.Empty() {
		return "{}"
	}
	parts := make([]string, len(s.ivs))
	for i, iv := range s.ivs {
		parts[i] = iv.String()
	}
	return strings.Join(parts, " ∪ ")
}
