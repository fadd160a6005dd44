package interval

import (
	"math/rand"
	"testing"
)

// referenceUnion is the union as it was computed before the linear
// merge, kept as the differential reference: concatenate, then sort and
// coalesce with normalize. With shift set, o is first translated by
// delta with Shift, as the ELW recurrence used to do.
func referenceUnion(s, o Set, delta float64, shift bool) Set {
	if shift {
		o = o.Shift(delta)
	}
	u := Set{ivs: append(append([]Interval(nil), s.ivs...), o.ivs...)}
	u.normalize()
	return u
}

// checkUnion requires every merge form to equal the reference endpoint
// for endpoint: UnionInPlace and UnionShiftedInPlace, each into a set
// with exactly its own storage and into one with spare capacity (the
// no-growth path), and each with s itself as the other operand.
func checkUnion(t *testing.T, a, b Set, delta float64) {
	t.Helper()
	want := referenceUnion(a, b, 0, false)
	wantShift := referenceUnion(a, b, delta, true)
	wantSelf := referenceUnion(a, a, delta, true)
	for _, spare := range []int{0, max(len(a.ivs), len(b.ivs)) + 1} {
		with := func() Set { return Set{ivs: append(make([]Interval, 0, len(a.ivs)+spare), a.ivs...)} }
		s := with()
		s.UnionInPlace(b)
		if !s.Equal(want) {
			t.Fatalf("UnionInPlace(%v, %v) = %v, want %v", a, b, s, want)
		}
		s = with()
		s.UnionShiftedInPlace(b, delta)
		if !s.Equal(wantShift) {
			t.Fatalf("UnionShiftedInPlace(%v, %v, %g) = %v, want %v", a, b, delta, s, wantShift)
		}
		s = with()
		s.UnionInPlace(s)
		if !s.Equal(a) {
			t.Fatalf("%v ∪ itself = %v", a, s)
		}
		s = with()
		s.UnionShiftedInPlace(s, delta)
		if !s.Equal(wantSelf) {
			t.Fatalf("%v ∪ itself shifted by %g = %v, want %v", a, delta, s, wantSelf)
		}
	}
}

// unionUnits are the grid steps fuzzSet draws endpoints from. Exact
// binary steps make endpoints of the two sets coincide (touching
// intervals, equal left ends); decimal and irrational-looking steps make
// the shifted copy round, so neighbours can come to touch after the
// translation.
var unionUnits = []float64{1, 0.5, 0.1, 0.3, 1.0 / 3, 1e-9}

// fuzzSet decodes a canonical set: a count, then one (gap, length) byte
// pair per interval, in multiples of unit. Every gap is at least one
// unit, so neighbours never touch; a length of zero makes a point.
func fuzzSet(data []byte, unit float64) (Set, []byte) {
	var s Set
	if len(data) == 0 {
		return s, data
	}
	n := int(data[0]) % 8
	data = data[1:]
	pos := -4 * unit
	for ; n > 0 && len(data) >= 2; n-- {
		l := pos + float64(1+data[0]%4)*unit
		r := l + float64(data[1]%4)*unit
		s.ivs = append(s.ivs, Interval{l, r})
		pos = r
		data = data[2:]
	}
	return s, data
}

// FuzzUnion builds two canonical sets and a shift from the fuzzer's
// bytes and requires the merged union, plain and shifted, to equal
// concatenate-then-normalize exactly.
//
// Bytes: the unit selector, the shift in half units (signed), then the
// two sets as fuzzSet decodes them.
func FuzzUnion(f *testing.F) {
	f.Add([]byte{0, 0, 2, 0, 1, 1, 2, 2, 0, 1, 1, 2, 2})       // equal sets
	f.Add([]byte{0, 2, 2, 0, 1, 1, 0, 2, 1, 0, 1, 1, 0})       // touching ends, points
	f.Add([]byte{2, 0xfb, 3, 2, 3, 0, 0, 3, 1, 3, 2, 0, 1, 3}) // rounding after the shift
	f.Add([]byte{4, 7, 5, 1, 1, 0, 0, 2, 3, 1, 1, 0, 4, 0, 0, 1, 1, 2, 2, 3, 3})
	f.Add([]byte{5, 1, 1, 3, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		unit := unionUnits[int(data[0])%len(unionUnits)]
		delta := float64(int8(data[1])) * unit / 2
		a, rest := fuzzSet(data[2:], unit)
		b, _ := fuzzSet(rest, unit)
		checkUnion(t, a, b, delta)
	})
}

// TestUnionMatchesReference runs checkUnion over random byte strings
// decoded as FuzzUnion decodes them, and over the random sets of the
// property tests with random shifts.
func TestUnionMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		data := make([]byte, 2+rng.Intn(40))
		rng.Read(data)
		unit := unionUnits[int(data[0])%len(unionUnits)]
		a, rest := fuzzSet(data[2:], unit)
		b, _ := fuzzSet(rest, unit)
		checkUnion(t, a, b, float64(int8(data[1]))*unit/2)
		checkUnion(t, randomSet(rng), randomSet(rng), rng.Float64()*20-10)
	}
}
