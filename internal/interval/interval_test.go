package interval

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewRejectsInverted(t *testing.T) {
	if _, err := New(Interval{2, 1}); err == nil {
		t.Fatal("New accepted inverted interval")
	}
	if _, err := New(Interval{math.NaN(), 1}); err == nil {
		t.Fatal("New accepted NaN bound")
	}
}

func TestNormalizeMergesOverlaps(t *testing.T) {
	s := MustNew(Interval{0, 2}, Interval{1, 3}, Interval{5, 6})
	want := MustNew(Interval{0, 3}, Interval{5, 6})
	if !s.Equal(want) {
		t.Fatalf("got %v, want %v", s, want)
	}
	if s.Count() != 2 {
		t.Fatalf("Count = %d, want 2", s.Count())
	}
}

func TestNormalizeMergesTouching(t *testing.T) {
	s := MustNew(Interval{0, 1}, Interval{1, 2})
	if s.Count() != 1 {
		t.Fatalf("touching intervals not merged: %v", s)
	}
	if s.Measure() != 2 {
		t.Fatalf("Measure = %g, want 2", s.Measure())
	}
}

func TestEmptySet(t *testing.T) {
	var s Set
	if !s.Empty() || s.Count() != 0 || s.Measure() != 0 {
		t.Fatalf("zero Set not empty: %v", s)
	}
	u := s
	u.UnionInPlace(Single(1, 2))
	if u.Measure() != 1 {
		t.Fatalf("union with empty wrong: %v", u)
	}
}

func TestMinMax(t *testing.T) {
	s := MustNew(Interval{3, 4}, Interval{-1, 0}, Interval{10, 12})
	if s.Min() != -1 {
		t.Fatalf("Min = %g", s.Min())
	}
	if s.Max() != 12 {
		t.Fatalf("Max = %g", s.Max())
	}
}

func TestMinMaxPanicOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Min on empty set did not panic")
		}
	}()
	var s Set
	_ = s.Min()
}

func TestShift(t *testing.T) {
	s := MustNew(Interval{1, 2}, Interval{4, 5})
	g := s.Shift(-1.5)
	want := MustNew(Interval{-0.5, 0.5}, Interval{2.5, 3.5})
	if !g.Equal(want) {
		t.Fatalf("Shift: got %v want %v", g, want)
	}
	if math.Abs(g.Measure()-s.Measure()) > 1e-12 {
		t.Fatal("Shift changed measure")
	}
}

func TestUnionInPlace(t *testing.T) {
	s := Single(0, 1)
	s.UnionInPlace(Single(0.5, 2))
	if !s.Equal(Single(0, 2)) {
		t.Fatalf("UnionInPlace: got %v", s)
	}
}

func TestStringer(t *testing.T) {
	if got := MustNew(Interval{0, 1}).String(); got != "[0, 1]" {
		t.Fatalf("String = %q", got)
	}
	var e Set
	if e.String() != "{}" {
		t.Fatalf("empty String = %q", e.String())
	}
}

// union returns a ∪ b through UnionInPlace on a copy of a.
func union(a, b Set) Set {
	u := Set{ivs: append([]Interval(nil), a.ivs...)}
	u.UnionInPlace(b)
	return u
}

// randomSet builds a small random interval set for property tests.
func randomSet(r *rand.Rand) Set {
	n := r.Intn(5)
	ivs := make([]Interval, n)
	for i := range ivs {
		l := r.Float64()*20 - 10
		ivs[i] = Interval{l, l + r.Float64()*5}
	}
	return MustNew(ivs...)
}

func TestPropertyUnionCommutative(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomSet(r), randomSet(r)
		return union(a, b).Equal(union(b, a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyUnionMeasureSuperadditive(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomSet(r), randomSet(r)
		u := union(a, b)
		// |A ∪ B| <= |A| + |B| and >= max(|A|, |B|).
		const eps = 1e-9
		return u.Measure() <= a.Measure()+b.Measure()+eps &&
			u.Measure() >= math.Max(a.Measure(), b.Measure())-eps
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyInclusionExclusion(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomSet(r), randomSet(r)
		// |A ∩ B| summed over interval pairs: the intervals of one set
		// are disjoint, so their pairwise overlaps are too.
		var x float64
		for _, ia := range a.ivs {
			for _, ib := range b.ivs {
				x += max(0, min(ia.R, ib.R)-max(ia.L, ib.L))
			}
		}
		const eps = 1e-9
		return math.Abs(union(a, b).Measure()+x-a.Measure()-b.Measure()) < eps
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyNormalizedDisjointSorted(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := union(randomSet(r), randomSet(r))
		ivs := s.Intervals()
		for i := 0; i+1 < len(ivs); i++ {
			if ivs[i].R >= ivs[i+1].L { // must be strictly separated
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyShiftRoundTrip(t *testing.T) {
	f := func(seed int64, delta float64) bool {
		if math.IsNaN(delta) || math.IsInf(delta, 0) {
			return true
		}
		delta = math.Mod(delta, 1e6)
		r := rand.New(rand.NewSource(seed))
		s := randomSet(r)
		back := s.Shift(delta).Shift(-delta)
		if back.Count() != s.Count() {
			return false
		}
		for i, iv := range back.ivs {
			if math.Abs(iv.L-s.ivs[i].L) > 1e-6 || math.Abs(iv.R-s.ivs[i].R) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
