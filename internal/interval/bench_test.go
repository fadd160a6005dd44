package interval

import (
	"math/rand"
	"testing"
)

func BenchmarkUnion(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := randomSet(rng)
	c := randomSet(rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = union(a, c)
	}
}

func BenchmarkShiftMeasure(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	s := randomSet(rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Shift(-1.5).Measure()
	}
}
