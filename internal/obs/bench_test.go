package obs

import (
	"context"
	"testing"

	"serretime/internal/benchfmt"
	"serretime/internal/sim"
)

func BenchmarkComputeS27(b *testing.B) {
	c, err := benchfmt.ParseFile("../../testdata/s27.bench")
	if err != nil {
		b.Fatal(err)
	}
	tr, err := sim.Run(context.Background(), c, sim.Config{Words: 4, Frames: 15, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compute(context.Background(), tr, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
