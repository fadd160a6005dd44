package sim

import (
	"context"
	"testing"

	"serretime/internal/benchfmt"
)

func BenchmarkRunS27x15Frames(b *testing.B) {
	c, err := benchfmt.ParseFile("../../testdata/s27.bench")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(context.Background(), c, Config{Words: 4, Frames: 15, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
