package sim

import (
	"context"
	"testing"

	"serretime/internal/circuit"
)

// mustPanic asserts that fn panics; the flat plane would silently alias a
// neighboring frame on a bad index, so Value must refuse loudly instead.
func mustPanic(t *testing.T, label string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: want panic, got none", label)
		}
	}()
	fn()
}

func TestTraceValueBounds(t *testing.T) {
	c := xorLoop(t)
	tr, err := Run(context.Background(), c, Config{Words: 2, Frames: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	n := circuit.NodeID(c.NumNodes())
	mustPanic(t, "negative frame", func() { tr.Value(-1, 0) })
	mustPanic(t, "frame past end", func() { tr.Value(tr.Frames, 0) })
	mustPanic(t, "negative node", func() { tr.Value(0, -1) })
	mustPanic(t, "node past end", func() { tr.Value(0, n) })
	// In-range access still works, with the exact width.
	if got := tr.Value(tr.Frames-1, n-1); len(got) != tr.Words {
		t.Fatalf("value width %d, want %d", len(got), tr.Words)
	}
}

// TestTraceValueDisjoint: signatures of adjacent (frame, node) cells must
// occupy disjoint words of the flat plane — writing through one slice (the
// trace owns the memory, but the test may scribble on its own trace) never
// shows through another cell.
func TestTraceValueDisjoint(t *testing.T) {
	c := xorLoop(t)
	tr, err := Run(context.Background(), c, Config{Words: 2, Frames: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	last := circuit.NodeID(c.NumNodes() - 1)
	before := append([]uint64(nil), tr.Value(1, 0)...)
	v := tr.Value(0, last)
	for i := range v {
		v[i] = ^v[i]
	}
	after := tr.Value(1, 0)
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("cells (0, last) and (1, 0) alias")
		}
	}
	// A full-width Value slice must not allow appends to spill into the
	// plane (the subslice is capacity-clamped).
	if cap(v) != len(v) {
		t.Fatalf("value cap %d, want %d", cap(v), len(v))
	}
}

// TestTracePlaneIndexing: Plane(f) is the same memory Value reads, at the
// documented node-major offsets.
func TestTracePlaneIndexing(t *testing.T) {
	c := xorLoop(t)
	tr, err := Run(context.Background(), c, Config{Words: 3, Frames: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for f := 0; f < tr.Frames; f++ {
		plane := tr.Plane(f)
		for id := 0; id < c.NumNodes(); id++ {
			v := tr.Value(f, circuit.NodeID(id))
			for w := 0; w < tr.Words; w++ {
				if plane[id*tr.Words+w] != v[w] {
					t.Fatalf("frame %d node %d word %d: plane and Value disagree", f, id, w)
				}
			}
		}
	}
}
