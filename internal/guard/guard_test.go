package guard

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

func TestTaxonomyUnwrap(t *testing.T) {
	cases := []struct {
		err  error
		want error
	}{
		{&ParseError{Format: "bench", Line: 3, Msg: "bad gate"}, ErrParse},
		{&InternalError{Op: "core", Value: "boom"}, ErrInternal},
		{&StallError{Op: "core.Minimize", Steps: 10, Objective: 42}, ErrStalled},
		{&TimeoutError{Op: "core.Minimize", Cause: context.Canceled}, ErrTimeout},
	}
	for _, c := range cases {
		if !errors.Is(c.err, c.want) {
			t.Errorf("%T does not unwrap to %v", c.err, c.want)
		}
	}
	// The timeout error also exposes the context cause.
	te := &TimeoutError{Cause: context.DeadlineExceeded}
	if !errors.Is(te, context.DeadlineExceeded) {
		t.Error("TimeoutError lost the context cause")
	}
}

func TestParseErrorMessage(t *testing.T) {
	e := Parsef("blif", 7, 12, "unexpected %q", ".gate")
	if got := e.Error(); got != `blif: line 7, col 12: unexpected ".gate"` {
		t.Errorf("unexpected message %q", got)
	}
	e2 := &ParseError{Line: 1, Msg: "x"}
	if !strings.HasPrefix(e2.Error(), "parse: line 1") {
		t.Errorf("unexpected default-format message %q", e2.Error())
	}
}

func TestRunRecoversPanic(t *testing.T) {
	err := Run(context.Background(), "test", func(context.Context) error {
		panic("kaboom")
	})
	var ie *InternalError
	if !errors.As(err, &ie) {
		t.Fatalf("expected InternalError, got %v", err)
	}
	if ie.Value != "kaboom" || len(ie.Stack) == 0 {
		t.Errorf("panic value/stack not captured: %+v", ie)
	}
	if !errors.Is(err, ErrInternal) {
		t.Error("InternalError does not unwrap to ErrInternal")
	}
}

func TestRunPassesErrorsThrough(t *testing.T) {
	want := errors.New("plain")
	if err := Run(context.Background(), "test", func(context.Context) error { return want }); err != want {
		t.Errorf("got %v, want %v", err, want)
	}
	if err := Run(context.Background(), "test", func(context.Context) error { return nil }); err != nil {
		t.Errorf("got %v, want nil", err)
	}
}

func TestRunObservesCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	err := Run(ctx, "test", func(context.Context) error { ran = true; return nil })
	if ran {
		t.Error("fn ran despite cancelled context")
	}
	if !errors.Is(err, ErrTimeout) || !errors.Is(err, context.Canceled) {
		t.Errorf("expected ErrTimeout wrapping context.Canceled, got %v", err)
	}
}

func TestDoReturnsValue(t *testing.T) {
	v, err := Do(context.Background(), "test", func(context.Context) (int, error) { return 7, nil })
	if err != nil || v != 7 {
		t.Fatalf("got (%d, %v)", v, err)
	}
	v, err = Do(context.Background(), "test", func(context.Context) (int, error) { panic("x") })
	if v != 0 || !errors.Is(err, ErrInternal) {
		t.Fatalf("got (%d, %v), want zero value and ErrInternal", v, err)
	}
}

func TestCheckpoint(t *testing.T) {
	if err := Checkpoint(context.Background(), "op"); err != nil {
		t.Fatalf("live context: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	<-ctx.Done()
	err := Checkpoint(ctx, "op")
	if !errors.Is(err, ErrTimeout) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expected timeout wrapping DeadlineExceeded, got %v", err)
	}
}

func TestWatchdog(t *testing.T) {
	w := NewWatchdog("opt", 3)
	// Improvements reset the streak.
	for _, obj := range []int64{100, 90, 80} {
		if err := w.Observe(obj); err != nil {
			t.Fatalf("fired on improving objective: %v", err)
		}
	}
	if err := w.Observe(80); err != nil {
		t.Fatalf("fired one step early: %v", err)
	}
	if err := w.Observe(85); err != nil {
		t.Fatalf("fired one step early: %v", err)
	}
	err := w.Observe(80)
	var se *StallError
	if !errors.As(err, &se) {
		t.Fatalf("expected StallError after 3 flat observations, got %v", err)
	}
	if se.Objective != 80 {
		t.Errorf("stall objective = %d, want 80", se.Objective)
	}
	// Disabled watchdogs never fire; nil receivers are safe.
	var off *Watchdog
	for i := 0; i < 100; i++ {
		if err := off.Observe(1); err != nil {
			t.Fatal("nil watchdog fired")
		}
		if err := NewWatchdog("x", 0).Observe(1); err != nil {
			t.Fatal("disabled watchdog fired")
		}
	}
}

func TestFailpoint(t *testing.T) {
	Failpoint("guard.test") // disarmed: no-op
	ArmFailpoint("guard.test")
	defer DisarmFailpoint("guard.test")
	err := Run(context.Background(), "test", func(context.Context) error {
		Failpoint("guard.test")
		return nil
	})
	if !errors.Is(err, ErrInternal) {
		t.Fatalf("armed failpoint did not surface as ErrInternal: %v", err)
	}
	DisarmFailpoint("guard.test")
	Failpoint("guard.test") // disarmed again: no-op
}

func TestStoreErrorClassification(t *testing.T) {
	cause := errors.New("no space left on device")
	err := Storef("wal.append", "/data/wal.log", cause)
	if !errors.Is(err, ErrStore) {
		t.Fatal("StoreError does not unwrap to ErrStore")
	}
	if !errors.Is(err, cause) {
		t.Fatal("StoreError does not unwrap to its cause")
	}
	if got := Classify(err); got != "store" {
		t.Fatalf("Classify(StoreError) = %q, want \"store\"", got)
	}
	// Wrapping an existing StoreError must not stack prefixes.
	double := Storef("outer", "", err)
	if double != err {
		t.Fatalf("Storef re-wrapped a StoreError: %v", double)
	}
	if Storef("op", "p", nil) != nil {
		t.Fatal("Storef(nil) != nil")
	}
	bare := &StoreError{Op: "recover"}
	if !errors.Is(bare, ErrStore) || Classify(bare) != "store" {
		t.Fatal("cause-less StoreError misclassified")
	}
}
