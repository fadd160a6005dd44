// Package guard is the fault-tolerance substrate of the toolkit: a typed
// error taxonomy shared by every entry point, panic isolation with stack
// capture, cooperative cancellation checkpoints, a progress watchdog for
// the iterative optimizers, and named failpoints for fault-injection
// testing.
//
// The taxonomy is deliberately small. The toolkit's own failures unwrap
// to one of five sentinels, so callers dispatch with errors.Is and never
// need to match message text:
//
//	ErrParse    malformed input (netlist syntax, unmappable covers,
//	            invalid option values)
//	ErrTimeout  a context deadline or cancellation was observed
//	ErrStalled  the optimizer's watchdog fired: the objective stopped
//	            improving within the configured step budget
//	ErrInternal a recovered panic (with the captured stack) — a bug,
//	            not a user error, but one that must not crash a server
//	ErrStore    a persistence-layer failure in the service's store
//
// Classify names any other error "other".
package guard

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
)

// Sentinel errors of the taxonomy. Concrete error types below unwrap to
// these, so errors.Is(err, guard.ErrParse) etc. classifies any error
// produced by the toolkit.
var (
	ErrParse    = errors.New("parse error")
	ErrTimeout  = errors.New("timeout")
	ErrStalled  = errors.New("stalled")
	ErrInternal = errors.New("internal fault")
	// ErrStore marks a persistence-layer failure (WAL append, payload
	// write, recovery replay). A store fault is environmental, not a user
	// error and not a solver bug: the service reacts by degrading to
	// memory-only operation, never by failing the solve.
	ErrStore = errors.New("store fault")
)

// ParseError reports malformed input with its position. Line and Col are
// 1-based; Col 0 means the column is unknown.
type ParseError struct {
	// Format names the input language ("bench", "blif", "verilog").
	Format string
	Line   int
	Col    int
	Msg    string
}

func (e *ParseError) Error() string {
	f := e.Format
	if f == "" {
		f = "parse"
	}
	switch {
	case e.Line > 0 && e.Col > 0:
		return fmt.Sprintf("%s: line %d, col %d: %s", f, e.Line, e.Col, e.Msg)
	case e.Line > 0:
		return fmt.Sprintf("%s: line %d: %s", f, e.Line, e.Msg)
	}
	return fmt.Sprintf("%s: %s", f, e.Msg)
}

func (e *ParseError) Unwrap() error { return ErrParse }

// Parsef builds a *ParseError with a formatted message.
func Parsef(format string, line, col int, msgf string, args ...any) *ParseError {
	return &ParseError{Format: format, Line: line, Col: col, Msg: fmt.Sprintf(msgf, args...)}
}

// RecoverParse converts a panic escaping a parser into a returned
// *ParseError located at *line (the line the parser was processing when
// it fell over). Use as:
//
//	defer guard.RecoverParse("bench", &lineNo, &err)
//
// Malformed input must produce an error, never a crash — this is the
// parser's last line of defense when an input shape its validation did
// not anticipate trips an internal invariant.
func RecoverParse(format string, line *int, err *error) {
	if r := recover(); r != nil {
		*err = &ParseError{Format: format, Line: *line, Msg: fmt.Sprintf("internal parser fault: %v", r)}
	}
}

// OptionError reports an invalid option value handed to a public entry
// point (a NaN clock parameter, an unrecognized netlist extension, a
// negative queue bound). Options are caller input just like netlist text,
// so OptionError unwraps to ErrParse and callers classify it with the
// same errors.Is dispatch as any malformed input.
type OptionError struct {
	// Op names the entry point that rejected the option.
	Op string
	// Option names the offending field or flag.
	Option string
	// Msg describes what was wrong with the value.
	Msg string
}

func (e *OptionError) Error() string {
	if e.Op != "" {
		return fmt.Sprintf("%s: invalid option %s: %s", e.Op, e.Option, e.Msg)
	}
	return fmt.Sprintf("invalid option %s: %s", e.Option, e.Msg)
}

func (e *OptionError) Unwrap() error { return ErrParse }

// Optionf builds a *OptionError with a formatted message.
func Optionf(op, option, msgf string, args ...any) *OptionError {
	return &OptionError{Op: op, Option: option, Msg: fmt.Sprintf(msgf, args...)}
}

// Classify names the taxonomy sentinel err unwraps to ("parse",
// "timeout", "stalled", "internal", "store"), or "other" for errors from
// outside the taxonomy and "" for nil. The names are stable: they
// key metrics labels and appear in service responses.
func Classify(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrParse):
		return "parse"
	case errors.Is(err, ErrTimeout):
		return "timeout"
	case errors.Is(err, ErrStalled):
		return "stalled"
	case errors.Is(err, ErrInternal):
		return "internal"
	case errors.Is(err, ErrStore):
		return "store"
	}
	return "other"
}

// StoreError reports a failed persistence operation: Op names the store
// operation ("wal.append", "result.put", "recover"), Path the file
// involved when known, and Err the underlying cause. It unwraps to both
// ErrStore (for Classify and metrics labels) and the cause (so callers
// can still errors.Is for os-level sentinels).
type StoreError struct {
	Op   string
	Path string
	Err  error
}

func (e *StoreError) Error() string {
	switch {
	case e.Path != "" && e.Err != nil:
		return fmt.Sprintf("store: %s %s: %v", e.Op, e.Path, e.Err)
	case e.Err != nil:
		return fmt.Sprintf("store: %s: %v", e.Op, e.Err)
	case e.Path != "":
		return fmt.Sprintf("store: %s %s", e.Op, e.Path)
	}
	return fmt.Sprintf("store: %s", e.Op)
}

func (e *StoreError) Unwrap() []error {
	if e.Err == nil {
		return []error{ErrStore}
	}
	return []error{ErrStore, e.Err}
}

// Storef wraps err as a *StoreError unless it already is one (so layered
// store code does not stack prefixes). A nil err returns nil.
func Storef(op, path string, err error) error {
	if err == nil {
		return nil
	}
	var se *StoreError
	if errors.As(err, &se) {
		return err
	}
	return &StoreError{Op: op, Path: path, Err: err}
}

// InternalError wraps a recovered panic. Value is the recovered value and
// Stack the goroutine stack captured at the recovery point.
type InternalError struct {
	Op    string // the operation that panicked, for diagnostics
	Value any
	Stack []byte
}

func (e *InternalError) Error() string {
	if e.Op != "" {
		return fmt.Sprintf("internal fault in %s: %v", e.Op, e.Value)
	}
	return fmt.Sprintf("internal fault: %v", e.Value)
}

func (e *InternalError) Unwrap() error { return ErrInternal }

// StallError reports that the optimizer's watchdog fired: Steps iterations
// elapsed with the objective pinned at Objective. Phase, when known, names
// the solver phase that was executing when the run died (matching the
// telemetry trace's phase taxonomy), so error text and traces agree.
type StallError struct {
	Op        string
	Phase     string
	Steps     int
	Objective int64
}

func (e *StallError) Error() string {
	if e.Phase != "" {
		return fmt.Sprintf("%s: stalled in %s: no objective improvement in %d steps (objective %d)",
			e.Op, e.Phase, e.Steps, e.Objective)
	}
	return fmt.Sprintf("%s: stalled: no objective improvement in %d steps (objective %d)",
		e.Op, e.Steps, e.Objective)
}

func (e *StallError) Unwrap() error { return ErrStalled }

// TimeoutError reports an observed context cancellation or deadline, with
// the context's cause preserved for errors.Is/As chains. Phase, when
// known, names the solver phase that was executing when the deadline was
// observed (matching the telemetry trace's phase taxonomy).
type TimeoutError struct {
	Op    string
	Phase string
	Cause error
}

func (e *TimeoutError) Error() string {
	switch {
	case e.Op != "" && e.Phase != "":
		return fmt.Sprintf("%s: %v in %s (%v)", e.Op, ErrTimeout, e.Phase, e.Cause)
	case e.Op != "":
		return fmt.Sprintf("%s: %v (%v)", e.Op, ErrTimeout, e.Cause)
	}
	return fmt.Sprintf("%v (%v)", ErrTimeout, e.Cause)
}

// Unwrap exposes both the ErrTimeout sentinel and the context cause
// (context.Canceled or context.DeadlineExceeded).
func (e *TimeoutError) Unwrap() []error { return []error{ErrTimeout, e.Cause} }

// Checkpoint returns nil while ctx is live and a *TimeoutError once it is
// done. Iterative code calls it at loop heads; op names the loop for
// diagnostics.
func Checkpoint(ctx context.Context, op string) error {
	return CheckpointIn(ctx, op, "")
}

// CheckpointIn is Checkpoint with the currently-executing phase attached
// to the error, so a timeout names where the run died. The check itself
// allocates nothing while ctx is live.
func CheckpointIn(ctx context.Context, op, phase string) error {
	select {
	case <-ctx.Done():
		return &TimeoutError{Op: op, Phase: phase, Cause: context.Cause(ctx)}
	default:
		return nil
	}
}

// Run executes fn with panic isolation: a panic inside fn is recovered and
// returned as a *InternalError carrying the captured stack, and a done
// context is reported as *TimeoutError before fn even starts. Errors
// returned by fn pass through unchanged.
func Run(ctx context.Context, op string, fn func(context.Context) error) (err error) {
	if cerr := Checkpoint(ctx, op); cerr != nil {
		return cerr
	}
	defer func() {
		if r := recover(); r != nil {
			err = &InternalError{Op: op, Value: r, Stack: debug.Stack()}
		}
	}()
	return fn(ctx)
}

// Do is Run for functions returning a value. On a recovered panic the
// zero value is returned alongside the *InternalError.
func Do[T any](ctx context.Context, op string, fn func(context.Context) (T, error)) (res T, err error) {
	if cerr := Checkpoint(ctx, op); cerr != nil {
		return res, cerr
	}
	defer func() {
		if r := recover(); r != nil {
			var zero T
			res, err = zero, &InternalError{Op: op, Value: r, Stack: debug.Stack()}
		}
	}()
	return fn(ctx)
}

// Watchdog detects stalled minimization loops: it observes the objective
// once per iteration and fires after Limit consecutive observations
// without strict improvement (decrease). The zero Watchdog is disabled
// (but still tracks streaks, so Resets stays meaningful for telemetry).
type Watchdog struct {
	Op    string
	Limit int
	// Phase, when set by the caller before Observe, names the solver
	// phase a fired StallError is attributed to. Callers update it as
	// their loop moves between phases.
	Phase string

	best    int64
	hasBest bool
	streak  int
	resets  int
}

// NewWatchdog returns a watchdog firing after limit non-improving
// observations; limit <= 0 disables it.
func NewWatchdog(op string, limit int) *Watchdog {
	return &Watchdog{Op: op, Limit: limit}
}

// Observe feeds the current objective value. It returns a *StallError when
// the objective has not strictly decreased in Limit consecutive calls.
func (w *Watchdog) Observe(objective int64) error {
	if w == nil {
		return nil
	}
	if !w.hasBest || objective < w.best {
		if w.streak > 0 {
			w.resets++
		}
		w.best = objective
		w.hasBest = true
		w.streak = 0
		return nil
	}
	w.streak++
	if w.Limit > 0 && w.streak >= w.Limit {
		return &StallError{Op: w.Op, Phase: w.Phase, Steps: w.streak, Objective: w.best}
	}
	return nil
}

// Resets counts streak resets so far: improvements observed after at
// least one non-improving observation (telemetry's watchdog-resets
// counter reports the deltas).
func (w *Watchdog) Resets() int {
	if w == nil {
		return 0
	}
	return w.resets
}
