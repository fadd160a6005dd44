package serretime

import (
	"context"
	"fmt"
	"time"

	"serretime/internal/elw"
	"serretime/internal/graph"
	"serretime/internal/guard"
	"serretime/internal/telemetry"
)

// Tier identifies which rung of the graceful-degradation ladder produced
// a RobustResult. Lower values are stronger answers.
type Tier uint8

const (
	// TierMinObsWin is the full algorithm: MinObsWin under ELW (P2')
	// constraints, exactly as requested.
	TierMinObsWin Tier = iota
	// TierMinObsWinRelaxed is MinObsWin re-run with a relaxed ELW budget
	// (the clock-period relaxation ε is multiplied by relaxFactor, and
	// any Rmin override is shrunk by it), trading some timing-masking
	// fidelity for feasibility.
	TierMinObsWinRelaxed
	// TierMinObs is the Efficient MinObs baseline: P2' disabled, logic
	// masking only — the Krishnaswamy-style fallback.
	TierMinObs
	// TierIdentity is the identity retiming: the input circuit analyzed
	// as-is. Always succeeds unless the design cannot even be analyzed.
	TierIdentity
)

func (t Tier) String() string {
	switch t {
	case TierMinObsWin:
		return "minobswin"
	case TierMinObsWinRelaxed:
		return "minobswin-relaxed"
	case TierMinObs:
		return "minobs"
	case TierIdentity:
		return "identity"
	}
	return fmt.Sprintf("Tier(%d)", uint8(t))
}

// tierPhase maps a degradation rung to its telemetry phase, so each
// attempt of the chain appears as one top-level span with the guard error
// that ended it attached.
func tierPhase(t Tier) telemetry.Phase {
	switch t {
	case TierMinObsWin:
		return telemetry.PhaseTierMinObsWin
	case TierMinObsWinRelaxed:
		return telemetry.PhaseTierMinObsWinRelaxed
	case TierMinObs:
		return telemetry.PhaseTierMinObs
	default:
		return telemetry.PhaseTierIdentity
	}
}

// RobustOptions configures RetimeRobust.
type RobustOptions struct {
	// RetimeOptions configures the strongest tier; weaker tiers derive
	// their configuration from it.
	RetimeOptions
	// Timeout bounds each attempt (0 = only the caller's ctx applies).
	Timeout time.Duration
}

// relaxFactor scales the period relaxation ε (capped at MaxEpsilon) and
// shrinks any Rmin override for the relaxed tier.
const relaxFactor = 2

// Attempt records one run of the degradation chain.
type Attempt struct {
	// Tier is the rung that ran.
	Tier Tier
	// Err is nil for the attempt that produced the final result.
	Err error
	// Runtime is the attempt's wall time.
	Runtime time.Duration
}

// RobustResult is a RetimeResult annotated with how it was obtained.
type RobustResult struct {
	*RetimeResult
	// Tier is the rung that produced the result.
	Tier Tier
	// Degraded reports whether the answer comes from a weaker tier than
	// the one requested.
	Degraded bool
	// Attempts lists every run in order, including the failed ones.
	Attempts []Attempt
}

// CanonicalKey extends RetimeOptions.CanonicalKey with the per-attempt
// timeout, the one chain-level knob that can change which tier answers.
// Two RobustOptions with equal keys request the same computation. The
// trailing "retries=0 relax=2" is fixed text: it keeps the key, and so
// every journaled job ID, equal to the one older versions derived when
// those were options.
func (o RobustOptions) CanonicalKey() string {
	return fmt.Sprintf("%s timeout=%s retries=0 relax=%d",
		o.RetimeOptions.CanonicalKey(), o.Timeout, relaxFactor)
}

// RetimeRobust runs the graceful-degradation chain: MinObsWin with ELW
// constraints, then MinObsWin with a relaxed ELW budget, then Efficient
// MinObs (P2' disabled), then the identity retiming. Each tier runs under
// panic isolation, the per-attempt Timeout, and the StallSteps watchdog;
// on failure the chain records the attempt and steps down. No tier is
// retried: the solver is deterministic, so a second run of a failed
// attempt would fail the same way. The result says which tier answered,
// so callers can distinguish a full-strength answer from a degraded one
// without parsing errors.
//
// If opt.Algorithm is not MinObsWin, the chain starts at the equivalent
// rung (MinObs and MinArea start at TierMinObs) and only degrades from
// there. An error is returned only when every tier failed — including
// identity — or when the caller's ctx is done (errors unwrapping to
// guard.ErrTimeout are not degraded past: the caller's deadline is
// global).
func (d *Design) RetimeRobust(ctx context.Context, opt RobustOptions) (*RobustResult, error) {
	// Validate before the rungs derive their options: a non-finite or
	// out-of-range parameter fails here with a typed error instead of
	// failing every tier.
	if err := opt.validate("serretime.RetimeRobust"); err != nil {
		return nil, err
	}
	type rung struct {
		tier Tier
		opts RetimeOptions
	}
	var chain []rung
	switch opt.Algorithm {
	case MinObsWin:
		relaxed := opt.RetimeOptions
		if relaxed.Epsilon == 0 {
			relaxed.Epsilon = 0.10
		}
		relaxed.Epsilon = min(relaxed.Epsilon*relaxFactor, MaxEpsilon)
		relaxed.rminOverride /= relaxFactor
		minobs := opt.RetimeOptions
		minobs.Algorithm = MinObs
		minobs.rminOverride = 0
		chain = []rung{
			{TierMinObsWin, opt.RetimeOptions},
			{TierMinObsWinRelaxed, relaxed},
			{TierMinObs, minobs},
		}
	default:
		chain = []rung{{TierMinObs, opt.RetimeOptions}}
	}

	rec := telemetry.OrNop(opt.RetimeOptions.Recorder)
	out := &RobustResult{}
	attempt := func(tier Tier, fn func(context.Context) (*RetimeResult, error)) (*RetimeResult, error) {
		actx := ctx
		cancel := context.CancelFunc(func() {})
		if opt.Timeout > 0 {
			actx, cancel = context.WithTimeout(ctx, opt.Timeout)
		}
		defer cancel()
		start := time.Now()
		rec.SpanStart(tierPhase(tier))
		res, err := fn(actx)
		rec.SpanEnd(tierPhase(tier), err)
		out.Attempts = append(out.Attempts, Attempt{Tier: tier, Err: err, Runtime: time.Since(start)})
		return res, err
	}

	var lastErr error
	for _, r := range chain {
		res, err := attempt(r.tier, func(actx context.Context) (*RetimeResult, error) {
			return d.RetimeCtx(actx, r.opts)
		})
		if err == nil {
			out.RetimeResult = res
			out.Tier = r.tier
			out.Degraded = r.tier != chain[0].tier
			return out, nil
		}
		lastErr = err
		if cerr := guard.Checkpoint(ctx, "serretime.RetimeRobust"); cerr != nil {
			// The caller's own deadline expired: degrading further
			// would just burn it again.
			return nil, cerr
		}
	}

	// Identity tier: no optimization, analyze the circuit as-is.
	res, err := attempt(TierIdentity, func(actx context.Context) (*RetimeResult, error) {
		return d.identityResult(actx, opt.RetimeOptions)
	})
	if err != nil {
		return nil, fmt.Errorf("serretime: every degradation tier failed (last optimizer error: %v): %w", lastErr, err)
	}
	out.RetimeResult = res
	out.Tier = TierIdentity
	out.Degraded = true
	return out, nil
}

// identityResult evaluates the design unretimed, as the last rung of the
// degradation chain: Before and After coincide and the "retimed" design
// is the input itself.
func (d *Design) identityResult(ctx context.Context, opt RetimeOptions) (*RetimeResult, error) {
	return guard.Do(ctx, "serretime.identity", func(ctx context.Context) (*RetimeResult, error) {
		opt = opt.normalized()
		if err := d.ensureObs(ctx, opt.Analysis, opt.Workers, opt.Recorder); err != nil {
			return nil, err
		}
		p := elw.Params{Ts: opt.Ts, Th: opt.Th} // Phi 0: the critical path
		an := d.analyzeAt(d.g, graph.NewRetiming(d.g), p, opt.Analysis)
		return &RetimeResult{
			Algorithm: opt.Algorithm,
			Phi:       an.Phi, PhiMin: an.Phi,
			Before: *an, After: *an,
			Retimed: d,
		}, nil
	})
}
