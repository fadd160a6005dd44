package service

import (
	"bytes"
	"encoding/json"
	"time"

	"serretime"
	"serretime/internal/guard"
	"serretime/internal/store"
	"serretime/internal/telemetry"
)

// Store is the persistence hook the server journals job lifecycle
// transitions through. *store.Disk implements it; tests substitute
// fakes. A nil Config.Store runs the server memory-only, exactly as
// before the store existed.
//
// Every journal call the server makes happens under its state mutex, so
// WAL record order always matches state-transition order: a "running"
// record can never precede its "submitted" record.
type Store interface {
	JournalSubmitted(id, name string, netlist, opts []byte, optKey string) error
	JournalRunning(id string) error
	JournalDone(id string, meta store.ResultMeta, result, trace []byte) error
	JournalFailed(id, class, msg string) error
	JournalEvicted(id string) error
	Close() error
}

// StoreMode names the persistence state for /healthz and /metrics.
type StoreMode uint8

const (
	// StoreMemory: no store configured; results die with the process.
	StoreMemory StoreMode = iota
	// StoreDisk: journaling to a disk store.
	StoreDisk
	// StoreDegraded: a store write failed; the server fell back to
	// memory-only operation rather than failing solves.
	StoreDegraded
)

func (m StoreMode) String() string {
	switch m {
	case StoreMemory:
		return "memory"
	case StoreDisk:
		return "disk"
	case StoreDegraded:
		return "memory-degraded"
	}
	return "unknown"
}

// journal runs one store call under s.mu, degrading to memory-only mode
// on the first failure: the error is counted and logged, the store is
// dropped (best-effort Close), and the solve that triggered the write
// proceeds untouched. A store fault must never fail a job.
func (s *Server) journal(fn func(st Store) error) {
	if s.store == nil {
		return
	}
	if err := fn(s.store); err != nil {
		s.storeErrs++
		s.logf("serretimed: store write failed, degrading to memory-only mode: %v", err)
		_ = s.store.Close()
		s.store = nil
		s.storeMode = StoreDegraded
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// optionsBlob is the serialized subset of RobustOptions a recovered job
// needs to be re-solved identically: every result-relevant knob (the
// fields CanonicalKey hashes). Result-invariant fields — Recorder,
// worker budgets — are reapplied from the server's own
// config at recovery, exactly as Submit applies them to fresh jobs.
type optionsBlob struct {
	Algorithm       int     `json:"alg"`
	Engine          int     `json:"eng"`
	Epsilon         float64 `json:"eps,omitempty"`
	Ts              float64 `json:"ts,omitempty"`
	Th              float64 `json:"th,omitempty"`
	AreaWeight      float64 `json:"area,omitempty"`
	RminOverride    float64 `json:"rmin,omitempty"`
	KUnits          int     `json:"kunits,omitempty"`
	SingleViolation bool    `json:"single,omitempty"`
	LiteralGains    bool    `json:"literal,omitempty"`
	Verify          bool    `json:"verify,omitempty"`
	StallSteps      int     `json:"stall,omitempty"`
	Frames          int     `json:"frames,omitempty"`
	SignatureWords  int     `json:"words,omitempty"`
	MaxIntervals    int     `json:"maxiv,omitempty"`
	Seed            int64   `json:"seed,omitempty"`
	// Accuracy selects the observability engine tier. Old journals wrote
	// no "acc" field; absent decodes to 0 = AccuracyExact, which is what
	// those jobs ran with, so recovery keys stay stable across upgrades.
	Accuracy    int           `json:"acc,omitempty"`
	Timeout     time.Duration `json:"timeout,omitempty"`
	Retries     int           `json:"retries,omitempty"`
	RelaxFactor float64       `json:"relax,omitempty"`
}

func encodeOptions(opt serretime.RobustOptions) []byte {
	b, err := json.Marshal(optionsBlob{
		Algorithm:       int(opt.Algorithm),
		Engine:          int(opt.Engine),
		Epsilon:         opt.Epsilon,
		Ts:              opt.Ts,
		Th:              opt.Th,
		AreaWeight:      opt.AreaWeight,
		RminOverride:    opt.RminOverride,
		KUnits:          opt.KUnits,
		SingleViolation: opt.SingleViolation,
		LiteralGains:    opt.LiteralGains,
		Verify:          opt.Verify,
		StallSteps:      opt.StallSteps,
		Frames:          opt.Analysis.Frames,
		SignatureWords:  opt.Analysis.SignatureWords,
		MaxIntervals:    opt.Analysis.MaxIntervals,
		Seed:            opt.Analysis.Seed,
		Accuracy:        int(opt.Analysis.Accuracy),
		Timeout:         opt.Timeout,
		Retries:         opt.Retries,
		RelaxFactor:     opt.RelaxFactor,
	})
	if err != nil {
		return nil // unreachable: the blob is plain data
	}
	return b
}

func decodeOptions(blob []byte) (serretime.RobustOptions, error) {
	var b optionsBlob
	if err := json.Unmarshal(blob, &b); err != nil {
		return serretime.RobustOptions{}, guard.Storef("options.decode", "", err)
	}
	var opt serretime.RobustOptions
	opt.Algorithm = serretime.Algorithm(b.Algorithm)
	opt.Engine = serretime.EngineKind(b.Engine)
	opt.Epsilon = b.Epsilon
	opt.Ts = b.Ts
	opt.Th = b.Th
	opt.AreaWeight = b.AreaWeight
	opt.RminOverride = b.RminOverride
	opt.KUnits = b.KUnits
	opt.SingleViolation = b.SingleViolation
	opt.LiteralGains = b.LiteralGains
	opt.Verify = b.Verify
	opt.StallSteps = b.StallSteps
	opt.Analysis.Frames = b.Frames
	opt.Analysis.SignatureWords = b.SignatureWords
	opt.Analysis.MaxIntervals = b.MaxIntervals
	opt.Analysis.Seed = b.Seed
	opt.Analysis.Accuracy = serretime.Accuracy(b.Accuracy)
	opt.Timeout = b.Timeout
	opt.Retries = b.Retries
	opt.RelaxFactor = b.RelaxFactor
	return opt, nil
}

// RestoreSummary reports what Restore did with a recovery's jobs, for
// the daemon's boot log and /healthz.
type RestoreSummary struct {
	// Finished jobs were re-installed as cache entries: resubmitting the
	// identical circuit gets disposition "cached" without a solve.
	Finished int
	// Requeued jobs (queued or running at crash time) were re-enqueued
	// and will be solved again.
	Requeued int
	// Dropped jobs could not be restored: undecodable options, a job key
	// that no longer matches the journaled ID (foreign or tampered
	// record), or no queue capacity left.
	Dropped int
	// Quarantined is carried over from the store's replay: payloads
	// whose checksum did not match the journal.
	Quarantined int
	// Records, CorruptRecords and TruncatedTail echo the WAL replay.
	Records        int
	CorruptRecords int
	TruncatedTail  bool
}

// Restore installs the jobs a store.Recover handed back: finished jobs
// become servable cache entries, pending jobs are re-enqueued for a
// fresh solve. Call it once, after New and before serving HTTP.
//
// Trust chain: the store already re-hashed every payload against the
// journaled checksum. For pending jobs Restore additionally re-parses
// the netlist and re-derives the job key — a mismatch against the
// journaled ID means the record and payload don't belong together, and
// the job is dropped rather than solved under a wrong identity.
func (s *Server) Restore(jobs []store.RecoveredJob, st store.Stats) RestoreSummary {
	sum := RestoreSummary{
		Quarantined:    st.Quarantined,
		Records:        st.Records,
		CorruptRecords: st.CorruptRecords,
		TruncatedTail:  st.TruncatedTail,
	}
	now := time.Now()
	for _, rj := range jobs {
		if rj.Done {
			j := &Job{
				ID:        rj.ID,
				Name:      rj.Name,
				Done:      make(chan struct{}),
				state:     StateDone,
				submitted: now,
				started:   now,
				finished:  now,
				tier:      serretime.Tier(rj.Meta.Tier),
				degraded:  rj.Meta.Degraded,
				deltaSER:  rj.Meta.DeltaSER,
				result:    rj.Result,
				traceDoc:  rj.Trace,
			}
			if len(rj.Trace) > 0 {
				if doc, err := telemetry.DecodeTraceDoc(rj.Trace); err == nil {
					j.traceID = doc.TraceID
				}
			}
			close(j.Done)
			s.mu.Lock()
			s.jobs[j.ID] = j
			s.retainLocked(j.ID)
			s.mu.Unlock()
			sum.Finished++
			continue
		}

		opt, err := decodeOptions(rj.Opts)
		if err != nil {
			s.logf("serretimed: recovery: job %.12s dropped: %v", rj.ID, err)
			sum.Dropped++
			continue
		}
		// Reapply the server-side defaults exactly as Submit does for a
		// fresh submission. A requeued job is a new solve: it gets a
		// fresh trace, as a fresh submission does.
		tr := s.applySolveDefaults(&opt, telemetry.TraceID{})
		// The canonical .bench payload carries the design name in its
		// leading comment; the filename here is only a format selector.
		d, err := serretime.Parse(bytes.NewReader(rj.Netlist), "recovered.bench")
		if err != nil {
			s.logf("serretimed: recovery: job %.12s dropped: bad netlist: %v", rj.ID, err)
			sum.Dropped++
			continue
		}
		key, _, err := jobKey(d, opt)
		if err != nil || key != rj.ID {
			s.logf("serretimed: recovery: job %.12s dropped: key mismatch", rj.ID)
			sum.Dropped++
			continue
		}

		tr.Begin("queue-wait")
		j := &Job{
			ID:        key,
			Name:      d.Name(),
			Done:      make(chan struct{}),
			design:    d,
			opts:      opt,
			state:     StateQueued,
			submitted: now,
			trace:     tr,
			traceID:   tr.ID().String(),
		}
		s.mu.Lock()
		if _, exists := s.jobs[key]; exists {
			s.mu.Unlock()
			sum.Dropped++
			continue
		}
		select {
		case s.queue <- j:
			s.jobs[key] = j
			s.accepted++
			sum.Requeued++
		default:
			sum.Dropped++
			s.logf("serretimed: recovery: job %.12s dropped: queue full", rj.ID)
		}
		s.mu.Unlock()
	}
	s.mu.Lock()
	s.restored = sum
	s.mu.Unlock()
	return sum
}

// StoreStatus snapshots the persistence state for /healthz and /metrics.
func (s *Server) StoreStatus() (mode StoreMode, errs int64, restored RestoreSummary) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.storeMode, s.storeErrs, s.restored
}
