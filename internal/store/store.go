// Package store is the crash-safe persistent job store behind the
// batch-retiming service: an append-only write-ahead log journaling job
// lifecycle transitions (submitted → running → done/failed, plus
// evictions), with payloads — the submitted netlist and the solved
// result — written as checksummed files atomically renamed into
// content-addressed directories.
//
// Durability contract (see DESIGN.md §13):
//
//   - Every WAL record is one line: an IEEE CRC-32 of the JSON body,
//     a space, the JSON, a newline. A torn append corrupts only the
//     final line; replay treats a bad tail as the crash artifact it is
//     and truncates it, while a bad record *before* the tail (bit rot)
//     is skipped and counted.
//   - Payloads are written with faultfs.WriteAtomic: temp file in the
//     same directory, optional fsync, rename. A crash leaves the old
//     bytes or the new bytes, never a prefix. The payload's SHA-256 is
//     journaled with the transition; Recover re-hashes every payload it
//     intends to serve and quarantines (never serves) a mismatch.
//   - The fsync policy trades durability for throughput: SyncAlways
//     fsyncs the WAL after every append (a finished job survives an
//     immediate power cut), SyncInterval bounds the error-latching
//     window — the span of un-persisted state — to a configurable
//     duration, SyncNever leaves flushing to the OS.
//
// Recovery (Recover) replays the WAL into a final state per job:
// finished jobs come back as servable results, jobs that were queued or
// running at crash time come back as re-solvable submissions (their
// netlist payload re-read and verified), failed and evicted jobs come
// back as nothing. After replay the WAL is compacted — live jobs are
// rewritten into a fresh log, dead records and orphaned temp files are
// swept — so the log's size tracks the live job set, not service
// uptime.
//
// All I/O goes through an injectable faultfs.FS, so tests can return
// errors, tear writes short, and crash at every possible instant to
// prove each one recoverable. Every error returned by this package
// unwraps to guard.ErrStore.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"serretime/internal/faultfs"
	"serretime/internal/guard"
)

// SyncPolicy says when the WAL (and payload files) are fsynced.
type SyncPolicy uint8

const (
	// SyncAlways fsyncs the WAL after every append and every payload
	// before its rename: any journaled transition survives a power cut.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs at most once per Options.SyncEvery: the
	// window of un-persisted transitions is bounded by that duration.
	SyncInterval
	// SyncNever never fsyncs; the OS flushes when it pleases. Recover
	// still restores whatever made it to disk.
	SyncNever
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	}
	return fmt.Sprintf("SyncPolicy(%d)", uint8(p))
}

// ParseSyncPolicy maps the -fsync flag values to a policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "", "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	}
	return 0, guard.Optionf("store", "fsync", "unknown policy %q (want always, interval or never)", s)
}

// ResultMeta is the result metadata journaled with a done transition and
// restored on recovery.
type ResultMeta struct {
	// Tier is the degradation tier that answered (serretime.Tier as int).
	Tier int
	// Degraded reports whether a weaker tier than requested answered.
	Degraded bool
	// DeltaSER is the relative SER change in percent.
	DeltaSER float64
}

// RecoveredJob is one job reconstructed by Recover.
type RecoveredJob struct {
	ID   string
	Name string
	// OptKey is the canonical option key journaled at submission; the
	// service cross-checks it against the re-derived key before
	// re-enqueueing.
	OptKey string
	// Opts is the service's opaque serialized options blob.
	Opts []byte
	// Done reports a finished job: Result and Meta are set, Netlist is
	// nil. A pending job (queued or running at crash time) carries its
	// Netlist for re-solving instead.
	Done    bool
	Result  []byte
	Meta    ResultMeta
	Netlist []byte
	// Trace is the job's persisted span-tree document (telemetry
	// TraceDoc JSON), set for finished jobs that journaled one. Traces
	// are advisory: a corrupt trace is quarantined but the job itself is
	// still served.
	Trace []byte
}

// Stats summarizes one recovery replay.
type Stats struct {
	// Records is the number of intact WAL records replayed.
	Records int
	// CorruptRecords counts records that failed their CRC or JSON decode
	// before the tail.
	CorruptRecords int
	// TruncatedTail reports that the final record was torn — the normal
	// artifact of a crash mid-append.
	TruncatedTail bool
	// Finished and Requeued are the jobs handed back: servable results
	// and re-solvable submissions.
	Finished int
	Requeued int
	// Quarantined counts payloads whose checksum did not match the
	// journal (or that were missing); they are moved aside and never
	// served.
	Quarantined int
	// Evicted counts jobs dropped by replay (explicitly evicted, failed,
	// or unrecoverable).
	Evicted int
	// TempsSwept counts orphaned atomic-write temp files removed.
	TempsSwept int
}

// Options configures Open.
type Options struct {
	// Dir is the data directory; it is created if absent.
	Dir string
	// FS is the filesystem layer; nil means the real one.
	FS faultfs.FS
	// Sync is the fsync policy (default SyncAlways).
	Sync SyncPolicy
	// SyncEvery bounds the un-synced window under SyncInterval
	// (default 100ms).
	SyncEvery time.Duration
}

// WAL record operations.
const (
	opSubmitted = "submitted"
	opRunning   = "running"
	opDone      = "done"
	opFailed    = "failed"
	opEvicted   = "evicted"
)

// record is one WAL line. Payload bytes never live in the log — only
// their SHA-256, so the log stays small and a torn payload can be
// detected independently of a torn log.
type record struct {
	Op       string  `json:"op"`
	ID       string  `json:"id"`
	Name     string  `json:"name,omitempty"`
	OptKey   string  `json:"optkey,omitempty"`
	Opts     []byte  `json:"opts,omitempty"`
	NetSHA   string  `json:"netsha,omitempty"`
	ResSHA   string  `json:"ressha,omitempty"`
	TraceSHA string  `json:"trasha,omitempty"`
	Tier     int     `json:"tier,omitempty"`
	Degraded bool    `json:"degraded,omitempty"`
	DeltaSER float64 `json:"dser,omitempty"`
	Class    string  `json:"class,omitempty"`
	Msg      string  `json:"msg,omitempty"`
}

// Disk is the WAL-backed store. Create with Open, then call Recover
// exactly once before journaling. All methods are safe for concurrent
// use; appends are serialized, so WAL order is the order journal calls
// were made in.
type Disk struct {
	dir    string
	fs     faultfs.FS
	policy SyncPolicy
	every  time.Duration

	mu       sync.Mutex
	wal      faultfs.File
	lastSync time.Time
	closed   bool
}

// Layout helpers.
func (d *Disk) walPath() string             { return filepath.Join(d.dir, "wal.log") }
func (d *Disk) intakeDir() string           { return filepath.Join(d.dir, "intake") }
func (d *Disk) resultsDir() string          { return filepath.Join(d.dir, "results") }
func (d *Disk) quarantineDir() string       { return filepath.Join(d.dir, "quarantine") }
func (d *Disk) tracesDir() string           { return filepath.Join(d.dir, "traces") }
func (d *Disk) intakePath(id string) string { return filepath.Join(d.intakeDir(), id) }
func (d *Disk) resultPath(id string) string { return filepath.Join(d.resultsDir(), id) }
func (d *Disk) tracePath(id string) string  { return filepath.Join(d.tracesDir(), id) }

// Open prepares the data directory layout. Journaling requires a
// subsequent Recover (which also opens the appender), so a daemon can
// never silently skip replay.
func Open(o Options) (*Disk, error) {
	if o.Dir == "" {
		return nil, guard.Storef("open", "", fmt.Errorf("empty data dir"))
	}
	if o.FS == nil {
		o.FS = faultfs.OS()
	}
	if o.SyncEvery <= 0 {
		o.SyncEvery = 100 * time.Millisecond
	}
	d := &Disk{dir: o.Dir, fs: o.FS, policy: o.Sync, every: o.SyncEvery}
	for _, dir := range []string{o.Dir, d.intakeDir(), d.resultsDir(), d.quarantineDir(), d.tracesDir()} {
		if err := d.fs.MkdirAll(dir, 0o755); err != nil {
			return nil, guard.Storef("open", dir, err)
		}
	}
	return d, nil
}

// Dir returns the data directory.
func (d *Disk) Dir() string { return d.dir }

func sha(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// append journals one record: CRC-framed JSON line, synced per policy.
func (d *Disk) append(r record) error {
	body, err := json.Marshal(r)
	if err != nil {
		return guard.Storef("wal.encode", d.walPath(), err)
	}
	line := make([]byte, 0, len(body)+10)
	line = fmt.Appendf(line, "%08x ", crc32.ChecksumIEEE(body))
	line = append(line, body...)
	line = append(line, '\n')

	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return guard.Storef("wal.append", d.walPath(), fmt.Errorf("store closed"))
	}
	if d.wal == nil {
		return guard.Storef("wal.append", d.walPath(), fmt.Errorf("store not recovered"))
	}
	if _, err := d.wal.Write(line); err != nil {
		return guard.Storef("wal.append", d.walPath(), err)
	}
	d.fs.Crashpoint("store.wal.appended")
	switch d.policy {
	case SyncAlways:
		if err := d.wal.Sync(); err != nil {
			return guard.Storef("wal.sync", d.walPath(), err)
		}
	case SyncInterval:
		if now := time.Now(); now.Sub(d.lastSync) >= d.every {
			if err := d.wal.Sync(); err != nil {
				return guard.Storef("wal.sync", d.walPath(), err)
			}
			d.lastSync = now
		}
	}
	return nil
}

// putPayload writes a payload file atomically and returns its SHA-256.
func (d *Disk) putPayload(path string, payload []byte) (string, error) {
	err := faultfs.WriteAtomic(d.fs, path, 0o644, d.policy != SyncNever, func(w io.Writer) error {
		_, werr := w.Write(payload)
		return werr
	})
	if err != nil {
		return "", guard.Storef("payload.put", path, err)
	}
	return sha(payload), nil
}

// JournalSubmitted durably records an accepted job: the netlist payload
// (canonical .bench bytes) lands in intake/ first, then the submitted
// record — with the payload's checksum, the canonical option key and
// the service's opaque options blob — is appended. Ordering matters: a
// crash between the two leaves an orphaned payload (swept by the next
// recovery), never a journaled job without its input.
func (d *Disk) JournalSubmitted(id, name string, netlist, opts []byte, optKey string) error {
	netSHA, err := d.putPayload(d.intakePath(id), netlist)
	if err != nil {
		return err
	}
	d.fs.Crashpoint("store.intake.written")
	return d.append(record{
		Op: opSubmitted, ID: id, Name: name,
		OptKey: optKey, Opts: opts, NetSHA: netSHA,
	})
}

// JournalRunning records that a worker picked the job up. Purely
// informational for replay (running and queued jobs recover the same
// way: re-enqueued), but it makes the WAL a faithful lifecycle trace.
func (d *Disk) JournalRunning(id string) error {
	return d.append(record{Op: opRunning, ID: id})
}

// JournalDone persists a finished job: the result payload is written
// atomically into results/ (and the job's trace document, when present,
// into traces/), then the done record — carrying the payload checksums
// and the result metadata — is appended. A crash between the writes
// replays as a still-pending job (orphaned payloads are ignored and
// swept); after the append, the job is durably finished. The trace is
// advisory: a trace write failure downgrades to journaling the result
// without one rather than failing the job.
func (d *Disk) JournalDone(id string, meta ResultMeta, result, trace []byte) error {
	resSHA, err := d.putPayload(d.resultPath(id), result)
	if err != nil {
		return err
	}
	d.fs.Crashpoint("store.result.written")
	traceSHA := ""
	if len(trace) > 0 {
		if s, terr := d.putPayload(d.tracePath(id), trace); terr == nil {
			traceSHA = s
		}
	}
	return d.append(record{
		Op: opDone, ID: id, ResSHA: resSHA, TraceSHA: traceSHA,
		Tier: meta.Tier, Degraded: meta.Degraded, DeltaSER: meta.DeltaSER,
	})
}

// JournalFailed records a terminal failure. Failed jobs are not cache
// entries: replay drops them (and their intake payload), matching the
// service's drop-and-retry semantics for failed submissions.
func (d *Disk) JournalFailed(id, class, msg string) error {
	return d.append(record{Op: opFailed, ID: id, Class: class, Msg: msg})
}

// JournalEvicted records a cache eviction; replay forgets the job and
// the next compaction removes its payloads.
func (d *Disk) JournalEvicted(id string) error {
	return d.append(record{Op: opEvicted, ID: id})
}

// Close syncs and closes the WAL.
func (d *Disk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	if d.wal == nil {
		return nil
	}
	var errs []error
	if d.policy != SyncNever {
		if err := d.wal.Sync(); err != nil {
			errs = append(errs, err)
		}
	}
	if err := d.wal.Close(); err != nil {
		errs = append(errs, err)
	}
	d.wal = nil
	if len(errs) > 0 {
		return guard.Storef("close", d.walPath(), errs[0])
	}
	return nil
}

// jobState is the replay accumulator for one job.
type jobState struct {
	rec   record // latest submitted fields
	state string // last lifecycle op seen
	done  record // the done record, when state == done
}

// Recover replays the WAL, verifies every payload it intends to hand
// back, quarantines corruption, compacts the log, and opens the
// appender. It must be called exactly once, before any journaling.
//
// The returned jobs satisfy the recovery invariant: each is either Done
// with a checksum-verified result, or pending with a checksum-verified
// netlist. Anything else — failed, evicted, torn, corrupt — is counted
// in Stats and dropped.
func (d *Disk) Recover() ([]RecoveredJob, Stats, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	var st Stats
	if d.closed {
		return nil, st, guard.Storef("recover", d.walPath(), fmt.Errorf("store closed"))
	}
	if d.wal != nil {
		return nil, st, guard.Storef("recover", d.walPath(), fmt.Errorf("already recovered"))
	}

	jobs, order := d.replay(&st)

	var out []RecoveredJob
	live := make(map[string]bool, len(jobs))
	for _, id := range order {
		j := jobs[id]
		switch j.state {
		case opDone:
			rj, ok := d.recoverDone(id, j, &st)
			if ok {
				out = append(out, rj)
				live[id] = true
				if rj.Done {
					st.Finished++
				} else {
					st.Requeued++
				}
			} else {
				st.Evicted++
			}
		case opSubmitted, opRunning:
			rj, ok := d.recoverPending(id, j, &st)
			if ok {
				out = append(out, rj)
				live[id] = true
				st.Requeued++
			} else {
				st.Evicted++
			}
		default: // failed, evicted
			st.Evicted++
		}
	}

	// Compact: rewrite the live set into a fresh WAL and sweep
	// everything else. Compaction failures are not fatal — the old WAL
	// replays identically next boot — but an unopenable appender is.
	d.compact(out)
	d.sweep(live, &st)

	f, err := d.fs.OpenFile(d.walPath(), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, st, guard.Storef("recover.open-wal", d.walPath(), err)
	}
	d.wal = f
	d.lastSync = time.Now()
	return out, st, nil
}

// replay scans the WAL into per-job final states. Corrupt lines are
// counted; a corrupt *final* line is the expected torn-append artifact.
func (d *Disk) replay(st *Stats) (map[string]*jobState, []string) {
	jobs := make(map[string]*jobState)
	var order []string
	data, err := d.fs.ReadFile(d.walPath())
	if err != nil {
		return jobs, order // no WAL yet: empty store
	}
	lines := bytes.Split(data, []byte{'\n'})
	for i, line := range lines {
		if len(line) == 0 {
			continue
		}
		r, ok := decodeLine(line)
		if !ok {
			// A bad final line is a torn append from the crash;
			// anything earlier is corruption worth counting.
			if i >= len(lines)-2 {
				st.TruncatedTail = true
			} else {
				st.CorruptRecords++
			}
			continue
		}
		st.Records++
		j := jobs[r.ID]
		if j == nil {
			j = &jobState{}
			jobs[r.ID] = j
			order = append(order, r.ID)
		}
		switch r.Op {
		case opSubmitted:
			j.rec = r
			j.state = opSubmitted
		case opRunning:
			if j.state == opSubmitted {
				j.state = opRunning
			}
		case opDone:
			j.done = r
			j.state = opDone
		case opFailed, opEvicted:
			j.state = r.Op
		default:
			st.CorruptRecords++
		}
	}
	return jobs, order
}

// decodeLine parses one CRC-framed record line.
func decodeLine(line []byte) (record, bool) {
	var r record
	if len(line) < 10 || line[8] != ' ' {
		return r, false
	}
	var want uint32
	if _, err := fmt.Sscanf(string(line[:8]), "%08x", &want); err != nil {
		return r, false
	}
	body := line[9:]
	if crc32.ChecksumIEEE(body) != want {
		return r, false
	}
	if err := json.Unmarshal(body, &r); err != nil || r.ID == "" || r.Op == "" {
		return r, false
	}
	return r, true
}

// verifyPayload reads a payload and checks its journaled checksum. A
// mismatch or a read failure quarantines the file.
func (d *Disk) verifyPayload(path, wantSHA string, st *Stats) ([]byte, bool) {
	data, err := d.fs.ReadFile(path)
	if err != nil || sha(data) != wantSHA {
		st.Quarantined++
		d.quarantine(path)
		return nil, false
	}
	return data, true
}

// quarantine moves a corrupt payload aside (best effort) so it is
// preserved for diagnosis but can never be served.
func (d *Disk) quarantine(path string) {
	dst := filepath.Join(d.quarantineDir(), filepath.Base(path))
	if err := d.fs.Rename(path, dst); err != nil {
		_ = d.fs.Remove(path)
	}
}

// recoverDone reconstructs a finished job: its result must re-hash to
// the journaled checksum; otherwise the result is quarantined and — if
// the intake payload is still intact — the job degrades to pending, so
// a corrupt result costs a re-solve, never a wrong answer or a loss.
func (d *Disk) recoverDone(id string, j *jobState, st *Stats) (RecoveredJob, bool) {
	result, ok := d.verifyPayload(d.resultPath(id), j.done.ResSHA, st)
	if ok {
		rj := RecoveredJob{
			ID:     id,
			Name:   j.rec.Name,
			OptKey: j.rec.OptKey,
			Opts:   j.rec.Opts,
			Done:   true,
			Result: result,
			Meta: ResultMeta{
				Tier:     j.done.Tier,
				Degraded: j.done.Degraded,
				DeltaSER: j.done.DeltaSER,
			},
		}
		// The trace is advisory: corruption quarantines the trace file
		// and is counted, but the verified result is still served.
		if j.done.TraceSHA != "" {
			rj.Trace, _ = d.verifyPayload(d.tracePath(id), j.done.TraceSHA, st)
		}
		return rj, true
	}
	return d.recoverPending(id, j, st)
}

// recoverPending reconstructs a queued/running job from its intake
// payload.
func (d *Disk) recoverPending(id string, j *jobState, st *Stats) (RecoveredJob, bool) {
	if j.rec.NetSHA == "" {
		// Lifecycle records without a surviving submitted record (lost
		// to corruption): nothing to re-solve.
		return RecoveredJob{}, false
	}
	netlist, ok := d.verifyPayload(d.intakePath(id), j.rec.NetSHA, st)
	if !ok {
		return RecoveredJob{}, false
	}
	return RecoveredJob{
		ID:      id,
		Name:    j.rec.Name,
		OptKey:  j.rec.OptKey,
		Opts:    j.rec.Opts,
		Netlist: netlist,
	}, true
}

// compact rewrites the WAL to exactly the live job set: a submitted
// record per job plus a done record for the finished ones. The rewrite
// is atomic (temp + rename), so a crash mid-compaction replays the old
// log.
func (d *Disk) compact(jobs []RecoveredJob) {
	err := faultfs.WriteAtomic(d.fs, d.walPath(), 0o644, d.policy != SyncNever, func(w io.Writer) error {
		for _, j := range jobs {
			sub := record{
				Op: opSubmitted, ID: j.ID, Name: j.Name,
				OptKey: j.OptKey, Opts: j.Opts,
			}
			if !j.Done {
				// Finished jobs replay from their result alone; only
				// pending jobs need a verifiable netlist checksum.
				sub.NetSHA = sha(j.Netlist)
			}
			if err := writeLine(w, sub); err != nil {
				return err
			}
			if j.Done {
				done := record{
					Op: opDone, ID: j.ID, ResSHA: sha(j.Result),
					Tier: j.Meta.Tier, Degraded: j.Meta.Degraded, DeltaSER: j.Meta.DeltaSER,
				}
				if len(j.Trace) > 0 {
					done.TraceSHA = sha(j.Trace)
				}
				if err := writeLine(w, done); err != nil {
					return err
				}
			}
		}
		return nil
	})
	_ = err // best effort: the uncompacted WAL replays identically
}

func writeLine(w io.Writer, r record) error {
	body, err := json.Marshal(r)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%08x ", crc32.ChecksumIEEE(body)); err != nil {
		return err
	}
	if _, err := w.Write(body); err != nil {
		return err
	}
	_, err = w.Write([]byte{'\n'})
	return err
}

// sweep removes payloads of dead jobs and orphaned atomic-write temp
// files (best effort).
func (d *Disk) sweep(live map[string]bool, st *Stats) {
	for _, dir := range []string{d.dir, d.intakeDir(), d.resultsDir(), d.tracesDir()} {
		entries, err := d.fs.ReadDir(dir)
		if err != nil {
			continue
		}
		for _, e := range entries {
			name := e.Name()
			switch {
			case faultfs.IsTemp(name):
				if d.fs.Remove(filepath.Join(dir, name)) == nil {
					st.TempsSwept++
				}
			case dir != d.dir && !e.IsDir() && !live[name]:
				_ = d.fs.Remove(filepath.Join(dir, name))
			}
		}
	}
}
