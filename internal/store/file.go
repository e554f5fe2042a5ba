package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"hypersolve/internal/telemetry"
)

// File names inside a File store's directory: the write-ahead journal, the
// rotated journal a background compaction is absorbing, the compacted
// snapshot, and the advisory lock guarding single-daemon access.
const (
	JournalName     = "journal.jsonl"
	JournalPrevName = "journal.prev.jsonl"
	SnapshotName    = "snapshot.json"
	LockName        = "store.lock"
)

// DefaultSnapshotEvery is the journal length (in records) that triggers a
// snapshot compaction when FileConfig.SnapshotEvery <= 0.
const DefaultSnapshotEvery = 1024

// FileConfig shapes a durable file store.
type FileConfig struct {
	// Dir is the data directory; it is created if missing.
	Dir string
	// History bounds retained terminal jobs (<= 0 selects DefaultHistory).
	History int
	// Fsync syncs the journal after every record. Off, a SIGKILLed process
	// loses nothing (the kernel holds the written bytes) but a machine
	// crash can lose the tail; on, every transition survives power loss at
	// a large throughput cost.
	Fsync bool
	// SnapshotEvery is the number of journal records between snapshot
	// compactions (<= 0 selects DefaultSnapshotEvery).
	SnapshotEvery int
	// Replica opens the store in replica mode: direct mutations are
	// rejected with ErrReplica, jobs left running by a crashed primary are
	// NOT re-queued (the replica keeps mirroring the primary's view), and
	// the only write path is ApplyFeed. Promote flips the store to
	// read-write. See replication.go.
	Replica bool
	// Telemetry receives the store's metrics (journal size/records,
	// compaction count and duration, replay time, fsync latency). Nil
	// allocates a private registry. A store reopened into the same
	// registry — a standby demoted back to replica mode — keeps
	// accumulating into the same counters.
	Telemetry *telemetry.Registry
}

// fileMetrics bundles the instruments updated on the journal write and
// compaction paths; scrape-time gauges (live record count, journal bytes)
// are GaugeFuncs registered in Open.
type fileMetrics struct {
	records           *telemetry.Counter
	compactions       *telemetry.Counter
	compactionSeconds *telemetry.Histogram
	fsyncSeconds      *telemetry.Histogram
	replaySeconds     *telemetry.Gauge
}

// File is the durable backend: a Memory view kept in lockstep with an
// append-only JSONL write-ahead journal. One record is appended per job
// transition (submit/start/finish); every SnapshotEvery records the
// journal is rotated aside and a background goroutine writes the full view
// to SnapshotName (tmp-file + fsync + rename + dir sync), then deletes the
// rotated journal — so the log never grows without bound and the
// transition that trips the threshold pays only a rename, not the
// snapshot write. Open replays snapshot + rotated journal + journal,
// tolerating a torn trailing record, and re-queues jobs that were running
// at crash time; every replay step is idempotent, so a crash anywhere in
// the compaction pipeline converges to the same state.
type File struct {
	cfg     FileConfig
	mem     *Memory
	metrics fileMetrics

	// mu serialises mutations (journal appends, rotation, close); reads go
	// straight to the Memory view under its own lock, so they are never
	// blocked by an in-flight compaction.
	mu      sync.Mutex
	idle    *sync.Cond // signalled when a background compaction finishes
	journal *os.File
	lock    *os.File // flock'd LockName handle; kernel-released on death
	recs    int      // records in the current journal, drives compaction

	// Replication state. Every record carries a log sequence number (LSN)
	// that survives compaction and restarts; epoch is the fencing token
	// bumped by each promotion. tail keeps the most recent records in
	// memory — covering (baseLSN, lsn] — so Feed can serve a caught-up
	// replica without touching the (possibly rotated) journal files.
	lsn     int64
	epoch   int64
	baseLSN int64
	tail    []rec
	replica bool // read-only until Promote

	// compacting marks a background compaction in flight; retryInline
	// marks that the last one failed (the rotated journal still exists),
	// so the next trigger compacts synchronously instead of rotating
	// again. compactErr carries the failure to that retry's caller.
	compacting  bool
	retryInline bool
	compactErr  error
	closed      bool
}

// testHookCompacting, when set, is called by the background compactor
// before it writes the snapshot — tests use it to hold a compaction open
// while asserting that transitions do not block behind it.
var testHookCompacting func()

// rec is one journal line. LSN is the record's log sequence number —
// monotonic across compactions and restarts, the replication stream's
// cursor. Records written before LSNs existed carry none and are assigned
// one during replay. The "epoch" op records a promotion (see
// replication.go); it carries no job transition.
type rec struct {
	Op     string          `json:"op"` // "submit" | "start" | "finish" | "trace" | "attempts" | "epoch"
	LSN    int64           `json:"lsn,omitempty"`
	ID     int64           `json:"id,omitempty"`
	At     time.Time       `json:"at,omitzero"`
	Spec   json.RawMessage `json:"spec,omitempty"`
	State  State           `json:"state,omitempty"`
	Error  string          `json:"error,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
	Trace  json.RawMessage `json:"trace,omitempty"`
	// Attempts carries the portfolio attempt ledger of an "attempts" op.
	Attempts json.RawMessage `json:"attempts,omitempty"`
	Epoch    int64           `json:"epoch,omitempty"`
}

// snapshot is the compacted full state. LSN is the last record folded in;
// Epoch the fencing epoch at capture time.
type snapshot struct {
	NextID   int64   `json:"next_id"`
	Finished []int64 `json:"finished"`
	Jobs     []Job   `json:"jobs"`
	LSN      int64   `json:"lsn,omitempty"`
	Epoch    int64   `json:"epoch,omitempty"`
}

// Open loads (or creates) a durable store in cfg.Dir. Recovery is
// crash-tolerant in three ways: a truncated or corrupt trailing journal
// line (a torn write) is discarded, records already reflected in the
// snapshot (the windows inside the compaction pipeline) replay as no-ops,
// and a rotated journal left by a compaction that never finished is
// replayed before the live journal and folded into a fresh snapshot. Jobs
// left queued or running by the previous process come back queued, ready
// for the service to re-admit.
func Open(cfg FileConfig) (*File, error) {
	if cfg.History <= 0 {
		cfg.History = DefaultHistory
	}
	if cfg.SnapshotEvery <= 0 {
		cfg.SnapshotEvery = DefaultSnapshotEvery
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	lock, err := lockDir(cfg.Dir)
	if err != nil {
		return nil, err
	}
	if cfg.Telemetry == nil {
		cfg.Telemetry = telemetry.NewRegistry()
	}
	// A writer killed mid-snapshot leaves its uniquely named temp file
	// behind; under the lock no live writer can own one.
	if stale, err := filepath.Glob(filepath.Join(cfg.Dir, SnapshotName+".*.tmp")); err == nil {
		for _, tmp := range stale {
			_ = os.Remove(tmp) // best effort: a leftover only costs disk
		}
	}
	f := &File{cfg: cfg, mem: NewMemory(cfg.History), lock: lock}
	f.idle = sync.NewCond(&f.mu)
	f.registerMetrics()
	fail := func(err error) (*File, error) {
		if lock != nil {
			lock.Close()
		}
		return nil, err
	}

	replayStart := time.Now()
	if data, err := os.ReadFile(filepath.Join(cfg.Dir, SnapshotName)); err == nil {
		var snap snapshot
		if err := json.Unmarshal(data, &snap); err != nil {
			return fail(fmt.Errorf("store: corrupt snapshot %s: %w", SnapshotName, err))
		}
		f.mem.install(snap.NextID, snap.Finished, snap.Jobs)
		f.lsn, f.epoch = snap.LSN, snap.Epoch
		f.baseLSN = snap.LSN
	} else if !os.IsNotExist(err) {
		return fail(fmt.Errorf("store: %w", err))
	}

	// A rotated journal on disk means the previous process died (or
	// errored) mid-compaction: its records precede the live journal's and
	// may or may not be in the snapshot — idempotent replay covers both.
	_, prevRecs, err := f.replay(JournalPrevName)
	if err != nil {
		return fail(err)
	}
	good, applied, err := f.replay(JournalName)
	if err != nil {
		return fail(err)
	}
	f.replica = cfg.Replica
	if !cfg.Replica {
		// A primary re-queues whatever was running at crash time so the
		// service re-runs it. A replica must not: its view mirrors the
		// primary's, and the re-queue happens at Promote instead.
		f.mem.requeueRunning()
	}

	journal, err := os.OpenFile(filepath.Join(cfg.Dir, JournalName),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fail(fmt.Errorf("store: %w", err))
	}
	// Drop a torn tail before appending, or the partial line would fuse
	// with the next record and corrupt the journal mid-file.
	if err := journal.Truncate(good); err != nil {
		journal.Close()
		return fail(fmt.Errorf("store: truncating torn journal tail: %w", err))
	}
	f.journal = journal
	f.recs = applied
	if prevRecs > 0 || f.recs >= f.cfg.SnapshotEvery {
		// Fold everything into a fresh snapshot now, synchronously: Open
		// has no concurrent writers to stall, and it clears the rotated
		// journal so the background path starts from a clean slate.
		if err := f.compactInline(); err != nil {
			journal.Close()
			return fail(err)
		}
	}
	f.metrics.replaySeconds.Set(time.Since(replayStart).Seconds())
	return f, nil
}

// registerMetrics creates the store's instruments in cfg.Telemetry.
// GaugeFunc callbacks are rebound to this File, so the registry keeps
// reporting the live instance across reopens.
func (f *File) registerMetrics() {
	reg := f.cfg.Telemetry
	f.metrics = fileMetrics{
		records: reg.Counter("hypersolve_store_records_total",
			"Records appended to the write-ahead journal."),
		compactions: reg.Counter("hypersolve_store_compactions_total",
			"Snapshot compactions completed (background and inline)."),
		compactionSeconds: reg.Histogram("hypersolve_store_compaction_seconds",
			"Wall time of one snapshot compaction.", telemetry.DurationBuckets),
		fsyncSeconds: reg.Histogram("hypersolve_store_fsync_seconds",
			"Latency of one per-record journal fsync (only populated with Fsync on).", telemetry.FsyncBuckets),
		replaySeconds: reg.Gauge("hypersolve_store_replay_seconds",
			"Time Open spent replaying the snapshot and journals."),
	}
	reg.GaugeFunc("hypersolve_store_journal_records",
		"Records in the live journal since the last compaction.", func() float64 {
			f.mu.Lock()
			defer f.mu.Unlock()
			return float64(f.recs)
		})
	reg.GaugeFunc("hypersolve_store_journal_bytes",
		"Size of the live journal file.", func() float64 {
			fi, err := os.Stat(filepath.Join(f.cfg.Dir, JournalName))
			if err != nil {
				return 0
			}
			return float64(fi.Size())
		})
}

// replay applies one journal file to the in-memory view, stopping at the
// first incomplete or unparsable line. It returns the byte offset of the
// end of the last good record and how many records were applied; a missing
// file is zero records.
func (f *File) replay(name string) (good int64, applied int, err error) {
	data, err := os.ReadFile(filepath.Join(f.cfg.Dir, name))
	if os.IsNotExist(err) {
		return 0, 0, nil
	}
	if err != nil {
		return 0, 0, fmt.Errorf("store: %w", err)
	}
	for len(data) > 0 {
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			break // torn write: no terminating newline
		}
		var r rec
		if json.Unmarshal(data[:nl], &r) != nil {
			break // torn or corrupt record: discard it and everything after
		}
		f.applyRec(r)
		good += int64(nl + 1)
		applied++
		data = data[nl+1:]
	}
	return good, applied, nil
}

// applyRec folds one journal record into the in-memory view and advances
// the replication cursor. Pre-LSN records (upgraded stores) are assigned
// the next sequence number; LSN'd records already reflected in the view
// (crash windows, replica catch-up) advance the cursor without mutating.
func (f *File) applyRec(r rec) {
	switch r.Op {
	case "submit":
		f.mem.restoreSubmit(r.ID, r.Spec, r.At)
	case "start":
		f.mem.restoreStart(r.ID, r.At)
	case "finish":
		f.mem.restoreFinish(r.ID, r.State, r.At, r.Error, r.Result)
	case "trace":
		f.mem.restoreTrace(r.ID, r.Trace)
	case "attempts":
		f.mem.restoreAttempts(r.ID, r.Attempts)
	case "epoch":
		if r.Epoch > f.epoch {
			f.epoch = r.Epoch
		}
	}
	if r.LSN == 0 {
		r.LSN = f.lsn + 1
	}
	if r.LSN > f.lsn {
		f.lsn = r.LSN
		f.tailPush(r)
	}
}

// tailPush retains r in the in-memory feed tail, trimming it to the cap so
// a slow replica costs bounded memory (it falls back to a snapshot
// bootstrap once the tail no longer reaches back far enough).
func (f *File) tailPush(r rec) {
	f.tail = append(f.tail, r)
	if cap := 2 * f.cfg.SnapshotEvery; len(f.tail) > cap {
		drop := len(f.tail) - cap
		f.tail = append(f.tail[:0:0], f.tail[drop:]...)
	}
	f.baseLSN = f.lsn - int64(len(f.tail))
}

// append journals one record on the primary write path: it stamps the next
// LSN, retains the record in the feed tail, and hands it to the shared
// write path. The in-memory view has already been updated: on a write
// error the view stays authoritative for this process and the error
// reports the lost durability to the caller.
func (f *File) append(r rec) error {
	r.LSN = f.lsn + 1
	f.lsn = r.LSN
	f.tailPush(r)
	return f.appendLocked(r)
}

// appendLocked writes one already-LSN'd record to the journal. Crossing the
// SnapshotEvery threshold rotates the journal aside and hands the snapshot
// write to a background goroutine; the append itself pays only the rename.
// Callers hold f.mu.
func (f *File) appendLocked(r rec) error {
	data, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := f.journal.Write(append(data, '\n')); err != nil {
		return fmt.Errorf("store: journal append: %w", err)
	}
	if f.cfg.Fsync {
		syncStart := time.Now()
		if err := f.journal.Sync(); err != nil {
			return fmt.Errorf("store: journal sync: %w", err)
		}
		f.metrics.fsyncSeconds.Observe(time.Since(syncStart).Seconds())
	}
	f.metrics.records.Inc()
	f.recs++
	if f.recs < f.cfg.SnapshotEvery || f.compacting {
		return nil
	}
	if f.retryInline {
		// The last background compaction failed and its rotated journal is
		// still on disk; a second rotation would orphan it. Pay the stall
		// and fold everything synchronously. A successful retry heals the
		// earlier failure (the fresh snapshot supersedes it), so only a
		// renewed failure is surfaced to this transition.
		f.retryInline = false
		if err := f.compactInline(); err != nil {
			f.retryInline = true
			f.compactErr = errors.Join(f.compactErr, err)
			return err
		}
		f.compactErr = nil
		return nil
	}
	return f.rotateAndCompact()
}

// rotateAndCompact captures the view, rotates the live journal aside and
// spawns the background snapshot write. Callers hold f.mu; the critical
// section costs two renames, not a snapshot marshal.
func (f *File) rotateAndCompact() error {
	nextID, finished, jobs := f.mem.snapshotState()
	dir := f.cfg.Dir
	live := filepath.Join(dir, JournalName)
	prev := filepath.Join(dir, JournalPrevName)
	if err := os.Rename(live, prev); err != nil {
		return fmt.Errorf("store: rotating journal: %w", err)
	}
	fresh, err := os.OpenFile(live, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		// Roll the rotation back so the store keeps appending to a journal
		// that Open knows how to find.
		if rerr := os.Rename(prev, live); rerr != nil {
			return fmt.Errorf("store: rotation failed and could not be undone (%v): %w", rerr, err)
		}
		return fmt.Errorf("store: opening fresh journal: %w", err)
	}
	// Make the rename and the fresh journal's directory entry durable now:
	// records fsynced into the fresh journal must not be orphaned by a
	// power loss that forgets the rotation itself.
	if err := syncDir(dir); err != nil {
		fresh.Close()
		if rerr := os.Rename(prev, live); rerr != nil {
			return fmt.Errorf("store: rotation failed and could not be undone (%v): %w", rerr, err)
		}
		return err
	}
	rotated := f.journal
	f.journal = fresh
	f.recs = 0
	f.compacting = true
	go f.finishCompaction(rotated, snapshot{NextID: nextID, Finished: finished, Jobs: jobs, LSN: f.lsn, Epoch: f.epoch})
	return nil
}

// finishCompaction runs off the transition path: it settles the rotated
// journal, writes the captured view as the new snapshot and deletes the
// rotated journal. On failure the rotated journal stays behind — replay
// remains correct — and the next threshold crossing retries inline.
func (f *File) finishCompaction(rotated *os.File, snap snapshot) {
	if testHookCompacting != nil {
		testHookCompacting()
	}
	compactStart := time.Now()
	err := func() error {
		// Settle the rotated journal first: the snapshot must never be the
		// only durable copy of records the journal still owns.
		if err := rotated.Sync(); err != nil {
			rotated.Close()
			return fmt.Errorf("store: syncing rotated journal: %w", err)
		}
		if err := rotated.Close(); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		if err := writeSnapshot(f.cfg.Dir, snap); err != nil {
			return err
		}
		if err := os.Remove(filepath.Join(f.cfg.Dir, JournalPrevName)); err != nil {
			return fmt.Errorf("store: removing rotated journal: %w", err)
		}
		return syncDir(f.cfg.Dir)
	}()

	f.mu.Lock()
	f.compacting = false
	if err != nil {
		f.retryInline = true
		f.compactErr = err
	} else {
		f.metrics.compactions.Inc()
		f.metrics.compactionSeconds.Observe(time.Since(compactStart).Seconds())
	}
	f.idle.Broadcast()
	f.mu.Unlock()
}

// compactInline writes the full current view to the snapshot and truncates
// both journals, all under f.mu — the synchronous fallback used by Open
// and by the retry path after a failed background compaction.
func (f *File) compactInline() error {
	compactStart := time.Now()
	nextID, finished, jobs := f.mem.snapshotState()
	if err := writeSnapshot(f.cfg.Dir, snapshot{NextID: nextID, Finished: finished, Jobs: jobs, LSN: f.lsn, Epoch: f.epoch}); err != nil {
		return err
	}
	if err := os.Remove(filepath.Join(f.cfg.Dir, JournalPrevName)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("store: removing rotated journal: %w", err)
	}
	if err := syncDir(f.cfg.Dir); err != nil {
		return err
	}
	if err := f.journal.Truncate(0); err != nil {
		return fmt.Errorf("store: truncating journal: %w", err)
	}
	f.recs = 0
	f.metrics.compactions.Inc()
	f.metrics.compactionSeconds.Observe(time.Since(compactStart).Seconds())
	return nil
}

// writeSnapshot persists snap via tmp-file + fsync + rename + dir sync, so
// a crash leaves either the old snapshot or the new one, never a torn mix.
// The temp file's name is unique, so two writers can never share one.
func writeSnapshot(dir string, snap snapshot) error {
	data, err := json.Marshal(snap)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	w, err := os.CreateTemp(dir, SnapshotName+".*.tmp")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp := w.Name()
	// CreateTemp makes the file 0600; keep the snapshot as readable as the
	// journal.
	if err = w.Chmod(0o644); err == nil {
		_, err = w.Write(append(data, '\n'))
	}
	if err == nil {
		err = w.Sync()
	}
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, filepath.Join(dir, SnapshotName))
	}
	if err != nil {
		// Best effort: the write already failed, and Open sweeps leftovers.
		_ = os.Remove(tmp)
		return fmt.Errorf("store: writing snapshot: %w", err)
	}
	return syncDir(dir)
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("store: syncing %s: %w", dir, err)
	}
	return nil
}

// Submit implements Store: the admission is recorded in the view and
// journaled; a failed journal append rolls the view back.
func (f *File) Submit(spec json.RawMessage, at time.Time) (Job, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return Job{}, ErrClosed
	}
	if f.replica {
		return Job{}, ErrReplica
	}
	j, err := f.mem.Submit(spec, at)
	if err != nil {
		return Job{}, err
	}
	if err := f.append(rec{Op: "submit", ID: j.ID, At: at, Spec: spec}); err != nil {
		// Unlike Start/Finish (where the view staying ahead of the journal
		// only costs durability), a failed admission must leave no trace:
		// the service rejects the submission, so a job surviving in the
		// view would be visible-but-unrunnable forever. If the record did
		// reach the journal before the failure (fsync, compaction), the
		// next Open resurrects the job queued and simply re-runs it.
		f.mem.rollbackSubmit(j.ID)
		return Job{}, err
	}
	return j, nil
}

// Start implements Store: the transition is recorded in the view and
// journaled.
func (f *File) Start(id int64, at time.Time) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return ErrClosed
	}
	if f.replica {
		return ErrReplica
	}
	if err := f.mem.Start(id, at); err != nil {
		return err
	}
	return f.append(rec{Op: "start", ID: id, At: at})
}

// Finish implements Store: the terminal transition (with error message
// and result payload) is recorded in the view and journaled.
func (f *File) Finish(id int64, state State, at time.Time, errMsg string, result json.RawMessage) ([]int64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil, ErrClosed
	}
	if f.replica {
		return nil, ErrReplica
	}
	evicted, err := f.mem.Finish(id, state, at, errMsg, result)
	if err != nil {
		return nil, err
	}
	return evicted, f.append(rec{Op: "finish", ID: id, At: at, State: state, Error: errMsg, Result: result})
}

// SetTrace implements Store: the trace timeline is attached in the view
// and journaled as its own record, so it replicates to standbys and is
// folded into snapshots like any transition.
func (f *File) SetTrace(id int64, trace json.RawMessage) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return ErrClosed
	}
	if f.replica {
		return ErrReplica
	}
	if err := f.mem.SetTrace(id, trace); err != nil {
		return err
	}
	return f.append(rec{Op: "trace", ID: id, Trace: trace})
}

// SetAttempts implements Store: the portfolio attempt ledger is attached
// in the view and journaled as its own "attempts" record, so it replicates
// to standbys and is folded into snapshots like any transition.
func (f *File) SetAttempts(id int64, attempts json.RawMessage) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return ErrClosed
	}
	if f.replica {
		return ErrReplica
	}
	if err := f.mem.SetAttempts(id, attempts); err != nil {
		return err
	}
	return f.append(rec{Op: "attempts", ID: id, Attempts: attempts})
}

// Get implements Store, reading the in-memory view (never blocked by an
// in-flight compaction).
func (f *File) Get(id int64) (Job, bool) { return f.mem.Get(id) }

// List implements Store, reading the in-memory view (never blocked by an
// in-flight compaction).
func (f *File) List(states ...State) []Job { return f.mem.List(states...) }

// barrier waits for any in-flight background compaction to settle — the
// hook tests and Close use to observe a quiescent directory.
func (f *File) barrier() {
	f.mu.Lock()
	for f.compacting {
		f.idle.Wait()
	}
	f.mu.Unlock()
}

// Close waits out any in-flight compaction, then syncs and closes the
// journal and releases the directory lock. The in-memory view stays
// readable (Get/List), matching the Memory backend after a service
// shutdown. A compaction failure that no transition has surfaced yet is
// returned here.
func (f *File) Close() error {
	f.mu.Lock()
	for f.compacting {
		f.idle.Wait()
	}
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	pending := f.compactErr
	f.compactErr = nil
	f.mu.Unlock()

	if f.lock != nil {
		defer f.lock.Close()
	}
	if err := f.journal.Sync(); err != nil {
		f.journal.Close()
		return errors.Join(pending, fmt.Errorf("store: %w", err))
	}
	if err := f.journal.Close(); err != nil {
		return errors.Join(pending, fmt.Errorf("store: %w", err))
	}
	return pending
}
