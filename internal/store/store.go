package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"padres/internal/sim"
	"padres/internal/telemetry"
)

// Options tunes a Store.
type Options struct {
	// SnapshotEvery checkpoints (snapshot + log truncation) after this many
	// WAL records have been appended since the last checkpoint. 0 selects
	// the default (4096); negative disables automatic checkpoints.
	SnapshotEvery int
	// Metrics, when set, receives WAL/snapshot/recovery instrumentation.
	Metrics *telemetry.StoreMetrics
	// Clock is the store's time source for commit-latency and checkpoint
	// stamps (nil selects the wall clock). The group-commit flusher itself
	// is demand-driven, so the clock is observational — but routing it here
	// keeps simulated runs free of wall-clock reads.
	Clock sim.Clock
}

const defaultSnapshotEvery = 4096

// Recovery reports what Open reconstructed from the data directory.
type Recovery struct {
	// Gen is the generation whose snapshot+log pair was recovered.
	Gen uint64
	// SnapshotLoaded reports whether a snapshot file seeded the state.
	SnapshotLoaded bool
	// WALRecords is the number of intact log records replayed.
	WALRecords int
	// TruncatedBytes is how much torn/corrupt log tail was cut off.
	TruncatedBytes int64
	// Duration is the wall time Open spent recovering.
	Duration time.Duration
	// State is the recovered broker state (never nil).
	State *Snapshot
}

// ErrClosed is returned by appends after Close.
var ErrClosed = errors.New("store: closed")

// appendReq is one unit of flusher work: a record to append, a sync-waiter,
// or a checkpoint request. Records are encoded by the flusher, not the
// caller, so the dispatch hot path pays only the enqueue.
type appendReq struct {
	rec  *Record
	done chan error // non-nil: complete after the batch's fsync
	snap bool       // checkpoint request
	// at is the enqueue time, stamped only when metrics are attached; the
	// flusher derives the enqueue-to-fsync commit latency from it.
	at time.Time
}

// Store is one broker's write-ahead log plus checkpoint manager. Appends
// are enqueued to a single flusher goroutine that batches frames between
// fsyncs, so the dispatch hot path never waits on the disk unless it asks
// to (AppendSync).
type Store struct {
	dir  string
	opts Options
	rec  *Recovery
	clk  sim.Clock

	mu     sync.Mutex // guards queue, closed
	queue  []appendReq
	cond   *sync.Cond
	closed bool

	// Flusher-owned state.
	file        *os.File
	gen         uint64
	sinceSnap   int
	flusherDone chan struct{}
	// flusherState is the replay of everything the log holds: recovery
	// seeds it and the flusher folds each record in as it is framed, so a
	// checkpoint is exactly the state a restart would rebuild.
	flusherState *replayState
}

// Open recovers the data directory's durable state and readies the store
// for appends. The directory is created if missing.
func Open(dir string, opts Options) (*Store, error) {
	if opts.SnapshotEvery == 0 {
		opts.SnapshotEvery = defaultSnapshotEvery
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: dir, opts: opts, clk: sim.Or(opts.Clock), flusherDone: make(chan struct{})}
	s.cond = sync.NewCond(&s.mu)
	if err := s.recover(); err != nil {
		return nil, err
	}
	go s.flusher()
	return s, nil
}

// Dir returns the data directory.
func (s *Store) Dir() string { return s.dir }

// Recovery returns what Open reconstructed; never nil.
func (s *Store) Recovery() *Recovery { return s.rec }

// Append enqueues one record for the next group commit and returns
// immediately; the flusher goroutine encodes and writes it, so the caller
// pays only a mutex-guarded enqueue. Append after Close is a silent no-op
// (late journal-style writers race shutdown benignly).
func (s *Store) Append(rec Record) {
	s.enqueue(appendReq{rec: &rec})
}

// AppendSync enqueues one record and blocks until it — and everything
// before it — is fsynced. Coordinator decision records use it so an
// outcome is durable before the message that reveals it is sent.
func (s *Store) AppendSync(rec Record) error {
	done := make(chan error, 1)
	if !s.enqueue(appendReq{rec: &rec, done: done}) {
		return ErrClosed
	}
	return <-done
}

// Sync blocks until every previously enqueued record is fsynced.
func (s *Store) Sync() error {
	done := make(chan error, 1)
	if !s.enqueue(appendReq{done: done}) {
		return ErrClosed
	}
	return <-done
}

// Checkpoint forces a snapshot + log truncation cycle and waits for it.
func (s *Store) Checkpoint() error {
	done := make(chan error, 1)
	if !s.enqueue(appendReq{done: done, snap: true}) {
		return ErrClosed
	}
	return <-done
}

// Close drains pending appends, fsyncs, and closes the log. Idempotent.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		<-s.flusherDone
		return nil
	}
	s.closed = true
	s.cond.Signal()
	s.mu.Unlock()
	<-s.flusherDone
	return nil
}

// enqueue hands one request to the flusher; false after Close.
func (s *Store) enqueue(req appendReq) bool {
	if s.opts.Metrics != nil && req.rec != nil {
		req.at = s.clk.Now()
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return false
	}
	s.queue = append(s.queue, req)
	s.cond.Signal()
	s.mu.Unlock()
	return true
}

// flusher is the group-commit loop: it takes whatever accumulated in the
// queue, writes the frames with one fsync, completes the sync-waiters, and
// checkpoints when the record budget is spent.
func (s *Store) flusher() {
	defer close(s.flusherDone)
	var buf []byte
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.closed {
			s.cond.Wait()
		}
		batch := s.queue
		s.queue = nil
		closed := s.closed
		s.mu.Unlock()

		if len(batch) > 0 {
			buf = buf[:0]
			records := 0
			wantSnap := false
			var encErr error
			for _, req := range batch {
				wantSnap = wantSnap || req.snap
				if req.rec == nil {
					continue
				}
				payload, err := encodeRecord(*req.rec)
				if err != nil {
					// An unencodable record: drop it, surface the error
					// to any sync-waiter, keep the rest of the batch.
					encErr = err
					continue
				}
				buf = appendFrame(buf, payload)
				records++
				s.flusherState.apply(*req.rec)
			}
			err := s.writeAndSync(buf, records)
			if err == nil && records > 0 {
				if m := s.opts.Metrics; m != nil {
					// One clock read per group commit covers every record's
					// enqueue-to-durable latency.
					now := s.clk.Now()
					for _, req := range batch {
						if req.rec != nil && !req.at.IsZero() {
							m.CommitLatency.Observe(now.Sub(req.at))
						}
					}
				}
			}
			if err == nil {
				err = encErr
			}
			s.sinceSnap += records
			if err == nil && (wantSnap || (s.opts.SnapshotEvery > 0 && s.sinceSnap >= s.opts.SnapshotEvery)) {
				err = s.checkpoint()
			}
			for _, req := range batch {
				if req.done != nil {
					req.done <- err
				}
			}
		}
		if closed {
			if s.file != nil {
				s.file.Sync()
				s.file.Close()
				s.file = nil
			}
			return
		}
	}
}

// writeAndSync appends the framed batch and fsyncs once.
func (s *Store) writeAndSync(buf []byte, records int) error {
	if len(buf) == 0 {
		if s.file == nil {
			return nil
		}
		return s.file.Sync()
	}
	if s.file == nil {
		return ErrClosed
	}
	if _, err := s.file.Write(buf); err != nil {
		return fmt.Errorf("store: wal write: %w", err)
	}
	t0 := s.clk.Now()
	if err := s.file.Sync(); err != nil {
		return fmt.Errorf("store: wal fsync: %w", err)
	}
	if m := s.opts.Metrics; m != nil {
		m.WALAppends.Add(int64(records))
		m.WALBytes.Add(int64(len(buf)))
		m.Fsyncs.Inc()
		m.FsyncLatency.Observe(s.clk.Since(t0))
	}
	return nil
}

// checkpoint writes snapshot-<gen+1>, starts wal-<gen+1>, and deletes the
// old generation. Crash-safe at every step: the snapshot lands via temp
// file + rename, and recovery picks the highest generation whose snapshot
// decodes.
func (s *Store) checkpoint() error {
	snap := s.flusherState.snapshot(s.gen + 1)
	payload, err := encodeSnapshot(snap)
	if err != nil {
		return err
	}
	tmp := filepath.Join(s.dir, fmt.Sprintf("snapshot-%d.snap.tmp", snap.Gen))
	final := filepath.Join(s.dir, fmt.Sprintf("snapshot-%d.snap", snap.Gen))
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: snapshot: %w", err)
	}
	if _, err := f.Write(appendFrame(nil, payload)); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("store: snapshot write: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("store: snapshot fsync: %w", err)
	}
	f.Close()
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: snapshot rename: %w", err)
	}
	syncDir(s.dir)

	next, err := os.OpenFile(s.walPath(snap.Gen), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: rotate wal: %w", err)
	}
	syncDir(s.dir)
	if s.file != nil {
		s.file.Close()
	}
	os.Remove(s.walPath(s.gen))
	os.Remove(filepath.Join(s.dir, fmt.Sprintf("snapshot-%d.snap", s.gen)))
	s.file = next
	s.gen = snap.Gen
	s.sinceSnap = 0
	if m := s.opts.Metrics; m != nil {
		m.Snapshots.Inc()
		m.LastSnapshotUnixNano.Set(s.clk.Now().UnixNano())
		m.SnapshotGen.Set(int64(snap.Gen))
	}
	return nil
}

// recover scans the directory, loads the best snapshot, replays and — if
// torn — truncates its log, and leaves the store positioned to append.
func (s *Store) recover() error {
	t0 := s.clk.Now()
	snaps, wals, err := s.scanDir()
	if err != nil {
		return err
	}

	// Highest generation whose snapshot decodes wins; generation 0 (no
	// snapshot yet) is the fallback.
	var snap *Snapshot
	gen := uint64(0)
	for i := len(snaps) - 1; i >= 0; i-- {
		g := snaps[i]
		loaded, err := loadSnapshot(filepath.Join(s.dir, fmt.Sprintf("snapshot-%d.snap", g)))
		if err != nil {
			continue // corrupt or torn snapshot: fall back a generation
		}
		snap, gen = loaded, g
		break
	}

	rs := newReplayState(snap)
	rec := &Recovery{Gen: gen, SnapshotLoaded: snap != nil}

	walPath := s.walPath(gen)
	if fi, err := os.Stat(walPath); err == nil {
		f, err := os.Open(walPath)
		if err != nil {
			return fmt.Errorf("store: open wal: %w", err)
		}
		frames, good, scanErr := scanFrames(f, func(payload []byte) error {
			r, err := decodeRecord(payload)
			if err != nil {
				// An intact frame holding undecodable JSON: treat like a
				// corrupt tail below by surfacing a TailError.
				return &TailError{Reason: err.Error()}
			}
			rs.apply(r)
			return nil
		})
		f.Close()
		rec.WALRecords = frames
		var tail *TailError
		if errors.As(scanErr, &tail) {
			rec.TruncatedBytes = fi.Size() - good
			if err := os.Truncate(walPath, good); err != nil {
				return fmt.Errorf("store: truncate torn wal tail: %w", err)
			}
			if m := s.opts.Metrics; m != nil {
				m.TailTruncations.Inc()
			}
		} else if scanErr != nil {
			return scanErr
		}
	}

	// Remove stale generations (crash mid-checkpoint leaves them behind).
	for _, g := range snaps {
		if g != gen {
			os.Remove(filepath.Join(s.dir, fmt.Sprintf("snapshot-%d.snap", g)))
		}
	}
	for _, g := range wals {
		if g != gen {
			os.Remove(s.walPath(g))
		}
	}

	file, err := os.OpenFile(walPath, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: open wal for append: %w", err)
	}
	syncDir(s.dir)
	s.file = file
	s.gen = gen
	s.flusherState = rs
	rec.State = rs.snapshot(gen)
	rec.Duration = s.clk.Since(t0)
	s.rec = rec
	if m := s.opts.Metrics; m != nil {
		m.RecoveryDuration.Set(int64(rec.Duration))
		m.RecoveredRecords.Add(int64(rec.WALRecords))
		m.SnapshotGen.Set(int64(gen))
	}
	return nil
}

func (s *Store) walPath(gen uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("wal-%d.log", gen))
}

// scanDir lists the generations present as snapshots and logs, ascending.
func (s *Store) scanDir() (snaps, wals []uint64, err error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, nil, fmt.Errorf("store: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasPrefix(name, "snapshot-") && strings.HasSuffix(name, ".snap"):
			if g, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "snapshot-"), ".snap"), 10, 64); err == nil {
				snaps = append(snaps, g)
			}
		case strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log"):
			if g, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".log"), 10, 64); err == nil {
				wals = append(wals, g)
			}
		case strings.HasSuffix(name, ".tmp"):
			// Torn checkpoint leftovers are garbage.
			os.Remove(filepath.Join(s.dir, name))
		}
	}
	sort.Slice(snaps, func(i, k int) bool { return snaps[i] < snaps[k] })
	sort.Slice(wals, func(i, k int) bool { return wals[i] < wals[k] })
	return snaps, wals, nil
}

// syncDir fsyncs a directory so renames and creates are durable; best
// effort on filesystems that reject directory fsync.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
