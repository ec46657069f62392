package journal

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// KindTailLoss is a synthetic meta record injected into a *tailed* stream
// (never into the ring itself) when the producer knows the consumer missed
// records: a tap buffer overflowed, or a resume cursor pointed below the
// oldest record surviving a ring overwrite. Detail carries "missing=N"
// when the count is known, "missing=unknown" otherwise; Lamport carries
// the upper bound of the affected interval. The streaming auditor degrades
// the affected interval to LOSSY instead of reporting absence-based
// violations, whether it meets the marker live or in a recorded tail.
const KindTailLoss = "tail-loss"

// TailLossRecord builds the synthetic loss marker for a tailed stream.
// upTo is the Lamport stamp below which records may be missing; missing is
// the known count of lost records (0 when unknown).
func TailLossRecord(run int64, upTo uint64, missing uint64) Record {
	detail := "missing=unknown"
	if missing > 0 {
		detail = fmt.Sprintf("missing=%d", missing)
	}
	return Record{
		Run:     run,
		Lamport: upTo,
		Site:    "journal",
		Cat:     CatMeta,
		Kind:    KindTailLoss,
		Detail:  detail,
	}
}

// Cursor identifies a resumable position in a journal's record stream,
// keyed by Lamport stamp with the per-process sequence as tiebreaker.
// Unlike a raw ring index or the bare sequence number, a Lamport cursor
// stays meaningful across ring overwrites and broker restarts (a restarted
// process resets Seq but its clocks merge forward past any stamp already
// observed by its peers).
type Cursor struct {
	Lamport uint64
	Seq     uint64
}

// String encodes the cursor as "lamport.seq" for use in ?after= parameters
// and page envelopes.
func (c Cursor) String() string {
	return strconv.FormatUint(c.Lamport, 10) + "." + strconv.FormatUint(c.Seq, 10)
}

// IsZero reports whether the cursor is the beginning of the stream.
func (c Cursor) IsZero() bool { return c.Lamport == 0 && c.Seq == 0 }

// Less orders cursors by (Lamport, Seq).
func (c Cursor) Less(o Cursor) bool {
	if c.Lamport != o.Lamport {
		return c.Lamport < o.Lamport
	}
	return c.Seq < o.Seq
}

// CursorOf returns the record's position in cursor order.
func CursorOf(r Record) Cursor { return Cursor{Lamport: r.Lamport, Seq: r.Seq} }

// ParseCursor decodes "lamport.seq". A bare integer is accepted as a
// Lamport stamp with Seq 0 (resume strictly after that stamp's first
// record), so hand-typed cursors work too.
func ParseCursor(s string) (Cursor, error) {
	if s == "" {
		return Cursor{}, nil
	}
	lam, seq := s, ""
	if i := strings.IndexByte(s, '.'); i >= 0 {
		lam, seq = s[:i], s[i+1:]
	}
	var c Cursor
	var err error
	if c.Lamport, err = strconv.ParseUint(lam, 10, 64); err != nil {
		return Cursor{}, fmt.Errorf("bad cursor %q: %w", s, err)
	}
	if seq != "" {
		if c.Seq, err = strconv.ParseUint(seq, 10, 64); err != nil {
			return Cursor{}, fmt.Errorf("bad cursor %q: %w", s, err)
		}
	}
	return c, nil
}

// SortByCursor orders records by (Lamport, Seq) — the cursor order used by
// the paginated /journal endpoint. It differs from SortCausal only in
// ignoring the run number: a cursor is a position in one journal's stream,
// and Lamport stamps never rewind across runs within one journal.
func SortByCursor(recs []Record) {
	sort.Slice(recs, func(i, j int) bool {
		return CursorOf(recs[i]).Less(CursorOf(recs[j]))
	})
}

// Tap is a live subscription to a journal's appends. Delivery is
// non-blocking: when the tap's buffer is full the record is counted in
// Dropped instead of stalling the recorder's hot path. Consumers that must
// not miss records (the streaming auditor) check Dropped and degrade their
// verdict rather than trusting a silent gap.
type Tap struct {
	j       *Journal
	ch      chan Record
	dropped atomic.Uint64
	once    sync.Once
}

// DefaultTapBuffer is the tap channel capacity when Subscribe is given no
// buffer size.
const DefaultTapBuffer = 1 << 13

// Subscribe attaches a live tap to the journal. Every record accepted by
// Add after this call is offered to the tap's channel; a full buffer drops
// the record for this tap only (counted in Tap.Dropped). A nil journal
// returns a nil tap, whose methods are all safe no-ops.
func (j *Journal) Subscribe(buffer int) *Tap {
	if j == nil {
		return nil
	}
	if buffer <= 0 {
		buffer = DefaultTapBuffer
	}
	t := &Tap{j: j, ch: make(chan Record, buffer)}
	j.tapMu.Lock()
	j.taps = append(j.taps, t)
	j.tapMu.Unlock()
	j.tapsOn.Store(true)
	return t
}

// C returns the tap's record channel. It is closed by Close.
func (t *Tap) C() <-chan Record {
	if t == nil {
		return nil
	}
	return t.ch
}

// Dropped returns how many records this tap missed because its buffer was
// full when the recorder offered them.
func (t *Tap) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}

// Close detaches the tap and closes its channel. Safe to call more than
// once and concurrently with appends: the recorder delivers under a read
// lock that Close excludes before closing the channel.
func (t *Tap) Close() {
	if t == nil {
		return
	}
	t.once.Do(func() {
		j := t.j
		j.tapMu.Lock()
		for i, o := range j.taps {
			if o == t {
				j.taps = append(j.taps[:i], j.taps[i+1:]...)
				break
			}
		}
		if len(j.taps) == 0 {
			j.tapsOn.Store(false)
		}
		j.tapMu.Unlock()
		close(t.ch)
	})
}

// deliverTaps offers r to every subscribed tap without blocking. Called
// from Add after the ring append; the read lock excludes Close so a send
// never races the channel close.
func (j *Journal) deliverTaps(r Record) {
	j.tapMu.RLock()
	for _, t := range j.taps {
		select {
		case t.ch <- r:
		default:
			t.dropped.Add(1)
		}
	}
	j.tapMu.RUnlock()
}
