// Package journal is the system's flight recorder: a low-overhead, bounded,
// causally-ordered event journal threaded through every layer. Each
// significant event — a link transmission, a broker dispatch, a routing
// table mutation, a 3PC protocol step, a client state transition or
// notification delivery — is stamped with the observing site's Lamport
// clock and appended to an in-memory ring, and optionally to a JSONL sink
// whose output the offline auditor (internal/audit) replays.
//
// Lamport stamps are propagated in the message codec (message.Envelope
// carries the sender's stamp over every link, in-process or TCP), so the
// journal's records are totally ordered by (Lamport, Seq) in a way that
// respects causality: every receive is ordered after the matching send,
// and every protocol step after the message that triggered it.
//
// The recorder is lock-minimal: per-site clocks are lock-free atomics, and
// the ring append is one short critical section with no allocation. A nil
// *Journal is a valid, disabled recorder; all methods are nil-safe so call
// sites do not need their own guards (hot paths still guard to avoid
// constructing records needlessly).
package journal

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Category groups record kinds by the layer that emitted them.
type Category string

// Record categories.
const (
	// CatMeta marks run boundaries and configuration records.
	CatMeta Category = "meta"
	// CatLink is a transport-level send or receive.
	CatLink Category = "link"
	// CatBroker is a broker-level event (inject, dispatch, deliver).
	CatBroker Category = "broker"
	// CatRouting is an SRT/PRT mutation.
	CatRouting Category = "routing"
	// CatProtocol is a movement-transaction (3PC) protocol step.
	CatProtocol Category = "protocol"
	// CatClient is a client stub event (state transition, delivery,
	// buffering, attach/arrive/depart).
	CatClient Category = "client"
	// CatFailure is an injected or observed failure event (broker crash,
	// freeze/thaw, link partition/heal, circuit-breaker transitions). The
	// auditor uses crash records to distinguish protocol violations from
	// the legal consequences of a dead coordinator.
	CatFailure Category = "failure"
)

// Record kinds, by category. Protocol-step records reuse the event names of
// internal/core (move-requested, negotiate-sent, ..., committed, aborted).
const (
	KindRunConfig = "run-config" // meta: one per deployment, Detail = config

	KindLinkSend = "link-send" // link: message left a site
	KindLinkRecv = "link-recv" // link: message arrived at a site

	KindInject   = "inject"   // broker: local injection into the inbox
	KindDispatch = "dispatch" // broker: message taken off the inbox queue
	KindDeliver  = "deliver"  // broker: publication handed to a local client

	KindSRTInsert = "srt-insert" // routing: advertisement record added
	KindSRTRemove = "srt-remove" // routing: advertisement record removed
	KindPRTInsert = "prt-insert" // routing: subscription record added
	KindPRTRemove = "prt-remove" // routing: subscription record removed

	KindClientState   = "client-state"   // client: Fig. 4 state transition
	KindClientAttach  = "client-attach"  // client: created at its home broker
	KindClientArrive  = "client-arrive"  // client: restarted at the target
	KindClientDepart  = "client-depart"  // client: source copy cleaned up
	KindClientDeliver = "client-deliver" // client: pub entered the app queue
	KindClientDup     = "client-dup"     // client: duplicate pub suppressed
	KindClientBuffer  = "client-buffer"  // client: pub buffered during a move
	KindShellBuffer   = "shell-buffer"   // client: pub buffered by the shell

	KindBrokerCrash   = "broker-crash"   // failure: crash-stop injected at Site
	KindBrokerFreeze  = "broker-freeze"  // failure: processing suspended at Site
	KindBrokerThaw    = "broker-thaw"    // failure: processing resumed at Site
	KindBrokerRestart = "broker-restart" // failure: broker replaced at Site
	KindLinkPartition = "link-partition" // failure: From-To link severed
	KindLinkHeal      = "link-heal"      // failure: From-To link restored
	KindLinkDown      = "link-down"      // failure: circuit breaker opened From->To
	KindLinkUp        = "link-up"        // failure: circuit breaker closed From->To
)

// Record is one journal entry. Sites, identifiers, and transactions are
// plain strings so the journal has no dependencies and serializes to stable
// JSONL.
type Record struct {
	// Seq is the journal-global append sequence (a tiebreaker within one
	// process; records from one site with equal Lamport stamps stay in
	// emission order).
	Seq uint64 `json:"seq"`
	// Run numbers the deployment this record belongs to; BeginRun bumps it.
	// Transaction and client identifiers are only unique within a run.
	Run int64 `json:"run"`
	// Lamport is the observing site's logical clock after the event.
	Lamport uint64 `json:"lamport"`
	// Wall is the observing process's wall-clock time.
	Wall time.Time `json:"wall"`
	// Site is the node that observed the event (broker or client node ID).
	Site string `json:"site"`
	// Cat and Kind classify the event.
	Cat  Category `json:"cat"`
	Kind string   `json:"kind"`
	// Tx is the movement transaction the event belongs to, if any.
	Tx string `json:"tx,omitempty"`
	// Client is the pub/sub client involved, if any.
	Client string `json:"client,omitempty"`
	// Ref identifies the message or routing record involved (a pub, sub,
	// or adv identifier).
	Ref string `json:"ref,omitempty"`
	// From and To are the endpoints of a transmission, or the routing
	// record's last hop (in To).
	From string `json:"from,omitempty"`
	To   string `json:"to,omitempty"`
	// Detail carries free-form context.
	Detail string `json:"detail,omitempty"`
}

// String renders the record for logs and timelines.
func (r Record) String() string {
	s := fmt.Sprintf("run=%d lam=%06d %-9s %-14s site=%s", r.Run, r.Lamport, r.Cat, r.Kind, r.Site)
	if r.Tx != "" {
		s += " tx=" + r.Tx
	}
	if r.Client != "" {
		s += " client=" + r.Client
	}
	if r.Ref != "" {
		s += " ref=" + r.Ref
	}
	if r.From != "" || r.To != "" {
		s += fmt.Sprintf(" %s->%s", r.From, r.To)
	}
	if r.Detail != "" {
		s += " (" + r.Detail + ")"
	}
	return s
}

// DefaultCapacity bounds the in-memory ring when New is given no capacity.
const DefaultCapacity = 1 << 18

// Journal is the flight recorder. A nil *Journal is valid and disabled.
type Journal struct {
	clocks sync.Map // site string -> *Clock
	seq    atomic.Uint64
	run    atomic.Int64
	wall   atomic.Int64 // cached wall clock (unix nanos) for ring-only stamps
	sinkOn atomic.Bool  // fast-path guard: skip sinkMu when no sink installed
	tapsOn atomic.Bool  // fast-path guard: skip tapMu when no tap subscribed

	tapMu sync.RWMutex
	taps  []*Tap

	mu      sync.Mutex
	ring    []Record
	next    int
	size    int
	dropped uint64

	sinkMu  sync.Mutex
	sink    *bufio.Writer
	sinkC   io.Closer
	sinkErr error

	// nowFn, when set, replaces time.Now for wall stamps so simulated runs
	// stamp records with virtual time (a prerequisite for byte-identical
	// replay). Nil means the real clock.
	nowFn atomic.Pointer[func() time.Time]
}

// New returns a journal whose ring holds up to capacity records (<= 0
// selects DefaultCapacity). The ring is preallocated so appends never
// allocate.
func New(capacity int) *Journal {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	j := &Journal{ring: make([]Record, capacity)}
	j.wall.Store(time.Now().UnixNano())
	return j
}

// SetNowFunc replaces the wall-clock source used to stamp records. The
// simulator points it at a virtual clock so that identical event orders
// produce byte-identical journals; passing nil restores the real clock.
func (j *Journal) SetNowFunc(fn func() time.Time) {
	if j == nil {
		return
	}
	if fn == nil {
		j.nowFn.Store(nil)
		return
	}
	j.nowFn.Store(&fn)
}

// Enabled reports whether the recorder is active (non-nil).
func (j *Journal) Enabled() bool { return j != nil }

// ClockOf returns the Lamport clock of a site, creating it on first use.
func (j *Journal) ClockOf(site string) *Clock {
	if j == nil {
		return nil
	}
	if c, ok := j.clocks.Load(site); ok {
		return c.(*Clock)
	}
	c, _ := j.clocks.LoadOrStore(site, new(Clock))
	return c.(*Clock)
}

// BeginRun marks the start of a new deployment within this journal: the run
// counter is bumped and a run-config meta record carrying detail is
// appended. Transaction, client, and message identifiers are scoped to a
// run; the auditor groups by run before checking anything.
func (j *Journal) BeginRun(detail string) int64 {
	if j == nil {
		return 0
	}
	run := j.run.Add(1)
	j.Add(Record{Run: run, Site: "journal", Cat: CatMeta, Kind: KindRunConfig, Detail: detail})
	return run
}

// Run returns the current run number.
func (j *Journal) Run() int64 {
	if j == nil {
		return 0
	}
	return j.run.Load()
}

// wallEvery is how many ring-only appends share one cached wall stamp.
// Causal order comes from the Lamport stamps; wall time only situates
// records in human time, so the ring fast path refreshes it periodically
// instead of reading the clock on every append.
const wallEvery = 64

// now returns the wall stamp for the seq-th append: precise whenever a
// JSONL sink is attached (its lines are read back externally), coarse —
// refreshed every wallEvery appends — in ring-only mode.
func (j *Journal) now(seq uint64) time.Time {
	if fn := j.nowFn.Load(); fn != nil {
		return (*fn)()
	}
	if j.sinkOn.Load() || seq&(wallEvery-1) == 0 {
		t := time.Now()
		j.wall.Store(t.UnixNano())
		return t
	}
	return time.Unix(0, j.wall.Load())
}

// Add appends one record, stamping its sequence number, run (when zero),
// and wall time (when zero). The ring overwrite discards the oldest record
// once full; Dropped counts the overwrites.
func (j *Journal) Add(r Record) {
	if j == nil {
		return
	}
	// Seq is drawn under the ring lock: drawn before it, two appenders could
	// take their slots in the opposite order and Snapshot would not be
	// Seq-ordered.
	j.mu.Lock()
	r.Seq = j.seq.Add(1)
	if r.Run == 0 {
		r.Run = j.run.Load()
	}
	if r.Wall.IsZero() {
		r.Wall = j.now(r.Seq)
	}
	if j.size == len(j.ring) {
		j.dropped++
	} else {
		j.size++
	}
	j.ring[j.next] = r
	j.next++
	if j.next == len(j.ring) {
		j.next = 0
	}
	j.mu.Unlock()

	if j.tapsOn.Load() {
		j.deliverTaps(r)
	}

	if !j.sinkOn.Load() {
		return
	}
	j.sinkMu.Lock()
	if j.sink != nil && j.sinkErr == nil {
		data, err := json.Marshal(r)
		if err == nil {
			if _, err = j.sink.Write(data); err == nil {
				err = j.sink.WriteByte('\n')
			}
		}
		j.sinkErr = err
	}
	j.sinkMu.Unlock()
}

// Len returns the number of records currently held by the ring.
func (j *Journal) Len() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.size
}

// Cap returns the ring capacity.
func (j *Journal) Cap() int {
	if j == nil {
		return 0
	}
	return len(j.ring)
}

// Dropped returns how many records the ring overwrote. A JSONL sink, if
// installed, still holds every record.
func (j *Journal) Dropped() uint64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.dropped
}

// Snapshot returns the ring's records, oldest first.
func (j *Journal) Snapshot() []Record {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]Record, 0, j.size)
	start := j.next - j.size
	if start < 0 {
		start += len(j.ring)
	}
	for i := 0; i < j.size; i++ {
		out = append(out, j.ring[(start+i)%len(j.ring)])
	}
	return out
}

// SinkTo opens (truncating) a JSONL file that every subsequent record is
// appended to. Close the sink with CloseSink before reading the file back.
func (j *Journal) SinkTo(path string) error {
	if j == nil {
		return fmt.Errorf("journal is disabled")
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("journal sink: %w", err)
	}
	j.sinkMu.Lock()
	j.sink = bufio.NewWriterSize(f, 1<<16)
	j.sinkC = f
	j.sinkErr = nil
	j.sinkOn.Store(true)
	j.sinkMu.Unlock()
	return nil
}

// SinkWriter installs an arbitrary writer as the JSONL sink (for tests and
// in-memory captures). The caller keeps ownership of w.
func (j *Journal) SinkWriter(w io.Writer) {
	if j == nil {
		return
	}
	j.sinkMu.Lock()
	j.sink = bufio.NewWriterSize(w, 1<<16)
	j.sinkC = nil
	j.sinkErr = nil
	j.sinkOn.Store(true)
	j.sinkMu.Unlock()
}

// CloseSink flushes and closes the JSONL sink, reporting any write error
// encountered since it was installed.
func (j *Journal) CloseSink() error {
	if j == nil {
		return nil
	}
	j.sinkMu.Lock()
	defer j.sinkMu.Unlock()
	j.sinkOn.Store(false)
	if j.sink == nil {
		return nil
	}
	err := j.sinkErr
	if e := j.sink.Flush(); err == nil {
		err = e
	}
	if j.sinkC != nil {
		if e := j.sinkC.Close(); err == nil {
			err = e
		}
	}
	j.sink = nil
	j.sinkC = nil
	j.sinkErr = nil
	return err
}
