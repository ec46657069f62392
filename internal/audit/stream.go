package audit

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"padres/internal/journal"
)

// This file is the online half of the auditor: audit.Stream ingests journal
// tails from one or more sources (an in-process tap, or /journal/stream
// feeds from a fleet of brokers) and verifies the same five properties the
// batch Audit checks — while the system runs, with memory bounded by
// in-flight work rather than run length.
//
// The design exploits the fact that every batch check is order-independent
// given per-source delivery order: phase precedence compares the Lamport
// stamps of first occurrences, delivery and atomicity are count-based, and
// convergence replays per-site tables whose mutations arrive in site order
// within any one source. A global causal merge is therefore unnecessary;
// per-source watermarks (the highest Lamport stamp ingested from each
// source, merged by minimum) only decide *settlement*: once the merged
// watermark has moved SettleHorizon ticks past a transaction's or
// publication's last event, every record that could still change its
// verdict has been seen, so a clean entry is evicted and a dirty one is
// reported. Violating state is pinned until Finalize, which runs the exact
// end-of-run checks and returns a batch-compatible Report.
//
// Loss is first-class: when a source reports dropped records (a tap buffer
// overflow, or a resume gap across a ring overwrite) the affected Lamport
// interval is degraded to LOSSY — absence-based findings (a missing queue
// record, a never-resolved transaction, a missing cleanup remove) are
// suppressed for entities overlapping the interval, while presence-based
// violations (duplicate delivery, double resolution) are still reported.

// CheckStatus is the live verdict of one invariant check.
type CheckStatus string

const (
	// StatusClean means no violation detected and no loss hides one.
	StatusClean CheckStatus = "CLEAN"
	// StatusLossy means no violation detected, but journal loss overlaps
	// the check's evidence so absence-based findings were suppressed.
	StatusLossy CheckStatus = "LOSSY"
	// StatusViolated means at least one confirmed violation.
	StatusViolated CheckStatus = "VIOLATED"
)

// StreamChecks lists the five invariant checks in display order.
var StreamChecks = []string{"delivery", "phase-order", "convergence", "atomicity", "replication"}

// DefaultSettleHorizon is how many Lamport ticks the merged watermark must
// pass an entity's last event before the entity is finalized. It absorbs
// the bounded stamp skew between sites multiplexed onto one source.
const DefaultSettleHorizon = 4096

// StreamOptions configures a streaming auditor.
type StreamOptions struct {
	// SettleHorizon overrides DefaultSettleHorizon (<= 0 keeps the default).
	SettleHorizon uint64
	// OnViolation, when set, is called the first time each violation is
	// detected — during ingest for presence-based violations, at watermark
	// settlement or Finalize otherwise. Called with the stream lock held;
	// keep it fast and do not call back into the Stream.
	OnViolation func(Violation)
}

// LossyInterval records journal loss reported by one source: records with
// stamps at or below UpTo may be missing. Missing is 0 when unknown.
type LossyInterval struct {
	Source  string `json:"source"`
	UpTo    uint64 `json:"up_to"`
	Missing uint64 `json:"missing,omitempty"`
}

// CheckVerdict is the live state of one invariant check.
type CheckVerdict struct {
	Check      string      `json:"check"`
	Status     CheckStatus `json:"status"`
	Violations int         `json:"violations"`
}

// SourceStatus describes one feed.
type SourceStatus struct {
	Name      string `json:"name"`
	Watermark uint64 `json:"watermark"`
	Records   int    `json:"records"`
	Dropped   uint64 `json:"dropped,omitempty"`
	Down      bool   `json:"down,omitempty"`
}

// InFlightTx is one unresolved movement transaction, for live display.
type InFlightTx struct {
	Tx      string `json:"tx"`
	Client  string `json:"client,omitempty"`
	Phase   string `json:"phase"`
	Lamport uint64 `json:"lamport"` // stamp of the newest step observed
}

// StreamStatus is a point-in-time view of the live audit.
type StreamStatus struct {
	Records      int             `json:"records"`
	Watermark    uint64          `json:"watermark"`
	MaxLamport   uint64          `json:"max_lamport"`
	Checks       []CheckVerdict  `json:"checks"`
	InFlightTxs  int             `json:"in_flight_txs"`
	PendingPubs  int             `json:"pending_pubs"`
	StateEntries int             `json:"state_entries"`
	Settled      int             `json:"settled"`
	Lossy        bool            `json:"lossy,omitempty"`
	Intervals    []LossyInterval `json:"lossy_intervals,omitempty"`
	Sources      []SourceStatus  `json:"sources"`
	InFlight     []InFlightTx    `json:"in_flight,omitempty"`
	Violations   []Violation     `json:"violations,omitempty"`
}

// Clean reports whether every check is CLEAN.
func (st StreamStatus) Clean() bool {
	for _, c := range st.Checks {
		if c.Status != StatusClean {
			return false
		}
	}
	return true
}

// WatermarkLag is how far the merged watermark trails the newest stamp.
func (st StreamStatus) WatermarkLag() uint64 {
	if st.MaxLamport < st.Watermark {
		return 0
	}
	return st.MaxLamport - st.Watermark
}

// streamSource is one feed's bookkeeping.
type streamSource struct {
	name      string
	watermark uint64
	records   int
	dropped   uint64
	down      bool
}

// pubKey identifies one (subscriber, publication) delivery obligation.
type pubKey struct{ client, pub string }

// pubState tracks one publication's delivery evidence.
type pubState struct {
	evidence   journal.Record // first stub evidence (deliver/buffer), zero if none
	hasEv      bool
	queued     int
	last       cursor
	dupFlagged bool
}

// netKey addresses one routing net counter of a transaction.
type netKey struct {
	site   string
	table  string
	base   string
	client string
}

// streamTx tracks one movement transaction.
type streamTx struct {
	id        string
	client    string
	hasProto  bool
	firstKind map[string]journal.Record // kind -> first-occurrence step
	sites     map[string]bool           // sites of protocol steps
	committed bool
	aborted   bool
	first     cursor // first protocol step observed
	last      cursor // newest record (protocol or tagged routing)
	lastKind  string // newest protocol step, for display
	lastStamp uint64
	net       map[netKey]int
	cause     journal.Record // first reject/abort/timeout step, zero if none
	hasCause  bool
	doubleRes bool          // both committed and aborted (flagged once)
	takeovers []repTakeover // parsed standby-takeover records
}

// siteKey identifies a client's state machine at one site.
type siteKey struct{ client, site string }

// tombstone remembers a settled entity so stragglers do not resurrect it.
type tombstone struct{ at uint64 }

// streamRun is the per-deployment state.
type streamRun struct {
	run      int64
	config   string
	records  int
	txs      map[string]*streamTx
	pubs     map[pubKey]*pubState
	txTombs  map[string]tombstone
	pubTombs map[pubKey]tombstone
	// crash bookkeeping: last crash/restart per site, by stream order.
	crashAt          map[string]cursor
	restartAt        map[string]cursor
	crashedTxSettled map[string]bool // settled txs that touched a crashed site
	// resume evidence: newest "->started" stamp per (client, site).
	started       map[siteKey]uint64
	cs            *convergenceState
	delivered     int
	settledTx     int
	settledCommit int
	settledAbort  int
	settledPubs   int
}

func newStreamRun(run int64) *streamRun {
	return &streamRun{
		run:              run,
		txs:              make(map[string]*streamTx),
		pubs:             make(map[pubKey]*pubState),
		txTombs:          make(map[string]tombstone),
		pubTombs:         make(map[pubKey]tombstone),
		crashAt:          make(map[string]cursor),
		restartAt:        make(map[string]cursor),
		crashedTxSettled: make(map[string]bool),
		started:          make(map[siteKey]uint64),
		cs:               newConvergenceState(),
	}
}

// Stream is the online auditor. All methods are safe for concurrent use.
type Stream struct {
	mu      sync.Mutex
	opts    StreamOptions
	sources map[string]*streamSource
	runs    map[int64]*streamRun
	runIDs  []int64

	records    int
	watermark  uint64
	maxLamport uint64

	lossyBelow uint64
	intervals  []LossyInterval

	fired map[string]bool // violations already handed to OnViolation
	// confirmed violations surfaced so far (pinned entities re-derive theirs
	// live; this holds only eviction-time emissions — currently none, kept
	// for symmetry with Finalize's authoritative pass).
	sinceSettle      int
	settledEvictions int

	finalized *Report
}

// NewStream returns an online auditor.
func NewStream(opts StreamOptions) *Stream {
	if opts.SettleHorizon == 0 {
		opts.SettleHorizon = DefaultSettleHorizon
	}
	return &Stream{
		opts:    opts,
		sources: make(map[string]*streamSource),
		runs:    make(map[int64]*streamRun),
		fired:   make(map[string]bool),
	}
}

// settleEvery bounds how often the settlement sweep runs: at most once per
// this many ingested records (and only when the watermark advanced).
const settleEvery = 256

func (s *Stream) source(name string) *streamSource {
	src := s.sources[name]
	if src == nil {
		src = &streamSource{name: name}
		s.sources[name] = src
	}
	return src
}

func (s *Stream) runFor(run int64) *streamRun {
	rs := s.runs[run]
	if rs == nil {
		rs = newStreamRun(run)
		s.runs[run] = rs
		s.runIDs = append(s.runIDs, run)
		sort.Slice(s.runIDs, func(i, j int) bool { return s.runIDs[i] < s.runIDs[j] })
	}
	return rs
}

// Ingest feeds records from one source. Records from one source must
// arrive in that source's emission order (a journal tap or /journal/stream
// tail provides this); sources may interleave arbitrarily.
func (s *Stream) Ingest(source string, recs ...journal.Record) {
	if len(recs) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	src := s.source(source)
	src.down = false
	for _, r := range recs {
		if r.Kind == journal.KindTailLoss {
			s.noteLoss(src, r.Lamport, parseMissing(r.Detail))
			continue
		}
		src.records++
		if r.Lamport > src.watermark {
			src.watermark = r.Lamport
		}
		if r.Lamport > s.maxLamport {
			s.maxLamport = r.Lamport
		}
		s.records++
		s.process(r)
	}
	s.advance()
}

// NoteDropped reports a source's cumulative drop counter (tap.Dropped or a
// remote broker's journal drop total). An increase degrades the verdict:
// records with stamps at or below the source's watermark may be missing.
func (s *Stream) NoteDropped(source string, total uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	src := s.source(source)
	if total > src.dropped {
		s.noteLoss(src, src.watermark, total-src.dropped)
		src.dropped = total
	}
}

// SetSourceDown marks a source disconnected (true) or reconnected (false).
// Down sources are excluded from the merged watermark so a dead broker
// does not stall settlement forever.
func (s *Stream) SetSourceDown(source string, down bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.source(source).down = down
	s.advance()
}

func (s *Stream) noteLoss(src *streamSource, upTo, missing uint64) {
	s.intervals = append(s.intervals, LossyInterval{Source: src.name, UpTo: upTo, Missing: missing})
	if upTo > s.lossyBelow {
		s.lossyBelow = upTo
	}
	if upTo == 0 {
		// Loss before any stamp was observed: poison everything so far.
		if s.maxLamport > s.lossyBelow {
			s.lossyBelow = s.maxLamport
		}
		if s.lossyBelow == 0 {
			s.lossyBelow = 1
		}
	}
}

func parseMissing(detail string) uint64 {
	const p = "missing="
	if i := strings.Index(detail, p); i >= 0 {
		if n, err := strconv.ParseUint(detail[i+len(p):], 10, 64); err == nil {
			return n
		}
	}
	return 0
}

// process folds one record into the run state. Called with s.mu held.
func (s *Stream) process(r journal.Record) {
	rs := s.runFor(r.Run)
	rs.records++
	s.sinceSettle++
	c := cursorOf(r)

	switch r.Kind {
	case journal.KindRunConfig:
		if rs.config == "" {
			rs.config = r.Detail
		}
		return
	case journal.KindBrokerCrash:
		if rs.crashAt[r.Site].less(c) {
			rs.crashAt[r.Site] = c
		}
		return
	case journal.KindBrokerRestart:
		if rs.restartAt[r.Site].less(c) {
			rs.restartAt[r.Site] = c
		}
		return
	case journal.KindClientState:
		if strings.HasSuffix(r.Detail, "->started") {
			k := siteKey{r.Client, r.Site}
			if r.Lamport > rs.started[k] {
				rs.started[k] = r.Lamport
			}
		}
		return
	case journal.KindDeliver, journal.KindClientBuffer, journal.KindShellBuffer:
		k := pubKey{r.Client, r.Ref}
		if _, dead := rs.pubTombs[k]; dead {
			return
		}
		p := rs.pub(k)
		// Keep the earliest evidence: batch reports the first kind/site.
		if !p.hasEv || c.less(cursorOf(p.evidence)) {
			p.evidence, p.hasEv = r, true
		}
		if p.last.less(c) {
			p.last = c
		}
		return
	case journal.KindClientDeliver:
		rs.delivered++
		k := pubKey{r.Client, r.Ref}
		if _, dead := rs.pubTombs[k]; dead {
			return
		}
		p := rs.pub(k)
		p.queued++
		if p.last.less(c) {
			p.last = c
		}
		if p.queued > 1 && !p.dupFlagged {
			p.dupFlagged = true
			s.fire(Violation{
				Run: r.Run, Check: "delivery", Client: k.client, Ref: k.pub,
				Detail: fmt.Sprintf("publication entered the application queue %d times", p.queued),
			})
		}
		return
	case journal.KindSRTInsert, journal.KindSRTRemove, journal.KindPRTInsert, journal.KindPRTRemove:
		rs.cs.apply(r)
		if r.Tx != "" {
			if _, dead := rs.txTombs[r.Tx]; !dead {
				tx := rs.tx(r.Tx)
				table := "srt"
				if r.Kind == journal.KindPRTInsert || r.Kind == journal.KindPRTRemove {
					table = "prt"
				}
				d := 1
				if r.Kind == journal.KindSRTRemove || r.Kind == journal.KindPRTRemove {
					d = -1
				}
				nk := netKey{r.Site, table, baseID(r.Ref), r.Client}
				if tx.net == nil {
					tx.net = make(map[netKey]int)
				}
				if tx.net[nk] += d; tx.net[nk] == 0 {
					delete(tx.net, nk)
				}
				if tx.last.less(c) {
					tx.last = c
				}
			}
		}
		return
	case journal.KindClientAttach, journal.KindClientArrive:
		rs.cs.apply(r)
		return
	}

	if r.Cat == journal.CatProtocol && r.Tx != "" {
		if _, dead := rs.txTombs[r.Tx]; dead {
			return
		}
		tx := rs.tx(r.Tx)
		tx.hasProto = true
		if tx.client == "" {
			tx.client = r.Client
		}
		if tx.sites == nil {
			tx.sites = make(map[string]bool)
		}
		tx.sites[r.Site] = true
		if tx.first.zero() || c.less(tx.first) {
			tx.first = c
		}
		if tx.last.less(c) {
			tx.last = c
			tx.lastKind, tx.lastStamp = r.Kind, r.Lamport
		}
		if tx.firstKind == nil {
			tx.firstKind = make(map[string]journal.Record)
		}
		if cur, ok := tx.firstKind[r.Kind]; !ok || c.less(cursorOf(cur)) {
			tx.firstKind[r.Kind] = r
		}
		switch r.Kind {
		case "committed":
			tx.committed = true
		case "aborted":
			tx.aborted = true
		case "standby-takeover":
			tx.takeovers = append(tx.takeovers, parseTakeover(r))
		case "reject-received", "abort-received", "source-timeout":
			if !tx.hasCause || c.less(cursorOf(tx.cause)) {
				tx.cause, tx.hasCause = r, true
			}
		}
		if tx.committed && tx.aborted && !tx.doubleRes {
			tx.doubleRes = true
			s.fire(Violation{
				Run: r.Run, Check: "phase-order", Tx: tx.id, Client: tx.client,
				Detail: "transaction both committed and aborted",
			})
		}
	}
}

func (rs *streamRun) pub(k pubKey) *pubState {
	p := rs.pubs[k]
	if p == nil {
		p = &pubState{}
		rs.pubs[k] = p
	}
	return p
}

func (rs *streamRun) tx(id string) *streamTx {
	tx := rs.txs[id]
	if tx == nil {
		tx = &streamTx{id: id}
		rs.txs[id] = tx
	}
	return tx
}

// crashed returns the set of sites with a journaled crash, and the subset
// never restarted afterwards (by stream-cursor order, matching the batch
// auditor's causal scan).
func (rs *streamRun) crashSets() (crashed, stillDown map[string]bool) {
	crashed = make(map[string]bool, len(rs.crashAt))
	stillDown = make(map[string]bool)
	for site, at := range rs.crashAt {
		crashed[site] = true
		if rs.restartAt[site].less(at) || rs.restartAt[site].zero() {
			stillDown[site] = true
		}
	}
	return crashed, stillDown
}

func (tx *streamTx) touches(sites map[string]bool) bool {
	for s := range tx.sites {
		if sites[s] {
			return true
		}
	}
	return false
}

// fire hands a newly detected violation to OnViolation exactly once.
func (s *Stream) fire(v Violation) {
	key := v.String()
	if s.fired[key] {
		return
	}
	s.fired[key] = true
	if s.opts.OnViolation != nil {
		s.opts.OnViolation(v)
	}
}

// advance recomputes the merged watermark and runs the settlement sweep
// when it moved far enough. Called with s.mu held.
func (s *Stream) advance() {
	wm := uint64(0)
	first := true
	for _, src := range s.sources {
		// A source whose records have never carried a stamp — the journal's
		// own run-config records, demultiplexed as site "journal" — says
		// nothing about causal progress; counted, it would pin the merged
		// watermark at 0 whenever it was ingested. One that has delivered
		// nothing yet still holds the watermark: its backlog may be old.
		if src.down || (src.records > 0 && src.watermark == 0) {
			continue
		}
		if first || src.watermark < wm {
			wm, first = src.watermark, false
		}
	}
	if first { // all sources down or unstamped: freeze
		return
	}
	advanced := wm > s.watermark
	if advanced {
		s.watermark = wm
	}
	if advanced && s.sinceSettle >= settleEvery {
		s.sinceSettle = 0
		s.settle()
	}
}

// settle evicts every entity whose horizon has passed and whose verdict is
// clean; dirty entities stay pinned (their violations fire once here) so
// Finalize can report them with full context. Called with s.mu held.
func (s *Stream) settle() {
	h := s.opts.SettleHorizon
	wm := s.watermark
	for _, rs := range s.runs {
		crashed, _ := rs.crashSets()
		for id, tx := range rs.txs {
			if !tx.hasProto || wm <= tx.last.lamport+h {
				continue
			}
			crashTx := tx.touches(crashed)
			vs := s.txViolations(rs, tx, crashed, crashTx)
			if len(vs) > 0 {
				for _, v := range vs {
					s.fire(v)
				}
				continue // pinned until Finalize
			}
			if !tx.committed && !tx.aborted {
				continue // unresolved: hold (crash-interrupted resolves at Finalize)
			}
			if rs.cs.liveShadows(id) {
				continue // prepared configuration still live somewhere
			}
			// Clean and out of the horizon: settle.
			rs.settledTx++
			if tx.committed {
				rs.settledCommit++
			} else {
				rs.settledAbort++
			}
			if crashTx {
				rs.crashedTxSettled[id] = true
			}
			rs.txTombs[id] = tombstone{at: wm}
			rs.cs.dropTx(id, tx.client)
			delete(rs.txs, id)
			s.settledEvictions++
		}
		for k, p := range rs.pubs {
			if wm <= p.last.lamport+h {
				continue
			}
			if vs := s.pubViolations(rs, k, p, crashed); len(vs) > 0 {
				for _, v := range vs {
					s.fire(v)
				}
				continue
			}
			if p.queued == 0 {
				continue // evidence without a queue entry: hold for the record or the crash excuse
			}
			rs.settledPubs++
			rs.pubTombs[k] = tombstone{at: wm}
			delete(rs.pubs, k)
			s.settledEvictions++
		}
		// Sweep expired tombstones: stragglers this old no longer arrive.
		for id, t := range rs.txTombs {
			if wm > t.at+h {
				delete(rs.txTombs, id)
			}
		}
		for k, t := range rs.pubTombs {
			if wm > t.at+h {
				delete(rs.pubTombs, k)
			}
		}
	}
}

// suppressed reports whether an absence-based finding for an entity whose
// evidence begins at first must be degraded to LOSSY instead of reported.
func (s *Stream) suppressed(first uint64) bool {
	return s.lossyBelow > 0 && first <= s.lossyBelow
}

// txViolations derives the current phase-order and atomicity violations of
// one transaction, mirroring checkPhaseOrder/checkAtomicity. Callers gate
// on the watermark horizon before evaluating, so absence-based findings
// are as definitive as they get short of Finalize. Loss suppression
// degrades absence-based findings for entities overlapping a lossy
// interval.
func (s *Stream) txViolations(rs *streamRun, tx *streamTx, crashed map[string]bool, crashTx bool) []Violation {
	var out []Violation
	addPhase := func(detail string) {
		out = append(out, Violation{Run: rs.run, Check: "phase-order", Tx: tx.id, Client: tx.client, Detail: detail})
	}
	lossHidden := s.suppressed(tx.first.lamport)
	blocking := strings.Contains(rs.config, "timeout=0s")

	if tx.committed && tx.aborted {
		addPhase("transaction both committed and aborted")
	}
	if !tx.committed && !tx.aborted && !crashTx && !lossHidden {
		addPhase("transaction never resolved (no committed or aborted step)")
	}
	first := func(kind string) (journal.Record, bool) {
		r, ok := tx.firstKind[kind]
		return r, ok
	}
	for _, pair := range phasePrecedence {
		a, okA := first(pair[0])
		b, okB := first(pair[1])
		if !okA || !okB {
			continue
		}
		if cursorOf(b).less(cursorOf(a)) {
			addPhase(fmt.Sprintf("%s observed before %s (lamport %d vs %d)",
				pair[1], pair[0], b.Lamport, a.Lamport))
		}
	}
	if tx.committed && !lossHidden {
		if _, ok := first("ack-received"); !ok {
			addPhase("committed without receiving acknowledgement (message 5)")
		}
	}
	if tx.aborted && !tx.committed && !lossHidden {
		_, r1 := first("reject-received")
		_, r2 := first("abort-received")
		_, r3 := first("source-timeout")
		_, r4 := first("abort-sent")
		if !r1 && !r2 && !r3 && !r4 {
			addPhase("aborted without a rejection, abort, or timeout cause")
		}
	}
	if blocking {
		for _, k := range []string{"source-timeout", "target-timeout"} {
			if _, ok := first(k); ok {
				addPhase("blocking engine recorded a " + k)
			}
		}
	}

	// Atomicity: only aborted transactions must roll back.
	if tx.aborted && !tx.committed {
		if !crashTx && !lossHidden {
			for k, n := range tx.net {
				if n == 0 || crashed[k.site] || k.client != tx.client {
					continue
				}
				verb := "left behind"
				if n < 0 {
					verb = "destroyed"
				}
				out = append(out, Violation{
					Run: rs.run, Check: "atomicity", Tx: tx.id, Client: tx.client, Site: k.site, Ref: k.base,
					Detail: fmt.Sprintf("aborted transaction %s %s state in the %s (insert-remove net %+d)",
						verb, k.base, strings.ToUpper(k.table), n),
				})
			}
		}
		if tx.hasCause && !crashed[tx.cause.Site] && !lossHidden {
			if rs.started[siteKey{tx.client, tx.cause.Site}] <= tx.cause.Lamport {
				out = append(out, Violation{
					Run: rs.run, Check: "atomicity", Tx: tx.id, Client: tx.client,
					Detail: "client did not return to the started state after the abort",
				})
			}
		}
	}

	// Replication safety is presence-based — every finding compares records
	// that exist — so neither journal loss nor a crash excuses it. The shared
	// derivation keeps the stream's findings identical to checkReplication's.
	out = append(out, replicationViolations(rs.run, tx.id, tx.client, tx.takeovers, tx.committed, tx.aborted)...)
	return out
}

// pubViolations derives the delivery violations of one publication,
// mirroring checkDelivery.
func (s *Stream) pubViolations(rs *streamRun, k pubKey, p *pubState, crashed map[string]bool) []Violation {
	var out []Violation
	if p.queued > 1 {
		out = append(out, Violation{
			Run: rs.run, Check: "delivery", Client: k.client, Ref: k.pub,
			Detail: fmt.Sprintf("publication entered the application queue %d times", p.queued),
		})
	}
	if p.hasEv && p.queued == 0 && !crashed[p.evidence.Site] && !s.suppressed(p.last.lamport) {
		out = append(out, Violation{
			Run: rs.run, Check: "delivery", Client: k.client, Ref: k.pub,
			Detail: fmt.Sprintf("publication reached the stub (%s) but never entered the application queue", p.evidence.Kind),
		})
	}
	return out
}

// Status returns a point-in-time view: per-check verdicts, watermark
// position, in-flight entities, and state size.
func (s *Stream) Status() StreamStatus {
	s.mu.Lock()
	defer s.mu.Unlock()

	st := StreamStatus{
		Records:    s.records,
		Watermark:  s.watermark,
		MaxLamport: s.maxLamport,
		Lossy:      s.lossyBelow > 0,
		Intervals:  append([]LossyInterval(nil), s.intervals...),
		Settled:    s.settledEvictions,
	}
	for _, name := range sortedSourceNames(s.sources) {
		src := s.sources[name]
		st.Sources = append(st.Sources, SourceStatus{
			Name: src.name, Watermark: src.watermark, Records: src.records,
			Dropped: src.dropped, Down: src.down,
		})
	}

	counts := make(map[string]int)
	h := s.opts.SettleHorizon
	var inflight []InFlightTx
	for _, runID := range s.runIDs {
		rs := s.runs[runID]
		crashed, stillDown := rs.crashSets()
		st.StateEntries += len(rs.txs) + len(rs.pubs) + len(rs.txTombs) + len(rs.pubTombs) + rs.cs.entries()
		st.PendingPubs += len(rs.pubs)
		anyUnresolved := false
		for _, tx := range rs.txs {
			if !tx.hasProto {
				continue
			}
			st.InFlightTxs++
			if !tx.committed && !tx.aborted {
				anyUnresolved = true
				inflight = append(inflight, InFlightTx{
					Tx: tx.id, Client: tx.client, Phase: tx.lastKind, Lamport: tx.lastStamp,
				})
			}
			if s.watermark <= tx.last.lamport+h {
				// Inside the horizon: only presence-based findings count.
				if tx.doubleRes {
					counts["phase-order"]++
					st.Violations = append(st.Violations, Violation{
						Run: rs.run, Check: "phase-order", Tx: tx.id, Client: tx.client,
						Detail: "transaction both committed and aborted",
					})
				}
				continue
			}
			crashTx := tx.touches(crashed)
			for _, v := range s.txViolations(rs, tx, crashed, crashTx) {
				counts[v.Check]++
				st.Violations = append(st.Violations, v)
			}
		}
		for k, p := range rs.pubs {
			if s.watermark <= p.last.lamport+h {
				if p.queued > 1 {
					counts["delivery"]++
					st.Violations = append(st.Violations, Violation{
						Run: rs.run, Check: "delivery", Client: k.client, Ref: k.pub,
						Detail: fmt.Sprintf("publication entered the application queue %d times", p.queued),
					})
				}
				continue
			}
			for _, v := range s.pubViolations(rs, k, p, crashed) {
				counts[v.Check]++
				st.Violations = append(st.Violations, v)
			}
		}
		// Convergence is a quiescent property: inspect only once every
		// transaction resolved and the tables stopped moving.
		if !anyUnresolved && s.watermark > rs.cs.lastMut.lamport+h {
			if s.lossyBelow > 0 {
				// absence-based: LOSSY, not violated
			} else {
				crashedTx := s.crashedTxSet(rs, crashed)
				for _, v := range rs.cs.violations(rs.run, crashed, stillDown, crashedTx) {
					counts["convergence"]++
					st.Violations = append(st.Violations, v)
				}
			}
		}
	}
	sort.Slice(inflight, func(i, j int) bool { return inflight[i].Lamport > inflight[j].Lamport })
	if len(inflight) > 16 {
		inflight = inflight[:16]
	}
	st.InFlight = inflight
	sortViolations(st.Violations)
	if len(st.Violations) > 64 {
		st.Violations = st.Violations[:64]
	}

	for _, check := range StreamChecks {
		v := CheckVerdict{Check: check, Status: StatusClean, Violations: counts[check]}
		switch {
		case counts[check] > 0:
			v.Status = StatusViolated
		case s.lossyBelow > 0:
			v.Status = StatusLossy
		}
		st.Checks = append(st.Checks, v)
	}
	return st
}

// crashedTxSet merges the in-flight and settled transactions that touched
// a crashed site. Called with s.mu held.
func (s *Stream) crashedTxSet(rs *streamRun, crashed map[string]bool) map[string]bool {
	out := make(map[string]bool, len(rs.crashedTxSettled))
	for id := range rs.crashedTxSettled {
		out[id] = true
	}
	for id, tx := range rs.txs {
		if tx.touches(crashed) {
			out[id] = true
		}
	}
	return out
}

// Finalize runs the end-of-run checks over everything still in flight and
// returns a batch-compatible Report. On a loss-free stream fed every
// record, the verdict and violation multiset equal batch Audit's. Further
// Ingest calls after Finalize are accepted but the returned report is
// computed once.
func (s *Stream) Finalize() *Report {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.finalized != nil {
		return s.finalized
	}
	rep := &Report{Records: s.records}
	for _, runID := range s.runIDs {
		rs := s.runs[runID]
		rr := RunReport{Run: rs.run, Config: rs.config, Records: rs.records}
		crashed, stillDown := rs.crashSets()
		for site := range crashed {
			rr.CrashedSites = append(rr.CrashedSites, site)
			if !stillDown[site] {
				rr.RestartedSites = append(rr.RestartedSites, site)
			}
		}
		sort.Strings(rr.CrashedSites)
		sort.Strings(rr.RestartedSites)

		crashedTx := s.crashedTxSet(rs, crashed)
		rr.Txs = rs.settledTx
		rr.Committed = rs.settledCommit
		rr.Aborted = rs.settledAbort
		for _, tx := range rs.txs {
			if !tx.hasProto {
				continue
			}
			rr.Txs++
			switch {
			case tx.committed:
				rr.Committed++
			case tx.aborted:
				rr.Aborted++
			case crashedTx[tx.id]:
				rr.CrashInterrupted++
			default:
				rr.Unresolved++
			}
			vs := s.txViolations(rs, tx, crashed, crashedTx[tx.id])
			for _, v := range vs {
				s.fire(v)
			}
			rr.Violations = append(rr.Violations, vs...)
		}
		rr.Delivered = rs.delivered
		for k, p := range rs.pubs {
			vs := s.pubViolations(rs, k, p, crashed)
			for _, v := range vs {
				s.fire(v)
			}
			rr.Violations = append(rr.Violations, vs...)
		}
		if s.lossyBelow == 0 {
			vs := rs.cs.violations(rs.run, crashed, stillDown, crashedTx)
			for _, v := range vs {
				s.fire(v)
			}
			rr.Violations = append(rr.Violations, vs...)
		}
		sortViolations(rr.Violations)
		rep.Runs = append(rep.Runs, rr)
	}
	s.finalized = rep
	return rep
}

func sortedSourceNames(m map[string]*streamSource) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
