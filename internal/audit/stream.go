package audit

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"padres/internal/journal"
)

// This file is the auditor: audit.Stream ingests journal tails from one or
// more sources (an in-process tap, /journal/stream feeds from a fleet of
// brokers, or a recorded journal handed over by Audit) and verifies the
// five properties while the system runs, with memory bounded by in-flight
// work rather than run length.
//
// The design exploits the fact that every check is order-independent given
// per-source delivery order: phase precedence compares the Lamport
// stamps of first occurrences, delivery and atomicity are count-based, and
// convergence replays per-site tables whose mutations arrive in site order
// within any one source. A global causal merge is therefore unnecessary;
// per-source watermarks (the highest Lamport stamp ingested from each
// source, merged by minimum) only decide *settlement*: once the merged
// watermark has moved SettleHorizon ticks past a transaction's or
// publication's last event, every record that could still change its
// verdict has been seen, so a clean entry is evicted and a dirty one is
// reported. Violating state is pinned until Finalize, which evaluates
// everything still held and returns the Report.
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

// streamRun is the per-deployment state.
type streamRun struct {
	run     int64
	config  string
	records int
	txs     map[string]*streamTx
	pubs    map[pubKey]*pubState
	// Tombstones remember settled entities, by the watermark they settled
	// at, so stragglers do not resurrect them.
	txTombs  map[string]uint64
	pubTombs map[pubKey]uint64
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
}

func newStreamRun(run int64) *streamRun {
	return &streamRun{
		run:              run,
		txs:              make(map[string]*streamTx),
		pubs:             make(map[pubKey]*pubState),
		txTombs:          make(map[string]uint64),
		pubTombs:         make(map[pubKey]uint64),
		crashAt:          make(map[string]cursor),
		restartAt:        make(map[string]cursor),
		crashedTxSettled: make(map[string]bool),
		started:          make(map[siteKey]uint64),
		cs:               newConvergenceState(),
	}
}

// Stream is the auditor. All methods are safe for concurrent use.
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

	fired            map[string]bool // violations already handed to OnViolation
	sinceSettle      int             // records ingested since the last settlement sweep
	settledEvictions int

	finalized *Report
}

// NewStream returns an auditor with no sources yet.
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
			missing, _ := strconv.ParseUint(detailField(r.Detail, "missing"), 10, 64)
			s.noteLoss(src, r.Lamport, missing)
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
		// Keep the earliest evidence: the report names the first kind/site.
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
			s.fire(duplicateDelivery(r.Run, k, p.queued))
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
		tx.sites[r.Site] = true
		if tx.first.zero() || c.less(tx.first) {
			tx.first = c
		}
		if tx.last.less(c) {
			tx.last = c
			tx.lastKind, tx.lastStamp = r.Kind, r.Lamport
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
			s.fire(doubleResolution(r.Run, tx))
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
		tx = &streamTx{
			id:        id,
			firstKind: make(map[string]journal.Record),
			sites:     make(map[string]bool),
			net:       make(map[netKey]int),
		}
		rs.txs[id] = tx
	}
	return tx
}

// crashSets returns the sites with a journaled crash, and the subset never
// restarted afterwards (by cursor order: a restart clears earlier crashes).
//
// A crash excuses the legal consequences the paper's failure model allows —
// unresolved transactions whose coordinator died, routing state stranded at
// the dead site, deliveries the dead container never completed — but never
// the safety core: duplicate delivery and double resolution stay violations
// no matter what crashed. A restart narrows the excuse: the replacement
// broker recovered its routing state from its durable store, so its tables
// must converge like any live site's — stillDown is what gates the
// convergence inspection. Container-level consequences stay excused by
// crashed alone: protocol state and hosted clients are not durable, so an
// interrupted transaction may legally stay unresolved and a dead client
// copy is never resurrected, restart or not.
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

func (tx *streamTx) resolved() bool { return tx.committed || tx.aborted }

func (tx *streamTx) touches(sites map[string]bool) bool {
	for s := range tx.sites {
		if sites[s] {
			return true
		}
	}
	return false
}

// fire hands newly detected violations to OnViolation, each exactly once.
func (s *Stream) fire(vs ...Violation) {
	for _, v := range vs {
		key := v.String()
		if s.fired[key] {
			continue
		}
		s.fired[key] = true
		if s.opts.OnViolation != nil {
			s.opts.OnViolation(v)
		}
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

// ripe reports whether the merged watermark has moved the settle horizon
// past an entity's last event, so every record that could still change its
// verdict has been seen.
func (s *Stream) ripe(last cursor) bool {
	return s.watermark > last.lamport+s.opts.SettleHorizon
}

// txFindings returns the violations one transaction shows now. A verdict is
// definitive at the end of the run (final) or once the transaction is ripe;
// before that only the presence-based finding counts, because a record
// still in flight could cure every absence-based one.
func (s *Stream) txFindings(rs *streamRun, tx *streamTx, crashed map[string]bool, final bool) []Violation {
	switch {
	case final || s.ripe(tx.last):
		return s.txViolations(rs, tx, crashed)
	case tx.doubleRes:
		return []Violation{doubleResolution(rs.run, tx)}
	}
	return nil
}

// pubFindings is txFindings for one publication.
func (s *Stream) pubFindings(rs *streamRun, k pubKey, p *pubState, crashed map[string]bool, final bool) []Violation {
	switch {
	case final || s.ripe(p.last):
		return s.pubViolations(rs, k, p, crashed)
	case p.queued > 1:
		return []Violation{duplicateDelivery(rs.run, k, p.queued)}
	}
	return nil
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
			if !tx.hasProto || !s.ripe(tx.last) {
				continue
			}
			vs := s.txViolations(rs, tx, crashed)
			s.fire(vs...)
			// Held until Finalize: a violating transaction, an unresolved one
			// (crash-interrupted resolves there), and one whose prepared
			// configuration is still live somewhere.
			if len(vs) > 0 || !tx.resolved() || rs.cs.liveShadows(id) {
				continue
			}
			rs.settledTx++
			if tx.committed {
				rs.settledCommit++
			} else {
				rs.settledAbort++
			}
			if tx.touches(crashed) {
				rs.crashedTxSettled[id] = true
			}
			rs.txTombs[id] = wm
			rs.cs.dropTx(id, tx.client)
			delete(rs.txs, id)
			s.settledEvictions++
		}
		for k, p := range rs.pubs {
			if !s.ripe(p.last) {
				continue
			}
			vs := s.pubViolations(rs, k, p, crashed)
			s.fire(vs...)
			// Evidence without a queue entry is held for the record or the
			// crash excuse.
			if len(vs) > 0 || p.queued == 0 {
				continue
			}
			rs.pubTombs[k] = wm
			delete(rs.pubs, k)
			s.settledEvictions++
		}
		// Sweep expired tombstones: stragglers this old no longer arrive.
		for id, at := range rs.txTombs {
			if wm > at+h {
				delete(rs.txTombs, id)
			}
		}
		for k, at := range rs.pubTombs {
			if wm > at+h {
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

// doubleResolution is the presence-based phase-order finding, reported the
// moment the second outcome is ingested.
func doubleResolution(run int64, tx *streamTx) Violation {
	return Violation{Run: run, Check: "phase-order", Tx: tx.id, Client: tx.client,
		Detail: "transaction both committed and aborted"}
}

// duplicateDelivery is the presence-based delivery finding.
func duplicateDelivery(run int64, k pubKey, n int) Violation {
	return Violation{Run: run, Check: "delivery", Client: k.client, Ref: k.pub,
		Detail: fmt.Sprintf("publication entered the application queue %d times", n)}
}

// txViolations derives one transaction's phase-order (b), atomicity (d) and
// replication (e) violations. Loss suppression degrades the absence-based
// findings of a transaction overlapping a lossy interval.
//
// Phase order: the steps obey the 3PC conversation's order (first
// occurrences compared by cursor), resolve to exactly one outcome, and —
// under the blocking engine — never time out. A crashed coordinator excuses
// a missing resolution (it cannot resolve) but nothing else: double
// resolution and out-of-order steps are violations even across a crash.
//
// Atomicity, for an aborted transaction: every routing mutation it
// performed on the moving client's records is undone — per site, table and
// base identifier the tagged inserts and removes cancel out — and the client
// returns to the started state. State stranded at a crashed site is excused
// (it died with the container), and a crash-interrupted transaction skips
// the rollback check entirely: cleanup propagation is coordinated by the
// source, so a dead coordinator legally strands tagged entries at live
// sites too. The abort cause (rejection, abort message or timeout) is
// recorded at the source coordinator before it resumes the client, on the
// same site clock, so a "->started" transition with a later stamp at that
// site proves the resume — unless that site crashed.
func (s *Stream) txViolations(rs *streamRun, tx *streamTx, crashed map[string]bool) []Violation {
	var out []Violation
	addPhase := func(detail string) {
		out = append(out, Violation{Run: rs.run, Check: "phase-order", Tx: tx.id, Client: tx.client, Detail: detail})
	}
	crashTx := tx.touches(crashed)
	lossHidden := s.suppressed(tx.first.lamport)
	has := func(kind string) bool { _, ok := tx.firstKind[kind]; return ok }

	if tx.doubleRes {
		out = append(out, doubleResolution(rs.run, tx))
	}
	if !tx.resolved() && !crashTx && !lossHidden {
		addPhase("transaction never resolved (no committed or aborted step)")
	}
	for _, pair := range phasePrecedence {
		a, okA := tx.firstKind[pair[0]]
		b, okB := tx.firstKind[pair[1]]
		if okA && okB && cursorOf(b).less(cursorOf(a)) {
			addPhase(fmt.Sprintf("%s observed before %s (lamport %d vs %d)",
				pair[1], pair[0], b.Lamport, a.Lamport))
		}
	}
	if tx.committed && !lossHidden && !has("ack-received") {
		addPhase("committed without receiving acknowledgement (message 5)")
	}
	if tx.aborted && !tx.committed && !lossHidden &&
		!has("reject-received") && !has("abort-received") && !has("source-timeout") && !has("abort-sent") {
		addPhase("aborted without a rejection, abort, or timeout cause")
	}
	if strings.Contains(rs.config, "timeout=0s") { // the blocking engine
		for _, k := range []string{"source-timeout", "target-timeout"} {
			if has(k) {
				addPhase("blocking engine recorded a " + k)
			}
		}
	}

	if tx.aborted && !tx.committed && !lossHidden {
		if !crashTx {
			for k, n := range tx.net {
				if crashed[k.site] || k.client != tx.client {
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
		if tx.hasCause && !crashed[tx.cause.Site] &&
			rs.started[siteKey{tx.client, tx.cause.Site}] <= tx.cause.Lamport {
			out = append(out, Violation{
				Run: rs.run, Check: "atomicity", Tx: tx.id, Client: tx.client,
				Detail: "client did not return to the started state after the abort",
			})
		}
	}

	// Replication safety is presence-based — every finding compares records
	// that exist — so neither journal loss nor a crash excuses it.
	return append(out, replicationViolations(rs.run, tx.id, tx.client, tx.takeovers, tx.committed, tx.aborted)...)
}

// pubViolations derives property (a) for one publication: evidenced as
// reaching a subscriber's stub (a broker-level deliver, a transfer buffer or
// a target shell buffer), it enters that subscriber's application queue
// exactly once — no duplicates across the movement's dual-configuration
// window, no losses across the state transfer. A publication whose first
// evidence is at a crashed site is excused: the container died with the
// message in hand, which is loss the crash-stop model permits. Duplicates
// are never excused.
func (s *Stream) pubViolations(rs *streamRun, k pubKey, p *pubState, crashed map[string]bool) []Violation {
	var out []Violation
	if p.queued > 1 {
		out = append(out, duplicateDelivery(rs.run, k, p.queued))
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
	for _, src := range s.sources {
		st.Sources = append(st.Sources, SourceStatus{
			Name: src.name, Watermark: src.watermark, Records: src.records,
			Dropped: src.dropped, Down: src.down,
		})
	}
	sort.Slice(st.Sources, func(i, j int) bool { return st.Sources[i].Name < st.Sources[j].Name })

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
			if !tx.resolved() {
				anyUnresolved = true
				st.InFlight = append(st.InFlight, InFlightTx{
					Tx: tx.id, Client: tx.client, Phase: tx.lastKind, Lamport: tx.lastStamp,
				})
			}
			st.Violations = append(st.Violations, s.txFindings(rs, tx, crashed, false)...)
		}
		for k, p := range rs.pubs {
			st.Violations = append(st.Violations, s.pubFindings(rs, k, p, crashed, false)...)
		}
		// Convergence is a quiescent property: inspect only once every
		// transaction resolved and the tables stopped moving. It is
		// absence-based, so under loss it reads LOSSY, not violated.
		if !anyUnresolved && s.ripe(rs.cs.lastMut) && s.lossyBelow == 0 {
			st.Violations = append(st.Violations,
				rs.cs.violations(rs.run, crashed, stillDown, s.crashedTxSet(rs, crashed))...)
		}
	}
	sort.Slice(st.InFlight, func(i, j int) bool { return st.InFlight[i].Lamport > st.InFlight[j].Lamport })
	if len(st.InFlight) > 16 {
		st.InFlight = st.InFlight[:16]
	}

	counts := make(map[string]int)
	for _, v := range st.Violations {
		counts[v.Check]++
	}
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
// a crashed site: their shadows and unresolved outcomes are crash
// consequences, not protocol bugs. Called with s.mu held.
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

// Finalize evaluates everything still in flight as of the end of the run
// and returns the Report; fed every record of a loss-free journal, it does
// not depend on how the records were split across sources or interleaved.
// Further Ingest calls after Finalize are accepted but the returned report
// is computed once.
func (s *Stream) Finalize() *Report {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.finalized != nil {
		return s.finalized
	}
	rep := &Report{Records: s.records}
	for _, runID := range s.runIDs {
		rs := s.runs[runID]
		rr := RunReport{
			Run: rs.run, Config: rs.config, Records: rs.records, Delivered: rs.delivered,
			Txs: rs.settledTx, Committed: rs.settledCommit, Aborted: rs.settledAbort,
		}
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
			rr.Violations = append(rr.Violations, s.txFindings(rs, tx, crashed, true)...)
		}
		for k, p := range rs.pubs {
			rr.Violations = append(rr.Violations, s.pubFindings(rs, k, p, crashed, true)...)
		}
		if s.lossyBelow == 0 {
			rr.Violations = append(rr.Violations, rs.cs.violations(rs.run, crashed, stillDown, crashedTx)...)
		}
		sortViolations(rr.Violations)
		s.fire(rr.Violations...)
		rep.Runs = append(rep.Runs, rr)
	}
	s.finalized = rep
	return rep
}
