package store

import (
	"encoding/json"
	"fmt"
	"sort"

	"padres/internal/predicate"
)

// Op discriminates WAL record types. Table and sent-set ops are idempotent
// upserts/deletes keyed by ID (and Hop for sent-sets); transaction ops key
// on Tx. The short codes keep the JSON frames compact.
type Op string

const (
	// Routing-table mutations.
	OpSRTInsert Op = "srt+"
	OpSRTRemove Op = "srt-"
	OpPRTInsert Op = "prt+"
	OpPRTRemove Op = "prt-"

	// Covering sent-set mutations: which filters were forwarded to which
	// neighbor (the quenching state the covering optimization depends on).
	OpSentSubMark  Op = "ssub+"
	OpSentSubClear Op = "ssub-"
	OpSentSubDrop  Op = "ssub*"
	OpSentAdvMark  Op = "sadv+"
	OpSentAdvClear Op = "sadv-"
	OpSentAdvDrop  Op = "sadv*"

	// Movement-transaction state transitions at this broker hop. Prepare
	// carries the full revised-configuration payload so recovery can finish
	// a half-applied commit or abort without the peer's help; Done marks
	// the commit/abort mutations fully applied, retiring the transaction
	// from recovery's concern.
	OpTxPrepare Op = "tx-prepare"
	OpTxCommit  Op = "tx-commit"
	OpTxAbort   Op = "tx-abort"
	OpTxDone    Op = "tx-done"

	// OpDecision is the coordinator's durable outcome record. The target
	// coordinator appends it synchronously before the first MoveAck leaves,
	// which is what makes "no committed record" a safe abort answer to a
	// recovery MoveQuery.
	OpDecision Op = "decision"

	// OpReplica is a replicated copy of another coordinator's decision
	// record: this broker is a preference-list member holding {outcome,
	// generation} for Tx so a standby can answer recovery queries — and
	// drive the resolution — if the deciding coordinator never comes back.
	OpReplica Op = "replica"
	// OpFence persists a lease grant: this broker promised to reject
	// coordinator messages for Tx below the granted generation. Fences
	// survive restarts so a revived pre-takeover coordinator stays fenced.
	OpFence Op = "fence"
)

// Reconfiguration phases persisted with OpTxCommit / OpTxAbort.
const (
	PhasePrepared  = "prepared"
	PhaseCommitted = "committed"
	PhaseAborted   = "aborted"
)

// Entry is one filter carried by a prepare record or snapshot.
type Entry struct {
	ID     string            `json:"id"`
	Filter *predicate.Filter `json:"f"`
}

// Record is one WAL entry. Fields are populated per Op; unused ones stay
// empty and are elided from the JSON frame.
type Record struct {
	Op     Op                `json:"op"`
	ID     string            `json:"id,omitempty"`
	Client string            `json:"client,omitempty"`
	Filter *predicate.Filter `json:"filter,omitempty"`
	// Hop is the record's last hop for table inserts, or the neighbor node
	// for sent-set ops.
	Hop string `json:"hop,omitempty"`
	Tx  string `json:"tx,omitempty"`

	// OpTxPrepare payload: everything a recovering broker needs to rebuild
	// the prepared reconfiguration or finish applying its resolution.
	Source string  `json:"src,omitempty"`
	Target string  `json:"dst,omitempty"`
	PreHop string  `json:"pre,omitempty"`
	SucHop string  `json:"suc,omitempty"`
	Subs   []Entry `json:"subs,omitempty"`
	Advs   []Entry `json:"advs,omitempty"`

	// OpDecision payload.
	Role    string `json:"role,omitempty"`    // "source" | "target"
	Outcome string `json:"outcome,omitempty"` // PhaseCommitted | PhaseAborted

	// OpReplica / OpFence payload: the coordinator generation the record
	// was issued (or granted) at.
	Gen uint64 `json:"cgen,omitempty"`
}

// TableRecord is one routing-table row in a snapshot or recovered state.
type TableRecord struct {
	ID      string            `json:"id"`
	Client  string            `json:"client"`
	Filter  *predicate.Filter `json:"f"`
	LastHop string            `json:"hop"`
}

// ReconfigRecord is the persisted form of one movement transaction's
// per-broker state: the prepare payload plus the furthest phase whose
// record reached the log.
type ReconfigRecord struct {
	Tx     string  `json:"tx"`
	Client string  `json:"client"`
	Source string  `json:"src"`
	Target string  `json:"dst"`
	PreHop string  `json:"pre"`
	SucHop string  `json:"suc"`
	Phase  string  `json:"phase"`
	Subs   []Entry `json:"subs,omitempty"`
	Advs   []Entry `json:"advs,omitempty"`
}

// ReplicaDecision is the durable form of a replicated coordinator
// decision: the outcome and the coordinator generation that issued it.
type ReplicaDecision struct {
	Outcome string `json:"outcome"`
	Gen     uint64 `json:"gen,omitempty"`
}

// Snapshot is the full durable state of one broker at a checkpoint, and
// doubles as the recovered-state type returned after log replay.
type Snapshot struct {
	Gen       uint64                    `json:"gen"`
	SRT       []TableRecord             `json:"srt,omitempty"`
	PRT       []TableRecord             `json:"prt,omitempty"`
	SentSubs  map[string][]string       `json:"sentSubs,omitempty"`
	SentAdvs  map[string][]string       `json:"sentAdvs,omitempty"`
	Reconfigs map[string]ReconfigRecord `json:"reconfigs,omitempty"`
	// Outcomes maps transactions this broker's coordinator decided to
	// PhaseCommitted / PhaseAborted — the durable answers to MoveQuery.
	Outcomes map[string]string `json:"outcomes,omitempty"`
	// Replicas maps transactions whose decision this broker replicates on
	// behalf of other coordinators (preference-list membership).
	Replicas map[string]ReplicaDecision `json:"replicas,omitempty"`
	// Fences maps transactions to the highest coordinator generation this
	// broker granted a lease at; lower-generation messages are rejected.
	Fences map[string]uint64 `json:"fences,omitempty"`
}

// replayState applies WAL records on top of a snapshot. Tables become maps
// for idempotent replay and are re-sorted when the final state is built.
type replayState struct {
	srt, prt           map[string]TableRecord
	sentSubs, sentAdvs map[string]map[string]bool
	reconfigs          map[string]ReconfigRecord
	outcomes           map[string]string
	replicas           map[string]ReplicaDecision
	fences             map[string]uint64
}

func newReplayState(snap *Snapshot) *replayState {
	rs := &replayState{
		srt: make(map[string]TableRecord), prt: make(map[string]TableRecord),
		sentSubs: make(map[string]map[string]bool), sentAdvs: make(map[string]map[string]bool),
		reconfigs: make(map[string]ReconfigRecord), outcomes: make(map[string]string),
		replicas: make(map[string]ReplicaDecision), fences: make(map[string]uint64),
	}
	if snap == nil {
		return rs
	}
	for _, r := range snap.SRT {
		rs.srt[r.ID] = r
	}
	for _, r := range snap.PRT {
		rs.prt[r.ID] = r
	}
	for id, hops := range snap.SentSubs {
		rs.sentSubs[id] = toSet(hops)
	}
	for id, hops := range snap.SentAdvs {
		rs.sentAdvs[id] = toSet(hops)
	}
	for tx, rc := range snap.Reconfigs {
		rs.reconfigs[tx] = rc
	}
	for tx, out := range snap.Outcomes {
		rs.outcomes[tx] = out
	}
	for tx, rd := range snap.Replicas {
		rs.replicas[tx] = rd
	}
	for tx, g := range snap.Fences {
		rs.fences[tx] = g
	}
	return rs
}

func toSet(hops []string) map[string]bool {
	set := make(map[string]bool, len(hops))
	for _, h := range hops {
		set[h] = true
	}
	return set
}

// apply folds one WAL record into the state. Unknown ops are ignored so a
// newer log replays (partially) on an older binary instead of failing.
func (rs *replayState) apply(rec Record) {
	switch rec.Op {
	case OpSRTInsert:
		rs.srt[rec.ID] = TableRecord{ID: rec.ID, Client: rec.Client, Filter: rec.Filter, LastHop: rec.Hop}
	case OpSRTRemove:
		delete(rs.srt, rec.ID)
	case OpPRTInsert:
		rs.prt[rec.ID] = TableRecord{ID: rec.ID, Client: rec.Client, Filter: rec.Filter, LastHop: rec.Hop}
	case OpPRTRemove:
		delete(rs.prt, rec.ID)
	case OpSentSubMark:
		mark(rs.sentSubs, rec.ID, rec.Hop)
	case OpSentSubClear:
		unmark(rs.sentSubs, rec.ID, rec.Hop)
	case OpSentSubDrop:
		delete(rs.sentSubs, rec.ID)
	case OpSentAdvMark:
		mark(rs.sentAdvs, rec.ID, rec.Hop)
	case OpSentAdvClear:
		unmark(rs.sentAdvs, rec.ID, rec.Hop)
	case OpSentAdvDrop:
		delete(rs.sentAdvs, rec.ID)
	case OpTxPrepare:
		rs.reconfigs[rec.Tx] = ReconfigRecord{
			Tx: rec.Tx, Client: rec.Client, Source: rec.Source, Target: rec.Target,
			PreHop: rec.PreHop, SucHop: rec.SucHop, Phase: PhasePrepared,
			Subs: rec.Subs, Advs: rec.Advs,
		}
	case OpTxCommit:
		if rc, ok := rs.reconfigs[rec.Tx]; ok {
			rc.Phase = PhaseCommitted
			rs.reconfigs[rec.Tx] = rc
		}
	case OpTxAbort:
		if rc, ok := rs.reconfigs[rec.Tx]; ok {
			rc.Phase = PhaseAborted
			rs.reconfigs[rec.Tx] = rc
		}
	case OpTxDone:
		delete(rs.reconfigs, rec.Tx)
	case OpDecision:
		rs.outcomes[rec.Tx] = rec.Outcome
	case OpReplica:
		// Higher-generation decisions supersede; a duplicate at the same
		// generation replays idempotently.
		if cur, ok := rs.replicas[rec.Tx]; !ok || rec.Gen >= cur.Gen {
			rs.replicas[rec.Tx] = ReplicaDecision{Outcome: rec.Outcome, Gen: rec.Gen}
		}
	case OpFence:
		if rec.Gen > rs.fences[rec.Tx] {
			rs.fences[rec.Tx] = rec.Gen
		}
	}
}

func mark(m map[string]map[string]bool, id, hop string) {
	set, ok := m[id]
	if !ok {
		set = make(map[string]bool)
		m[id] = set
	}
	set[hop] = true
}

func unmark(m map[string]map[string]bool, id, hop string) {
	if set, ok := m[id]; ok {
		delete(set, hop)
		if len(set) == 0 {
			delete(m, id)
		}
	}
}

// snapshot freezes the replay state back into the canonical Snapshot form
// with deterministic ordering.
func (rs *replayState) snapshot(gen uint64) *Snapshot {
	snap := &Snapshot{Gen: gen}
	for _, r := range rs.srt {
		snap.SRT = append(snap.SRT, r)
	}
	for _, r := range rs.prt {
		snap.PRT = append(snap.PRT, r)
	}
	sort.Slice(snap.SRT, func(i, k int) bool { return snap.SRT[i].ID < snap.SRT[k].ID })
	sort.Slice(snap.PRT, func(i, k int) bool { return snap.PRT[i].ID < snap.PRT[k].ID })
	snap.SentSubs = fromSets(rs.sentSubs)
	snap.SentAdvs = fromSets(rs.sentAdvs)
	if len(rs.reconfigs) > 0 {
		snap.Reconfigs = make(map[string]ReconfigRecord, len(rs.reconfigs))
		for tx, rc := range rs.reconfigs {
			snap.Reconfigs[tx] = rc
		}
	}
	if len(rs.outcomes) > 0 {
		snap.Outcomes = make(map[string]string, len(rs.outcomes))
		for tx, out := range rs.outcomes {
			snap.Outcomes[tx] = out
		}
	}
	if len(rs.replicas) > 0 {
		snap.Replicas = make(map[string]ReplicaDecision, len(rs.replicas))
		for tx, rd := range rs.replicas {
			snap.Replicas[tx] = rd
		}
	}
	if len(rs.fences) > 0 {
		snap.Fences = make(map[string]uint64, len(rs.fences))
		for tx, g := range rs.fences {
			snap.Fences[tx] = g
		}
	}
	return snap
}

func fromSets(m map[string]map[string]bool) map[string][]string {
	if len(m) == 0 {
		return nil
	}
	out := make(map[string][]string, len(m))
	for id, set := range m {
		hops := make([]string, 0, len(set))
		for h := range set {
			hops = append(hops, h)
		}
		sort.Strings(hops)
		out[id] = hops
	}
	return out
}

func encodeRecord(rec Record) ([]byte, error) {
	data, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("encode wal record %s: %w", rec.Op, err)
	}
	return data, nil
}

func decodeRecord(payload []byte) (Record, error) {
	var rec Record
	if err := json.Unmarshal(payload, &rec); err != nil {
		return Record{}, fmt.Errorf("decode wal record: %w", err)
	}
	return rec, nil
}
