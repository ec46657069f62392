package broker

import (
	"strings"
	"time"

	"padres/internal/message"
	"padres/internal/sim"
	"padres/internal/store"
)

// This file wires the broker to its durable store: write-ahead hooks for
// every routing-table, sent-set, and reconfiguration mutation, and the
// recovery path that rebuilds state at New and resolves in-flight movement
// transactions (finish decided ones, query the coordinator about in-doubt
// ones, abort locally on timeout per the non-blocking 3PC rules).

// wal appends one record to the write-ahead log; a no-op without a store.
// Appends are asynchronous (group commit) so the dispatch path never waits
// on the disk; coordinator decisions use PersistDecision's sync mode.
func (b *Broker) wal(rec store.Record) {
	if b.store != nil {
		b.store.Append(rec)
	}
}

// PersistDecision records a coordinator outcome for the movement
// transaction. With durable set the call blocks until the record is
// fsynced — the target coordinator persists "committed" this way before
// the first MoveAck leaves, which is what makes a missing record a safe
// abort answer to a recovery MoveQuery. Without a store the outcome is
// still remembered in memory for query replies within this lifetime.
func (b *Broker) PersistDecision(hdr message.MoveHeader, role, outcome string, durable bool) error {
	b.mu.Lock()
	b.outcomes[hdr.Tx] = outcome
	b.mu.Unlock()
	if b.store == nil {
		return nil
	}
	rec := store.Record{
		Op: store.OpDecision, Tx: string(hdr.Tx), Client: string(hdr.Client),
		Source: string(hdr.Source), Target: string(hdr.Target),
		Role: role, Outcome: outcome,
	}
	if durable {
		return b.store.AppendSync(rec)
	}
	b.store.Append(rec)
	return nil
}

// DecidedOutcome returns the recorded coordinator outcome for tx
// (store.PhaseCommitted or store.PhaseAborted), if any.
func (b *Broker) DecidedOutcome(tx message.TxID) (string, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	out, ok := b.outcomes[tx]
	return out, ok
}

// applyRecovery loads the recovered state into a fresh broker (called from
// New, before the dispatch goroutine exists). Tables and sent-sets restore
// silently — their history is already in both the log and any journal from
// the previous lifetime. Movement transactions resolve by phase: decided
// ones finish applying (idempotently), prepared ones are rebuilt and
// queued for the query protocol, and shadow records whose prepare never
// reached the log are rolled back (their approve was never forwarded, so
// the transaction cannot have committed).
func (b *Broker) applyRecovery(rec *store.Recovery) {
	st := rec.State
	for _, r := range st.SRT {
		b.srt.Insert(message.AdvID(r.ID), message.ClientID(r.Client), r.Filter, message.NodeID(r.LastHop))
	}
	for _, r := range st.PRT {
		b.prt.Insert(message.SubID(r.ID), message.ClientID(r.Client), r.Filter, message.NodeID(r.LastHop))
	}
	b.sentSubs.restore(st.SentSubs)
	b.sentAdvs.restore(st.SentAdvs)
	for tx, out := range st.Outcomes {
		b.outcomes[message.TxID(tx)] = out
	}

	for _, rc := range st.Reconfigs {
		// rc is this iteration's own copy; restorePrepared keeps it.
		switch rc.Phase {
		case store.PhaseCommitted:
			b.applyCommit(&rc)
		case store.PhaseAborted:
			b.applyAbort(&rc)
		default:
			b.restorePrepared(&rc)
		}
	}

	// Shadow records with no surviving transaction metadata: the prepare
	// record never reached the log (crash mid-prepare), so this hop never
	// forwarded the approval and the movement can only have aborted.
	for _, r := range b.prt.All() {
		if tx, ok := shadowTx(r.ID); ok && !b.hasReconfig(tx) {
			b.prtRemove(message.SubID(r.ID), tx)
		}
	}
	for _, r := range b.srt.All() {
		if tx, ok := shadowTx(r.ID); ok && !b.hasReconfig(tx) {
			b.srtRemove(message.AdvID(r.ID), tx)
		}
	}
	// The table-size gauges are normally refreshed by the dispatch loop;
	// a freshly recovered broker must not report empty tables until its
	// first message arrives.
	b.tel.SRTSize.Set(int64(b.srt.Len()))
	b.tel.PRTSize.Set(int64(b.prt.Len()))
}

func (b *Broker) hasReconfig(tx message.TxID) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	_, ok := b.reconfigs[tx]
	return ok
}

// shadowTx extracts the movement transaction a shadow record belongs to.
func shadowTx(id string) (message.TxID, bool) {
	i := strings.Index(id, shadowSep)
	if i < 0 {
		return "", false
	}
	return message.TxID(id[i+len(shadowSep):]), true
}

// restorePrepared reinstates an undecided movement as this broker's live
// prepared state, re-creating any shadow records the log lost, and queues
// the transaction for the recovery query Start sends.
func (b *Broker) restorePrepared(rc *store.ReconfigRecord) {
	tx, client, sucHop := message.TxID(rc.Tx), message.ClientID(rc.Client), message.NodeID(rc.SucHop)
	for _, e := range rc.Subs {
		if sid := shadowID(message.SubID(e.ID), tx); b.prt.Get(sid) == nil {
			b.prtInsert(sid, client, e.Filter, sucHop, tx)
		}
	}
	for _, e := range rc.Advs {
		if aid := shadowID(message.AdvID(e.ID), tx); b.srt.Get(aid) == nil {
			b.srtInsert(aid, client, e.Filter, sucHop, tx)
		}
	}
	b.reconfigs[tx] = rc
	b.indoubt = append(b.indoubt, message.MoveHeader{
		Tx: tx, Client: client,
		Source: message.BrokerID(rc.Source), Target: message.BrokerID(rc.Target),
	})
}

// InDoubtCount reports how many recovered movements are still awaiting
// resolution (prepared state present with a live query timer, or queued
// for query). Harnesses poll it to know recovery traffic has settled.
func (b *Broker) InDoubtCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := len(b.indoubt) + len(b.queryTimers)
	return n
}

// RecoveryWait returns the effective recovery-query timeout: how long an
// in-doubt prepared movement waits for an answer before the local-abort
// fallback fires.
func (b *Broker) RecoveryWait() time.Duration {
	if b.cfg.RecoveryQueryTimeout > 0 {
		return b.cfg.RecoveryQueryTimeout
	}
	return 3 * time.Second
}

// queryInDoubt sends a MoveQuery toward the movement's target coordinator
// and arms the local-abort fallback timer.
func (b *Broker) queryInDoubt(hdr message.MoveHeader) {
	timeout := b.RecoveryWait()
	b.mu.Lock()
	if b.stopped {
		b.mu.Unlock()
		return
	}
	if b.queryTimers == nil {
		b.queryTimers = make(map[message.TxID]sim.Timer)
	}
	b.queryTimers[hdr.Tx] = b.clk.AfterFunc(timeout, func() { b.queryTimedOut(hdr) })
	b.mu.Unlock()
	_ = b.SendControl(message.MoveQuery{MoveHeader: hdr, From: b.cfg.ID})
	// With replication on, also ask every standby replica: if the target
	// coordinator died for good, the first live preference-list member
	// resolves the movement instead; the local-abort timer above still
	// bounds the wait when the whole list is unreachable.
	for _, p := range b.ReplicationPeers(hdr) {
		if p == hdr.Target || p == b.cfg.ID {
			continue
		}
		_ = b.SendControl(message.MoveQuery{MoveHeader: hdr, From: b.cfg.ID, At: p})
	}
}

// queryTimedOut is the non-blocking fallback: the coordinator never
// answered, so the prepared configuration is rolled back locally. If the
// movement did commit elsewhere this hop diverges until the client's
// filters are re-issued — the documented price of non-blocking
// termination; the timeout is sized so a reachable coordinator always
// answers first.
func (b *Broker) queryTimedOut(hdr message.MoveHeader) {
	b.mu.Lock()
	delete(b.queryTimers, hdr.Tx)
	st, ok := b.reconfigs[hdr.Tx]
	unresolved := ok && st.Phase == store.PhasePrepared
	stopped := b.stopped
	b.mu.Unlock()
	if !unresolved || stopped {
		return
	}
	b.Inject(b.cfg.ID.Node(), message.MoveAbort{
		MoveHeader: hdr, To: b.cfg.ID,
		Reason: "recovery query timeout", Reconfigure: true,
	})
}

// resolveQueryTimer cancels the in-doubt fallback once the movement
// resolves through the normal commit/abort path. Caller holds b.mu.
func (b *Broker) resolveQueryTimer(tx message.TxID) {
	if t, ok := b.queryTimers[tx]; ok {
		t.Stop()
		delete(b.queryTimers, tx)
	}
}
