package broker

import (
	"padres/internal/message"
	"padres/internal/store"
)

// ReconfigCount returns the number of movement transactions currently
// prepared at this broker (for tests and introspection).
func (b *Broker) ReconfigCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := 0
	for _, st := range b.reconfigs {
		if st.Phase == store.PhasePrepared {
			n++
		}
	}
	return n
}

// handleMoveApprove processes message (2). With Reconfigure set, this
// broker is on RouteS2T and prepares the revised routing configuration
// before forwarding the approval toward the source.
func (b *Broker) handleMoveApprove(m message.MoveApprove, from message.NodeID) {
	if m.Reconfigure {
		b.prepareReconfig(m)
	}
	if m.Source == b.cfg.ID {
		b.deliverControl(message.Envelope{From: from, Msg: m})
		return
	}
	if hop, err := b.nextHopToward(m.Source); err == nil {
		b.send(hop.Node(), m)
	}
}

// handleMoveAck processes message (5). With Reconfigure set, the commit is
// applied hop-by-hop: the old routing configuration is deleted and the
// prepared one becomes canonical, as the acknowledgement travels from the
// target back to the source.
func (b *Broker) handleMoveAck(m message.MoveAck, from message.NodeID) {
	if b.repl != nil && !b.repl.CheckAck(m) {
		// The acknowledgement carries a generation below this broker's fence:
		// it comes from a coordinator a standby has already superseded.
		return
	}
	if m.Reconfigure {
		b.commitReconfig(m.Tx)
	}
	if m.Source == b.cfg.ID {
		b.deliverControl(message.Envelope{From: from, Msg: m})
		return
	}
	if hop, err := b.nextHopToward(m.Source); err == nil {
		b.send(hop.Node(), m)
	}
}

// handleMoveAbort rolls a prepared movement back hop-by-hop: the revised
// routing configuration rc(adv') is deleted, leaving rc(adv) untouched.
func (b *Broker) handleMoveAbort(m message.MoveAbort, from message.NodeID) {
	if m.Reconfigure {
		b.abortReconfig(m.Tx)
	}
	if m.To == b.cfg.ID {
		b.deliverControl(message.Envelope{From: from, Msg: m})
		return
	}
	if hop, err := b.nextHopToward(m.To); err == nil {
		b.send(hop.Node(), m)
	}
}

// prepareReconfig builds the revised routing configuration at this broker
// (Sec. 4.4): for each of the moving client's advertisements and
// subscriptions, a shadow record pointing toward the movement target is
// added next to the existing record (if any), keeping both configurations
// active until commit or abort. For moving advertisements, other clients'
// intersecting subscriptions are forwarded toward the target as required by
// the three PRT cases of the paper.
//
// The prepare record reaches the write-ahead log only after every shadow
// insert; a crash before it leaves orphan shadows the recovery path rolls
// back (the approval was never forwarded, so the movement cannot have
// committed through this hop).
func (b *Broker) prepareReconfig(m message.MoveApprove) {
	b.mu.Lock()
	if _, dup := b.reconfigs[m.Tx]; dup {
		b.mu.Unlock()
		return
	}
	b.mu.Unlock()

	// preHop points toward the movement's source, sucHop toward the target;
	// at the endpoint brokers the respective hop is the client's own node.
	var preHop, sucHop message.NodeID
	if b.cfg.ID == m.Source {
		preHop = message.ClientNode(m.Client, m.Source)
	} else if hop, err := b.nextHopToward(m.Source); err == nil {
		preHop = hop.Node()
	}
	if b.cfg.ID == m.Target {
		sucHop = message.ClientNode(m.Client, m.Target)
	} else if hop, err := b.nextHopToward(m.Target); err == nil {
		sucHop = hop.Node()
	}
	st := &store.ReconfigRecord{
		Tx: string(m.Tx), Client: string(m.Client),
		Source: string(m.Source), Target: string(m.Target),
		PreHop: string(preHop), SucHop: string(sucHop),
		Phase: store.PhasePrepared,
		Subs:  make([]store.Entry, 0, len(m.Subs)),
		Advs:  make([]store.Entry, 0, len(m.Advs)),
	}

	for _, se := range m.Subs {
		st.Subs = append(st.Subs, store.Entry{ID: string(se.ID), Filter: se.Filter})
		b.prtInsert(shadowID(se.ID, m.Tx), m.Client, se.Filter, sucHop, m.Tx)
	}

	for _, ae := range m.Advs {
		st.Advs = append(st.Advs, store.Entry{ID: string(ae.ID), Filter: ae.Filter})
		b.srtInsert(shadowID(ae.ID, m.Tx), m.Client, ae.Filter, sucHop, m.Tx)

		// PRT cases (1) and (3): subscriptions intersecting the moved
		// advertisement whose last hop is not the new direction must be
		// forwarded toward the target so publications from the client's
		// new position can reach them. Case (2) entries (last hop already
		// toward the target) become stale, which the paper's consistency
		// definition permits.
		if !b.isNeighbor(sucHop) {
			continue
		}
		for _, rec := range b.prt.Intersecting(ae.Filter) {
			if isShadowID(rec.ID) || rec.Client == m.Client || rec.LastHop == sucHop {
				continue
			}
			id := message.SubID(canonicalID(rec.ID))
			b.maybeSendSub(id, rec.Client, rec.Filter, sucHop, m.Tx)
		}
	}

	b.mu.Lock()
	b.reconfigs[m.Tx] = st
	b.mu.Unlock()
	b.wal(store.Record{
		Op: store.OpTxPrepare, Tx: st.Tx, Client: st.Client,
		Source: st.Source, Target: st.Target, PreHop: st.PreHop, SucHop: st.SucHop,
		Subs: st.Subs, Advs: st.Advs,
	})
}

// decideReconfig moves a prepared transaction to its decided phase and logs
// the transition ahead of the table mutations; nil when tx is unknown here
// or already decided. The entry stays in b.reconfigs until retireReconfig,
// so the log always carries what recovery needs to finish the job.
func (b *Broker) decideReconfig(tx message.TxID, phase string, op store.Op) *store.ReconfigRecord {
	b.mu.Lock()
	st, ok := b.reconfigs[tx]
	if !ok || st.Phase != store.PhasePrepared {
		b.mu.Unlock()
		return nil
	}
	st.Phase = phase
	b.resolveQueryTimer(tx)
	b.mu.Unlock()
	b.wal(store.Record{Op: op, Tx: string(tx)})
	return st
}

// retireReconfig forgets a transaction whose decision has fully applied.
func (b *Broker) retireReconfig(tx message.TxID) {
	b.mu.Lock()
	delete(b.reconfigs, tx)
	b.mu.Unlock()
	b.wal(store.Record{Op: store.OpTxDone, Tx: string(tx)})
}

// commitReconfig deletes the old routing configuration: every entry of the
// prepared payload ends as a canonical record pointing toward the target,
// its shadow gone.
func (b *Broker) commitReconfig(tx message.TxID) {
	if st := b.decideReconfig(tx, store.PhaseCommitted, store.OpTxCommit); st != nil {
		b.applyCommit(st)
	}
}

// applyCommit performs a decided commit's table mutations. Inserts replace
// by ID and removes tolerate absence, so it is idempotent: recovery runs it
// over a commit that a crash interrupted after any number of them.
func (b *Broker) applyCommit(st *store.ReconfigRecord) {
	tx, client, sucHop := message.TxID(st.Tx), message.ClientID(st.Client), message.NodeID(st.SucHop)
	for _, e := range st.Subs {
		id := message.SubID(e.ID)
		b.prtRemove(shadowID(id, tx), tx)
		b.prtInsert(id, client, e.Filter, sucHop, tx)
	}
	for _, e := range st.Advs {
		id := message.AdvID(e.ID)
		b.srtRemove(shadowID(id, tx), tx)
		b.srtInsert(id, client, e.Filter, sucHop, tx)
	}
	b.retireReconfig(tx)
}

// abortReconfig deletes the prepared shadow records, restoring the routing
// tables to exactly their pre-movement content (routing-layer isolation).
func (b *Broker) abortReconfig(tx message.TxID) {
	if st := b.decideReconfig(tx, store.PhaseAborted, store.OpTxAbort); st != nil {
		b.applyAbort(st)
	}
}

// applyAbort performs a decided abort's table mutations; idempotent like
// applyCommit, and shared with recovery the same way.
func (b *Broker) applyAbort(st *store.ReconfigRecord) {
	tx := message.TxID(st.Tx)
	for _, e := range st.Subs {
		b.prtRemove(shadowID(message.SubID(e.ID), tx), tx)
	}
	for _, e := range st.Advs {
		b.srtRemove(shadowID(message.AdvID(e.ID), tx), tx)
	}
	b.retireReconfig(tx)
}
