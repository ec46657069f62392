package core

import (
	"context"
	"fmt"
	"strings"
	"time"

	"padres/internal/client"
	"padres/internal/journal"
	"padres/internal/message"
	"padres/internal/metrics"
	"padres/internal/store"
)

// epochSep separates the stable part of a subscription/advertisement ID
// from the movement transaction under which the end-to-end protocol
// re-issued it. Using a dedicated separator keeps re-issued IDs from
// growing across repeated movements.
const epochSep = "#"

func epochBase(id string) string {
	if i := strings.Index(id, epochSep); i >= 0 {
		return id[:i]
	}
	return id
}

func epochID(id string, tx message.TxID) string {
	return epochBase(id) + epochSep + string(tx)
}

// --- target-side handlers ---------------------------------------------------

// onNegotiate processes message (1) at the target coordinator: admission
// control, client shell creation, and either hop-by-hop reconfiguration
// (via the approve message) or end-to-end re-subscription.
func (ct *Container) onNegotiate(m message.MoveNegotiate) {
	reply := func(msg message.Message) { _ = ct.cfg.Broker.SendControl(msg) }
	ct.emit(EventNegotiateReceived, m.Tx, m.Client, "")

	if ct.cfg.Admission != nil {
		if err := ct.cfg.Admission(m); err != nil {
			ct.emit(EventRejectSent, m.Tx, m.Client, err.Error())
			reply(message.MoveReject{MoveHeader: m.MoveHeader, Reason: err.Error()})
			return
		}
	}

	ct.mu.Lock()
	if ct.closed {
		ct.mu.Unlock()
		reply(message.MoveReject{MoveHeader: m.MoveHeader, Reason: "target container shut down"})
		return
	}
	if _, dup := ct.target[m.Tx]; dup {
		ct.mu.Unlock()
		return
	}
	ttx := &targetTx{
		tx:        m.Tx,
		clientID:  m.Client,
		source:    m.Source,
		shellNode: message.ClientNode(m.Client, ct.cfg.Broker.ID()),
	}
	ct.target[m.Tx] = ttx
	ct.mu.Unlock()

	// Create the client shell: a local identity at the target broker that
	// buffers notifications until the client state arrives. It must exist
	// before any routing for the client points here.
	ct.cfg.Broker.AttachClient(ttx.shellNode, ct.journalShellDeliver(ttx))

	approve := message.MoveApprove{MoveHeader: m.MoveHeader}

	switch ct.cfg.Protocol {
	case ProtocolReconfig:
		// The approve message carries the client's filters and performs
		// the routing reconfiguration at every broker along the path,
		// starting with this one.
		approve.Subs = m.Subs
		approve.Advs = m.Advs
		approve.Reconfigure = true
		ct.emit(EventApproveSent, m.Tx, m.Client, "reconfigure")
		_ = ct.cfg.Broker.SendControl(approve)
		ct.armTargetTimer(ttx)

	case ProtocolEndToEnd:
		// Re-issue the client's filters under fresh identifiers from the
		// target. The approval is only sent after the subscription
		// propagation has quiesced: the traditional protocol cannot
		// guarantee gapless delivery before the new routing state is in
		// place, and this wait is the dominant cost the paper measures.
		ttx.subIDMap = make(map[message.SubID]message.SubID, len(m.Subs))
		ttx.advIDMap = make(map[message.AdvID]message.AdvID, len(m.Advs))
		for _, se := range m.Subs {
			newID := message.SubID(epochID(string(se.ID), m.Tx))
			ttx.subIDMap[se.ID] = newID
			ct.cfg.Broker.Inject(ttx.shellNode, message.Subscribe{
				ID: newID, Client: m.Client, Filter: se.Filter, TxTag: m.Tx,
			})
		}
		for _, ae := range m.Advs {
			newID := message.AdvID(epochID(string(ae.ID), m.Tx))
			ttx.advIDMap[ae.ID] = newID
			ct.cfg.Broker.Inject(ttx.shellNode, message.Advertise{
				ID: newID, Client: m.Client, Filter: ae.Filter, TxTag: m.Tx,
			})
		}
		ct.spawn(func(ctx context.Context) {
			if err := ct.reg.AwaitTag(ctx, m.Tx); err != nil {
				return // shutdown; the transaction resolves via timeouts
			}
			ct.emit(EventApproveSent, m.Tx, m.Client, "end-to-end, propagation quiesced")
			_ = ct.cfg.Broker.SendControl(approve)
			ct.mu.Lock()
			if cur, ok := ct.target[m.Tx]; ok {
				ct.armTargetTimerLocked(cur)
			}
			ct.mu.Unlock()
		})
	}
}

// onState processes message (4) at the target coordinator: the client state
// has arrived. With replication on, the commit decision is replicated to a
// write quorum of the transaction's preference list before any effect of it
// is acted on — a decision no quorum holds is never acted on, so a standby
// that finds no record in a majority can safely conclude abort, and a
// quorum failure aborts the movement. When the replicas sit on the
// acknowledgement's own path (CommitPipelined), per-link FIFO enforces that
// ordering for free and the MoveAck departs immediately, with only the
// client start deferred to the quorum confirmation; otherwise the
// coordinator waits out the quorum round trip before sending anything.
func (ct *Container) onState(m message.MoveState) {
	ct.emit(EventStateReceived, m.Tx, m.Client, "")
	ct.mu.Lock()
	ttx, ok := ct.target[m.Tx]
	if ok && ttx.deciding {
		// A duplicate state transfer must not start a second quorum round.
		ct.mu.Unlock()
		return
	}
	if ok {
		ttx.deciding = true
	}
	ct.mu.Unlock()
	if !ok {
		// The transaction was aborted here (e.g. a timeout); tell the
		// source so it resumes the client.
		_ = ct.cfg.Broker.PersistDecision(m.MoveHeader, "target", store.PhaseAborted, false)
		_ = ct.cfg.Broker.SendControl(message.MoveAbort{
			MoveHeader:  m.MoveHeader,
			To:          m.Source,
			Reason:      "state transfer for unknown transaction",
			Reconfigure: ct.cfg.Protocol == ProtocolReconfig,
		})
		return
	}
	if ttx.timer != nil {
		ttx.timer.Stop()
	}

	c := ct.cfg.Directory.Get(m.Client)
	if c == nil && len(m.AppState) > 0 {
		// The client is not in this process (TCP deployment): reconstruct
		// its stub from the state payload.
		restored, err := client.Deserialize(m.AppState)
		if err == nil && restored.ID() == m.Client {
			c = restored
			ct.cfg.Directory.Put(c)
		}
	}
	if c == nil {
		// Unrecoverable inconsistency; abort both sides.
		ct.mu.Lock()
		delete(ct.target, m.Tx)
		ct.mu.Unlock()
		ct.teardownShell(ttx)
		_ = ct.cfg.Broker.PersistDecision(m.MoveHeader, "target", store.PhaseAborted, false)
		_ = ct.cfg.Broker.SendControl(message.MoveAbort{
			MoveHeader: m.MoveHeader, To: m.Source, Reason: "client not found", Reconfigure: ct.cfg.Protocol == ProtocolReconfig,
		})
		return
	}

	// The transaction stays in ct.target until the decision is settled, so
	// recovery queries arriving mid-quorum still see it as in flight and a
	// concurrent abort can still roll the preparation back.
	if ct.cfg.Broker.CommitPipelined(m.MoveHeader) {
		// Pipelined commit: the ReplicateDecision messages leave first, the
		// MoveAck second, on the same first-hop link — per-link FIFO and the
		// path replica's durable-append-before-forward discipline put the
		// decision at a full write quorum before the acknowledgement can
		// reach anyone who acts on it, so the round trip leaves the
		// movement's critical path. Only the client start (and the ack-sent
		// journal step, which must never precede a still-possible abort)
		// waits for the quorum confirmation; on quorum failure the
		// acknowledgement provably died on its first hop, committing no
		// routing reconfiguration anywhere, and the abort path below stays
		// sound.
		// The ack-sent stamp is reserved before the acknowledgement hits
		// the wire so the deferred record sorts causally ahead of the
		// source's ack-received, but it is only appended once the quorum
		// confirms — an ack-sent record must never precede a still-possible
		// abort.
		ackStamp := ct.reserveStamp()
		ct.cfg.Broker.ReplicateCommit(m.MoveHeader, func(ok bool) {
			if ok {
				if ct.attachCommit(m, ttx, c) {
					ct.emitStamped(ackStamp, EventAckSent, m.Tx, m.Client, "pipelined, quorum confirmed")
				}
				return
			}
			ct.quorumAbort(m, ttx)
		})
		_ = ct.cfg.Broker.SendControl(message.MoveAck{
			MoveHeader:  m.MoveHeader,
			Reconfigure: ct.cfg.Protocol == ProtocolReconfig,
		})
		return
	}
	if !ct.cfg.Broker.ReplicateCommit(m.MoveHeader, func(ok bool) {
		if ok {
			ct.commitState(m, ttx, c)
			return
		}
		ct.quorumAbort(m, ttx)
	}) {
		ct.commitState(m, ttx, c)
	}
}

// commitState finishes the target-side commit once the decision is safe to
// act on (quorum reached, or replication off). It runs on whichever
// goroutine observed the deciding acknowledgement; all the calls it makes
// are goroutine-safe.
func (ct *Container) commitState(m message.MoveState, ttx *targetTx, c *client.Client) {
	if !ct.attachCommit(m, ttx, c) {
		return
	}
	ct.emit(EventAckSent, m.Tx, m.Client, "")
	_ = ct.cfg.Broker.SendControl(message.MoveAck{
		MoveHeader:  m.MoveHeader,
		Reconfigure: ct.cfg.Protocol == ProtocolReconfig,
	})
}

// attachCommit settles the transaction and starts the client at this
// coordinator: the shared tail of the strict commit (which sends the
// acknowledgement after it) and the pipelined commit (which sent the
// acknowledgement already and deferred only this part to the quorum
// confirmation). Returns false when the transaction was aborted while the
// quorum was in flight — the rollback already ran.
func (ct *Container) attachCommit(m message.MoveState, ttx *targetTx, c *client.Client) bool {
	ct.mu.Lock()
	if cur, still := ct.target[m.Tx]; !still || cur != ttx {
		ct.mu.Unlock()
		return false
	}
	delete(ct.target, m.Tx)
	ct.mu.Unlock()

	// Hand the shell's identity to the real client stub, then merge all
	// notification sources exactly once.
	ct.cfg.Broker.AttachClient(ttx.shellNode, c.DeliverLocal)
	shell := ttx.drainShell()
	if ct.cfg.Protocol == ProtocolEndToEnd {
		c.RenameEntries(ttx.subIDMap, ttx.advIDMap)
	}
	ct.mu.Lock()
	ct.hosted[m.Client] = c
	ct.mu.Unlock()
	c.SetMover(ct)
	c.SetSender(ct.cfg.Broker.Inject)
	c.SetWakeVia(ct.cfg.Broker.DeferWake)
	ct.installStateObserver(c)
	ct.installDeliveryObserver(c)
	_ = c.CompleteMove(ct.cfg.Broker.ID(), m.Buffered, shell)
	ct.jnlClient(journal.KindClientArrive, m.Tx, m.Client, fmt.Sprintf("%d transferred, %d shell-buffered", len(m.Buffered), len(shell)))

	// The commit decision becomes durable BEFORE the strict-mode
	// acknowledgement leaves this coordinator: a recovery query finding no
	// committed record can then safely conclude the movement never
	// committed (the answer the non-blocking termination rule depends on).
	// In pipelined mode the acknowledgement is already on the wire and that
	// rule rests on the path replicas' records — FIFO put them durably in
	// place ahead of it — so persisting here, at quorum confirmation, keeps
	// the coordinator's durable outcome in step with the agent's: neither
	// leaks a commit that a quorum failure would still turn into an abort.
	// The synchronous fsync is once per movement, not per message.
	_ = ct.cfg.Broker.PersistDecision(m.MoveHeader, "target", store.PhaseCommitted, true)
	return true
}

// quorumAbort aborts a movement whose commit decision could not reach a
// write quorum: the client has not been started here, so the source can
// safely resume it.
func (ct *Container) quorumAbort(m message.MoveState, ttx *targetTx) {
	ct.mu.Lock()
	if cur, still := ct.target[m.Tx]; !still || cur != ttx {
		ct.mu.Unlock()
		return
	}
	delete(ct.target, m.Tx)
	ct.mu.Unlock()
	ct.emit(EventAbortSent, m.Tx, m.Client, "replication quorum failure")
	_ = ct.cfg.Broker.PersistDecision(m.MoveHeader, "target", store.PhaseAborted, false)
	ct.cfg.Broker.ReplicateAbort(m.MoveHeader)
	_ = ct.cfg.Broker.SendControl(message.MoveAbort{
		MoveHeader:  m.MoveHeader,
		To:          m.Source,
		Reason:      "replication quorum failure",
		Reconfigure: ct.cfg.Protocol == ProtocolReconfig,
	})
	ct.rollbackTarget(ttx)
}

// --- source-side handlers ---------------------------------------------------

// onApprove processes message (2) at the source coordinator. The broker has
// already applied this hop's routing reconfiguration (if any) before
// delivering the message here. The client is stopped and its state shipped.
func (ct *Container) onApprove(m message.MoveApprove) {
	ct.emit(EventApproveReceived, m.Tx, m.Client, "")
	ct.mu.Lock()
	st, ok := ct.source[m.Tx]
	if !ok || st.state != sourceWait {
		ct.mu.Unlock()
		if !ok {
			// Already aborted locally (e.g. timeout): undo the target's
			// preparation along the path.
			_ = ct.cfg.Broker.SendControl(message.MoveAbort{
				MoveHeader: m.MoveHeader, To: m.Target, Reason: "movement already aborted at source", Reconfigure: m.Reconfigure,
			})
		}
		return
	}
	st.state = sourcePrepared
	ct.mu.Unlock()
	if st.timer != nil {
		st.timer.Stop()
	}

	buffered, err := st.c.PrepareStop()
	if err != nil {
		return
	}

	if ct.cfg.Protocol == ProtocolEndToEnd {
		// Retract the old filters from the source; the target's re-issued
		// ones are fully propagated by now (the approval is sent only
		// after their propagation quiesced).
		srcNode := message.ClientNode(m.Client, ct.cfg.Broker.ID())
		for _, se := range st.subs {
			ct.cfg.Broker.Inject(srcNode, message.Unsubscribe{
				ID: se.ID, Client: m.Client, TxTag: m.Tx,
			})
		}
		for _, ae := range st.advs {
			ct.cfg.Broker.Inject(srcNode, message.Unadvertise{
				ID: ae.ID, Client: m.Client, TxTag: m.Tx,
			})
		}
	}

	// Ship the full stub state only where it is read: a remote target (TCP
	// deployment) reconstructs the stub from this payload — message (4) is
	// the actual vehicle of the client's state, as in the paper — while a
	// target in this process resolves the client through the shared
	// directory and would throw the payload away.
	var appState []byte
	if !ct.cfg.Directory.local(m.Target) {
		if appState, err = st.c.Serialize(); err != nil {
			appState = nil
		}
	}
	ct.emit(EventStateSent, m.Tx, m.Client, fmt.Sprintf("%d buffered notifications", len(buffered)))
	_ = ct.cfg.Broker.SendControl(message.MoveState{
		MoveHeader: m.MoveHeader,
		Buffered:   buffered,
		AppState:   appState,
	})
	// After the prepared point the source must wait for the outcome
	// (commit via ack, or abort): unilateral rollback is no longer safe
	// because the target may already have started the client. With
	// replication on, the wait is bounded: a probe timer fans a recovery
	// query out over the transaction's preference list, so a standby
	// finishes the move if the target coordinator died for good.
	if ct.cfg.Broker.ReplicationEnabled() {
		ct.armPreparedProbe(st, m.MoveHeader)
	}
}

// armPreparedProbe (re)arms the source-side timer that suspects a dead
// target coordinator after the prepared point.
func (ct *Container) armPreparedProbe(st *sourceTx, hdr message.MoveHeader) {
	wait := ct.cfg.MoveTimeout
	if wait <= 0 {
		wait = 2 * time.Second
	}
	ct.mu.Lock()
	if !ct.closed {
		st.timer = ct.clk.AfterFunc(wait, func() { ct.preparedProbe(hdr) })
	}
	ct.mu.Unlock()
}

// preparedProbe fires when a prepared movement saw no outcome within the
// move timeout: the source queries the target and every standby replica on
// the preference list, then arms the local-abort fallback in case the whole
// list is unreachable (the non-blocking termination rule).
func (ct *Container) preparedProbe(hdr message.MoveHeader) {
	ct.mu.Lock()
	if ct.closed {
		ct.mu.Unlock()
		return
	}
	st, ok := ct.source[hdr.Tx]
	if !ok || st.state != sourcePrepared {
		ct.mu.Unlock()
		return
	}
	st.timer = ct.clk.AfterFunc(ct.cfg.Broker.RecoveryWait(), func() { ct.preparedAbort(hdr) })
	ct.mu.Unlock()

	self := ct.cfg.Broker.ID()
	ct.emit(EventRecoveryFanout, hdr.Tx, hdr.Client, "prepared timeout; querying preference list")
	_ = ct.cfg.Broker.SendControl(message.MoveQuery{MoveHeader: hdr, From: self})
	for _, p := range ct.cfg.Broker.ReplicationPeers(hdr) {
		if p == hdr.Target || p == self {
			continue
		}
		_ = ct.cfg.Broker.SendControl(message.MoveQuery{MoveHeader: hdr, From: self, At: p})
	}
}

// preparedAbort is the source's last resort: the target coordinator and the
// entire preference list stayed silent past the recovery-query timeout, so
// the prepared movement is rolled back locally and the client resumed —
// the same bounded-divergence trade the restarted-broker fallback makes.
func (ct *Container) preparedAbort(hdr message.MoveHeader) {
	ct.mu.Lock()
	if ct.closed {
		ct.mu.Unlock()
		return
	}
	st, ok := ct.source[hdr.Tx]
	if !ok || st.state != sourcePrepared {
		ct.mu.Unlock()
		return
	}
	ct.mu.Unlock()
	_ = ct.cfg.Broker.SendControl(message.MoveAbort{
		MoveHeader:  hdr,
		To:          ct.cfg.Broker.ID(),
		Reason:      "recovery query timeout",
		Reconfigure: ct.cfg.Protocol == ProtocolReconfig,
	})
}

// onReject processes message (3) at the source coordinator.
func (ct *Container) onReject(m message.MoveReject) {
	ct.emit(EventRejectReceived, m.Tx, m.Client, m.Reason)
	ct.mu.Lock()
	st, ok := ct.source[m.Tx]
	if ok {
		delete(ct.source, m.Tx)
	}
	ct.mu.Unlock()
	if !ok {
		return
	}
	if st.timer != nil {
		st.timer.Stop()
	}
	st.c.Resume()
	ct.recordMovement(st, false)
	ct.emit(EventAborted, m.Tx, m.Client, "rejected: "+m.Reason)
	st.finish(ErrRejected)
}

// onAck processes message (5) at the source coordinator: the movement has
// committed; clean up the source copy.
func (ct *Container) onAck(m message.MoveAck) {
	ct.emit(EventAckReceived, m.Tx, m.Client, "")
	ct.mu.Lock()
	st, ok := ct.source[m.Tx]
	if ok {
		delete(ct.source, m.Tx)
		delete(ct.hosted, m.Client)
	}
	ct.mu.Unlock()
	if !ok {
		return
	}
	if st.timer != nil {
		st.timer.Stop()
	}

	srcNode := message.ClientNode(m.Client, ct.cfg.Broker.ID())
	ct.cfg.Broker.DetachClient(srcNode)
	ct.jnlClient(journal.KindClientDepart, m.Tx, m.Client, "source copy detached")

	if ct.cfg.Protocol == ProtocolEndToEnd && !ct.cfg.SkipPropagationWait {
		// The traditional movement is complete only when the retraction
		// cascade it triggered has settled.
		ct.spawn(func(ctx context.Context) {
			if err := ct.reg.AwaitTag(ctx, m.Tx); err != nil {
				st.finish(ErrShutdown)
				return
			}
			ct.reg.DropTag(m.Tx)
			ct.recordMovement(st, true)
			ct.emit(EventCommitted, m.Tx, m.Client, "after propagation quiescence")
			st.finish(nil)
		})
		return
	}
	ct.recordMovement(st, true)
	ct.emit(EventCommitted, m.Tx, m.Client, "")
	st.finish(nil)
}

// onAbort handles an abort arriving at either coordinator.
func (ct *Container) onAbort(m message.MoveAbort) {
	ct.emit(EventAbortReceived, m.Tx, m.Client, m.Reason)
	ct.mu.Lock()
	st, isSource := ct.source[m.Tx]
	ttx, isTarget := ct.target[m.Tx]
	delete(ct.source, m.Tx)
	delete(ct.target, m.Tx)
	ct.mu.Unlock()

	if isSource {
		if st.timer != nil {
			st.timer.Stop()
		}
		st.c.Resume()
		ct.recordMovement(st, false)
		ct.emit(EventAborted, m.Tx, m.Client, m.Reason)
		st.finish(ErrAborted)
	}
	if isTarget {
		if ttx.timer != nil {
			ttx.timer.Stop()
		}
		_ = ct.cfg.Broker.PersistDecision(m.MoveHeader, "target", store.PhaseAborted, false)
		ct.rollbackTarget(ttx)
	}
}

// onQuery answers a recovery probe at the target coordinator. The target is
// the commit decider and persists "committed" durably before the first
// acknowledgement leaves, so the answer is authoritative: a committed
// outcome is re-announced with a fresh acknowledgement (hops along the path
// re-apply the commit idempotently, including the restarted querier); no
// committed record means the movement cannot have committed anywhere, and
// the abort travels toward the querier rolling the prepared state back. A
// transaction still in flight gets no answer — it will resolve through the
// normal conversation, and the querier's local-abort fallback bounds the
// wait if it never does.
func (ct *Container) onQuery(m message.MoveQuery) {
	if m.At != "" && m.At != m.Target && m.At == ct.cfg.Broker.ID() {
		// Addressed to this broker as a standby replica, not as the target
		// coordinator: the replication agent answers from its record, or
		// opens a takeover bid when it holds none.
		if ct.cfg.Broker.ReplicationOnQuery(m) {
			return
		}
	}
	ct.emit(EventQueryReceived, m.Tx, m.Client, "from "+string(m.From))
	ct.mu.Lock()
	_, active := ct.target[m.Tx]
	ct.mu.Unlock()
	outcome, decided := ct.cfg.Broker.DecidedOutcome(m.Tx)
	switch {
	case decided && outcome == store.PhaseCommitted:
		ct.emit(EventQueryAnswered, m.Tx, m.Client, "committed; acknowledgement re-sent")
		_ = ct.cfg.Broker.SendControl(message.MoveAck{
			MoveHeader:  m.MoveHeader,
			Reconfigure: ct.cfg.Protocol == ProtocolReconfig,
		})
	case active && !decided:
		ct.emit(EventQueryAnswered, m.Tx, m.Client, "still in flight; no answer")
	default:
		ct.emit(EventQueryAnswered, m.Tx, m.Client, "no committed record; abort")
		_ = ct.cfg.Broker.SendControl(message.MoveAbort{
			MoveHeader:  m.MoveHeader,
			To:          m.From,
			Reason:      "recovery query: movement never committed",
			Reconfigure: ct.cfg.Protocol == ProtocolReconfig,
		})
	}
}

// onStandbyResolve applies a standby coordinator's resolution at this
// coordinator. The broker has already applied the hop-level routing effect;
// here the transaction state resolves as if the original coordinator had
// answered: a committed outcome behaves like the acknowledgement, anything
// else like an abort. The source additionally re-announces the resolution
// toward the (dead) target so every hop of the original path applies it,
// and releases the standby replicas.
func (ct *Container) onStandbyResolve(m message.StandbyResolve) {
	ct.emit(EventStandbyResolved, m.Tx, m.Client,
		fmt.Sprintf("outcome=%s gen=%d claimant=%s", m.Outcome, m.Gen, m.Claimant))
	self := ct.cfg.Broker.ID()
	reannounce := self == m.Source && m.To == self && ct.resolvedSource(m.Tx)
	if m.Outcome == store.PhaseCommitted {
		ct.onAck(message.MoveAck{
			MoveHeader: m.MoveHeader, Reconfigure: ct.cfg.Protocol == ProtocolReconfig, Gen: m.Gen,
		})
	} else {
		ct.onAbort(message.MoveAbort{
			MoveHeader:  m.MoveHeader,
			To:          self,
			Reason:      "standby resolution",
			Reconfigure: ct.cfg.Protocol == ProtocolReconfig,
		})
	}
	if reannounce {
		_ = ct.cfg.Broker.SendControl(message.StandbyResolve{
			MoveHeader: m.MoveHeader, Outcome: m.Outcome, Gen: m.Gen,
			Claimant: m.Claimant, To: m.Target,
		})
	}
}

// resolvedSource reports whether the transaction is still pending at this
// source coordinator (a duplicate resolution must not re-announce again).
func (ct *Container) resolvedSource(tx message.TxID) bool {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	_, ok := ct.source[tx]
	return ok
}

// --- timeouts (non-blocking variant) -----------------------------------------

func (ct *Container) sourceTimeout(tx message.TxID) {
	ct.mu.Lock()
	// A timer can fire concurrently with Shutdown; once closed, the
	// transaction has been resolved with ErrShutdown and the broker may be
	// stopped, so the timeout must do nothing.
	if ct.closed {
		ct.mu.Unlock()
		return
	}
	st, ok := ct.source[tx]
	if !ok || st.state != sourceWait {
		ct.mu.Unlock()
		return
	}
	delete(ct.source, tx)
	ct.mu.Unlock()
	ct.emit(EventSourceTimeout, tx, st.c.ID(), "")
	ct.emit(EventAbortSent, tx, st.c.ID(), "source timeout")

	// Clean up whatever the target may have prepared along the path.
	_ = ct.cfg.Broker.SendControl(message.MoveAbort{
		MoveHeader:  message.MoveHeader{Tx: tx, Client: st.c.ID(), Source: ct.cfg.Broker.ID(), Target: st.target},
		To:          st.target,
		Reason:      "source timeout waiting for approval",
		Reconfigure: ct.cfg.Protocol == ProtocolReconfig,
	})
	st.c.Resume()
	ct.recordMovement(st, false)
	ct.emit(EventAborted, tx, st.c.ID(), "source timeout")
	st.finish(ErrMoveTimeout)
}

func (ct *Container) armTargetTimer(ttx *targetTx) {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	ct.armTargetTimerLocked(ttx)
}

func (ct *Container) armTargetTimerLocked(ttx *targetTx) {
	if ct.cfg.MoveTimeout <= 0 || ct.closed {
		return
	}
	ttx.timer = ct.clk.AfterFunc(ct.cfg.MoveTimeout, func() { ct.targetTimeout(ttx.tx) })
}

func (ct *Container) targetTimeout(tx message.TxID) {
	ct.mu.Lock()
	// See sourceTimeout: a late timer must not act on a shut-down
	// container or its stopped broker.
	if ct.closed {
		ct.mu.Unlock()
		return
	}
	ttx, ok := ct.target[tx]
	if !ok {
		ct.mu.Unlock()
		return
	}
	delete(ct.target, tx)
	ct.mu.Unlock()
	ct.emit(EventTargetTimeout, tx, ttx.clientID, "")
	ct.emit(EventAbortSent, tx, ttx.clientID, "target timeout")

	hdr := message.MoveHeader{Tx: tx, Client: ttx.clientID, Source: ttx.source, Target: ct.cfg.Broker.ID()}
	_ = ct.cfg.Broker.PersistDecision(hdr, "target", store.PhaseAborted, false)
	_ = ct.cfg.Broker.SendControl(message.MoveAbort{
		MoveHeader:  hdr,
		To:          ttx.source,
		Reason:      "target timeout waiting for state transfer",
		Reconfigure: ct.cfg.Protocol == ProtocolReconfig,
	})
	ct.rollbackTarget(ttx)
}

// rollbackTarget undoes the target-side preparation: retract re-issued
// filters (end-to-end) and tear the shell down.
func (ct *Container) rollbackTarget(ttx *targetTx) {
	if ct.cfg.Protocol == ProtocolEndToEnd {
		for _, newID := range ttx.subIDMap {
			ct.cfg.Broker.Inject(ttx.shellNode, message.Unsubscribe{
				ID: newID, Client: ttx.clientID, TxTag: ttx.tx,
			})
		}
		for _, newID := range ttx.advIDMap {
			ct.cfg.Broker.Inject(ttx.shellNode, message.Unadvertise{
				ID: newID, Client: ttx.clientID, TxTag: ttx.tx,
			})
		}
	}
	ct.teardownShell(ttx)
}

func (ct *Container) teardownShell(ttx *targetTx) {
	ct.cfg.Broker.DetachClient(ttx.shellNode)
}

// --- helpers ------------------------------------------------------------------

func (ct *Container) recordMovement(st *sourceTx, committed bool) {
	// The movement is fully resolved at its source: stand the transaction's
	// standby replicas down (the release is the conversation's final
	// heartbeat; a replica that never receives it suspects the coordinator).
	ct.cfg.Broker.ReplicationRelease(message.MoveHeader{
		Tx: st.tx, Client: st.c.ID(), Source: ct.cfg.Broker.ID(), Target: st.target,
	})
	ct.reg.RecordMovement(metrics.Movement{
		Tx:        st.tx,
		Client:    st.c.ID(),
		Source:    ct.cfg.Broker.ID(),
		Target:    st.target,
		Protocol:  ct.cfg.Protocol.String(),
		Start:     st.start,
		End:       ct.clk.Now(),
		Committed: committed,
	})
}

// spawn runs fn on a container-managed goroutine whose context is cancelled
// at shutdown.
func (ct *Container) spawn(fn func(ctx context.Context)) {
	ct.mu.Lock()
	if ct.closed {
		ct.mu.Unlock()
		return
	}
	ct.wg.Add(1)
	ct.mu.Unlock()
	go func() {
		defer ct.wg.Done()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		go func() {
			select {
			case <-ct.stop:
				cancel()
			case <-ctx.Done():
			}
		}()
		fn(ctx)
	}()
}
