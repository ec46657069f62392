package broker

import (
	"padres/internal/journal"
	"padres/internal/message"
	"padres/internal/replication"
	"padres/internal/store"
	"padres/internal/telemetry"
)

// This file wires the broker to its replication agent: construction and
// recovery seeding, the durable-store and journal hooks the agent acts
// through, dispatch of the replication message kinds, and the fencing gate
// on MoveAck.

// initReplication builds the agent from Config.Replication (nil or disabled
// leaves the broker without one) and seeds it with recovered replica and
// fence state.
func (b *Broker) initReplication(rec *store.Recovery) {
	cfg := b.cfg.Replication
	if cfg == nil || !cfg.Enabled {
		return
	}
	b.replTel = telemetry.NewReplicationMetrics()
	b.repl = replication.NewAgent(*cfg, replication.Hooks{
		Self:  b.cfg.ID,
		Clock: b.clk,
		Send:  func(m message.Message) { _ = b.SendControl(m) },
		PersistReplica: func(hdr message.MoveHeader, outcome string, gen uint64) error {
			if b.store == nil {
				return nil
			}
			return b.store.AppendSync(store.Record{
				Op: store.OpReplica, Tx: string(hdr.Tx), Client: string(hdr.Client),
				Source: string(hdr.Source), Target: string(hdr.Target),
				Outcome: outcome, Gen: gen,
			})
		},
		PersistFence: func(tx message.TxID, gen uint64) {
			b.wal(store.Record{Op: store.OpFence, Tx: string(tx), Gen: gen})
		},
		Journal:      b.journalReplication,
		KnownOutcome: b.DecidedOutcome,
		Metrics:      b.replTel,
	})
	if rec != nil && rec.State != nil {
		replicas := make(map[message.TxID]store.ReplicaDecision, len(rec.State.Replicas))
		for tx, d := range rec.State.Replicas {
			replicas[message.TxID(tx)] = d
		}
		fences := make(map[message.TxID]uint64, len(rec.State.Fences))
		for tx, g := range rec.State.Fences {
			fences[message.TxID(tx)] = g
		}
		if len(replicas) > 0 || len(fences) > 0 {
			b.repl.Seed(replicas, fences)
		}
	}
}

// journalReplication records one replication protocol step in the flight
// recorder as a protocol record, mirroring how coordinator events land there.
func (b *Broker) journalReplication(kind string, tx message.TxID, cl message.ClientID, detail string) {
	j := b.journal()
	if j == nil || !j.Enabled() {
		return
	}
	site := string(b.cfg.ID)
	j.Add(journal.Record{
		Site: site, Cat: journal.CatProtocol, Kind: kind,
		Lamport: b.clock(j).Tick(), Tx: string(tx), Client: string(cl), Detail: detail,
	})
}

// ReplicationEnabled reports whether this broker runs the replication layer.
func (b *Broker) ReplicationEnabled() bool { return b.repl != nil }

// ReplicationMetrics returns the agent's instruments, or nil without one.
func (b *Broker) ReplicationMetrics() *telemetry.ReplicationMetrics { return b.replTel }

// ReplicationPeers returns every broker a decision record for the
// transaction can live at — the preference list (coordinator first) plus
// the hinted-handoff fallback set — or nil when replication is off.
// Recovery queries fan out over this whole set: a commit whose quorum was
// completed through a hint holder is still discoverable after every
// preferred replica died.
func (b *Broker) ReplicationPeers(hdr message.MoveHeader) []message.BrokerID {
	if b.repl == nil {
		return nil
	}
	return b.repl.QueryTargets(hdr)
}

// ReplicateCommit starts the coordinator-side quorum write for a commit
// decision and reports whether replication is engaged; with replication off
// it returns false and the caller proceeds directly. done runs exactly once
// with the quorum verdict.
func (b *Broker) ReplicateCommit(hdr message.MoveHeader, done func(ok bool)) bool {
	if b.repl == nil {
		return false
	}
	b.repl.ReplicateCommit(hdr, done)
	return true
}

// CommitPipelined reports whether the commit decision for this transaction
// may ride ahead of its quorum round: the first standby replica sits on the
// acknowledgement's own path and per-link FIFO serializes its durable
// append before the ack passes, so the coordinator sends the MoveAck
// immediately and defers only the client start to the quorum confirmation.
// False with replication off or when the preference list leaves the path.
func (b *Broker) CommitPipelined(hdr message.MoveHeader) bool {
	return b.repl != nil && b.repl.Pipelined(hdr)
}

// ReplicateAbort replicates an abort decision best-effort.
func (b *Broker) ReplicateAbort(hdr message.MoveHeader) {
	if b.repl != nil {
		b.repl.ReplicateAbort(hdr)
	}
}

// ReplicationRelease stands the transaction's standby replicas down; the
// source coordinator calls it when a movement fully resolves.
func (b *Broker) ReplicationRelease(hdr message.MoveHeader) {
	if b.repl != nil {
		b.repl.Release(hdr)
	}
}

// ReplicationOnQuery offers a recovery query addressed to this broker as a
// preference-list member to the agent; false means the container should
// answer it through the coordinator path.
func (b *Broker) ReplicationOnQuery(m message.MoveQuery) bool {
	if b.repl == nil {
		return false
	}
	return b.repl.OnQuery(m)
}

// handleReplication dispatches the replication message kinds: forward toward
// the explicit destination, or hand the arrived message to the agent. A
// broker without an agent still forwards (it may sit on the path between
// two replicated brokers).
func (b *Broker) handleReplication(env message.Envelope) {
	dest, ok := message.Dest(env.Msg)
	if !ok {
		return
	}
	if dest != b.cfg.ID {
		if hop, err := b.nextHopToward(dest); err == nil {
			b.send(hop.Node(), env.Msg)
		}
		return
	}
	if b.repl == nil {
		return
	}
	switch m := env.Msg.(type) {
	case message.ReplicateDecision:
		b.repl.OnReplicateDecision(m)
	case message.ReplicaAck:
		b.repl.OnReplicaAck(m)
	case message.LeaseClaim:
		b.repl.OnLeaseClaim(m)
	}
}

// handleStandbyResolve applies a standby coordinator's resolution at every
// hop it crosses — committing or aborting the prepared reconfiguration
// exactly like MoveAck/MoveAbort — records the fencing generation so stale
// acknowledgements from a superseded coordinator are rejected here, and
// delivers the message to the local container at its destination.
func (b *Broker) handleStandbyResolve(m message.StandbyResolve, from message.NodeID) {
	if m.Outcome == store.PhaseCommitted {
		b.commitReconfig(m.Tx)
	} else {
		b.abortReconfig(m.Tx)
	}
	if b.repl != nil {
		b.repl.ObserveResolve(m)
	}
	if m.To == b.cfg.ID {
		b.deliverControl(message.Envelope{From: from, Msg: m})
		return
	}
	if hop, err := b.nextHopToward(m.To); err == nil {
		b.send(hop.Node(), m)
	}
}
