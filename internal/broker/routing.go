package broker

import (
	"sort"
	"strings"
	"time"

	"padres/internal/journal"
	"padres/internal/matching"
	"padres/internal/message"
	"padres/internal/predicate"
	"padres/internal/store"
)

// shadowSep separates a canonical record ID from the movement transaction
// that created its shadow (the prepared revised routing configuration).
const shadowSep = "~"

func shadowID[ID ~string](id ID, tx message.TxID) ID { return id + ID(shadowSep+string(tx)) }

func isShadowID(id string) bool { return strings.Contains(id, shadowSep) }

func canonicalID(id string) string {
	if i := strings.Index(id, shadowSep); i >= 0 {
		return id[:i]
	}
	return id
}

// --- journaled routing-table mutations --------------------------------------

// jnlRouting records one SRT/PRT mutation; tx attributes it to the movement
// transaction that caused it (empty for ordinary client traffic). The
// auditor replays these records to reconstruct each broker's final tables.
func (b *Broker) jnlRouting(kind, id string, client message.ClientID, lastHop message.NodeID, tx message.TxID) {
	j := b.journal()
	if j == nil {
		return
	}
	j.Add(journal.Record{
		Site: string(b.cfg.ID), Cat: journal.CatRouting, Kind: kind,
		Lamport: b.clock(j).Tick(), Tx: string(tx), Client: string(client),
		Ref: id, To: string(lastHop),
	})
}

// srtInsert, srtRemove, prtInsert, prtRemove are the journaled, write-ahead
// logged forms of the routing-table mutations; all broker code mutates the
// tables through them.
func (b *Broker) srtInsert(id message.AdvID, client message.ClientID, f *predicate.Filter, lastHop message.NodeID, tx message.TxID) {
	b.srt.Insert(id, client, f, lastHop)
	b.jnlRouting(journal.KindSRTInsert, string(id), client, lastHop, tx)
	b.wal(store.Record{
		Op: store.OpSRTInsert, ID: string(id), Client: string(client),
		Filter: f, Hop: string(lastHop), Tx: string(tx),
	})
}

func (b *Broker) srtRemove(id message.AdvID, tx message.TxID) *matching.Record {
	rec := b.srt.Remove(id)
	if rec != nil {
		b.jnlRouting(journal.KindSRTRemove, string(id), rec.Client, rec.LastHop, tx)
		b.wal(store.Record{Op: store.OpSRTRemove, ID: string(id), Tx: string(tx)})
	}
	return rec
}

func (b *Broker) prtInsert(id message.SubID, client message.ClientID, f *predicate.Filter, lastHop message.NodeID, tx message.TxID) {
	b.prt.Insert(id, client, f, lastHop)
	b.jnlRouting(journal.KindPRTInsert, string(id), client, lastHop, tx)
	b.wal(store.Record{
		Op: store.OpPRTInsert, ID: string(id), Client: string(client),
		Filter: f, Hop: string(lastHop), Tx: string(tx),
	})
}

func (b *Broker) prtRemove(id message.SubID, tx message.TxID) *matching.Record {
	rec := b.prt.Remove(id)
	if rec != nil {
		b.jnlRouting(journal.KindPRTRemove, string(id), rec.Client, rec.LastHop, tx)
		b.wal(store.Record{Op: store.OpPRTRemove, ID: string(id), Tx: string(tx)})
	}
	return rec
}

// --- sent-tracking ----------------------------------------------------------

// sentSet records which neighbors each filter of one kind (subscription or
// advertisement) was forwarded to — the quenching state the covering
// optimization depends on. It is guarded by the broker's mutex and every
// change is written ahead under the kind's own three op codes.
type sentSet[ID ~string] struct {
	b                       *Broker
	to                      map[ID]map[message.NodeID]bool
	markOp, clearOp, dropOp store.Op
}

func newSentSet[ID ~string](b *Broker, markOp, clearOp, dropOp store.Op) *sentSet[ID] {
	return &sentSet[ID]{b: b, to: make(map[ID]map[message.NodeID]bool), markOp: markOp, clearOp: clearOp, dropOp: dropOp}
}

func (s *sentSet[ID]) has(id ID, n message.NodeID) bool {
	s.b.mu.Lock()
	defer s.b.mu.Unlock()
	return s.to[id][n]
}

func (s *sentSet[ID]) mark(id ID, n message.NodeID) {
	s.b.mu.Lock()
	set, ok := s.to[id]
	if !ok {
		set = make(map[message.NodeID]bool)
		s.to[id] = set
	}
	set[n] = true
	s.b.mu.Unlock()
	s.b.wal(store.Record{Op: s.markOp, ID: string(id), Hop: string(n)})
}

func (s *sentSet[ID]) clear(id ID, n message.NodeID) {
	s.b.mu.Lock()
	delete(s.to[id], n)
	s.b.mu.Unlock()
	s.b.wal(store.Record{Op: s.clearOp, ID: string(id), Hop: string(n)})
}

// targets returns the neighbors the filter was forwarded to, sorted.
func (s *sentSet[ID]) targets(id ID) []message.NodeID {
	s.b.mu.Lock()
	defer s.b.mu.Unlock()
	out := make([]message.NodeID, 0, len(s.to[id]))
	for n := range s.to[id] {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (s *sentSet[ID]) drop(id ID) {
	s.b.mu.Lock()
	delete(s.to, id)
	s.b.mu.Unlock()
	s.b.wal(store.Record{Op: s.dropOp, ID: string(id)})
}

// restore loads the recovered set (called from New, before dispatch runs;
// the state is already in the log, so nothing is written).
func (s *sentSet[ID]) restore(saved map[string][]string) {
	for id, hops := range saved {
		set := make(map[message.NodeID]bool, len(hops))
		for _, n := range hops {
			set[message.NodeID(n)] = true
		}
		s.to[ID(id)] = set
	}
}

// --- advertisement handling -------------------------------------------------

func (b *Broker) handleAdvertise(m message.Advertise, from message.NodeID) {
	b.srtInsert(m.ID, m.Client, m.Filter, from, m.TxTag)

	// Advertisements flood: forward to every neighbor except the one the
	// advertisement came from (modulo covering quench).
	for _, n := range b.cfg.Neighbors {
		if n.Node() == from {
			continue
		}
		b.maybeSendAdv(m.ID, m.Client, m.Filter, n.Node(), m.TxTag)
	}

	// Subscriptions that intersect the new advertisement must be forwarded
	// toward it (the advertisement's last hop), unless it was issued by a
	// local client, in which case its publications originate here.
	if !b.isNeighbor(from) {
		return
	}
	for _, rec := range b.prt.Intersecting(m.Filter) {
		if rec.LastHop == from {
			continue
		}
		id := message.SubID(canonicalID(rec.ID))
		b.maybeSendSub(id, rec.Client, rec.Filter, from, m.TxTag)
	}
}

func (b *Broker) handleUnadvertise(m message.Unadvertise, from message.NodeID) {
	rec := b.srtRemove(m.ID, m.TxTag)
	if rec == nil {
		return
	}
	targets := b.sentAdvs.targets(m.ID)

	// Un-quench first: advertisements that were covered by the retracted
	// one must now be forwarded, before the unadvertise propagates, so
	// downstream brokers never observe a gap (links are FIFO).
	if b.cfg.Covering {
		for _, n := range targets {
			for _, covered := range b.srt.CoveredBy(rec.Filter, m.ID) {
				if isShadowID(covered.ID) || covered.LastHop == n {
					continue
				}
				b.maybeSendAdv(message.AdvID(covered.ID), covered.Client, covered.Filter, n, m.TxTag)
			}
		}
	}

	for _, n := range targets {
		b.send(n, message.Unadvertise{ID: m.ID, Client: m.Client, TxTag: m.TxTag})
	}
	b.sentAdvs.drop(m.ID)
}

// maybeSendAdv forwards an advertisement to neighbor n unless it was
// already sent, n is its last hop, or (with covering) a covering
// advertisement was already sent to n. When it does forward and covering is
// enabled, previously forwarded advertisements covered by this one are
// unadvertised over the link — the behaviour that makes covering expensive
// under mobility (Sec. 4.4).
func (b *Broker) maybeSendAdv(id message.AdvID, client message.ClientID, f *predicate.Filter, n message.NodeID, tag message.TxID) {
	if !b.isNeighbor(n) {
		return
	}
	if b.sentAdvs.has(id, n) {
		return
	}
	if rec := b.srt.Get(id); rec != nil && rec.LastHop == n {
		return
	}
	if b.cfg.Covering {
		for _, cov := range b.srt.Covering(f, id) {
			if isShadowID(cov.ID) || cov.LastHop == n {
				continue
			}
			if b.sentAdvs.has(message.AdvID(cov.ID), n) {
				return // quenched by a covering advertisement
			}
		}
	}
	b.send(n, message.Advertise{ID: id, Client: client, Filter: f, TxTag: tag})
	b.sentAdvs.mark(id, n)
	if b.cfg.Covering {
		for _, covered := range b.srt.CoveredBy(f, id) {
			if isShadowID(covered.ID) {
				continue
			}
			cid := message.AdvID(covered.ID)
			if b.sentAdvs.has(cid, n) {
				b.send(n, message.Unadvertise{ID: cid, Client: covered.Client, TxTag: tag})
				b.sentAdvs.clear(cid, n)
			}
		}
	}
}

// --- subscription handling --------------------------------------------------

func (b *Broker) handleSubscribe(m message.Subscribe, from message.NodeID) {
	b.prtInsert(m.ID, m.Client, m.Filter, from, m.TxTag)

	// Forward toward the last hops of all intersecting advertisements
	// (including prepared shadow configurations, so that movements in
	// progress keep both routes alive).
	seen := make(map[message.NodeID]bool)
	for _, adv := range b.srt.Intersecting(m.Filter) {
		d := adv.LastHop
		if d == from || seen[d] {
			continue
		}
		seen[d] = true
		b.maybeSendSub(m.ID, m.Client, m.Filter, d, m.TxTag)
	}
}

func (b *Broker) handleUnsubscribe(m message.Unsubscribe, from message.NodeID) {
	rec := b.prtRemove(m.ID, m.TxTag)
	if rec == nil {
		return
	}
	targets := b.sentSubs.targets(m.ID)

	// Un-quench before propagating the unsubscription: subscriptions that
	// were covered by the retracted one — and therefore never forwarded —
	// must now be sent wherever they are needed. With covering enabled this
	// is the cascade that makes moving a covering (root) subscription
	// expensive.
	if b.cfg.Covering {
		for _, n := range targets {
			for _, covered := range b.prt.CoveredBy(rec.Filter, m.ID) {
				if isShadowID(covered.ID) || covered.LastHop == n {
					continue
				}
				if !b.subNeedsHop(covered, n) {
					continue
				}
				id := message.SubID(canonicalID(covered.ID))
				b.maybeSendSub(id, covered.Client, covered.Filter, n, m.TxTag)
			}
		}
	}

	for _, n := range targets {
		b.send(n, message.Unsubscribe{ID: m.ID, Client: m.Client, TxTag: m.TxTag})
	}
	b.sentSubs.drop(m.ID)
}

// subNeedsHop reports whether the subscription must be forwarded to n to
// reach some advertisement whose last hop is n.
func (b *Broker) subNeedsHop(rec *matching.Record, n message.NodeID) bool {
	for _, adv := range b.srt.Intersecting(rec.Filter) {
		if adv.LastHop == n {
			return true
		}
	}
	return false
}

// maybeSendSub forwards a subscription to neighbor n unless it was already
// sent, n is its last hop, or (with covering) a covering subscription was
// already forwarded to n. When it does forward with covering enabled,
// previously forwarded subscriptions covered by this one are unsubscribed
// over the link.
func (b *Broker) maybeSendSub(id message.SubID, client message.ClientID, f *predicate.Filter, n message.NodeID, tag message.TxID) {
	if !b.isNeighbor(n) {
		return
	}
	if b.sentSubs.has(id, n) {
		return
	}
	if rec := b.prt.Get(id); rec != nil && rec.LastHop == n {
		return
	}
	if b.cfg.Covering {
		for _, cov := range b.prt.Covering(f, id) {
			if isShadowID(cov.ID) || cov.LastHop == n {
				continue
			}
			if b.sentSubs.has(message.SubID(cov.ID), n) {
				return // quenched by a covering subscription
			}
		}
	}
	b.send(n, message.Subscribe{ID: id, Client: client, Filter: f, TxTag: tag})
	b.sentSubs.mark(id, n)
	if b.cfg.Covering {
		for _, covered := range b.prt.CoveredBy(f, id) {
			if isShadowID(covered.ID) {
				continue
			}
			cid := message.SubID(covered.ID)
			if b.sentSubs.has(cid, n) {
				b.send(n, message.Unsubscribe{ID: cid, Client: covered.Client, TxTag: tag})
				b.sentSubs.clear(cid, n)
			}
		}
	}
}

// --- publication handling ---------------------------------------------------

// pubAction is one outbound effect of a publication: a forward to a
// neighbor broker (deliver nil) or a delivery to a local client.
type pubAction struct {
	dest      message.NodeID
	deliver   ClientDeliver
	subClient message.ClientID
}

// planPublish matches a publication against the routing tables and appends
// its outbound actions (forwards and local deliveries) to actions without
// performing them. It is pure — it reads the tables through their lock-free
// match snapshots and writes only its own result — so dispatch may run it
// concurrently for a run of publications. On the serial path it produces no
// garbage: matches land in a stack buffer, the caller supplies the action
// buffer, and destinations are de-duplicated by scanning the actions so
// far, which are at most one per neighbor and local client. t0 is the clock
// read the match stage opens on: dispatch's own on the serial path, so a
// publication costs one read for both timers, and a fresh one per
// publication under planAll.
func (b *Broker) planPublish(m message.Publish, from message.NodeID, actions []pubAction, t0 time.Time) []pubAction {
	// A publication is valid only if some advertisement (from its
	// publisher's flooded advertisement tree) matches it.
	if !b.srt.MatchAny(m.Event) {
		b.tel.MatchLatency.Observe(b.clk.Since(t0))
		b.tel.DroppedPublications.Inc()
		return actions
	}
	var buf [16]*matching.Record
	matched := b.prt.MatchInto(m.Event, buf[:0])
	b.tel.MatchLatency.Observe(b.clk.Since(t0))
next:
	for _, sub := range matched {
		d := sub.LastHop
		if d == from {
			continue
		}
		for i := range actions {
			if actions[i].dest == d {
				continue next
			}
		}
		switch {
		case b.isNeighbor(d):
			actions = append(actions, pubAction{dest: d})
		default:
			if deliver := b.localClient(d); deliver != nil {
				actions = append(actions, pubAction{dest: d, deliver: deliver, subClient: sub.Client})
			}
			// Otherwise the last hop is stale (e.g. a detached client):
			// drop silently.
		}
	}
	return actions
}

// handlePublish plans and forwards one publication. env.Msg holds m.
func (b *Broker) handlePublish(env message.Envelope, m message.Publish, t0 time.Time) {
	var buf [8]pubAction
	b.forwardPublish(env.Msg, b.planPublish(m, env.From, buf[:0], t0))
}

// forwardPublish performs a publication's planned actions in order, on the
// dispatching goroutine. It takes the publication as the Message the
// dispatcher already holds, so forwarding it to any number of neighbors
// sends that one box and never allocates another.
func (b *Broker) forwardPublish(msg message.Message, actions []pubAction) {
	for _, a := range actions {
		if a.deliver == nil {
			b.send(a.dest, msg)
			continue
		}
		m := msg.(message.Publish)
		b.journalDeliver(m, a.subClient, a.dest)
		a.deliver(m)
	}
}

// journalDeliver records a local client delivery in the flight recorder.
func (b *Broker) journalDeliver(m message.Publish, client message.ClientID, to message.NodeID) {
	j := b.journal()
	if j == nil {
		return
	}
	j.Add(journal.Record{
		Site: string(b.cfg.ID), Cat: journal.CatBroker, Kind: journal.KindDeliver,
		Lamport: b.clock(j).Tick(), Tx: string(m.TxTag),
		Client: string(client), Ref: string(m.ID), To: string(to),
	})
}
