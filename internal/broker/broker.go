// Package broker implements a content-based publish/subscribe broker in the
// PADRES style: a Subscription Routing Table (SRT) of advertisements routes
// subscriptions toward publishers, and a Publication Routing Table (PRT) of
// subscriptions routes publications toward subscribers, hop-by-hop over an
// acyclic overlay.
//
// The broker supports two features central to the paper:
//
//   - The covering optimization (Sec. 2): forwarding of subscriptions
//     (advertisements) already covered by previously forwarded ones is
//     quenched, and retracting a covering filter un-quenches — and therefore
//     floods — the filters it covered. This un-quenching cascade is the
//     pathology the paper attributes to the traditional covering-based
//     movement protocol.
//
//   - The hop-by-hop routing reconfiguration protocol (Sec. 4.4): brokers on
//     the unique path between a movement's source and target brokers prepare
//     a revised routing configuration rc(adv') next to the existing rc(adv),
//     keeping both active until the movement transaction commits (delete old)
//     or aborts (delete revised), which confines movement traffic to the
//     path.
//
// Each broker dispatches its FIFO inbox — unbounded by default, bounded
// with producer backpressure under Config.InboxCapacity — one message at a
// time through a single step function (dispatch.go). Two thin drivers
// (driver.go) pace that step: a goroutine in production, one armed event
// per broker under the simulator. An optional per-message service time
// models broker processing cost so that propagation bursts congest the
// broker queues, as they do in the paper's testbed.
package broker

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"padres/internal/journal"
	"padres/internal/matching"
	"padres/internal/message"
	"padres/internal/replication"
	"padres/internal/ring"
	"padres/internal/sim"
	"padres/internal/store"
	"padres/internal/telemetry"
	"padres/internal/transport"
)

// ControlSink receives movement control messages whose destination is this
// broker's coordinator. The callback runs on the broker's processing
// goroutine and must not block.
type ControlSink func(env message.Envelope)

// ClientDeliver receives notifications for a client co-located with the
// broker (in its mobile container). Delivery is synchronous with the
// broker's message processing, which mirrors the paper's model of clients
// living inside the container: a notification handed to the client is
// ordered with respect to the coordinator actions that stop the client.
type ClientDeliver func(pub message.Publish)

// Config configures a broker.
type Config struct {
	ID message.BrokerID
	// Net is the transport the broker sends and receives through.
	Net *transport.Network
	// Neighbors are the broker's overlay neighbors.
	Neighbors []message.BrokerID
	// NextHops maps every other broker to the neighbor toward it; used to
	// forward movement control messages. Computed from the topology via
	// overlay.Topology.NextHops.
	NextHops map[message.BrokerID]message.BrokerID
	// Covering enables the subscription/advertisement covering
	// optimization.
	Covering bool
	// ServiceTime is the simulated processing cost per routing message
	// (publication, subscription, advertisement, or retraction), which is
	// dominated by matching against the routing tables. Movement control
	// messages cost a quarter of it: forwarding them is a routing-table
	// lookup, not a matching pass.
	ServiceTime time.Duration
	// Workers sets the width of publication matching: with Workers > 1 the
	// dispatcher takes up to Workers consecutive publications off the inbox
	// head at once, matches them concurrently, and then forwards and
	// delivers them itself in inbox order, so per-source→per-link FIFO
	// order is preserved. Control and routing-state messages (3PC,
	// subscriptions, advertisements, retractions) are always dispatched
	// singly. Values <= 1 match one publication at a time.
	Workers int
	// InboxCapacity bounds the broker inbox. When the inbox is full the
	// transport handler blocks, which propagates backpressure to the
	// sending link goroutines instead of growing the queue without bound.
	// 0 keeps the unbounded inbox, as does running under the simulator,
	// whose single event loop cannot block a producer.
	InboxCapacity int
	// DataDir, when non-empty, enables durable broker state: routing-table
	// mutations and movement-transaction transitions are written ahead to a
	// log in this directory, checkpointed into snapshots, and recovered by
	// New on restart (including resolution of in-flight movements).
	DataDir string
	// SnapshotEvery overrides the store's checkpoint cadence (WAL records
	// between snapshots); 0 keeps the store default, negative disables
	// automatic checkpoints. Ignored without DataDir.
	SnapshotEvery int
	// RecoveryQueryTimeout bounds how long a restarted broker waits for the
	// target coordinator to answer a MoveQuery about an in-doubt movement
	// before aborting its prepared state locally (the non-blocking
	// termination rule). 0 selects 3s. Ignored without DataDir.
	RecoveryQueryTimeout time.Duration
	// Replication, when non-nil and enabled, attaches a replication agent:
	// coordinator decisions are quorum-replicated to the transaction's
	// preference list and a standby replica finishes in-doubt movements if
	// the coordinator dies without restarting.
	Replication *replication.Config
}

// Broker is one content-based pub/sub broker.
type Broker struct {
	cfg    Config
	tel    *telemetry.BrokerMetrics
	jclock atomic.Pointer[brokerClock]
	// clk is the broker's time source, inherited from the transport so one
	// cluster-wide knob switches real and simulated time. sched is non-nil
	// under the simulator and selects the event driver (driver.go).
	clk   sim.Clock
	sched sim.Scheduler

	srt *matching.SRT
	prt *matching.PRT

	mu    sync.Mutex
	inbox ring.Queue[inboxItem]
	// batch is the scratch, Workers items wide, that next() fills with the
	// work of one dispatch. One batch is in flight per broker under either
	// driver, so it is reused.
	batch     []inboxItem
	cond      *sync.Cond // signalled when the inbox gains a message or stops
	spaceCond *sync.Cond // signalled when the bounded inbox frees a slot
	stopped   bool
	paused    bool
	armed     bool // the event driver's one wake-up is posted or in service
	clients   map[message.NodeID]ClientDeliver
	sentSubs  *sentSet[message.SubID]
	sentAdvs  *sentSet[message.AdvID]
	// reconfigs holds every movement transaction prepared here until its
	// commit or abort has fully applied, in the form the log persists it.
	reconfigs map[message.TxID]*store.ReconfigRecord
	controlFn ControlSink
	neighbors map[message.BrokerID]bool
	done      chan struct{}

	// wakes holds the receiver wake-ups DeferWake is holding back, held
	// counts the dispatches since the first of them, and spare is the list
	// the dispatch goroutine issued last, kept for reuse (driver.go). All
	// three are guarded by mu.
	wakes, spare []func()
	held         int

	// Durable state (nil / empty without Config.DataDir).
	store    *store.Store
	storeTel *telemetry.StoreMetrics
	// outcomes are the coordinator decisions this broker has durably
	// recorded; they answer recovery MoveQuery probes.
	outcomes map[message.TxID]string
	// indoubt lists movements recovered in prepared state, queried at Start.
	indoubt []message.MoveHeader
	// queryTimers arm the local-abort fallback per in-doubt movement.
	queryTimers map[message.TxID]sim.Timer

	// repl is the replication agent (nil without Config.Replication).
	repl    *replication.Agent
	replTel *telemetry.ReplicationMetrics
}

// New creates a broker and registers it with the transport. With
// Config.DataDir set it opens (or recovers) the broker's durable store
// first: tables are rebuilt from snapshot + log replay, resolved movement
// transactions are finished, and in-doubt ones are queued for the recovery
// query protocol that Start initiates. Call Start to begin processing and
// Stop to shut down.
func New(cfg Config) (*Broker, error) {
	b := &Broker{
		cfg:       cfg,
		tel:       telemetry.NewBrokerMetrics(),
		srt:       matching.NewSRT(),
		prt:       matching.NewPRT(),
		clients:   make(map[message.NodeID]ClientDeliver),
		reconfigs: make(map[message.TxID]*store.ReconfigRecord),
		neighbors: make(map[message.BrokerID]bool, len(cfg.Neighbors)),
		batch:     make([]inboxItem, max(1, cfg.Workers)),
		outcomes:  make(map[message.TxID]string),
		done:      make(chan struct{}),
		clk:       cfg.Net.Clock(),
		sched:     cfg.Net.Scheduler(),
	}
	b.cond = sync.NewCond(&b.mu)
	b.spaceCond = sync.NewCond(&b.mu)
	b.sentSubs = newSentSet[message.SubID](b, store.OpSentSubMark, store.OpSentSubClear, store.OpSentSubDrop)
	b.sentAdvs = newSentSet[message.AdvID](b, store.OpSentAdvMark, store.OpSentAdvClear, store.OpSentAdvDrop)
	for _, n := range cfg.Neighbors {
		b.neighbors[n] = true
	}
	var rec *store.Recovery
	if cfg.DataDir != "" {
		b.storeTel = telemetry.NewStoreMetrics()
		st, err := store.Open(cfg.DataDir, store.Options{
			SnapshotEvery: cfg.SnapshotEvery,
			Metrics:       b.storeTel,
		})
		if err != nil {
			return nil, fmt.Errorf("broker %s: %w", cfg.ID, err)
		}
		b.store = st
		rec = st.Recovery()
		b.applyRecovery(rec)
	}
	b.initReplication(rec)
	cfg.Net.Register(cfg.ID.Node(), b.enqueue)
	return b, nil
}

// ID returns the broker's identifier.
func (b *Broker) ID() message.BrokerID { return b.cfg.ID }

// Covering reports whether the covering optimization is enabled.
func (b *Broker) Covering() bool { return b.cfg.Covering }

// SetControlSink installs the coordinator callback for control messages
// addressed to this broker.
func (b *Broker) SetControlSink(fn ControlSink) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.controlFn = fn
}

// Start launches the processing goroutine and, after a recovery that left
// in-doubt movement transactions, begins resolving them by querying their
// target coordinators.
func (b *Broker) Start() {
	b.startDriver()
	b.mu.Lock()
	pending := b.indoubt
	b.indoubt = nil
	b.mu.Unlock()
	for _, hdr := range pending {
		b.queryInDoubt(hdr)
	}
}

// Stop terminates the processing goroutine and waits for it to exit.
// Messages remaining in the inbox — and one still paying its simulated
// service delay — are released without processing.
func (b *Broker) Stop() {
	b.mu.Lock()
	if b.stopped {
		b.mu.Unlock()
		b.waitDriver()
		return
	}
	b.stopped = true
	for b.inbox.Len() > 0 {
		b.cfg.Net.Done(b.inbox.Pop().env.Msg)
	}
	b.tel.QueueDepth.Set(0)
	for _, t := range b.queryTimers {
		t.Stop()
	}
	b.queryTimers = nil
	b.cond.Signal()
	b.spaceCond.Broadcast()
	b.mu.Unlock()
	b.waitDriver()
	if b.repl != nil {
		b.repl.Stop()
	}
	if b.store != nil {
		// Drain and fsync the write-ahead log after the dispatch goroutine
		// has appended its last record.
		b.store.Close()
	}
}

// Pause freezes message processing without dropping anything: inbound
// messages keep queueing. Models an arbitrarily slow broker (the unbounded
// message-delay regime of Sec. 4.1). Unpause resumes processing.
func (b *Broker) Pause() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.paused = true
}

// Unpause resumes processing after Pause.
func (b *Broker) Unpause() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.paused = false
	b.wakeLocked()
}

// AttachClient registers a locally connected client by its
// location-qualified node identity (see message.ClientNode), with the
// callback that receives its notifications.
func (b *Broker) AttachClient(n message.NodeID, deliver func(pub message.Publish)) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.clients[n] = deliver
}

// DetachClient removes a locally connected client. Its routing state is not
// retracted; callers retract or move it explicitly.
func (b *Broker) DetachClient(n message.NodeID) {
	b.mu.Lock()
	defer b.mu.Unlock()
	delete(b.clients, n)
}

// HasClient reports whether the client node is attached here.
func (b *Broker) HasClient(n message.NodeID) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	_, ok := b.clients[n]
	return ok
}

// QueueLen returns the current inbox length (used by admission control; for
// a full snapshot of the broker's runtime counters use Stats).
func (b *Broker) QueueLen() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.inbox.Len()
}

// Metrics returns the broker's lock-free runtime instruments, for
// registration with a telemetry.Registry.
func (b *Broker) Metrics() *telemetry.BrokerMetrics { return b.tel }

// StoreMetrics returns the durable store's instruments, or nil when the
// broker runs without a data directory.
func (b *Broker) StoreMetrics() *telemetry.StoreMetrics { return b.storeTel }

// DurableStore returns the broker's write-ahead store, or nil when the
// broker runs in-memory only.
func (b *Broker) DurableStore() *store.Store { return b.store }

// PeerLinkState records a circuit-breaker transition on one of this
// broker's overlay links. Safe from any goroutine; the transport's
// link-state callback is the intended caller.
func (b *Broker) PeerLinkState(peer message.NodeID, up bool) {
	if up {
		b.tel.LinksDown.Dec()
	} else {
		b.tel.LinksDown.Inc()
		b.tel.LinkDownEvents.Inc()
	}
}

// Stats is a point-in-time snapshot of one broker's runtime state.
type Stats struct {
	ID                  message.BrokerID
	QueueDepth          int
	QueueHighWater      int64
	BackpressureWaits   int64
	Processed           int64
	DroppedPublications int64
	SRTSize             int
	PRTSize             int
	PRTIndexBuilds      int // full builds of the PRT match index; table writes must not drive it one for one
	SendsByKind         map[message.Kind]int64
	TotalSends          int64
	// JournalDropped counts flight-recorder records this broker's network
	// journal overwrote (ring overflow). Non-zero means audits over the
	// journal are working from incomplete evidence — at best LOSSY.
	JournalDropped  uint64
	DispatchLatency telemetry.HistogramSnapshot
	// Stages holds the per-stage latency snapshots (inbox_wait, match).
	Stages map[string]telemetry.HistogramSnapshot
}

// Stats aggregates the broker's runtime gauges and counters into one
// consistent-enough snapshot for operators and tests.
func (b *Broker) Stats() Stats {
	b.mu.Lock()
	depth := b.inbox.Len()
	b.mu.Unlock()
	var jnlDropped uint64
	if j := b.journal(); j != nil {
		jnlDropped = j.Dropped()
	}
	return Stats{
		ID:                  b.cfg.ID,
		QueueDepth:          depth,
		QueueHighWater:      b.tel.QueueHighWater.Value(),
		BackpressureWaits:   b.tel.BackpressureWaits.Value(),
		Processed:           b.tel.Processed.Value(),
		DroppedPublications: b.tel.DroppedPublications.Value(),
		SRTSize:             b.srt.Len(),
		PRTSize:             b.prt.Len(),
		PRTIndexBuilds:      b.prt.IndexBuilds(),
		SendsByKind:         b.tel.SendsByKind(),
		TotalSends:          b.tel.TotalSends(),
		JournalDropped:      jnlDropped,
		DispatchLatency:     b.tel.DispatchLatency.Snapshot(),
		Stages:              b.tel.Stages.Snapshot(),
	}
}

// SRTSnapshot returns a copy of the advertisement table's record list. The
// records themselves are the table's: a move's commit re-points a record's
// LastHop in place, so read it only while the broker is quiescent.
func (b *Broker) SRTSnapshot() []*matching.Record { return b.srt.All() }

// PRTSnapshot returns a copy of the subscription table's record list, with
// the same caveat as SRTSnapshot.
func (b *Broker) PRTSnapshot() []*matching.Record { return b.prt.All() }

// inboxItem is one queued envelope with its enqueue time for the
// inbox_wait stage timer (at stays zero while stage timing is disabled, so
// the hot path pays no clock read).
type inboxItem struct {
	env message.Envelope
	at  time.Time
}

// enqueue is the transport handler: it appends to the FIFO inbox and wakes
// the driver. With a bounded inbox, a full queue blocks the caller (a
// transport link goroutine or a local injector) until the dispatcher frees
// a slot — backpressure in place of unbounded growth.
func (b *Broker) enqueue(env message.Envelope) {
	it := inboxItem{env: env}
	if b.tel.StageTimingEnabled() {
		it.at = b.clk.Now()
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.awaitSpaceLocked()
	if b.stopped {
		b.cfg.Net.Done(env.Msg)
		return
	}
	b.inbox.Push(it)
	depth := int64(b.inbox.Len())
	b.tel.QueueDepth.Set(depth)
	b.tel.QueueHighWater.Observe(depth)
	b.wakeLocked()
}

// process handles one message. It runs on the dispatching goroutine; t0 is
// the clock read dispatch opened the message's timers on.
func (b *Broker) process(env message.Envelope, t0 time.Time) {
	switch m := env.Msg.(type) {
	case message.Advertise:
		b.handleAdvertise(m, env.From)
	case message.Unadvertise:
		b.handleUnadvertise(m, env.From)
	case message.Subscribe:
		b.handleSubscribe(m, env.From)
	case message.Unsubscribe:
		b.handleUnsubscribe(m, env.From)
	case message.Publish:
		b.handlePublish(env, m, t0)
	case message.MoveApprove:
		b.handleMoveApprove(m, env.From)
	case message.MoveAck:
		b.handleMoveAck(m, env.From)
	case message.MoveAbort:
		b.handleMoveAbort(m, env.From)
	case message.StandbyResolve:
		b.handleStandbyResolve(m, env.From)
	case message.ReplicateDecision, message.ReplicaAck, message.LeaseClaim:
		b.handleReplication(env)
	case message.MoveNegotiate, message.MoveReject, message.MoveState, message.MoveQuery:
		b.forwardOrDeliverControl(env)
	default:
		// Unknown message kinds are dropped.
	}
}

// send transmits a message to a directly connected node (neighbor broker or
// local client).
func (b *Broker) send(to message.NodeID, m message.Message) {
	b.tel.CountSend(m.Kind())
	if err := b.cfg.Net.Send(b.cfg.ID.Node(), to, m); err != nil {
		// A send can only fail when the destination detached concurrently
		// (e.g. a moving client); the message is dropped, which the paper's
		// model treats as a masked transient fault.
		return
	}
}

// isNeighbor reports whether the node is a neighboring broker.
func (b *Broker) isNeighbor(n message.NodeID) bool {
	return b.neighbors[message.BrokerID(n)]
}

// localClient returns the delivery callback for a locally attached client,
// or nil.
func (b *Broker) localClient(n message.NodeID) ClientDeliver {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.clients[n]
}

// nextHopToward returns the neighbor on the path toward the given broker.
func (b *Broker) nextHopToward(dest message.BrokerID) (message.BrokerID, error) {
	if dest == b.cfg.ID {
		return "", fmt.Errorf("broker %s: no next hop toward self", b.cfg.ID)
	}
	hop, ok := b.cfg.NextHops[dest]
	if !ok {
		return "", fmt.Errorf("broker %s: no route toward %s", b.cfg.ID, dest)
	}
	return hop, nil
}

// CanRoute reports whether this broker has a next-hop route toward the
// given broker (itself included).
func (b *Broker) CanRoute(dest message.BrokerID) bool {
	if dest == b.cfg.ID {
		return true
	}
	_, ok := b.cfg.NextHops[dest]
	return ok
}

// SendControl injects a movement control message originated by this
// broker's coordinator. The message always passes through this broker's own
// inbox first, so that any per-hop routing work it requires (preparing,
// committing, or aborting a reconfiguration at the originating broker,
// which is itself on the path) runs uniformly with the other hops; the
// message handler then forwards it toward its destination.
func (b *Broker) SendControl(m message.Message) error {
	b.Inject(b.cfg.ID.Node(), m)
	return nil
}

// Inject enqueues a message into this broker's inbox as if it had arrived
// from the given node. The co-located mobile container uses it to issue and
// retract filters on behalf of the clients it manages without racing the
// lifetime of their access links.
func (b *Broker) Inject(from message.NodeID, m message.Message) {
	b.inject(from, m, 0)
}

// InjectRemote is Inject carrying the sender's Lamport stamp; the TCP
// gateway uses it so causal order survives the process boundary.
func (b *Broker) InjectRemote(from message.NodeID, m message.Message, lamport uint64) {
	b.inject(from, m, lamport)
}

func (b *Broker) inject(from message.NodeID, m message.Message, lamport uint64) {
	// A stopped broker accepts nothing: late callers (a move timer firing
	// after Stop, a gateway read racing teardown) must not leave trace or
	// journal records for a message that can never be processed. enqueue
	// re-checks under the lock, so the window between this check and the
	// append is still accounted correctly.
	b.mu.Lock()
	stopped := b.stopped
	b.mu.Unlock()
	if stopped {
		return
	}
	b.cfg.Net.Registry().MsgEnqueued(m)
	env := message.Envelope{From: from, Msg: m}
	if ts := b.cfg.Net.Tracer(); ts != nil {
		env.Trace = message.TraceOf(m)
		ts.RecordHop(env.Trace, from, b.cfg.ID.Node(), m.Kind(), b.clk.Now())
	}
	if j := b.journal(); j != nil {
		c := b.clock(j)
		if lamport > 0 {
			env.Lamport = c.Merge(lamport)
		} else {
			env.Lamport = c.Tick()
		}
		j.Add(journal.Record{
			Site: string(b.cfg.ID), Cat: journal.CatBroker, Kind: journal.KindInject,
			Lamport: env.Lamport, Tx: string(m.Tag()), Ref: message.RefOf(m),
			From: string(from), Detail: m.Kind().String(),
		})
	}
	b.enqueue(env)
}

// journal returns the network's flight recorder, or nil when disabled.
func (b *Broker) journal() *journal.Journal { return b.cfg.Net.Journal() }

// clock returns this broker's Lamport clock within j, cached so the
// dispatch hot path pays one atomic load instead of a map lookup per
// record (the cache re-resolves if the network's journal is swapped).
func (b *Broker) clock(j *journal.Journal) *journal.Clock {
	if cc := b.jclock.Load(); cc != nil && cc.j == j {
		return cc.c
	}
	cc := &brokerClock{j: j, c: j.ClockOf(string(b.cfg.ID))}
	b.jclock.Store(cc)
	return cc.c
}

// brokerClock pairs a journal with this broker's clock inside it.
type brokerClock struct {
	j *journal.Journal
	c *journal.Clock
}

// forwardOrDeliverControl moves a control message one hop toward its
// destination, or hands it to the local coordinator when it has arrived.
func (b *Broker) forwardOrDeliverControl(env message.Envelope) {
	dest, ok := message.Dest(env.Msg)
	if !ok {
		return
	}
	if dest == b.cfg.ID {
		b.deliverControl(env)
		return
	}
	hop, err := b.nextHopToward(dest)
	if err != nil {
		return
	}
	b.send(hop.Node(), env.Msg)
}

func (b *Broker) deliverControl(env message.Envelope) {
	b.mu.Lock()
	fn := b.controlFn
	b.mu.Unlock()
	if fn != nil {
		fn(env)
	}
}
