// Package transport provides point-to-point messaging between overlay
// nodes. The primary implementation is an in-process network whose links
// impose configurable latency and jitter while preserving per-link FIFO
// order, which lets the harness emulate both the paper's local data-centre
// cluster (uniform ~1 ms links) and its wide-area PlanetLab deployment
// (heterogeneous tens-to-hundreds of ms links) without leaving the process.
//
// Every Send is recorded in a metrics.Registry, both in the per-link
// traffic matrix (for broker-broker links) and in the in-flight accounting
// used to detect message-propagation quiescence. The final consumer of a
// message must call Done exactly once after fully processing it.
package transport

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"padres/internal/journal"
	"padres/internal/message"
	"padres/internal/metrics"
	"padres/internal/ring"
	"padres/internal/sim"
	"padres/internal/telemetry"
)

// Errors reported by the in-process network.
var (
	ErrUnknownNode = errors.New("unknown node")
	ErrNoLink      = errors.New("no link between nodes")
	ErrClosed      = errors.New("network is closed")
	ErrDupLink     = errors.New("link already exists")
	// ErrLinkDown reports a send on a reliable link whose circuit breaker
	// is open: the message was dead-lettered, not queued.
	ErrLinkDown = errors.New("link is down")
)

// Handler consumes inbound envelopes. Handlers must not block for long; a
// broker handler typically enqueues into the broker's own inbox.
type Handler func(env message.Envelope)

// LinkOptions configures one bidirectional link.
type LinkOptions struct {
	// Latency is the fixed propagation delay in each direction.
	Latency time.Duration
	// Jitter adds a uniform random delay in [0, Jitter) per message;
	// delivery order per link is still FIFO.
	Jitter time.Duration
	// Seed seeds the link's jitter source; links with the same seed and
	// traffic are reproducible.
	Seed int64
	// CountTraffic includes the link in the metrics traffic matrix. Broker
	// to broker overlay links set this; client access links do not, to
	// match the paper's definition of network traffic.
	CountTraffic bool
	// Reliable arms the link's ack/retransmit layer: control-plane traffic
	// (everything except publications) is sequenced, retransmitted with
	// exponential backoff until cumulatively acknowledged, deduplicated and
	// resequenced at the receiver, and dead-lettered once the per-link
	// circuit breaker opens. Publications stay best-effort; the client
	// stub's duplicate suppression covers them end to end.
	Reliable bool
	// Faults seeds the link's fault injector with drop/duplicate/reorder
	// probabilities applied to every frame entering the link (including
	// retransmissions and acks). Mutable at runtime via Network.SetFaults.
	Faults FaultProfile
	// Retransmit tunes the reliability layer; zero fields take defaults.
	// Ignored unless Reliable is set.
	Retransmit RetransmitOptions
}

// Network is an in-process transport connecting registered nodes through
// latency-imposing FIFO links.
type Network struct {
	reg *metrics.Registry
	tel *telemetry.TransportMetrics
	// clk is the network's time source; every latency stamp, retransmit
	// deadline and RTT sample reads it. sched is non-nil when clk owns a
	// serialized event loop (a sim.VirtualClock): links then post delivery
	// and retransmit events instead of running goroutines, which makes frame
	// arrival order a pure function of the seed.
	clk    sim.Clock
	sched  sim.Scheduler
	tracer atomic.Pointer[telemetry.TraceStore]
	jnl    atomic.Pointer[journal.Journal]
	// linkState is invoked (outside all transport locks) when a reliable
	// link's circuit breaker opens or closes.
	linkState atomic.Pointer[LinkStateFunc]

	mu     sync.Mutex
	nodes  map[message.NodeID]Handler
	links  map[linkID]*link
	closed bool
	wg     sync.WaitGroup
}

// LinkStateFunc observes circuit-breaker transitions of reliable links.
// It runs on the goroutine that detected the transition and must not call
// back into the Network synchronously with blocking work.
type LinkStateFunc func(from, to message.NodeID, up bool)

type linkID struct {
	from message.NodeID
	to   message.NodeID
}

// NewNetwork returns an empty network reporting into reg, running on the
// wall clock.
func NewNetwork(reg *metrics.Registry) *Network {
	return NewNetworkClocked(reg, nil)
}

// NewNetworkClocked returns an empty network whose time source is clk (nil
// selects the wall clock). When clk is a sim.Scheduler — a virtual clock
// with an event loop — the network runs in scheduled mode: links spawn no
// goroutines and every delivery, retransmission and ack flush becomes a
// loop event, so the whole transport is deterministic.
func NewNetworkClocked(reg *metrics.Registry, clk sim.Clock) *Network {
	clk = sim.Or(clk)
	return &Network{
		reg:   reg,
		tel:   &telemetry.TransportMetrics{},
		clk:   clk,
		sched: sim.SchedulerOf(clk),
		nodes: make(map[message.NodeID]Handler),
		links: make(map[linkID]*link),
	}
}

// Registry returns the metrics registry the network reports into.
func (n *Network) Registry() *metrics.Registry { return n.reg }

// Clock returns the network's time source. Components attached to the
// network (brokers, containers, replication agents) read their clock from
// here so one cluster-wide knob switches real and simulated time.
func (n *Network) Clock() sim.Clock { return n.clk }

// Scheduler returns the event loop driving this network in scheduled mode,
// or nil when it runs on real time.
func (n *Network) Scheduler() sim.Scheduler { return n.sched }

// Telemetry returns the transport's reliability instruments (retransmits,
// dedup drops, dead letters, injected faults, link-state gauges).
func (n *Network) Telemetry() *telemetry.TransportMetrics { return n.tel }

// SetLinkStateHandler installs the circuit-breaker observer (nil removes
// it). Safe while the network is running.
func (n *Network) SetLinkStateHandler(fn LinkStateFunc) {
	if fn == nil {
		n.linkState.Store(nil)
		return
	}
	n.linkState.Store(&fn)
}

// notifyLinkState fires the installed observer, if any. Never called with
// a transport lock held.
func (n *Network) notifyLinkState(from, to message.NodeID, up bool) {
	if fn := n.linkState.Load(); fn != nil {
		(*fn)(from, to, up)
	}
}

// SetTracer enables hop-by-hop message tracing: every Send records a hop in
// the store and stamps the envelope with the message's trace identity.
// Passing nil disables tracing. Safe to call while the network is running.
func (n *Network) SetTracer(ts *telemetry.TraceStore) { n.tracer.Store(ts) }

// Tracer returns the active trace store, or nil when tracing is disabled.
func (n *Network) Tracer() *telemetry.TraceStore { return n.tracer.Load() }

// SetJournal enables the flight recorder: every Send stamps the envelope
// with the sender's Lamport clock and records a link-send, and every
// delivery merges the stamp into the receiver's clock and records a
// link-recv. Passing nil disables journaling. Safe while running.
func (n *Network) SetJournal(j *journal.Journal) { n.jnl.Store(j) }

// Journal returns the active journal, or nil when journaling is disabled.
func (n *Network) Journal() *journal.Journal { return n.jnl.Load() }

// Register attaches a node handler. Re-registering replaces the handler
// (used when a mobile client re-materializes at a new broker).
func (n *Network) Register(id message.NodeID, h Handler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.nodes[id] = h
}

// Unregister detaches a node. In-flight deliveries to it are dropped.
func (n *Network) Unregister(id message.NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.nodes, id)
}

// AddLink creates a bidirectional link between two registered nodes.
func (n *Network) AddLink(a, b message.NodeID, opts LinkOptions) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return ErrClosed
	}
	if _, ok := n.nodes[a]; !ok {
		return fmt.Errorf("%w: %s", ErrUnknownNode, a)
	}
	if _, ok := n.nodes[b]; !ok {
		return fmt.Errorf("%w: %s", ErrUnknownNode, b)
	}
	if _, ok := n.links[linkID{a, b}]; ok {
		return fmt.Errorf("%w: %s-%s", ErrDupLink, a, b)
	}
	n.links[linkID{a, b}] = n.newLink(a, b, opts)
	n.links[linkID{b, a}] = n.newLink(b, a, opts)
	return nil
}

// RemoveLink tears down both directions of a link.
func (n *Network) RemoveLink(a, b message.NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, id := range []linkID{{a, b}, {b, a}} {
		if l, ok := n.links[id]; ok {
			l.stop()
			delete(n.links, id)
		}
	}
}

// HasLink reports whether a directed link exists.
func (n *Network) HasLink(from, to message.NodeID) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	_, ok := n.links[linkID{from, to}]
	return ok
}

// Send transmits a message over the direct link from->to. The message is
// recorded as in flight until the receiver calls Done.
func (n *Network) Send(from, to message.NodeID, msg message.Message) error {
	l, err := n.lookupLink(from, to)
	if err != nil {
		return err
	}
	if l.rel != nil && reliableKind(msg.Kind()) {
		return n.sendReliable(l, msg)
	}
	l.enqueue(n.prepareSend(l, from, to, msg, 1), true, 0)
	return nil
}

// lookupLink resolves the directed link from->to.
func (n *Network) lookupLink(from, to message.NodeID) (*link, error) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil, ErrClosed
	}
	l, ok := n.links[linkID{from, to}]
	n.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s -> %s", ErrNoLink, from, to)
	}
	return l, nil
}

// prepareSend performs the per-message send bookkeeping — traffic matrix,
// trace hop, journal stamp, in-flight accounting — and returns the envelope
// ready for link enqueue. tokens is the number of in-flight tokens to take
// in the one registry operation: 1 for a best-effort wire copy, 2 when a
// resend-queue entry accompanies it.
func (n *Network) prepareSend(l *link, from, to message.NodeID, msg message.Message, tokens int) message.Envelope {
	if l.opts.CountTraffic {
		n.reg.CountSend(from, to, msg.Kind())
	}
	env := message.Envelope{From: from, Msg: msg}
	if ts := n.tracer.Load(); ts != nil {
		env.Trace = message.TraceOf(msg)
		ts.RecordHop(env.Trace, from, to, msg.Kind(), n.clk.Now())
	}
	if j := n.jnl.Load(); j != nil {
		env.Lamport = j.ClockOf(string(from)).Tick()
		j.Add(journal.Record{
			Site: string(from), Cat: journal.CatLink, Kind: journal.KindLinkSend,
			Lamport: env.Lamport, Tx: string(msg.Tag()), Ref: message.RefOf(msg),
			From: string(from), To: string(to), Detail: msg.Kind().String(),
		})
	}
	if tokens == 1 {
		n.reg.MsgEnqueued(msg)
	} else {
		n.reg.MsgEnqueuedN(msg, tokens)
	}
	return env
}

// Done marks a previously sent message as fully processed. Each delivered
// message must be Done'd exactly once by its final consumer.
func (n *Network) Done(msg message.Message) {
	n.reg.MsgDone(msg)
}

// Close stops all link goroutines and waits for them to exit. Messages
// still queued on links are dropped (and their in-flight accounting
// released).
func (n *Network) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	links := make([]*link, 0, len(n.links))
	for _, l := range n.links {
		links = append(links, l)
	}
	n.mu.Unlock()
	for _, l := range links {
		l.stop()
	}
	n.wg.Wait()
}

// deliver routes one frame popped off a link queue: transport-internal
// acks are consumed here, sequenced frames go through the reliability
// layer's dedup/resequencer, and everything else lands on the destination
// handler directly.
func (n *Network) deliver(l *link, te timedEnvelope) {
	if ack, ok := te.env.Msg.(message.LinkAck); ok {
		n.handleAck(l, ack)
		return
	}
	if l.rel != nil && te.env.Seq > 0 {
		n.deliverReliable(l, te)
		return
	}
	n.deliverDirect(l.to, te.env, te.counted)
}

// deliverDirect hands an envelope to the destination handler if it is
// still registered; otherwise the message is dropped and its accounting
// freed.
func (n *Network) deliverDirect(to message.NodeID, env message.Envelope, counted bool) {
	n.mu.Lock()
	h, ok := n.nodes[to]
	n.mu.Unlock()
	if !ok {
		if counted {
			n.reg.MsgDone(env.Msg)
		}
		return
	}
	if j := n.jnl.Load(); j != nil {
		// Merge the sender's stamp so every receive is ordered after its
		// send; the merged value restamps the envelope for the handler.
		env.Lamport = j.ClockOf(string(to)).Merge(env.Lamport)
		j.Add(journal.Record{
			Site: string(to), Cat: journal.CatLink, Kind: journal.KindLinkRecv,
			Lamport: env.Lamport, Tx: string(env.Msg.Tag()), Ref: message.RefOf(env.Msg),
			From: string(env.From), To: string(to), Detail: env.Msg.Kind().String(),
		})
	}
	h(env)
}

// lockedRand is the transport's mutex-guarded randomness source: jitter and
// fault draws happen on the send path, which any goroutine may enter (a
// broker's dispatcher, a client, a retransmit timer). It is now sim.Rand —
// the single seeded-source type every simulated path flows from — kept
// under its historical name here.
type lockedRand = sim.Rand

func newLockedRand(seed int64) *lockedRand { return sim.NewRand(seed) }

// link is one direction of a connection: an unbounded FIFO queue drained by
// a dedicated goroutine that enforces per-message delivery times. Fault
// injection (drop/duplicate/reorder/partition) runs at enqueue time; the
// optional reliability layer (rel) wraps control-plane traffic in a
// sequenced ack/retransmit protocol on top of the lossy queue.
type link struct {
	net  *Network
	from message.NodeID
	to   message.NodeID
	opts LinkOptions
	rng  *lockedRand
	rel  *relState // nil on best-effort links
	// lm holds this direction's health instruments (RTT, retransmits,
	// breaker state, resend depth); nil on best-effort links.
	lm *telemetry.LinkMetrics

	mu    sync.Mutex
	cond  *sync.Cond
	queue ring.Queue[timedEnvelope]
	// lastAt is the latest delivery time stamped on a frame; it stays zero
	// while no frame has carried one.
	lastAt  time.Time
	stopped bool
	// done is closed by stop(), ending the drain goroutine's latency wait.
	done        chan struct{}
	faults      FaultProfile
	faultRng    *lockedRand
	partitioned bool
}

type timedEnvelope struct {
	env message.Envelope
	// deliverAt is zero for a frame that is due the moment it is queued.
	deliverAt time.Time
	// counted marks frames carrying an in-flight registry token;
	// transport-internal acks travel uncounted.
	counted bool
	// epoch invalidates sequenced frames that were in flight across a
	// circuit-breaker reset.
	epoch uint64
}

func (n *Network) newLink(from, to message.NodeID, opts LinkOptions) *link {
	l := &link{
		net:  n,
		from: from,
		to:   to,
		opts: opts,
		rng:  newLockedRand(opts.Seed ^ int64(hashNodes(from, to))),
		done: make(chan struct{}),
	}
	l.cond = sync.NewCond(&l.mu)
	if opts.Faults.active() {
		l.faults = opts.Faults
		l.faultRng = newLockedRand(opts.Faults.Seed ^ int64(hashNodes(from, to)))
	}
	if opts.Reliable {
		l.rel = newRelState(opts.Retransmit, opts.Seed^int64(hashNodes(to, from)))
		l.lm = n.tel.Link(string(from), string(to))
	}
	// In scheduled mode the link has no goroutine: queueLocked posts one
	// delivery event per admitted frame.
	if n.sched == nil {
		n.wg.Add(1)
		go l.run()
	}
	return l
}

func hashNodes(a, b message.NodeID) uint64 {
	const prime = 1099511628211
	var h uint64 = 14695981039346656037
	for _, s := range []message.NodeID{a, b} {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= prime
		}
		h ^= '/'
		h *= prime
	}
	return h
}

func (l *link) enqueue(env message.Envelope, counted bool, epoch uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.stopped {
		if counted {
			l.net.reg.MsgDone(env.Msg)
		}
		return
	}
	if l.admitLocked(env, counted, epoch) {
		l.cond.Signal()
	}
}

// admitLocked runs the fault injector on one frame and appends the
// survivors (possibly twice, for a duplication fault) to the queue. It
// reports whether anything was queued. Caller holds l.mu.
func (l *link) admitLocked(env message.Envelope, counted bool, epoch uint64) bool {
	if l.partitioned {
		if counted {
			l.net.reg.MsgDone(env.Msg)
		}
		l.net.tel.InjectedDrops.Inc()
		return false
	}
	f := l.faults
	if f.active() && l.faultRng != nil {
		if f.Drop > 0 && l.faultRng.Float64() < f.Drop {
			if counted {
				l.net.reg.MsgDone(env.Msg)
			}
			l.net.tel.InjectedDrops.Inc()
			return false
		}
		l.queueLocked(env, counted, epoch)
		if f.Dup > 0 && l.faultRng.Float64() < f.Dup {
			if counted {
				l.net.reg.MsgEnqueued(env.Msg)
			}
			l.queueLocked(env, counted, epoch)
			l.net.tel.InjectedDups.Inc()
		}
		if n := l.queue.Len(); f.Reorder > 0 && n >= 2 && l.faultRng.Float64() < f.Reorder {
			a, b := l.queue.At(n-2), l.queue.At(n-1)
			*a, *b = *b, *a
			l.net.tel.InjectedReorders.Inc()
		}
		return true
	}
	l.queueLocked(env, counted, epoch)
	return true
}

// admitAck runs the fault injector for one transport-internal ack frame:
// partition and drop apply exactly as for data frames, while duplication
// and reordering are no-ops on an idempotent cumulative ack. It reports
// whether the ack survives the wire.
func (l *link) admitAck() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.stopped {
		return false
	}
	if l.partitioned {
		l.net.tel.InjectedDrops.Inc()
		return false
	}
	f := l.faults
	if f.Drop > 0 && l.faultRng != nil && l.faultRng.Float64() < f.Drop {
		l.net.tel.InjectedDrops.Inc()
		return false
	}
	return true
}

// queueLocked stamps one envelope's delivery time and appends it. Caller
// holds l.mu.
func (l *link) queueLocked(env message.Envelope, counted bool, epoch uint64) {
	delay := l.opts.Latency
	if l.opts.Jitter > 0 {
		delay += time.Duration(l.rng.Int63n(int64(l.opts.Jitter)))
	}
	// A frame with no delay, on a link where no earlier frame carries a
	// delivery time it could overtake, is due now: it needs no timestamp
	// and so no clock read.
	var at time.Time
	if delay > 0 || !l.lastAt.IsZero() {
		at = l.net.clk.Now().Add(delay)
		// FIFO: never deliver before an earlier message on the same link.
		if at.Before(l.lastAt) {
			at = l.lastAt
		}
		l.lastAt = at
	}
	l.queue.Push(timedEnvelope{env: env, deliverAt: at, counted: counted, epoch: epoch})
	if l.net.sched != nil {
		// One loop event per admitted frame; each pops the queue head, so a
		// reorder fault's queue swap manifests exactly as it would under the
		// drain goroutine.
		var wait time.Duration
		if !at.IsZero() {
			wait = l.net.clk.Until(at)
		}
		l.net.sched.AfterFunc(wait, l.drainOne)
	}
}

// head blocks until the queue holds a frame. A frame that is due is popped
// and returned; one still waiting out its latency stays queued, so stop()
// can release its token, and wait says how long it has left. ok is false
// once the link has stopped.
func (l *link) head() (te timedEnvelope, wait time.Duration, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.queue.Len() == 0 && !l.stopped {
		l.cond.Wait()
	}
	if l.stopped {
		return te, 0, false
	}
	if at := l.queue.At(0).deliverAt; !at.IsZero() {
		if d := l.net.clk.Until(at); d > 0 {
			return te, d, true
		}
	}
	return l.queue.Pop(), 0, true
}

// drainOne is the scheduled-mode counterpart of run(): deliver the frame at
// the head of the queue. Events and admitted frames are 1:1; stop() empties
// the queue, turning any still-scheduled events into no-ops.
func (l *link) drainOne() {
	l.mu.Lock()
	if l.queue.Len() == 0 {
		l.mu.Unlock()
		return
	}
	te := l.queue.Pop()
	l.mu.Unlock()
	l.net.deliver(l, te)
}

func (l *link) stop() {
	l.mu.Lock()
	if !l.stopped {
		l.stopped = true
		close(l.done)
	}
	// Release accounting for anything still queued.
	for l.queue.Len() > 0 {
		if te := l.queue.Pop(); te.counted {
			l.net.reg.MsgDone(te.env.Msg)
		}
	}
	l.cond.Signal()
	l.mu.Unlock()
	if l.rel != nil {
		l.rel.shutdown(l.net)
	}
}

func (l *link) run() {
	defer l.net.wg.Done()
	// One timer, re-armed per delayed frame, paces the waits.
	var timer sim.Timer
	for {
		te, wait, ok := l.head()
		if !ok {
			return
		}
		if wait == 0 {
			l.net.deliver(l, te)
			continue
		}
		if timer == nil {
			timer = l.net.clk.NewTimer(wait)
		} else {
			timer.Reset(wait)
		}
		select {
		case <-timer.C():
		case <-l.done:
			timer.Stop()
			return
		}
	}
}
