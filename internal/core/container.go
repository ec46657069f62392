// Package core implements the paper's primary contribution: transactional
// client movement in a distributed content-based pub/sub network.
//
// A mobile container is co-located with every broker. It encapsulates the
// movement coordinator and the clients hosted at that broker, giving the
// middleware full control over client deployment (Sec. 4.1). Containers
// execute the movement conversation of Fig. 3 — negotiate, approve/reject,
// state transfer, acknowledge — as a three-phase-commit-style transaction
// between the source and target coordinators, with two interchangeable
// routing-layer strategies:
//
//   - ProtocolReconfig: the approve message reconfigures routing tables
//     hop-by-hop along the path between source and target brokers
//     (Sec. 4.4); movement traffic is confined to that path.
//
//   - ProtocolEndToEnd: the traditional protocol, in which the target
//     re-issues the client's subscriptions and advertisements and the
//     source retracts them, letting both propagate through the network
//     (optionally quenched by the covering optimization). The movement
//     completes only when this propagation has quiesced, which the
//     container detects with a termination detector (modelled out-of-band
//     by the harness's tagged in-flight accounting).
//
// The non-blocking variant arms timeouts in the wait and prepare states so
// that, under the bounded-delay network model, every movement transaction
// terminates; with timeouts disabled the blocking variant is obtained.
package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"padres/internal/broker"
	"padres/internal/client"
	"padres/internal/journal"
	"padres/internal/message"
	"padres/internal/metrics"
	"padres/internal/sim"
	"padres/internal/transport"
)

// Protocol selects the movement protocol's routing-layer strategy.
type Protocol int

// Movement protocols.
const (
	// ProtocolReconfig is the paper's hop-by-hop reconfiguration protocol.
	ProtocolReconfig Protocol = iota + 1
	// ProtocolEndToEnd is the traditional unsubscribe/resubscribe protocol
	// (called the "covering" protocol in the evaluation when brokers run
	// with the covering optimization enabled).
	ProtocolEndToEnd
)

// String returns the protocol's evaluation label.
func (p Protocol) String() string {
	switch p {
	case ProtocolReconfig:
		return "reconfig"
	case ProtocolEndToEnd:
		return "covering"
	default:
		return fmt.Sprintf("protocol(%d)", int(p))
	}
}

// Errors reported by movement transactions.
var (
	ErrRejected    = errors.New("movement rejected by target broker")
	ErrAborted     = errors.New("movement aborted")
	ErrMoveTimeout = errors.New("movement timed out")
	ErrNotHosted   = errors.New("client is not hosted by this container")
	ErrShutdown    = errors.New("container shut down")
)

// AdmissionFunc decides whether a target broker accepts a moving client.
// Returning an error rejects the movement with that reason.
type AdmissionFunc func(m message.MoveNegotiate) error

// Directory is the shared client registry through which the target
// container obtains the client being transferred. In a distributed
// deployment the client state travels inside the MoveState message; the
// in-process directory stands in for deserializing it.
type Directory struct {
	mu sync.Mutex
	m  map[message.ClientID]*client.Client
}

// NewDirectory returns an empty directory.
func NewDirectory() *Directory {
	return &Directory{m: make(map[message.ClientID]*client.Client)}
}

// Put registers a client.
func (d *Directory) Put(c *client.Client) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.m[c.ID()] = c
}

// Get looks a client up, or returns nil.
func (d *Directory) Get(id message.ClientID) *client.Client {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.m[id]
}

// Delete removes a client.
func (d *Directory) Delete(id message.ClientID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.m, id)
}

// Config configures a mobile container.
type Config struct {
	Broker    *broker.Broker
	Net       *transport.Network
	Directory *Directory
	Protocol  Protocol
	// MoveTimeout arms the non-blocking 3PC variant: a source coordinator
	// waiting for approval, or a target coordinator waiting for state
	// transfer, aborts after this duration. Zero selects the blocking
	// variant (no timeouts; termination relies on eventual delivery).
	MoveTimeout time.Duration
	// Admission, if set, can reject incoming clients.
	Admission AdmissionFunc
	// SkipPropagationWait disables waiting for the end-to-end protocol's
	// (un)subscription propagation to quiesce before declaring a movement
	// complete. Used only by ablation experiments; the traditional
	// protocol's delivery guarantee depends on the wait.
	SkipPropagationWait bool
}

// Container is the mobile container co-located with one broker.
type Container struct {
	cfg Config
	reg *metrics.Registry
	// clk is the container's time source, inherited from the transport.
	clk sim.Clock

	// events holds the installed EventSink; it is read lock-free because
	// sinks are invoked from contexts that may hold the client stub's lock
	// (state-transition observers), where taking ct.mu could deadlock.
	events atomic.Pointer[EventSink]

	mu     sync.Mutex
	hosted map[message.ClientID]*client.Client
	source map[message.TxID]*sourceTx
	target map[message.TxID]*targetTx
	txgen  *message.IDGen
	stop   chan struct{}
	wg     sync.WaitGroup
	closed bool
}

type sourceState int

const (
	sourceWait sourceState = iota + 1
	sourcePrepared
)

type sourceTx struct {
	tx     message.TxID
	c      *client.Client
	target message.BrokerID
	subs   []message.SubEntry
	advs   []message.AdvEntry
	start  time.Time
	done   chan error
	timer  sim.Timer
	state  sourceState
}

type targetTx struct {
	tx        message.TxID
	clientID  message.ClientID
	source    message.BrokerID
	shellNode message.NodeID
	timer     sim.Timer
	// deciding marks the commit decision in flight (replication quorum
	// round started); duplicate state transfers must not start another.
	deciding bool

	shellMu  sync.Mutex
	shellBuf []message.Publish

	// End-to-end protocol: the fresh identifiers issued at the target.
	subIDMap map[message.SubID]message.SubID
	advIDMap map[message.AdvID]message.AdvID
}

func (t *targetTx) shellDeliver(pub message.Publish) {
	t.shellMu.Lock()
	t.shellBuf = append(t.shellBuf, pub)
	t.shellMu.Unlock()
}

func (t *targetTx) drainShell() []message.Publish {
	t.shellMu.Lock()
	defer t.shellMu.Unlock()
	out := t.shellBuf
	t.shellBuf = nil
	return out
}

// NewContainer creates the container and installs it as the broker's
// control sink.
func NewContainer(cfg Config) *Container {
	ct := &Container{
		cfg:    cfg,
		reg:    cfg.Net.Registry(),
		clk:    cfg.Net.Clock(),
		hosted: make(map[message.ClientID]*client.Client),
		source: make(map[message.TxID]*sourceTx),
		target: make(map[message.TxID]*targetTx),
		txgen:  message.NewIDGen("mv-" + string(cfg.Broker.ID())),
		stop:   make(chan struct{}),
	}
	cfg.Broker.SetControlSink(ct.handleControl)
	return ct
}

// Broker returns the broker this container is attached to.
func (ct *Container) Broker() *broker.Broker { return ct.cfg.Broker }

// Protocol returns the movement protocol in use.
func (ct *Container) Protocol() Protocol { return ct.cfg.Protocol }

// HostedCount returns the number of clients currently homed here.
func (ct *Container) HostedCount() int {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	return len(ct.hosted)
}

// Hosts reports whether the client is currently homed here.
func (ct *Container) Hosts(id message.ClientID) bool {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	_, ok := ct.hosted[id]
	return ok
}

// Shutdown stops the container's background goroutines. In-flight movement
// transactions are resolved with ErrShutdown.
func (ct *Container) Shutdown() {
	ct.mu.Lock()
	if ct.closed {
		ct.mu.Unlock()
		ct.wg.Wait()
		return
	}
	ct.closed = true
	close(ct.stop)
	for tx, st := range ct.source {
		// Disarm the move timer so it cannot fire into the stopped broker
		// after teardown; a callback already past its map lookup bails on
		// the closed flag.
		if st.timer != nil {
			st.timer.Stop()
		}
		st.finish(ErrShutdown)
		delete(ct.source, tx)
	}
	for tx, ttx := range ct.target {
		if ttx.timer != nil {
			ttx.timer.Stop()
		}
		delete(ct.target, tx)
	}
	ct.mu.Unlock()
	ct.wg.Wait()
}

// finish resolves the movement outcome exactly once.
func (st *sourceTx) finish(err error) {
	select {
	case st.done <- err:
	default:
	}
}

// NewClient creates a client homed at this container's broker, in the
// started state.
func (ct *Container) NewClient(id message.ClientID) (*client.Client, error) {
	c := client.New(id)
	c.SetClock(ct.clk)
	bid := ct.cfg.Broker.ID()
	node := message.ClientNode(id, bid)
	ct.cfg.Broker.AttachClient(node, c.DeliverLocal)
	if err := c.Attach(bid); err != nil {
		return nil, err
	}
	c.SetMover(ct)
	c.SetSender(ct.cfg.Broker.Inject)
	c.SetWakeVia(ct.cfg.Broker.DeferWake)
	ct.installStateObserver(c)
	ct.installDeliveryObserver(c)
	ct.cfg.Directory.Put(c)
	ct.mu.Lock()
	ct.hosted[id] = c
	ct.mu.Unlock()
	ct.jnlClient(journal.KindClientAttach, "", id, string(bid))
	return c, nil
}

// Disconnect retracts the client's subscriptions and advertisements and
// detaches it from the broker.
func (ct *Container) Disconnect(c *client.Client) error {
	ct.mu.Lock()
	if ct.hosted[c.ID()] != c {
		ct.mu.Unlock()
		return ErrNotHosted
	}
	delete(ct.hosted, c.ID())
	ct.mu.Unlock()

	for id := range c.Subs() {
		_ = c.Unsubscribe(id)
	}
	for id := range c.Advs() {
		_ = c.Unadvertise(id)
	}
	node := message.ClientNode(c.ID(), ct.cfg.Broker.ID())
	ct.cfg.Broker.DetachClient(node)
	c.Close()
	ct.cfg.Directory.Delete(c.ID())
	return nil
}

var _ client.Mover = (*Container)(nil)

// RequestMove implements client.Mover: it starts a movement transaction for
// a hosted client toward the target broker and returns the outcome channel.
func (ct *Container) RequestMove(c *client.Client, target message.BrokerID) (<-chan error, error) {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	if ct.closed {
		return nil, ErrShutdown
	}
	if ct.hosted[c.ID()] != c {
		return nil, ErrNotHosted
	}
	if !ct.cfg.Broker.CanRoute(target) {
		return nil, fmt.Errorf("unknown target broker %s", target)
	}
	if err := c.BeginMove(); err != nil {
		return nil, err
	}
	subs, advs := c.EntriesSnapshot()
	tx := message.TxID(ct.txgen.Next("x"))
	st := &sourceTx{
		tx:     tx,
		c:      c,
		target: target,
		subs:   subs,
		advs:   advs,
		start:  ct.clk.Now(),
		done:   make(chan error, 1),
		state:  sourceWait,
	}
	ct.source[tx] = st

	nego := message.MoveNegotiate{
		MoveHeader: message.MoveHeader{Tx: tx, Client: c.ID(), Source: ct.cfg.Broker.ID(), Target: target},
		Subs:       subs,
		Advs:       advs,
	}
	if err := ct.cfg.Broker.SendControl(nego); err != nil {
		delete(ct.source, tx)
		c.Resume()
		return nil, err
	}
	if ct.cfg.MoveTimeout > 0 {
		st.timer = ct.clk.AfterFunc(ct.cfg.MoveTimeout, func() { ct.sourceTimeout(tx) })
	}
	ct.emitLocked(EventMoveRequested, tx, c.ID(), string(target))
	ct.emitLocked(EventNegotiateSent, tx, c.ID(), "")
	return st.done, nil
}

// emitLocked emits while ct.mu is held (emit takes no lock, so this is now
// just an alias kept for call-site clarity).
func (ct *Container) emitLocked(kind EventKind, tx message.TxID, cl message.ClientID, detail string) {
	ct.emit(kind, tx, cl, detail)
}

// handleControl is the broker's control sink (runs on the broker
// goroutine).
func (ct *Container) handleControl(env message.Envelope) {
	switch m := env.Msg.(type) {
	case message.MoveNegotiate:
		ct.onNegotiate(m)
	case message.MoveApprove:
		ct.onApprove(m)
	case message.MoveReject:
		ct.onReject(m)
	case message.MoveState:
		ct.onState(m)
	case message.MoveAck:
		ct.onAck(m)
	case message.MoveAbort:
		ct.onAbort(m)
	case message.MoveQuery:
		ct.onQuery(m)
	case message.StandbyResolve:
		ct.onStandbyResolve(m)
	}
}

// HostedClients returns the clients currently homed in this container.
func (ct *Container) HostedClients() []*client.Client {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	out := make([]*client.Client, 0, len(ct.hosted))
	for _, c := range ct.hosted {
		out = append(out, c)
	}
	return out
}
