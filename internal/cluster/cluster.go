// Package cluster assembles a complete in-process pub/sub deployment: an
// acyclic broker overlay over the latency-modelling transport, a mobile
// container per broker, and client management. It is the foundation of the
// test suites, the examples, and the experiment harness.
package cluster

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"padres/internal/broker"
	"padres/internal/client"
	"padres/internal/core"
	"padres/internal/journal"
	"padres/internal/message"
	"padres/internal/metrics"
	"padres/internal/overlay"
	"padres/internal/replication"
	"padres/internal/sim"
	"padres/internal/transport"
)

// Options configures a cluster.
type Options struct {
	// Topology is the broker overlay; defaults to the paper's 14-broker
	// topology (Fig. 6).
	Topology *overlay.Topology
	// Profile models the deployment environment; defaults to the local
	// data-centre cluster profile.
	Profile transport.Profile
	// Protocol selects the movement protocol; defaults to
	// core.ProtocolReconfig.
	Protocol core.Protocol
	// Covering enables the brokers' covering optimization. The paper's
	// "covering" baseline runs the end-to-end protocol with this enabled;
	// the reconfiguration protocol runs without it.
	Covering bool
	// ServiceTime is the per-message broker processing cost.
	ServiceTime time.Duration
	// Workers sets each broker's publication dispatch parallelism
	// (broker.Config.Workers); <= 1 keeps the serial dispatch loop.
	Workers int
	// InboxCapacity bounds each broker's inbox (broker.Config.InboxCapacity);
	// 0 keeps the unbounded inbox.
	InboxCapacity int
	// MoveTimeout arms the non-blocking movement variant (0 = blocking).
	MoveTimeout time.Duration
	// Admission is the target-side admission policy (nil accepts all).
	Admission core.AdmissionFunc
	// SkipPropagationWait disables the end-to-end protocol's propagation
	// wait (ablation only).
	SkipPropagationWait bool
	// Journal, if set, turns the flight recorder on for the whole
	// deployment: every link transmission, broker dispatch, routing-table
	// mutation, protocol step, and client event is stamped and recorded.
	// New marks a run boundary in it (BeginRun) so one journal can hold
	// several sequential deployments.
	Journal *journal.Journal
	// ReliableLinks arms the transport's acked-retransmission protocol on
	// every overlay link: control-plane traffic survives injected loss,
	// duplication, and reordering; publications stay best-effort.
	ReliableLinks bool
	// Retransmit tunes the reliable links' backoff and breaker (zero-value
	// fields use the transport defaults). Only meaningful with
	// ReliableLinks.
	Retransmit transport.RetransmitOptions
	// LinkFaults, if non-nil, installs the same seeded fault profile on
	// every overlay link (the per-link injector seed is derived from
	// Seed and the endpoint pair, so links fail independently but
	// reproducibly).
	LinkFaults *transport.FaultProfile
	// DataDir, if set, gives every broker a durable store under
	// DataDir/<broker-id>: routing mutations and movement-transaction
	// transitions are write-ahead logged and RestartBroker recovers the
	// broker from its own disk state instead of an in-memory snapshot.
	DataDir string
	// SnapshotEvery overrides the store's checkpoint cadence (records per
	// snapshot); 0 uses the store default, negative disables checkpoints.
	SnapshotEvery int
	// RecoveryQueryTimeout bounds how long a restarted broker waits for the
	// target coordinator's answer about an in-doubt movement before
	// aborting locally (0 uses the broker default).
	RecoveryQueryTimeout time.Duration
	// Replication, when non-nil and enabled, quorum-replicates coordinator
	// decisions over each transaction's preference list and lets a standby
	// replica finish in-doubt movements after a coordinator death. An empty
	// Universe is filled with the topology's brokers.
	Replication *replication.Config
	// Clock is the deployment's time source (nil selects the wall clock).
	// Passing a *sim.VirtualClock switches the whole cluster — links,
	// brokers, protocol timers, replication leases — into scheduled mode:
	// no goroutines, every action a loop event, execution deterministic.
	Clock sim.Clock
}

// Cluster is a running in-process deployment.
type Cluster struct {
	reg  *metrics.Registry
	net  *transport.Network
	top  *overlay.Topology
	dir  *core.Directory
	opts Options

	mu         sync.RWMutex
	brokers    map[message.BrokerID]*broker.Broker
	containers map[message.BrokerID]*core.Container
	sink       core.EventSink
}

// New builds a cluster. Call Start before use and Stop when done.
func New(opts Options) (*Cluster, error) {
	if opts.Topology == nil {
		opts.Topology = overlay.Default14()
	}
	if opts.Profile == nil {
		opts.Profile = transport.DefaultCluster()
	}
	if opts.Protocol == 0 {
		opts.Protocol = core.ProtocolReconfig
	}
	if err := opts.Topology.Validate(); err != nil {
		return nil, fmt.Errorf("topology: %w", err)
	}

	c := &Cluster{
		reg:        metrics.NewRegistry(),
		top:        opts.Topology,
		dir:        core.NewDirectory(),
		brokers:    make(map[message.BrokerID]*broker.Broker),
		containers: make(map[message.BrokerID]*core.Container),
		opts:       opts,
	}
	c.net = transport.NewNetworkClocked(c.reg, opts.Clock)
	if opts.Journal != nil {
		// The run-config detail tells the auditor which engine produced the
		// run (protocol, covering, blocking vs non-blocking 3PC).
		opts.Journal.BeginRun(fmt.Sprintf("protocol=%s covering=%t timeout=%s brokers=%d",
			opts.Protocol, opts.Covering, opts.MoveTimeout, len(opts.Topology.Brokers())))
		c.net.SetJournal(opts.Journal)
	}

	for _, id := range c.top.Brokers() {
		b, err := c.newBroker(id)
		if err != nil {
			return nil, err
		}
		c.brokers[id] = b
		c.containers[id] = core.NewContainer(core.Config{
			Broker:              b,
			Net:                 c.net,
			Directory:           c.dir,
			Protocol:            opts.Protocol,
			MoveTimeout:         opts.MoveTimeout,
			Admission:           opts.Admission,
			SkipPropagationWait: opts.SkipPropagationWait,
		})
	}
	for _, id := range c.top.Brokers() {
		for _, n := range c.top.Neighbors(id) {
			if id < n {
				lo := opts.Profile.LinkFor(id, n)
				if opts.ReliableLinks {
					lo.Reliable = true
					lo.Retransmit = opts.Retransmit
				}
				if opts.LinkFaults != nil {
					lo.Faults = *opts.LinkFaults
				}
				if err := c.net.AddLink(id.Node(), n.Node(), lo); err != nil {
					return nil, err
				}
			}
		}
	}
	// Surface breaker transitions: journal them as failure records and
	// mirror them into the from-side broker's metrics.
	c.net.SetLinkStateHandler(func(from, to message.NodeID, up bool) {
		if j := c.net.Journal(); j.Enabled() {
			kind := journal.KindLinkDown
			if up {
				kind = journal.KindLinkUp
			}
			j.Add(journal.Record{
				Site: string(from), Cat: journal.CatFailure, Kind: kind,
				Lamport: j.ClockOf(string(from)).Tick(),
				From:    string(from), To: string(to),
			})
		}
		if b := c.Broker(message.BrokerID(from)); b != nil {
			b.PeerLinkState(to, up)
		}
	})
	return c, nil
}

// newBroker constructs one broker from the cluster options, attaching a
// durable store under DataDir/<id> when persistence is on.
func (c *Cluster) newBroker(id message.BrokerID) (*broker.Broker, error) {
	hops, err := c.top.NextHops(id)
	if err != nil {
		return nil, err
	}
	cfg := broker.Config{
		ID:                   id,
		Net:                  c.net,
		Neighbors:            c.top.Neighbors(id),
		NextHops:             hops,
		Covering:             c.opts.Covering,
		ServiceTime:          c.opts.ServiceTime,
		Workers:              c.opts.Workers,
		InboxCapacity:        c.opts.InboxCapacity,
		SnapshotEvery:        c.opts.SnapshotEvery,
		RecoveryQueryTimeout: c.opts.RecoveryQueryTimeout,
	}
	if c.opts.DataDir != "" {
		cfg.DataDir = filepath.Join(c.opts.DataDir, string(id))
	}
	if c.opts.Replication != nil {
		rc := *c.opts.Replication
		if len(rc.Universe) == 0 {
			rc.Universe = c.top.Brokers()
		}
		if rc.Adjacency == nil {
			// The shared topology gives every broker the identical neighbor
			// map, so path-aware preference lists (and the pipelined commit
			// they enable) stay deterministic across the fleet.
			adj := make(map[message.BrokerID][]message.BrokerID, c.top.Len())
			for _, b := range c.top.Brokers() {
				adj[b] = c.top.Neighbors(b)
			}
			rc.Adjacency = adj
		}
		cfg.Replication = &rc
	}
	return broker.New(cfg)
}

// Start launches all broker goroutines.
func (c *Cluster) Start() {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, b := range c.brokers {
		b.Start()
	}
}

// Stop shuts containers, brokers, and the transport down.
func (c *Cluster) Stop() {
	c.mu.RLock()
	for _, ct := range c.containers {
		ct.Shutdown()
	}
	for _, b := range c.brokers {
		b.Stop()
	}
	c.mu.RUnlock()
	c.net.Close()
}

// Registry returns the metrics registry.
func (c *Cluster) Registry() *metrics.Registry { return c.reg }

// Clock returns the deployment's time source.
func (c *Cluster) Clock() sim.Clock { return c.net.Clock() }

// Network returns the transport network.
func (c *Cluster) Network() *transport.Network { return c.net }

// Topology returns the broker overlay.
func (c *Cluster) Topology() *overlay.Topology { return c.top }

// Broker returns the broker with the given ID (nil if absent).
func (c *Cluster) Broker(id message.BrokerID) *broker.Broker {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.brokers[id]
}

// Container returns the mobile container at the given broker (nil if
// absent).
func (c *Cluster) Container(id message.BrokerID) *core.Container {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.containers[id]
}

// SetEventSink installs a movement-event sink on every container in the
// cluster (nil removes it). The sink survives broker restarts: a container
// created by RestartBroker inherits it.
func (c *Cluster) SetEventSink(sink core.EventSink) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sink = sink
	for _, ct := range c.containers {
		ct.SetEventSink(sink)
	}
}

// RestartBroker replaces a broker with a fresh instance. With
// Options.DataDir set the replacement recovers its persisted algorithmic
// state (the durability model of Sec. 3.5) from its own durable store —
// snapshot plus write-ahead log replay, with in-doubt movement transactions
// resolved by the recovery query protocol; without one it starts empty. The
// replacement reuses the overlay links; clients that were hosted in the old
// broker's container share its crash fate, per the paper's failure model,
// and are not resurrected.
func (c *Cluster) RestartBroker(id message.BrokerID) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	old, ok := c.brokers[id]
	if !ok {
		return fmt.Errorf("unknown broker %s", id)
	}
	old.Stop()
	c.containers[id].Shutdown()

	nb, err := c.newBroker(id)
	if err != nil {
		return err
	}
	c.brokers[id] = nb
	c.containers[id] = core.NewContainer(core.Config{
		Broker:              nb,
		Net:                 c.net,
		Directory:           c.dir,
		Protocol:            c.opts.Protocol,
		MoveTimeout:         c.opts.MoveTimeout,
		Admission:           c.opts.Admission,
		SkipPropagationWait: c.opts.SkipPropagationWait,
	})
	if c.sink != nil {
		c.containers[id].SetEventSink(c.sink)
	}
	nb.Start()
	return nil
}

// Brokers returns all broker IDs in sorted order.
func (c *Cluster) Brokers() []message.BrokerID { return c.top.Brokers() }

// NewClient creates a client homed at the given broker.
func (c *Cluster) NewClient(id message.ClientID, at message.BrokerID) (*client.Client, error) {
	c.mu.RLock()
	ct, ok := c.containers[at]
	c.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("unknown broker %s", at)
	}
	return ct.NewClient(id)
}

// Settle blocks until no message is in flight anywhere, or ctx expires.
func (c *Cluster) Settle(ctx context.Context) error {
	return c.reg.AwaitQuiescent(ctx)
}

// SettleFor is Settle with a fresh timeout.
func (c *Cluster) SettleFor(d time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	return c.Settle(ctx)
}
