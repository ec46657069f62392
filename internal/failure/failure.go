// Package failure injects the failure modes of the paper's system model
// (Sec. 4.1) into a running cluster: crash-stop of a broker (and, since
// coordinator and clients share the container's fate, of its coordinator),
// unbounded message delay (a frozen broker whose queue keeps growing), and
// — through the transport's fault injector — message loss, duplication,
// reordering, and link partition. The movement protocol's non-blocking
// variant must abort cleanly under all of them; the blocking variant must
// resume once delays end.
//
// Every injected failure is journaled (journal.CatFailure) so the offline
// auditor can tell the legal consequences of a dead coordinator apart from
// genuine protocol violations.
package failure

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"padres/internal/cluster"
	"padres/internal/journal"
	"padres/internal/message"
	"padres/internal/transport"
)

// Injector applies failures to a cluster. All methods are safe for
// concurrent use: a chaos schedule, freeze timers, and test assertions may
// drive one Injector from different goroutines.
type Injector struct {
	c *cluster.Cluster

	mu     sync.Mutex
	frozen map[message.BrokerID]bool
	dead   map[message.BrokerID]bool
}

// New returns an injector for the cluster.
func New(c *cluster.Cluster) *Injector {
	return &Injector{
		c:      c,
		frozen: make(map[message.BrokerID]bool),
		dead:   make(map[message.BrokerID]bool),
	}
}

// record journals one failure event on the site's own clock.
func (in *Injector) record(site, kind, from, to, detail string) {
	j := in.c.Network().Journal()
	if !j.Enabled() {
		return
	}
	j.Add(journal.Record{
		Site: site, Cat: journal.CatFailure, Kind: kind,
		Lamport: j.ClockOf(site).Tick(),
		From:    from, To: to, Detail: detail,
	})
}

// Crash stops the broker permanently (crash-stop). Messages addressed to it
// are dropped, as with a failed node whose recovery is outside the
// experiment's horizon. Crash blocks until the broker goroutine exits, so
// it must not be called from that broker's own dispatch path (e.g. from a
// synchronous event sink); crash from a separate goroutine instead.
func (in *Injector) Crash(id message.BrokerID) error {
	b := in.c.Broker(id)
	if b == nil {
		return fmt.Errorf("unknown broker %s", id)
	}
	in.mu.Lock()
	if in.dead[id] {
		in.mu.Unlock()
		return fmt.Errorf("broker %s already crashed", id)
	}
	in.dead[id] = true
	in.mu.Unlock()
	in.record(string(id), journal.KindBrokerCrash, "", "", "crash-stop")
	b.Stop()
	return nil
}

// Freeze suspends the broker's processing; inbound messages queue up
// (unbounded delay). Thaw resumes it.
func (in *Injector) Freeze(id message.BrokerID) error {
	b := in.c.Broker(id)
	if b == nil {
		return fmt.Errorf("unknown broker %s", id)
	}
	in.mu.Lock()
	if in.dead[id] {
		in.mu.Unlock()
		return fmt.Errorf("broker %s crashed; cannot freeze", id)
	}
	in.frozen[id] = true
	in.mu.Unlock()
	in.record(string(id), journal.KindBrokerFreeze, "", "", "")
	b.Pause()
	return nil
}

// Thaw resumes a frozen broker.
func (in *Injector) Thaw(id message.BrokerID) error {
	b := in.c.Broker(id)
	if b == nil {
		return fmt.Errorf("unknown broker %s", id)
	}
	in.mu.Lock()
	if !in.frozen[id] {
		in.mu.Unlock()
		return fmt.Errorf("broker %s is not frozen", id)
	}
	delete(in.frozen, id)
	in.mu.Unlock()
	in.record(string(id), journal.KindBrokerThaw, "", "", "")
	b.Unpause()
	return nil
}

// FreezeFor freezes the broker, thaws it after d on a background timer, and
// returns immediately.
func (in *Injector) FreezeFor(id message.BrokerID, d time.Duration) error {
	if err := in.Freeze(id); err != nil {
		return err
	}
	in.c.Clock().AfterFunc(d, func() { _ = in.Thaw(id) })
	return nil
}

// Frozen reports whether the broker is currently frozen.
func (in *Injector) Frozen(id message.BrokerID) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.frozen[id]
}

// Crashed reports whether the broker was crashed.
func (in *Injector) Crashed(id message.BrokerID) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.dead[id]
}

// SetLinkFaults installs (or, with a zero profile, removes) seeded
// drop/duplicate/reorder injection on both directions of the overlay link
// between two brokers.
func (in *Injector) SetLinkFaults(a, b message.BrokerID, f transport.FaultProfile) error {
	return in.c.Network().SetFaults(a.Node(), b.Node(), f)
}

// Partition severs both directions of the overlay link between two
// brokers until Heal.
func (in *Injector) Partition(a, b message.BrokerID) error {
	if err := in.c.Network().Partition(a.Node(), b.Node()); err != nil {
		return err
	}
	in.record(string(a), journal.KindLinkPartition, string(a), string(b), "")
	return nil
}

// Heal restores a partitioned link and resets its circuit breaker if the
// outage tripped it.
func (in *Injector) Heal(a, b message.BrokerID) error {
	if err := in.c.Network().Heal(a.Node(), b.Node()); err != nil {
		return err
	}
	in.record(string(a), journal.KindLinkHeal, string(a), string(b), "")
	return nil
}

// PartitionFor partitions the link, heals it after d on a background
// timer, and returns immediately.
func (in *Injector) PartitionFor(a, b message.BrokerID, d time.Duration) error {
	if err := in.Partition(a, b); err != nil {
		return err
	}
	in.c.Clock().AfterFunc(d, func() { _ = in.Heal(a, b) })
	return nil
}

// ChaosOptions configures a random freeze/thaw storm.
type ChaosOptions struct {
	// Brokers eligible for freezing; empty means all.
	Brokers []message.BrokerID
	// FreezeFor is the duration of each freeze.
	FreezeFor time.Duration
	// Between is the pause between consecutive freezes.
	Between time.Duration
	// Rounds is the number of freeze/thaw cycles.
	Rounds int
	// Seed drives broker selection.
	Seed int64
}

// Chaos runs a synchronous storm of freeze/thaw cycles against random
// brokers. It blocks until all rounds finished and every broker is thawed.
func (in *Injector) Chaos(opts ChaosOptions) error {
	brokers := opts.Brokers
	if len(brokers) == 0 {
		brokers = in.c.Brokers()
	}
	r := rand.New(rand.NewSource(opts.Seed))
	for round := 0; round < opts.Rounds; round++ {
		id := brokers[r.Intn(len(brokers))]
		if in.Crashed(id) || in.Frozen(id) {
			continue
		}
		if err := in.Freeze(id); err != nil {
			return err
		}
		in.c.Clock().Sleep(opts.FreezeFor)
		if err := in.Thaw(id); err != nil {
			return err
		}
		in.c.Clock().Sleep(opts.Between)
	}
	return nil
}

// Restart replaces a crashed (or running) broker with a fresh instance. On
// a cluster with Options.DataDir it recovers from its own durable store,
// modelling the paper's recovery of persisted algorithmic state; otherwise
// it restarts empty, which deliberately loses routing state — useful to
// demonstrate why persistence is part of the fault-tolerance model.
func (in *Injector) Restart(id message.BrokerID) error {
	if err := in.c.RestartBroker(id); err != nil {
		return err
	}
	in.mu.Lock()
	delete(in.dead, id)
	delete(in.frozen, id)
	in.mu.Unlock()
	in.record(string(id), journal.KindBrokerRestart, "", "", "")
	return nil
}
