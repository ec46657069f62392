package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"padres/internal/broker"
	"padres/internal/message"
	"padres/internal/metrics"
	"padres/internal/predicate"
	"padres/internal/transport"
)

// rig is one deployed instance of the program under test together with the
// handles the load generators drive it through. Notifications flow back
// into the ledger the rig was built with.
type rig interface {
	// publish issues one publication from the publisher the pool event
	// names. Only the generator goroutine calls it.
	publish(spec eventSpec, ev predicate.Event) error
	// move relocates mover m to its other endpoint and returns once the mover
	// can move again. The duration is that of the Client.Move call alone: what
	// a rig does afterwards to find the moved client is not part of it. One
	// goroutine per mover calls it.
	move(m int) (time.Duration, error)
	movers() int
	// routingOp issues churner c's next routing operation: unsubscribe its
	// oldest live subscription or subscribe a fresh one, alternately. One
	// goroutine per churner calls it.
	routingOp(c int) error
	churners() int
	// inflight is the number of messages issued but not fully processed.
	inflight() int64
	// quiesce blocks until nothing is in flight.
	quiesce(timeout time.Duration) error
	brokers() []*broker.Broker
	registries() []*metrics.Registry
	// verify checks the final routing state against the reference and
	// returns one line per violation. Call it only when quiescent.
	verify() []string
	// describe is a one-line statement of what was built.
	describe() string
	// setupParts splits the set-up time into building the brokers and
	// populating them.
	setupParts() (newS, populateS float64)
	close()
}

// zeroDelay is the transport profile of every workload: no injected
// latency on any link, so measured times are processor and scheduling time
// only. The paper's 1 ms LAN profile would hide every CPU-side change.
type zeroDelay struct{}

func (zeroDelay) LinkFor(a, b message.BrokerID) transport.LinkOptions {
	return transport.LinkOptions{CountTraffic: true}
}

func (zeroDelay) ClientLink(message.BrokerID, message.ClientID) transport.LinkOptions {
	return transport.LinkOptions{}
}

func (zeroDelay) Name() string { return "zero-delay" }

var _ transport.Profile = zeroDelay{}

// churner holds the live subscription set of one churn client and issues
// its routing operations through the rig-specific sub and unsub functions.
type churner struct {
	id    message.ClientID
	class string
	r     *rand.Rand
	live  []message.SubID // oldest first
	// unsubNext alternates the operation kind so the live set stays at its
	// configured size (give or take one).
	unsubNext bool
	sub       func(f *predicate.Filter) (message.SubID, error)
	unsub     func(id message.SubID) error
}

// fill subscribes until n subscriptions are live.
func (c *churner) fill(n int) error {
	for len(c.live) < n {
		id, err := c.sub(churnFilter(c.r, c.class))
		if err != nil {
			return fmt.Errorf("churner %s: %w", c.id, err)
		}
		c.live = append(c.live, id)
	}
	return nil
}

func (c *churner) op() error {
	if c.unsubNext && len(c.live) > 0 {
		id := c.live[0]
		c.live = c.live[1:]
		c.unsubNext = false
		if err := c.unsub(id); err != nil {
			return fmt.Errorf("churner %s: unsubscribe %s: %w", c.id, id, err)
		}
		return nil
	}
	id, err := c.sub(churnFilter(c.r, c.class))
	if err != nil {
		return fmt.Errorf("churner %s: subscribe: %w", c.id, err)
	}
	c.live = append(c.live, id)
	c.unsubNext = true
	return nil
}

// prtCountByClient counts the canonical (non-shadow) PRT records a broker
// holds for a client.
func prtCountByClient(b *broker.Broker, id message.ClientID) int {
	n := 0
	for _, rec := range b.PRTSnapshot() {
		if rec.Client == id {
			n++
		}
	}
	return n
}

// checkDropped reports every broker that discarded a publication because
// no advertisement matched it.
func checkDropped(brokers []*broker.Broker) []string {
	var out []string
	for _, b := range brokers {
		if st := b.Stats(); st.DroppedPublications > 0 {
			out = append(out, fmt.Sprintf("broker %s dropped %d publications", st.ID, st.DroppedPublications))
		}
	}
	return out
}

// awaitQuiescent polls the summed in-flight count of several registries
// until it reads zero on three consecutive polls. Rigs with one registry use
// its own AwaitQuiescent instead; this form covers brokers that share
// nothing but sockets, where a message is briefly in no registry at all
// while its bytes sit in a socket buffer.
func awaitQuiescent(regs []*metrics.Registry, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	calm := 0
	for calm < 3 {
		var n int64
		for _, r := range regs {
			n += r.Inflight()
		}
		if n == 0 {
			calm++
		} else {
			calm = 0
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("not quiescent after %s: %d messages in flight", timeout, n)
		}
		time.Sleep(500 * time.Microsecond)
	}
	return nil
}

func settle(reg *metrics.Registry, timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	if err := reg.AwaitQuiescent(ctx); err != nil {
		return fmt.Errorf("not quiescent after %s: %d messages in flight", timeout, reg.Inflight())
	}
	return nil
}

// moveTimeout bounds one Client.Move call; a move that takes this long has
// failed whatever its eventual outcome.
const moveTimeout = 30 * time.Second
