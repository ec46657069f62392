package cluster

import (
	"fmt"

	"padres/internal/broker"
	"padres/internal/client"
	"padres/internal/message"
	"padres/internal/predicate"
)

// CheckRoutingConsistency verifies the routing-layer consistency property
// of Sec. 3.5 as an executable invariant: for every advertisement A and
// every subscription S that intersects it, each broker on the unique path
// from A's publisher to S's subscriber must hold
//
//   - S in its PRT with the last hop pointing toward the subscriber (the
//     next broker on the path, or the subscriber's own node at its edge
//     broker), and
//   - A in its SRT with the last hop pointing toward the publisher,
//
// so that a publication matching both is guaranteed to be routed from the
// publisher to the subscriber. Stale additional entries are permitted, as
// the paper's definition allows. The check requires a quiescent network
// (call Settle first); it returns the first violation found, or nil.
func (c *Cluster) CheckRoutingConsistency() error {
	type located struct {
		client *client.Client
		broker message.BrokerID
	}
	var clients []located
	for _, bid := range c.Brokers() {
		for _, cl := range c.Container(bid).HostedClients() {
			clients = append(clients, located{client: cl, broker: bid})
		}
	}

	for _, pub := range clients {
		for advID, advFilter := range pub.client.Advs() {
			for _, sub := range clients {
				for subID, subFilter := range sub.client.Subs() {
					if !subFilter.Intersects(advFilter) {
						continue
					}
					if err := c.verifyDeliveryPath(
						pub.broker, pub.client.ID(), string(advID),
						sub.broker, sub.client.ID(), string(subID),
					); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}

// verifyDeliveryPath verifies the SRT/PRT entries along the publisher ->
// subscriber path for one (advertisement, subscription) pair.
func (c *Cluster) verifyDeliveryPath(pubBroker message.BrokerID, pubClient message.ClientID, advID string,
	subBroker message.BrokerID, subClient message.ClientID, subID string) error {

	path, err := c.top.Path(pubBroker, subBroker)
	if err != nil {
		return fmt.Errorf("no path %s -> %s: %w", pubBroker, subBroker, err)
	}
	subFilter := subFilterOf(c, subBroker, subClient, subID)
	advFilter := advFilterOf(c, pubBroker, pubClient, advID)
	for i, bid := range path {
		b := c.Broker(bid)

		// Some PRT record covering the subscription must point toward the
		// subscriber: with the covering optimization a quenched
		// subscription is legitimately represented by a covering one.
		wantSubHop := message.ClientNode(subClient, subBroker)
		if i < len(path)-1 {
			wantSubHop = path[i+1].Node()
		}
		if err := hasCoveringRecord(prtEntries(b), subID, subFilter, wantSubHop); err != nil {
			return fmt.Errorf("broker %s: subscription %s (of %s, for advertisement %s): %w",
				bid, subID, subClient, advID, err)
		}

		// Likewise for the advertisement toward the publisher.
		wantAdvHop := message.ClientNode(pubClient, pubBroker)
		if i > 0 {
			wantAdvHop = path[i-1].Node()
		}
		if err := hasCoveringRecord(srtEntries(b), advID, advFilter, wantAdvHop); err != nil {
			return fmt.Errorf("broker %s: advertisement %s (of %s): %w",
				bid, advID, pubClient, err)
		}
	}
	return nil
}

// subFilterOf looks up a subscription's filter at its edge broker.
func subFilterOf(c *Cluster, at message.BrokerID, cl message.ClientID, id string) *predicate.Filter {
	for _, r := range c.Broker(at).PRTSnapshot() {
		if r.ID == id {
			return r.Filter
		}
	}
	return nil
}

// advFilterOf looks up an advertisement's filter at its edge broker.
func advFilterOf(c *Cluster, at message.BrokerID, cl message.ClientID, id string) *predicate.Filter {
	for _, r := range c.Broker(at).SRTSnapshot() {
		if r.ID == id {
			return r.Filter
		}
	}
	return nil
}

type recordView struct {
	id      string
	filter  *predicate.Filter
	lastHop message.NodeID
}

func prtEntries(b *broker.Broker) []recordView {
	recs := b.PRTSnapshot()
	out := make([]recordView, len(recs))
	for i, r := range recs {
		out[i] = recordView{id: r.ID, filter: r.Filter, lastHop: r.LastHop}
	}
	return out
}

func srtEntries(b *broker.Broker) []recordView {
	recs := b.SRTSnapshot()
	out := make([]recordView, len(recs))
	for i, r := range recs {
		out[i] = recordView{id: r.ID, filter: r.Filter, lastHop: r.LastHop}
	}
	return out
}

// hasCoveringRecord asserts that the exact record — or one whose filter
// covers it — exists with the expected last hop.
func hasCoveringRecord(recs []recordView, id string, f *predicate.Filter, wantHop message.NodeID) error {
	for _, r := range recs {
		if r.lastHop != wantHop {
			continue
		}
		if r.id == id {
			return nil
		}
		if f != nil && r.filter != nil && r.filter.Covers(f) {
			return nil
		}
	}
	return fmt.Errorf("no record for %s (or covering it) with last hop %s", id, wantHop)
}
