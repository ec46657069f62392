package broker

import (
	"fmt"
	"testing"
	"time"

	"padres/internal/israce"
	"padres/internal/message"
	"padres/internal/metrics"
	"padres/internal/overlay"
	"padres/internal/predicate"
	"padres/internal/transport"
)

func default14(t *testing.T) *overlay.Topology {
	t.Helper()
	return overlay.Default14()
}

func TestMultiPublisherSubscriptionFanOut(t *testing.T) {
	// A subscription must be forwarded toward every intersecting
	// advertisement, branching at the junctions of the tree.
	tn := buildNet(t, default14(t), false)
	tn.attach("p1", "b7")
	tn.attach("p2", "b11")
	tn.attach("sub", "b1")
	tn.send("p1", "b7", message.Advertise{ID: "a1", Client: "p1", Filter: predicate.MustParse("[x,>,0]")})
	tn.send("p2", "b11", message.Advertise{ID: "a2", Client: "p2", Filter: predicate.MustParse("[x,<,100]")})
	tn.settle()
	tn.send("sub", "b1", message.Subscribe{ID: "s1", Client: "sub", Filter: predicate.MustParse("[x,>,10],[x,<,50]")})
	tn.settle()

	// The subscription follows b1-b3-b4, then branches: b4-b5-b7 toward
	// p1 and b4-b8-b9-b11 toward p2.
	for _, bid := range []message.BrokerID{"b3", "b4", "b5", "b7", "b8", "b9", "b11"} {
		if _, ok := prtIDs(tn.brokers[bid])["s1"]; !ok {
			t.Errorf("broker %s missing fanned-out subscription", bid)
		}
	}
	// It must not leak into subtrees with no advertisement.
	for _, bid := range []message.BrokerID{"b2", "b6", "b10", "b12", "b13", "b14"} {
		if _, ok := prtIDs(tn.brokers[bid])["s1"]; ok {
			t.Errorf("subscription leaked to %s", bid)
		}
	}

	// Publications from both publishers reach the subscriber.
	tn.send("p1", "b7", message.Publish{ID: "e1", Client: "p1", Event: predicate.Event{"x": predicate.Number(20)}})
	tn.send("p2", "b11", message.Publish{ID: "e2", Client: "p2", Event: predicate.Event{"x": predicate.Number(30)}})
	tn.settle()
	if got := len(tn.received("sub")); got != 2 {
		t.Errorf("subscriber received %d, want 2", got)
	}
}

func TestUnadvertiseUncoveringCascade(t *testing.T) {
	// With advertisement covering, retracting the wide advertisement must
	// re-flood the narrow one that it had quenched.
	tn := buildNet(t, linear5(t), true)
	tn.attach("wide", "b1")
	tn.attach("narrow", "b1")
	tn.send("wide", "b1", message.Advertise{ID: "aw", Client: "wide", Filter: predicate.MustParse("[x,>,0]")})
	tn.settle()
	tn.send("narrow", "b1", message.Advertise{ID: "an", Client: "narrow", Filter: predicate.MustParse("[x,>,10]")})
	tn.settle()
	// Quenched: the narrow advertisement stays local to b1.
	for _, bid := range []message.BrokerID{"b2", "b3", "b4", "b5"} {
		if _, ok := srtIDs(tn.brokers[bid])["an"]; ok {
			t.Fatalf("narrow advertisement not quenched at %s", bid)
		}
	}
	tn.send("wide", "b1", message.Unadvertise{ID: "aw", Client: "wide"})
	tn.settle()
	for _, bid := range []message.BrokerID{"b2", "b3", "b4", "b5"} {
		ids := srtIDs(tn.brokers[bid])
		if _, ok := ids["an"]; !ok {
			t.Errorf("narrow advertisement not re-flooded to %s after uncovering", bid)
		}
		if _, ok := ids["aw"]; ok {
			t.Errorf("wide advertisement still present at %s", bid)
		}
	}
}

func TestDuplicateUnsubscribeIgnored(t *testing.T) {
	tn := buildNet(t, linear5(t), false)
	tn.attach("sub", "b1")
	tn.send("sub", "b1", message.Unsubscribe{ID: "never-existed", Client: "sub"})
	tn.settle() // must not hang or panic
	tn.send("sub", "b1", message.Unadvertise{ID: "never-existed", Client: "sub"})
	tn.settle()
}

func TestStaleLastHopDropped(t *testing.T) {
	// A subscription whose client detached leaves a stale last hop; the
	// publication for it is dropped silently at the edge broker.
	tn := buildNet(t, linear5(t), false)
	tn.attach("pub", "b1")
	tn.attach("sub", "b5")
	tn.send("pub", "b1", message.Advertise{ID: "a1", Client: "pub", Filter: predicate.MustParse("[x,>,0]")})
	tn.settle()
	tn.send("sub", "b5", message.Subscribe{ID: "s1", Client: "sub", Filter: predicate.MustParse("[x,>,0]")})
	tn.settle()
	tn.brokers["b5"].DetachClient(message.ClientNode("sub", "b5"))
	tn.send("pub", "b1", message.Publish{ID: "p1", Client: "pub", Event: predicate.Event{"x": predicate.Number(1)}})
	tn.settle()
	if got := len(tn.received("sub")); got != 0 {
		t.Errorf("detached client received %d publications", got)
	}
}

func TestPauseQueuesWithoutLoss(t *testing.T) {
	tn := buildNet(t, linear5(t), false)
	tn.attach("pub", "b1")
	tn.attach("sub", "b5")
	tn.send("pub", "b1", message.Advertise{ID: "a1", Client: "pub", Filter: predicate.MustParse("[x,>,0]")})
	tn.settle()
	tn.send("sub", "b5", message.Subscribe{ID: "s1", Client: "sub", Filter: predicate.MustParse("[x,>,0]")})
	tn.settle()

	tn.brokers["b3"].Pause()
	for i := 0; i < 5; i++ {
		tn.send("pub", "b1", message.Publish{ID: message.PubID(fmt.Sprintf("q%d", i)), Client: "pub", Event: predicate.Event{"x": predicate.Number(1)}})
	}
	// Give the flood time to pile up at the frozen broker.
	deadline := time.Now().Add(5 * time.Second)
	for tn.brokers["b3"].Stats().QueueDepth < 5 {
		if time.Now().After(deadline) {
			t.Fatalf("queue = %d, want 5", tn.brokers["b3"].Stats().QueueDepth)
		}
		time.Sleep(time.Millisecond)
	}
	if got := len(tn.received("sub")); got != 0 {
		t.Fatalf("deliveries crossed a paused broker: %d", got)
	}
	tn.brokers["b3"].Unpause()
	tn.settle()
	if got := len(tn.received("sub")); got != 5 {
		t.Errorf("received %d after unpause, want 5", got)
	}
}

func TestReconfigMixedClientEntries(t *testing.T) {
	// A client that is both publisher and subscriber moves; both its
	// advertisement and subscription must flip along the route.
	tn := buildNet(t, linear5(t), false)
	tn.attach("peer", "b5")
	tn.attach("mover", "b1")
	advF := predicate.MustParse("[from,=,'mover'],[x,>,0]")
	subF := predicate.MustParse("[from,=,'peer'],[x,>,0]")
	tn.send("peer", "b5", message.Advertise{ID: "pa", Client: "peer", Filter: predicate.MustParse("[from,=,'peer'],[x,>,0]")})
	tn.send("mover", "b1", message.Advertise{ID: "ma", Client: "mover", Filter: advF})
	tn.settle()
	tn.send("mover", "b1", message.Subscribe{ID: "ms", Client: "mover", Filter: subF})
	tn.send("peer", "b5", message.Subscribe{ID: "ps", Client: "peer", Filter: predicate.MustParse("[from,=,'mover']")})
	tn.settle()

	approve := message.MoveApprove{
		MoveHeader:  message.MoveHeader{Tx: "tx1", Client: "mover", Source: "b1", Target: "b4"},
		Subs:        []message.SubEntry{{ID: "ms", Filter: subF}},
		Advs:        []message.AdvEntry{{ID: "ma", Filter: advF}},
		Reconfigure: true,
	}
	if err := tn.brokers["b4"].SendControl(approve); err != nil {
		t.Fatal(err)
	}
	tn.settle()
	ack := message.MoveAck{
		MoveHeader:  message.MoveHeader{Tx: "tx1", Client: "mover", Source: "b1", Target: "b4"},
		Reconfigure: true,
	}
	if err := tn.brokers["b4"].SendControl(ack); err != nil {
		t.Fatal(err)
	}
	tn.settle()

	// Advertisement and subscription both point toward b4 now.
	if got := srtIDs(tn.brokers["b2"])["ma"]; got != "b3" {
		t.Errorf("b2 ma lasthop = %v, want b3", got)
	}
	if got := prtIDs(tn.brokers["b2"])["ms"]; got != "b3" {
		t.Errorf("b2 ms lasthop = %v, want b3", got)
	}
	if got := srtIDs(tn.brokers["b4"])["ma"]; got != "mover@b4" {
		t.Errorf("b4 ma lasthop = %v", got)
	}

	// Both directions of traffic work from the new home.
	tn.attach("mover", "b4")
	tn.brokers["b1"].DetachClient(message.ClientNode("mover", "b1"))
	tn.send("mover", "b4", message.Publish{ID: "m1", Client: "mover", Event: predicate.Event{
		"from": predicate.String("mover"), "x": predicate.Number(1),
	}})
	tn.send("peer", "b5", message.Publish{ID: "p1", Client: "peer", Event: predicate.Event{
		"from": predicate.String("peer"), "x": predicate.Number(1),
	}})
	tn.settle()
	if got := len(tn.received("peer")); got != 1 {
		t.Errorf("peer received %d, want 1", got)
	}
	if got := len(tn.received("mover")); got != 1 {
		t.Errorf("mover received %d, want 1", got)
	}
}

func TestQueueLenAndSnapshotAccessors(t *testing.T) {
	tn := buildNet(t, linear5(t), false)
	b := tn.brokers["b1"]
	if st := b.Stats(); st.QueueDepth != 0 {
		t.Errorf("fresh queue = %d", st.QueueDepth)
	}
	if b.Covering() {
		t.Error("covering should be off")
	}
	if b.ID() != "b1" {
		t.Errorf("ID = %s", b.ID())
	}
	if !b.HasClient("x") {
		tn.attach("x", "b1")
		if !b.HasClient(message.ClientNode("x", "b1")) {
			t.Error("attached client not reported")
		}
	}
}

// TestPlanPublishAllocBudget pins the serial path's planning cost: a
// publication that fans out to two neighbors and two local clients, each
// through two matching subscriptions, is planned in at most 2 allocations
// (none at the time of writing) — no match slice, no destination set, no
// action slice. dispatch_allocs on the benchmark ledger moves with it.
func TestPlanPublishAllocBudget(t *testing.T) {
	if israce.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	net := transport.NewNetwork(metrics.NewRegistry())
	defer net.Close()
	br, err := New(Config{ID: "b1", Net: net, Neighbors: []message.BrokerID{"b2", "b3"}})
	if err != nil {
		t.Fatal(err)
	}
	br.Start()
	defer br.Stop()
	f := predicate.MustParse("[x,>,0]")
	from := message.ClientNode("pub", "b1")
	br.srt.Insert("a1", "pub", f, from)
	dests := []message.NodeID{"b2", "b3", message.ClientNode("c1", "b1"), message.ClientNode("c2", "b1")}
	for i, d := range dests {
		if !br.isNeighbor(d) {
			br.AttachClient(d, func(message.Publish) {})
		}
		for _, dup := range []string{"x", "y"} {
			br.prt.Insert(message.SubID(fmt.Sprintf("s%d%s", i, dup)), message.ClientID(fmt.Sprintf("c%d", i)), f, d)
		}
	}
	m := message.Publish{ID: "p1", Client: "pub", Event: predicate.Event{"x": predicate.Number(7)}}
	var buf [8]pubAction
	if plan := br.planPublish(m, from, buf[:0], br.clk.Now()); len(plan) != len(dests) {
		t.Fatalf("planned %d actions, want %d: %+v", len(plan), len(dests), plan)
	}
	if got := testing.AllocsPerRun(1000, func() { br.planPublish(m, from, buf[:0], br.clk.Now()) }); got > 2 {
		t.Errorf("planPublish allocates %.1f times per publication, budget 2", got)
	}
}
