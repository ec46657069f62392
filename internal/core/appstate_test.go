package core

import (
	"context"
	"sync"
	"testing"
	"time"

	"padres/internal/broker"
	"padres/internal/client"
	"padres/internal/message"
	"padres/internal/metrics"
	"padres/internal/overlay"
	"padres/internal/predicate"
	"padres/internal/transport"
)

// stateRig is a b1-b2 line on one in-process network, a container per
// broker on the directories given, and a tap on the MoveState messages b2's
// coordinator receives.
type stateRig struct {
	t   *testing.T
	reg *metrics.Registry
	ct  map[message.BrokerID]*Container

	mu     sync.Mutex
	states []message.MoveState
}

func newStateRig(t *testing.T, dir1, dir2 *Directory) *stateRig {
	t.Helper()
	top, err := overlay.Linear(2)
	if err != nil {
		t.Fatal(err)
	}
	r := &stateRig{t: t, reg: metrics.NewRegistry(), ct: make(map[message.BrokerID]*Container)}
	nw := transport.NewNetwork(r.reg)
	dirs := map[message.BrokerID]*Directory{"b1": dir1, "b2": dir2}
	var brokers []*broker.Broker
	for _, id := range top.Brokers() {
		hops, err := top.NextHops(id)
		if err != nil {
			t.Fatal(err)
		}
		b, err := broker.New(broker.Config{ID: id, Net: nw, Neighbors: top.Neighbors(id), NextHops: hops})
		if err != nil {
			t.Fatal(err)
		}
		ct := NewContainer(Config{Broker: b, Net: nw, Directory: dirs[id], Protocol: ProtocolReconfig})
		r.ct[id] = ct
		brokers = append(brokers, b)
	}
	r.ct["b2"].Broker().SetControlSink(func(env message.Envelope) {
		if m, ok := env.Msg.(message.MoveState); ok {
			r.mu.Lock()
			r.states = append(r.states, m)
			r.mu.Unlock()
		}
		r.ct["b2"].handleControl(env)
	})
	if err := nw.AddLink(message.BrokerID("b1").Node(), message.BrokerID("b2").Node(), transport.LinkOptions{CountTraffic: true}); err != nil {
		t.Fatal(err)
	}
	for _, b := range brokers {
		b.Start()
	}
	t.Cleanup(func() {
		for _, ct := range r.ct {
			ct.Shutdown()
		}
		for _, b := range brokers {
			b.Stop()
		}
		nw.Close()
	})
	return r
}

func (r *stateRig) settle() {
	r.t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := r.reg.AwaitQuiescent(ctx); err != nil {
		r.t.Fatalf("network did not quiesce: %v", err)
	}
}

// moveReceiver homes a subscriber at b1 and a publisher at b2, lets the
// subscriber receive and consume three publications, moves it to b2 and
// returns the MoveState b2 received, one consumed publication and the stub
// the source hosted.
func (r *stateRig) moveReceiver() (message.MoveState, message.Publish, *client.Client) {
	r.t.Helper()
	pub, err := r.ct["b2"].NewClient("pub")
	if err != nil {
		r.t.Fatal(err)
	}
	if _, err := pub.Advertise(predicate.MustParse("[x,>,0]")); err != nil {
		r.t.Fatal(err)
	}
	sub, err := r.ct["b1"].NewClient("sub")
	if err != nil {
		r.t.Fatal(err)
	}
	if _, err := sub.Subscribe(predicate.MustParse("[x,>,0]")); err != nil {
		r.t.Fatal(err)
	}
	r.settle()
	for i := 1; i <= 3; i++ {
		if _, err := pub.Publish(predicate.Event{"x": predicate.Number(float64(i))}); err != nil {
			r.t.Fatal(err)
		}
	}
	r.settle()
	var consumed message.Publish
	for i := 0; i < 3; i++ {
		p, ok := sub.TryReceive()
		if !ok {
			r.t.Fatalf("subscriber received %d of 3 publications", i)
		}
		consumed = p
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := sub.Move(ctx, "b2"); err != nil {
		r.t.Fatalf("move to b2: %v", err)
	}
	r.settle()
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.states) != 1 {
		r.t.Fatalf("b2 received %d MoveState messages, want 1", len(r.states))
	}
	return r.states[0], consumed, sub
}

// redeliverDropped re-delivers a publication the moved client consumed
// before the move and requires the stub to drop it as a duplicate.
func redeliverDropped(t *testing.T, c *client.Client, p message.Publish) {
	t.Helper()
	if c.State() != client.StateStarted || c.Broker() != "b2" {
		t.Fatalf("moved client is %s at %s, want started at b2", c.State(), c.Broker())
	}
	queued, seen := c.QueueLen(), len(c.ReceivedIDs())
	c.DeliverLocal(p)
	if c.QueueLen() != queued || len(c.ReceivedIDs()) != seen {
		t.Errorf("re-delivered %s was queued after the move: queue %d → %d", p.ID, queued, c.QueueLen())
	}
}

// TestInProcessMoveCarriesNoAppState: with both containers on one
// directory the target resolves the client there, so message (4) carries no
// serialized stub, and the client's delivery history still holds after the
// move because it is the same stub.
func TestInProcessMoveCarriesNoAppState(t *testing.T) {
	dir := NewDirectory()
	r := newStateRig(t, dir, dir)
	ms, consumed, sub := r.moveReceiver()
	if len(ms.AppState) != 0 {
		t.Errorf("in-process MoveState carried %d bytes of AppState, want none", len(ms.AppState))
	}
	if dir.Get("sub") != sub {
		t.Fatal("the directory no longer resolves the moved stub")
	}
	redeliverDropped(t, sub, consumed)
}

// TestCrossDirectoryMoveCarriesAppState: containers on separate directories
// stand for separate processes, so message (4) must carry a stub that
// client.Deserialize accepts, and the target rebuilds the client from it —
// delivery history included.
func TestCrossDirectoryMoveCarriesAppState(t *testing.T) {
	dir1, dir2 := NewDirectory(), NewDirectory()
	r := newStateRig(t, dir1, dir2)
	ms, consumed, sub := r.moveReceiver()
	restored, err := client.Deserialize(ms.AppState)
	if err != nil {
		t.Fatalf("AppState of a cross-directory move: %v", err)
	}
	if restored.ID() != "sub" || len(restored.Subs()) != 1 || len(restored.ReceivedIDs()) != 3 {
		t.Errorf("AppState decoded to %s with %d subscriptions and %d seen publications, want sub, 1, 3",
			restored.ID(), len(restored.Subs()), len(restored.ReceivedIDs()))
	}
	moved := dir2.Get("sub")
	if moved == nil || moved == sub {
		t.Fatal("the target did not rebuild the client from the AppState")
	}
	redeliverDropped(t, moved, consumed)
}
