package failure

import (
	"context"
	"errors"
	"testing"
	"time"

	"padres/internal/cluster"
	"padres/internal/core"
	"padres/internal/message"
	"padres/internal/predicate"
)

func build(t *testing.T, opts cluster.Options) *cluster.Cluster {
	t.Helper()
	c, err := cluster.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	t.Cleanup(c.Stop)
	return c
}

func TestFreezeThaw(t *testing.T) {
	c := build(t, cluster.Options{})
	in := New(c)
	if err := in.Freeze("b3"); err != nil {
		t.Fatal(err)
	}
	if !in.Frozen("b3") {
		t.Error("Frozen not reported")
	}
	pub, err := c.NewClient("pub", "b1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pub.Advertise(predicate.MustParse("[x,>,0]")); err != nil {
		t.Fatal(err)
	}
	// The advertisement flood is stuck behind the frozen backbone broker.
	time.Sleep(50 * time.Millisecond)
	if got := len(c.Broker("b12").SRTSnapshot()); got != 0 {
		t.Fatalf("advertisement crossed a frozen broker: %d records at b12", got)
	}
	if err := in.Thaw("b3"); err != nil {
		t.Fatal(err)
	}
	if err := c.SettleFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := len(c.Broker("b12").SRTSnapshot()); got != 1 {
		t.Fatalf("advertisement lost across freeze/thaw: %d records at b12", got)
	}
	if err := in.Thaw("b3"); err == nil {
		t.Error("double thaw should fail")
	}
}

func TestCrashErrors(t *testing.T) {
	c := build(t, cluster.Options{})
	in := New(c)
	if err := in.Crash("nope"); err == nil {
		t.Error("crash of unknown broker should fail")
	}
	if err := in.Crash("b6"); err != nil {
		t.Fatal(err)
	}
	if !in.Crashed("b6") {
		t.Error("Crashed not reported")
	}
	if err := in.Crash("b6"); err == nil {
		t.Error("double crash should fail")
	}
	if err := in.Freeze("b6"); err == nil {
		t.Error("freezing a crashed broker should fail")
	}
	if err := in.Freeze("nope"); err == nil {
		t.Error("freezing an unknown broker should fail")
	}
	if err := in.Thaw("nope"); err == nil {
		t.Error("thawing an unknown broker should fail")
	}
}

// TestBlockingVariantWaitsOutDelay: with no MoveTimeout (the blocking 3PC
// variant), a movement across a frozen broker completes once the delay
// ends, with no message loss.
func TestBlockingVariantWaitsOutDelay(t *testing.T) {
	c := build(t, cluster.Options{Protocol: core.ProtocolReconfig})
	in := New(c)
	pub, err := c.NewClient("pub", "b5")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pub.Advertise(predicate.MustParse("[x,>,0]")); err != nil {
		t.Fatal(err)
	}
	sub, err := c.NewClient("sub", "b1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sub.Subscribe(predicate.MustParse("[x,>,0]")); err != nil {
		t.Fatal(err)
	}
	if err := c.SettleFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Freeze a broker on the movement path for 400 ms.
	if err := in.FreezeFor("b8", 400*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := sub.Move(ctx, "b13"); err != nil {
		t.Fatalf("blocking move: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 300*time.Millisecond {
		t.Errorf("move finished in %v; it cannot have crossed the frozen broker", elapsed)
	}
	if sub.Broker() != "b13" {
		t.Errorf("client at %s, want b13", sub.Broker())
	}
	// Deliveries still work.
	id, err := pub.Publish(predicate.Event{"x": predicate.Number(5)})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SettleFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, got := range sub.ReceivedIDs() {
		if got == id {
			found = true
		}
	}
	if !found {
		t.Error("post-move notification lost")
	}
}

// TestNonBlockingVariantAbortsUnderDelay: with MoveTimeout armed, the same
// frozen-broker delay aborts the movement and the client resumes at the
// source with no loss.
func TestNonBlockingVariantAbortsUnderDelay(t *testing.T) {
	c := build(t, cluster.Options{
		Protocol:    core.ProtocolReconfig,
		MoveTimeout: 150 * time.Millisecond,
	})
	in := New(c)
	pub, err := c.NewClient("pub", "b5")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pub.Advertise(predicate.MustParse("[x,>,0]")); err != nil {
		t.Fatal(err)
	}
	sub, err := c.NewClient("sub", "b1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sub.Subscribe(predicate.MustParse("[x,>,0]")); err != nil {
		t.Fatal(err)
	}
	if err := c.SettleFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	if err := in.Freeze("b8"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := sub.Move(ctx, "b13"); !errors.Is(err, core.ErrMoveTimeout) {
		t.Fatalf("move under unbounded delay = %v, want ErrMoveTimeout", err)
	}
	if sub.Broker() != "b1" {
		t.Errorf("client at %s after abort, want b1", sub.Broker())
	}
	if err := in.Thaw("b8"); err != nil {
		t.Fatal(err)
	}
	if err := c.SettleFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	// After the thaw, residual protocol messages must have cleaned up any
	// prepared routing state everywhere.
	for _, bid := range c.Brokers() {
		if n := c.Broker(bid).ReconfigCount(); n != 0 {
			t.Errorf("broker %s retains %d prepared transactions after abort", bid, n)
		}
	}
	// The client keeps receiving at the source.
	id, err := pub.Publish(predicate.Event{"x": predicate.Number(5)})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SettleFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, got := range sub.ReceivedIDs() {
		if got == id {
			found = true
		}
	}
	if !found {
		t.Error("notification lost after aborted move")
	}
}

// TestChaosMovementsSurvive runs movements while random brokers freeze and
// thaw; with the blocking variant every movement must eventually commit and
// delivery stays exactly-once.
func TestChaosMovementsSurvive(t *testing.T) {
	c := build(t, cluster.Options{Protocol: core.ProtocolReconfig})
	in := New(c)
	pub, err := c.NewClient("pub", "b5")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pub.Advertise(predicate.MustParse("[x,>,0]")); err != nil {
		t.Fatal(err)
	}
	sub, err := c.NewClient("sub", "b1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sub.Subscribe(predicate.MustParse("[x,>,0]")); err != nil {
		t.Fatal(err)
	}
	if err := c.SettleFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	chaosDone := make(chan error, 1)
	go func() {
		chaosDone <- in.Chaos(ChaosOptions{
			Brokers:   []message.BrokerID{"b3", "b4", "b8", "b12"},
			FreezeFor: 20 * time.Millisecond,
			Between:   5 * time.Millisecond,
			Rounds:    20,
			Seed:      3,
		})
	}()

	var want []message.PubID
	targets := []message.BrokerID{"b13", "b2", "b14", "b1"}
	for round, target := range targets {
		for i := 0; i < 3; i++ {
			id, err := pub.Publish(predicate.Event{"x": predicate.Number(float64(round*10 + i + 1))})
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, id)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		if err := sub.Move(ctx, target); err != nil {
			cancel()
			t.Fatalf("move %d to %s under chaos: %v", round, target, err)
		}
		cancel()
	}
	if err := <-chaosDone; err != nil {
		t.Fatalf("chaos: %v", err)
	}
	if err := c.SettleFor(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	got := make(map[message.PubID]bool)
	for _, id := range sub.ReceivedIDs() {
		got[id] = true
	}
	for _, id := range want {
		if !got[id] {
			t.Errorf("notification %s lost under chaos", id)
		}
	}
	if sub.QueueLen() != len(want) {
		t.Errorf("queue %d, want %d (duplicate or loss)", sub.QueueLen(), len(want))
	}
}

// TestCrashRestartWithoutStateLosesRouting is the negative control: a
// replacement broker restarted empty has no routing state, so existing
// subscriptions silently stop receiving — exactly why the paper's fault
// tolerance persists the algorithmic state.
func TestCrashRestartWithoutStateLosesRouting(t *testing.T) {
	c := build(t, cluster.Options{})
	in := New(c)
	pub, err := c.NewClient("pub", "b1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pub.Advertise(predicate.MustParse("[x,>,0]")); err != nil {
		t.Fatal(err)
	}
	sub, err := c.NewClient("sub", "b13")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sub.Subscribe(predicate.MustParse("[x,>,0]")); err != nil {
		t.Fatal(err)
	}
	if err := c.SettleFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	if err := in.Crash("b8"); err != nil {
		t.Fatal(err)
	}
	if err := in.Restart("b8"); err != nil {
		t.Fatal(err)
	}
	if err := c.SettleFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	if _, err := pub.Publish(predicate.Event{"x": predicate.Number(7)}); err != nil {
		t.Fatal(err)
	}
	if err := c.SettleFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := sub.QueueLen(); got != 0 {
		t.Fatalf("delivery succeeded (%d) despite amnesiac restart; the negative control is broken", got)
	}
}
