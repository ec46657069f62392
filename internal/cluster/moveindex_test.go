package cluster

import (
	"context"
	"fmt"
	"testing"
	"time"

	"padres/internal/message"
	"padres/internal/overlay"
	"padres/internal/predicate"
)

// TestMovesDoNotRebuildTransitIndex: a subscriber oscillates between the
// ends of a three-broker line 200 times while a publication stream crosses
// the middle broker, whose PRT (2 000 bystander subscriptions) every move
// rewrites. Each of those writes used to cost the next publication a build
// of the whole match index — one build per move at least; now a write is a
// delta entry and the index is built only when the delta crosses its limit
// (64 writes here) or has taxed matches the price of a build. Every
// publication must still reach the mover exactly once.
func TestMovesDoNotRebuildTransitIndex(t *testing.T) {
	const moves, pubsPerMove, bystanders = 200, 5, 2000
	top, err := overlay.Linear(3)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Options{Topology: top})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	c.Start()
	settle := func() {
		t.Helper()
		if err := c.SettleFor(30 * time.Second); err != nil {
			t.Fatal(err)
		}
	}

	pub, err := c.NewClient("pub", "b1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pub.Advertise(predicate.MustParse("[x,>,0]")); err != nil {
		t.Fatal(err)
	}
	settle()
	crowd, err := c.NewClient("crowd", "b3")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < bystanders; i++ {
		// Windows far above the stream: they size b2's PRT, match nothing.
		f := predicate.MustParse(fmt.Sprintf("[x,>,%d],[x,<,%d]", 1000+i, 1016+i))
		if _, err := crowd.Subscribe(f); err != nil {
			t.Fatal(err)
		}
	}
	mover, err := c.NewClient("mover", "b3")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mover.Subscribe(predicate.MustParse("[x,>,0],[x,<,100]")); err != nil {
		t.Fatal(err)
	}
	settle()
	mid := c.Broker("b2")
	if n := mid.Stats().PRTSize; n < bystanders {
		t.Fatalf("b2 holds %d subscriptions, want the %d bystanders and the mover", n, bystanders)
	}
	if _, err := pub.Publish(predicate.Event{"x": predicate.Number(1)}); err != nil {
		t.Fatal(err)
	}
	settle()
	before := mid.Stats().PRTIndexBuilds

	published := 1
	ends := []message.BrokerID{"b1", "b3"}
	for i := 0; i < moves; i++ {
		done := make(chan error, 1)
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			done <- mover.Move(ctx, ends[i%2])
		}()
		for k := 0; k < pubsPerMove; k++ {
			if _, err := pub.Publish(predicate.Event{"x": predicate.Number(1)}); err != nil {
				t.Fatal(err)
			}
			published++
		}
		if err := <-done; err != nil {
			t.Fatalf("move %d: %v", i, err)
		}
	}
	settle()

	builds := mid.Stats().PRTIndexBuilds - before
	t.Logf("%d moves beside %d publications: b2's match index built %d times", moves, published, builds)
	if builds > moves/8 {
		t.Errorf("b2's match index was built %d times during %d moves; a move must not cost a build", builds, moves)
	}
	got := map[message.PubID]int{}
	for {
		p, ok := mover.TryReceive()
		if !ok {
			break
		}
		got[p.ID]++
	}
	if len(got) != published {
		t.Errorf("mover received %d distinct publications of %d", len(got), published)
	}
	for id, n := range got {
		if n != 1 {
			t.Errorf("publication %s delivered %d times", id, n)
		}
	}
}
