package broker

import (
	"context"
	"strconv"
	"testing"
	"time"

	"padres/internal/client"
	"padres/internal/israce"
	"padres/internal/message"
	"padres/internal/overlay"
	"padres/internal/predicate"
)

// TestHopAllocBudget sends bursts of publications through every mailbox on
// the message path — b1's inbox, the b1→b2 link queue, b2's inbox, the
// subscriber's notification queue — on a warmed zero-delay network. The
// publications are built and boxed beforehand, so what is left is the
// hand-off itself, and handing a message on allocates nothing. The budget
// of one allocation per burst is the registry's quiescence channel, made
// when the network goes from idle to busy; the subscriber's set of seen IDs
// grows by well under one allocation per burst.
func TestHopAllocBudget(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts differ under the race detector")
	}
	top, err := overlay.Linear(2)
	if err != nil {
		t.Fatal(err)
	}
	tn := buildNet(t, top, false)
	sub := client.New("sub")
	if err := sub.Attach("b2"); err != nil {
		t.Fatal(err)
	}
	tn.brokers["b2"].AttachClient(sub.Node(), sub.DeliverLocal)
	sub.SetWakeVia(tn.brokers["b2"].DeferWake) // as a container wires it
	tn.send("pub", "b1", message.Advertise{ID: "a1", Client: "pub", Filter: predicate.MustParse("[x,>,0]")})
	tn.settle()
	tn.send("sub", "b2", message.Subscribe{ID: "s1", Client: "sub", Filter: predicate.MustParse("[x,>,10]")})
	tn.settle()

	const burst, warm, runs = 16, 20, 500
	pubs := make([]message.Message, burst*(warm+runs+1)) // AllocsPerRun makes one warm-up call
	for i := range pubs {
		pubs[i] = message.Publish{ID: message.PubID("p" + strconv.Itoa(i)), Client: "pub",
			Event: predicate.Event{"x": predicate.Number(50)}}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	b1, from, next := tn.brokers["b1"], message.ClientNode("pub", "b1"), 0
	hop := func() {
		b1.Pause() // the burst queues up whole: the network goes busy once
		for _, m := range pubs[next : next+burst] {
			b1.Inject(from, m)
		}
		b1.Unpause()
		if err := tn.reg.AwaitQuiescent(ctx); err != nil {
			t.Fatal(err)
		}
		for _, m := range pubs[next : next+burst] {
			got, err := sub.Receive(ctx)
			if err != nil || got.ID != m.(message.Publish).ID {
				t.Fatalf("Receive = %v, %v, want publication %s", got.ID, err, m.(message.Publish).ID)
			}
		}
		next += burst
	}
	for i := 0; i < warm; i++ {
		hop()
	}
	if got := testing.AllocsPerRun(runs, hop); got > 1 {
		t.Errorf("a burst of %d publications across the hop allocates %.0f times, budget 1", burst, got)
	}
}
