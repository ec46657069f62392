package broker

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"padres/internal/message"
	"padres/internal/predicate"
)

// wakeLog records, in order, the deliveries to b1's local client and the
// wake-ups it hands to DeferWake — what client.Client does with SetWakeVia.
type wakeLog struct {
	mu     sync.Mutex
	events []string
}

func (l *wakeLog) add(e string) {
	l.mu.Lock()
	l.events = append(l.events, e)
	l.mu.Unlock()
}

func (l *wakeLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return strings.Join(l.events, " ")
}

// wakeRig attaches the logging client at b1, with a subscriber behind b2 so
// that every publication is also forwarded, and returns a function that
// queues n publications on a paused b1 — each followed, if mixed, by a
// subscription from another local client — releases it and waits for the
// drain: the goroutine driver handles them without waiting in between.
func wakeRig(t *testing.T, cfg rigConfig) (log *wakeLog, burst func(n int, mixed bool)) {
	r := newDispatchRig(t, cfg)
	log = &wakeLog{}
	pubNode, subNode := message.ClientNode("pub", "b1"), message.ClientNode("sub", "b1")
	otherNode, farNode := message.ClientNode("other", "b1"), message.ClientNode("far", "b2")
	r.b1.AttachClient(subNode, func(m message.Publish) {
		log.add("d")
		r.b1.DeferWake(func() { log.add("w") })
	})
	r.b2.AttachClient(farNode, func(message.Publish) {})
	r.b1.Inject(pubNode, message.Advertise{ID: "a", Client: "pub", Filter: predicate.MustParse("[x,>,0]")})
	r.settle(t)
	r.b1.Inject(subNode, message.Subscribe{ID: "s", Client: "sub", Filter: predicate.MustParse("[x,>,0]")})
	r.b2.Inject(farNode, message.Subscribe{ID: "f", Client: "far", Filter: predicate.MustParse("[x,>,0]")})
	r.settle(t)
	seq := 0
	return log, func(n int, mixed bool) {
		r.b1.Pause()
		for i := 0; i < n; i++ {
			seq++
			r.b1.Inject(pubNode, message.Publish{ID: message.PubID(fmt.Sprintf("p%d", seq)), Event: predicate.Event{"x": predicate.Number(1)}})
			if mixed {
				r.b1.Inject(otherNode, message.Subscribe{ID: message.SubID(fmt.Sprintf("o%d", seq)), Client: "other", Filter: predicate.MustParse("[x,<,0]")})
			}
		}
		r.b1.Unpause()
		r.settle(t)
	}
}

// TestDeferWakeWakesLast: with a message of another kind waiting behind the
// publication, the wake-up of its local delivery is issued when the inbox
// has run empty, behind every forward made meanwhile, so the receiver's is
// the wake-up the scheduler runs next. Issued on the spot (the log would read
// "d w d w d w") each was displaced by the following forward. A run of
// publications alone wakes its receiver as it goes.
func TestDeferWakeWakesLast(t *testing.T) {
	log, burst := wakeRig(t, rigConfig{workers: 1})
	burst(3, true)
	if got := log.String(); got != "d d d w w w" {
		t.Errorf("3 publications among subscriptions: got %q, want the wake-ups last", got)
	}
	log.mu.Lock()
	log.events = nil
	log.mu.Unlock()
	burst(3, false)
	if got := log.String(); got != "d w d w d w" {
		t.Errorf("3 publications alone: got %q, want each wake-up issued with its delivery", got)
	}
}

// TestDeferWakeIsBounded: an inbox that never runs empty does not hold a
// wake-up back for more than maxHeld dispatches.
func TestDeferWakeIsBounded(t *testing.T) {
	log, burst := wakeRig(t, rigConfig{workers: 1})
	const pubs = 2 * maxHeld // publication, subscription, …: 4·maxHeld dispatches
	burst(pubs, true)
	events := strings.Fields(log.String())
	held, woken := 0, 0
	for _, e := range events {
		if e == "w" {
			woken++
			held = 0
		} else if held++; held > maxHeld/2+1 {
			t.Fatalf("%d deliveries in a row with their wake-ups held back, over %d dispatches: %s", held, 2*held-1, log)
		}
	}
	if woken != pubs || len(events) != 2*pubs {
		t.Fatalf("%d deliveries, %d wake-ups, want %d of each", len(events)-woken, woken, pubs)
	}
}

// TestDeferWakeImmediate: a wake-up is issued on the spot while the inbox is
// empty, always under the event driver, and always when a simulated service
// delay separates dispatches.
func TestDeferWakeImmediate(t *testing.T) {
	t.Run("idle", func(t *testing.T) {
		r := newDispatchRig(t, rigConfig{workers: 1})
		woken := false
		r.b1.DeferWake(func() { woken = true })
		if !woken {
			t.Error("DeferWake held a wake-up with no dispatch in progress")
		}
	})
	for _, cfg := range []rigConfig{{virtual: true, workers: 1}, {workers: 1, serviceTime: time.Millisecond}} {
		t.Run(fmt.Sprintf("%s/service=%s", cfg, cfg.serviceTime), func(t *testing.T) {
			log, burst := wakeRig(t, cfg)
			burst(3, true)
			if got := log.String(); got != "d w d w d w" {
				t.Errorf("got %q, want every wake-up issued with its delivery", got)
			}
		})
	}
}
