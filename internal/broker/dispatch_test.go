package broker

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"padres/internal/message"
	"padres/internal/metrics"
	"padres/internal/overlay"
	"padres/internal/predicate"
	"padres/internal/sim"
	"padres/internal/transport"
)

// dispatchRig is two linked brokers b1-b2 sharing one registry, whose
// in-flight accounting the tests use as a barrier. With vc set the pair runs
// on a virtual clock: the same dispatch core behind the event driver, with
// the test goroutine as the event loop.
type dispatchRig struct {
	b1, b2 *Broker
	reg    *metrics.Registry
	vc     *sim.VirtualClock
}

type rigConfig struct {
	virtual     bool
	workers     int
	inboxCap    int
	serviceTime time.Duration
}

func (c rigConfig) String() string {
	clock := "wall"
	if c.virtual {
		clock = "virtual"
	}
	return fmt.Sprintf("%s/workers=%d", clock, c.workers)
}

// bothDrivers is the table every ordering test runs over: each driver at
// the serial width and at a parallel one.
var bothDrivers = []rigConfig{
	{virtual: false, workers: 1},
	{virtual: false, workers: 8},
	{virtual: true, workers: 1},
	{virtual: true, workers: 8},
}

// newDispatchRig builds and starts the pair, with cleanup registered.
func newDispatchRig(t *testing.T, cfg rigConfig) *dispatchRig {
	t.Helper()
	r := &dispatchRig{reg: metrics.NewRegistry()}
	var clk sim.Clock
	if cfg.virtual {
		r.vc = sim.NewVirtualClock(time.Unix(1_000_000_000, 0).UTC())
		clk = r.vc
	}
	net := transport.NewNetworkClocked(r.reg, clk)
	t.Cleanup(net.Close)
	top := overlay.New()
	for _, id := range []message.BrokerID{"b1", "b2"} {
		if err := top.AddBroker(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := top.Connect("b1", "b2"); err != nil {
		t.Fatal(err)
	}
	brokers := make(map[message.BrokerID]*Broker, 2)
	for _, id := range []message.BrokerID{"b1", "b2"} {
		hops, err := top.NextHops(id)
		if err != nil {
			t.Fatal(err)
		}
		b, err := New(Config{
			ID: id, Net: net, Neighbors: top.Neighbors(id), NextHops: hops,
			Workers: cfg.workers, InboxCapacity: cfg.inboxCap, ServiceTime: cfg.serviceTime,
		})
		if err != nil {
			t.Fatal(err)
		}
		b.Start()
		t.Cleanup(b.Stop)
		brokers[id] = b
	}
	if err := net.AddLink("b1", "b2", transport.LinkOptions{CountTraffic: true}); err != nil {
		t.Fatal(err)
	}
	r.b1, r.b2 = brokers["b1"], brokers["b2"]
	return r
}

// settle blocks until every injected message has fully drained — processed,
// forwarded, and delivered — using the registry's in-flight accounting.
// Brokers release a message's token only after processing it, forwards and
// deliveries included, so quiescence implies routing-table updates and
// client deliveries are visible. Under the virtual clock, settling is
// running the event loop dry.
func (r *dispatchRig) settle(t *testing.T) {
	t.Helper()
	if r.vc != nil {
		r.vc.Run(10_000_000)
		if n := r.reg.Inflight(); n != 0 {
			t.Fatalf("event loop ran dry with %d messages in flight", n)
		}
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := r.reg.AwaitQuiescent(ctx); err != nil {
		t.Fatalf("brokers never went quiescent: %v", err)
	}
}

// TestPipelineOrdering drives several publication sources through a
// two-broker path and asserts the ordering contract dispatch must preserve
// at every width, under either driver: every publication is delivered
// exactly once, and deliveries from one source arrive in that source's
// publish order.
func TestPipelineOrdering(t *testing.T) {
	for _, cfg := range bothDrivers {
		t.Run(cfg.String(), func(t *testing.T) { testPipelineOrdering(t, cfg) })
	}
}

func testPipelineOrdering(t *testing.T, cfg rigConfig) {
	r := newDispatchRig(t, cfg)
	b1, b2 := r.b1, r.b2

	const sources = 4
	const perSource = 200

	var mu sync.Mutex
	seen := make(map[string]int)       // pub ID -> delivery count
	lastSeq := make([]int, sources)    // per-source last delivered seq
	violations := make([]string, 0, 4) // ordering violations
	for i := range lastSeq {
		lastSeq[i] = -1
	}
	var delivered atomic.Int64

	subNode := message.ClientNode("sub", "b2")
	b2.AttachClient(subNode, func(m message.Publish) {
		// Deliveries run on b2's dispatcher, so the callback is
		// single-threaded; the mutex also covers the final assertions.
		parts := strings.SplitN(string(m.ID), "-", 2)
		src, _ := strconv.Atoi(strings.TrimPrefix(parts[0], "p"))
		seq, _ := strconv.Atoi(parts[1])
		mu.Lock()
		seen[string(m.ID)]++
		if seq <= lastSeq[src] {
			violations = append(violations,
				fmt.Sprintf("source %d: seq %d delivered after %d", src, seq, lastSeq[src]))
		}
		lastSeq[src] = seq
		mu.Unlock()
		delivered.Add(1)
	})

	pubNodes := make([]message.NodeID, sources)
	for i := range pubNodes {
		pubNodes[i] = message.ClientNode(message.ClientID(fmt.Sprintf("p%d", i)), "b1")
		b1.Inject(pubNodes[i], message.Advertise{
			ID:     message.AdvID(fmt.Sprintf("a%d", i)),
			Client: message.ClientID(fmt.Sprintf("p%d", i)),
			Filter: predicate.MustParse("[x,>,0]"),
		})
	}
	b2.Inject(subNode, message.Subscribe{ID: "s1", Client: "sub", Filter: predicate.MustParse("[x,>,0]")})

	r.settle(t)
	if b1.Stats().PRTSize < 1 {
		t.Fatal("subscription never reached b1")
	}

	var wg sync.WaitGroup
	for src := 0; src < sources; src++ {
		wg.Add(1)
		go func(src int) {
			defer wg.Done()
			for seq := 0; seq < perSource; seq++ {
				b1.Inject(pubNodes[src], message.Publish{
					ID:    message.PubID(fmt.Sprintf("p%d-%d", src, seq)),
					Event: predicate.Event{"x": predicate.Number(float64(1 + seq))},
				})
			}
		}(src)
	}
	wg.Wait()

	want := int64(sources * perSource)
	r.settle(t)
	if got := delivered.Load(); got != want {
		t.Fatalf("delivered %d of %d", got, want)
	}

	mu.Lock()
	defer mu.Unlock()
	for _, v := range violations {
		t.Errorf("FIFO violation: %s", v)
	}
	if len(seen) != int(want) {
		t.Errorf("distinct publications delivered = %d, want %d", len(seen), want)
	}
	for id, n := range seen {
		if n != 1 {
			t.Errorf("publication %s delivered %d times, want exactly once", id, n)
		}
	}
}

// TestPipelineControlBarrier checks that routing-state messages are totally
// ordered with publications: an unsubscription enqueued after a burst of
// publications must not overtake them — every publication published before
// the unsubscribe is delivered.
func TestPipelineControlBarrier(t *testing.T) {
	for _, cfg := range bothDrivers {
		t.Run(cfg.String(), func(t *testing.T) { testPipelineControlBarrier(t, cfg) })
	}
}

func testPipelineControlBarrier(t *testing.T, cfg rigConfig) {
	r := newDispatchRig(t, cfg)
	b1 := r.b1

	var delivered atomic.Int64
	subNode := message.ClientNode("sub", "b1")
	pubNode := message.ClientNode("pub", "b1")
	b1.AttachClient(subNode, func(message.Publish) { delivered.Add(1) })
	b1.Inject(pubNode, message.Advertise{ID: "a1", Client: "pub", Filter: predicate.MustParse("[x,>,0]")})
	b1.Inject(subNode, message.Subscribe{ID: "s1", Client: "sub", Filter: predicate.MustParse("[x,>,0]")})

	r.settle(t)
	if b1.Stats().PRTSize < 1 {
		t.Fatal("subscription never installed")
	}

	const pubs = 500
	for i := 0; i < pubs; i++ {
		b1.Inject(pubNode, message.Publish{
			ID:    message.PubID(fmt.Sprintf("p%d", i)),
			Event: predicate.Event{"x": predicate.Number(float64(1 + i))},
		})
	}
	// The unsubscribe is behind all pubs in the inbox; a run of publications
	// never extends past it, so each is delivered before the PRT entry is
	// removed.
	b1.Inject(subNode, message.Unsubscribe{ID: "s1", Client: "sub"})

	r.settle(t)
	if b1.Stats().PRTSize > 0 {
		t.Fatal("unsubscribe never processed")
	}
	if got := delivered.Load(); got != pubs {
		t.Fatalf("delivered %d of %d publications enqueued before the unsubscribe", got, pubs)
	}
}

// TestInboxBackpressure verifies that a bounded inbox blocks producers
// instead of growing without bound: with the broker paused, injecting past
// the capacity must park the producer until Unpause frees slots, and the
// backpressure counter must record the episode. Wall clock only: the event
// driver cannot park a producer on the simulator's one loop goroutine, so
// it keeps the inbox unbounded (ROADMAP item 2 follow-up: credit-based
// backpressure).
func TestInboxBackpressure(t *testing.T) {
	const capacity = 8
	r := newDispatchRig(t, rigConfig{workers: 1, inboxCap: capacity})
	b1 := r.b1

	var delivered atomic.Int64
	subNode := message.ClientNode("sub", "b1")
	pubNode := message.ClientNode("pub", "b1")
	b1.AttachClient(subNode, func(message.Publish) { delivered.Add(1) })
	b1.Inject(pubNode, message.Advertise{ID: "a1", Client: "pub", Filter: predicate.MustParse("[x,>,0]")})
	b1.Inject(subNode, message.Subscribe{ID: "s1", Client: "sub", Filter: predicate.MustParse("[x,>,0]")})
	r.settle(t)
	if b1.Stats().PRTSize < 1 {
		t.Fatal("subscription never installed")
	}

	b1.Pause()
	const pubs = 3 * capacity
	producerDone := make(chan struct{})
	go func() {
		defer close(producerDone)
		for i := 0; i < pubs; i++ {
			b1.Inject(pubNode, message.Publish{
				ID:    message.PubID(fmt.Sprintf("p%d", i)),
				Event: predicate.Event{"x": predicate.Number(float64(1 + i))},
			})
		}
	}()

	select {
	case <-producerDone:
		t.Fatal("producer ran past a full paused inbox without blocking")
	case <-time.After(100 * time.Millisecond):
		// Producer is parked on the full inbox, as intended.
	}
	if b1.Stats().BackpressureWaits == 0 {
		t.Fatal("backpressure wait not recorded")
	}
	if depth := b1.Stats().QueueDepth; depth > capacity {
		t.Fatalf("inbox depth %d exceeds capacity %d", depth, capacity)
	}

	b1.Unpause()
	select {
	case <-producerDone:
	case <-time.After(10 * time.Second):
		t.Fatal("producer still blocked after Unpause")
	}
	r.settle(t)
	if got := delivered.Load(); got != pubs {
		t.Fatalf("delivered %d of %d", got, pubs)
	}
}

// TestEventDriverServiceTime pins the core's cost rule and the event
// driver's pacing in exact virtual time: serially every publication pays the
// service time back to back, while a run of up to Workers publications pays
// it once; a paused broker dispatches nothing until Unpause re-arms it.
func TestEventDriverServiceTime(t *testing.T) {
	const service = 2 * time.Millisecond
	const pubs = 8
	for _, tc := range []struct {
		workers int
		want    time.Duration
	}{
		{workers: 1, want: pubs * service},
		{workers: 4, want: pubs / 4 * service},
	} {
		t.Run(fmt.Sprintf("workers=%d", tc.workers), func(t *testing.T) {
			r := newDispatchRig(t, rigConfig{virtual: true, workers: tc.workers, serviceTime: service})
			b1 := r.b1
			var delivered atomic.Int64
			subNode := message.ClientNode("sub", "b1")
			pubNode := message.ClientNode("pub", "b1")
			b1.AttachClient(subNode, func(message.Publish) { delivered.Add(1) })
			b1.Inject(pubNode, message.Advertise{ID: "a1", Client: "pub", Filter: predicate.MustParse("[x,>,0]")})
			b1.Inject(subNode, message.Subscribe{ID: "s1", Client: "sub", Filter: predicate.MustParse("[x,>,0]")})
			r.settle(t)

			b1.Pause()
			for i := 0; i < pubs; i++ {
				b1.Inject(pubNode, message.Publish{
					ID:    message.PubID(fmt.Sprintf("p%d", i)),
					Event: predicate.Event{"x": predicate.Number(float64(1 + i))},
				})
			}
			r.vc.Run(0)
			if got := delivered.Load(); got != 0 {
				t.Fatalf("paused broker delivered %d publications", got)
			}

			start := r.vc.Now()
			b1.Unpause()
			r.settle(t)
			if got := delivered.Load(); got != pubs {
				t.Fatalf("delivered %d of %d", got, pubs)
			}
			if got := r.vc.Since(start); got != tc.want {
				t.Fatalf("%d publications took %v of virtual time, want %v", pubs, got, tc.want)
			}
		})
	}
}

// TestStopDuringService pins the one shutdown rule both drivers share: a
// message whose service delay Stop cuts short is released unprocessed, like
// the rest of the inbox — so the simulator stops a broker the way production
// does.
func TestStopDuringService(t *testing.T) {
	const service = 100 * time.Millisecond
	for _, virtual := range []bool{false, true} {
		cfg := rigConfig{virtual: virtual, workers: 1, serviceTime: service}
		t.Run(cfg.String(), func(t *testing.T) {
			r := newDispatchRig(t, cfg)
			b1 := r.b1
			var delivered atomic.Int64
			subNode := message.ClientNode("sub", "b1")
			pubNode := message.ClientNode("pub", "b1")
			b1.AttachClient(subNode, func(message.Publish) { delivered.Add(1) })
			b1.Inject(pubNode, message.Advertise{ID: "a1", Client: "pub", Filter: predicate.MustParse("[x,>,0]")})
			b1.Inject(subNode, message.Subscribe{ID: "s1", Client: "sub", Filter: predicate.MustParse("[x,>,0]")})
			r.settle(t)

			b1.Inject(pubNode, message.Publish{ID: "p0", Event: predicate.Event{"x": predicate.Number(1)}})
			// Let the driver pop p0 and start paying for it.
			if virtual {
				r.vc.RunFor(service / 2)
			} else {
				for deadline := time.Now().Add(5 * time.Second); b1.Stats().QueueDepth > 0; {
					if time.Now().After(deadline) {
						t.Fatal("driver never popped the publication")
					}
					time.Sleep(100 * time.Microsecond)
				}
			}
			b1.Stop()
			if virtual {
				r.vc.Run(0)
			}
			if got := delivered.Load(); got != 0 {
				t.Fatalf("stopped broker delivered %d publications", got)
			}
			if n := r.reg.Inflight(); n != 0 {
				t.Fatalf("%d messages still in flight after Stop", n)
			}
		})
	}
}
