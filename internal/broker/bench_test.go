package broker

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"padres/internal/journal"
	"padres/internal/message"
	"padres/internal/metrics"
	"padres/internal/overlay"
	"padres/internal/predicate"
	"padres/internal/transport"
)

// benchSubs is the PRT population for the dispatch benchmark: one
// matching subscription plus non-matching window filters, so every
// dispatch pays a realistic matching scan (the paper's workloads keep
// hundreds to thousands of subscriptions per broker, not one).
const benchSubs = 256

// benchDispatch measures the broker's publication hot path end to end —
// inject, dequeue, PRT match over benchSubs subscriptions, local delivery
// — on a single broker with one matching subscriber. The journaled
// variant exercises the flight recorder's per-dispatch cost (ring sink);
// comparing the two quantifies the journaling overhead the recorder is
// designed to keep under 5%.
func benchDispatch(b *testing.B, jnl *journal.Journal) {
	b.Helper()
	reg := metrics.NewRegistry()
	net := transport.NewNetwork(reg)
	defer net.Close()
	if jnl != nil {
		net.SetJournal(jnl)
	}
	top := overlay.New()
	if err := top.AddBroker("b1"); err != nil {
		b.Fatal(err)
	}
	hops, err := top.NextHops("b1")
	if err != nil {
		b.Fatal(err)
	}
	br, err := New(Config{ID: "b1", Net: net, Neighbors: top.Neighbors("b1"), NextHops: hops})
	if err != nil {
		b.Fatal(err)
	}
	br.Start()
	defer br.Stop()

	var delivered atomic.Int64
	pubNode := message.ClientNode("cp", "b1")
	subNode := message.ClientNode("cs", "b1")
	br.AttachClient(subNode, func(message.Publish) { delivered.Add(1) })
	br.Inject(pubNode, message.Advertise{ID: "a1", Client: "cp", Filter: predicate.MustParse("[x,>,0]")})
	br.Inject(subNode, message.Subscribe{ID: "s1", Client: "cs", Filter: predicate.MustParse("[x,>,0]")})
	for i := 1; i < benchSubs; i++ {
		f := predicate.MustParse(fmt.Sprintf("[x,>,%d],[x,<,%d]", 1000+16*i, 1016+16*i))
		br.Inject(subNode, message.Subscribe{ID: message.SubID(fmt.Sprintf("s%d", i+1)), Client: "cs", Filter: f})
	}
	deadline := time.Now().Add(5 * time.Second)
	for br.Stats().PRTSize < benchSubs {
		if time.Now().After(deadline) {
			b.Fatal("subscription never installed")
		}
		time.Sleep(time.Millisecond)
	}

	ev := predicate.Event{"x": predicate.Number(42)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br.Inject(pubNode, message.Publish{ID: message.PubID(fmt.Sprintf("p%d", i)), Event: ev})
	}
	for delivered.Load() < int64(b.N) {
		if time.Now().After(deadline.Add(time.Minute)) {
			b.Fatalf("delivered %d of %d", delivered.Load(), b.N)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

func BenchmarkBrokerDispatch(b *testing.B) {
	benchDispatch(b, nil)
}

func BenchmarkBrokerDispatchJournaled(b *testing.B) {
	benchDispatch(b, journal.New(0))
}

// scalingSubs keeps the scaling benchmark's setup cost (each subscription
// pays the serialized service time) small while still exercising a real
// matching pass.
const scalingSubs = 64

// benchDispatchScaling measures publication-dispatch throughput with the
// fig-8-style per-message service time (the paper's 2 ms broker processing
// cost) at a given matching width. Serially every publication pays the
// service time back to back; at Workers > 1 a run of up to `workers`
// publications pays it once, which is where the speedup comes from — by
// design it does not depend on spare CPU cores, so it holds on a
// single-core host too.
func benchDispatchScaling(b *testing.B, workers int) {
	b.Helper()
	reg := metrics.NewRegistry()
	net := transport.NewNetwork(reg)
	defer net.Close()
	top := overlay.New()
	if err := top.AddBroker("b1"); err != nil {
		b.Fatal(err)
	}
	hops, err := top.NextHops("b1")
	if err != nil {
		b.Fatal(err)
	}
	br, err := New(Config{
		ID: "b1", Net: net, Neighbors: top.Neighbors("b1"), NextHops: hops,
		Workers:     workers,
		ServiceTime: 2 * time.Millisecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	br.Start()
	defer br.Stop()

	var delivered atomic.Int64
	pubNode := message.ClientNode("cp", "b1")
	subNode := message.ClientNode("cs", "b1")
	br.AttachClient(subNode, func(message.Publish) { delivered.Add(1) })
	br.Inject(pubNode, message.Advertise{ID: "a1", Client: "cp", Filter: predicate.MustParse("[x,>,0]")})
	br.Inject(subNode, message.Subscribe{ID: "s1", Client: "cs", Filter: predicate.MustParse("[x,>,0]")})
	for i := 1; i < scalingSubs; i++ {
		f := predicate.MustParse(fmt.Sprintf("[x,>,%d],[x,<,%d]", 1000+16*i, 1016+16*i))
		br.Inject(subNode, message.Subscribe{ID: message.SubID(fmt.Sprintf("s%d", i+1)), Client: "cs", Filter: f})
	}
	deadline := time.Now().Add(60 * time.Second)
	for br.Stats().PRTSize < scalingSubs {
		if time.Now().After(deadline) {
			b.Fatal("subscription never installed")
		}
		time.Sleep(time.Millisecond)
	}

	ev := predicate.Event{"x": predicate.Number(42)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br.Inject(pubNode, message.Publish{ID: message.PubID(fmt.Sprintf("p%d", i)), Event: ev})
	}
	for delivered.Load() < int64(b.N) {
		if time.Now().After(deadline.Add(5 * time.Minute)) {
			b.Fatalf("delivered %d of %d", delivered.Load(), b.N)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// BenchmarkDispatchScaling is parallel matching's acceptance benchmark:
// ns/op at workers=4 must be at least 2x better than workers=1
// (cmd/benchjson -require-scaling enforces it on BENCH_dispatch.json). The
// ratio is the cost model's arithmetic — cost() charges a run one service
// time, which TestEventDriverServiceTime pins exactly — and says nothing
// about matching: with ServiceTime=0 the fan-out loses to the serial path.
func BenchmarkDispatchScaling(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			benchDispatchScaling(b, workers)
		})
	}
}
