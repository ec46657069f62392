package broker

import (
	"fmt"
	"runtime/debug"
	"sync/atomic"
	"testing"
	"time"

	"padres/internal/message"
	"padres/internal/metrics"
	"padres/internal/predicate"
	"padres/internal/transport"
)

// BenchmarkTelemetryOverhead measures what the latency observatory's
// per-stage instrumentation costs the publication dispatch hot path: the
// same stream runs through two identical broker testbeds, one with stage
// timing disabled (no clock reads: the bare path) and one with the default
// instrumentation on (the inbox-wait stamp at enqueue and its observation
// at dispatch). The budget holds the difference to <= 5% of per-publication
// cost — the "observability must not distort what it observes" gate.
//
// As in BenchmarkWALOverhead, the two modes alternate in small chunks
// inside one timed run so machine-load drift hits both equally, and the
// per-mode figures are interquartile means over the chunks. benchjson
// reads the off-ns/op / on-ns/op pair for the budget (BENCH_telemetry.json,
// `make bench-telemetry`).
func BenchmarkTelemetryOverhead(b *testing.B) {
	off := newTelemBench(b, false)
	defer off.close()
	on := newTelemBench(b, true)
	defer on.close()

	defer debug.SetGCPercent(debug.SetGCPercent(400))

	const chunk = 2048
	var offNs, onNs []float64
	b.ResetTimer()
	for done, i := 0, 0; done < b.N; done, i = done+chunk, i+1 {
		var offDur, onDur time.Duration
		if i%2 == 1 {
			onDur = on.run(b, chunk)
			offDur = off.run(b, chunk)
		} else {
			offDur = off.run(b, chunk)
			onDur = on.run(b, chunk)
		}
		offNs = append(offNs, float64(offDur.Nanoseconds())/chunk)
		onNs = append(onNs, float64(onDur.Nanoseconds())/chunk)
	}
	b.StopTimer()
	offTyp, onTyp := walMidmean(offNs), walMidmean(onNs)
	b.ReportMetric(offTyp, "off-ns/op")
	b.ReportMetric(onTyp, "on-ns/op")
	b.ReportMetric((onTyp/offTyp-1)*100, "overhead-pct")

	if on.bk.Metrics().InboxWait.Snapshot().Count == 0 {
		b.Fatal("instrumented testbed recorded no inbox_wait observations")
	}
	if off.bk.Metrics().InboxWait.Snapshot().Count != 0 {
		b.Fatal("bare testbed recorded inbox_wait observations with timing off")
	}
}

// telemBench is one broker testbed (Workers=4, no simulated service
// time) shaped like walBench: benchSubs subscriptions so every publication
// pays a realistic matching scan before local delivery.
type telemBench struct {
	reg       *metrics.Registry
	nw        *transport.Network
	bk        *Broker
	delivered atomic.Int64
	event     predicate.Event
	pubs      int
}

func newTelemBench(b *testing.B, stageTiming bool) *telemBench {
	b.Helper()
	tb := &telemBench{
		reg:   metrics.NewRegistry(),
		event: predicate.Event{"x": predicate.Number(42)},
	}
	tb.nw = transport.NewNetwork(tb.reg)
	bk, err := New(Config{ID: "b1", Net: tb.nw, Workers: 4})
	if err != nil {
		b.Fatal(err)
	}
	tb.bk = bk
	bk.Metrics().SetStageTiming(stageTiming)
	bk.Start()
	filter := predicate.MustParse("[x,>,0]")
	bk.AttachClient(message.ClientNode("cs", "b1"), func(message.Publish) { tb.delivered.Add(1) })
	bk.Inject(message.ClientNode("cp", "b1"), message.Advertise{ID: "a1", Client: "cp", Filter: filter})
	bk.Inject(message.ClientNode("cs", "b1"), message.Subscribe{ID: "s1", Client: "cs", Filter: filter})
	for i := 1; i < benchSubs; i++ {
		f := predicate.MustParse(fmt.Sprintf("[x,>,%d],[x,<,%d]", 1000+16*i, 1016+16*i))
		bk.Inject(message.ClientNode("cs", "b1"), message.Subscribe{ID: message.SubID(fmt.Sprintf("s%d", i+1)), Client: "cs", Filter: f})
	}
	deadline := time.Now().Add(10 * time.Second)
	for bk.Stats().PRTSize < benchSubs {
		if time.Now().After(deadline) {
			b.Fatal("subscriptions never installed")
		}
		time.Sleep(time.Millisecond)
	}
	return tb
}

// run injects k publications and waits for the matching subscriber to
// receive all of them, timing the whole chunk.
func (tb *telemBench) run(b *testing.B, k int) time.Duration {
	b.Helper()
	target := tb.delivered.Load() + int64(k)
	pubNode := message.ClientNode("cp", "b1")
	start := time.Now()
	for i := 0; i < k; i++ {
		tb.pubs++
		tb.bk.Inject(pubNode, message.Publish{ID: message.PubID(fmt.Sprintf("p%d", tb.pubs)), Event: tb.event})
	}
	deadline := time.Now().Add(120 * time.Second)
	for tb.delivered.Load() < target {
		if time.Now().After(deadline) {
			b.Fatalf("delivered %d of %d", tb.delivered.Load(), target)
		}
		time.Sleep(20 * time.Microsecond)
	}
	return time.Since(start)
}

func (tb *telemBench) close() {
	tb.bk.Stop()
	tb.nw.Close()
}
