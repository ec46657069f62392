package broker

import (
	"runtime/debug"
	"testing"
	"time"

	"padres/internal/sim"
)

// clockReadsPerDispatch is a conservative upper bound on the number of
// clock-seam calls (Now/Since) one publication pays on the dispatch path:
// the inbox-wait stamp at enqueue, the wait observation and dispatch stamp
// at dequeue, the match timer pair, the dispatch timer pair, and slack for
// the journal stamp.
const clockReadsPerDispatch = 8

// BenchmarkSimClockOverhead bounds what the deterministic simulator's clock
// seam costs the real-time dispatch path. Every time read on the hot path
// goes through the sim.Clock interface now (sim.Wall in production), so the
// seam cannot be toggled off; instead the benchmark measures the realistic
// per-dispatch cost on a live broker testbed (on-ns/op) and the seam's
// marginal cost directly — the per-call difference between sim.Wall.Now()
// through the interface and a raw time.Now(), multiplied by the
// clockReadsPerDispatch bound. off-ns/op is the dispatch cost with that
// margin subtracted, i.e. the counterfactual direct-call broker. The
// budget holds the indirection to <= 5% of per-publication dispatch cost
// (benchjson -require-sim, BENCH_sim.json, `make bench-sim`).
func BenchmarkSimClockOverhead(b *testing.B) {
	tb := newTelemBench(b, true) // default instrumentation: the production path
	defer tb.close()

	defer debug.SetGCPercent(debug.SetGCPercent(400))

	// Per-call seam cost: interface dispatch to the wall clock vs the raw
	// time package. The interface variable defeats devirtualization, as on
	// the real path where the broker holds a sim.Clock field.
	const probes = 1 << 20
	var clk sim.Clock = sim.Wall
	var sink time.Time
	seamStart := time.Now()
	for i := 0; i < probes; i++ {
		sink = clk.Now()
	}
	seamNs := float64(time.Since(seamStart).Nanoseconds()) / probes
	directStart := time.Now()
	for i := 0; i < probes; i++ {
		sink = time.Now()
	}
	directNs := float64(time.Since(directStart).Nanoseconds()) / probes
	_ = sink
	deltaNs := (seamNs - directNs) * clockReadsPerDispatch
	if deltaNs < 0 {
		deltaNs = 0
	}

	const chunk = 2048
	var onNs []float64
	b.ResetTimer()
	for done := 0; done < b.N; done += chunk {
		dur := tb.run(b, chunk)
		onNs = append(onNs, float64(dur.Nanoseconds())/chunk)
	}
	b.StopTimer()

	onTyp := walMidmean(onNs)
	offTyp := onTyp - deltaNs
	b.ReportMetric(offTyp, "off-ns/op")
	b.ReportMetric(onTyp, "on-ns/op")
	b.ReportMetric(deltaNs/offTyp*100, "overhead-pct")
	b.ReportMetric(seamNs, "seam-ns/call")
}
