package main

import (
	"context"
	"fmt"
	"io"
	"runtime/metrics"
	"sort"
	"time"

	"padres/internal/audit"
	"padres/internal/core"
	"padres/internal/journal"
	"padres/internal/telemetry"
)

// traceState is what a traced run gathers beyond the end-to-end windows:
// the movement protocol's phase spans (through the program's own event
// sink), and before/after snapshots of the counters and histograms the
// program exports through public accessors. Nothing here reaches into the
// program; in-program spans are a later change.
type traceState struct {
	spans         *telemetry.SpanRecorder
	before, after exported
}

// exported is one reading of the program's public instruments, summed over
// a rig's brokers, plus the runtime's GC accounting.
type exported struct {
	cpu         time.Duration
	inboxWait   telemetry.HistogramSnapshot
	match       telemetry.HistogramSnapshot
	dropped     int64
	highWater   int64
	durable     bool
	walAppends  int64
	walBytes    int64
	fsyncs      int64
	commit      telemetry.HistogramSnapshot
	gcCPU       float64 // seconds
	gcPauses    *metrics.Float64Histogram
	newS, popuS float64
}

func newTraceState() *traceState { return &traceState{spans: telemetry.NewSpanRecorder(1 << 20)} }

func (ts *traceState) sink() core.EventSink { return core.PhaseSink(ts.spans) }

func readExported(r rig) exported {
	e := exported{cpu: cpuTime()}
	for _, b := range r.brokers() {
		st := b.Stats()
		// Merge cannot fail: every broker uses the default latency buckets.
		_ = e.inboxWait.Merge(st.Stages[telemetry.StageInboxWait])
		_ = e.match.Merge(st.Stages[telemetry.StageMatch])
		e.dropped += st.DroppedPublications
		e.highWater = max(e.highWater, st.QueueHighWater)
		if sm := b.StoreMetrics(); sm != nil {
			e.durable = true
			e.walAppends += sm.WALAppends.Value()
			e.walBytes += sm.WALBytes.Value()
			e.fsyncs += sm.Fsyncs.Value()
			_ = e.commit.Merge(sm.CommitLatency.Snapshot())
		}
	}
	samples := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/gc/pauses:seconds"}}
	metrics.Read(samples)
	if samples[0].Value.Kind() == metrics.KindFloat64 {
		e.gcCPU = samples[0].Value.Float64()
	}
	if samples[1].Value.Kind() == metrics.KindFloat64Histogram {
		e.gcPauses = samples[1].Value.Float64Histogram()
	}
	e.newS, e.popuS = r.setupParts()
	return e
}

func (ts *traceState) begin(r rig) { ts.before = readExported(r) }
func (ts *traceState) end(r rig)   { ts.after = readExported(r) }

// histDiff returns the observations b gained over a.
func histDiff(a, b telemetry.HistogramSnapshot) telemetry.HistogramSnapshot {
	if len(a.Counts) != len(b.Counts) {
		return b
	}
	d := telemetry.HistogramSnapshot{Bounds: b.Bounds, Counts: make([]int64, len(b.Counts)), Sum: b.Sum - a.Sum, Count: b.Count - a.Count}
	for i := range d.Counts {
		d.Counts[i] = b.Counts[i] - a.Counts[i]
	}
	return d
}

// histQuantileUs estimates the q-quantile of a bucketed latency histogram
// in microseconds, interpolating linearly inside the bucket the rank falls
// in. The program's buckets are coarse (50 µs at the bottom), so this is an
// estimate of where in a bucket the quantile sits, not a measurement.
func histQuantileUs(h telemetry.HistogramSnapshot, q float64) float64 {
	if h.Count == 0 || len(h.Bounds) == 0 {
		return 0
	}
	rank := q * float64(h.Count)
	var cum float64
	for i, c := range h.Counts {
		if c > 0 && cum+float64(c) >= rank {
			lo, hi := 0.0, h.Bounds[len(h.Bounds)-1]
			if i > 0 {
				lo = h.Bounds[i-1]
			}
			if i < len(h.Bounds) {
				hi = h.Bounds[i]
			}
			return (lo + (rank-cum)/float64(c)*(hi-lo)) * 1e6
		}
		cum += float64(c)
	}
	return h.Bounds[len(h.Bounds)-1] * 1e6
}

// gcPauseP99us is the 99th percentile of the GC pauses that ended between
// the two readings, from the runtime's cumulative pause histogram.
func gcPauseP99us(a, b *metrics.Float64Histogram) float64 {
	if a == nil || b == nil || len(a.Counts) != len(b.Counts) {
		return 0
	}
	var total uint64
	diff := make([]uint64, len(b.Counts))
	for i := range diff {
		diff[i] = b.Counts[i] - a.Counts[i]
		total += diff[i]
	}
	if total == 0 {
		return 0
	}
	rank := uint64(float64(total)*0.99 + 0.5)
	var cum uint64
	for i, c := range diff {
		cum += c
		if cum >= rank {
			return b.Buckets[i+1] * 1e6 // the bucket's upper edge
		}
	}
	return 0
}

// perLayerNames lists every per-layer metric a traced run reports, in the
// order BENCHMARK.json lists them.
func perLayerNames() []string {
	return []string{
		"predicate.filter_matches_ns",
		"matching.prt_match_ns", "matching.prt_match_allocs",
		"matching.prt_insert_ns", "matching.prt_remove_ns", "matching.srt_intersecting_ns",
		"matching.match_after_write_ns", "matching.heap_bytes_per_sub",
		"message.marshal_ns", "message.unmarshal_ns", "message.roundtrip_allocs", "message.frame_bytes",
		"transport.link_send_ns", "transport.link_send_allocs", "transport.link_hop_p50_us",
		"transport.tcp_rtt_p50_us", "transport.tcp_bytes_per_op",
		"broker.dispatch_ns", "broker.dispatch_allocs",
		"broker.stage.inbox_wait_p50_us", "broker.stage.inbox_wait_p99_us",
		"broker.stage.match_p50_us", "broker.stage.match_p99_us", "broker.queue_high_water",
		"broker.dispatches_per_op", "broker.sends_per_op", "broker.dropped_publications",
		"core.phase.init_p50_us", "core.phase.prepare_p50_us", "core.phase.precommit_p50_us",
		"core.phase.commit_p50_us", "core.phase.accounted_pct",
		"core.ctrl_msgs_per_move", "broker.routing_msgs_per_move", "core.aborted_moves", "core.rejected_moves",
		"client.publish_call_ns", "client.dedup_dropped_per_move", "client.queued_during_move",
		"store.append_ns", "store.append_sync_p50_us", "store.commit_latency_p50_us",
		"store.commit_latency_p99_us", "store.wal_bytes_per_op", "store.records_per_fsync",
		"journal.add_ns", "journal.records_per_move", "journal.dropped",
		"metrics.account_ns",
		"cluster.new_s", "cluster.populate_s",
		"runtime.gc_cpu_pct", "runtime.gc_pause_p99_us",
		"pub_notify_p99_us", "move_commit_p99_us",
		"gen.lateness_p99_us", "run.window_spread_pct", "trace.overhead_pct", "ledger.cpu_accounted_pct",
	}
}

// perLayer fills res.Metrics with every per-layer metric: counters and
// histograms read from the program's public accessors over the traced
// windows, the layer replay's per-call costs, and their reconciliation
// against the end-to-end CPU cost. The rig is already closed.
func (ts *traceState) perLayer(w io.Writer, res *result, ws workloadSpec, plan []phaseSpec, pop *population, phases map[string]phaseResult, e2e map[string]metricValue, spreads map[string]float64, opt runOptions, replayBudget time.Duration) error {
	set := func(name, unit string, v float64) { res.Metrics[name] = metricValue{Value: v, Unit: unit} }
	lc, err := replayLayers(pop, opt.seed, opt.baseDir, replayBudget)
	if err != nil {
		return err
	}
	set("predicate.filter_matches_ns", "ns", lc.filterMatches.ns)
	set("matching.prt_match_ns", "ns", lc.prtMatch.ns)
	set("matching.prt_match_allocs", "count", lc.prtMatch.allocs)
	set("matching.prt_insert_ns", "ns", lc.prtInsert.ns)
	set("matching.prt_remove_ns", "ns", lc.prtRemove.ns)
	set("matching.srt_intersecting_ns", "ns", lc.srtIntersecting.ns)
	set("matching.match_after_write_ns", "ns", lc.matchAfterWrite.ns)
	set("matching.heap_bytes_per_sub", "B", lc.heapBytesPerSub)
	set("message.marshal_ns", "ns", lc.marshal.ns)
	set("message.unmarshal_ns", "ns", lc.unmarshal.ns)
	set("message.roundtrip_allocs", "count", lc.marshal.allocs+lc.unmarshal.allocs)
	set("message.frame_bytes", "B", lc.frameBytes)
	set("transport.link_send_ns", "ns", lc.linkSend.ns)
	set("transport.link_send_allocs", "count", lc.linkSend.allocs)
	set("transport.link_hop_p50_us", "us", lc.linkHopP50us)
	set("transport.tcp_rtt_p50_us", "us", lc.tcpRTTP50us)
	set("transport.tcp_bytes_per_op", "B", lc.tcpBytesPerOp)
	set("broker.dispatch_allocs", "count", lc.dispatch.allocs)
	set("store.append_ns", "ns", lc.storeAppend.ns)
	set("store.append_sync_p50_us", "us", lc.appendSyncP50us)
	set("journal.add_ns", "ns", lc.journalAdd.ns)
	set("metrics.account_ns", "ns", lc.account.ns)

	// Exported instruments over the traced windows.
	a, b := ts.before, ts.after
	inbox, match := histDiff(a.inboxWait, b.inboxWait), histDiff(a.match, b.match)
	set("broker.stage.inbox_wait_p50_us", "us", histQuantileUs(inbox, 0.50))
	set("broker.stage.inbox_wait_p99_us", "us", histQuantileUs(inbox, 0.99))
	set("broker.stage.match_p50_us", "us", histQuantileUs(match, 0.50))
	set("broker.stage.match_p99_us", "us", histQuantileUs(match, 0.99))
	set("broker.queue_high_water", "count", float64(b.highWater))
	set("broker.dropped_publications", "count", float64(b.dropped))
	set("cluster.new_s", "s", b.newS)
	set("cluster.populate_s", "s", b.popuS)
	if cpu := (b.cpu - a.cpu).Seconds(); cpu > 0 {
		set("runtime.gc_cpu_pct", "%", 100*(b.gcCPU-a.gcCPU)/cpu)
	} else {
		set("runtime.gc_cpu_pct", "%", 0)
	}
	set("runtime.gc_pause_p99_us", "us", gcPauseP99us(a.gcPauses, b.gcPauses))

	prim, _ := phaseWith(plan, phases, func(p phaseSpec) bool { return p.primary })
	ops := func(w window) float64 { return opsOf(ws.op, w) }
	perOp := func(f func(window) float64) float64 {
		return median(over(prim.windows, func(w window) float64 { return ratio(f(w), ops(w)) }))
	}
	dispatchesPerOp := perOp(func(w window) float64 { return float64(w.dispatches) })
	sendsPerOp := perOp(func(w window) float64 { return float64(w.sends) })
	// The brokers' own mean processing time per message over the primary
	// phase's windows (the histogram's sum is exact; its buckets are not used).
	dispatchNs := median(over(prim.windows, func(w window) float64 { return ratio(float64(w.dispatchNs), float64(w.dispatches)) }))
	set("broker.dispatch_ns", "ns", dispatchNs)
	set("broker.dispatches_per_op", "count", dispatchesPerOp)
	set("broker.sends_per_op", "count", sendsPerOp)
	pubbing, _ := phaseWith(plan, phases, func(p phaseSpec) bool { return p.pubs != pubNone })
	publishCall := median(over(pubbing.windows, func(w window) float64 { return ratio(float64(w.publishNs), float64(w.pubs)) }))
	set("client.publish_call_ns", "ns", publishCall)

	// The store: the rig's own WAL where it has one, else the replay's.
	appends, walBytes, fsyncs, commit := float64(lc.storeTel.WALAppends.Value()), float64(lc.storeTel.WALBytes.Value()), float64(lc.storeTel.Fsyncs.Value()), lc.storeTel.CommitLatency.Snapshot()
	bytesPerOp := ratio(walBytes, appends) // no WAL in this workload: bytes per appended record
	if b.durable {
		appends, walBytes, fsyncs = float64(b.walAppends-a.walAppends), float64(b.walBytes-a.walBytes), float64(b.fsyncs-a.fsyncs)
		commit = histDiff(a.commit, b.commit)
		var total float64
		for _, pr := range phases {
			for _, w := range pr.windows {
				total += ops(w)
			}
		}
		bytesPerOp = ratio(walBytes, total)
	}
	set("store.commit_latency_p50_us", "us", histQuantileUs(commit, 0.50))
	set("store.commit_latency_p99_us", "us", histQuantileUs(commit, 0.99))
	set("store.wal_bytes_per_op", "B", bytesPerOp)
	set("store.records_per_fsync", "count", ratio(appends, fsyncs))

	// core: phase spans of the moves the rig committed, from the program's
	// own event stream.
	timelines := ts.spans.Completed()
	byPhase := map[string][]int64{}
	var aborted, rejected float64
	for _, tl := range timelines {
		if tl.Outcome != "committed" {
			aborted++
		}
		for _, st := range tl.Steps {
			if st.Name == core.EventRejectSent.String() {
				rejected++
			}
		}
		for _, p := range tl.Phases {
			byPhase[p.Phase] = append(byPhase[p.Phase], int64(p.Duration()))
		}
	}
	var phaseSum float64
	for _, p := range []string{telemetry.PhaseInit, telemetry.PhasePrepare, telemetry.PhasePrecommit, telemetry.PhaseCommit} {
		d := byPhase[p]
		sortInt64(d)
		us := float64(percentile(d, 0.5)) / 1e3
		set("core.phase."+p+"_p50_us", "us", us)
		phaseSum += us
	}
	set("core.phase.accounted_pct", "%", 100*ratio(phaseSum, e2e["move_commit_p50_us"].Value))
	set("core.aborted_moves", "count", aborted)
	set("core.rejected_moves", "count", rejected)
	set("core.ctrl_msgs_per_move", "count", e2e["core.ctrl_msgs_per_move"].Value)
	set("broker.routing_msgs_per_move", "count", e2e["broker.routing_msgs_per_move"].Value)

	// journal and client stub: the audited pass (move_storm only).
	pass := auditOutcome{}
	if ws.audited && !opt.smoke {
		if pass, err = auditPass(w, ws, pop, opt); err != nil {
			return err
		}
		if !pass.clean {
			res.Correct = false
			res.Failed += int64(len(pass.violations))
			res.Problems = append(res.Problems, pass.violations...)
		}
	}
	set("journal.records_per_move", "count", pass.recordsPerMove)
	set("journal.dropped", "count", float64(pass.dropped))
	set("client.dedup_dropped_per_move", "count", pass.dupsPerMove)
	set("client.queued_during_move", "count", pass.bufferedPerMove)

	// The two tail latencies, too unsteady to carry a bound (README.md).
	set("pub_notify_p99_us", "us", e2e["pub_notify_p99_us"].Value)
	set("move_commit_p99_us", "us", e2e["move_commit_p99_us"].Value)

	// harness
	set("gen.lateness_p99_us", "us", e2e["gen.lateness_p99_us"].Value)
	var sp []float64
	for _, d := range endToEndDefs() {
		if v, ok := spreads[d.name]; ok {
			sp = append(sp, v)
		}
	}
	set("run.window_spread_pct", "%", median(sp))
	untraced, _ := phaseWith(plan, phases, func(p phaseSpec) bool { return p.untraced })
	rate := func(pr phaseResult) float64 {
		return median(over(pr.windows, func(w window) float64 { return ops(w) / w.seconds }))
	}
	set("trace.overhead_pct", "%", 100*ratio(rate(untraced)-rate(prim), rate(untraced)))

	// The ledger: layer cost × calls per operation, against the measured
	// CPU per operation. wire crossings are counted on tcp_chain only, where
	// every publication message between brokers is a socket write and read,
	// and the harness's own two sockets add one crossing each.
	wirePerOp := 0.0
	if ws.overTCP {
		wirePerOp = perOp(func(w window) float64 { return float64(w.pubMsgs) }) + 2
	}
	pubsPerOp := perOp(func(w window) float64 { return float64(w.pubs) })
	accounted := dispatchesPerOp*dispatchNs + sendsPerOp*lc.linkSend.ns +
		wirePerOp*(lc.marshal.ns+lc.unmarshal.ns) + pubsPerOp*publishCall
	set("ledger.cpu_accounted_pct", "%", 100*ratio(accounted/1e3, e2e["cpu_us_per_op"].Value))

	for _, name := range perLayerNames() {
		if _, ok := res.Metrics[name]; !ok {
			return fmt.Errorf("per-layer metric %s was not produced", name)
		}
	}
	names := make([]string, 0, len(e2e))
	for n := range e2e {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "  end-to-end values of this traced run (for the tracing overhead only; BENCHMARK.json's come from untraced runs):\n")
	for _, n := range names {
		fmt.Fprintf(w, "    %-32s %14.4f %s\n", n, e2e[n].Value, e2e[n].Unit)
	}
	return nil
}

// auditOutcome is what the journaled move_storm pass found.
type auditOutcome struct {
	clean           bool
	violations      []string
	moves           int64
	recordsPerMove  float64
	dropped         uint64
	dupsPerMove     float64
	bufferedPerMove float64
}

const (
	auditJournalCap = 1 << 19
	auditMaxMoves   = 2000
)

// auditPass deploys move_storm once more with the flight recorder on, runs
// the storm for up to auditMaxMoves moves (or until the journal ring is
// four-fifths full, or two seconds), and audits the journal: every mobility
// property must hold and the ring must not have dropped a record.
func auditPass(w io.Writer, ws workloadSpec, pop *population, opt runOptions) (auditOutcome, error) {
	out := auditOutcome{}
	j := journal.New(auditJournalCap)
	led := newLedger(pop)
	spec := moveStormSpec()
	spec.journal = j
	r, err := newClusterRig(spec, pop, buildEnv{led: led, seed: opt.seed, baseDir: opt.baseDir})
	if err != nil {
		return out, fmt.Errorf("audit pass: %w", err)
	}
	defer r.close()
	before := j.Len()
	l := newLoads(r, led, nil, 0)
	l.startPaced(ws.pacedRate, true)
	l.startMovers()
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline) && l.moves.Load() < auditMaxMoves && j.Len() < auditJournalCap*4/5; {
		time.Sleep(time.Millisecond)
	}
	l.halt()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := r.cl.Settle(ctx); err != nil {
		return out, fmt.Errorf("audit pass: %w", err)
	}
	out.moves = l.moves.Load()
	out.dropped = j.Dropped()
	recs := j.Snapshot()
	var dups, buffered float64
	for _, rec := range recs {
		switch rec.Kind {
		case journal.KindClientDup:
			dups++
		case journal.KindClientBuffer:
			buffered++
		}
	}
	moves := float64(max(out.moves, 1))
	out.recordsPerMove = float64(len(recs)-before) / moves
	out.dupsPerMove, out.bufferedPerMove = dups/moves, buffered/moves
	rep := audit.Audit(recs)
	for _, v := range rep.Violations() {
		out.violations = append(out.violations, "audit: "+v.String())
	}
	if out.dropped > 0 {
		out.violations = append(out.violations, fmt.Sprintf("audit: journal dropped %d records", out.dropped))
	}
	if n := l.failedOps.Load(); n > 0 {
		_, problems := led.failures()
		out.violations = append(out.violations, fmt.Sprintf("audit pass: %d publish or move calls failed: %v", n, problems))
	}
	out.clean = len(out.violations) == 0
	fmt.Fprintf(w, "  audited pass: %d moves, %d journal records, %d dropped, clean=%t\n", out.moves, len(recs), out.dropped, out.clean)
	return out, nil
}
