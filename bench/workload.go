package main

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"
)

// matchFanoutSubs is match_fanout's stated table size. ROADMAP item 1A asks
// for 1M and the issue for 200k; a run builds the rig setupRuns times, a
// 200k build takes ~6 s on one core here (inserts slow down as the table
// grows), and the driver's budget is ~28 s per run all told.
const matchFanoutSubs = 100000

// poolEvents is the number of distinct events a workload's publishers
// cycle through.
const poolEvents = 2048

// workloads lists the five benchmark workloads. Names are normative: they
// are BENCHMARK.json's workloads.
func workloads() []workloadSpec {
	return []workloadSpec{
		{
			name:      "match_fanout",
			why:       "one broker, 100k subscriptions, fan-out 4: matching and broker dispatch do almost all the work; links, codec, store and core do none",
			satWindow: 1024, pacedRate: 156.25, op: opNotification, phases: pubPhases(),
			build: func(seed int64, scale float64) (*population, func(buildEnv) (rig, error)) {
				pop := genMatchFanout(seed, max(int(matchFanoutSubs*scale), 2000), poolEvents)
				return pop, func(env buildEnv) (rig, error) { return newMatchRig(pop, env) }
			},
		},
		{
			name:      "overlay_pub",
			why:       "publisher to 4 subscribers 3-6 brokers away on the 14-broker overlay: per-hop forwarding, in-process link hand-off and registry accounting dominate; no codec, no store",
			satWindow: 1024, pacedRate: 1000, op: opNotification, phases: pubPhases(),
			build: func(seed int64, scale float64) (*population, func(buildEnv) (rig, error)) {
				pop := genOverlay(seed, poolEvents)
				return pop, func(env buildEnv) (rig, error) { return newClusterRig(overlayPubSpec(), pop, env) }
			},
		},
		{
			name:      "tcp_chain",
			why:       "three brokers joined by loopback TCP gateways, 3-attribute events: the only workload where the wire codec and the gateway do the work (4 encodes + 4 decodes per notification)",
			satWindow: 512, pacedRate: 2000, op: opNotification, phases: pubPhases(), overTCP: true,
			build: func(seed int64, scale float64) (*population, func(buildEnv) (rig, error)) {
				pop := genTCP(seed, poolEvents)
				return pop, func(env buildEnv) (rig, error) { return newTCPRig(pop, env) }
			},
		},
		{
			name:      "move_storm",
			why:       "Fig. 8 population, 4 movers oscillating with zero dwell while publications flow: 3PC, hop-by-hop reconfiguration and client stop/transfer/merge; lost, duplicated or delayed notifications show",
			pacedRate: 125, op: opMove, audited: true,
			phases: []phaseSpec{
				// 15 windows, not 5: four closed-loop movers on one core fall
				// in and out of step with each other for seconds at a time,
				// and a median over 15 windows sits closer to the long-run
				// rate than one over 5 windows three times as long.
				{name: "storm", share: 1 - probeShare, pubs: pubPaced, movers: true, primary: true, windows: 15},
				{name: "churn", share: probeShare, churn: true},
			},
			build: func(seed int64, scale float64) (*population, func(buildEnv) (rig, error)) {
				pop := genMoveStorm(seed, poolEvents)
				return pop, func(env buildEnv) (rig, error) { return newClusterRig(moveStormSpec(), pop, env) }
			},
		},
		{
			name:      "sub_churn",
			why:       "2 clients churning 500 live subscriptions each beside a paced stream, WAL on: table writes beside reads, snapshot rebuild after a write, subscription forwarding and group commit",
			pacedRate: 500, op: opRoutingOp,
			phases: []phaseSpec{
				{name: "churn", share: 0.80, pubs: pubPaced, churn: true, primary: true},
				// More than a probe's share, in more windows: a move here
				// waits for the WAL, 2 ms at a time give or take a
				// millisecond from one half-second to the next.
				{name: "moves", share: 0.20, movers: true, windows: 10},
			},
			build: func(seed int64, scale float64) (*population, func(buildEnv) (rig, error)) {
				pop := genSubChurn(seed, poolEvents)
				return pop, func(env buildEnv) (rig, error) { return newClusterRig(subChurnSpec(), pop, env) }
			},
		},
	}
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, ws := range workloads() {
		if ws.name == name {
			return ws, true
		}
	}
	return workloadSpec{}, false
}

// runOptions are the knobs of one workload run.
type runOptions struct {
	seed    int64
	seconds float64
	trace   bool
	// smoke shrinks populations, builds each rig once, measures one window
	// per phase and lifts the sample-count floor, so every rig can be driven
	// for a fraction of a second from a unit test.
	smoke   bool
	baseDir string
}

// windows is how many windows a phase measures in this run.
func (o runOptions) windows(p phaseSpec) int {
	if o.smoke {
		return 1
	}
	return p.windowCount()
}

// windowDur is the length of one of the phase's windows when the run's
// windows share seconds.
func (o runOptions) windowDur(p phaseSpec, seconds float64) time.Duration {
	return time.Duration(seconds * p.share / float64(o.windows(p)) * float64(time.Second))
}

func (o runOptions) setups() int {
	if o.smoke {
		return 1
	}
	return setupRuns
}

// result is everything one workload run reports.
type result struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Traced    bool                   `json:"traced"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// SpreadPct is run.window_spread_pct per metric: the interquartile
	// range of the metric's five windows as a percentage of their median.
	SpreadPct map[string]float64 `json:"window_spread_pct"`
	// Samples is the number of latency samples behind each percentile.
	Samples map[string]int64 `json:"samples"`
	// Windows holds each metric's per-window values, in measurement order.
	Windows  map[string][]float64 `json:"windows"`
	Problems []string             `json:"problems,omitempty"`
	Notes    []string             `json:"notes,omitempty"`

	tracer *tracer
}

func (res *result) set(name, unit string, windows []float64) {
	res.Metrics[name] = metricValue{Value: median(windows), Unit: unit}
	res.SpreadPct[name] = spreadPct(windows)
	res.Windows[name] = windows
}

// goroutineSettle waits for the goroutine count to fall back to baseline
// after a teardown; goroutines that have been told to exit may need a
// moment to do so.
func goroutineSettle(baseline int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 200 && n > baseline; i++ {
		time.Sleep(5 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// replayShare is the part of a traced run's --seconds the layer replay
// takes; the windows get the rest.
const replayShare = 0.25

// tracedPlan is the phase plan of a traced run: the workload's phases plus
// an untraced copy of the primary one, the shares rescaled to sum to 1.
func tracedPlan(phases []phaseSpec) []phaseSpec {
	plan := append([]phaseSpec(nil), phases...)
	for _, p := range phases {
		if p.primary {
			p.name, p.primary, p.untraced = "untraced", false, true
			plan = append(plan, p)
		}
	}
	var sum float64
	for _, p := range plan {
		sum += p.share
	}
	for i := range plan {
		plan[i].share /= sum
	}
	return plan
}

// measurementRounds splits a plan into the phases that only publish and the
// phases that also change routing state (moves, churn). Each group's windows
// are interleaved — every phase's first window, then every phase's second —
// so a disturbance of a few seconds spoils one window of each phase, which
// the median discards, rather than every window of one phase. The read-only
// group goes first: a routing-table write invalidates the broker's match
// snapshot, and on a table of 100 000 subscriptions the next publication
// would spend most of a window rebuilding it.
func measurementRounds(plan []phaseSpec) [2][]phaseSpec {
	var rounds [2][]phaseSpec
	for _, p := range plan {
		if p.movers || p.churn {
			rounds[1] = append(rounds[1], p)
		} else {
			rounds[0] = append(rounds[0], p)
		}
	}
	return rounds
}

// runWorkload builds, warms, measures and checks one workload.
func runWorkload(w io.Writer, ws workloadSpec, opt runOptions) (*result, error) {
	res := &result{Workload: ws.name, Seed: opt.seed, Traced: opt.trace,
		Metrics: map[string]metricValue{}, SpreadPct: map[string]float64{}, Samples: map[string]int64{}, Windows: map[string][]float64{}}
	scale := 1.0
	if opt.smoke {
		scale = 0.01
	}
	fmt.Fprintf(w, "workload %s  seed %d  %.1fs measured  traced=%t\n  why: %s\n", ws.name, opt.seed, opt.seconds, opt.trace, ws.why)
	fmt.Fprintf(w, "  all links carry zero injected delay and ServiceTime is 0: latencies are processor and scheduling time only\n")
	pop, build := ws.build(opt.seed, scale)
	if len(pop.subs) > 10000 {
		if err := pop.verifyExpect(32); err != nil {
			return nil, err
		}
	}
	plan, seconds := ws.phases, opt.seconds
	var ts *traceState
	env := buildEnv{seed: opt.seed, baseDir: opt.baseDir}
	if opt.trace {
		res.tracer = &tracer{workload: ws.name}
		ts = newTraceState()
		env.sink = ts.sink()
		plan, seconds = tracedPlan(ws.phases), opt.seconds*(1-replayShare)
	}

	// Set-up, setupRuns times over, each build timed and its heap read; the
	// last build is the one the windows run on.
	baseline := runtime.NumGoroutine()
	var setups, heaps []float64
	var r rig
	closeRig := func() error {
		if r == nil {
			return nil
		}
		r.close()
		r = nil
		if n := goroutineSettle(baseline); n > baseline {
			return fmt.Errorf("%s: %d goroutines outlive a rig teardown (baseline %d)", ws.name, n-baseline, baseline)
		}
		return nil
	}
	defer closeRig() // error paths; the success path closes explicitly and checks
	var led *ledger
	for i := 0; i < opt.setups(); i++ {
		if err := closeRig(); err != nil {
			return nil, err
		}
		runtime.GC()
		led = newLedger(pop)
		if opt.smoke {
			led.drain = 200 * time.Millisecond
		}
		env.led = led
		t0 := time.Now()
		var err error
		if r, err = build(env); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", ws.name, err)
		}
		d := time.Since(t0)
		setups = append(setups, d.Seconds())
		// Twice: the second collection finishes sweeping what the first
		// freed, so HeapInuse does not depend on where the first one caught
		// the heap.
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		heaps = append(heaps, float64(ms.HeapInuse)/(1<<20))
		if res.tracer != nil {
			res.tracer.add(span{Name: "setup", Op: uint64(i), Start: led.now() - int64(d), End: led.now()})
		}
	}
	res.set("setup_s", "s", setups)
	res.set("heap_after_setup_mb", "MB", heaps)
	fmt.Fprintf(w, "  set-up %.3f s, heap after set-up %.1f MB (medians reported), mean fan-out %.2f\n", setups, heaps, pop.meanFanout())
	if cr, ok := r.(*clusterRig); ok {
		fmt.Fprintf(w, "  mean brokers crossed per notification: %.2f\n", cr.meanPathBrokers(pop))
	}
	fmt.Fprintf(w, "  %s\n", r.describe())

	// Warm-up: every phase's loads in turn, unmeasured. The writing phases go
	// first here, so the table writes they leave behind cost the warm-up's
	// publications their snapshot rebuild, not the first measured window's.
	seq := uint64(0)
	wd := warmup
	if opt.smoke {
		wd = 50 * time.Millisecond
	}
	rounds := measurementRounds(plan)
	for _, spec := range append(append([]phaseSpec(nil), rounds[1]...), rounds[0]...) {
		if spec.untraced {
			continue
		}
		wr, err := runWindow(spec, ws, r, led, nil, seq, time.Duration(float64(wd)*spec.share))
		if err != nil {
			return nil, fmt.Errorf("%s: warm-up: %w", ws.name, err)
		}
		seq = wr.nextSeq
		res.Attempted += wr.attempted
		res.Failed += wr.failed
	}

	if ts != nil {
		ts.begin(r)
	}
	phases := make(map[string]phaseResult)
	for _, group := range rounds {
		most := 0
		for _, spec := range group {
			most = max(most, opt.windows(spec))
		}
		for i := 0; i < most; i++ {
			for _, spec := range group {
				if i >= opt.windows(spec) {
					continue
				}
				tr := res.tracer
				if spec.untraced {
					tr = nil
				}
				led.spans.Store(tr)
				wr, err := runWindow(spec, ws, r, led, tr, seq, opt.windowDur(spec, seconds))
				if err != nil {
					return nil, fmt.Errorf("%s: %w", ws.name, err)
				}
				seq = wr.nextSeq
				pr := phases[spec.name]
				pr.windows = append(pr.windows, wr.window)
				pr.attempted += wr.attempted
				pr.failed += wr.failed
				phases[spec.name] = pr
			}
		}
	}
	if ts != nil {
		ts.end(r)
	}
	for _, spec := range plan {
		pr := phases[spec.name]
		res.Attempted += pr.attempted
		res.Failed += pr.failed
		var pubs, moves, ops int64
		for _, win := range pr.windows {
			pubs, moves, ops = pubs+win.pubs, moves+win.moves, ops+win.routingOps
		}
		fmt.Fprintf(w, "  phase %-10s %d×%.2fs  pubs=%d moves=%d routing_ops=%d failed=%d\n",
			spec.name, opt.windows(spec), opt.windowDur(spec, seconds).Seconds(), pubs, moves, ops, pr.failed)
	}

	// Structural checks on the final state, then tear the rig down: the
	// layer replay must not share the machine with fourteen idle brokers.
	violations := r.verify()
	res.Failed += int64(len(violations))
	n, problems := led.failures()
	res.Failed += n
	res.Problems = append(append(res.Problems, problems...), violations...)
	if err := closeRig(); err != nil {
		res.Failed++
		res.Problems = append(res.Problems, err.Error())
	}
	res.Correct = res.Failed == 0

	// A traced run splits --seconds between traced windows, their untraced
	// copy and the layer replay, so its latency samples are a third the
	// size; its percentiles are printed with their sample counts, not held
	// to the floor. End-to-end numbers come from untraced runs.
	if err := res.endToEnd(ws, plan, phases, !opt.smoke && !opt.trace); err != nil {
		return nil, fmt.Errorf("%s: %w", ws.name, err)
	}
	if ts != nil {
		e2e, spreads := res.Metrics, res.SpreadPct
		res.Metrics, res.SpreadPct = map[string]metricValue{}, map[string]float64{}
		budget := time.Duration(opt.seconds * replayShare * float64(time.Second))
		if err := ts.perLayer(w, res, ws, plan, pop, phases, e2e, spreads, opt, budget); err != nil {
			return nil, fmt.Errorf("%s: %w", ws.name, err)
		}
	}
	res.print(w)
	return res, nil
}

func startLoads(l *loads, spec phaseSpec, ws workloadSpec) {
	switch spec.pubs {
	case pubSaturation:
		l.startSaturation(ws.satWindow)
	case pubPaced:
		l.startPaced(ws.pacedRate, spec.movers || spec.churn)
	}
	if spec.movers {
		l.startMovers()
	}
	if spec.churn {
		l.startChurners()
	}
}

// phaseWith returns the first phase of the plan that want accepts.
func phaseWith(plan []phaseSpec, phases map[string]phaseResult, want func(phaseSpec) bool) (phaseResult, bool) {
	for _, spec := range plan {
		if want(spec) {
			return phases[spec.name], true
		}
	}
	return phaseResult{}, false
}

// endToEnd derives the end-to-end metrics, and the two 99th percentiles that
// ride with them, from the phases' windows. With strict set, a latency
// sample too small to support its percentile fails the run.
func (res *result) endToEnd(ws workloadSpec, plan []phaseSpec, phases map[string]phaseResult, strict bool) error {
	paced, _ := phaseWith(plan, phases, func(p phaseSpec) bool { return p.pubs == pubPaced })
	// notif_per_s is the saturation rate where the workload has a
	// saturation phase, else the delivered rate of the paced stream.
	rate := paced
	if sat, ok := phaseWith(plan, phases, func(p phaseSpec) bool { return p.pubs == pubSaturation }); ok {
		rate = sat
	}
	res.set("notif_per_s", "1/s", over(rate.windows, func(w window) float64 { return perSecond(w.notifs, w) }))

	mv, _ := phaseWith(plan, phases, func(p phaseSpec) bool { return p.movers })
	for _, lat := range []struct {
		p50, p99 string
		wins     []window
		pick     func(window) *sampler
		strict   bool
	}{
		{"pub_notify_p50_us", "pub_notify_p99_us", paced.windows, func(w window) *sampler { return w.notifyLat }, strict},
		{"move_commit_p50_us", "move_commit_p99_us", mv.windows, func(w window) *sampler { return w.moveLat }, strict},
		{"", "gen.lateness_p99_us", paced.windows, func(w window) *sampler { return w.lateness }, false},
	} {
		if lat.p50 != "" {
			series, n, err := p50Series(lat.wins, lat.pick, lat.strict, lat.p50)
			if err != nil {
				return err
			}
			res.set(lat.p50, "us", series)
			res.Samples[lat.p50] = n
		}
		v, n, err := pooledP99(lat.wins, lat.pick, lat.strict, lat.p99)
		if err != nil {
			return err
		}
		if n < minSamplesP99 {
			res.Notes = append(res.Notes, fmt.Sprintf("%s rests on %d samples, fewer than the %d a 99th percentile needs", lat.p99, n, minSamplesP99))
		}
		res.Metrics[lat.p99] = metricValue{Value: v, Unit: "us"}
		res.Samples[lat.p99] = n
	}

	res.set("moves_per_s", "1/s", over(mv.windows, func(w window) float64 { return perSecond(w.moves, w) }))
	res.set("msgs_per_move", "count", over(mv.windows, func(w window) float64 {
		return ratio(float64(w.whole.ctlMsgs+w.whole.routeMsgs), float64(w.whole.moves))
	}))
	res.set("core.ctrl_msgs_per_move", "count", over(mv.windows, func(w window) float64 { return ratio(float64(w.whole.ctlMsgs), float64(w.whole.moves)) }))
	res.set("broker.routing_msgs_per_move", "count", over(mv.windows, func(w window) float64 { return ratio(float64(w.whole.routeMsgs), float64(w.whole.moves)) }))
	ch, _ := phaseWith(plan, phases, func(p phaseSpec) bool { return p.churn })
	res.set("routing_ops_per_s", "1/s", over(ch.windows, func(w window) float64 { return perSecond(w.routingOps, w) }))

	prim, _ := phaseWith(plan, phases, func(p phaseSpec) bool { return p.primary })
	ops := func(w window) float64 { return opsOf(ws.op, w) }
	res.set("cpu_us_per_op", "us", over(prim.windows, func(w window) float64 { return ratio(float64(w.cpu)/1e3, ops(w)) }))
	res.set("allocs_per_op", "count", over(prim.windows, func(w window) float64 { return ratio(float64(w.mallocs), ops(w)) }))
	res.set("bytes_per_op", "B", over(prim.windows, func(w window) float64 { return ratio(float64(w.bytes), ops(w)) }))
	return nil
}

// print writes every metric by name with its unit.
func (res *result) print(w io.Writer) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		extra := ""
		if s, ok := res.SpreadPct[n]; ok {
			extra = fmt.Sprintf("  window spread %.1f%%", s)
		}
		if c, ok := res.Samples[n]; ok {
			extra += fmt.Sprintf("  n=%d", c)
		}
		fmt.Fprintf(w, "  %-34s %14.4f %-6s%s\n", n, m.Value, m.Unit, extra)
	}
	fmt.Fprintf(w, "  attempted=%d failed=%d correct=%t\n", res.Attempted, res.Failed, res.Correct)
	for _, p := range res.Problems {
		fmt.Fprintf(w, "  FAILURE: %s\n", p)
	}
	for _, n := range res.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}
