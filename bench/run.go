package main

import (
	"fmt"
	"runtime"
	"time"

	"padres/internal/core"
	"padres/internal/message"
)

const (
	// windowsPerPhase is how many windows each phase measures on the same
	// warmed rig; a reported value is the median over them. See
	// measurementRounds for the order the windows run in.
	windowsPerPhase = 5
	// setupRuns is how many times a run builds its rig; setup_s is the
	// median build time. The last build is the one measured.
	setupRuns = 3
	// warmup is the untimed load every rig takes before its first window.
	warmup = time.Second
)

// pubLoad selects a phase's publication generator.
type pubLoad int

const (
	pubNone pubLoad = iota
	pubSaturation
	pubPaced
)

// opKind is the operation a workload's per-op costs are charged to.
type opKind int

const (
	opNotification opKind = iota
	opMove
	opRoutingOp
)

// phaseSpec is one measured phase: which loads run together, and what share
// of the run's --seconds its five windows get.
type phaseSpec struct {
	name   string
	share  float64
	pubs   pubLoad
	movers bool
	churn  bool
	// primary marks the phase whose windows yield cpu_us_per_op,
	// allocs_per_op and bytes_per_op.
	primary bool
	// untraced marks the copy of the primary phase a traced run measures
	// with tracing off, to price the tracing itself.
	untraced bool
	// windows overrides windowsPerPhase; the phase's share of --seconds is
	// split over that many windows.
	windows int
}

// windowCount is how many windows the phase measures.
func (p phaseSpec) windowCount() int {
	if p.windows > 0 {
		return p.windows
	}
	return windowsPerPhase
}

// workloadSpec is one benchmark workload.
type workloadSpec struct {
	name string
	why  string
	// satWindow is the closed-loop window of the saturation phase, in
	// outstanding notifications.
	satWindow int64
	// pacedRate is the open-loop publication rate, publications/s. It is
	// frozen: see README.md for how each was derived from the seed commit.
	pacedRate float64
	op        opKind
	phases    []phaseSpec
	// overTCP marks the workload whose brokers talk over sockets: every
	// overlay publication message there is a wire crossing.
	overTCP bool
	// audited makes a traced run deploy the rig once more with the flight
	// recorder on and audit the journal.
	audited bool
	// build generates the population for seed and returns a function that
	// deploys it; scale < 1 shrinks the population for the smoke test.
	build func(seed int64, scale float64) (*population, func(env buildEnv) (rig, error))
}

// buildEnv is what a rig build receives beyond its population.
type buildEnv struct {
	led     *ledger
	seed    int64
	baseDir string
	// sink receives the movement protocol's events on a traced run; nil
	// otherwise.
	sink core.EventSink
}

// probeShare is the share of --seconds a probe phase gets. A workload's own
// phases split the rest: the benchmark contract reads every end-to-end metric
// from every workload, so each rig also measures, briefly, the loads that are
// not its purpose.
const probeShare = 0.08

// pubPhases is the phase plan of the three publication workloads: the
// saturation and paced phases they exist for, then a moves probe and a churn
// probe.
func pubPhases() []phaseSpec {
	return []phaseSpec{
		{name: "saturation", share: 0.5 - probeShare, pubs: pubSaturation, primary: true},
		{name: "paced", share: 0.5 - probeShare, pubs: pubPaced},
		{name: "moves", share: probeShare, movers: true},
		{name: "churn", share: probeShare, churn: true},
	}
}

// counters are the cumulative totals read at a window boundary; a window
// keeps the difference between its two readings.
type counters struct {
	at         time.Time
	notifs     int64
	pubs       int64
	moves      int64
	routingOps int64
	ctlMsgs    int64 // overlay messages of the movement protocol's own kinds
	routeMsgs  int64 // overlay (un)subscribe and (un)advertise messages
	pubMsgs    int64 // overlay publication messages
	dispatches int64 // messages processed, summed over the rig's brokers
	dispatchNs int64 // time the brokers spent processing them, by their own DispatchLatency histograms
	sends      int64 // messages sent, summed over the rig's brokers
	publishNs  int64 // time spent inside rig.publish
	cpu        time.Duration
	mallocs    uint64
	bytes      uint64
}

func snapshot(r rig, led *ledger, l *loads) counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c := counters{
		at: time.Now(), notifs: led.delivered.Load(), pubs: l.pubs.Load(), moves: l.moves.Load(),
		routingOps: l.routingOps.Load(), publishNs: l.publishNs.Load(),
		cpu: cpuTime(), mallocs: ms.Mallocs, bytes: ms.TotalAlloc,
	}
	for _, b := range r.brokers() {
		st := b.Stats()
		c.dispatches += st.Processed
		c.dispatchNs += int64(st.DispatchLatency.Sum)
		c.sends += st.TotalSends
	}
	for _, reg := range r.registries() {
		for k, n := range reg.MessagesByKind() {
			switch {
			case k == message.KindPublish:
				c.pubMsgs += n
			case k.IsControl():
				c.ctlMsgs += n
			default:
				c.routeMsgs += n
			}
		}
	}
	return c
}

// since returns what c gained over prev; at is left at c's.
func (c counters) since(prev counters) counters {
	c.notifs -= prev.notifs
	c.pubs -= prev.pubs
	c.moves -= prev.moves
	c.routingOps -= prev.routingOps
	c.ctlMsgs -= prev.ctlMsgs
	c.routeMsgs -= prev.routeMsgs
	c.pubMsgs -= prev.pubMsgs
	c.dispatches -= prev.dispatches
	c.dispatchNs -= prev.dispatchNs
	c.sends -= prev.sends
	c.publishNs -= prev.publishNs
	c.cpu -= prev.cpu
	c.mallocs -= prev.mallocs
	c.bytes -= prev.bytes
	return c
}

// window is the raw outcome of one measurement window: what the counters
// gained over it, how long it lasted, and its latency samples.
type window struct {
	counters
	seconds float64
	// whole is what the counters gained from before the loads started until
	// the rig was quiet again after they stopped: every move it counts has
	// all of its messages counted with it, which a reading taken while the
	// movers run cannot promise (on one core the reader is preempted between
	// one counter and the next). msgs_per_move is taken from it.
	whole     counters
	notifyLat *sampler
	moveLat   *sampler
	lateness  *sampler
}

// windowResult is a window plus what running it consumed and checked.
type windowResult struct {
	window
	nextSeq   uint64 // the next unused publication sequence number
	attempted int64  // expected notifications + moves + routing ops, failed calls included
	failed    int64  // missing notifications + calls that returned an error
}

// phaseResult is one phase's windows plus what the phase attempted.
type phaseResult struct {
	windows   []window
	attempted int64
	failed    int64
}

// runWindow drives one phase's loads for one window of dur: it starts them,
// gives them a short lead-in to reach their steady rhythm, measures, stops
// them, waits for the rig to go quiet and checks that every publication
// issued reached everyone it should.
func runWindow(spec phaseSpec, ws workloadSpec, r rig, led *ledger, tr *tracer, firstSeq uint64, dur time.Duration) (windowResult, error) {
	deliveredBefore := led.delivered.Load()
	l := newLoads(r, led, tr, firstSeq)
	fanout := int(led.pop.meanFanout()) + 1
	notifyCap, moveCap := 0, 0
	if spec.pubs == pubPaced {
		notifyCap = int(ws.pacedRate*dur.Seconds()*float64(fanout)*2) + 4096
	}
	if spec.movers {
		moveCap = 1 << 17
	}
	res := windowResult{window: window{notifyLat: newSampler(notifyCap), moveLat: newSampler(moveCap), lateness: newSampler(notifyCap / fanout)}}
	quiet := snapshot(r, led, l)
	startLoads(l, spec, ws)
	time.Sleep(min(dur/20, 50*time.Millisecond))
	prev := snapshot(r, led, l)
	led.rec.Store(res.notifyLat)
	l.moveLat.Store(res.moveLat)
	l.lateness.Store(res.lateness)
	time.Sleep(dur)
	// A routing operation is a fire-and-forget call; it counts once it has
	// propagated. So a churn window closes only when the operations issued
	// in it have drained from every queue and socket; any other window
	// closes on time.
	var cur counters
	if !spec.churn {
		cur = snapshot(r, led, l)
	}
	l.halt()
	led.rec.Store(nil)
	res.nextSeq = l.nextSeq
	if err := r.quiesce(30 * time.Second); err != nil {
		return res, fmt.Errorf("phase %s: %w", spec.name, err)
	}
	after := snapshot(r, led, l)
	if spec.churn {
		cur = after
	}
	res.counters = cur.since(prev)
	res.whole = after.since(quiet)
	res.seconds = cur.at.Sub(prev.at).Seconds()
	res.failed = l.failedOps.Load()
	res.attempted = led.expectedNotifications(firstSeq, l.nextSeq) + l.moves.Load() + l.routingOps.Load() + res.failed
	res.failed += led.missing(firstSeq, l.nextSeq, deliveredBefore)
	return res, nil
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// over maps each window to a value and returns the per-window series.
func over(wins []window, f func(window) float64) []float64 {
	out := make([]float64, len(wins))
	for i, w := range wins {
		out[i] = f(w)
	}
	return out
}

// opsOf is the number of the workload's own operations a window completed.
func opsOf(op opKind, w window) float64 {
	switch op {
	case opMove:
		return float64(w.moves)
	case opRoutingOp:
		return float64(w.routingOps)
	default:
		return float64(w.notifs)
	}
}

func perSecond(n int64, w window) float64 { return float64(n) / w.seconds }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Ten samples must lie beyond a percentile for it to be reported: 20 samples
// for a median, 1 000 for a 99th percentile.
const (
	minSamplesP50 = 20
	minSamplesP99 = 1000
)

// sortedSamples returns each window's samples of the sampler chosen by
// pick, sorted.
func sortedSamples(wins []window, pick func(window) *sampler, what string) ([][]int64, error) {
	out := make([][]int64, len(wins))
	for i, w := range wins {
		vals, dropped := pick(w).values()
		if dropped > 0 {
			return nil, fmt.Errorf("%s: window %d overflowed its sample buffer by %d", what, i, dropped)
		}
		out[i] = append([]int64(nil), vals...)
		sortInt64(out[i])
	}
	return out, nil
}

// p50Series returns each window's median of the chosen sampler, in
// microseconds, and the total sample count. With strict set a window with
// fewer than minSamplesP50 samples fails the run.
func p50Series(wins []window, pick func(window) *sampler, strict bool, what string) ([]float64, int64, error) {
	sorted, err := sortedSamples(wins, pick, what)
	if err != nil {
		return nil, 0, err
	}
	out := make([]float64, len(sorted))
	var n int64
	for i, s := range sorted {
		if strict && len(s) < minSamplesP50 {
			return nil, 0, fmt.Errorf("%s: window %d has %d samples, needs %d", what, i, len(s), minSamplesP50)
		}
		out[i] = float64(percentile(s, 0.50)) / 1e3
		n += int64(len(s))
	}
	return out, n, nil
}

// pooledP99 returns the 99th percentile, in microseconds, of the chosen
// sampler over all of a phase's windows taken as one sample, and its size.
// The background streams and the probe phases cannot put 1 000 samples into
// every window, so a 99th percentile's window is the phase's whole measured
// time; it therefore has no window spread. With strict set, fewer than
// minSamplesP99 samples fail the run.
func pooledP99(wins []window, pick func(window) *sampler, strict bool, what string) (float64, int64, error) {
	sorted, err := sortedSamples(wins, pick, what)
	if err != nil {
		return 0, 0, err
	}
	var pool []int64
	for _, s := range sorted {
		pool = append(pool, s...)
	}
	if strict && len(pool) < minSamplesP99 {
		return 0, 0, fmt.Errorf("%s: %d samples over %d windows, needs %d", what, len(pool), len(wins), minSamplesP99)
	}
	sortInt64(pool)
	return float64(percentile(pool, 0.99)) / 1e3, int64(len(pool)), nil
}
