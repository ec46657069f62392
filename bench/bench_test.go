package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"padres/internal/broker"
	"padres/internal/message"
	"padres/internal/metrics"
	"padres/internal/predicate"
)

func TestPercentileNearestRank(t *testing.T) {
	v := make([]int64, 100)
	for i := range v {
		v[i] = int64(i + 1) // 1..100
	}
	for _, tc := range []struct {
		q    float64
		want int64
	}{{0.5, 50}, {0.99, 99}, {1, 100}, {0, 1}, {0.001, 1}} {
		if got := percentile(v, tc.q); got != tc.want {
			t.Errorf("percentile(1..100, %g) = %d, want %d", tc.q, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of an empty sample = %d, want 0", got)
	}
	// With 1 000 samples exactly ten lie beyond the 99th percentile.
	const n = 1000 // what quantileSeries demands for q = 0.99
	big := make([]int64, n)
	for i := range big {
		big[i] = int64(i)
	}
	p99 := percentile(big, 0.99)
	beyond := 0
	for _, x := range big {
		if x > p99 {
			beyond++
		}
	}
	if beyond != 10 {
		t.Errorf("%d samples beyond p99 of %d, want 10", beyond, n)
	}
}

func TestMedianOfWindowsAndSpread(t *testing.T) {
	windows := []float64{10, 50, 11, 12, 9} // one disturbed window
	if got := median(windows); got != 11 {
		t.Errorf("median of windows = %g, want 11 (the disturbed window must not move it)", got)
	}
	if got := median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("median of an even count = %g, want 2.5", got)
	}
	// statistics.quantiles([1..10], n=4) gives Q1 = 2.75 and Q3 = 8.25.
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	q1, q3 := quartiles(ten)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g, %g; Python's statistics.quantiles gives 2.75, 8.25", q1, q3)
	}
	if got, want := spreadPct(ten), 100*5.5/5.5; math.Abs(got-want) > 1e-9 {
		t.Errorf("spreadPct(1..10) = %g, want %g", got, want)
	}
	if got := spreadPct([]float64{7}); got != 0 {
		t.Errorf("spread of one window = %g, want 0", got)
	}
}

func popKey(p *population) string {
	var b strings.Builder
	for _, s := range p.subs {
		fmt.Fprintf(&b, "%d:%s;", s.holder, s.filter.Key())
	}
	for _, e := range p.events {
		fmt.Fprintf(&b, "%d:%s;", e.pub, e.ev)
	}
	return b.String()
}

func TestGeneratorsAreDeterministic(t *testing.T) {
	gens := map[string]func(seed int64) *population{
		"match_fanout": func(s int64) *population { return genMatchFanout(s, 3000, 64) },
		"overlay_pub":  func(s int64) *population { return genOverlay(s, 64) },
		"tcp_chain":    func(s int64) *population { return genTCP(s, 64) },
		"move_storm":   func(s int64) *population { return genMoveStorm(s, 64) },
		"sub_churn":    func(s int64) *population { return genSubChurn(s, 64) },
	}
	for name, gen := range gens {
		a, b, c := gen(7), gen(7), gen(8)
		if popKey(a) != popKey(b) {
			t.Errorf("%s: the same seed produced different inputs", name)
		}
		if !reflect.DeepEqual(a.expect, b.expect) {
			t.Errorf("%s: the same seed produced different reference masks", name)
		}
		if popKey(a) == popKey(c) {
			t.Errorf("%s: different seeds produced identical inputs", name)
		}
	}
	// The class shortcut of the reference must agree with a full scan.
	p := genMatchFanout(3, 5000, 128)
	if err := p.verifyExpect(128); err != nil {
		t.Error(err)
	}
	if f := p.meanFanout(); f < 2 || f > 7 {
		t.Errorf("match_fanout mean fan-out = %.2f, want about 4", f)
	}
}

// fakeRig delivers every publication straight back to the ledger, with
// planted faults and stalls.
type fakeRig struct {
	led *ledger
	// stallAt, if >= 0, makes that publication's publish call block for
	// stall before delivering.
	stallAt int
	stall   time.Duration
	// Planted faults, by publication count.
	dropAt, dupAt, misrouteAt int
	moverAtTwoBrokers         bool
	n                         int
}

func (f *fakeRig) publish(_ eventSpec, ev predicate.Event) error {
	i := f.n
	f.n++
	if i == f.stallAt {
		time.Sleep(f.stall)
	}
	pub := message.Publish{ID: message.PubID(fmt.Sprintf("p%d", i)), Event: ev}
	seq := uint64(ev[seqAttr].Num)
	mask := f.led.expected(seq)
	for h := 0; h < f.led.pop.holders; h++ {
		if mask&(1<<uint(h)) == 0 {
			if i == f.misrouteAt {
				f.led.deliver(h, pub) // a holder that must not get it
				f.misrouteAt = -1
			}
			continue
		}
		if i == f.dropAt {
			f.dropAt = -1
			continue
		}
		f.led.deliver(h, pub)
		if i == f.dupAt {
			f.led.deliver(h, pub)
			f.dupAt = -1
		}
	}
	return nil
}

func (f *fakeRig) move(int) (time.Duration, error) {
	time.Sleep(20 * time.Microsecond)
	return 20 * time.Microsecond, nil
}
func (f *fakeRig) movers() int                     { return 1 }
func (f *fakeRig) routingOp(int) error             { time.Sleep(20 * time.Microsecond); return nil }
func (f *fakeRig) churners() int                   { return 1 }
func (f *fakeRig) inflight() int64                 { return 0 }
func (f *fakeRig) quiesce(time.Duration) error     { return nil }
func (f *fakeRig) brokers() []*broker.Broker       { return nil }
func (f *fakeRig) registries() []*metrics.Registry { return nil }
func (f *fakeRig) describe() string                { return "fake rig" }
func (f *fakeRig) setupParts() (float64, float64)  { return 0, 0 }
func (f *fakeRig) close()                          {}
func (f *fakeRig) verify() []string {
	at := []message.BrokerID{"b1"}
	if f.moverAtTwoBrokers {
		at = append(at, "b13")
	}
	return checkMovers(map[string][]message.BrokerID{"mv0": at})
}

// fakePop has two holders; even pool events reach holder 0 only, odd ones
// reach both.
func fakePop() *population {
	p := &population{holders: 2}
	for i := 0; i < 16; i++ {
		p.events = append(p.events, eventSpec{class: -1, ev: predicate.Event{"x": predicate.Number(float64(i))}})
		p.expect = append(p.expect, uint64(1+2*(i%2)))
	}
	return p
}

// TestOpenLoopTimesFromDueTime stalls the rig for 30 ms in the middle of a
// 1 000/s schedule. An open-loop generator must keep the schedule's due
// times (so the publications behind the stall are charged the wait) and
// must report how late it ran.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	pop := fakePop()
	led := newLedger(pop)
	rig := &fakeRig{led: led, stallAt: 20, stall: 30 * time.Millisecond, dropAt: -1, dupAt: -1, misrouteAt: -1}
	l := newLoads(rig, led, nil, 0)
	notify, late := newSampler(1<<12), newSampler(1<<12)
	led.rec.Store(notify)
	l.lateness.Store(late)
	l.startPaced(1000, false)
	time.Sleep(120 * time.Millisecond)
	l.halt()

	c := led.chunks[0].Load()
	if l.nextSeq < 60 {
		t.Fatalf("generator issued %d publications in 120 ms at 1000/s: it did not catch up after the stall", l.nextSeq)
	}
	for i := uint64(1); i < l.nextSeq; i++ {
		if d := c.due[i] - c.due[i-1]; d < 999_000 || d > 1_001_000 {
			t.Fatalf("due times %d and %d are %d ns apart, want 1 ms: the schedule slipped with the rig", i-1, i, d)
		}
	}
	lateVals, _ := late.values()
	var maxLate int64
	for _, v := range lateVals {
		maxLate = max(maxLate, v)
	}
	if maxLate < int64(20*time.Millisecond) {
		t.Errorf("largest reported generator lateness = %v, want about 29 ms (publication 21 was due 1 ms into a 30 ms stall)", time.Duration(maxLate))
	}
	// Publication 21's notifications are timed from its due time, so they
	// carry the stall even though its own publish call was instant.
	vals, _ := notify.values()
	var maxLat int64
	for _, v := range vals {
		maxLat = max(maxLat, v)
	}
	if maxLat < int64(25*time.Millisecond) {
		t.Errorf("largest notification latency = %v, want >= 25 ms: latency must run from the due time", time.Duration(maxLat))
	}
}

// TestPlantedFailuresAreReported runs the whole workload path against a rig
// that drops one notification, duplicates one, mis-routes one and leaves its
// mover at two brokers. Each must be counted, and the run must exit non-zero.
func TestPlantedFailuresAreReported(t *testing.T) {
	pop := fakePop()
	ws := workloadSpec{
		name: "planted", satWindow: 8, pacedRate: 2000, op: opNotification, phases: pubPhases(),
		build: func(int64, float64) (*population, func(buildEnv) (rig, error)) {
			return pop, func(env buildEnv) (rig, error) {
				return &fakeRig{led: env.led, stallAt: -1, dropAt: 101, dupAt: 103, misrouteAt: 104, moverAtTwoBrokers: true}, nil
			}
		},
	}
	res, err := runWorkload(io.Discard, ws, runOptions{seed: 1, seconds: 0.6, smoke: true, baseDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct {
		t.Error("run with planted failures reported correct")
	}
	if res.Failed != 4 {
		t.Errorf("failed = %d, want 4 (one dropped, one duplicated, one mis-routed, one mover at two brokers): %v", res.Failed, res.Problems)
	}
	for _, want := range []string{"never reached", "duplicated", "mis-routed", "hosted by 2 brokers"} {
		found := false
		for _, p := range res.Problems {
			found = found || strings.Contains(p, want)
		}
		if !found {
			t.Errorf("no reported problem mentions %q: %v", want, res.Problems)
		}
	}
	if code := exitCode([]*result{res}); code == 0 {
		t.Error("exit code 0 for a run with failed operations")
	}
	if got := res.contractLine(); got.Correct || got.Failed != 4 || got.Attempted < got.Failed {
		t.Errorf("contract line = %+v", got)
	}
}

// TestSmokeAllRigs drives every workload's real rig for one 200 ms window
// per phase, so the benchmark keeps compiling and wiring against the
// program's API, every rig tears down without leaking goroutines, and every
// check passes on the current tree.
func TestSmokeAllRigs(t *testing.T) {
	for _, ws := range workloads() {
		var phases float64
		for range ws.phases {
			phases++
		}
		// seconds is split by share over one window per phase: size it so
		// the mean window is 200 ms.
		res, err := runWorkload(io.Discard, ws, runOptions{seed: 1, seconds: 0.2 * phases, smoke: true, baseDir: t.TempDir()})
		if err != nil {
			t.Fatalf("%s: %v", ws.name, err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Errorf("%s: failed=%d: %v", ws.name, res.Failed, res.Problems)
		}
		line := res.contractLine()
		for _, d := range endToEndDefs() {
			m, ok := line.Metrics[d.name]
			if !ok || m.Value <= 0 || math.IsNaN(m.Value) || m.Unit != d.unit {
				t.Errorf("%s: end-to-end metric %s = %+v (present=%t), want a positive value in %s", ws.name, d.name, m, ok, d.unit)
			}
		}
	}
}

// TestSmokeTraced drives one traced run end to end: every per-layer metric
// must come out, and the trace file must hold spans.
func TestSmokeTraced(t *testing.T) {
	ws, _ := findWorkload("tcp_chain")
	dir := t.TempDir()
	res, err := runWorkload(io.Discard, ws, runOptions{seed: 2, seconds: 1.6, trace: true, smoke: true, baseDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Errorf("traced run failed: %v", res.Problems)
	}
	line := res.contractLine()
	for _, name := range perLayerNames() {
		if _, ok := line.Metrics[name]; !ok {
			t.Errorf("per-layer metric %s missing from the traced run", name)
		}
	}
	if len(line.Metrics) != len(perLayerNames()) {
		t.Errorf("traced run reports %d metrics, want exactly the %d per-layer ones", len(line.Metrics), len(perLayerNames()))
	}
	path := dir + "/trace.json"
	if err := writeTrace(path, []*tracer{res.tracer}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Spans []span `json:"spans"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	names := map[string]int{}
	for _, s := range doc.Spans {
		names[s.Name]++
		if s.End < s.Start {
			t.Fatalf("span %+v ends before it starts", s)
		}
	}
	for _, want := range []string{"setup", "publish", "notify", "move"} {
		if names[want] == 0 {
			t.Errorf("trace holds no %q span: %v", want, names)
		}
	}
}

// TestBenchmarkJSONMatchesHarness keeps BENCHMARK.json and the harness's own
// tables equal: workload names, end-to-end names, units, directions and
// bounds, and per-layer names.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	ws := workloads()
	if len(doc.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json lists %d workloads, harness has %d", len(doc.Workloads), len(ws))
	}
	for i, w := range ws {
		if doc.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, harness %q", i, doc.Workloads[i].Name, w.name)
		}
	}
	defs := endToEndDefs()
	if len(doc.EndToEnd) != len(defs) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, harness has %d", len(doc.EndToEnd), len(defs))
	}
	for i, d := range defs {
		got := doc.EndToEnd[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better || got.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, harness %+v", i, got, d)
		}
	}
	names := perLayerNames()
	if len(doc.PerLayer) != len(names) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, harness has %d", len(doc.PerLayer), len(names))
	}
	for i, n := range names {
		if doc.PerLayer[i].Name != n {
			t.Errorf("per-layer metric %d: BENCHMARK.json %q, harness %q", i, doc.PerLayer[i].Name, n)
		}
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("BENCHMARK.json run_seconds = %d, harness default %d", doc.RunSeconds, defaultSeconds)
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{name: "cpu_us_per_op", unit: "us", better: "lower", bound: 0.10}
	higher := metricDef{name: "notif_per_s", unit: "1/s", better: "higher", bound: 0.10}
	setup := metricDef{name: "setup_s", unit: "s", better: "lower", bound: 0.25, slack: 0.5}
	mv := func(v float64) metricValue { return metricValue{Value: v} }
	for _, tc := range []struct {
		what                 string
		d                    metricDef
		base, cand           float64
		baseNoise, candNoise float64 // 95 % half-width of each median, as a share of it
		want                 verdict
	}{
		{"within the bound", lower, 100, 109, 0.01, 0.01, verdictOK},
		{"worse than the bound", lower, 100, 111, 0.01, 0.01, verdictRegressed},
		{"better", lower, 100, 50, 0.01, 0.01, verdictOK},
		{"throughput down past the bound", higher, 100, 89, 0.01, 0.01, verdictRegressed},
		{"throughput up", higher, 100, 150, 0.01, 0.01, verdictOK},
		{"base median too uncertain", lower, 100, 150, 0.11, 0.01, verdictUnresolved},
		{"candidate median too uncertain", higher, 100, 50, 0.01, 0.25, verdictUnresolved},
		{"noisy windows, steady median", lower, 100, 104, 0.09, 0.09, verdictOK},
		{"tiny set-up inside the absolute slack", setup, 0.05, 0.30, 0.4, 0.4, verdictOK},
		{"set-up past bound and slack", setup, 2.0, 3.1, 0, 0, verdictRegressed},
	} {
		if got := judge(tc.d, mv(tc.base), mv(tc.cand), tc.baseNoise, tc.candNoise); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.what, got, tc.want)
		}
	}
	// Five windows spread 20 % apart pin their median to 1.5*20/sqrt(5) = 13 %.
	if got := medianNoise(20, 5); math.Abs(got-0.1342) > 1e-3 {
		t.Errorf("medianNoise(20 %%, 5 windows) = %.4f, want 0.1342", got)
	}
	if got := medianNoise(20, 1); got != 0 {
		t.Errorf("medianNoise of a single measurement = %g, want 0", got)
	}
}

// TestPercentilesNeedTheirSamples: a median needs 20 samples in every window
// and a 99th percentile 1 000 over the phase, else the run fails.
func TestPercentilesNeedTheirSamples(t *testing.T) {
	win := func(n int) window {
		s := newSampler(n)
		for i := 0; i < n; i++ {
			s.add(int64(i+1) * 1000)
		}
		return window{moveLat: s}
	}
	pick := func(w window) *sampler { return w.moveLat }
	if _, _, err := p50Series([]window{win(20), win(19)}, pick, true, "p50"); err == nil {
		t.Error("a window of 19 samples yielded a median")
	}
	series, n, err := p50Series([]window{win(20), win(40)}, pick, true, "p50")
	if err != nil || n != 60 || len(series) != 2 || series[0] != 10 || series[1] != 20 {
		t.Errorf("p50Series = %v, n=%d, err=%v; want [10 20], 60", series, n, err)
	}
	if _, _, err := pooledP99([]window{win(500), win(499)}, pick, true, "p99"); err == nil {
		t.Error("999 pooled samples yielded a 99th percentile")
	}
	p99, n, err := pooledP99([]window{win(500), win(500)}, pick, true, "p99")
	if err != nil || n != 1000 || p99 != 495 {
		t.Errorf("pooledP99 = %g us over %d samples, err=%v; want 495 over 1000", p99, n, err)
	}
	if _, _, err := pooledP99([]window{win(3)}, pick, false, "p99"); err != nil {
		t.Errorf("a smoke run must not fail on sample counts: %v", err)
	}
}
