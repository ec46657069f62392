package mon

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"padres/internal/message"
	"padres/internal/telemetry"
)

// populatedRegistry builds a telemetry registry exercising every series
// family: broker instruments (with stage histograms),
// store instruments, transport and per-link instruments, movement phase
// histograms, and an AddFamilies contributor.
func populatedRegistry(t *testing.T) *telemetry.Registry {
	t.Helper()
	r := telemetry.NewRegistry()

	bm := telemetry.NewBrokerMetrics()
	bm.Processed.Add(3)
	bm.QueueDepth.Set(2)
	bm.QueueHighWater.Observe(5)
	bm.CountSend(message.KindPublish)
	bm.CountSend(message.KindSubscribe)
	bm.DispatchLatency.Observe(120 * time.Microsecond)
	bm.MatchLatency.Observe(80 * time.Microsecond)
	bm.InboxWait.Observe(40 * time.Microsecond)
	r.RegisterBroker("b1", bm)

	sm := telemetry.NewStoreMetrics()
	sm.WALAppends.Add(10)
	sm.Fsyncs.Add(2)
	sm.FsyncLatency.Observe(3 * time.Millisecond)
	sm.CommitLatency.Observe(4 * time.Millisecond)
	r.RegisterStore("b1", sm)

	tm := &telemetry.TransportMetrics{}
	tm.Acks.Add(7)
	lm := tm.Link("b1", "b2")
	lm.RTT.Observe(900 * time.Microsecond)
	lm.Retransmits.Inc()
	lm.ResendDepth.Set(3)
	r.RegisterTransport(tm)

	base := time.Now()
	sp := r.Spans()
	sp.Observe("tx1", "c1", "b1", telemetry.StepMoveRequested, base, "")
	sp.Observe("tx1", "c1", "b1", telemetry.StepNegotiateSent, base.Add(time.Millisecond), "")
	sp.Observe("tx1", "c1", "b2", telemetry.StepApproveReceived, base.Add(3*time.Millisecond), "")
	sp.Observe("tx1", "c1", "b1", telemetry.StepAckReceived, base.Add(5*time.Millisecond), "")
	sp.Observe("tx1", "c1", "b1", telemetry.StepCommitted, base.Add(6*time.Millisecond), "")

	r.AddFamilies(func(pb *telemetry.PromBuilder) {
		pb.Counter("padres_extra_total", "An external contributor's counter.",
			[]telemetry.Label{{Name: "src", Value: `quo"ted`}}, 5)
	})
	return r
}

// TestExpositionConformance scrapes a fully populated registry over HTTP
// and checks the whole exposition against the text-format rules: correct
// Content-Type, HELP and TYPE metadata on every family, contiguous
// families, parseable escaped labels, and internally consistent cumulative
// histograms.
func TestExpositionConformance(t *testing.T) {
	r := populatedRegistry(t)
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); got != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("Content-Type = %q", got)
	}

	e, err := Parse(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Violations) != 0 {
		t.Fatalf("conformance violations: %v", e.Violations)
	}
	fams := e.Families()
	if len(fams) < 10 {
		t.Fatalf("only %d families", len(fams))
	}
	for _, f := range fams {
		if len(f.Samples) == 0 {
			t.Errorf("family %s has no samples", f.Name)
			continue
		}
		if f.Help == "" {
			t.Errorf("family %s has no HELP", f.Name)
		}
		if f.Type == "" {
			t.Errorf("family %s has no TYPE", f.Name)
		}
		if f.Type == "histogram" {
			hs, err := e.Histograms(f.Name)
			if err != nil {
				t.Errorf("family %s: %v", f.Name, err)
				continue
			}
			for _, h := range hs {
				var total int64
				for _, c := range h.Snapshot.Counts {
					total += c
				}
				if total != h.Snapshot.Count {
					t.Errorf("family %s %v: buckets sum to %d, count is %d",
						f.Name, h.Labels, total, h.Snapshot.Count)
				}
			}
		}
	}

	// Spot-check values and the escaped external label survived the trip.
	if v, ok := e.Value("padres_broker_processed_total", map[string]string{"broker": "b1"}); !ok || v != 3 {
		t.Errorf("processed = %v, %v", v, ok)
	}
	if v, ok := e.Value("padres_broker_sends_total", map[string]string{"broker": "b1", "kind": "publish"}); !ok || v != 1 {
		t.Errorf("publish sends = %v, %v", v, ok)
	}
	if v, ok := e.Value("padres_extra_total", map[string]string{"src": `quo"ted`}); !ok || v != 5 {
		t.Errorf("escaped extra = %v, %v", v, ok)
	}
	if snap, ok, err := e.Histogram("padres_broker_stage_seconds",
		map[string]string{"broker": "b1", "stage": telemetry.StageInboxWait}); err != nil || !ok || snap.Count != 1 {
		t.Errorf("inbox_wait stage: ok=%v err=%v count=%d", ok, err, snap.Count)
	}
	if snap, ok, err := e.Histogram("padres_movement_phase_seconds",
		map[string]string{"phase": telemetry.PhaseTotal}); err != nil || !ok || snap.Count != 1 {
		t.Errorf("phase total: ok=%v err=%v count=%d", ok, err, snap.Count)
	}
	if v, ok := e.Value("padres_link_resend_depth", map[string]string{"from": "b1", "to": "b2"}); !ok || v != 3 {
		t.Errorf("resend depth = %v, %v", v, ok)
	}
}

// TestExpositionNoDeadInstruments checks the detector passes on a healthy
// registry and fires when activity counters disagree with a silent stage.
func TestExpositionNoDeadInstruments(t *testing.T) {
	r := populatedRegistry(t)
	var sb strings.Builder
	r.WritePrometheus(&sb)
	e, err := Parse(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if bad := DeadInstruments(e); len(bad) != 0 {
		t.Fatalf("healthy registry flagged: %v", bad)
	}
}

func TestDeadInstrumentsDetected(t *testing.T) {
	r := telemetry.NewRegistry()
	bm := telemetry.NewBrokerMetrics()
	bm.Processed.Add(100)             // processed but no inbox_wait observations
	bm.CountSend(message.KindPublish) // forwarded a publication but no match observations
	r.RegisterBroker("b9", bm)
	sm := telemetry.NewStoreMetrics()
	sm.WALAppends.Add(5) // appended but no commit-latency observations
	r.RegisterStore("b9", sm)

	var sb strings.Builder
	r.WritePrometheus(&sb)
	e, err := Parse(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	bad := DeadInstruments(e)
	wantSubstrings := []string{"inbox_wait", "match", "commit latency"}
	for _, want := range wantSubstrings {
		found := false
		for _, b := range bad {
			if strings.Contains(b, want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no violation mentioning %q in %v", want, bad)
		}
	}
}
