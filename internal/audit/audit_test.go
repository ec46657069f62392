package audit

import (
	"strings"
	"testing"

	"padres/internal/journal"
)

// rec builds a synthetic journal record for check tests.
func rec(cat journal.Category, kind, site string, lam uint64, tx, client, ref, to string) journal.Record {
	return journal.Record{
		Run: 1, Lamport: lam, Site: site, Cat: cat, Kind: kind,
		Tx: tx, Client: client, Ref: ref, To: to,
	}
}

func cfg(detail string) journal.Record {
	return journal.Record{Run: 1, Site: "journal", Cat: journal.CatMeta, Kind: journal.KindRunConfig, Detail: detail}
}

// protoSteps builds a full successful 3PC conversation for tx/client with
// consecutive Lamport stamps starting at lam.
func protoSteps(tx, client string, lam uint64) []journal.Record {
	kinds := []struct{ kind, site string }{
		{"move-requested", "b1"},
		{"negotiate-sent", "b1"},
		{"negotiate-received", "b3"},
		{"approve-sent", "b3"},
		{"approve-received", "b1"},
		{"state-sent", "b1"},
		{"state-received", "b3"},
		{"ack-sent", "b3"},
		{"ack-received", "b1"},
		{"committed", "b1"},
	}
	out := make([]journal.Record, 0, len(kinds))
	for i, k := range kinds {
		out = append(out, rec(journal.CatProtocol, k.kind, k.site, lam+uint64(i), tx, client, "", ""))
	}
	return out
}

// feedBySite ingests recs as one source per site, the sites in the given
// order and each site's records in journal order — what per-broker tails
// arriving at their own pace look like.
func feedBySite(s *Stream, recs []journal.Record, sites ...string) {
	for _, site := range sites {
		var chunk []journal.Record
		for _, r := range recs {
			if r.Site == site {
				chunk = append(chunk, r)
			}
		}
		s.Ingest(site, chunk...)
	}
}

func violationsOf(rep *Report, check string) []Violation {
	var out []Violation
	for _, v := range rep.Violations() {
		if v.Check == check {
			out = append(out, v)
		}
	}
	return out
}

func TestPhaseOrderClean(t *testing.T) {
	recs := append([]journal.Record{cfg("protocol=reconfig covering=false timeout=0s")},
		protoSteps("x1", "c1", 10)...)
	rep := Audit(recs)
	if !rep.Clean() {
		t.Fatalf("clean conversation flagged: %v", rep.Violations())
	}
	if rep.Runs[0].Committed != 1 || rep.Runs[0].Txs != 1 {
		t.Fatalf("run summary = %+v", rep.Runs[0])
	}
}

func TestPhaseOrderInversion(t *testing.T) {
	steps := protoSteps("x1", "c1", 10)
	// Swap the stamps of state-sent and state-received: the receive now
	// precedes the send causally, which is illegal.
	steps[5].Lamport, steps[6].Lamport = steps[6].Lamport, steps[5].Lamport
	recs := append([]journal.Record{cfg("timeout=0s")}, steps...)
	got := violationsOf(Audit(recs), "phase-order")
	if len(got) == 0 {
		t.Fatal("phase inversion not flagged")
	}
	if !strings.Contains(got[0].Detail, "state-received observed before state-sent") {
		t.Fatalf("unexpected detail: %s", got[0].Detail)
	}
}

func TestPhaseOrderUnresolved(t *testing.T) {
	steps := protoSteps("x1", "c1", 10)[:4] // stops after approve-sent
	recs := append([]journal.Record{cfg("timeout=0s")}, steps...)
	rep := Audit(recs)
	got := violationsOf(rep, "phase-order")
	if len(got) != 1 || !strings.Contains(got[0].Detail, "never resolved") {
		t.Fatalf("unresolved tx not flagged: %v", got)
	}
	if rep.Runs[0].Unresolved != 1 {
		t.Fatalf("unresolved count = %d", rep.Runs[0].Unresolved)
	}
}

func TestPhaseOrderTimeoutUnderBlockingEngine(t *testing.T) {
	recs := []journal.Record{
		cfg("protocol=reconfig covering=false timeout=0s"),
		rec(journal.CatProtocol, "move-requested", "b1", 1, "x1", "c1", "", ""),
		rec(journal.CatProtocol, "negotiate-sent", "b1", 2, "x1", "c1", "", ""),
		rec(journal.CatProtocol, "source-timeout", "b1", 3, "x1", "c1", "", ""),
		rec(journal.CatProtocol, "abort-sent", "b1", 4, "x1", "c1", "", ""),
		rec(journal.CatProtocol, "aborted", "b1", 5, "x1", "c1", "", ""),
	}
	got := violationsOf(Audit(recs), "phase-order")
	found := false
	for _, v := range got {
		if strings.Contains(v.Detail, "blocking engine recorded a source-timeout") {
			found = true
		}
	}
	if !found {
		t.Fatalf("blocking-engine timeout not flagged: %v", got)
	}

	// The same conversation under the non-blocking engine is legal.
	recs[0] = cfg("protocol=reconfig covering=false timeout=2s")
	if got := violationsOf(Audit(recs), "phase-order"); len(got) != 0 {
		t.Fatalf("non-blocking timeout flagged: %v", got)
	}
}

func TestDeliveryExactlyOnce(t *testing.T) {
	base := []journal.Record{
		cfg("timeout=0s"),
		rec(journal.CatBroker, journal.KindDeliver, "b2", 5, "", "c1", "p-p1", "c1@b2"),
		rec(journal.CatClient, journal.KindClientDeliver, "c1", 6, "", "c1", "p-p1", ""),
	}
	if rep := Audit(append([]journal.Record{}, base...)); !rep.Clean() {
		t.Fatalf("clean delivery flagged: %v", rep.Violations())
	}

	// A second queueing of the same publication is a duplicate.
	dup := append(append([]journal.Record{}, base...),
		rec(journal.CatClient, journal.KindClientDeliver, "c1", 9, "", "c1", "p-p1", ""))
	got := violationsOf(Audit(dup), "delivery")
	if len(got) != 1 || !strings.Contains(got[0].Detail, "2 times") {
		t.Fatalf("duplicate not flagged: %v", got)
	}

	// A broker deliver with no eventual queueing is a loss.
	lost := []journal.Record{
		cfg("timeout=0s"),
		rec(journal.CatBroker, journal.KindDeliver, "b2", 5, "", "c1", "p-p2", "c1@b2"),
	}
	got = violationsOf(Audit(lost), "delivery")
	if len(got) != 1 || !strings.Contains(got[0].Detail, "never entered") {
		t.Fatalf("loss not flagged: %v", got)
	}

	// Buffered then queued (a movement window) is clean.
	buffered := []journal.Record{
		cfg("timeout=0s"),
		rec(journal.CatClient, journal.KindShellBuffer, "b3", 5, "x1", "c1", "p-p3", ""),
		rec(journal.CatClient, journal.KindClientDeliver, "c1", 9, "", "c1", "p-p3", ""),
	}
	if rep := Audit(buffered); !rep.Clean() {
		t.Fatalf("buffered delivery flagged: %v", rep.Violations())
	}
}

func TestConvergenceShadowSurvives(t *testing.T) {
	recs := append([]journal.Record{cfg("timeout=0s")}, protoSteps("x1", "c1", 10)...)
	recs = append(recs,
		rec(journal.CatRouting, journal.KindPRTInsert, "b2", 12, "x1", "c1", "c1-s1~x1", "b3"))
	got := violationsOf(Audit(recs), "convergence")
	if len(got) != 1 || !strings.Contains(got[0].Detail, "shadow record survived") {
		t.Fatalf("surviving shadow not flagged: %v", got)
	}
	// Removing it before the end of the run is clean.
	recs = append(recs,
		rec(journal.CatRouting, journal.KindPRTRemove, "b2", 20, "x1", "c1", "c1-s1~x1", "b3"))
	if rep := Audit(recs); !rep.Clean() {
		t.Fatalf("promoted shadow flagged: %v", rep.Violations())
	}
}

func TestConvergenceOrphanAtSource(t *testing.T) {
	recs := []journal.Record{
		cfg("timeout=0s"),
		rec(journal.CatClient, journal.KindClientAttach, "b1", 1, "", "c1", "", ""),
		rec(journal.CatRouting, journal.KindPRTInsert, "b1", 2, "", "c1", "c1-s1", "c1@b1"),
	}
	recs = append(recs, protoSteps("x1", "c1", 10)...)
	recs = append(recs,
		// The client re-homed at b3 but the source entry was never removed.
		rec(journal.CatRouting, journal.KindPRTInsert, "b3", 18, "x1", "c1", "c1-s1", "c1@b3"),
		rec(journal.CatClient, journal.KindClientArrive, "b3", 19, "x1", "c1", "", ""),
	)
	got := violationsOf(Audit(recs), "convergence")
	if len(got) != 1 || !strings.Contains(got[0].Detail, "orphaned PRT entry") {
		t.Fatalf("orphan not flagged: %v", got)
	}
	// Retracting the stale source entry makes the run clean.
	recs = append(recs,
		rec(journal.CatRouting, journal.KindPRTRemove, "b1", 20, "x1", "c1", "c1-s1", "c1@b1"))
	if rep := Audit(recs); !rep.Clean() {
		t.Fatalf("converged run flagged: %v", rep.Violations())
	}
}

func TestConvergenceMissingAtTarget(t *testing.T) {
	recs := append([]journal.Record{cfg("timeout=0s")}, protoSteps("x1", "c1", 10)...)
	recs = append(recs,
		// The movement inserted the filter at the target, the client
		// arrived, but something later removed it under the tx tag.
		rec(journal.CatRouting, journal.KindPRTInsert, "b3", 17, "x1", "c1", "c1-s1", "c1@b3"),
		rec(journal.CatClient, journal.KindClientArrive, "b3", 18, "x1", "c1", "", ""),
		rec(journal.CatRouting, journal.KindPRTRemove, "b3", 21, "x1", "c1", "c1-s1", "c1@b3"),
	)
	got := violationsOf(Audit(recs), "convergence")
	if len(got) != 1 || !strings.Contains(got[0].Detail, "missing from the PRT") {
		t.Fatalf("missing filter not flagged: %v", got)
	}
	// A client-issued (untagged) retraction excuses the absence.
	recs[len(recs)-1].Tx = ""
	if rep := Audit(recs); !rep.Clean() {
		t.Fatalf("client-retracted filter flagged: %v", rep.Violations())
	}
}

func TestAtomicityAbortRollsBack(t *testing.T) {
	abortSteps := []journal.Record{
		cfg("timeout=0s"),
		rec(journal.CatProtocol, "move-requested", "b1", 1, "x1", "c1", "", ""),
		rec(journal.CatProtocol, "negotiate-sent", "b1", 2, "x1", "c1", "", ""),
		rec(journal.CatProtocol, "negotiate-received", "b3", 3, "x1", "c1", "", ""),
		rec(journal.CatProtocol, "approve-sent", "b3", 4, "x1", "c1", "", ""),
		rec(journal.CatRouting, journal.KindPRTInsert, "b3", 5, "x1", "c1", "c1-s1~x1", "c1@b3"),
		rec(journal.CatProtocol, "abort-received", "b1", 8, "x1", "c1", "", ""),
		rec(journal.CatClient, journal.KindClientState, "b1", 9, "", "c1", "", ""),
		rec(journal.CatProtocol, "aborted", "b1", 10, "x1", "c1", "", ""),
	}
	abortSteps[7].Detail = "pause_move->started"

	// Without the rollback remove, the abort leaked prepared state.
	got := violationsOf(Audit(append([]journal.Record{}, abortSteps...)), "atomicity")
	if len(got) != 1 || !strings.Contains(got[0].Detail, "left behind") {
		t.Fatalf("leaked prepare not flagged: %v", got)
	}

	// With the rollback remove the abort is atomic.
	clean := append(append([]journal.Record{}, abortSteps...),
		rec(journal.CatRouting, journal.KindPRTRemove, "b3", 11, "x1", "c1", "c1-s1~x1", "c1@b3"))
	if got := violationsOf(Audit(clean), "atomicity"); len(got) != 0 {
		t.Fatalf("atomic abort flagged: %v", got)
	}
}

func TestAtomicityClientNotResumed(t *testing.T) {
	recs := []journal.Record{
		cfg("timeout=0s"),
		rec(journal.CatProtocol, "move-requested", "b1", 1, "x1", "c1", "", ""),
		rec(journal.CatProtocol, "negotiate-sent", "b1", 2, "x1", "c1", "", ""),
		rec(journal.CatProtocol, "reject-received", "b1", 5, "x1", "c1", "", ""),
		rec(journal.CatProtocol, "aborted", "b1", 6, "x1", "c1", "", ""),
	}
	got := violationsOf(Audit(recs), "atomicity")
	if len(got) != 1 || !strings.Contains(got[0].Detail, "did not return to the started state") {
		t.Fatalf("unresumed client not flagged: %v", got)
	}
}

func TestMultiRunIsolation(t *testing.T) {
	// The same tx ID in two runs must be audited independently: run 1
	// commits cleanly, run 2 leaves it unresolved.
	run1 := append([]journal.Record{cfg("timeout=0s")}, protoSteps("x1", "c1", 10)...)
	run2 := []journal.Record{
		{Run: 2, Site: "journal", Cat: journal.CatMeta, Kind: journal.KindRunConfig, Detail: "timeout=0s"},
		{Run: 2, Lamport: 1, Site: "b1", Cat: journal.CatProtocol, Kind: "move-requested", Tx: "x1", Client: "c1"},
		{Run: 2, Lamport: 2, Site: "b1", Cat: journal.CatProtocol, Kind: "negotiate-sent", Tx: "x1", Client: "c1"},
	}
	rep := Audit(append(run1, run2...))
	if len(rep.Runs) != 2 {
		t.Fatalf("runs = %d", len(rep.Runs))
	}
	if !rep.Runs[0].Clean() {
		t.Fatalf("run 1 flagged: %v", rep.Runs[0].Violations)
	}
	if rep.Runs[1].Clean() || rep.Runs[1].Unresolved != 1 {
		t.Fatalf("run 2 = %+v", rep.Runs[1])
	}
}

func TestTimeline(t *testing.T) {
	recs := append([]journal.Record{cfg("timeout=0s")}, protoSteps("x1", "c1", 10)...)
	recs = append(recs, protoSteps("x2", "c2", 30)...)
	tl := Timeline(recs, 1, "x1")
	if len(tl) != 10 {
		t.Fatalf("timeline records = %d, want 10", len(tl))
	}
	for i := 1; i < len(tl); i++ {
		if tl[i].Lamport <= tl[i-1].Lamport {
			t.Fatalf("timeline not causally ordered at %d", i)
		}
	}
	if tl[0].Kind != "move-requested" || tl[9].Kind != "committed" {
		t.Fatalf("timeline endpoints = %s, %s", tl[0].Kind, tl[9].Kind)
	}
}

func TestBaseID(t *testing.T) {
	for in, want := range map[string]string{
		"c1-s1":          "c1-s1",
		"c1-s1~mv-b1-x1": "c1-s1",
		"c1-s1#mv-b1-x1": "c1-s1",
		"c1-s1#a~b":      "c1-s1", // both qualifiers stripped
	} {
		if got := baseID(in); got != want {
			t.Errorf("baseID(%q) = %q, want %q", in, got, want)
		}
	}
}
