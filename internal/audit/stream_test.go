package audit

import (
	"fmt"
	"strings"
	"testing"

	"padres/internal/journal"
)

// checkStatusOf returns the live verdict of one check.
func checkStatusOf(st StreamStatus, check string) CheckVerdict {
	for _, c := range st.Checks {
		if c.Check == check {
			return c
		}
	}
	return CheckVerdict{}
}

// reportsEqual compares Audit's in-order replay against a stream fed some
// other way (incrementally, or split across sources).
func reportsEqual(inOrder, stream *Report) string { return DiffReports(inOrder, stream) }

// TestStreamDuplicateReportedImmediately: the acceptance property — an
// injected duplicate delivery is flagged during ingest, before any
// watermark settlement and long before Finalize.
func TestStreamDuplicateReportedImmediately(t *testing.T) {
	var fired []Violation
	s := NewStream(StreamOptions{OnViolation: func(v Violation) { fired = append(fired, v) }})

	recs := []journal.Record{
		cfg("protocol=reconfig covering=false timeout=0s"),
		rec(journal.CatBroker, journal.KindDeliver, "b3", 10, "", "sub", "p1", ""),
		rec(journal.CatClient, journal.KindClientDeliver, "sub@b3", 11, "", "sub", "p1", ""),
	}
	s.Ingest("j", recs...)
	if len(fired) != 0 {
		t.Fatalf("violation fired on a clean single delivery: %v", fired)
	}
	if st := s.Status(); checkStatusOf(st, "delivery").Status != StatusClean {
		t.Fatalf("delivery not clean before the duplicate: %+v", st.Checks)
	}

	dup := rec(journal.CatClient, journal.KindClientDeliver, "sub@b3", 12, "", "sub", "p1", "")
	s.Ingest("j", dup)
	if len(fired) != 1 || fired[0].Check != "delivery" {
		t.Fatalf("duplicate not fired immediately: %v", fired)
	}
	st := s.Status()
	if got := checkStatusOf(st, "delivery"); got.Status != StatusViolated || got.Violations != 1 {
		t.Fatalf("delivery check not VIOLATED immediately: %+v", got)
	}

	// Finalize must agree with the one-pass replay of the same records.
	all := append(recs, dup)
	if diff := reportsEqual(Audit(append([]journal.Record(nil), all...)), s.Finalize()); diff != "" {
		t.Fatalf("stream diverged from the in-order replay: %s", diff)
	}
}

// TestStreamBoundedMemory: settled publications are evicted once the
// watermark passes them, so tracked state stays bounded by in-flight work
// while the record count grows without bound.
func TestStreamBoundedMemory(t *testing.T) {
	s := NewStream(StreamOptions{SettleHorizon: 64})
	const n = 20000
	lam := uint64(1)
	seq := uint64(1)
	mk := func(kind string, cat journal.Category, ref string) journal.Record {
		r := journal.Record{
			Run: 1, Lamport: lam, Seq: seq, Site: "b1", Cat: cat, Kind: kind,
			Client: "sub", Ref: ref,
		}
		lam++
		seq++
		return r
	}
	for i := 0; i < n; i++ {
		ref := fmt.Sprintf("p%d", i)
		s.Ingest("j",
			mk(journal.KindDeliver, journal.CatBroker, ref),
			mk(journal.KindClientDeliver, journal.CatClient, ref),
		)
	}
	st := s.Status()
	if st.Records != 2*n {
		t.Fatalf("ingested %d records, want %d", st.Records, 2*n)
	}
	if st.StateEntries > 2000 {
		t.Fatalf("state grew with run length: %d entries for %d pubs (settled %d)",
			st.StateEntries, n, st.Settled)
	}
	if st.Settled < n-2000 {
		t.Fatalf("settlement barely ran: %d settled of %d", st.Settled, n)
	}
	rep := s.Finalize()
	if !rep.Clean() {
		t.Fatalf("clean workload flagged: %v", rep.Violations())
	}
	if rep.Runs[0].Delivered != n {
		t.Fatalf("delivered %d, want %d (settled pubs must still count)", rep.Runs[0].Delivered, n)
	}
}

// TestStreamLossyDegradesAbsenceChecks: reported loss suppresses
// absence-based findings (LOSSY, not VIOLATED) while presence-based
// duplicates are still reported.
func TestStreamLossyDegradesAbsenceChecks(t *testing.T) {
	s := NewStream(StreamOptions{})
	s.Ingest("j",
		cfg("protocol=reconfig covering=false timeout=0s"),
		// Evidence without a queue record: would be a delivery-loss
		// violation on a trusted stream.
		rec(journal.CatBroker, journal.KindDeliver, "b3", 10, "", "sub", "p1", ""),
		// A genuine duplicate: must survive the loss degrade.
		rec(journal.CatClient, journal.KindClientDeliver, "sub@b3", 11, "", "sub", "p2", ""),
		rec(journal.CatClient, journal.KindClientDeliver, "sub@b3", 12, "", "sub", "p2", ""),
	)
	s.NoteDropped("j", 3)

	st := s.Status()
	if !st.Lossy || len(st.Intervals) != 1 || st.Intervals[0].Missing != 3 {
		t.Fatalf("loss not recorded: %+v", st)
	}
	rep := s.Finalize()
	var dup, lost int
	for _, v := range rep.Violations() {
		switch {
		case strings.Contains(v.Detail, "times"):
			dup++
		case strings.Contains(v.Detail, "never entered"):
			lost++
		}
	}
	if dup != 1 {
		t.Fatalf("duplicate suppressed by loss degrade: %v", rep.Violations())
	}
	if lost != 0 {
		t.Fatalf("absence-based loss violation reported despite LOSSY interval: %v", rep.Violations())
	}
}

// TestStreamTailLossRecord: a synthetic tail-loss marker in the feed (as
// emitted by /journal/stream) degrades the verdict like NoteDropped.
func TestStreamTailLossRecord(t *testing.T) {
	s := NewStream(StreamOptions{})
	s.Ingest("j", rec(journal.CatBroker, journal.KindDeliver, "b3", 10, "", "sub", "p1", ""))
	s.Ingest("j", journal.TailLossRecord(1, 10, 2))
	st := s.Status()
	if !st.Lossy {
		t.Fatal("tail-loss record did not degrade the stream")
	}
	if got := checkStatusOf(st, "delivery").Status; got != StatusLossy {
		t.Fatalf("delivery status = %s, want LOSSY", got)
	}
	if rep := s.Finalize(); !rep.Clean() {
		t.Fatalf("absence-based violation reported under loss: %v", rep.Violations())
	}
}

// TestStreamPhaseChecksMatchInOrder: synthetic protocol histories — clean,
// inverted, unresolved, double-resolved — produce the same verdicts as the
// in-order replay when fed out of order across two sources.
func TestStreamPhaseChecksMatchInOrder(t *testing.T) {
	base := []journal.Record{cfg("protocol=reconfig covering=false timeout=0s")}
	clean := protoSteps("x1", "c1", 10)
	inverted := protoSteps("x2", "c2", 40)
	// Swap the stamps of approve-sent and negotiate-received: an inversion.
	inverted[2].Lamport, inverted[3].Lamport = inverted[3].Lamport, inverted[2].Lamport
	unresolved := protoSteps("x3", "c3", 80)[:4] // stops after approve-sent

	all := append(append(append(base, clean...), inverted...), unresolved...)

	s := NewStream(StreamOptions{})
	// Feed the two coordinator sites as separate sources, preserving
	// per-site order (as per-broker tails would).
	feedBySite(s, all, "journal", "b1", "b3")
	if diff := reportsEqual(Audit(append([]journal.Record(nil), all...)), s.Finalize()); diff != "" {
		t.Fatalf("stream diverged from the in-order replay: %s", diff)
	}
}
