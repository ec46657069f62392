package audit

import (
	"fmt"
	"strings"
	"testing"

	"padres/internal/journal"
)

// takeoverRec builds a synthetic standby-takeover record as the replication
// agent journals it.
func takeoverRec(tx, client, site string, lam uint64, gen int, outcome string) journal.Record {
	return journal.Record{
		Run: 1, Lamport: lam, Site: site, Cat: journal.CatProtocol, Kind: "standby-takeover",
		Tx: tx, Client: client, Detail: fmt.Sprintf("gen=%d outcome=%s", gen, outcome),
	}
}

// decisionRec builds a synthetic replica-decision record.
func decisionRec(tx, client, site string, lam uint64, gen int, outcome, from string) journal.Record {
	return journal.Record{
		Run: 1, Lamport: lam, Site: site, Cat: journal.CatProtocol, Kind: "replica-decision",
		Tx: tx, Client: client, Detail: fmt.Sprintf("outcome=%s gen=%d from=%s", outcome, gen, from),
	}
}

func TestReplicationCleanTakeover(t *testing.T) {
	recs := append([]journal.Record{cfg("protocol=reconfig covering=false timeout=100ms")},
		protoSteps("x1", "c1", 10)...)
	recs = append(recs,
		decisionRec("x1", "c1", "b2", 17, 0, "committed", "b1"),
		takeoverRec("x1", "c1", "b2", 25, 1, "committed"),
	)
	if got := violationsOf(Audit(recs), "replication"); len(got) != 0 {
		t.Fatalf("clean takeover flagged: %v", got)
	}
}

func TestReplicationTakeoverWithoutFence(t *testing.T) {
	recs := []journal.Record{
		cfg("timeout=100ms"),
		takeoverRec("x1", "c1", "b2", 20, 0, "aborted"),
	}
	got := violationsOf(Audit(recs), "replication")
	if len(got) != 1 || !strings.Contains(got[0].Detail, "without a fencing generation") {
		t.Fatalf("gen=0 takeover not flagged: %v", got)
	}
	if got[0].Site != "b2" {
		t.Fatalf("violation site = %q, want b2", got[0].Site)
	}
}

func TestReplicationDuplicateGeneration(t *testing.T) {
	recs := []journal.Record{
		cfg("timeout=100ms"),
		takeoverRec("x1", "c1", "b2", 20, 2, "aborted"),
		takeoverRec("x1", "c1", "b3", 21, 2, "aborted"),
	}
	got := violationsOf(Audit(recs), "replication")
	if len(got) != 1 || !strings.Contains(got[0].Detail, "share fencing generation 2") {
		t.Fatalf("duplicate generation not flagged: %v", got)
	}
}

func TestReplicationOutcomeDisagreement(t *testing.T) {
	recs := []journal.Record{
		cfg("timeout=100ms"),
		takeoverRec("x1", "c1", "b2", 20, 1, "committed"),
		takeoverRec("x1", "c1", "b3", 21, 2, "aborted"),
	}
	got := violationsOf(Audit(recs), "replication")
	if len(got) != 1 || !strings.Contains(got[0].Detail, "disagree on outcome (aborted vs committed)") {
		t.Fatalf("outcome disagreement not flagged: %v", got)
	}
}

func TestReplicationTakeoverContradictsResolution(t *testing.T) {
	recs := append([]journal.Record{cfg("timeout=100ms")}, protoSteps("x1", "c1", 10)...)
	recs = append(recs, takeoverRec("x1", "c1", "b2", 25, 1, "aborted"))
	got := violationsOf(Audit(recs), "replication")
	if len(got) != 1 || !strings.Contains(got[0].Detail, "resolved aborted but the transaction committed") {
		t.Fatalf("resolution mismatch not flagged: %v", got)
	}
}

func TestReplicationDecisionConflictAloneIsLegal(t *testing.T) {
	// A replica durably holding "committed" from a quorum round that failed,
	// superseded by the coordinator's abort, is legal as long as no takeover
	// acted on the stale record.
	recs := []journal.Record{
		cfg("timeout=100ms"),
		decisionRec("x1", "c1", "b2", 20, 0, "committed", "b1"),
		decisionRec("x1", "c1", "b2", 24, 0, "aborted", "b1"),
	}
	if got := violationsOf(Audit(recs), "replication"); len(got) != 0 {
		t.Fatalf("decision conflict without takeover flagged: %v", got)
	}
}

// TestReplicationShuffledMatchesInOrder feeds the same synthetic journal to
// Audit and to a stream in another arrival order and requires identical
// reports, including the replication findings.
func TestReplicationShuffledMatchesInOrder(t *testing.T) {
	var recs []journal.Record
	recs = append(recs, cfg("protocol=reconfig covering=false timeout=100ms"))
	recs = append(recs, protoSteps("x1", "c1", 10)...)
	recs = append(recs,
		decisionRec("x1", "c1", "b2", 17, 0, "committed", "b1"),
		takeoverRec("x1", "c1", "b2", 25, 1, "aborted"),   // contradicts the commit
		takeoverRec("x2", "c2", "b2", 30, 0, "aborted"),   // unfenced
		takeoverRec("x2", "c2", "b3", 31, 1, "aborted"),   // fine by itself
		takeoverRec("x3", "c3", "b2", 40, 3, "committed"), // disagreement pair
		takeoverRec("x3", "c3", "b3", 41, 3, "aborted"),   // and a shared generation
	)

	inOrder := Audit(append([]journal.Record(nil), recs...))
	if n := len(violationsOf(inOrder, "replication")); n != 4 {
		t.Fatalf("replication violations = %d, want 4: %v", n, violationsOf(inOrder, "replication"))
	}

	// One source per site, standbys first: takeovers arrive before the
	// protocol steps and resolutions they are judged against.
	s := NewStream(StreamOptions{})
	feedBySite(s, recs, "b2", "b3", "b1", "journal")
	if st := s.Status(); st.Records != len(recs) {
		t.Fatalf("fed %d of %d records: a site is missing from the feed order", st.Records, len(recs))
	}
	if d := DiffReports(inOrder, s.Finalize()); d != "" {
		t.Fatalf("in-order and reordered reports diverge:\n%s", d)
	}
}
