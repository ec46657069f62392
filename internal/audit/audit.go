// Package audit mechanically verifies the paper's ACID mobility properties
// against a flight-recorder journal (internal/journal). There is one
// auditor, Stream (stream.go): it ingests journal tails while the system
// runs, and Audit feeds it a recorded journal in causal order. Either way it
// replays the records of one or more runs and verifies
//
//	(a) exactly-once delivery — every publication a broker handed to a
//	    subscriber's stub (directly or via a movement buffer) enters that
//	    subscriber's application queue exactly once, across any number of
//	    movement windows;
//	(b) 3PC phase-order legality — every movement transaction's protocol
//	    steps appear in an order the engine (blocking or non-blocking)
//	    allows, and each transaction resolves to exactly one outcome;
//	(c) routing-state convergence — after the run settles, no prepared
//	    shadow configuration survives, no routing entry points at a client
//	    copy the client has left, and the moved client's filters are
//	    present at its final host;
//	(d) movement atomicity — an aborted transaction leaves the moving
//	    client's routing state exactly as it was before the transaction
//	    prepared anything, and the client itself resumes;
//	(e) replication safety — when a standby finishes an in-doubt movement,
//	    every takeover is fenced by a generation strictly above the original
//	    coordinator's, generations never repeat, and all takeovers agree
//	    with the transaction's single resolved outcome.
//
// The auditor groups records by run (journal.BeginRun boundaries) because
// transaction, client, and message identifiers are only unique within one
// deployment.
package audit

import (
	"fmt"
	"strings"

	"padres/internal/journal"
)

// Separators mirrored from the engine: broker shadow records are
// "id~tx" (internal/broker), end-to-end re-issued filters are "id#tx"
// (internal/core). The auditor normalizes both back to the stable base so
// one logical filter is tracked across movements.
const (
	shadowSep = "~"
	epochSep  = "#"
)

// baseID strips shadow and epoch qualifiers from a routing record ID.
func baseID(id string) string {
	if i := strings.Index(id, shadowSep); i >= 0 {
		id = id[:i]
	}
	if i := strings.Index(id, epochSep); i >= 0 {
		id = id[:i]
	}
	return id
}

func isShadow(id string) bool { return strings.Contains(id, shadowSep) }

// Violation is one verified property failure.
type Violation struct {
	Run    int64  `json:"run"`
	Check  string `json:"check"` // delivery | phase-order | convergence | atomicity | replication
	Tx     string `json:"tx,omitempty"`
	Client string `json:"client,omitempty"`
	Site   string `json:"site,omitempty"`
	Ref    string `json:"ref,omitempty"`
	Detail string `json:"detail"`
}

// String renders the violation for reports.
func (v Violation) String() string {
	s := fmt.Sprintf("run=%d [%s]", v.Run, v.Check)
	if v.Tx != "" {
		s += " tx=" + v.Tx
	}
	if v.Client != "" {
		s += " client=" + v.Client
	}
	if v.Site != "" {
		s += " site=" + v.Site
	}
	if v.Ref != "" {
		s += " ref=" + v.Ref
	}
	return s + ": " + v.Detail
}

// RunReport is the audit result of one deployment within the journal.
type RunReport struct {
	Run        int64
	Config     string // the run-config detail (protocol, covering, timeout)
	Records    int
	Txs        int
	Committed  int
	Aborted    int
	Unresolved int
	// CrashInterrupted counts transactions that never resolved because a
	// coordinator site crash-stopped mid-protocol — a legal outcome under
	// the paper's failure model, not a violation.
	CrashInterrupted int
	// CrashedSites lists the sites with a journaled crash-stop, sorted.
	CrashedSites []string
	// RestartedSites lists the crashed sites later replaced by a recovered
	// broker (a causally later broker-restart record), sorted. Their routing
	// tables are held to the full convergence properties.
	RestartedSites []string
	Delivered      int // publications that entered an application queue
	Violations     []Violation
}

// Clean reports whether the run satisfied every property.
func (r RunReport) Clean() bool { return len(r.Violations) == 0 }

// Report is the audit result for a whole journal.
type Report struct {
	Runs    []RunReport
	Records int
}

// Clean reports whether every run satisfied every property.
func (r *Report) Clean() bool {
	for _, run := range r.Runs {
		if !run.Clean() {
			return false
		}
	}
	return true
}

// Violations flattens all runs' violations.
func (r *Report) Violations() []Violation {
	var out []Violation
	for _, run := range r.Runs {
		out = append(out, run.Violations...)
	}
	return out
}

// Audit replays a recorded journal and verifies the mobility properties: the
// records, re-sorted causally in place, are fed to a Stream as one source
// and finalized. Offline replay and the live fleet auditor therefore run the
// same checks; with every record ingested before the first settlement sweep,
// nothing is evicted early and the report is exact.
func Audit(recs []journal.Record) *Report {
	journal.SortCausal(recs)
	s := NewStream(StreamOptions{})
	s.Ingest("journal", recs...)
	return s.Finalize()
}

// Timeline returns the causally ordered records of one movement transaction
// within one run (protocol steps, routing mutations, link transmissions,
// and client events attributed to it).
func Timeline(recs []journal.Record, run int64, tx string) []journal.Record {
	var out []journal.Record
	for _, r := range recs {
		if r.Run == run && r.Tx == tx {
			out = append(out, r)
		}
	}
	journal.SortCausal(out)
	return out
}
