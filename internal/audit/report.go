package audit

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"padres/internal/journal"
)

// DiffReports compares two reports of the same records — typically Audit's
// in-order replay against a live or shuffled feed's Finalize — and returns a
// description of the first difference, or "" when they agree on verdict,
// per-run counts, crash sets, and the exact violation multiset.
func DiffReports(a, b *Report) string {
	if a.Clean() != b.Clean() {
		return fmt.Sprintf("verdict: %v vs %v", a.Clean(), b.Clean())
	}
	if a.Records != b.Records {
		return fmt.Sprintf("records: %d vs %d", a.Records, b.Records)
	}
	if len(a.Runs) != len(b.Runs) {
		return fmt.Sprintf("runs: %d vs %d", len(a.Runs), len(b.Runs))
	}
	for i := range a.Runs {
		ra, rb := a.Runs[i], b.Runs[i]
		if ra.Run != rb.Run || ra.Txs != rb.Txs || ra.Committed != rb.Committed ||
			ra.Aborted != rb.Aborted || ra.Unresolved != rb.Unresolved ||
			ra.CrashInterrupted != rb.CrashInterrupted || ra.Delivered != rb.Delivered ||
			ra.Records != rb.Records {
			return fmt.Sprintf("run %d counts: txs=%d/%d committed=%d/%d aborted=%d/%d unresolved=%d/%d crash-interrupted=%d/%d delivered=%d/%d records=%d/%d",
				ra.Run, ra.Txs, rb.Txs, ra.Committed, rb.Committed, ra.Aborted, rb.Aborted,
				ra.Unresolved, rb.Unresolved, ra.CrashInterrupted, rb.CrashInterrupted,
				ra.Delivered, rb.Delivered, ra.Records, rb.Records)
		}
		if strings.Join(ra.CrashedSites, ",") != strings.Join(rb.CrashedSites, ",") ||
			strings.Join(ra.RestartedSites, ",") != strings.Join(rb.RestartedSites, ",") {
			return fmt.Sprintf("run %d crash sets: %v/%v vs %v/%v",
				ra.Run, ra.CrashedSites, ra.RestartedSites, rb.CrashedSites, rb.RestartedSites)
		}
		va, vb := violationKeys(ra.Violations), violationKeys(rb.Violations)
		if strings.Join(va, "\n") != strings.Join(vb, "\n") {
			return fmt.Sprintf("run %d violation multisets:\n--- a:\n%s\n--- b:\n%s",
				ra.Run, strings.Join(va, "\n"), strings.Join(vb, "\n"))
		}
	}
	return ""
}

// violationKeys renders violations as sorted comparison keys.
func violationKeys(vs []Violation) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.String()
	}
	sort.Strings(out)
	return out
}

// Write renders the report as the auditor's verdict: per-run summaries,
// every violation, and a final PASS/FAIL line.
func (r *Report) Write(w io.Writer) {
	fmt.Fprintf(w, "audited %d records across %d run(s)\n", r.Records, len(r.Runs))
	for _, run := range r.Runs {
		fmt.Fprintf(w, "\nrun %d: %s\n", run.Run, run.Config)
		fmt.Fprintf(w, "  records=%d transactions=%d committed=%d aborted=%d unresolved=%d deliveries=%d\n",
			run.Records, run.Txs, run.Committed, run.Aborted, run.Unresolved, run.Delivered)
		if run.Clean() {
			fmt.Fprintf(w, "  clean: exactly-once delivery, 3PC phase order, routing convergence, abort atomicity all hold\n")
			continue
		}
		fmt.Fprintf(w, "  VIOLATIONS (%d):\n", len(run.Violations))
		for _, v := range run.Violations {
			fmt.Fprintf(w, "    %s\n", v)
		}
	}
	fmt.Fprintln(w)
	if r.Clean() {
		fmt.Fprintln(w, "PASS: all mobility properties verified")
	} else {
		fmt.Fprintf(w, "FAIL: %d violation(s)\n", len(r.Violations()))
	}
}

// WriteTimeline renders one transaction's causal timeline, one record per
// line in causal order, for debugging a flagged movement.
func WriteTimeline(w io.Writer, recs []journal.Record, run int64, tx string) {
	tl := Timeline(recs, run, tx)
	fmt.Fprintf(w, "timeline of tx %s in run %d (%d records):\n", tx, run, len(tl))
	for _, r := range tl {
		fmt.Fprintf(w, "  %s\n", r)
	}
}
