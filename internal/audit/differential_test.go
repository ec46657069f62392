package audit_test

import (
	"compress/gzip"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"padres/internal/audit"
	"padres/internal/core"
	"padres/internal/journal"
)

// demuxBySite splits a journal snapshot into per-site record streams,
// preserving each site's emission order — exactly what per-broker
// /journal/stream tails deliver.
func demuxBySite(recs []journal.Record) map[string][]journal.Record {
	out := make(map[string][]journal.Record)
	for _, r := range recs {
		out[r.Site] = append(out[r.Site], r)
	}
	return out
}

// feedShuffled ingests the per-site streams in chunks, interleaving chunk
// delivery across sites in a seeded random order while preserving each
// site's internal order — the adversarial arrival schedule a fleet of
// independently-paced broker tails produces.
func feedShuffled(s *audit.Stream, bySite map[string][]journal.Record, chunk int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	sites := make([]string, 0, len(bySite))
	for site := range bySite {
		sites = append(sites, site)
	}
	sort.Strings(sites)
	next := make(map[string]int, len(sites))
	for len(sites) > 0 {
		i := rng.Intn(len(sites))
		site := sites[i]
		recs := bySite[site]
		lo := next[site]
		hi := lo + chunk
		if hi > len(recs) {
			hi = len(recs)
		}
		s.Ingest(site, recs[lo:hi]...)
		if next[site] = hi; hi == len(recs) {
			sites = append(sites[:i], sites[i+1:]...)
		}
	}
}

// shuffledFeedsAgree fails the test unless the journal, fed to a fresh
// stream as shuffled per-site chunks, finalizes to exactly want under
// several seeded interleavings.
func shuffledFeedsAgree(t *testing.T, recs []journal.Record, want *audit.Report) {
	t.Helper()
	bySite := demuxBySite(recs)
	for _, seed := range []int64{1, 7, 42} {
		s := audit.NewStream(audit.StreamOptions{})
		feedShuffled(s, bySite, 25, seed)
		if diff := audit.DiffReports(want, s.Finalize()); diff != "" {
			t.Fatalf("shuffled per-site feed (seed %d) diverged from the in-order feed: %s", seed, diff)
		}
		if st := s.Status(); st.Records != len(recs) {
			t.Fatalf("seed %d: stream ingested %d records, want %d", seed, st.Records, len(recs))
		}
	}
}

// TestShuffledFeedsMatchInOrderOnWorkload is the differential gate: a real
// movement workload's journal, fed to the auditor as shuffled per-broker
// chunks — the adversarial arrival order of a live fleet — must finalize to
// exactly the report of the in-order feed Audit performs: same verdict,
// same counts, same violation multiset.
func TestShuffledFeedsMatchInOrderOnWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("live-cluster audit run")
	}
	j := journal.New(0)
	runMovementWorkload(t, j, core.ProtocolReconfig, false, 0)
	runMovementWorkload(t, j, core.ProtocolEndToEnd, true, 0)
	recs := j.Snapshot()
	inOrder := audit.Audit(append([]journal.Record(nil), recs...))
	if len(inOrder.Runs) != 2 {
		t.Fatalf("audited %d runs, want 2", len(inOrder.Runs))
	}
	if sites := len(demuxBySite(recs)); sites < 4 {
		t.Fatalf("workload touched only %d sites, want a real fleet", sites)
	}
	shuffledFeedsAgree(t, recs, inOrder)
}

// TestGoldenCorpus pins the auditor's verdicts to data: each journal under
// testdata/golden was judged once by the retired batch auditor (a second,
// independent implementation of the five checks — see DESIGN.md), and Audit
// must reproduce that report exactly, as must every shuffled per-site feed.
// The corpus holds the fault-injection tests' journals, a clean
// two-protocol workload, and seeded violations of every check.
func TestGoldenCorpus(t *testing.T) {
	reports, err := filepath.Glob("testdata/golden/*.report.json")
	if err != nil || len(reports) == 0 {
		t.Fatalf("no golden reports found (err=%v)", err)
	}
	violated := make(map[string]bool)
	for _, path := range reports {
		name := strings.TrimSuffix(filepath.Base(path), ".report.json")
		t.Run(name, func(t *testing.T) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var want audit.Report
			if err := json.Unmarshal(data, &want); err != nil {
				t.Fatal(err)
			}
			f, err := os.Open(strings.TrimSuffix(path, ".report.json") + ".jsonl.gz")
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = f.Close() }()
			zr, err := gzip.NewReader(f)
			if err != nil {
				t.Fatal(err)
			}
			recs, err := journal.ReadJSONL(zr)
			if err != nil {
				t.Fatal(err)
			}
			if diff := audit.DiffReports(&want, audit.Audit(append([]journal.Record(nil), recs...))); diff != "" {
				t.Fatalf("Audit diverged from the golden report: %s", diff)
			}
			shuffledFeedsAgree(t, recs, &want)
			for _, v := range want.Violations() {
				violated[v.Check] = true
			}
		})
	}
	for _, check := range audit.StreamChecks {
		if !violated[check] {
			t.Errorf("corpus holds no journal whose golden report violates %q", check)
		}
	}
}

// TestStreamLiveStatusOnWorkload checks the live view, not just Finalize:
// once a clean workload's records are all ingested, every check reads CLEAN
// and the in-flight table drains to the settled/committed transactions.
func TestStreamLiveStatusOnWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("live-cluster audit run")
	}
	j := journal.New(0)
	runMovementWorkload(t, j, core.ProtocolReconfig, false, 0)
	recs := j.Snapshot()

	s := audit.NewStream(audit.StreamOptions{
		OnViolation: func(v audit.Violation) {
			t.Errorf("live violation on clean workload: %s", v)
		},
	})
	for site, chunk := range demuxBySite(recs) {
		s.Ingest(site, chunk...)
	}
	st := s.Status()
	if !st.Clean() {
		t.Fatalf("live status not clean: %+v", st.Checks)
	}
	if st.Lossy {
		t.Fatal("lossless feed marked lossy")
	}
	if st.Watermark == 0 || st.MaxLamport < st.Watermark {
		t.Fatalf("watermark bookkeeping broken: wm=%d max=%d", st.Watermark, st.MaxLamport)
	}
	if len(st.Sources) != len(demuxBySite(recs)) {
		t.Fatalf("sources tracked = %d, want %d", len(st.Sources), len(demuxBySite(recs)))
	}
	if rep := s.Finalize(); !rep.Clean() {
		t.Fatalf("finalize flagged clean workload: %v", rep.Violations())
	}
}
