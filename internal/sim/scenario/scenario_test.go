package scenario

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"padres/internal/audit"
)

// TestCatastropheSmoke runs the full layered catastrophe at a small scale
// and demands a clean audit.
func TestCatastropheSmoke(t *testing.T) {
	res, err := Run(Options{Seed: 1, Brokers: 24})
	if err != nil {
		t.Fatal(err)
	}
	t.Log(res.Summary())
	if res.MovesRequested == 0 {
		t.Fatal("scenario scripted no movements")
	}
	if res.Committed == 0 {
		t.Error("no movement committed")
	}
	if res.Dropped != 0 {
		t.Errorf("journal dropped %d records; raise JournalCap", res.Dropped)
	}
	if !res.Clean() {
		for _, v := range res.Report.Violations() {
			t.Errorf("violation: %s", v)
		}
	}
}

// TestMoveAccountingCloses pins that the movement tallies sum: every
// scripted move is committed, aborted, unresolved or refused, and the
// summary line prints all four. Herds twice the subscriber count pick some
// client twice in one wave by pigeonhole, and a client already moving is
// refused.
func TestMoveAccountingCloses(t *testing.T) {
	res, err := Run(Options{Seed: 3, Scenario: Herd, Brokers: 20, Subscribers: 4, HerdSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Log(res.Summary())
	if res.Refused == 0 {
		t.Fatal("scenario produced no refusals; the identity below would not cover them")
	}
	if sum := res.Committed + res.Aborted + res.Unresolved + res.Refused; res.MovesRequested != sum {
		t.Errorf("moves=%d but committed+aborted+unresolved+refused=%d", res.MovesRequested, sum)
	}
	if want := fmt.Sprintf("refused=%d", res.Refused); !strings.Contains(res.Summary(), want) {
		t.Errorf("summary omits %q: %s", want, res.Summary())
	}
}

// TestDeterminism is the regression the whole subsystem exists for: the
// same seed must reproduce the journal byte for byte — identical hashes
// over the canonical encoding and an exactly equal audit report.
func TestDeterminism(t *testing.T) {
	opts := Options{Seed: 42, Brokers: 32}
	a, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Hash != b.Hash {
		t.Fatalf("journal hash diverged across identical seeds:\n  run1=%s (%d records)\n  run2=%s (%d records)",
			a.Hash, a.Records, b.Hash, b.Records)
	}
	if d := audit.DiffReports(a.Report, b.Report); d != "" {
		t.Fatalf("audit reports diverged across identical seeds: %s", d)
	}
	if a.Events != b.Events {
		t.Fatalf("event counts diverged: %d vs %d", a.Events, b.Events)
	}
}

// TestSeedSweep runs a capped sweep of mixed scenarios; every seed must
// audit clean, and the failing seed is named so the run can be reproduced.
func TestSeedSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sweep skipped in -short mode")
	}
	scenarios := []Name{Storm, Herd, Partition, Kill}
	for i, seed := range []int64{7, 1009, 52361} {
		sc := scenarios[i%len(scenarios)]
		res, err := Run(Options{Seed: seed, Scenario: sc, Brokers: 20, Tail: 20 * time.Second})
		if err != nil {
			t.Fatalf("seed %d scenario %s: %v", seed, sc, err)
		}
		t.Log(res.Summary())
		if !res.Clean() {
			for _, v := range res.Report.Violations() {
				t.Errorf("seed %d scenario %s violation: %s", seed, sc, v)
			}
		}
	}
}
