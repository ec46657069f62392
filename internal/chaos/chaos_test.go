package chaos

import (
	"strings"
	"testing"
	"time"

	"padres/internal/mon"
)

// TestSoakShort runs a reduced seeded soak — lossy reliable links,
// partitions, freezes, and one leaf crash — and requires a clean audit.
func TestSoakShort(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short mode")
	}
	res, err := Run(Options{
		Seed:       7,
		Moves:      40,
		CrashEvery: 25,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Log(res.Summary())
	if res.Moves != 40 {
		t.Fatalf("drove %d moves, want 40", res.Moves)
	}
	if !res.Clean() {
		t.Fatalf("soak not clean:\n%s\nviolations: %v", res.Summary(), res.Report.Violations())
	}
	if res.Committed == 0 {
		t.Error("no movement committed under chaos")
	}
	if res.Crashes == 0 {
		t.Error("crash schedule never fired")
	}
	if res.Retransmits == 0 || res.DupesDropped == 0 {
		t.Error("fault injection produced no retransmit/dedup activity")
	}
	if res.JournalDropped != 0 {
		t.Errorf("journal ring dropped %d records; audit evidence incomplete", res.JournalDropped)
	}
	// The live auditor ran alongside the soak: it must have produced a
	// report, lost nothing off its tap, and — on a lossless run — agreed
	// with the offline replay exactly.
	if res.LiveReport == nil {
		t.Fatal("live auditor produced no report")
	}
	if res.LiveDropped != 0 {
		t.Errorf("live audit tap dropped %d records", res.LiveDropped)
	}
	if res.LiveDivergence != "" {
		t.Errorf("live audit diverged from the offline replay: %s", res.LiveDivergence)
	}
	if !res.LiveReport.Clean() {
		t.Errorf("live audit not clean: %v", res.LiveReport.Violations())
	}
	// The latency observatory must have snapshotted the fleet: pipeline
	// stage percentiles, movement phase percentiles (with the "total" row),
	// and no instrument that went dead while its work counter advanced.
	if len(res.DeadInstruments) != 0 {
		t.Errorf("dead instruments: %v", res.DeadInstruments)
	}
	stages := make(map[string]int64)
	for _, s := range res.Stages {
		stages[s.Name] = s.Count
	}
	if stages["inbox_wait"] == 0 || stages["match"] == 0 {
		t.Errorf("fleet stage snapshot incomplete: %v", stages)
	}
	var total bool
	for _, p := range res.Phases {
		if p.Name == "total" && p.Count > 0 {
			total = true
		}
	}
	if !total {
		t.Errorf("fleet phase snapshot has no whole-move row: %v", res.Phases)
	}
}

// TestSoakRestartShort runs the durable-store soak: brokers persist to
// disk, crash victims include backbone brokers on live movement paths, and
// every crash is followed by a restart that recovers from snapshot + WAL
// replay and resolves in-doubt movements by querying the target
// coordinator. The audit must be clean with restarted sites held to the
// full convergence properties.
func TestSoakRestartShort(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short mode")
	}
	res, err := Run(Options{
		Seed:          11,
		Moves:         60,
		CrashEvery:    9, // hammer the crash→restart cycle
		DataDir:       t.TempDir(),
		SnapshotEvery: 16, // force checkpoint + log truncation during the run
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Log(res.Summary())
	if !res.Clean() {
		t.Fatalf("durable soak not clean:\n%s\nviolations: %v", res.Summary(), res.Report.Violations())
	}
	if res.Crashes == 0 || res.Restarts != res.Crashes {
		t.Fatalf("crashes=%d restarts=%d; every crash must be recovered", res.Crashes, res.Restarts)
	}
	if res.Committed == 0 {
		t.Error("no movement committed under crash+restart chaos")
	}
	// Crash+restart cycles must not fool the live auditor either.
	if res.LiveReport == nil || !res.LiveReport.Clean() {
		t.Errorf("live audit under crash+restart not clean: %+v", res.LiveReport)
	}
	if res.LiveDivergence != "" {
		t.Errorf("live audit diverged from the offline replay: %s", res.LiveDivergence)
	}
	// Restarted sites must be inspected, not excused: the audit report
	// records them per run.
	run := res.Report.Runs[len(res.Report.Runs)-1]
	if len(run.RestartedSites) == 0 {
		t.Error("audit saw no restarted sites despite restarts")
	}
	// Durable soak: the store's WAL stages must appear in the fleet
	// snapshot alongside the dispatch stages.
	stages := make(map[string]int64)
	for _, s := range res.Stages {
		stages[s.Name] = s.Count
	}
	if stages["wal_fsync"] == 0 || stages["wal_commit"] == 0 {
		t.Errorf("durable soak snapshot missing WAL stages: %v", stages)
	}
}

// TestSoakKillCoordinator runs the coordinator-kill soak: every 12th move
// is steered onto a sacrificial leaf whose coordinator is crash-stopped
// mid-phase (cycling through all four 3PC phases) and never restarted.
// Quorum-replicated decisions plus standby takeover must terminate every
// move exactly once — in particular, a coordinator that dies after deciding
// commit must not stop the commit.
func TestSoakKillCoordinator(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short mode")
	}
	opts := Options{
		Seed:            23,
		Moves:           60,
		KillCoordinator: 12,
	}
	res, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Log(res.Summary())
	if !res.Clean() {
		t.Fatalf("kill-coordinator soak not clean:\n%s\nviolations: %v",
			res.Summary(), res.Report.Violations())
	}
	if res.Moves != 60 {
		t.Fatalf("drove %d moves, want 60", res.Moves)
	}
	if res.CoordinatorKills == 0 {
		t.Fatal("kill schedule never fired")
	}
	if res.Restarts != 0 {
		t.Fatalf("%d restarts in a never-restart mode", res.Restarts)
	}
	// The post-decision kills must have been finished by standbys: the
	// commit survived its coordinator.
	if res.TakeoverCommits == 0 {
		t.Error("no killed-coordinator move committed via standby takeover")
	}
	if res.Takeovers == 0 {
		t.Error("journal holds no standby-takeover records")
	}
	// Every killed-coordinator move must terminate inside the bounded
	// window: lease-driven takeover well under RecoveryQueryTimeout, and the
	// worst case (whole preference list unreachable) at the local-abort
	// fallback of MoveTimeout + RecoveryQueryTimeout.
	bound := 400*time.Millisecond + 2500*time.Millisecond + 2*time.Second
	if res.MaxKillResolve >= bound {
		t.Errorf("slowest kill resolution %v, want < %v", res.MaxKillResolve, bound)
	}
	// Lossless run: the offline and live feeds must agree.
	if res.JournalDropped == 0 && res.LiveDivergence != "" {
		t.Errorf("live audit diverged from the offline replay: %s", res.LiveDivergence)
	}
	// The replication instruments must reach the exposition: the takeovers
	// counted above were also counted by some standby's own metrics.
	expo, err := mon.Parse(strings.NewReader(res.exposition))
	if err != nil {
		t.Fatalf("soak exposition unparseable: %v", err)
	}
	for _, family := range []string{"padres_replication_takeovers_total", "padres_replication_replicated_total"} {
		if n, ok := expo.SumValues(family, nil); !ok || n == 0 {
			t.Errorf("%s: exported=%v sum=%v, want a non-zero series", family, ok, n)
		}
	}
}

// TestSoakDeterministic: the same seed must reproduce the same movement
// outcome tally (the wall-clock interleaving may differ, but commit/abort
// decisions are driven by the seeded faults).
func TestSoakDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short mode")
	}
	run := func() *Result {
		res, err := Run(Options{
			Seed:           3,
			Moves:          12,
			PartitionEvery: -1, // timing-sensitive injections off: pure link faults
			FreezeEvery:    -1,
			CrashEvery:     -1,
			MoveTimeout:    2 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Clean() {
			t.Fatalf("soak not clean: %v", res.Report.Violations())
		}
		return res
	}
	a, b := run(), run()
	if a.Committed != b.Committed || a.Aborted != b.Aborted {
		t.Fatalf("same seed diverged: run1 %d/%d, run2 %d/%d committed/aborted",
			a.Committed, a.Aborted, b.Committed, b.Aborted)
	}
}
