// Command experiments reproduces the paper's evaluation figures on the
// in-process testbed and prints paper-style tables.
//
// Usage:
//
//	experiments -fig 9                  # quick scale (seconds per run)
//	experiments -fig 8 -scale paper     # 400 clients, 10 s pauses
//	experiments -fig all -clients 80 -duration 10s
//	experiments -fig ablation
//	experiments -fig 8 -journal /tmp/run.jsonl   # record the flight recorder
//	experiments -fig 8 -audit                    # and audit mobility properties
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"padres/internal/audit"
	"padres/internal/chaos"
	"padres/internal/core"
	"padres/internal/experiment"
	"padres/internal/journal"
)

// csvDir, when set, receives one CSV file per figure for external plotting.
var csvDir string

func writeCSV(name string, write func(f *os.File) error) {
	if csvDir == "" {
		return
	}
	path := filepath.Join(csvDir, name)
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "csv:", err)
		return
	}
	defer func() { _ = f.Close() }()
	if err := write(f); err != nil {
		fmt.Fprintln(os.Stderr, "csv:", err)
		return
	}
	fmt.Printf("(wrote %s)\n", path)
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		fig      = fs.String("fig", "9", "figure to reproduce: 8, 9, 10, 11, 12, 13, 14, all, or ablation")
		scale    = fs.String("scale", "quick", "experiment scale: quick or paper")
		clients  = fs.Int("clients", 0, "override client count")
		duration = fs.Duration("duration", 0, "override measurement window")
		pause    = fs.Duration("pause", 0, "override dwell time between movements")
		service  = fs.Duration("service", 0, "override per-message broker processing cost")
		workers  = fs.Int("workers", 0, "broker dispatch workers (>1 matches runs of publications in parallel)")
		seed     = fs.Int64("seed", 0, "override workload seed")
		buckets  = fs.Int("buckets", 10, "time buckets for latency-over-time figures")
		csvOut   = fs.String("csv", "", "directory to write per-figure CSV data into")
		jnlPath  = fs.String("journal", "", "record a flight-recorder journal to this JSONL file")
		doAudit  = fs.Bool("audit", false, "audit the recorded journal after the run (requires -journal or implies in-memory)")
		chaosRun = fs.Bool("chaos", false, "run the seeded chaos soak (reliable links under loss/dup/reorder/partition/crash) instead of a figure")
		moves    = fs.Int("moves", 200, "chaos: number of movement transactions to drive")
		chaosDir = fs.String("data-dir", "", "chaos: broker durable-store root; arms crash→restart recovery (crashed brokers rebuild routing state from snapshot+WAL and resolve in-doubt movements)")
		killCoor = fs.Int("kill-coordinator", 0, "chaos: crash-stop every Nth move's target coordinator mid-phase, never restarting it; quorum replication and standby takeover must terminate every move (0 disables)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *chaosRun {
		return runChaos(*seed, *moves, *killCoor, *jnlPath, *chaosDir)
	}

	var s experiment.Scale
	switch *scale {
	case "quick":
		s = experiment.QuickScale()
	case "paper":
		s = experiment.PaperScale()
	default:
		return fmt.Errorf("unknown scale %q", *scale)
	}
	if *clients > 0 {
		s.Clients = *clients
	}
	if *duration > 0 {
		s.Duration = *duration
	}
	if *pause > 0 {
		s.Pause = *pause
	}
	if *service > 0 {
		s.ServiceTime = *service
	}
	if *workers > 0 {
		s.Workers = *workers
	}
	if *seed != 0 {
		s.Seed = *seed
	}
	csvDir = *csvOut

	var jnl *journal.Journal
	if *jnlPath != "" || *doAudit {
		jnl = journal.New(0)
		if *jnlPath != "" {
			if err := jnl.SinkTo(*jnlPath); err != nil {
				return fmt.Errorf("journal: %w", err)
			}
		}
		s.Journal = jnl
	}

	runErr := runFigures(*fig, s, *buckets)

	if *jnlPath != "" {
		if err := jnl.CloseSink(); err != nil {
			fmt.Fprintln(os.Stderr, "journal:", err)
		} else {
			fmt.Printf("(wrote journal %s: %d records", *jnlPath, jnl.Len())
			if d := jnl.Dropped(); d > 0 {
				fmt.Printf(", %d dropped from the ring", d)
			}
			fmt.Println(")")
		}
	}
	if runErr != nil {
		return runErr
	}
	if *doAudit {
		rep := audit.Audit(jnl.Snapshot())
		rep.Write(os.Stdout)
		if !rep.Clean() {
			return fmt.Errorf("audit found %d violation(s)", len(rep.Violations()))
		}
	}
	return nil
}

// runChaos drives the seeded chaos soak and gates on the audit verdict:
// exit status 0 only when every movement resolved legally and the journal
// replay found zero violations. A data dir arms crash→restart recovery;
// the dir is wiped first so stale broker state from an earlier run cannot
// leak into this one's recovery. killCoordinator > 0 arms the
// coordinator-kill schedule: every Nth move's target coordinator is
// crash-stopped mid-phase and never restarted, and the gate additionally
// requires that at least one post-decision kill was finished by a standby.
func runChaos(seed int64, moves, killCoordinator int, jnlPath, dataDir string) error {
	var jnl *journal.Journal
	if jnlPath != "" {
		jnl = journal.New(1 << 18)
		if err := jnl.SinkTo(jnlPath); err != nil {
			return fmt.Errorf("journal: %w", err)
		}
	}
	if dataDir != "" {
		if err := os.RemoveAll(dataDir); err != nil {
			return fmt.Errorf("data dir: %w", err)
		}
		if err := os.MkdirAll(dataDir, 0o755); err != nil {
			return fmt.Errorf("data dir: %w", err)
		}
	}
	res, err := chaos.Run(chaos.Options{
		Seed:            seed,
		Moves:           moves,
		KillCoordinator: killCoordinator,
		Journal:         jnl,
		DataDir:         dataDir,
		Logf: func(format string, args ...any) {
			fmt.Printf("  "+format+"\n", args...)
		},
	})
	if jnl != nil {
		if cerr := jnl.CloseSink(); cerr != nil {
			fmt.Fprintln(os.Stderr, "journal:", cerr)
		} else {
			fmt.Printf("(wrote journal %s)\n", jnlPath)
		}
	}
	if err != nil {
		return err
	}
	fmt.Println(res.Summary())
	if !res.Clean() {
		res.Report.Write(os.Stdout)
		return fmt.Errorf("chaos audit found %d violation(s), %d unexpected move errors",
			len(res.Report.Violations()), res.MoveErrors)
	}
	if killCoordinator > 0 {
		if res.CoordinatorKills == 0 {
			return fmt.Errorf("kill-coordinator schedule never fired")
		}
		if res.Restarts != 0 {
			return fmt.Errorf("%d restarts in a never-restart mode", res.Restarts)
		}
		if res.TakeoverCommits == 0 {
			return fmt.Errorf("no killed-coordinator move committed via standby takeover")
		}
	}
	return nil
}

// runFigures dispatches to the selected figure(s).
func runFigures(fig string, s experiment.Scale, buckets int) error {
	figures := map[string]func(experiment.Scale, int) error{
		"8":  fig8,
		"9":  fig9,
		"10": fig10,
		"11": fig11,
		"12": fig12,
		"13": fig13,
		"14": fig14,
	}
	switch fig {
	case "all":
		for _, name := range []string{"8", "9", "10", "11", "12", "13", "14"} {
			fmt.Printf("==== Figure %s ====\n", name)
			if err := figures[name](s, buckets); err != nil {
				return fmt.Errorf("figure %s: %w", name, err)
			}
		}
		return nil
	case "ablation":
		return ablations(s)
	default:
		f, ok := figures[fig]
		if !ok {
			return fmt.Errorf("unknown figure %q", fig)
		}
		return f(s, buckets)
	}
}

func fig8(s experiment.Scale, buckets int) error {
	var results []*experiment.Result
	for _, protocol := range []core.Protocol{core.ProtocolReconfig, core.ProtocolEndToEnd} {
		res, err := experiment.Fig8(s, protocol)
		if err != nil {
			return err
		}
		results = append(results, res)
		fmt.Printf("-- Fig 8 (%s): movement latency over time --\n", protocol)
		fmt.Print(experiment.RenderTimeline(res, buckets))
		fmt.Print(experiment.RenderResult(res))
		fmt.Printf("-- Fig 8 (%s): 3PC phase breakdown --\n", protocol)
		fmt.Print(experiment.RenderPhaseSummary(res))
		fmt.Println()
	}
	writeCSV("fig8_timeline.csv", func(f *os.File) error {
		return experiment.WriteTimelineCSV(f, results...)
	})
	writeCSV("fig8_phases.csv", func(f *os.File) error {
		return experiment.WritePhaseCSV(f, results...)
	})
	return nil
}

func fig9(s experiment.Scale, _ int) error {
	points, err := experiment.Fig9(s)
	if err != nil {
		return err
	}
	fmt.Println("-- Fig 9: subscription workload sweep --")
	fmt.Print(experiment.RenderFig9(points))
	writeCSV("fig9_workloads.csv", func(f *os.File) error {
		return experiment.WriteFig9CSV(f, points)
	})
	return nil
}

func fig10(s experiment.Scale, _ int) error {
	points, err := experiment.Fig10(s)
	if err != nil {
		return err
	}
	fmt.Println("-- Fig 10: number of moving clients --")
	fmt.Print(experiment.RenderFig10(points))
	writeCSV("fig10_clients.csv", func(f *os.File) error {
		return experiment.WriteFig10CSV(f, points)
	})
	return nil
}

func fig11(s experiment.Scale, _ int) error {
	res, err := experiment.Fig11(s)
	if err != nil {
		return err
	}
	fmt.Println("-- Fig 11: single moving (root) client --")
	fmt.Print(experiment.RenderFig11(res))
	return nil
}

func fig12(s experiment.Scale, _ int) error {
	points, err := experiment.Fig12(s)
	if err != nil {
		return err
	}
	fmt.Println("-- Fig 12: incremental movement --")
	fmt.Print(experiment.RenderFig12(points))
	writeCSV("fig12_incremental.csv", func(f *os.File) error {
		return experiment.WriteFig12CSV(f, points)
	})
	return nil
}

func fig13(s experiment.Scale, _ int) error {
	points, err := experiment.Fig13(s)
	if err != nil {
		return err
	}
	fmt.Println("-- Fig 13: topology size --")
	fmt.Print(experiment.RenderFig13(points))
	writeCSV("fig13_topology.csv", func(f *os.File) error {
		return experiment.WriteFig13CSV(f, points)
	})
	return nil
}

func fig14(s experiment.Scale, buckets int) error {
	for _, protocol := range []core.Protocol{core.ProtocolReconfig, core.ProtocolEndToEnd} {
		res, err := experiment.Fig14Timeline(s, protocol)
		if err != nil {
			return err
		}
		fmt.Printf("-- Fig 14(a/b) (%s): wide-area latency over time --\n", protocol)
		fmt.Print(experiment.RenderTimeline(res, buckets))
		fmt.Println()
	}
	points, err := experiment.Fig14Workloads(s)
	if err != nil {
		return err
	}
	fmt.Println("-- Fig 14(c/d): wide-area workload sweep --")
	fmt.Print(experiment.RenderFig9(points))
	writeCSV("fig14_workloads.csv", func(f *os.File) error {
		return experiment.WriteFig9CSV(f, points)
	})
	return nil
}

func ablations(s experiment.Scale) error {
	start := time.Now()
	cov, err := experiment.AblationCovering(s)
	if err != nil {
		return err
	}
	fmt.Println("-- Ablation: covering optimization under mobility --")
	fmt.Print(experiment.RenderAblation(cov))

	wait, err := experiment.AblationPropagationWait(s)
	if err != nil {
		return err
	}
	fmt.Println("-- Ablation: end-to-end propagation wait --")
	fmt.Print(experiment.RenderAblation(wait))

	svc, err := experiment.AblationServiceTime(s)
	if err != nil {
		return err
	}
	fmt.Println("-- Ablation: broker processing cost --")
	fmt.Print(experiment.RenderAblation(svc))
	fmt.Printf("(ablations took %v)\n", time.Since(start).Round(time.Second))
	return nil
}
