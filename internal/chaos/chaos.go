// Package chaos is the seeded soak harness for transactional mobility under
// adversarial networks: it drives a stream of movement transactions across
// a cluster whose overlay links drop, duplicate, and reorder every frame,
// while a scheduler injects link partitions, broker freezes, and crash-stops
// of idle leaf brokers. The whole run is journaled and replayed through the
// offline auditor (internal/audit); a clean soak demonstrates the paper's
// ACID mobility properties end to end under the Sec. 4.1 failure model, on
// top of this repo's reliable-delivery transport layer.
//
// Everything is derived from one seed, so a failing soak reproduces
// exactly.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"padres/internal/audit"
	"padres/internal/client"
	"padres/internal/cluster"
	"padres/internal/core"
	"padres/internal/failure"
	"padres/internal/journal"
	"padres/internal/message"
	"padres/internal/mon"
	"padres/internal/overlay"
	"padres/internal/predicate"
	"padres/internal/replication"
	"padres/internal/sim"
	"padres/internal/telemetry"
	"padres/internal/transport"
)

// Options configures one soak run. The zero value is usable: Run fills in
// the defaults below.
type Options struct {
	// Seed drives every random choice (faults, schedules, targets).
	Seed int64
	// Clock is the soak's time source (nil selects the wall clock). The
	// soak drives a live cluster with blocking moves, so it normally runs
	// on real time; fully simulated catastrophes live in
	// internal/sim/scenario. The seam exists so every sleep and timestamp
	// in the harness flows through one clock.
	Clock sim.Clock
	// Moves is the number of movement transactions to drive (default 200).
	Moves int
	// Movers is the number of mobile subscribers (default 4).
	Movers int
	// Publishers is the number of publishing clients (default 2).
	Publishers int
	// MoveTimeout arms the non-blocking 3PC variant (default 400ms); the
	// blocking variant would wedge on a crash-stopped coordinator.
	MoveTimeout time.Duration
	// Faults is the per-link loss/duplication/reorder profile (defaults to
	// 15% each; Seed is overwritten with the run seed).
	Faults transport.FaultProfile
	// Retransmit tunes the reliable links (defaults to a fast 2ms base so
	// the soak converges quickly).
	Retransmit transport.RetransmitOptions
	// PartitionEvery injects a bidirectional partition of a random overlay
	// link every N moves (default 19; 0 disables), healed after
	// PartitionFor (default 150ms).
	PartitionEvery int
	PartitionFor   time.Duration
	// FreezeEvery pauses a random broker every N moves (default 13; 0
	// disables) for FreezeFor (default 100ms).
	FreezeEvery int
	FreezeFor   time.Duration
	// CrashEvery crash-stops a random idle leaf broker every N moves
	// (default 67; 0 disables). Only leaves that host no client are
	// eligible, so the mover population survives; the auditor still has to
	// excuse the stranded state.
	CrashEvery int
	// KillCoordinator arms the coordinator-kill mode: every N moves the
	// movement is steered onto a sacrificial leaf broker and that broker —
	// the transaction's TARGET COORDINATOR — is crash-stopped mid-phase,
	// cycling through the four 3PC phases (negotiate received, approve
	// sent, state received, ack sent). Victims are never restarted: the
	// move must still terminate exactly once, through quorum-replicated
	// decisions and standby takeover. The topology is grown with one extra
	// leaf per planned kill, replication defaults on, and the generic
	// CrashEvery schedule defaults off. 0 disables.
	KillCoordinator int
	// Replication configures decision replication (defaults on, with
	// soak-speed lease timers, when KillCoordinator is armed; nil
	// otherwise).
	Replication *replication.Config
	// RecoveryQueryTimeout bounds the recovery-query wait before a local
	// abort (default 2.5s in coordinator-kill mode).
	RecoveryQueryTimeout time.Duration
	// DataDir, if set, gives every broker a durable store under it and arms
	// crash→restart recovery: a crash-stopped broker is restarted from its
	// own disk state after RestartAfter, backbone brokers join the
	// crash-eligible set (a crash now severs movement paths mid-transaction
	// instead of just stranding an idle leaf), and recovered brokers are
	// restarted repeatedly. The auditor then holds the restarted sites to
	// the full convergence properties.
	DataDir string
	// SnapshotEvery is the stores' checkpoint cadence in WAL records
	// (default 64 — aggressive, so recovery replays snapshot+log rather
	// than log alone). Only meaningful with DataDir.
	SnapshotEvery int
	// RestartAfter is the crash→restart delay (default 100ms). Only
	// meaningful with DataDir.
	RestartAfter time.Duration
	// SettleTimeout bounds the final quiescence wait (default 60s).
	SettleTimeout time.Duration
	// JournalCap sizes the flight-recorder ring (default 1<<18 records).
	JournalCap int
	// Journal, if non-nil, is used instead of a fresh in-memory journal
	// (e.g. one sinking to a JSONL file).
	Journal *journal.Journal
	// DisableLiveAudit turns off the streaming auditor that otherwise rides
	// every soak on a journal tap, verifying the invariants while the run
	// is still going and diffing its final verdict against the offline
	// replay of the whole journal (audit.Audit).
	DisableLiveAudit bool
	// Logf, if non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.Clock == nil {
		o.Clock = sim.Wall
	}
	if o.Moves <= 0 {
		o.Moves = 200
	}
	if o.Movers <= 0 {
		o.Movers = 4
	}
	if o.Publishers <= 0 {
		o.Publishers = 2
	}
	if o.MoveTimeout <= 0 {
		o.MoveTimeout = 400 * time.Millisecond
	}
	if o.Faults.Drop == 0 && o.Faults.Dup == 0 && o.Faults.Reorder == 0 {
		o.Faults = transport.FaultProfile{Drop: 0.15, Dup: 0.15, Reorder: 0.15}
	}
	o.Faults.Seed = o.Seed
	if o.Retransmit == (transport.RetransmitOptions{}) {
		o.Retransmit = transport.RetransmitOptions{
			Base: 2 * time.Millisecond, Cap: 40 * time.Millisecond, MaxAttempts: 60,
		}
	}
	if o.PartitionEvery == 0 {
		o.PartitionEvery = 19
	}
	if o.PartitionFor <= 0 {
		o.PartitionFor = 150 * time.Millisecond
	}
	if o.FreezeEvery == 0 {
		o.FreezeEvery = 13
	}
	if o.FreezeFor <= 0 {
		o.FreezeFor = 100 * time.Millisecond
	}
	if o.KillCoordinator > 0 {
		if o.CrashEvery == 0 {
			o.CrashEvery = -1 // keep the kill schedule the only crash source
		}
		if o.Replication == nil {
			// Full-write quorum (W = R) forces the strict pre-ack replication
			// round. That is deliberate: the kill schedule crash-stops the
			// coordinator at EventAckSent, and only the strict path has a
			// window where the decision is quorum-durable but the wire ack has
			// not left — the window standby takeover exists to cover. Under
			// the pipelined commit (W=2) the decision records and the ack
			// share the coordinator's first link FIFO, so a coordinator death
			// either drops both (clean abort) or delivers both (normal
			// commit); there is no decided-but-unacknowledged state to take
			// over.
			o.Replication = &replication.Config{
				Enabled:      true,
				W:            3,
				AckTimeout:   250 * time.Millisecond,
				LeaseTimeout: 400 * time.Millisecond,
				LeaseStagger: 150 * time.Millisecond,
			}
		}
		if o.RecoveryQueryTimeout <= 0 {
			o.RecoveryQueryTimeout = 2500 * time.Millisecond
		}
	}
	if o.CrashEvery == 0 {
		o.CrashEvery = 67
	}
	if o.DataDir != "" {
		if o.SnapshotEvery == 0 {
			o.SnapshotEvery = 64
		}
		if o.RestartAfter <= 0 {
			o.RestartAfter = 100 * time.Millisecond
		}
	}
	if o.SettleTimeout <= 0 {
		o.SettleTimeout = 60 * time.Second
	}
	if o.JournalCap <= 0 {
		o.JournalCap = 1 << 18
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// Result is what one soak produced.
type Result struct {
	Moves      int // transactions driven
	Committed  int
	Aborted    int // rejected, aborted, or timed out — all legal outcomes
	MoveErrors int // unexpected movement errors (should be zero)

	Crashes    int
	Restarts   int // crash victims recovered from their durable stores
	Freezes    int
	Partitions int

	// Coordinator-kill mode tallies (KillCoordinator > 0).
	CoordinatorKills int           // target coordinators crash-stopped mid-phase
	TakeoverCommits  int           // killed-coordinator moves that still committed
	Takeovers        int           // standby-takeover journal records
	MaxKillResolve   time.Duration // slowest killed-coordinator move resolution

	// Transport telemetry after the run.
	Retransmits   int64
	DupesDropped  int64
	DeadLetters   int64
	InjectedDrops int64

	JournalRecords int
	JournalDropped uint64
	Duration       time.Duration

	// Stages and Phases are the latency observatory's fleet snapshot,
	// scraped from the survivors' instruments at soak end: the per-stage
	// pipeline histograms (plus the store's wal_fsync/wal_commit when
	// durable) and the movement-phase histograms, merged cluster-wide.
	Stages []mon.StageStats
	Phases []mon.StageStats
	// DeadInstruments lists stage histograms that recorded nothing even
	// though their matching work counters advanced — instrumentation that
	// silently broke. A clean soak requires none.
	DeadInstruments []string

	Report *audit.Report

	// LiveReport is the streaming auditor's Finalize, produced from the
	// journal tap that ran alongside the soak (nil with DisableLiveAudit).
	LiveReport *audit.Report
	// LiveDropped counts tap records the live auditor missed because its
	// buffer overflowed; non-zero degrades the live verdict to LOSSY and
	// suppresses the offline/live differential.
	LiveDropped uint64
	// LiveDivergence describes the first disagreement between the offline
	// report and the live report. It is only computed when neither the ring
	// nor the tap lost records — the two feeds then carried identical
	// evidence and must finalize to the same report. Empty means agreement
	// (or that the comparison was skipped because of loss).
	LiveDivergence string

	// exposition is the observatory snapshot's /metrics text, kept so the
	// tests can assert which families a soak actually exports.
	exposition string
}

// Clean reports whether the audit found no violations, every movement
// resolved without an unexpected error, no latency instrument went dead
// during the soak, and — when the live auditor ran — its verdict matches
// the offline replay's.
func (r *Result) Clean() bool {
	return r.MoveErrors == 0 && len(r.DeadInstruments) == 0 &&
		r.Report != nil && r.Report.Clean() &&
		r.LiveDivergence == "" &&
		(r.LiveReport == nil || r.LiveReport.Clean())
}

// Summary renders a one-paragraph soak report, including the fleet-wide
// latency percentiles the observatory scraped at soak end.
func (r *Result) Summary() string {
	verdict := "CLEAN"
	if !r.Clean() {
		verdict = "VIOLATIONS"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb,
		"chaos soak: %d moves (%d committed, %d aborted, %d errors) in %v\n"+
			"  injected: %d crashes (%d restarted), %d freezes, %d partitions, %d dropped frames\n"+
			"  transport: %d retransmits, %d dupes deduplicated, %d dead letters\n"+
			"  journal: %d records (%d dropped from ring)\n",
		r.Moves, r.Committed, r.Aborted, r.MoveErrors, r.Duration.Round(time.Millisecond),
		r.Crashes, r.Restarts, r.Freezes, r.Partitions, r.InjectedDrops,
		r.Retransmits, r.DupesDropped, r.DeadLetters,
		r.JournalRecords, r.JournalDropped)
	if r.CoordinatorKills > 0 {
		fmt.Fprintf(&sb,
			"  coordinator kills: %d (never restarted); %d moves committed via standby takeover, %d takeover records, slowest kill resolution %v\n",
			r.CoordinatorKills, r.TakeoverCommits, r.Takeovers, r.MaxKillResolve.Round(time.Millisecond))
	}
	writeStats := func(kind string, stats []mon.StageStats) {
		for _, s := range stats {
			if s.Count == 0 {
				continue
			}
			fmt.Fprintf(&sb, "  %s %s: p50=%.2fms p95=%.2fms p99=%.2fms (n=%d)\n",
				kind, s.Name,
				float64(s.P50)/float64(time.Millisecond),
				float64(s.P95)/float64(time.Millisecond),
				float64(s.P99)/float64(time.Millisecond),
				s.Count)
		}
	}
	writeStats("stage", r.Stages)
	writeStats("phase", r.Phases)
	for _, d := range r.DeadInstruments {
		fmt.Fprintf(&sb, "  dead instrument: %s\n", d)
	}
	if r.LiveReport != nil {
		live := "agrees with the offline replay"
		switch {
		case r.LiveDivergence != "":
			live = "DIVERGED: " + r.LiveDivergence
		case r.LiveDropped > 0 || r.JournalDropped > 0:
			live = fmt.Sprintf("lossy (tap dropped %d, ring dropped %d); differential skipped",
				r.LiveDropped, r.JournalDropped)
		}
		fmt.Fprintf(&sb, "  live audit: %s\n", live)
	}
	fmt.Fprintf(&sb, "  audit: %s", verdict)
	return sb.String()
}

// Run executes one seeded soak and audits it.
func Run(opts Options) (*Result, error) {
	opts = opts.withDefaults()
	rng := rand.New(rand.NewSource(opts.Seed))
	clk := opts.Clock
	start := clk.Now()

	j := opts.Journal
	if j == nil {
		j = journal.New(opts.JournalCap)
	}

	// The live invariant auditor rides the soak on a journal tap: every
	// record the cluster journals is also streamed into an audit.Stream,
	// which verifies delivery, phase order, convergence, and atomicity
	// incrementally while the chaos schedule is still injecting faults. At
	// soak end its Finalize is diffed against the offline replay: the same
	// checks, fed record by record with evictions versus in one causal pass.
	var liveStream *audit.Stream
	var liveTap *journal.Tap
	liveDone := make(chan struct{})
	if !opts.DisableLiveAudit {
		liveStream = audit.NewStream(audit.StreamOptions{})
		liveTap = j.Subscribe(0)
		go func() {
			defer close(liveDone)
			for rec := range liveTap.C() {
				liveStream.Ingest("soak", rec)
			}
		}()
	} else {
		close(liveDone)
	}

	// Coordinator-kill mode grows the overlay by one sacrificial leaf per
	// planned kill: each kill permanently removes one broker, and the
	// movement population must survive the full schedule.
	var topo *overlay.Topology
	var sacrificial []message.BrokerID
	plannedKills := 0
	if opts.KillCoordinator > 0 {
		plannedKills = (opts.Moves - 1) / opts.KillCoordinator
		var err error
		topo, err = overlay.Extended(14 + plannedKills)
		if err != nil {
			return nil, err
		}
		for i := 15; i <= 14+plannedKills; i++ {
			sacrificial = append(sacrificial, overlay.BrokerName(i))
		}
		// Replica placement avoids the sacrificial leaves: every one of them
		// is scheduled to die, and an operator decommissioning a broker drains
		// it from preference lists first. (Without this, a late kill can find
		// its whole standby set already dead.)
		if opts.Replication != nil && len(opts.Replication.Universe) == 0 {
			doomed := make(map[message.BrokerID]bool, len(sacrificial))
			for _, s := range sacrificial {
				doomed[s] = true
			}
			for _, id := range topo.Brokers() {
				if !doomed[id] {
					opts.Replication.Universe = append(opts.Replication.Universe, id)
				}
			}
		}
	}

	faults := opts.Faults
	c, err := cluster.New(cluster.Options{
		Protocol:             core.ProtocolReconfig,
		Topology:             topo,
		MoveTimeout:          opts.MoveTimeout,
		RecoveryQueryTimeout: opts.RecoveryQueryTimeout,
		Replication:          opts.Replication,
		Journal:              j,
		ReliableLinks:        true,
		Retransmit:           opts.Retransmit,
		LinkFaults:           &faults,
		DataDir:              opts.DataDir,
		SnapshotEvery:        opts.SnapshotEvery,
		Clock:                opts.Clock,
	})
	if err != nil {
		return nil, err
	}
	c.Start()
	defer c.Stop()
	in := failure.New(c)

	// The latency observatory rides along: movement protocol steps feed the
	// registry's span recorder (the same one /spans serves), so the soak can
	// end with fleet-wide per-phase percentiles next to the per-stage ones.
	// The sink survives broker restarts — the cluster re-installs it.
	telReg := telemetry.NewRegistry()
	telReg.SetJournal(j)
	phaseSink := core.PhaseSink(telReg.Spans())
	var killer *coordKiller
	if opts.KillCoordinator > 0 {
		killer = &coordKiller{in: in}
		c.SetEventSink(func(e core.Event) {
			phaseSink(e)
			killer.observe(e)
		})
	} else {
		c.SetEventSink(phaseSink)
	}
	if liveStream != nil {
		// The auditor's verdicts join the soak's exposition, so the
		// dead-instrument detector also proves the audit wiring is alive.
		telReg.AddFamilies(liveStream.PromFamilies)
	}

	// Partition the broker set: clients live only on hostable brokers;
	// crash victims host none, so a crash never takes a client or a
	// movement endpoint with it (the paper's crash-stop of an uninvolved
	// broker). Without durable stores the victims are idle leaves — a crash
	// is forever, so routing through them must not matter. With DataDir the
	// pool also reserves backbone brokers: crashing one severs live
	// movement paths, and the restart has to recover its routing tables and
	// resolve whatever the crash caught in flight.
	all := c.Brokers()
	sacr := make(map[message.BrokerID]bool, len(sacrificial))
	for _, id := range sacrificial {
		sacr[id] = true
	}
	var crashable, hostable []message.BrokerID
	var reservedBackbone int
	for _, id := range all {
		if sacr[id] {
			continue // reserved for the coordinator-kill schedule
		}
		reserve := len(c.Topology().Neighbors(id)) == 1 && len(crashable) < 2
		if !reserve && opts.DataDir != "" && len(c.Topology().Neighbors(id)) >= 3 && reservedBackbone < 2 {
			reserve = true
			reservedBackbone++
		}
		if reserve {
			crashable = append(crashable, id)
		} else {
			hostable = append(hostable, id)
		}
	}
	pool := &crashPool{ids: crashable}

	pubFilter := predicate.MustParse("[x,>,0]")
	var publishers []*client.Client
	for i := 0; i < opts.Publishers; i++ {
		home := hostable[rng.Intn(len(hostable))]
		cl, err := c.NewClient(message.ClientID(fmt.Sprintf("pub%d", i)), home)
		if err != nil {
			return nil, err
		}
		if _, err := cl.Advertise(pubFilter); err != nil {
			return nil, err
		}
		publishers = append(publishers, cl)
	}
	var movers []*client.Client
	for i := 0; i < opts.Movers; i++ {
		home := hostable[rng.Intn(len(hostable))]
		cl, err := c.NewClient(message.ClientID(fmt.Sprintf("mover%d", i)), home)
		if err != nil {
			return nil, err
		}
		if _, err := cl.Subscribe(pubFilter); err != nil {
			return nil, err
		}
		movers = append(movers, cl)
	}
	if err := c.SettleFor(30 * time.Second); err != nil {
		return nil, fmt.Errorf("workload setup did not settle: %w", err)
	}

	// Background publication pump: best-effort data-plane traffic crossing
	// the lossy links while movements run.
	pumpStop := make(chan struct{})
	pumpDone := make(chan struct{})
	go func() {
		defer close(pumpDone)
		i := 0
		for {
			select {
			case <-pumpStop:
				return
			case <-clk.After(5 * time.Millisecond):
				p := publishers[i%len(publishers)]
				_, _ = p.Publish(predicate.Event{"x": predicate.Number(float64(1 + i%100))})
				i++
			}
		}
	}()

	res := &Result{}
	topoLinks := overlayLinks(c)
	killIdx := 0
	killPhases := []core.EventKind{
		core.EventNegotiateReceived, // coordinator dies holding message 1
		core.EventApproveSent,       // dies with the approval unsent on the wire
		core.EventStateReceived,     // dies holding the client state, pre-decision
		core.EventAckSent,           // dies after the quorum-replicated commit
	}
	// Restarts fire on background timers mid-movement; the soak waits for
	// all of them before the final settle.
	var restartWG sync.WaitGroup
	var restarts atomic.Int64
	for m := 0; m < opts.Moves; m++ {
		// Fault schedule, interleaved with the movement stream.
		if opts.PartitionEvery > 0 && m > 0 && m%opts.PartitionEvery == 0 {
			l := topoLinks[rng.Intn(len(topoLinks))]
			if err := in.PartitionFor(l[0], l[1], opts.PartitionFor); err == nil {
				res.Partitions++
				opts.Logf("move %d: partitioned %s-%s for %v", m, l[0], l[1], opts.PartitionFor)
			}
		}
		if opts.FreezeEvery > 0 && m > 0 && m%opts.FreezeEvery == 0 {
			id := all[rng.Intn(len(all))]
			// A frozen sacrificial leaf could not be crash-stopped cleanly
			// when its kill move comes up, so the kill set is freeze-exempt.
			if !in.Crashed(id) && !in.Frozen(id) && !sacr[id] {
				if err := in.FreezeFor(id, opts.FreezeFor); err == nil {
					res.Freezes++
					opts.Logf("move %d: froze %s for %v", m, id, opts.FreezeFor)
				}
			}
		}
		if opts.CrashEvery > 0 && m > 0 && m%opts.CrashEvery == 0 {
			if id, ok := pool.pop(); !ok {
				// Pool exhausted (restarts disabled, or all victims down).
			} else if in.Frozen(id) {
				pool.push(id) // a paused broker cannot be stopped cleanly
			} else if err := in.Crash(id); err == nil {
				res.Crashes++
				opts.Logf("move %d: crashed %s", m, id)
				if opts.DataDir != "" {
					restartWG.Add(1)
					clk.AfterFunc(opts.RestartAfter, func() {
						defer restartWG.Done()
						if err := in.Restart(id); err != nil {
							opts.Logf("restart %s failed: %v", id, err)
							return
						}
						restarts.Add(1)
						pool.push(id) // recovered victims are fair game again
						opts.Logf("restarted %s from its durable store", id)
					})
				}
			}
		}

		moverIdx := m % len(movers)
		mv := movers[moverIdx]
		var target message.BrokerID
		killing := false
		if killer != nil && m > 0 && m%opts.KillCoordinator == 0 && killIdx < len(sacrificial) {
			// Steer this move onto the next sacrificial leaf and arm the
			// killer: the instant the chosen 3PC phase event fires at that
			// target coordinator, its only overlay link is severed and the
			// broker crash-stops — permanently.
			target = sacrificial[killIdx]
			phase := killPhases[killIdx%len(killPhases)]
			killer.arm(target, c.Topology().Neighbors(target)[0], phase)
			killing = true
			opts.Logf("move %d: steering %s onto %s, coordinator kill armed at %s",
				m, mv.ID(), target, phase)
		} else {
			target = hostable[rng.Intn(len(hostable))]
			for target == mv.Broker() {
				target = hostable[rng.Intn(len(hostable))]
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		moveStart := clk.Now()
		err := mv.Move(ctx, target)
		moveElapsed := clk.Since(moveStart)
		cancel()
		res.Moves++
		switch {
		case err == nil:
			res.Committed++
		case errors.Is(err, core.ErrRejected), errors.Is(err, core.ErrAborted),
			errors.Is(err, core.ErrMoveTimeout):
			res.Aborted++
		default:
			res.MoveErrors++
			opts.Logf("move %d: unexpected error: %v", m, err)
		}
		if killing {
			if !killer.disarm() {
				// The conversation never reached the armed phase (an earlier
				// fault aborted it); the victim survives for the next round.
				opts.Logf("move %d: kill did not fire (move resolved at %v)", m, moveElapsed)
			} else {
				killIdx++
				res.CoordinatorKills++
				res.Crashes++
				if moveElapsed > res.MaxKillResolve {
					res.MaxKillResolve = moveElapsed
				}
				opts.Logf("move %d: killed coordinator %s; move resolved %v in %v",
					m, target, err, moveElapsed.Round(time.Millisecond))
				if err == nil {
					// Committed onto a dead coordinator — only standby
					// takeover can have finished it. The mover is stranded
					// there; retire it and recruit a replacement so the
					// population survives the schedule.
					res.TakeoverCommits++
					repl, rerr := c.NewClient(
						message.ClientID(fmt.Sprintf("mover%d-g%d", moverIdx, killIdx)),
						hostable[rng.Intn(len(hostable))])
					if rerr != nil {
						return nil, fmt.Errorf("replacement mover: %w", rerr)
					}
					if _, rerr := repl.Subscribe(pubFilter); rerr != nil {
						return nil, fmt.Errorf("replacement mover subscribe: %w", rerr)
					}
					movers[moverIdx] = repl
				}
			}
		}
	}
	if killer != nil {
		killer.wait() // every requested crash-stop finished
	}

	close(pumpStop)
	<-pumpDone

	// Let residual partition/freeze timers expire, then force-heal and
	// force-thaw whatever remains so the network can quiesce.
	longest := opts.PartitionFor
	if opts.FreezeFor > longest {
		longest = opts.FreezeFor
	}
	clk.Sleep(longest + 50*time.Millisecond)
	for _, l := range topoLinks {
		if c.Network().Partitioned(l[0].Node(), l[1].Node()) {
			_ = in.Heal(l[0], l[1])
		}
	}
	for _, id := range all {
		if in.Frozen(id) {
			_ = in.Thaw(id)
		}
	}
	restartWG.Wait()
	res.Restarts = int(restarts.Load())
	if opts.DataDir != "" {
		// Every restarted broker must resolve its recovered in-doubt
		// movements (query answered, or local abort on query timeout)
		// before the audit judges convergence.
		deadline := clk.Now().Add(30 * time.Second)
		for _, id := range all {
			for {
				b := c.Broker(id)
				if b == nil || b.InDoubtCount() == 0 {
					break
				}
				if clk.Now().After(deadline) {
					return nil, fmt.Errorf("broker %s still in doubt after restart", id)
				}
				clk.Sleep(10 * time.Millisecond)
			}
		}
	}
	if err := c.SettleFor(opts.SettleTimeout); err != nil {
		return nil, fmt.Errorf("soak did not settle: %w", err)
	}

	tel := c.Network().Telemetry()
	res.Retransmits = tel.Retransmits.Value()
	res.DupesDropped = tel.DupesDropped.Value()
	res.DeadLetters = tel.DeadLetters.Value()
	res.InjectedDrops = tel.InjectedDrops.Value()
	res.JournalRecords = j.Len()
	res.JournalDropped = j.Dropped()
	for _, rec := range j.Snapshot() {
		if rec.Kind == replication.JournalTakeover {
			res.Takeovers++
		}
	}

	// Stop the live tail: close the tap, let the drain goroutine finish the
	// buffered records, account for any overflow, and finalize.
	if liveStream != nil {
		liveTap.Close()
		<-liveDone
		if res.LiveDropped = liveTap.Dropped(); res.LiveDropped > 0 {
			liveStream.NoteDropped("soak", res.LiveDropped)
		}
		res.LiveReport = liveStream.Finalize()
	}

	// Latency-observatory snapshot: expose the survivors' instruments
	// exactly as /metrics would, re-parse the text, merge the per-stage and
	// per-phase histograms cluster-wide, and run the dead-instrument
	// detector. A soak whose work counters advanced while a registered
	// stage histogram stayed empty means the instrumentation itself broke,
	// and Clean() fails on it.
	for _, id := range all {
		if b := c.Broker(id); b != nil {
			telReg.RegisterBroker(id, b.Metrics())
			telReg.RegisterStore(id, b.StoreMetrics())
			telReg.RegisterReplication(id, b.ReplicationMetrics())
		}
	}
	telReg.RegisterTransport(tel)
	var expo strings.Builder
	telReg.WritePrometheus(&expo)
	res.exposition = expo.String()
	if e, err := mon.Parse(strings.NewReader(res.exposition)); err != nil {
		res.DeadInstruments = []string{fmt.Sprintf("soak exposition unparseable: %v", err)}
	} else {
		res.DeadInstruments = mon.DeadInstruments(e)
		fs := mon.Aggregate([]mon.Scrape{{Target: mon.Target{Name: "soak"}, Expo: e}}, clk.Now())
		res.Stages = fs.Stages
		res.Phases = fs.Phases
		for _, aggErr := range fs.Errors {
			res.DeadInstruments = append(res.DeadInstruments,
				fmt.Sprintf("aggregation: %s", aggErr))
		}
	}

	res.Duration = clk.Since(start)
	res.Report = audit.Audit(j.Snapshot())
	// Differential gate: when neither the ring nor the tap lost records,
	// the two auditors saw identical evidence and must agree exactly —
	// verdict, counts, and violation multiset. Any loss makes the inputs
	// legitimately different, so the comparison is skipped (the live report
	// then stands on its own LOSSY degradation).
	if res.LiveReport != nil && res.JournalDropped == 0 && res.LiveDropped == 0 {
		res.LiveDivergence = audit.DiffReports(res.Report, res.LiveReport)
	}
	return res, nil
}

// coordKiller crash-stops a movement's target coordinator the instant the
// armed 3PC phase event fires at it. The event sink runs synchronously on
// the coordinator's goroutine before the phase's outgoing message is
// forwarded, so severing the victim's (single, leaf) overlay link in the
// sink guarantees no outcome escapes the doomed coordinator; the crash-stop
// itself blocks until the broker goroutine exits and therefore runs on its
// own goroutine.
type coordKiller struct {
	in *failure.Injector
	wg sync.WaitGroup

	mu       sync.Mutex
	victim   message.BrokerID
	neighbor message.BrokerID
	phase    core.EventKind
	armed    bool
	hasFired bool
}

// arm points the killer at the next victim and phase.
func (k *coordKiller) arm(victim, neighbor message.BrokerID, phase core.EventKind) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.victim, k.neighbor, k.phase = victim, neighbor, phase
	k.armed, k.hasFired = true, false
}

// disarm deactivates the killer and reports whether it fired while armed.
func (k *coordKiller) disarm() bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.armed = false
	return k.hasFired
}

// observe is the event-sink hook.
func (k *coordKiller) observe(e core.Event) {
	k.mu.Lock()
	if !k.armed || k.hasFired || e.Broker != k.victim || e.Kind != k.phase {
		k.mu.Unlock()
		return
	}
	k.hasFired = true
	victim, neighbor := k.victim, k.neighbor
	k.mu.Unlock()
	_ = k.in.Partition(victim, neighbor)
	k.wg.Add(1)
	go func() {
		defer k.wg.Done()
		_ = k.in.Crash(victim)
	}()
}

// wait blocks until every requested crash-stop completed.
func (k *coordKiller) wait() { k.wg.Wait() }

// crashPool hands out crash victims and, once restarts recover them, takes
// them back — the schedule and the restart timers share it.
type crashPool struct {
	mu  sync.Mutex
	ids []message.BrokerID
}

func (p *crashPool) pop() (message.BrokerID, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.ids) == 0 {
		return "", false
	}
	id := p.ids[len(p.ids)-1]
	p.ids = p.ids[:len(p.ids)-1]
	return id, true
}

func (p *crashPool) push(id message.BrokerID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.ids = append(p.ids, id)
}

// overlayLinks enumerates the topology's undirected broker links.
func overlayLinks(c *cluster.Cluster) [][2]message.BrokerID {
	var out [][2]message.BrokerID
	for _, id := range c.Brokers() {
		for _, n := range c.Topology().Neighbors(id) {
			if id < n {
				out = append(out, [2]message.BrokerID{id, n})
			}
		}
	}
	return out
}
