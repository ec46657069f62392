package failure

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"padres/internal/audit"
	"padres/internal/cluster"
	"padres/internal/core"
	"padres/internal/journal"
	"padres/internal/message"
	"padres/internal/predicate"
)

// waitInDoubtZero polls until the broker has no unresolved recovered
// movement transactions (every in-doubt query answered or timed out).
func waitInDoubtZero(t *testing.T, c *cluster.Cluster, id message.BrokerID) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if b := c.Broker(id); b != nil && b.InDoubtCount() == 0 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("broker %s still has in-doubt transactions after 10s", id)
}

// TestCrashRestartMatrix crash-stops a mid-path broker (b8, on the
// b1—b3—b4—b8—b12—b13 movement route) at every phase of the 3PC movement
// conversation, immediately restarts it from its durable store, and replays
// the journal through the auditor. Unlike TestCrashMatrix's coordinator
// crashes, the victim here runs no coordinator, so the crash excuses
// nothing: the transaction must fully resolve to exactly one of commit or
// abort, and the restarted site's recovered routing tables are held to the
// full convergence properties.
func TestCrashRestartMatrix(t *testing.T) {
	phases := []core.EventKind{
		core.EventNegotiateSent, // message 1 in flight across the victim
		core.EventApproveSent,   // message 2: prepares ride through the victim
		core.EventStateSent,     // message 3/4: client state crosses the victim
		core.EventAckSent,       // message 5: the commit crosses the victim
	}
	for _, phase := range phases {
		t.Run(phase.String(), func(t *testing.T) {
			runRestartCase(t, phase)
		})
	}
}

func runRestartCase(t *testing.T, phase core.EventKind) {
	const source, victim, target = message.BrokerID("b1"), message.BrokerID("b8"), message.BrokerID("b13")
	j := journal.New(1 << 16)
	c := build(t, cluster.Options{
		Protocol: core.ProtocolReconfig,
		// Generous enough that a crash→restart→recovery-query round trip
		// resolves an interrupted commit before the source gives up; short
		// enough that a truly lost message aborts the run promptly.
		MoveTimeout:   2 * time.Second,
		Journal:       j,
		DataDir:       t.TempDir(),
		SnapshotEvery: 4, // checkpoint aggressively so recovery replays snapshot+log
	})
	in := New(c)

	// Crash blocks until the broker goroutine exits and event sinks run on
	// coordinator goroutines, so crash+restart run on their own goroutine.
	trigger := make(chan struct{}, 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, ok := <-trigger; !ok {
			return
		}
		if err := in.Crash(victim); err != nil {
			t.Errorf("crash %s: %v", victim, err)
			return
		}
		if err := in.Restart(victim); err != nil {
			t.Errorf("restart %s: %v", victim, err)
		}
	}()
	var once sync.Once
	c.SetEventSink(func(e core.Event) {
		if e.Kind == phase {
			once.Do(func() { trigger <- struct{}{} })
		}
	})

	pub, err := c.NewClient("pub", "b5")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pub.Advertise(predicate.MustParse("[x,>,0]")); err != nil {
		t.Fatal(err)
	}
	sub, err := c.NewClient("sub", source)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sub.Subscribe(predicate.MustParse("[x,>,0]")); err != nil {
		t.Fatal(err)
	}
	if err := c.SettleFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	// Commit and abort are both legal depending on where the crash caught
	// the conversation; the auditor judges the outcome.
	_ = sub.Move(ctx, target)
	once.Do(func() { close(trigger) })
	<-done
	waitInDoubtZero(t, c, victim)
	if err := c.SettleFor(15 * time.Second); err != nil {
		t.Fatalf("cluster did not settle after crash+restart: %v", err)
	}

	rep := audit.Audit(j.Snapshot())
	if !rep.Clean() {
		t.Fatalf("audit violations after crash+restart of %s at %s:\n%v", victim, phase, rep.Violations())
	}
	run := rep.Runs[len(rep.Runs)-1]
	if run.Txs != 1 {
		t.Fatalf("observed %d transactions, want 1", run.Txs)
	}
	// A non-coordinator crash excuses nothing: the movement must resolve.
	if run.Committed+run.Aborted != 1 || run.Unresolved != 0 || run.CrashInterrupted != 0 {
		t.Fatalf("resolution: committed=%d aborted=%d unresolved=%d crash-interrupted=%d, want exactly one commit or abort",
			run.Committed, run.Aborted, run.Unresolved, run.CrashInterrupted)
	}
	if len(run.RestartedSites) != 1 || run.RestartedSites[0] != string(victim) {
		t.Fatalf("RestartedSites = %v, want [%s]", run.RestartedSites, victim)
	}
}

// TestRecoveryCompletesDecidedMove pins down the paper's termination rule
// deterministically, under the blocking engine (no timeout to fall back
// on): the target coordinator durably decides commit before the first
// acknowledgement leaves, the acknowledgement dies with a crashing mid-path
// broker, and the restarted broker's recovery query to the target is the
// only mechanism that can finish the movement. The move must commit, and a
// publication must then reach the client exactly once at its new host.
func TestRecoveryCompletesDecidedMove(t *testing.T) {
	const (
		source   = message.BrokerID("b1")
		victim   = message.BrokerID("b8")
		neighbor = message.BrokerID("b12")
		target   = message.BrokerID("b13")
	)
	j := journal.New(1 << 16)
	c := build(t, cluster.Options{
		Protocol:      core.ProtocolReconfig,
		Journal:       j,
		DataDir:       t.TempDir(),
		SnapshotEvery: 4,
	})
	in := New(c)

	// The moment the target holds the client state, sever the victim's link
	// toward the target: the target's commit decision is persisted and its
	// acknowledgement sent, but the acknowledgement dies at the partition,
	// stranding prepared shadows at b8, b4, b3, and the blocked source.
	partitioned := make(chan struct{})
	var once sync.Once
	c.SetEventSink(func(e core.Event) {
		if e.Kind == core.EventStateReceived {
			once.Do(func() {
				if err := in.Partition(victim, neighbor); err != nil {
					t.Errorf("partition: %v", err)
				}
				close(partitioned)
			})
		}
	})

	pub, err := c.NewClient("pub", "b5")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pub.Advertise(predicate.MustParse("[x,>,0]")); err != nil {
		t.Fatal(err)
	}
	sub, err := c.NewClient("sub", source)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sub.Subscribe(predicate.MustParse("[x,>,0]")); err != nil {
		t.Fatal(err)
	}
	if err := c.SettleFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	moveErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		moveErr <- sub.Move(ctx, target)
	}()

	<-partitioned
	// Let the acknowledgement reach the severed link and die there.
	time.Sleep(150 * time.Millisecond)
	if err := in.Crash(victim); err != nil {
		t.Fatal(err)
	}
	if err := in.Heal(victim, neighbor); err != nil {
		t.Fatal(err)
	}
	if err := in.Restart(victim); err != nil {
		t.Fatal(err)
	}

	// The restarted broker's query to the target re-issues the committed
	// acknowledgement, which commits every stranded shadow on its way back
	// to the source — unblocking the client's Move.
	if err := <-moveErr; err != nil {
		t.Fatalf("decided movement did not complete after recovery: %v", err)
	}
	waitInDoubtZero(t, c, victim)
	if err := c.SettleFor(15 * time.Second); err != nil {
		t.Fatalf("cluster did not settle: %v", err)
	}

	// The recovered route must carry data: a post-recovery publication has
	// to reach the moved client at its new host.
	if _, err := pub.Publish(predicate.Event{"x": predicate.Number(7)}); err != nil {
		t.Fatal(err)
	}
	if err := c.SettleFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	rep := audit.Audit(j.Snapshot())
	if !rep.Clean() {
		t.Fatalf("audit violations:\n%v", rep.Violations())
	}
	run := rep.Runs[len(rep.Runs)-1]
	if run.Committed != 1 || run.Aborted != 0 || run.Unresolved != 0 || run.CrashInterrupted != 0 {
		t.Fatalf("resolution: committed=%d aborted=%d unresolved=%d crash-interrupted=%d, want one commit",
			run.Committed, run.Aborted, run.Unresolved, run.CrashInterrupted)
	}
	if run.Delivered < 1 {
		t.Fatalf("post-recovery publication never reached the moved client (delivered=%d)", run.Delivered)
	}
	if len(run.RestartedSites) != 1 || run.RestartedSites[0] != string(victim) {
		t.Fatalf("RestartedSites = %v, want [%s]", run.RestartedSites, victim)
	}
	if fmt.Sprint(sub.Broker()) != string(target) {
		t.Fatalf("client ended at %s, want %s", sub.Broker(), target)
	}
}
