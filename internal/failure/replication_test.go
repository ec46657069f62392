package failure

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"padres/internal/audit"
	"padres/internal/cluster"
	"padres/internal/core"
	"padres/internal/journal"
	"padres/internal/message"
	"padres/internal/predicate"
	"padres/internal/replication"
)

// hasJournalKind reports whether the journal snapshot holds at least one
// record of the given protocol kind (optionally filtered on a Detail substring).
func hasJournalKind(j *journal.Journal, kind, detailSub string) bool {
	for _, r := range j.Snapshot() {
		if r.Kind == kind && (detailSub == "" || strings.Contains(r.Detail, detailSub)) {
			return true
		}
	}
	return false
}

// TestStandbyTakeoverFinishesDecidedMove is the replication tentpole's
// headline: the target coordinator durably decides commit, replicates the
// decision to its write quorum, and dies before the acknowledgement escapes
// — and the move still commits, with NO broker restart. The first standby
// replica's lease fires, it claims takeover at generation 1, and its
// StandbyResolve drives every stranded shadow (and the blocked source) to
// commit.
func TestStandbyTakeoverFinishesDecidedMove(t *testing.T) {
	const (
		source   = message.BrokerID("b1")
		target   = message.BrokerID("b13")
		neighbor = message.BrokerID("b12")
	)
	j := journal.New(1 << 16)
	c := build(t, cluster.Options{
		Protocol: core.ProtocolReconfig,
		// The source's own recovery probe waits a full MoveTimeout; the
		// standby leases below are much shorter, so the takeover path — not
		// the source's query fan-out — must resolve the move.
		MoveTimeout: 3 * time.Second,
		Journal:     j,
		Replication: &replication.Config{
			Enabled: true,
			// Full-write quorum pins the strict pre-ack replication round:
			// only there does a decided-but-unacknowledged window exist for a
			// standby to cover. The pipelined commit (W=2) fate-shares the
			// decision records with the ack on the coordinator's first link,
			// so EventAckSent fires after the ack has already escaped and a
			// coordinator death here would just be a normal commit.
			W:            3,
			AckTimeout:   250 * time.Millisecond,
			LeaseTimeout: 300 * time.Millisecond,
			LeaseStagger: 150 * time.Millisecond,
		},
	})
	in := New(c)

	// At ack-sent the commit is decided, quorum-replicated, and persisted at
	// the target. Sever the target's only link synchronously (the sink runs
	// before the acknowledgement is forwarded) so the ack dies, then crash
	// the target for good from a separate goroutine.
	crashCh := make(chan struct{}, 1)
	crashDone := make(chan struct{})
	go func() {
		defer close(crashDone)
		if _, ok := <-crashCh; !ok {
			return
		}
		if err := in.Crash(target); err != nil {
			t.Errorf("crash %s: %v", target, err)
		}
	}()
	var once sync.Once
	c.SetEventSink(func(e core.Event) {
		if e.Kind == core.EventAckSent && e.Broker == target {
			once.Do(func() {
				if err := in.Partition(target, neighbor); err != nil {
					t.Errorf("partition: %v", err)
				}
				crashCh <- struct{}{}
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

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	start := time.Now()
	if err := sub.Move(ctx, target); err != nil {
		t.Fatalf("decided move did not commit via standby takeover: %v", err)
	}
	elapsed := time.Since(start)
	once.Do(func() { close(crashCh) })
	<-crashDone

	// The takeover must beat the source's local-abort fallback by a wide
	// margin: leases are sub-second, RecoveryWait is seconds.
	if b := c.Broker(source); b != nil && elapsed >= b.RecoveryWait() {
		t.Fatalf("takeover took %v, want < RecoveryQueryTimeout %v", elapsed, b.RecoveryWait())
	}
	if err := c.SettleFor(15 * time.Second); err != nil {
		t.Fatalf("cluster did not settle: %v", err)
	}

	if !hasJournalKind(j, replication.JournalTakeover, "") {
		t.Fatal("journal holds no standby-takeover record")
	}
	if !hasJournalKind(j, replication.JournalDecision, "outcome=committed") {
		t.Fatal("journal holds no replicated commit decision record")
	}
	rep := audit.Audit(j.Snapshot())
	if !rep.Clean() {
		t.Fatalf("audit violations:\n%v", rep.Violations())
	}
	run := rep.Runs[len(rep.Runs)-1]
	if run.Committed != 1 || run.Unresolved != 0 {
		t.Fatalf("resolution: committed=%d aborted=%d unresolved=%d, want one commit",
			run.Committed, run.Aborted, run.Unresolved)
	}
}

// TestRecoveryFanoutLocalAbort pins the bounded-termination regression: a
// prepared source whose target AND entire preference list are unreachable
// must not block forever — after MoveTimeout it fans a recovery query out
// over the preference list, and after RecoveryQueryTimeout of silence it
// locally aborts and resumes the client.
func TestRecoveryFanoutLocalAbort(t *testing.T) {
	const (
		source   = message.BrokerID("b1")
		neighbor = message.BrokerID("b3") // the source's only overlay link
		target   = message.BrokerID("b13")
	)
	j := journal.New(1 << 16)
	c := build(t, cluster.Options{
		Protocol:             core.ProtocolReconfig,
		MoveTimeout:          400 * time.Millisecond,
		RecoveryQueryTimeout: 500 * time.Millisecond,
		Journal:              j,
		Replication: &replication.Config{
			Enabled:    true,
			AckTimeout: 200 * time.Millisecond,
		},
	})
	in := New(c)

	// The instant the prepared state leaves the source, isolate the source
	// completely: the state transfer, every recovery query, and any standby
	// resolution all die on the severed link.
	var once sync.Once
	c.SetEventSink(func(e core.Event) {
		if e.Kind == core.EventStateSent && e.Broker == source {
			once.Do(func() {
				if err := in.Partition(source, neighbor); err != nil {
					t.Errorf("partition: %v", err)
				}
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

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	start := time.Now()
	err = sub.Move(ctx, target)
	elapsed := time.Since(start)
	if !errors.Is(err, core.ErrAborted) {
		t.Fatalf("isolated prepared source returned %v, want ErrAborted", err)
	}
	// MoveTimeout (400ms) + RecoveryQueryTimeout (500ms) + slack.
	if elapsed > 5*time.Second {
		t.Fatalf("local abort took %v, want bounded by probe + recovery timeouts", elapsed)
	}
	if !hasJournalKind(j, core.EventRecoveryFanout.String(), "") {
		t.Fatal("journal holds no recovery-fanout record: the source never queried the preference list")
	}

	if err := in.Heal(source, neighbor); err != nil {
		t.Fatal(err)
	}
	if err := c.SettleFor(15 * time.Second); err != nil {
		t.Fatalf("cluster did not settle: %v", err)
	}
	rep := audit.Audit(j.Snapshot())
	if !rep.Clean() {
		t.Fatalf("audit violations:\n%v", rep.Violations())
	}
	run := rep.Runs[len(rep.Runs)-1]
	if run.Aborted != 1 || run.Committed != 0 || run.Unresolved != 0 {
		t.Fatalf("resolution: committed=%d aborted=%d unresolved=%d, want one atomic abort",
			run.Committed, run.Aborted, run.Unresolved)
	}
	// The resumed client must still be served at the source.
	if sub.Broker() != source {
		t.Fatalf("client ended at %v, want it resumed at %s", sub.Broker(), source)
	}
}

// TestFencingRejectsStaleCoordinatorAck revives a superseded coordinator: the
// target freezes after deciding commit (its acknowledgement stuck in the
// queue), a standby takes over at generation 1 and finishes the move, and
// when the old coordinator thaws and finally emits its generation-0 MoveAck,
// the fenced path hops must reject it.
func TestFencingRejectsStaleCoordinatorAck(t *testing.T) {
	const (
		source = message.BrokerID("b1")
		target = message.BrokerID("b13")
	)
	j := journal.New(1 << 16)
	c := build(t, cluster.Options{
		Protocol: core.ProtocolReconfig,
		// Keep the source's probe far out so the lease-driven takeover is the
		// only resolver in play.
		MoveTimeout: 5 * time.Second,
		Journal:     j,
		Replication: &replication.Config{
			Enabled: true,
			// Strict pre-ack quorum (see TestStandbyTakeoverFinishesDecidedMove):
			// the freeze must catch the acknowledgement before it leaves, and
			// only the strict path still has it queued at EventAckSent.
			W:            3,
			AckTimeout:   250 * time.Millisecond,
			LeaseTimeout: 300 * time.Millisecond,
			LeaseStagger: 150 * time.Millisecond,
		},
	})
	in := New(c)

	// Freeze the target synchronously at ack-sent: Pause only flags the
	// dispatch loop, so it is safe from the coordinator's own goroutine, and
	// the just-queued acknowledgement stays unprocessed until Thaw.
	var once sync.Once
	c.SetEventSink(func(e core.Event) {
		if e.Kind == core.EventAckSent && e.Broker == target {
			once.Do(func() {
				if err := in.Freeze(target); err != nil {
					t.Errorf("freeze: %v", err)
				}
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

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := sub.Move(ctx, target); err != nil {
		t.Fatalf("move did not commit via standby takeover: %v", err)
	}
	if !hasJournalKind(j, replication.JournalTakeover, "") {
		t.Fatal("journal holds no standby-takeover record")
	}

	// Revive the old coordinator; its stale generation-0 acknowledgement now
	// drains into a fenced overlay and must be rejected on the way back.
	if err := in.Thaw(target); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && !hasJournalKind(j, replication.JournalFence, "kind=move-ack") {
		time.Sleep(20 * time.Millisecond)
	}
	if !hasJournalKind(j, replication.JournalFence, "kind=move-ack") {
		t.Fatal("revived coordinator's stale MoveAck was never fence-rejected")
	}
	if err := c.SettleFor(15 * time.Second); err != nil {
		t.Fatalf("cluster did not settle: %v", err)
	}

	// The overlay must still be coherent: a publication reaches the moved
	// client at its (thawed) new host, exactly once.
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
	if run.Committed != 1 || run.Unresolved != 0 {
		t.Fatalf("resolution: committed=%d aborted=%d unresolved=%d, want one commit",
			run.Committed, run.Aborted, run.Unresolved)
	}
	if run.Delivered < 1 {
		t.Fatalf("post-takeover publication never reached the moved client (delivered=%d)", run.Delivered)
	}
	if sub.Broker() != target {
		t.Fatalf("client ended at %v, want %s", sub.Broker(), target)
	}
}
