package client

import (
	"context"
	"errors"
	"strconv"
	"sync"
	"testing"
	"time"

	"padres/internal/message"
	"padres/internal/predicate"
)

// recorder captures messages the client sends to its broker.
type recorder struct {
	mu   sync.Mutex
	msgs []message.Message
}

func (r *recorder) sender() Sender {
	return func(from message.NodeID, m message.Message) {
		r.mu.Lock()
		defer r.mu.Unlock()
		r.msgs = append(r.msgs, m)
	}
}

func (r *recorder) kinds() []message.Kind {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]message.Kind, len(r.msgs))
	for i, m := range r.msgs {
		out[i] = m.Kind()
	}
	return out
}

func (r *recorder) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.msgs)
}

// fakeMover resolves every move immediately with a fixed outcome.
type fakeMover struct {
	err    error
	target message.BrokerID
	c      *Client
}

func (m *fakeMover) RequestMove(c *Client, target message.BrokerID) (<-chan error, error) {
	m.c = c
	m.target = target
	done := make(chan error, 1)
	done <- m.err
	return done, nil
}

func startedClient(t *testing.T) (*Client, *recorder) {
	t.Helper()
	c := New("c1")
	rec := &recorder{}
	c.SetSender(rec.sender())
	if err := c.Attach("b1"); err != nil {
		t.Fatal(err)
	}
	return c, rec
}

func TestLifecycleBasics(t *testing.T) {
	c := New("c1")
	if c.State() != StateInit {
		t.Fatalf("initial state = %s", c.State())
	}
	if err := c.Attach("b1"); err != nil {
		t.Fatal(err)
	}
	if c.State() != StateStarted || c.Broker() != "b1" {
		t.Fatalf("after attach: %s at %s", c.State(), c.Broker())
	}
	if c.Node() != message.ClientNode("c1", "b1") {
		t.Errorf("node = %s", c.Node())
	}
	if err := c.Attach("b2"); err == nil {
		t.Error("second attach should fail")
	}
}

func TestSubscribeAdvertisePublish(t *testing.T) {
	c, rec := startedClient(t)
	f := predicate.MustParse("[x,>,0]")
	subID, err := c.Subscribe(f)
	if err != nil {
		t.Fatal(err)
	}
	advID, err := c.Advertise(f)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Publish(predicate.Event{"x": predicate.Number(1)}); err != nil {
		t.Fatal(err)
	}
	want := []message.Kind{message.KindSubscribe, message.KindAdvertise, message.KindPublish}
	got := rec.kinds()
	if len(got) != len(want) {
		t.Fatalf("sent %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sent %v, want %v", got, want)
		}
	}
	if len(c.Subs()) != 1 || c.Subs()[subID] == nil {
		t.Errorf("Subs() = %v", c.Subs())
	}
	if len(c.Advs()) != 1 || c.Advs()[advID] == nil {
		t.Errorf("Advs() = %v", c.Advs())
	}

	if err := c.Unsubscribe(subID); err != nil {
		t.Fatal(err)
	}
	if err := c.Unadvertise(advID); err != nil {
		t.Fatal(err)
	}
	if len(c.Subs()) != 0 || len(c.Advs()) != 0 {
		t.Error("entries not removed")
	}
	if err := c.Unsubscribe("nope"); !errors.Is(err, ErrUnknownSub) {
		t.Errorf("unknown unsubscribe = %v", err)
	}
	if err := c.Unadvertise("nope"); !errors.Is(err, ErrUnknownAdv) {
		t.Errorf("unknown unadvertise = %v", err)
	}
}

func TestOperationsBeforeAttach(t *testing.T) {
	c := New("c1")
	if _, err := c.Subscribe(predicate.MustParse("[x,>,0]")); !errors.Is(err, ErrNotStarted) {
		t.Errorf("subscribe before attach = %v", err)
	}
}

func TestDeliveryAndDedup(t *testing.T) {
	c, _ := startedClient(t)
	pub := message.Publish{ID: "p1", Event: predicate.Event{"x": predicate.Number(1)}}
	c.DeliverLocal(pub)
	c.DeliverLocal(pub) // duplicate dropped
	c.DeliverLocal(message.Publish{ID: "p2"})
	if c.QueueLen() != 2 {
		t.Fatalf("queue = %d, want 2", c.QueueLen())
	}
	got, ok := c.TryReceive()
	if !ok || got.ID != "p1" {
		t.Fatalf("TryReceive = %v, %v", got, ok)
	}
	ids := c.ReceivedIDs()
	if len(ids) != 2 {
		t.Errorf("ReceivedIDs = %v", ids)
	}
}

func TestReceiveBlocking(t *testing.T) {
	c, _ := startedClient(t)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := c.Receive(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Receive on empty queue = %v", err)
	}

	go func() {
		time.Sleep(10 * time.Millisecond)
		c.DeliverLocal(message.Publish{ID: "p1"})
	}()
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	got, err := c.Receive(ctx2)
	if err != nil || got.ID != "p1" {
		t.Fatalf("Receive = %v, %v", got, err)
	}
}

// TestReceiveFastPath: a Receive that does not have to wait — a notification
// is queued, or the context is already done — arms no context hook, so it
// allocates nothing.
func TestReceiveFastPath(t *testing.T) {
	c, _ := startedClient(t)
	const runs = 100
	for i := 0; i <= runs; i++ { // AllocsPerRun makes one warm-up call
		c.DeliverLocal(message.Publish{ID: message.PubID("p" + strconv.Itoa(i))})
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if got := testing.AllocsPerRun(runs, func() {
		if _, err := c.Receive(ctx); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("Receive on a non-empty queue allocates %.0f times, want 0", got)
	}
	if n := c.QueueLen(); n != 0 {
		t.Fatalf("%d notifications left queued", n)
	}
	cancel()
	if got := testing.AllocsPerRun(runs, func() {
		if _, err := c.Receive(ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("Receive on a cancelled context = %v", err)
		}
	}); got != 0 {
		t.Errorf("Receive on a cancelled context allocates %.0f times, want 0", got)
	}
}

// TestWakeVia: with a wake-up route set, a delivery hands the route one
// wake-up per blocked receiver — none when nobody is blocked, one however
// many notifications queue before the receiver wakes — and the receiver
// sleeps until the route issues it.
func TestWakeVia(t *testing.T) {
	c, _ := startedClient(t)
	var mu sync.Mutex
	var held []func()
	c.SetWakeVia(func(wake func()) {
		mu.Lock()
		held = append(held, wake)
		mu.Unlock()
	})
	heldNow := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(held)
	}

	c.DeliverLocal(message.Publish{ID: "p0"})
	if n := heldNow(); n != 0 {
		t.Fatalf("a delivery with no receiver blocked routed %d wake-ups", n)
	}
	if got, ok := c.TryReceive(); !ok || got.ID != "p0" {
		t.Fatalf("TryReceive = %v, %t", got, ok)
	}

	got := make(chan message.PubID, 3)
	go func() {
		for i := 0; i < 3; i++ {
			p, err := c.Receive(context.Background())
			if err != nil {
				t.Error(err)
				return
			}
			got <- p.ID
		}
	}()
	for blocked := 0; blocked == 0; time.Sleep(time.Millisecond) {
		c.mu.Lock()
		blocked = c.waiting
		c.mu.Unlock()
	}
	c.DeliverLocal(message.Publish{ID: "p1"})
	c.DeliverLocal(message.Publish{ID: "p2"})
	c.DeliverLocal(message.Publish{ID: "p3"})
	if n := heldNow(); n != 1 {
		t.Fatalf("3 deliveries to one blocked receiver routed %d wake-ups, want 1", n)
	}
	select {
	case id := <-got:
		t.Fatalf("receiver woke with %s before its wake-up was issued", id)
	case <-time.After(20 * time.Millisecond):
	}
	held[0]()
	for _, want := range []message.PubID{"p1", "p2", "p3"} {
		select {
		case id := <-got:
			if id != want {
				t.Errorf("received %s, want %s", id, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("receiver never got %s after its wake-up was issued", want)
		}
	}
}

func TestMoveStates(t *testing.T) {
	c, rec := startedClient(t)
	if err := c.BeginMove(); err != nil {
		t.Fatal(err)
	}
	if c.State() != StatePauseMove {
		t.Fatalf("state = %s", c.State())
	}
	if err := c.BeginMove(); !errors.Is(err, ErrMoving) {
		t.Errorf("double BeginMove = %v", err)
	}

	// Notifications divert to the transfer buffer while moving.
	c.DeliverLocal(message.Publish{ID: "m1"})
	if c.QueueLen() != 0 {
		t.Fatal("notification leaked to the app queue during a move")
	}
	// Commands are queued, not sent.
	before := rec.count()
	if _, err := c.Subscribe(predicate.MustParse("[y,>,0]")); err != nil {
		t.Fatal(err)
	}
	if rec.count() != before {
		t.Fatal("command sent while moving")
	}

	buffered, err := c.PrepareStop()
	if err != nil {
		t.Fatal(err)
	}
	if len(buffered) != 1 || buffered[0].ID != "m1" {
		t.Fatalf("buffered = %v", buffered)
	}
	if c.State() != StatePrepareStop {
		t.Fatalf("state = %s", c.State())
	}
	if _, err := c.PrepareStop(); err == nil {
		t.Error("second PrepareStop should fail")
	}

	// Complete at the target: buffered + shell merge exactly once, queued
	// commands flush.
	shell := []message.Publish{{ID: "m1"}, {ID: "m2"}}
	if err := c.CompleteMove("b9", buffered, shell); err != nil {
		t.Fatal(err)
	}
	if c.Broker() != "b9" || c.State() != StateStarted {
		t.Fatalf("after complete: %s at %s", c.State(), c.Broker())
	}
	if c.QueueLen() != 2 {
		t.Errorf("merged queue = %d, want 2 (m1 deduped)", c.QueueLen())
	}
	if rec.count() != before+1 {
		t.Errorf("pending commands not flushed: %d sends", rec.count()-before)
	}
}

func TestResumeAfterAbort(t *testing.T) {
	c, rec := startedClient(t)
	if err := c.BeginMove(); err != nil {
		t.Fatal(err)
	}
	c.DeliverLocal(message.Publish{ID: "m1"})
	if _, err := c.Publish(predicate.Event{"x": predicate.Number(1)}); err != nil {
		t.Fatal(err)
	}
	sendsBefore := rec.count()
	c.Resume()
	if c.State() != StateStarted || c.Broker() != "b1" {
		t.Fatalf("after resume: %s at %s", c.State(), c.Broker())
	}
	// The buffered notification is delivered locally and the queued
	// publish flushed.
	if c.QueueLen() != 1 {
		t.Errorf("queue = %d, want 1", c.QueueLen())
	}
	if rec.count() != sendsBefore+1 {
		t.Errorf("pending publish not flushed")
	}
	// Resume when not moving is a no-op.
	c.Resume()
}

func TestCompleteMoveRequiresMoving(t *testing.T) {
	c, _ := startedClient(t)
	if err := c.CompleteMove("b9", nil, nil); err == nil {
		t.Fatal("CompleteMove while started should fail")
	}
}

func TestMoveViaMover(t *testing.T) {
	c, _ := startedClient(t)
	ctx := context.Background()

	if err := c.Move(ctx, "b1"); !errors.Is(err, ErrSameBroker) {
		t.Errorf("move to same broker = %v", err)
	}
	cNoMover := New("c2")
	_ = cNoMover.Attach("b1")
	if err := cNoMover.Move(ctx, "b2"); !errors.Is(err, ErrNoContainer) {
		t.Errorf("move without container = %v", err)
	}

	m := &fakeMover{}
	c.SetMover(m)
	if err := c.Move(ctx, "b5"); err != nil {
		t.Fatalf("move = %v", err)
	}
	if m.target != "b5" {
		t.Errorf("mover got target %s", m.target)
	}

	m.err = errors.New("boom")
	if err := c.Move(ctx, "b6"); err == nil || err.Error() != "boom" {
		t.Errorf("move error = %v", err)
	}
}

func TestMoveContextCancelled(t *testing.T) {
	c, _ := startedClient(t)
	blocked := &blockingMover{started: make(chan struct{})}
	c.SetMover(blocked)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-blocked.started
		cancel()
	}()
	if err := c.Move(ctx, "b5"); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled move = %v", err)
	}
}

type blockingMover struct {
	started chan struct{}
}

func (m *blockingMover) RequestMove(*Client, message.BrokerID) (<-chan error, error) {
	close(m.started)
	return make(chan error), nil
}

func TestRenameEntries(t *testing.T) {
	c, _ := startedClient(t)
	f := predicate.MustParse("[x,>,0]")
	subID, _ := c.Subscribe(f)
	advID, _ := c.Advertise(f)
	c.RenameEntries(
		map[message.SubID]message.SubID{subID: "new-sub"},
		map[message.AdvID]message.AdvID{advID: "new-adv"},
	)
	if _, ok := c.Subs()["new-sub"]; !ok {
		t.Error("subscription not renamed")
	}
	if _, ok := c.Advs()["new-adv"]; !ok {
		t.Error("advertisement not renamed")
	}
}

func TestEntriesSnapshotSorted(t *testing.T) {
	c, _ := startedClient(t)
	f := predicate.MustParse("[x,>,0]")
	for i := 0; i < 5; i++ {
		if _, err := c.Subscribe(f); err != nil {
			t.Fatal(err)
		}
	}
	subs, _ := c.EntriesSnapshot()
	for i := 1; i < len(subs); i++ {
		if subs[i-1].ID > subs[i].ID {
			t.Fatalf("snapshot not sorted: %v", subs)
		}
	}
}

func TestClose(t *testing.T) {
	c, _ := startedClient(t)
	c.DeliverLocal(message.Publish{ID: "p1"})
	c.Close()
	if c.State() != StateCleaned {
		t.Errorf("state after close = %s", c.State())
	}
	if _, err := c.Subscribe(predicate.MustParse("[x,>,0]")); !errors.Is(err, ErrClosed) {
		t.Errorf("subscribe after close = %v", err)
	}
	// Queued notifications remain readable; blocked Receives fail.
	if _, ok := c.TryReceive(); !ok {
		t.Error("queued notification lost on close")
	}
	ctx := context.Background()
	if _, err := c.Receive(ctx); !errors.Is(err, ErrClosed) {
		t.Errorf("Receive after close = %v", err)
	}
}

func TestStateString(t *testing.T) {
	if StateStarted.String() != "started" || State(99).String() != "state(99)" {
		t.Error("State.String wrong")
	}
}

func TestPauseOperations(t *testing.T) {
	c, rec := startedClient(t)
	if err := c.PauseOperations(); err != nil {
		t.Fatal(err)
	}
	if c.State() != StatePauseOper {
		t.Fatalf("state = %s", c.State())
	}
	// Commands queue; notifications still reach the application.
	if _, err := c.Publish(predicate.Event{"x": predicate.Number(1)}); err != nil {
		t.Fatal(err)
	}
	if rec.count() != 0 {
		t.Fatal("command sent while operations paused")
	}
	c.DeliverLocal(message.Publish{ID: "p1"})
	if c.QueueLen() != 1 {
		t.Fatal("notification blocked by operation pause")
	}
	// A movement cannot start while paused (started-only transition).
	if err := c.BeginMove(); err == nil {
		t.Fatal("BeginMove allowed from pause_oper")
	}
	if err := c.PauseOperations(); err == nil {
		t.Fatal("double pause allowed")
	}
	if err := c.ResumeOperations(); err != nil {
		t.Fatal(err)
	}
	if rec.count() != 1 {
		t.Fatalf("queued command not flushed: %d", rec.count())
	}
	if err := c.ResumeOperations(); err == nil {
		t.Fatal("resume while started allowed")
	}
}
