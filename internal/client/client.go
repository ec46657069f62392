// Package client implements the pub/sub stub layer of a mobile client
// (Sec. 3.2): the component that interfaces application logic with a
// broker, manages the client's movement states (Fig. 4), queues commands
// issued while a movement is in progress, and merges — exactly once — the
// notifications received at the source and target brokers across a move.
package client

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"padres/internal/message"
	"padres/internal/predicate"
	"padres/internal/ring"
	"padres/internal/sim"
)

// State is a client state from the paper's Fig. 4.
type State int

// Client states. A stationary connected client is Started. During a
// movement the source copy walks Started → PauseMove → PrepareStop →
// Cleaned (or back to Started on abort), while the target copy walks Init →
// Created → Started.
const (
	StateInit State = iota + 1
	StateCreated
	StateStarted
	StatePauseOper
	StatePauseMove
	StatePrepareStop
	StateCleaned
)

var stateNames = map[State]string{
	StateInit:        "init",
	StateCreated:     "created",
	StateStarted:     "started",
	StatePauseOper:   "pause_oper",
	StatePauseMove:   "pause_move",
	StatePrepareStop: "prepare_stop",
	StateCleaned:     "cleaned",
}

// String returns the state name.
func (s State) String() string {
	if n, ok := stateNames[s]; ok {
		return n
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Errors reported by client operations.
var (
	ErrNotStarted  = errors.New("client is not started")
	ErrMoving      = errors.New("client movement already in progress")
	ErrClosed      = errors.New("client is closed")
	ErrUnknownSub  = errors.New("unknown subscription")
	ErrUnknownAdv  = errors.New("unknown advertisement")
	ErrSameBroker  = errors.New("target broker equals current broker")
	ErrNoContainer = errors.New("client has no mobility container")
)

// Mover is implemented by the mobile container hosting the client; it
// executes the movement protocol on the client's behalf.
type Mover interface {
	// RequestMove starts a movement transaction toward the target broker
	// and returns a channel that yields the transaction outcome once.
	RequestMove(c *Client, target message.BrokerID) (<-chan error, error)
}

// Sender carries a client-issued message into the client's current broker.
// The container wires it to the co-located broker's inbox, so commands are
// ordered with the broker's other processing.
type Sender func(from message.NodeID, m message.Message)

// StateObserver is notified of every state transition of the client's
// movement state machine (Fig. 4). Observers run with the client's lock
// held: they must not block and must not call back into the client.
type StateObserver func(id message.ClientID, from, to State, at time.Time)

// DeliveryOutcome classifies what the stub did with a notification.
type DeliveryOutcome int

// Delivery outcomes.
const (
	// DeliveryQueued: the publication entered the application queue (first
	// and only time the application sees it).
	DeliveryQueued DeliveryOutcome = iota + 1
	// DeliveryDuplicate: suppressed by the stub's seen-set; the publication
	// had already been queued, typically via the other copy of a moving
	// client during the dual-configuration window.
	DeliveryDuplicate
	// DeliveryBuffered: parked in the transfer buffer while the client is
	// stopping; it accompanies the movement's state-transfer message.
	DeliveryBuffered
)

// String returns the outcome name.
func (o DeliveryOutcome) String() string {
	switch o {
	case DeliveryQueued:
		return "queued"
	case DeliveryDuplicate:
		return "duplicate"
	case DeliveryBuffered:
		return "buffered"
	default:
		return fmt.Sprintf("outcome(%d)", int(o))
	}
}

// DeliveryObserver is notified of every notification handed to the stub and
// what became of it. This is the system's app-level exactly-once point: a
// publication with outcome DeliveryQueued reaches the application exactly
// once. Observers run with the client's lock held: they must not block and
// must not call back into the client.
type DeliveryObserver func(id message.ClientID, pub message.PubID, outcome DeliveryOutcome)

// Client is the pub/sub stub of one (mobile) application client.
type Client struct {
	id  message.ClientID
	gen *message.IDGen
	// clk stamps state-transition observations; the hosting container sets
	// it so simulated clients report virtual times. Defaults to the wall
	// clock.
	clk sim.Clock

	mu       sync.Mutex
	cond     *sync.Cond
	state    State
	stateObs StateObserver
	delivObs DeliveryObserver
	broker   message.BrokerID
	node     message.NodeID
	mover    Mover
	send     Sender
	wakeVia  func(wake func()) // nil: DeliverLocal wakes a blocked Receive itself
	wake     func()            // cond.Broadcast, bound once
	waiting  int               // Receive calls blocked in cond.Wait
	wakeOwed bool              // wakeVia holds a wake-up no receiver has woken to yet
	subs     map[message.SubID]*predicate.Filter
	advs     map[message.AdvID]*predicate.Filter
	seen     map[message.PubID]bool
	queue    ring.Queue[message.Publish] // app-facing notification queue
	transfer []message.Publish           // notifications buffered during a move
	pending  []message.Message           // commands queued while not started
	closed   bool
}

// New creates a client stub in state Init. Containers call Attach to home
// it at a broker and start it.
func New(id message.ClientID) *Client {
	c := &Client{
		id:    id,
		gen:   message.NewIDGen(string(id)),
		clk:   sim.Wall,
		state: StateInit,
		subs:  make(map[message.SubID]*predicate.Filter),
		advs:  make(map[message.AdvID]*predicate.Filter),
		seen:  make(map[message.PubID]bool),
	}
	c.cond = sync.NewCond(&c.mu)
	c.wake = c.cond.Broadcast
	return c
}

// ID returns the client identifier.
func (c *Client) ID() message.ClientID { return c.id }

// State returns the current movement state.
func (c *Client) State() State {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state
}

// Broker returns the broker the client is currently homed at.
func (c *Client) Broker() message.BrokerID {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.broker
}

// Node returns the client's current location-qualified transport identity.
func (c *Client) Node() message.NodeID {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.node
}

// SetMover installs the mobility container responsible for this client.
func (c *Client) SetMover(m Mover) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.mover = m
}

// SetStateObserver installs (or, with nil, removes) the transition
// observer. The telemetry layer uses it to log and trace the client state
// machine alongside the coordinator's movement spans.
func (c *Client) SetStateObserver(obs StateObserver) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stateObs = obs
}

// setStateLocked performs a state transition and notifies the observer.
func (c *Client) setStateLocked(s State) {
	if s == c.state {
		return
	}
	from := c.state
	c.state = s
	if c.stateObs != nil {
		c.stateObs(c.id, from, s, c.clk.Now())
	}
}

// SetClock points the client's observation timestamps at clk (nil resets
// to the wall clock). Containers call it when homing a client so simulated
// runs stamp virtual time.
func (c *Client) SetClock(clk sim.Clock) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.clk = sim.Or(clk)
}

// SetDeliveryObserver installs (or, with nil, removes) the notification
// observer. The flight recorder uses it to journal every queue, duplicate
// suppression, and buffering decision.
func (c *Client) SetDeliveryObserver(obs DeliveryObserver) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.delivObs = obs
}

// SetSender installs the path from the client into its current broker.
func (c *Client) SetSender(s Sender) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.send = s
}

// DeliverLocal receives one notification from the co-located broker.
// Depending on the movement state, it goes to the application queue or to
// the transfer buffer that accompanies the movement transaction.
func (c *Client) DeliverLocal(pub message.Publish) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch c.state {
	case StatePauseMove, StatePrepareStop:
		// Buffered for the state-transfer message; duplicates are resolved
		// at merge time.
		c.transfer = append(c.transfer, pub)
		if c.delivObs != nil {
			c.delivObs(c.id, pub.ID, DeliveryBuffered)
		}
	default:
		c.enqueueLocked(pub)
	}
}

// enqueueLocked appends a notification to the application queue exactly
// once per publication ID.
func (c *Client) enqueueLocked(pub message.Publish) {
	if c.seen[pub.ID] {
		if c.delivObs != nil {
			c.delivObs(c.id, pub.ID, DeliveryDuplicate)
		}
		return
	}
	c.seen[pub.ID] = true
	c.queue.Push(pub)
	if c.delivObs != nil {
		c.delivObs(c.id, pub.ID, DeliveryQueued)
	}
	switch {
	case c.wakeVia == nil:
		c.cond.Broadcast()
	case c.waiting > 0 && !c.wakeOwed:
		// One owed wake-up covers every notification queued until a
		// receiver wakes; with none blocked there is nobody to wake.
		c.wakeOwed = true
		c.wakeVia(c.wake)
	}
}

// SetWakeVia hands the wake-up a queued notification owes a blocked Receive
// to via instead of issuing it on the spot. The hosting container passes the
// broker's DeferWake, which issues it when the dispatcher that is delivering
// has run out of work. via is called with the client's lock held and must
// run wake eventually, from any goroutine; wake neither blocks nor takes a
// lock.
func (c *Client) SetWakeVia(via func(wake func())) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.wakeVia = via
}

// Receive blocks until a notification is available or the context is done.
func (c *Client) Receive(ctx context.Context) (message.Publish, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	// The context hook wakes a waiter on cancellation; a call that finds a
	// notification queued, or the context already done, never waits and so
	// never arms it. The hook takes c.mu, so it cannot broadcast before
	// Wait has released the lock: a cancellation while arming is not lost.
	if c.queue.Len() == 0 && !c.closed && ctx.Err() == nil {
		stop := context.AfterFunc(ctx, func() {
			c.mu.Lock()
			c.cond.Broadcast()
			c.mu.Unlock()
		})
		defer stop()
	}
	for c.queue.Len() == 0 {
		if c.closed {
			return message.Publish{}, ErrClosed
		}
		if ctx.Err() != nil {
			return message.Publish{}, ctx.Err()
		}
		c.waiting++
		c.cond.Wait()
		c.waiting--
		c.wakeOwed = false
	}
	return c.queue.Pop(), nil
}

// TryReceive returns a queued notification if one is available.
func (c *Client) TryReceive() (message.Publish, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.queue.Len() == 0 {
		return message.Publish{}, false
	}
	return c.queue.Pop(), true
}

// QueueLen returns the number of notifications waiting for the application.
func (c *Client) QueueLen() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.queue.Len()
}

// ReceivedIDs returns the set of publication IDs delivered to the
// application queue so far (used by the experiment harness to verify
// exactly-once delivery).
func (c *Client) ReceivedIDs() []message.PubID {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]message.PubID, 0, len(c.seen))
	for id := range c.seen {
		out = append(out, id)
	}
	return out
}

// --- application operations -------------------------------------------------

// Subscribe installs a subscription. While a movement is in progress the
// command is queued and issued at the new broker after the move completes.
func (c *Client) Subscribe(f *predicate.Filter) (message.SubID, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.operationalLocked(); err != nil {
		return "", err
	}
	id := message.SubID(c.gen.Next("s"))
	c.subs[id] = f
	c.issueLocked(message.Subscribe{ID: id, Client: c.id, Filter: f})
	return id, nil
}

// Unsubscribe retracts a subscription.
func (c *Client) Unsubscribe(id message.SubID) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.operationalLocked(); err != nil {
		return err
	}
	if _, ok := c.subs[id]; !ok {
		return fmt.Errorf("%w: %s", ErrUnknownSub, id)
	}
	delete(c.subs, id)
	c.issueLocked(message.Unsubscribe{ID: id, Client: c.id})
	return nil
}

// Advertise announces the publications this client will issue.
func (c *Client) Advertise(f *predicate.Filter) (message.AdvID, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.operationalLocked(); err != nil {
		return "", err
	}
	id := message.AdvID(c.gen.Next("a"))
	c.advs[id] = f
	c.issueLocked(message.Advertise{ID: id, Client: c.id, Filter: f})
	return id, nil
}

// Unadvertise retracts an advertisement.
func (c *Client) Unadvertise(id message.AdvID) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.operationalLocked(); err != nil {
		return err
	}
	if _, ok := c.advs[id]; !ok {
		return fmt.Errorf("%w: %s", ErrUnknownAdv, id)
	}
	delete(c.advs, id)
	c.issueLocked(message.Unadvertise{ID: id, Client: c.id})
	return nil
}

// Publish issues a publication. While moving, the publication is queued
// and issued at the new broker, preserving the isolation property that a
// client's output is independent of its movements.
func (c *Client) Publish(e predicate.Event) (message.PubID, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.operationalLocked(); err != nil {
		return "", err
	}
	id := message.PubID(c.gen.Next("p"))
	c.issueLocked(message.Publish{ID: id, Client: c.id, Event: e.Clone()})
	return id, nil
}

// operationalLocked reports whether application commands may be accepted
// (immediately or queued).
func (c *Client) operationalLocked() error {
	if c.closed {
		return ErrClosed
	}
	switch c.state {
	case StateStarted, StatePauseOper, StatePauseMove, StatePrepareStop:
		return nil
	default:
		return fmt.Errorf("%w (state %s)", ErrNotStarted, c.state)
	}
}

// issueLocked sends a command to the current broker, or queues it while the
// client is not in the started state.
func (c *Client) issueLocked(m message.Message) {
	if c.state != StateStarted {
		c.pending = append(c.pending, m)
		return
	}
	c.sendLocked(m)
}

func (c *Client) sendLocked(m message.Message) {
	if c.send != nil {
		c.send(c.node, m)
	}
}

// Move relocates the client to the target broker with transactional
// guarantees. It blocks until the movement transaction commits or aborts.
func (c *Client) Move(ctx context.Context, target message.BrokerID) error {
	c.mu.Lock()
	mover := c.mover
	cur := c.broker
	c.mu.Unlock()
	if target == cur {
		return ErrSameBroker
	}
	if mover == nil {
		return ErrNoContainer
	}
	done, err := mover.RequestMove(c, target)
	if err != nil {
		return err
	}
	select {
	case err := <-done:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Subs returns a snapshot of the installed subscriptions.
func (c *Client) Subs() map[message.SubID]*predicate.Filter {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[message.SubID]*predicate.Filter, len(c.subs))
	for id, f := range c.subs {
		out[id] = f
	}
	return out
}

// Advs returns a snapshot of the installed advertisements.
func (c *Client) Advs() map[message.AdvID]*predicate.Filter {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[message.AdvID]*predicate.Filter, len(c.advs))
	for id, f := range c.advs {
		out[id] = f
	}
	return out
}
