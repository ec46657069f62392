package transport

import (
	"sync"
	"time"

	"padres/internal/message"
	"padres/internal/sim"
)

// The link reliability layer: control-plane traffic on a Reliable link is
// stamped with a per-link monotonic sequence number and held in a bounded
// resend queue until the receiver's cumulative ack covers it. A per-link
// timer chain (armRetransmit) retransmits overdue entries with jittered
// exponential backoff; the receive side deduplicates (seq <= cum) and
// resequences out-of-order arrivals so injected duplicates, reorderings,
// and retransmits never double-apply routing or 3PC state. A pending entry
// that exhausts MaxAttempts — or a resend queue that overflows — trips the
// link's circuit breaker: every queued entry is drained to the dead-letter
// counter, further reliable sends fail fast with ErrLinkDown, and the
// breaker transition is surfaced through Network.SetLinkStateHandler.
// Heal closes the breaker again under a new epoch so stale in-flight
// sequence numbers cannot corrupt the restarted stream.
//
// In-flight accounting uses two tokens per reliable message: one for each
// physical wire copy (released on delivery, drop, or dedup) and one
// at-least-once token for the resend-queue entry. The second token keeps
// metrics.AwaitQuiescent honest under loss: the network is not quiescent
// while a frame the receiver has never seen might still be retransmitted.
// It is released the first time the receiver accepts the frame (receive-
// side dedup makes "first" well-defined) — not when the ack arrives — so
// quiescence never waits out an ack coalescing window; a frame that is
// never accepted has its token released when the breaker dead-letters it.
// Acks themselves are pure retransmission pacing, invisible to the
// registry.

// RetransmitOptions tunes a reliable link's ack/retransmit layer.
type RetransmitOptions struct {
	// Base is the first retransmission delay (default 20ms); attempt k
	// waits Base<<k, jittered, up to Cap.
	Base time.Duration
	// Cap bounds the per-attempt backoff (default 400ms).
	Cap time.Duration
	// MaxAttempts is the number of retransmissions of one entry before the
	// circuit breaker opens (default 12).
	MaxAttempts int
	// QueueLimit bounds the resend queue; overflow opens the breaker
	// (default 1024).
	QueueLimit int
}

func (o RetransmitOptions) withDefaults() RetransmitOptions {
	if o.Base <= 0 {
		o.Base = 20 * time.Millisecond
	}
	if o.Cap <= 0 {
		o.Cap = 400 * time.Millisecond
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 12
	}
	if o.QueueLimit <= 0 {
		o.QueueLimit = 1024
	}
	return o
}

// reliableKind reports whether the kind rides the ack/retransmit layer on
// a reliable link. Publications stay best-effort (the client stub's
// duplicate suppression and the movement buffers cover them end to end);
// acks are the layer's own frames.
func reliableKind(k message.Kind) bool {
	return k != message.KindPublish && k != message.KindLinkAck
}

// pendingMsg is one unacknowledged resend-queue entry. nextAt is stamped
// lazily: the send path leaves it zero (sparing a clock read per message)
// and the retransmit timer fills it in the next time it is armed or fires,
// which happens within one Base period of the append. An entry's first
// retransmission may therefore lag its send by up to 2*Base — retransmit
// pacing is best-effort; correctness rides on the ack/dedup protocol.
type pendingMsg struct {
	env      message.Envelope
	attempts int
	nextAt   time.Time
	// sentAt is the first-send time; the ack handler derives the link RTT
	// from it for entries that were never retransmitted.
	sentAt time.Time
}

// relState holds one directed link's reliability state: the sender side
// (sequence counter, resend queue, breaker) and the receiver side
// (cumulative delivery point, out-of-order buffer) of the same direction.
//
// The two sides run on different goroutines — the sending broker's
// dispatch path versus the link's delivery goroutine — and share no hot
// state, so each has its own mutex and the per-message fast paths never
// contend. down and epoch are read under either lock; writers (breaker
// trip, reset, shutdown) hold BOTH, always acquiring mu before rmu.
type relState struct {
	opts RetransmitOptions
	rng  *lockedRand // backoff jitter

	mu      sync.Mutex // sender side
	nextSeq uint64
	pend    []pendingMsg // ascending seq

	rmu    sync.Mutex // receiver side
	cum    uint64     // highest sequence delivered in order
	oo     map[uint64]message.Envelope
	ackDue bool // a coalescing ack timer is armed

	down  bool
	epoch uint64

	// timer (under mu) is the pending retransmit wake-up and timerArmed is
	// true until it fires; senders then skip arming entirely — the firing
	// timer recomputes every deadline, including newly appended entries'.
	// closed ends the chain for good once the link is torn down.
	timer      sim.Timer
	timerArmed bool
	closed     bool

	// ackDelay is the ack coalescing window: in-order deliveries arm one
	// timer and the cumulative ack covers everything that arrived inside
	// it. Kept a small fraction of Base so a delayed ack can never be
	// mistaken for loss by the sender's retransmit timer.
	ackDelay time.Duration
}

func newRelState(opts RetransmitOptions, seed int64) *relState {
	opts = opts.withDefaults()
	delay := opts.Base / 8
	if delay > 500*time.Microsecond {
		delay = 500 * time.Microsecond
	}
	if delay <= 0 {
		delay = 50 * time.Microsecond
	}
	return &relState{
		opts:     opts,
		rng:      newLockedRand(seed),
		ackDelay: delay,
	}
}

// backoff returns the jittered delay before retransmission attempt k
// (k=0 is the initial send): half the exponential step fixed, half random,
// so synchronized links do not retransmit in lockstep.
func (r *relState) backoff(attempt int) time.Duration {
	d := r.opts.Base << uint(attempt)
	if d > r.opts.Cap || d <= 0 {
		d = r.opts.Cap
	}
	return d/2 + time.Duration(r.rng.Int63n(int64(d/2)+1))
}

// shutdown stops the retransmit timer and releases the accounting of
// everything still pending or buffered. Pending entries the receiver
// already accepted carry no token (it was released at first accept), so
// only never-accepted entries and buffered frames release here.
func (r *relState) shutdown(n *Network) {
	r.mu.Lock()
	r.closed = true
	if r.timer != nil {
		r.timer.Stop()
	}
	pend := r.pend
	r.pend = nil
	r.rmu.Lock()
	oo := r.oo
	r.oo = nil
	cum := r.cum
	r.rmu.Unlock()
	r.mu.Unlock()
	for _, p := range undelivered(pend, cum, oo) {
		n.reg.MsgDone(p.env.Msg)
	}
	for _, env := range oo {
		n.reg.MsgDone(env.Msg)
	}
}

// undelivered filters a detached resend queue down to the entries the
// receiver never accepted: those are the ones still holding their
// at-least-once token (and the only ones it is honest to call lost).
// Accepted entries — covered by cum or sitting in the out-of-order buffer
// — released their token at first accept; only the ack trimming them out
// of the queue was still outstanding. Filters in place: the caller owns
// the detached slice.
func undelivered(pend []pendingMsg, cum uint64, oo map[uint64]message.Envelope) []pendingMsg {
	lost := pend[:0]
	for _, p := range pend {
		if p.env.Seq <= cum {
			continue
		}
		if _, buffered := oo[p.env.Seq]; buffered {
			continue
		}
		lost = append(lost, p)
	}
	return lost
}

// tripLocked opens the breaker and detaches the state to be drained.
// Caller holds r.mu (rmu is acquired internally, preserving the mu-first
// lock order) and must pass the result to finishTrip after unlocking. The
// returned queue is pre-filtered to the entries the receiver never
// accepted — the genuinely lost frames whose tokens and dead-letter
// counts finishTrip settles.
func (r *relState) tripLocked() ([]pendingMsg, map[uint64]message.Envelope) {
	pend := r.pend
	r.pend = nil
	r.rmu.Lock()
	r.down = true
	oo := r.oo
	r.oo = nil
	cum := r.cum
	r.rmu.Unlock()
	return undelivered(pend, cum, oo), oo
}

// finishTrip drains a tripped link's queues to the dead-letter counter and
// surfaces the breaker transition. Never called with a transport lock
// held.
func (n *Network) finishTrip(l *link, pend []pendingMsg, oo map[uint64]message.Envelope) {
	for _, p := range pend {
		n.reg.MsgDone(p.env.Msg) // at-least-once token of a never-accepted frame
		n.tel.DeadLetters.Inc()
	}
	for _, env := range oo {
		n.reg.MsgDone(env.Msg) // wire token of a buffered frame
		n.tel.DeadLetters.Inc()
	}
	if l.lm != nil {
		l.lm.DeadLetters.Add(int64(len(pend) + len(oo)))
		l.lm.Up.Set(0)
		l.lm.ResendDepth.Set(0)
	}
	n.tel.LinksDown.Inc()
	n.notifyLinkState(l.from, l.to, false)
}

// resetBreaker closes an open breaker: new epoch, sequence numbers
// restart from zero on both sides of the direction. In-flight frames from
// the old epoch are invalidated by their epoch stamp.
func (n *Network) resetBreaker(l *link) {
	r := l.rel
	if r == nil {
		return
	}
	r.mu.Lock()
	r.rmu.Lock()
	if !r.down {
		r.rmu.Unlock()
		r.mu.Unlock()
		return
	}
	r.down = false
	r.epoch++
	r.nextSeq = 0
	r.cum = 0
	oo := r.oo
	r.oo = nil
	r.rmu.Unlock()
	r.mu.Unlock()
	for _, env := range oo {
		n.reg.MsgDone(env.Msg)
	}
	if l.lm != nil {
		l.lm.Up.Set(1)
	}
	n.tel.LinksDown.Dec()
	n.notifyLinkState(l.from, l.to, true)
	l.armRetransmit()
}

// sendReliable assigns the next sequence number, parks the message in the
// resend queue, and puts the first wire copy on the link.
func (n *Network) sendReliable(l *link, msg message.Message) error {
	r := l.rel
	// Bookkeeping runs before taking r.mu so journaling and traffic
	// counting never serialize against the link's receive side. Two tokens
	// in one registry operation: the wire copy, and the at-least-once
	// token released at the receiver's first accept or at dead-letter —
	// keeps quiescence detection honest under loss.
	env := n.prepareSend(l, l.from, l.to, msg, 2)
	sentAt := n.clk.Now()
	r.mu.Lock()
	if r.down {
		r.mu.Unlock()
		n.reg.MsgDoneBatch([]message.Message{msg, msg})
		n.tel.DeadLetters.Inc()
		l.lm.DeadLetters.Inc()
		return ErrLinkDown
	}
	if len(r.pend) >= r.opts.QueueLimit {
		pend, oo := r.tripLocked()
		r.mu.Unlock()
		n.finishTrip(l, pend, oo)
		n.reg.MsgDoneBatch([]message.Message{msg, msg})
		n.tel.DeadLetters.Inc()
		l.lm.DeadLetters.Inc()
		return ErrLinkDown
	}
	r.nextSeq++
	env.Seq = r.nextSeq
	r.pend = append(r.pend, pendingMsg{env: env, sentAt: sentAt})
	l.lm.ResendDepth.Set(int64(len(r.pend)))
	// Arm the retransmit timer only when none is pending: an armed timer
	// recomputes every deadline (including this entry's) when it fires, and
	// after a full ack the armed timer is at most one backoff period out.
	// Skipping the arm otherwise keeps the loss-free fast path free of
	// per-send timer churn; the worst case is a first retransmit delayed by
	// up to one extra backoff period, which only matters when loss is
	// already present.
	wake := len(r.pend) == 1 && !r.timerArmed
	epoch := r.epoch
	r.mu.Unlock()
	if wake {
		l.armRetransmit()
	}
	l.enqueue(env, true, epoch)
	return nil
}

// deliverReliable runs the receive side of the protocol for one sequenced
// frame: dedup, resequencing, cumulative ack, then in-order handoff.
func (n *Network) deliverReliable(l *link, te timedEnvelope) {
	r := l.rel
	env := te.env
	r.rmu.Lock()
	if r.down || te.epoch != r.epoch {
		// Dead link, or a frame that was in flight across a breaker reset:
		// its sequence numbering no longer matches the stream.
		r.rmu.Unlock()
		n.reg.MsgDone(env.Msg)
		return
	}
	if env.Seq <= r.cum {
		// Duplicate (injected or retransmitted after the ack was lost):
		// drop it and re-ack so the sender stops resending.
		cum := r.cum
		epoch := r.epoch
		r.rmu.Unlock()
		n.tel.DupesDropped.Inc()
		n.reg.MsgDone(env.Msg)
		n.sendAck(l, cum, epoch)
		return
	}
	if env.Seq != r.cum+1 {
		// Out of order: buffer until the gap fills. The wire token stays
		// held by the buffered frame; the at-least-once token is released
		// below — buffering is an accept, and any still-missing earlier
		// frame holds its own token, so quiescence stays guarded.
		if r.oo == nil {
			r.oo = make(map[uint64]message.Envelope)
		}
		if _, dup := r.oo[env.Seq]; dup {
			r.rmu.Unlock()
			n.tel.DupesDropped.Inc()
			n.reg.MsgDone(env.Msg)
			return
		}
		r.oo[env.Seq] = env
		r.rmu.Unlock()
		n.reg.MsgDone(env.Msg) // at-least-once token: first accept
		return
	}
	r.cum++
	// Coalesce the ack: the first in-order arrival of a burst arms a short
	// timer and the single cumulative ack it sends covers every frame that
	// lands inside the window. One ack frame per window instead of one per
	// message keeps the reliability layer's loss-free overhead small.
	armAck := !r.ackDue
	r.ackDue = true
	if len(r.oo) == 0 {
		// Fast path: nothing resequencing, this frame is the whole batch.
		r.rmu.Unlock()
		if armAck {
			n.clk.AfterFunc(r.ackDelay, func() { n.flushAck(l) })
		}
		n.reg.MsgDone(env.Msg) // at-least-once token: first accept
		n.deliverDirect(l.to, env, true)
		return
	}
	ready := []message.Envelope{env}
	for {
		next, ok := r.oo[r.cum+1]
		if !ok {
			break
		}
		delete(r.oo, r.cum+1)
		r.cum++
		ready = append(ready, next)
	}
	r.rmu.Unlock()
	if armAck {
		n.clk.AfterFunc(r.ackDelay, func() { n.flushAck(l) })
	}
	// Only the gap-filling frame still holds its at-least-once token; the
	// drained buffered frames released theirs when they were accepted.
	n.reg.MsgDone(env.Msg)
	for _, e := range ready {
		n.deliverDirect(l.to, e, true)
	}
}

// flushAck fires when a coalescing window closes: it acknowledges the
// current cumulative delivery point. A flush that races a breaker trip or
// shutdown is dropped harmlessly (a stopped reverse link discards the
// frame).
func (n *Network) flushAck(l *link) {
	r := l.rel
	r.rmu.Lock()
	r.ackDue = false
	if r.down {
		r.rmu.Unlock()
		return
	}
	cum, epoch := r.cum, r.epoch
	r.rmu.Unlock()
	n.sendAck(l, cum, epoch)
}

// sendAck delivers a cumulative acknowledgement for traffic on l to the
// sender's resend queue. Acks are uncounted, unjournaled frames — the
// protocol's own plumbing, invisible to the paper's traffic metrics. They
// still respect the reverse link's partition state and drop probability (a
// lost ack just means one more retransmission and dedup round), but a
// surviving ack is applied synchronously instead of crossing the reverse
// link's delivery queue: cumulative acks are idempotent and carry no
// ordering relation to data frames, so the queue hop would cost a goroutine
// wake per ack window without changing any outcome.
func (n *Network) sendAck(l *link, cum uint64, epoch uint64) {
	n.mu.Lock()
	rev := n.links[linkID{l.to, l.from}]
	n.mu.Unlock()
	if rev == nil || !rev.admitAck() {
		return
	}
	n.tel.Acks.Inc()
	n.handleAck(rev, message.LinkAck{Cum: cum, Epoch: epoch})
}

// handleAck trims the forward link's resend queue up to the cumulative
// point. l is the link the ack arrived on (the reverse direction). Acks
// carry no in-flight accounting — the at-least-once token was released at
// the receiver's first accept — so this is a pure pend trim under the
// sender-side mu, safe for the overlapping callers the direct ack path
// produces (an ack-window timer flush racing a duplicate's re-ack).
//
// The retransmit timer is deliberately left alone here: after a trim it
// just fires at the now-acked entry's old deadline, finds nothing due, and
// re-arms only if something is still pending. One spurious firing per
// retransmit period is far cheaper than a timer reset per ack window.
func (n *Network) handleAck(l *link, ack message.LinkAck) {
	n.mu.Lock()
	fwd := n.links[linkID{l.to, l.from}]
	n.mu.Unlock()
	if fwd == nil || fwd.rel == nil {
		return
	}
	r := fwd.rel
	r.mu.Lock()
	if ack.Epoch != r.epoch {
		r.mu.Unlock()
		return
	}
	i := 0
	for i < len(r.pend) && r.pend[i].env.Seq <= ack.Cum {
		i++
	}
	if i > 0 {
		// RTT of the trimmed entries, but only the ones never retransmitted:
		// after a retransmission the ack could answer either copy, so the
		// sample would be ambiguous (Karn's rule).
		now := n.clk.Now()
		for k := 0; k < i; k++ {
			p := &r.pend[k]
			if p.attempts == 0 && !p.sentAt.IsZero() {
				fwd.lm.RTT.Observe(now.Sub(p.sentAt))
			}
		}
	}
	switch {
	case i == 0:
	case i == len(r.pend):
		// The ack covered everything pending — the usual loss-free case.
		// Keep the backing array as is: the acked slots are overwritten by
		// the next window's appends, so no copy or clear is needed.
		r.pend = r.pend[:0]
	default:
		// Partial cover: trim by copying down in place. The backing array
		// is reused, so the resend queue settles at a steady-state
		// capacity instead of reallocating as the slice walks forward
		// through fresh arrays.
		rem := copy(r.pend, r.pend[i:])
		for k := rem; k < len(r.pend); k++ {
			r.pend[k] = pendingMsg{} // release acked message references
		}
		r.pend = r.pend[:rem]
	}
	fwd.lm.ResendDepth.Set(int64(len(r.pend)))
	r.mu.Unlock()
}

// armRetransmit paces retransmission as a self-re-arming timer chain on the
// network clock (time.AfterFunc in production, the event heap in
// simulation): stamp the deadlines the send path left zero, set one timer
// for the earliest, and have it resend what is due and re-arm while entries
// remain. A no-op while a timer is already pending.
func (l *link) armRetransmit() {
	r := l.rel
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed || r.down || len(r.pend) == 0 || r.timerArmed {
		return
	}
	now := l.net.clk.Now()
	var next time.Time
	for i := range r.pend {
		p := &r.pend[i]
		if p.nextAt.IsZero() {
			p.nextAt = now.Add(r.backoff(0))
		}
		if next.IsZero() || p.nextAt.Before(next) {
			next = p.nextAt
		}
	}
	r.timerArmed = true
	r.timer = l.net.clk.AfterFunc(next.Sub(now), func() {
		r.mu.Lock()
		r.timerArmed = false
		r.mu.Unlock()
		l.resendDue()
		l.armRetransmit()
	})
}

// resendDue retransmits every overdue pending entry, advancing its backoff
// — or trips the breaker if one has exhausted its attempts.
func (l *link) resendDue() {
	r := l.rel
	n := l.net
	now := n.clk.Now()
	var copies []message.Envelope
	r.mu.Lock()
	if r.down {
		r.mu.Unlock()
		return
	}
	for i := range r.pend {
		p := &r.pend[i]
		if p.nextAt.IsZero() {
			// Appended since the timer last stamped deadlines: not due yet.
			p.nextAt = now.Add(r.backoff(0))
			continue
		}
		if p.nextAt.After(now) {
			continue
		}
		p.attempts++
		if p.attempts > r.opts.MaxAttempts {
			pend, oo := r.tripLocked()
			r.mu.Unlock()
			n.finishTrip(l, pend, oo)
			return
		}
		p.nextAt = now.Add(r.backoff(p.attempts))
		copies = append(copies, p.env)
	}
	epoch := r.epoch
	r.mu.Unlock()
	for _, env := range copies {
		n.reg.MsgEnqueued(env.Msg) // wire token for the fresh copy
		n.tel.Retransmits.Inc()
		l.lm.Retransmits.Inc()
		l.enqueue(env, true, epoch)
	}
}
