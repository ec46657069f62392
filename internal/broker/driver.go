package broker

import "padres/internal/message"

// The two drivers of the dispatch core. Both run next → cost → dispatch per
// step; they differ only in how they wait. The goroutine driver blocks — on
// the inbox condition variable, in clk.Sleep, and (producers) on a full
// bounded inbox. The event driver never blocks the simulator's single loop
// goroutine: it keeps exactly one wake-up armed per broker while there is
// work, spends the service delay as a timer, and therefore leaves the inbox
// unbounded (a producer cannot be parked on the loop).

// startDriver launches the dispatch goroutine; the event driver has none
// and arms itself from wakeLocked.
func (b *Broker) startDriver() {
	if b.sched == nil {
		go b.run()
	}
}

// waitDriver blocks until the dispatch goroutine has exited.
func (b *Broker) waitDriver() {
	if b.sched == nil {
		<-b.done
	}
}

// awaitSpaceLocked parks a producer while the bounded inbox is full. Caller
// holds b.mu.
func (b *Broker) awaitSpaceLocked() {
	if cap := b.cfg.InboxCapacity; b.sched == nil && cap > 0 && b.inbox.Len() >= cap && !b.stopped {
		b.tel.BackpressureWaits.Inc()
		for b.inbox.Len() >= cap && !b.stopped {
			b.spaceCond.Wait()
		}
	}
}

// abandoned reports whether Stop landed while batch was paying its service
// delay. Stop releases the queued inbox unprocessed; what was in service goes
// the same way, under either driver.
func (b *Broker) abandoned(batch []inboxItem) bool {
	b.mu.Lock()
	stopped := b.stopped
	b.mu.Unlock()
	if stopped {
		for _, it := range batch {
			b.cfg.Net.Done(it.env.Msg)
		}
	}
	return stopped
}

// wakeLocked tells the driver the inbox may have become dispatchable (a
// message arrived, or the broker was unpaused). Caller holds b.mu.
func (b *Broker) wakeLocked() {
	if b.sched == nil {
		b.cond.Signal()
		return
	}
	if !b.armed && !b.paused && !b.stopped && b.inbox.Len() > 0 {
		b.armed = true
		b.sched.Post(b.step)
	}
}

// maxHeld bounds the dispatches for which the goroutine driver holds a
// receiver's wake-up back while its inbox never runs empty. A notification
// that found the inbox that long has already queued behind as many messages.
const maxHeld = 16

// run is the goroutine driver.
func (b *Broker) run() {
	defer close(b.done)
	for {
		b.mu.Lock()
		if len(b.wakes) > 0 { // held back by DeferWake until the work runs out
			if b.held++; b.inbox.Len() == 0 || b.paused || b.stopped || b.held > maxHeld {
				b.issueWakesLocked()
			}
		}
		for (b.inbox.Len() == 0 || b.paused) && !b.stopped {
			b.cond.Wait()
		}
		if b.stopped {
			b.mu.Unlock()
			return
		}
		batch := b.next()
		b.mu.Unlock()
		if c := b.cost(batch); c > 0 {
			b.clk.Sleep(c)
			if b.abandoned(batch) {
				return
			}
		}
		b.dispatch(batch)
	}
}

// issueWakesLocked issues the wake-ups DeferWake held back. Caller holds
// b.mu, which is released around them, and must look at the inbox again.
func (b *Broker) issueWakesLocked() {
	wakes := b.wakes
	b.wakes, b.held = b.spare[:0], 0
	b.mu.Unlock()
	for i, wake := range wakes {
		wake()
		wakes[i] = nil
	}
	b.mu.Lock()
	b.spare = wakes
}

// DeferWake issues the wake-up of a local client's blocked receiver, which
// the client would otherwise issue from inside its delivery callback — at
// once, unless the dispatch goroutine has something other than a publication
// to handle next: then when its inbox has run empty, or maxHeld dispatches
// on. The Go scheduler keeps only the latest wake-up in the slot that runs
// next and moves the one it held to the back of the run queue; a receiver
// woken ahead of a routing or control message was therefore displaced by
// that message's forward, and on a busy processor waited there while the
// movement protocol's messages, each waking the goroutine that carries it
// on, handed the slot from one to the next — for a whole publication
// interval on move_storm. A receiver only takes its notifications and blocks
// again, so waking it last delays nobody. Ahead of a publication, or of
// nothing, the wake-up is not displaced and is issued as it always was: a
// run of publications lets its receivers batch. Nothing is held back under
// the event driver (there is no goroutine to wake), with a simulated service
// delay (every dispatch is a wait), or on a paused or stopped broker. wake
// runs on the dispatch goroutine or the caller's, and must not block.
func (b *Broker) DeferWake(wake func()) {
	b.mu.Lock()
	if b.inbox.Len() > 0 && b.sched == nil && b.cfg.ServiceTime == 0 && !b.paused && !b.stopped {
		if _, pub := b.inbox.At(0).env.Msg.(message.Publish); !pub {
			b.wakes = append(b.wakes, wake)
			b.mu.Unlock()
			return
		}
	}
	b.mu.Unlock()
	wake()
}

// step is the event driver: the broker's one armed wake-up. It pops, spends
// the service delay as a loop timer, dispatches, and re-arms while work
// remains.
func (b *Broker) step() {
	b.mu.Lock()
	if b.stopped || b.paused || b.inbox.Len() == 0 {
		b.armed = false
		b.mu.Unlock()
		return
	}
	batch := b.next()
	b.mu.Unlock()
	finish := func() {
		b.dispatch(batch)
		b.mu.Lock()
		b.armed = false
		b.wakeLocked()
		b.mu.Unlock()
	}
	if c := b.cost(batch); c > 0 {
		b.sched.AfterFunc(c, func() {
			if !b.abandoned(batch) {
				finish()
			}
		})
		return
	}
	finish()
}
