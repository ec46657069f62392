package broker

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

// run is the goroutine driver.
func (b *Broker) run() {
	defer close(b.done)
	for {
		b.mu.Lock()
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
