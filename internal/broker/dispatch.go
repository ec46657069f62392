package broker

import (
	"runtime"
	"sync"
	"time"

	"padres/internal/journal"
	"padres/internal/message"
)

// The dispatch core: three functions every driver calls in the same order —
// next (pop), cost (simulated service delay), dispatch (journal, process,
// account). The movement protocol's correctness arguments (Sec. 4.4 keeps
// rc(adv) and rc(adv') consistent only under hop-by-hop ordering) rest on
// each broker handling its inbox in FIFO order per link; dispatch returns
// only after every forward and local delivery of its envelopes has been
// performed on the calling goroutine, so inbox order is egress order.

// next pops the work of one dispatch: the inbox head, or — at Workers > 1 —
// the run of up to Workers consecutive publications starting there. The
// items are copied into the broker's scratch batch, not aliased: a ring
// slot is overwritten by a later enqueue once it has been popped. Caller
// holds b.mu and has checked the inbox is non-empty.
func (b *Broker) next() []inboxItem {
	n := 1
	if w := b.cfg.Workers; w > 1 && b.inbox.At(0).env.Msg.Kind() == message.KindPublish {
		for n < w && n < b.inbox.Len() && b.inbox.At(n).env.Msg.Kind() == message.KindPublish {
			n++
		}
	}
	batch := b.batch[:n]
	for i := range batch {
		batch[i] = b.inbox.Pop()
	}
	b.tel.QueueDepth.Set(int64(b.inbox.Len()))
	if n == 1 {
		b.spaceCond.Signal()
	} else {
		b.spaceCond.Broadcast()
	}
	return batch
}

// cost is the simulated processing delay the driver pays before dispatching
// batch. Control messages cost a quarter of Config.ServiceTime; a run of
// publications costs one ServiceTime, because their matching overlaps.
func (b *Broker) cost(batch []inboxItem) time.Duration {
	c := b.cfg.ServiceTime
	if c > 0 && batch[0].env.Msg.Kind().IsControl() {
		c /= 4
	}
	return c
}

// dispatch journals, processes and accounts the envelopes next popped, in
// inbox order. A run of publications is matched concurrently first; its
// forwards and deliveries still happen here, one publication after another,
// so a wider broker emits exactly the serial broker's egress order.
func (b *Broker) dispatch(batch []inboxItem) {
	var plans [][]pubAction
	var runStart time.Time // when a run left the inbox for planAll
	if len(batch) > 1 {
		runStart = b.clk.Now()
		plans = b.planAll(batch)
	}
	for i := range batch {
		it := &batch[i]
		env := it.env
		if j := b.journal(); j != nil {
			j.Add(journal.Record{
				Site: string(b.cfg.ID), Cat: journal.CatBroker, Kind: journal.KindDispatch,
				Lamport: b.clock(j).Tick(), Tx: string(env.Msg.Tag()),
				Ref: message.RefOf(env.Msg), From: string(env.From),
				Detail: env.Msg.Kind().String(),
			})
		}
		// On the serial path one clock read closes the inbox wait and opens
		// the dispatch timer, which measures the real dispatch cost, not the
		// simulated service delay the driver already paid. A run's inbox wait
		// closed for all its publications at runStart: their matching is in
		// the match stage timer, and a later one did not wait in the inbox
		// while the earlier ones were forwarded.
		t0 := b.clk.Now()
		if !it.at.IsZero() {
			popped := t0
			if plans != nil {
				popped = runStart
			}
			b.tel.InboxWait.Observe(popped.Sub(it.at))
		}
		if plans != nil {
			b.forwardPublish(env.Msg, plans[i])
		} else {
			b.process(env, t0)
		}
		b.tel.DispatchLatency.Observe(b.clk.Since(t0))
		b.tel.Processed.Inc()
		b.tel.SRTSize.Set(int64(b.srt.Len()))
		b.tel.PRTSize.Set(int64(b.prt.Len()))
		b.cfg.Net.Done(env.Msg)
	}
	// The scratch batch outlives the dispatch; do not let it pin the
	// messages it carried.
	clear(batch)
}

// planAll matches a run of publications concurrently — the one parallel
// stage. planPublish only reads the tables' immutable match snapshots, and
// nothing mutates the tables until dispatch moves on to a later message.
func (b *Broker) planAll(batch []inboxItem) [][]pubAction {
	plans := make([][]pubAction, len(batch))
	// No more goroutines than can run at once — beyond that a spawn costs
	// more than the match it carries — each taking every g-th publication.
	g := min(len(batch), runtime.GOMAXPROCS(0))
	stride := func(k int) {
		for i := k; i < len(batch); i += g {
			plans[i] = b.planPublish(batch[i].env.Msg.(message.Publish), batch[i].env.From, nil, b.clk.Now())
		}
	}
	var wg sync.WaitGroup
	for k := 1; k < g; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			stride(k)
		}()
	}
	stride(0)
	wg.Wait()
	return plans
}
