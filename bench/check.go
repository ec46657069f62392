package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"padres/internal/message"
	"padres/internal/predicate"
)

// seqAttr is the event attribute that carries a publication's sequence
// number from the generator to the receivers. No filter constrains it, so
// it takes no part in matching.
const seqAttr = "seq"

const (
	chunkBits = 16
	chunkSize = 1 << chunkBits
	maxChunks = 1 << 12 // 268M publications; far past any run
)

// chunk holds the generator-written due times and the receiver-written
// delivery masks of chunkSize consecutive publications.
type chunk struct {
	due [chunkSize]int64 // ns since ledger.t0
	got [chunkSize]atomic.Uint64
}

// ledger records every publication issued and every notification received,
// and checks the second against the reference: a notification to a holder
// outside the publication's expected mask is mis-routed, a second one to the
// same holder is a duplicate, and an expected holder never reached is
// missing. It also times each notification from its publication's due time.
type ledger struct {
	pop *population
	t0  time.Time
	// drain is how long missing waits for the receivers to catch up.
	drain time.Duration

	chunks [maxChunks]atomic.Pointer[chunk]

	delivered atomic.Int64 // notifications accepted (expected, first copy)
	dups      atomic.Int64
	misrouted atomic.Int64
	unknown   atomic.Int64 // notifications with no or an unissued sequence number

	// rec receives the latency of each accepted notification; nil outside
	// measured windows.
	rec atomic.Pointer[sampler]
	// notify, when set, is called after every accepted notification; the
	// closed-loop generator uses it to learn that its window has room.
	notify atomic.Pointer[func()]
	// spans, when set, receives a notify span for sampled publications.
	spans atomic.Pointer[tracer]

	mu       sync.Mutex
	problems []string
}

func newLedger(pop *population) *ledger {
	return &ledger{pop: pop, t0: time.Now(), drain: drainTimeout}
}

// now returns nanoseconds since the ledger was created.
func (l *ledger) now() int64 { return int64(time.Since(l.t0)) }

// issue registers publication seq as due at dueNs and returns its event:
// the pool event plus the sequence attribute. Only the generator goroutine
// calls it.
func (l *ledger) issue(seq uint64, dueNs int64) (eventSpec, predicate.Event) {
	ci := seq >> chunkBits
	c := l.chunks[ci].Load()
	if c == nil {
		c = new(chunk)
		l.chunks[ci].Store(c)
	}
	c.due[seq&(chunkSize-1)] = dueNs
	spec := l.pop.events[seq%uint64(len(l.pop.events))]
	ev := make(predicate.Event, len(spec.ev)+1)
	for k, v := range spec.ev {
		ev[k] = v
	}
	ev[seqAttr] = predicate.Number(float64(seq))
	return spec, ev
}

// expected returns the holder mask publication seq must reach.
func (l *ledger) expected(seq uint64) uint64 {
	return l.pop.expect[seq%uint64(len(l.pop.events))]
}

// deliver records one notification received by holder.
func (l *ledger) deliver(holder int, pub message.Publish) {
	now := l.now()
	v, ok := pub.Event[seqAttr]
	if !ok || v.K != predicate.KindNumber || v.Num < 0 {
		l.unknown.Add(1)
		l.problem("notification %s to holder %d carries no sequence number", pub.ID, holder)
		return
	}
	seq := uint64(v.Num)
	c := l.chunks[seq>>chunkBits].Load()
	if c == nil {
		l.unknown.Add(1)
		l.problem("notification %s to holder %d has unissued sequence %d", pub.ID, holder, seq)
		return
	}
	bit := uint64(1) << uint(holder)
	if l.expected(seq)&bit == 0 {
		l.misrouted.Add(1)
		l.problem("publication %d mis-routed to holder %d", seq, holder)
		return
	}
	slot := &c.got[seq&(chunkSize-1)]
	for {
		old := slot.Load()
		if old&bit != 0 {
			l.dups.Add(1)
			l.problem("publication %d duplicated at holder %d", seq, holder)
			return
		}
		if slot.CompareAndSwap(old, old|bit) {
			break
		}
	}
	l.delivered.Add(1)
	due := c.due[seq&(chunkSize-1)]
	if s := l.rec.Load(); s != nil {
		s.add(now - due)
	}
	if tr := l.spans.Load(); tr != nil && seq%traceEvery == 0 {
		tr.add(span{Name: "notify", Op: seq, Start: due, End: now, Parent: "publish"})
	}
	if fn := l.notify.Load(); fn != nil {
		(*fn)()
	}
}

// drainTimeout is how long missing waits for notifications that the rig has
// finished routing but a receiver has not yet picked up — they sit in a
// client stub's queue or a socket buffer, where no registry counts them.
const drainTimeout = 5 * time.Second

// missing counts, over publications [from, to), the expected holders that
// were never reached. Call it once the rig is quiescent, with the number of
// notifications accepted before publication from was issued; it first gives
// the receivers l.drain to catch up.
func (l *ledger) missing(from, to uint64, deliveredBefore int64) int64 {
	want := deliveredBefore + l.expectedNotifications(from, to)
	for deadline := time.Now().Add(l.drain); l.delivered.Load() < want && time.Now().Before(deadline); {
		time.Sleep(200 * time.Microsecond)
	}
	var n int64
	for seq := from; seq < to; seq++ {
		c := l.chunks[seq>>chunkBits].Load()
		if c == nil {
			continue
		}
		if miss := l.expected(seq) &^ c.got[seq&(chunkSize-1)].Load(); miss != 0 {
			n += int64(popcount(miss))
			l.problem("publication %d never reached holders %b", seq, miss)
		}
	}
	return n
}

// expectedNotifications sums the reference fan-out of publications
// [from, to).
func (l *ledger) expectedNotifications(from, to uint64) int64 {
	var n int64
	for seq := from; seq < to; seq++ {
		n += int64(popcount(l.expected(seq)))
	}
	return n
}

// maxProblems bounds the retained failure descriptions; the counters keep
// counting past it.
const maxProblems = 20

func (l *ledger) problem(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.problems) < maxProblems {
		l.problems = append(l.problems, fmt.Sprintf(format, args...))
	}
}

// failures returns the number of failed operations seen so far and their
// first few descriptions.
func (l *ledger) failures() (int64, []string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dups.Load() + l.misrouted.Load() + l.unknown.Load(), append([]string(nil), l.problems...)
}

// sampler collects latency samples from many goroutines into a preallocated
// slice; samples past its capacity are counted and dropped.
type sampler struct {
	n       atomic.Int64
	samples []int64
}

func newSampler(capacity int) *sampler { return &sampler{samples: make([]int64, capacity)} }

func (s *sampler) add(v int64) {
	if i := s.n.Add(1) - 1; int(i) < len(s.samples) {
		s.samples[i] = v
	}
}

// values returns the recorded samples and how many overflowed. Call it only
// after the sampler has been unpublished and its writers have drained.
func (s *sampler) values() ([]int64, int64) {
	n := s.n.Load()
	if int(n) > len(s.samples) {
		return s.samples, n - int64(len(s.samples))
	}
	return s.samples[:n], 0
}

// checkMovers reports every mover that is not hosted by exactly one broker.
func checkMovers(hostedAt map[string][]message.BrokerID) []string {
	var out []string
	for id, at := range hostedAt {
		if len(at) != 1 {
			out = append(out, fmt.Sprintf("mover %s is hosted by %d brokers %v, want exactly 1", id, len(at), at))
		}
	}
	return out
}
