package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// loads drives one phase's traffic against a rig: at most one publication
// generator goroutine (closed- or open-loop), one goroutine per mover and
// one per churn client. Counters are cumulative over the phase; the runner
// reads them at window boundaries.
type loads struct {
	rig rig
	led *ledger
	tr  *tracer

	stop atomic.Bool
	wg   sync.WaitGroup

	// nextSeq is the next publication sequence number; it carries across
	// phases so every publication of a run has its own number.
	nextSeq uint64

	pubs       atomic.Int64 // publications issued
	moves      atomic.Int64 // moves committed
	routingOps atomic.Int64 // routing operations issued
	failedOps  atomic.Int64 // publish, move or routing calls that returned an error

	moveLat  atomic.Pointer[sampler] // Client.Move call→return, ns
	lateness atomic.Pointer[sampler] // paced generator: issue time − due time, ns
	// publishNs and publishCalls accumulate the time spent inside
	// rig.publish, for the per-layer publish-call cost.
	publishNs    atomic.Int64
	publishCalls atomic.Int64

	// Closed-loop state: expected notifications of the publications issued
	// so far, and the generator's parking flag.
	issuedNotifs atomic.Int64
	waiting      atomic.Bool
	wake         chan struct{}
}

func newLoads(r rig, led *ledger, tr *tracer, firstSeq uint64) *loads {
	// wake has capacity 1: any number of receivers may signal, one token is
	// enough to unpark the single generator.
	return &loads{rig: r, led: led, tr: tr, nextSeq: firstSeq, wake: make(chan struct{}, 1)}
}

func (l *loads) fail(format string, args ...any) {
	l.failedOps.Add(1)
	l.led.problem(format, args...)
}

// issue publishes the next publication, due at dueNs.
func (l *loads) issue(dueNs int64) {
	seq := l.nextSeq
	l.nextSeq++
	spec, ev := l.led.issue(seq, dueNs)
	l.issuedNotifs.Add(int64(popcount(l.led.expected(seq))))
	t0 := l.led.now()
	err := l.rig.publish(spec, ev)
	t1 := l.led.now()
	l.publishNs.Add(t1 - t0)
	l.publishCalls.Add(1)
	l.pubs.Add(1)
	if err != nil {
		l.fail("publish %d: %v", seq, err)
	}
	if l.tr != nil && seq%traceEvery == 0 {
		l.tr.add(span{Name: "publish", Op: seq, Start: t0, End: t1})
	}
}

// stallTimeout is how long the closed-loop generator waits for room in its
// window before declaring the rig stuck: notifications it is owed have been
// lost.
const stallTimeout = 10 * time.Second

// startSaturation runs the closed-loop generator: it keeps up to window
// expected notifications outstanding and issues the next publication as soon
// as deliveries make room. Parking uses a half-window hysteresis so the
// generator is woken once per burst, not once per notification.
func (l *loads) startSaturation(window int64) {
	base := l.led.delivered.Load()
	l.issuedNotifs.Store(0)
	outstanding := func() int64 { return l.issuedNotifs.Load() - (l.led.delivered.Load() - base) }
	onDeliver := func() {
		if l.waiting.Load() && outstanding() <= window/2 {
			select {
			case l.wake <- struct{}{}:
			default:
			}
		}
	}
	l.led.notify.Store(&onDeliver)
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		defer l.led.notify.Store(nil)
		timer := time.NewTimer(stallTimeout)
		defer timer.Stop()
		for !l.stop.Load() {
			if outstanding() >= window {
				l.waiting.Store(true)
				if outstanding() > window/2 && !l.stop.Load() {
					timer.Reset(stallTimeout)
					select {
					case <-l.wake:
					case <-timer.C:
						l.fail("saturation generator stalled: %d notifications outstanding for %s", outstanding(), stallTimeout)
						l.waiting.Store(false)
						return
					}
				}
				l.waiting.Store(false)
				continue
			}
			l.issue(l.led.now())
		}
	}()
}

// startPaced runs the open-loop generator: publication i is due at
// start + i/rate whatever the rig is doing, each is stamped with its due
// time (so a notification's latency includes any wait the generator or a
// stalled rig imposed), and the generator's own lateness is sampled.
//
// How it sleeps depends on what else the phase runs. Alone, the rig is idle
// between publications, and an idle Go process services its timers from
// epoll_wait at millisecond granularity: the generator takes a thread of its
// own and sleeps in nanosleep(2). Beside closed-loop movers or churn clients
// the core is never idle, and a goroutine coming back from a syscall without
// a P waits in the global run queue behind every runnable goroutine — 100 ms
// at a time on one core; there the runtime's timers, checked at every
// scheduling decision, are the precise ones.
func (l *loads) startPaced(rate float64, busy bool) {
	interval := float64(time.Second) / rate
	sleep := time.Sleep
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		if !busy {
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			tightenTimerSlack() // per thread
			sleep = sleepPrecisely
		}
		start := l.led.now()
		for i := 0; !l.stop.Load(); i++ {
			due := start + int64(float64(i)*interval)
			now := l.led.now()
			if d := due - now; d > int64(20*time.Microsecond) {
				sleep(time.Duration(d))
				now = l.led.now()
			}
			if s := l.lateness.Load(); s != nil {
				s.add(max(now-due, 0))
			}
			l.issue(due)
		}
	}()
}

// startMovers runs one closed-loop goroutine per mover: each starts its next
// move the moment the previous one commits (zero dwell).
func (l *loads) startMovers() {
	for m := 0; m < l.rig.movers(); m++ {
		l.wg.Add(1)
		go func(m int) {
			defer l.wg.Done()
			for n := uint64(0); !l.stop.Load(); n++ {
				t0 := l.led.now()
				d, err := l.rig.move(m)
				if err != nil {
					l.fail("move of mover %d: %v", m, err)
					continue
				}
				l.moves.Add(1)
				if s := l.moveLat.Load(); s != nil {
					s.add(int64(d))
				}
				if l.tr != nil {
					l.tr.add(span{Name: "move", Op: uint64(m)<<32 | n, Start: t0, End: t0 + int64(d)})
				}
			}
		}(m)
	}
}

// maxInflight bounds the messages a churn client lets pile up before it
// waits: routing operations are fire-and-forget calls, so without a bound
// the closed loop would measure enqueue speed, not propagation.
const maxInflight = 256

// startChurners runs one goroutine per churn client issuing routing
// operations back to back, pausing while more than maxInflight messages are
// in flight.
func (l *loads) startChurners() {
	for c := 0; c < l.rig.churners(); c++ {
		l.wg.Add(1)
		go func(c int) {
			defer l.wg.Done()
			for n := uint64(0); !l.stop.Load(); n++ {
				if n%8 == 0 {
					for l.rig.inflight() > maxInflight && !l.stop.Load() {
						time.Sleep(20 * time.Microsecond)
					}
				}
				var t0 int64
				traced := l.tr != nil && n%traceEvery == 0
				if traced {
					t0 = l.led.now()
				}
				if err := l.rig.routingOp(c); err != nil {
					l.fail("%v", err)
					continue
				}
				l.routingOps.Add(1)
				if traced {
					l.tr.add(span{Name: "routing_op", Op: uint64(c)<<32 | n, Start: t0, End: l.led.now()})
				}
			}
		}(c)
	}
}

// halt stops every load goroutine and waits for them.
func (l *loads) halt() {
	l.stop.Store(true)
	select {
	case l.wake <- struct{}{}:
	default:
	}
	l.wg.Wait()
}
