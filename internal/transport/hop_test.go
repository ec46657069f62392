package transport

import (
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"padres/internal/message"
	"padres/internal/metrics"
	"padres/internal/sim"
)

// countingClock counts the time reads made through it.
type countingClock struct {
	sim.Clock
	reads atomic.Int64
}

func (c *countingClock) Now() time.Time {
	c.reads.Add(1)
	return c.Clock.Now()
}

func (c *countingClock) Since(t time.Time) time.Duration {
	c.reads.Add(1)
	return c.Clock.Since(t)
}

func (c *countingClock) Until(t time.Time) time.Duration {
	c.reads.Add(1)
	return c.Clock.Until(t)
}

// countingScheduler is a countingClock over a virtual clock that keeps the
// event loop visible, so the network under it runs in scheduled mode.
type countingScheduler struct {
	*countingClock
	loop *sim.VirtualClock
}

func (c countingScheduler) Post(fn func()) { c.loop.Post(fn) }

// arrival is one delivered publication and the virtual time it arrived at.
type arrival struct {
	id string
	at time.Time
}

// virtualPair is an a→b link on a virtual clock, read through a counting
// clock. Nothing is delivered until the test runs the loop.
type virtualPair struct {
	net   *Network
	loop  *sim.VirtualClock
	clock *countingClock
	link  *link
	got   []arrival
}

func newVirtualPair(t *testing.T, opts LinkOptions) *virtualPair {
	t.Helper()
	p := &virtualPair{loop: sim.NewVirtualClock(time.Unix(1000, 0))}
	p.clock = &countingClock{Clock: p.loop}
	p.net = NewNetworkClocked(metrics.NewRegistry(), countingScheduler{p.clock, p.loop})
	p.net.Register("a", func(message.Envelope) {})
	p.net.Register("b", func(env message.Envelope) {
		p.got = append(p.got, arrival{string(env.Msg.(message.Publish).ID), p.loop.Now()})
		p.net.Done(env.Msg)
	})
	if err := p.net.AddLink("a", "b", opts); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.net.Close)
	p.link = p.net.links[linkID{"a", "b"}]
	return p
}

func (p *virtualPair) send(t *testing.T, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		if err := p.net.Send("a", "b", message.Publish{ID: message.PubID(strconv.Itoa(i))}); err != nil {
			t.Fatal(err)
		}
	}
}

// stamps returns the delivery time of every queued frame, oldest first.
func (p *virtualPair) stamps() []time.Time {
	p.link.mu.Lock()
	defer p.link.mu.Unlock()
	out := make([]time.Time, p.link.queue.Len())
	for i := range out {
		out[i] = p.link.queue.At(i).deliverAt
	}
	return out
}

// checkArrivals requires the publications want[0], want[1], … in that
// order, none before the delivery time stamped on its frame.
func (p *virtualPair) checkArrivals(t *testing.T, want []int, stamps []time.Time) {
	t.Helper()
	if len(p.got) != len(want) {
		t.Fatalf("delivered %d frames, want %d", len(p.got), len(want))
	}
	for i, a := range p.got {
		if a.id != strconv.Itoa(want[i]) {
			t.Fatalf("arrival %d is publication %s, want %d", i, a.id, want[i])
		}
		if stamps != nil && a.at.Before(stamps[i]) {
			t.Fatalf("arrival %d at %v, before its delivery time %v", i, a.at, stamps[i])
		}
	}
}

func upTo(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// TestZeroDelayLinkReadsNoClock: a frame on a link with no latency and no
// jitter carries no delivery time, so neither queueing nor delivering it
// reads the clock — under the drain goroutine and in scheduled mode.
func TestZeroDelayLinkReadsNoClock(t *testing.T) {
	const n = 100
	t.Run("wall", func(t *testing.T) {
		clock := &countingClock{Clock: sim.Wall}
		net := NewNetworkClocked(metrics.NewRegistry(), clock)
		c := &collector{net: net, done: true}
		net.Register("a", func(message.Envelope) {})
		net.Register("b", c.handler)
		if err := net.AddLink("a", "b", LinkOptions{}); err != nil {
			t.Fatal(err)
		}
		defer net.Close()
		for i := 0; i < n; i++ {
			if err := net.Send("a", "b", message.Publish{ID: message.PubID(strconv.Itoa(i))}); err != nil {
				t.Fatal(err)
			}
		}
		awaitCount(t, c, n)
		for i, env := range c.envelopes() {
			if id := string(env.Msg.(message.Publish).ID); id != strconv.Itoa(i) {
				t.Fatalf("arrival %d is publication %s", i, id)
			}
		}
		if r := clock.reads.Load(); r != 0 {
			t.Errorf("%d clock reads for %d frames on a zero-delay link, want 0", r, n)
		}
	})
	t.Run("virtual", func(t *testing.T) {
		p := newVirtualPair(t, LinkOptions{})
		start := p.loop.Now()
		p.send(t, 0, n)
		for i, at := range p.stamps() {
			if !at.IsZero() {
				t.Fatalf("frame %d carries delivery time %v", i, at)
			}
		}
		p.loop.Run(0)
		p.checkArrivals(t, upTo(n), nil)
		if !p.loop.Now().Equal(start) {
			t.Errorf("virtual time advanced by %v delivering zero-delay frames", p.loop.Now().Sub(start))
		}
		if r := p.clock.reads.Load(); r != 0 {
			t.Errorf("%d clock reads for %d frames on a zero-delay link, want 0", r, n)
		}
	})
}

// TestLatencyLinkKeepsDeliveryTimes: a link with latency and jitter stamps
// every frame, clamps a frame whose draw would overtake its predecessor to
// the predecessor's time, and delivers nothing early.
func TestLatencyLinkKeepsDeliveryTimes(t *testing.T) {
	const n = 50
	const latency, jitter = time.Millisecond, 5 * time.Millisecond
	p := newVirtualPair(t, LinkOptions{Latency: latency, Jitter: jitter, Seed: 3})
	start := p.loop.Now()
	p.send(t, 0, n)
	stamps := p.stamps()
	clamped := 0
	for i, at := range stamps {
		if at.Before(start.Add(latency)) || !at.Before(start.Add(latency+jitter)) {
			t.Fatalf("frame %d due %v after the send, want within [%v, %v)", i, at.Sub(start), latency, latency+jitter)
		}
		if i > 0 && at.Before(stamps[i-1]) {
			t.Fatalf("frame %d due before frame %d", i, i-1)
		}
		if i > 0 && at.Equal(stamps[i-1]) {
			clamped++
		}
	}
	if clamped == 0 {
		t.Fatal("no draw fell behind its predecessor: the FIFO clamp was not exercised")
	}
	if fired := p.loop.RunFor(latency - 1); fired != 0 || len(p.got) != 0 {
		t.Fatalf("%d frames delivered before the link latency had passed", len(p.got))
	}
	p.loop.Run(0)
	p.checkArrivals(t, upTo(n), stamps)
}

// TestZeroDrawAfterDelayedFrame: on a link whose jitter draw is sometimes
// zero, a zero draw behind a delayed frame is still stamped (and clamped),
// so its event cannot fire first and deliver the delayed frame early.
func TestZeroDrawAfterDelayedFrame(t *testing.T) {
	const n = 64
	p := newVirtualPair(t, LinkOptions{Jitter: 2, Seed: 5}) // draws 0 ns or 1 ns
	p.send(t, 0, n)
	stamps := p.stamps()
	delayed, stampedAfter := -1, 0
	for i, at := range stamps {
		switch {
		case delayed < 0 && !at.IsZero():
			delayed = i
		case delayed >= 0 && at.Before(stamps[i-1]):
			t.Fatalf("frame %d due %v, before frame %d due %v", i, at, i-1, stamps[i-1])
		case delayed >= 0:
			stampedAfter++
		}
	}
	if delayed < 0 || stampedAfter == 0 {
		t.Fatalf("draws too tame: first delayed frame %d, %d frames after it", delayed, stampedAfter)
	}
	p.loop.Run(0)
	p.checkArrivals(t, upTo(n), stamps)
}

// TestReorderAcrossRingWrap: the reorder fault swaps the last two frames
// while they sit in the ring's last and first slots.
func TestReorderAcrossRingWrap(t *testing.T) {
	p := newVirtualPair(t, LinkOptions{})
	p.send(t, 0, 1)
	c := p.link.queue.Cap()
	// Fill all but one slot and deliver all but the last frame: the queue's
	// head is now at slot c-2, so the next two frames land in c-1 and 0.
	p.send(t, 1, c-1)
	if fired := p.loop.Run(c - 2); fired != c-2 {
		t.Fatalf("delivered %d frames, want %d", fired, c-2)
	}
	p.send(t, c-1, c)
	if err := p.net.SetFaults("a", "b", FaultProfile{Reorder: 1}); err != nil {
		t.Fatal(err)
	}
	p.send(t, c, c+1)
	if err := p.net.SetFaults("a", "b", FaultProfile{}); err != nil {
		t.Fatal(err)
	}
	if got := p.link.queue.Cap(); got != c {
		t.Fatalf("ring resized to %d: the pair did not straddle the wrap", got)
	}
	if got := p.net.Telemetry().InjectedReorders.Value(); got != 1 {
		t.Fatalf("%d reorders injected, want 1", got)
	}
	p.loop.Run(0)
	want := upTo(c + 1)
	want[c-1], want[c] = c, c-1
	p.checkArrivals(t, want, nil)
}
