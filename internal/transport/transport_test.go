package transport

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"padres/internal/journal"
	"padres/internal/message"
	"padres/internal/metrics"
)

// collector is a test handler accumulating envelopes.
type collector struct {
	mu     sync.Mutex
	got    []message.Envelope
	notify chan struct{} // pulsed (cap 1) after each append; see awaitCount
	net    *Network
	done   bool // call Done on receipt
}

func (c *collector) handler(env message.Envelope) {
	c.mu.Lock()
	c.got = append(c.got, env)
	if c.notify == nil {
		c.notify = make(chan struct{}, 1)
	}
	select {
	case c.notify <- struct{}{}:
	default:
	}
	c.mu.Unlock()
	if c.done {
		c.net.Done(env.Msg)
	}
}

// ch returns the notification channel, creating it on first use so the
// zero-value collector literals used throughout the tests keep working.
func (c *collector) ch() chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.notify == nil {
		c.notify = make(chan struct{}, 1)
	}
	return c.notify
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.got)
}

func (c *collector) envelopes() []message.Envelope {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]message.Envelope, len(c.got))
	copy(out, c.got)
	return out
}

func newPair(t *testing.T, opts LinkOptions) (*Network, *collector, *metrics.Registry) {
	t.Helper()
	reg := metrics.NewRegistry()
	net := NewNetwork(reg)
	c := &collector{net: net, done: true}
	net.Register("a", func(message.Envelope) {})
	net.Register("b", c.handler)
	if err := net.AddLink("a", "b", opts); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(net.Close)
	return net, c, reg
}

// awaitCount waits, without polling, until the collector has received n
// envelopes. The handler updates the count before pulsing the channel, and
// the buffered pulse survives a race with the re-check, so no wakeup is
// ever missed.
func awaitCount(t *testing.T, c *collector, n int) {
	t.Helper()
	ch := c.ch()
	timer := time.NewTimer(5 * time.Second)
	defer timer.Stop()
	for c.count() < n {
		select {
		case <-ch:
		case <-timer.C:
			t.Fatalf("timed out waiting for %d messages, have %d", n, c.count())
		}
	}
}

func TestSendDeliver(t *testing.T) {
	net, c, reg := newPair(t, LinkOptions{CountTraffic: true})
	if err := net.Send("a", "b", message.Publish{ID: "p1"}); err != nil {
		t.Fatal(err)
	}
	awaitCount(t, c, 1)
	env := c.envelopes()[0]
	if env.From != "a" {
		t.Errorf("From = %s, want a", env.From)
	}
	if env.Msg.Kind() != message.KindPublish {
		t.Errorf("Kind = %v", env.Msg.Kind())
	}
	if reg.TotalMessages() != 1 {
		t.Errorf("traffic = %d, want 1", reg.TotalMessages())
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := reg.AwaitQuiescent(ctx); err != nil {
		t.Fatalf("quiescence: %v", err)
	}
}

func TestSendErrors(t *testing.T) {
	reg := metrics.NewRegistry()
	net := NewNetwork(reg)
	defer net.Close()
	net.Register("a", func(message.Envelope) {})
	net.Register("b", func(message.Envelope) {})

	if err := net.Send("a", "b", message.Publish{ID: "p"}); !errors.Is(err, ErrNoLink) {
		t.Errorf("send without link = %v, want ErrNoLink", err)
	}
	if err := net.AddLink("a", "x", LinkOptions{}); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("link to unknown = %v, want ErrUnknownNode", err)
	}
	if err := net.AddLink("a", "b", LinkOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := net.AddLink("a", "b", LinkOptions{}); !errors.Is(err, ErrDupLink) {
		t.Errorf("duplicate link = %v, want ErrDupLink", err)
	}
	net.Close()
	if err := net.Send("a", "b", message.Publish{ID: "p"}); !errors.Is(err, ErrClosed) {
		t.Errorf("send after close = %v, want ErrClosed", err)
	}
	if err := net.AddLink("a", "b", LinkOptions{}); !errors.Is(err, ErrClosed) {
		t.Errorf("AddLink after close = %v, want ErrClosed", err)
	}
}

func TestFIFOOrder(t *testing.T) {
	// High jitter would reorder messages if FIFO were not enforced.
	net, c, _ := newPair(t, LinkOptions{Latency: time.Millisecond, Jitter: 5 * time.Millisecond, Seed: 3})
	const n = 50
	for i := 0; i < n; i++ {
		if err := net.Send("a", "b", message.Publish{ID: message.PubID(idN(i))}); err != nil {
			t.Fatal(err)
		}
	}
	awaitCount(t, c, n)
	for i, env := range c.envelopes() {
		pub, ok := env.Msg.(message.Publish)
		if !ok {
			t.Fatalf("message %d wrong type %T", i, env.Msg)
		}
		if string(pub.ID) != idN(i) {
			t.Fatalf("message %d out of order: got %s", i, pub.ID)
		}
	}
}

func idN(i int) string {
	return string(rune('A'+i/26)) + string(rune('a'+i%26))
}

func TestLatencyApplied(t *testing.T) {
	const latency = 30 * time.Millisecond
	net, c, _ := newPair(t, LinkOptions{Latency: latency})
	start := time.Now()
	if err := net.Send("a", "b", message.Publish{ID: "p"}); err != nil {
		t.Fatal(err)
	}
	awaitCount(t, c, 1)
	if elapsed := time.Since(start); elapsed < latency {
		t.Errorf("delivered after %v, want >= %v", elapsed, latency)
	}
}

func TestBidirectional(t *testing.T) {
	reg := metrics.NewRegistry()
	net := NewNetwork(reg)
	defer net.Close()
	ca := &collector{net: net, done: true}
	cb := &collector{net: net, done: true}
	net.Register("a", ca.handler)
	net.Register("b", cb.handler)
	if err := net.AddLink("a", "b", LinkOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := net.Send("a", "b", message.Publish{ID: "p1"}); err != nil {
		t.Fatal(err)
	}
	if err := net.Send("b", "a", message.Publish{ID: "p2"}); err != nil {
		t.Fatal(err)
	}
	awaitCount(t, ca, 1)
	awaitCount(t, cb, 1)
}

func TestUnregisteredDeliveryDropped(t *testing.T) {
	net, _, reg := newPair(t, LinkOptions{})
	net.Unregister("b")
	if err := net.Send("a", "b", message.Publish{ID: "p"}); err != nil {
		t.Fatal(err)
	}
	// The drop must release in-flight accounting.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := reg.AwaitQuiescent(ctx); err != nil {
		t.Fatalf("quiescence after drop: %v", err)
	}
}

func TestRemoveLink(t *testing.T) {
	net, _, _ := newPair(t, LinkOptions{})
	net.RemoveLink("a", "b")
	if net.HasLink("a", "b") || net.HasLink("b", "a") {
		t.Error("links still present after RemoveLink")
	}
	if err := net.Send("a", "b", message.Publish{ID: "p"}); !errors.Is(err, ErrNoLink) {
		t.Errorf("send after remove = %v, want ErrNoLink", err)
	}
}

func TestCloseReleasesQueued(t *testing.T) {
	reg := metrics.NewRegistry()
	net := NewNetwork(reg)
	net.Register("a", func(message.Envelope) {})
	net.Register("b", func(message.Envelope) {})
	if err := net.AddLink("a", "b", LinkOptions{Latency: time.Second}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := net.Send("a", "b", message.Publish{ID: "p"}); err != nil {
			t.Fatal(err)
		}
	}
	net.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := reg.AwaitQuiescent(ctx); err != nil {
		t.Fatalf("quiescence after close: %v (inflight=%d)", err, reg.Inflight())
	}
}

func TestClientLinkNotCounted(t *testing.T) {
	net, c, reg := newPair(t, LinkOptions{CountTraffic: false})
	if err := net.Send("a", "b", message.Publish{ID: "p"}); err != nil {
		t.Fatal(err)
	}
	awaitCount(t, c, 1)
	if reg.TotalMessages() != 0 {
		t.Errorf("client link counted in traffic: %d", reg.TotalMessages())
	}
}

func TestConcurrentSends(t *testing.T) {
	net, c, _ := newPair(t, LinkOptions{Latency: time.Millisecond})
	const workers, per = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := net.Send("a", "b", message.Publish{ID: "p"}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	awaitCount(t, c, workers*per)
}

func TestProfiles(t *testing.T) {
	cl := DefaultCluster()
	if cl.Name() != "cluster" {
		t.Errorf("cluster name = %q", cl.Name())
	}
	lo := cl.LinkFor("b1", "b2")
	if !lo.CountTraffic || lo.Latency != time.Millisecond {
		t.Errorf("cluster link = %+v", lo)
	}
	if cl.ClientLink("b1", "c1").CountTraffic {
		t.Error("client link should not be counted")
	}

	pl := DefaultPlanetLab(42)
	if pl.Name() != "planetlab" {
		t.Errorf("planetlab name = %q", pl.Name())
	}
	l1 := pl.LinkFor("b1", "b2")
	l2 := pl.LinkFor("b1", "b2")
	if l1.Latency != l2.Latency {
		t.Error("planetlab link latency not deterministic per edge")
	}
	if l1.Latency < pl.MinLatency || l1.Latency > pl.MaxLatency {
		t.Errorf("latency %v outside [%v, %v]", l1.Latency, pl.MinLatency, pl.MaxLatency)
	}
	l3 := pl.LinkFor("b3", "b9")
	l4 := pl.LinkFor("b4", "b8")
	if l1.Latency == l3.Latency && l3.Latency == l4.Latency {
		t.Error("planetlab latencies suspiciously uniform across edges")
	}
}

// TestLamportChain forwards one publication across three sites and checks
// the journal's link records carry strictly increasing Lamport stamps hop
// by hop: every receive merges past its matching send, and every forward
// ticks past the receive that triggered it.
func TestLamportChain(t *testing.T) {
	reg := metrics.NewRegistry()
	net := NewNetwork(reg)
	defer net.Close()
	j := journal.New(0)
	net.SetJournal(j)

	arrived := make(chan message.Envelope, 1)
	net.Register("a", func(message.Envelope) {})
	net.Register("b", func(env message.Envelope) {
		net.Done(env.Msg)
		if err := net.Send("b", "c", env.Msg); err != nil {
			t.Error(err)
		}
	})
	net.Register("c", func(env message.Envelope) {
		net.Done(env.Msg)
		arrived <- env
	})
	for _, lk := range [][2]message.NodeID{{"a", "b"}, {"b", "c"}} {
		if err := net.AddLink(lk[0], lk[1], LinkOptions{}); err != nil {
			t.Fatal(err)
		}
	}

	if err := net.Send("a", "b", message.Publish{ID: "p1"}); err != nil {
		t.Fatal(err)
	}
	var final message.Envelope
	select {
	case final = <-arrived:
	case <-time.After(5 * time.Second):
		t.Fatal("publication never reached c")
	}

	want := []struct{ kind, site string }{
		{journal.KindLinkSend, "a"},
		{journal.KindLinkRecv, "b"},
		{journal.KindLinkSend, "b"},
		{journal.KindLinkRecv, "c"},
	}
	var links []journal.Record
	for _, r := range j.Snapshot() {
		if r.Cat == journal.CatLink && r.Ref == "p1" {
			links = append(links, r)
		}
	}
	if len(links) != len(want) {
		t.Fatalf("link records = %d, want %d: %v", len(links), len(want), links)
	}
	for i, r := range links {
		if r.Kind != want[i].kind || r.Site != want[i].site {
			t.Errorf("record %d = %s@%s, want %s@%s", i, r.Kind, r.Site, want[i].kind, want[i].site)
		}
		if i > 0 && r.Lamport <= links[i-1].Lamport {
			t.Errorf("hop %d: lamport %d not after %d", i, r.Lamport, links[i-1].Lamport)
		}
	}
	if final.Lamport != links[3].Lamport {
		t.Errorf("handler envelope stamp = %d, want %d", final.Lamport, links[3].Lamport)
	}
}

// TestLamportMergeAdvancesPastRemote pins the merge rule on receive:
// max(local, remote) + 1, whichever side is ahead.
func TestLamportMergeAdvancesPastRemote(t *testing.T) {
	deliverOnce := func(t *testing.T, prep func(j *journal.Journal)) message.Envelope {
		t.Helper()
		reg := metrics.NewRegistry()
		net := NewNetwork(reg)
		defer net.Close()
		j := journal.New(0)
		net.SetJournal(j)
		arrived := make(chan message.Envelope, 1)
		net.Register("a", func(message.Envelope) {})
		net.Register("b", func(env message.Envelope) {
			net.Done(env.Msg)
			arrived <- env
		})
		if err := net.AddLink("a", "b", LinkOptions{}); err != nil {
			t.Fatal(err)
		}
		prep(j)
		if err := net.Send("a", "b", message.Publish{ID: "p1"}); err != nil {
			t.Fatal(err)
		}
		select {
		case env := <-arrived:
			return env
		case <-time.After(5 * time.Second):
			t.Fatal("message never delivered")
			return message.Envelope{}
		}
	}

	t.Run("receiver ahead", func(t *testing.T) {
		env := deliverOnce(t, func(j *journal.Journal) {
			for i := 0; i < 5; i++ {
				j.ClockOf("b").Tick()
			}
		})
		// Send stamps 1; the receiver at 5 merges to max(5,1)+1 = 6.
		if env.Lamport != 6 {
			t.Errorf("merged stamp = %d, want 6", env.Lamport)
		}
	})
	t.Run("sender ahead", func(t *testing.T) {
		env := deliverOnce(t, func(j *journal.Journal) {
			for i := 0; i < 50; i++ {
				j.ClockOf("a").Tick()
			}
		})
		// Send stamps 51; the receiver at 0 merges to max(0,51)+1 = 52.
		if env.Lamport != 52 {
			t.Errorf("merged stamp = %d, want 52", env.Lamport)
		}
	})
}

// TestConcurrentSendJitterRace is the -race regression test for the
// per-link jitter source: concurrent senders draw from the same link RNG,
// which must be safe regardless of which locks the senders hold.
func TestConcurrentSendJitterRace(t *testing.T) {
	net, c, _ := newPair(t, LinkOptions{Jitter: 50_000, Seed: 7, CountTraffic: true})
	const senders = 8
	const perSender = 100
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				if err := net.Send("a", "b", message.Publish{
					ID: message.PubID(fmt.Sprintf("p%d-%d", g, i)),
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	awaitCount(t, c, senders*perSender)
}
