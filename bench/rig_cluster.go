package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

	"padres/internal/broker"
	"padres/internal/client"
	"padres/internal/cluster"
	"padres/internal/journal"
	"padres/internal/message"
	"padres/internal/metrics"
	"padres/internal/predicate"
	"padres/internal/workload"
)

// clusterSpec places a population on the paper's 14-broker overlay
// (Fig. 6). The three overlay workloads differ only in this placement and
// in which load the runner drives hardest.
type clusterSpec struct {
	// publishers advertise workload.Advertisement(class) at their broker;
	// pool event publisher index i publishes through publishers[i]. Entries
	// past the population's publisher count only advertise.
	publishers []publisherSpec
	// holderAt is each subscriber's home broker, by holder index.
	holderAt []message.BrokerID
	movers   []moverSpec
	churners []churnerSpec
	// checkRouting runs Cluster.CheckRoutingConsistency in verify. Its cost
	// grows with advertisements × subscriptions × table size, so the
	// publication workload, with 1 200 routed subscriptions, leaves it to
	// the two workloads whose purpose is to disturb routing state.
	checkRouting bool
	// durable gives every broker a write-ahead log under a fresh data
	// directory, removed on close.
	durable bool
	// journal, if set, turns the flight recorder on.
	journal *journal.Journal
}

type publisherSpec struct {
	id    message.ClientID
	at    message.BrokerID
	class string
}

// moverSpec names a client that oscillates home<->away. holder >= 0 makes
// an existing subscriber the mover; otherwise a dedicated client is created
// with one subscription of class that propagates but never matches.
type moverSpec struct {
	holder int
	id     message.ClientID
	home   message.BrokerID
	away   message.BrokerID
	class  string
}

type churnerSpec struct {
	id    message.ClientID
	at    message.BrokerID
	class string
	live  int
}

type mover struct {
	c    *client.Client
	home message.BrokerID
	away message.BrokerID
}

// move sends the client to whichever of its two endpoints it is not at and
// times the Client.Move call.
func (m mover) move() (time.Duration, error) {
	target := m.away
	if m.c.Broker() == m.away {
		target = m.home
	}
	ctx, cancel := context.WithTimeout(context.Background(), moveTimeout)
	defer cancel()
	t0 := time.Now()
	err := m.c.Move(ctx, target)
	return time.Since(t0), err
}

type clusterRig struct {
	spec     clusterSpec
	cl       *cluster.Cluster
	pubs     []*client.Client
	mv       []mover
	ch       []*churner
	chAt     []message.BrokerID
	dataDir  string
	newS     float64
	populate float64
	stop     context.CancelFunc
	wg       sync.WaitGroup
}

// newClusterRig deploys spec with pop's subscriptions and starts one
// receiver goroutine per subscriber, each blocked in Client.Receive. A
// durable rig creates its data directory under env.baseDir.
func newClusterRig(spec clusterSpec, pop *population, env buildEnv) (_ *clusterRig, err error) {
	led, seed, baseDir := env.led, env.seed, env.baseDir
	r := &clusterRig{spec: spec}
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	opts := cluster.Options{Profile: zeroDelay{}, Journal: spec.journal}
	if spec.durable {
		if err := os.MkdirAll(baseDir, 0o755); err != nil {
			return nil, fmt.Errorf("data directory: %w", err)
		}
		if r.dataDir, err = os.MkdirTemp(baseDir, "wal-"); err != nil {
			return nil, fmt.Errorf("data directory: %w", err)
		}
		opts.DataDir = r.dataDir
	}
	t0 := time.Now()
	if r.cl, err = cluster.New(opts); err != nil {
		return nil, err
	}
	r.cl.Start()
	r.cl.SetEventSink(env.sink)
	r.newS = time.Since(t0).Seconds()

	t1 := time.Now()
	for _, ps := range spec.publishers {
		p, err := r.cl.NewClient(ps.id, ps.at)
		if err != nil {
			return nil, fmt.Errorf("publisher %s: %w", ps.id, err)
		}
		if _, err := p.Advertise(workload.Advertisement(ps.class)); err != nil {
			return nil, fmt.Errorf("advertise %s: %w", ps.id, err)
		}
		r.pubs = append(r.pubs, p)
	}
	if err := r.quiesce(time.Minute); err != nil {
		return nil, fmt.Errorf("after advertisements: %w", err)
	}
	holders := make([]*client.Client, len(spec.holderAt))
	for h, at := range spec.holderAt {
		if holders[h], err = r.cl.NewClient(message.ClientID(fmt.Sprintf("h%d", h)), at); err != nil {
			return nil, fmt.Errorf("subscriber %d: %w", h, err)
		}
	}
	for _, s := range pop.subs {
		if _, err := holders[s.holder].Subscribe(s.filter); err != nil {
			return nil, fmt.Errorf("subscribe holder %d: %w", s.holder, err)
		}
	}
	rnd := rand.New(rand.NewSource(seed ^ 0x5eed))
	for _, ms := range spec.movers {
		c := (*client.Client)(nil)
		if ms.holder >= 0 {
			c = holders[ms.holder]
		} else {
			if c, err = r.cl.NewClient(ms.id, ms.home); err != nil {
				return nil, fmt.Errorf("mover %s: %w", ms.id, err)
			}
			if _, err := c.Subscribe(churnFilter(rnd, ms.class)); err != nil {
				return nil, fmt.Errorf("mover %s: %w", ms.id, err)
			}
		}
		r.mv = append(r.mv, mover{c: c, home: ms.home, away: ms.away})
	}
	for _, cs := range spec.churners {
		c, err := r.cl.NewClient(cs.id, cs.at)
		if err != nil {
			return nil, fmt.Errorf("churner %s: %w", cs.id, err)
		}
		ch := &churner{id: cs.id, class: cs.class, r: rand.New(rand.NewSource(rnd.Int63())),
			sub: c.Subscribe, unsub: c.Unsubscribe}
		if err := ch.fill(cs.live); err != nil {
			return nil, err
		}
		r.ch = append(r.ch, ch)
		r.chAt = append(r.chAt, cs.at)
	}
	if err := r.quiesce(2 * time.Minute); err != nil {
		return nil, fmt.Errorf("after subscriptions: %w", err)
	}
	r.populate = time.Since(t1).Seconds()

	ctx, cancel := context.WithCancel(context.Background())
	r.stop = cancel
	for h, c := range holders {
		r.wg.Add(1)
		go func(h int, c *client.Client) {
			defer r.wg.Done()
			for {
				pub, err := c.Receive(ctx)
				if err != nil {
					return
				}
				led.deliver(h, pub)
				for {
					pub, ok := c.TryReceive()
					if !ok {
						break
					}
					led.deliver(h, pub)
				}
			}
		}(h, c)
	}
	return r, nil
}

func (r *clusterRig) publish(spec eventSpec, ev predicate.Event) error {
	_, err := r.pubs[spec.pub].Publish(ev)
	return err
}

func (r *clusterRig) move(m int) (time.Duration, error) {
	return r.mv[m].move()
}
func (r *clusterRig) movers() int                   { return len(r.mv) }
func (r *clusterRig) routingOp(c int) error         { return r.ch[c].op() }
func (r *clusterRig) churners() int                 { return len(r.ch) }
func (r *clusterRig) inflight() int64               { return r.cl.Registry().Inflight() }
func (r *clusterRig) quiesce(d time.Duration) error { return settle(r.cl.Registry(), d) }
func (r *clusterRig) registries() []*metrics.Registry {
	return []*metrics.Registry{r.cl.Registry()}
}
func (r *clusterRig) setupParts() (float64, float64) { return r.newS, r.populate }

func (r *clusterRig) brokers() []*broker.Broker {
	var out []*broker.Broker
	for _, id := range r.cl.Brokers() {
		out = append(out, r.cl.Broker(id))
	}
	return out
}

func (r *clusterRig) verify() []string {
	var out []string
	if r.spec.checkRouting {
		if err := r.cl.CheckRoutingConsistency(); err != nil {
			out = append(out, "routing consistency: "+err.Error())
		}
	}
	hosted := make(map[string][]message.BrokerID)
	for _, mv := range r.mv {
		id := mv.c.ID()
		hosted[string(id)] = nil
		for _, b := range r.cl.Brokers() {
			if r.cl.Container(b).Hosts(id) {
				hosted[string(id)] = append(hosted[string(id)], b)
			}
		}
	}
	out = append(out, checkMovers(hosted)...)
	// Every churned subscription must be installed at its own edge broker
	// and, having intersected the advertisements, at each publisher's.
	for i, ch := range r.ch {
		at := []message.BrokerID{r.chAt[i]}
		for _, ps := range r.spec.publishers {
			if ps.class == ch.class || ch.class == "" {
				at = append(at, ps.at)
			}
		}
		for _, b := range at {
			if got := prtCountByClient(r.cl.Broker(b), ch.id); got != len(ch.live) {
				out = append(out, fmt.Sprintf("broker %s holds %d subscriptions of %s, reference live set has %d", b, got, ch.id, len(ch.live)))
			}
		}
	}
	return append(out, checkDropped(r.brokers())...)
}

func (r *clusterRig) describe() string {
	fs := ""
	if r.dataDir != "" {
		fs = fmt.Sprintf(", WAL under %s (%s)", r.dataDir, fsType(r.dataDir))
	}
	return fmt.Sprintf("14-broker overlay (Fig. 6), %d advertisers, %d subscribers, %d movers, %d churn clients%s",
		len(r.spec.publishers), len(r.spec.holderAt), len(r.mv), len(r.ch), fs)
}

func (r *clusterRig) close() {
	if r.stop != nil {
		r.stop()
		r.wg.Wait()
	}
	if r.cl != nil {
		r.cl.Stop()
	}
	if r.dataDir != "" {
		_ = os.RemoveAll(r.dataDir) // best effort: the directory is scratch
	}
}

// meanPathBrokers is the mean number of brokers a publication crosses from
// its publisher to one of its subscribers, over the pool events.
func (r *clusterRig) meanPathBrokers(pop *population) float64 {
	var hops, n int
	for i, e := range pop.events {
		for h := 0; h < pop.holders; h++ {
			if pop.expect[i]&(1<<uint(h)) == 0 {
				continue
			}
			path, err := r.cl.Topology().Path(r.spec.publishers[e.pub].at, r.spec.holderAt[h])
			if err != nil {
				continue
			}
			hops += len(path)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(hops) / float64(n)
}

// The three placements.

func overlayPubSpec() clusterSpec {
	s := clusterSpec{}
	for i, at := range []message.BrokerID{"b1", "b6", "b10", "b13"} {
		s.publishers = append(s.publishers, publisherSpec{id: message.ClientID(fmt.Sprintf("pub%d", i)), at: at, class: className("w", i)})
	}
	leaves := []message.BrokerID{"b2", "b7", "b11", "b14"}
	for h := 0; h < overlaySubscribers; h++ {
		s.holderAt = append(s.holderAt, leaves[h/overlayGroups])
	}
	s.movers = []moverSpec{
		{holder: -1, id: "mv0", home: "b2", away: "b14"},
		{holder: -1, id: "mv1", home: "b7", away: "b11"},
	}
	s.churners = []churnerSpec{
		{id: "ch0", at: "b2", live: 200},
		{id: "ch1", at: "b11", live: 200},
	}
	return s
}

func moveStormSpec() clusterSpec {
	s := clusterSpec{checkRouting: true}
	// Fig. 8's advertisers: three per corridor class, spread over the
	// overlay so subscriptions stretch across most of it. The first of each
	// class publishes the background stream.
	for i, p := range []struct {
		at    message.BrokerID
		class int
	}{{"b7", 1}, {"b6", 2}, {"b11", 1}, {"b2", 1}, {"b10", 2}, {"b1", 2}} {
		s.publishers = append(s.publishers, publisherSpec{id: message.ClientID(fmt.Sprintf("pub%d", i)), at: p.at, class: className("w", p.class)})
	}
	per := stormClients / stormCorridors
	homes := []message.BrokerID{"b1", "b2"}
	aways := []message.BrokerID{"b13", "b14"}
	for h := 0; h < stormClients; h++ {
		s.holderAt = append(s.holderAt, homes[h/per])
	}
	for ci := 0; ci < stormCorridors; ci++ {
		for k := 0; k < 2; k++ {
			s.movers = append(s.movers, moverSpec{holder: ci*per + k, home: homes[ci], away: aways[ci]})
		}
	}
	s.churners = []churnerSpec{
		{id: "ch0", at: "b13", class: "w1", live: 200},
		{id: "ch1", at: "b14", class: "w2", live: 200},
	}
	return s
}

func subChurnSpec() clusterSpec {
	s := clusterSpec{durable: true, checkRouting: true}
	s.publishers = []publisherSpec{{id: "pub0", at: "b1", class: "s"}}
	s.holderAt = []message.BrokerID{"b7", "b11", "b13", "b14"}
	s.movers = []moverSpec{
		{holder: -1, id: "mv0", home: "b6", away: "b13", class: "s"},
		{holder: -1, id: "mv1", home: "b10", away: "b2", class: "s"},
	}
	s.churners = []churnerSpec{
		{id: "ch0", at: "b2", class: "s", live: 500},
		{id: "ch1", at: "b10", class: "s", live: 500},
	}
	return s
}
