package main

import (
	"fmt"
	"math/rand"
	"time"

	"padres/internal/broker"
	"padres/internal/core"
	"padres/internal/message"
	"padres/internal/metrics"
	"padres/internal/overlay"
	"padres/internal/predicate"
	"padres/internal/transport"
)

// matchRig is the match_fanout deployment: broker b1 holds the whole
// generated subscription table on behalf of 64 locally attached client
// nodes, publications enter through Broker.Inject and leave through the
// AttachClient callbacks, so matching and dispatch do almost all the work.
// A second, idle broker b2 hangs off one zero-delay link: no publication or
// table subscription ever crosses it, but it gives the mover somewhere to
// go, so a movement is timed with one endpoint holding the full table.
type matchRig struct {
	net      *transport.Network
	reg      *metrics.Registry
	bs       []*broker.Broker
	cts      []*core.Container
	pubNode  message.NodeID
	pubSeq   uint64
	mv       mover
	ch       *churner
	nSubs    int
	newS     float64
	populate float64
}

const (
	matchMoverClass = "mv"
	matchChurnLive  = 500
)

func newMatchRig(pop *population, env buildEnv) (_ *matchRig, err error) {
	led, seed := env.led, env.seed
	r := &matchRig{reg: metrics.NewRegistry(), nSubs: len(pop.subs)}
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	t0 := time.Now()
	r.net = transport.NewNetwork(r.reg)
	top, err := overlay.Linear(2)
	if err != nil {
		return nil, err
	}
	dir := core.NewDirectory()
	for _, id := range top.Brokers() {
		hops, err := top.NextHops(id)
		if err != nil {
			return nil, err
		}
		b, err := broker.New(broker.Config{ID: id, Net: r.net, Neighbors: top.Neighbors(id), NextHops: hops})
		if err != nil {
			return nil, err
		}
		r.bs = append(r.bs, b)
		ct := core.NewContainer(core.Config{Broker: b, Net: r.net, Directory: dir, Protocol: core.ProtocolReconfig})
		ct.SetEventSink(env.sink)
		r.cts = append(r.cts, ct)
	}
	if err := r.net.AddLink("b1", "b2", zeroDelay{}.LinkFor("b1", "b2")); err != nil {
		return nil, err
	}
	for _, b := range r.bs {
		b.Start()
	}
	r.newS = time.Since(t0).Seconds()

	t1 := time.Now()
	b1 := r.bs[0]
	r.pubNode = message.ClientNode("pub", b1.ID())
	// One advertisement announcing the whole event space.
	b1.Inject(r.pubNode, message.Advertise{ID: "pub-a1", Client: "pub", Filter: predicate.MustFilter(ge("x", -1000))})
	nodes := make([]message.NodeID, pop.holders)
	for h := range nodes {
		h := h
		nodes[h] = message.ClientNode(message.ClientID(fmt.Sprintf("h%d", h)), b1.ID())
		b1.AttachClient(nodes[h], func(pub message.Publish) { led.deliver(h, pub) })
	}
	for i, s := range pop.subs {
		b1.Inject(nodes[s.holder], message.Subscribe{
			ID: message.SubID(fmt.Sprintf("h%d-s%d", s.holder, i)), Client: message.ClientID(fmt.Sprintf("h%d", s.holder)), Filter: s.filter,
		})
	}
	rnd := rand.New(rand.NewSource(seed ^ 0x5eed))
	mc, err := r.cts[1].NewClient("mv0")
	if err != nil {
		return nil, err
	}
	if _, err := mc.Subscribe(churnFilter(rnd, matchMoverClass)); err != nil {
		return nil, err
	}
	r.mv = mover{c: mc, home: "b2", away: "b1"}
	cc, err := r.cts[0].NewClient("ch0")
	if err != nil {
		return nil, err
	}
	r.ch = &churner{id: "ch0", class: className("k", 0), r: rand.New(rand.NewSource(rnd.Int63())), sub: cc.Subscribe, unsub: cc.Unsubscribe}
	if err := r.ch.fill(matchChurnLive); err != nil {
		return nil, err
	}
	if err := r.quiesce(5 * time.Minute); err != nil {
		return nil, fmt.Errorf("after subscriptions: %w", err)
	}
	r.populate = time.Since(t1).Seconds()
	return r, nil
}

func (r *matchRig) publish(_ eventSpec, ev predicate.Event) error {
	r.pubSeq++
	r.bs[0].Inject(r.pubNode, message.Publish{ID: message.PubID(fmt.Sprintf("pub-p%d", r.pubSeq)), Client: "pub", Event: ev})
	return nil
}

func (r *matchRig) move(int) (time.Duration, error) { return r.mv.move() }
func (r *matchRig) movers() int                     { return 1 }
func (r *matchRig) routingOp(int) error             { return r.ch.op() }
func (r *matchRig) churners() int                   { return 1 }
func (r *matchRig) inflight() int64                 { return r.reg.Inflight() }
func (r *matchRig) quiesce(d time.Duration) error   { return settle(r.reg, d) }
func (r *matchRig) brokers() []*broker.Broker       { return r.bs }
func (r *matchRig) registries() []*metrics.Registry { return []*metrics.Registry{r.reg} }
func (r *matchRig) setupParts() (float64, float64)  { return r.newS, r.populate }

func (r *matchRig) verify() []string {
	var out []string
	hosted := map[string][]message.BrokerID{"mv0": nil}
	for i, ct := range r.cts {
		if ct.Hosts("mv0") {
			hosted["mv0"] = append(hosted["mv0"], r.bs[i].ID())
		}
	}
	out = append(out, checkMovers(hosted)...)
	// b1's table must hold exactly the generated subscriptions, the
	// churner's live set, and the mover's one subscription (installed at b1
	// either as its edge broker or on the way to the advertisement).
	if got, want := r.bs[0].Stats().PRTSize, r.nSubs+len(r.ch.live)+1; got != want {
		out = append(out, fmt.Sprintf("broker b1 PRT holds %d subscriptions, reference has %d", got, want))
	}
	return append(out, checkDropped(r.bs)...)
}

func (r *matchRig) describe() string {
	return fmt.Sprintf("one broker holding %d subscriptions for %d attached client nodes (plus an idle second broker as the mover's other endpoint)", r.nSubs, maxHolders)
}

func (r *matchRig) close() {
	for _, ct := range r.cts {
		ct.Shutdown()
	}
	for _, b := range r.bs {
		b.Stop()
	}
	if r.net != nil {
		r.net.Close()
	}
}
