package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"padres/internal/broker"
	"padres/internal/client"
	"padres/internal/core"
	"padres/internal/message"
	"padres/internal/metrics"
	"padres/internal/overlay"
	"padres/internal/predicate"
	"padres/internal/transport"
	"padres/internal/workload"
)

// tcpRig is the tcp_chain deployment: three brokers b1-b2-b3 that share
// nothing but loopback sockets — each has its own registry, in-process
// network, mobile container, client directory and TCP gateway, wired as in
// TestThreeBrokerTCPDeployment. The harness is a remote publisher on a
// socket to b1 and a remote subscriber on a socket to b3, so a notification
// crosses four sockets and is encoded and decoded four times. The mover and
// the churn client live inside the brokers' containers, as mobile clients
// do; a move ships the serialized client stub b1<->b3 over the gateways.
type tcpRig struct {
	nodes    []*tcpNode
	pubConn  net.Conn
	subConn  net.Conn
	pubEnc   *message.Encoder
	pubSeq   uint64
	reader   sync.WaitGroup
	mvID     message.ClientID
	mvAt     int // index into nodes
	mvClient *client.Client
	ch       *churner
	newS     float64
	populate float64
}

type tcpNode struct {
	reg *metrics.Registry
	net *transport.Network
	b   *broker.Broker
	ct  *core.Container
	dir *core.Directory
	gw  *transport.Gateway
}

const tcpChurnLive = 200

func newTCPRig(pop *population, env buildEnv) (_ *tcpRig, err error) {
	led, seed := env.led, env.seed
	r := &tcpRig{mvID: "mv0"}
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	t0 := time.Now()
	top, err := overlay.Linear(3)
	if err != nil {
		return nil, err
	}
	for _, id := range top.Brokers() {
		n := &tcpNode{reg: metrics.NewRegistry(), dir: core.NewDirectory()}
		n.net = transport.NewNetwork(n.reg)
		r.nodes = append(r.nodes, n)
		hops, err := top.NextHops(id)
		if err != nil {
			return nil, err
		}
		if n.b, err = broker.New(broker.Config{ID: id, Net: n.net, Neighbors: top.Neighbors(id), NextHops: hops}); err != nil {
			return nil, err
		}
		n.ct = core.NewContainer(core.Config{Broker: n.b, Net: n.net, Directory: n.dir, Protocol: core.ProtocolReconfig})
		n.ct.SetEventSink(env.sink)
		n.b.Start()
		if n.gw, err = transport.NewGateway(transport.GatewayConfig{Net: n.net, Local: id.Node(), Broker: n.b, Listen: "127.0.0.1:0"}); err != nil {
			return nil, err
		}
	}
	// b1 and b3 each dial b2, as operators would bring up a chain.
	for _, i := range []int{0, 2} {
		if err := r.nodes[i].gw.DialPeer("b2", r.nodes[1].gw.Addr()); err != nil {
			return nil, err
		}
		if err := r.nodes[i].gw.StartPeerReader("b2"); err != nil {
			return nil, err
		}
	}
	r.newS = time.Since(t0).Seconds()

	t1 := time.Now()
	if r.subConn, err = net.Dial("tcp", r.nodes[2].gw.Addr()); err != nil {
		return nil, err
	}
	subEnc := message.NewEncoder(r.subConn)
	if err := subEnc.Encode(message.Envelope{From: "sub", Msg: transport.ClientHello("sub")}); err != nil {
		return nil, err
	}
	if r.pubConn, err = net.Dial("tcp", r.nodes[0].gw.Addr()); err != nil {
		return nil, err
	}
	r.pubEnc = message.NewEncoder(r.pubConn)
	if err := r.pubEnc.Encode(message.Envelope{From: "pub", Msg: transport.ClientHello("pub")}); err != nil {
		return nil, err
	}
	if err := r.pubEnc.Encode(message.Envelope{From: "pub", Msg: message.Advertise{ID: "pub-a1", Client: "pub", Filter: workload.Advertisement("t")}}); err != nil {
		return nil, err
	}
	if err := r.await("advertisement at b3", func() bool { return r.nodes[2].b.Stats().SRTSize == 1 }); err != nil {
		return nil, err
	}
	for i, s := range pop.subs {
		if err := subEnc.Encode(message.Envelope{From: "sub", Msg: message.Subscribe{ID: message.SubID(fmt.Sprintf("sub-s%d", i)), Client: "sub", Filter: s.filter}}); err != nil {
			return nil, err
		}
	}
	rnd := rand.New(rand.NewSource(seed ^ 0x5eed))
	if r.mvClient, err = r.nodes[0].ct.NewClient(r.mvID); err != nil {
		return nil, err
	}
	if _, err := r.mvClient.Subscribe(churnFilter(rnd, "t")); err != nil {
		return nil, err
	}
	cc, err := r.nodes[2].ct.NewClient("ch0")
	if err != nil {
		return nil, err
	}
	r.ch = &churner{id: "ch0", class: "t", r: rand.New(rand.NewSource(rnd.Int63())), sub: cc.Subscribe, unsub: cc.Unsubscribe}
	if err := r.ch.fill(tcpChurnLive); err != nil {
		return nil, err
	}
	want := len(pop.subs) + 1 + tcpChurnLive
	if err := r.await("subscriptions at b1", func() bool { return r.nodes[0].b.Stats().PRTSize == want }); err != nil {
		return nil, err
	}
	if err := r.quiesce(time.Minute); err != nil {
		return nil, err
	}
	r.populate = time.Since(t1).Seconds()

	r.reader.Add(1)
	go func() {
		defer r.reader.Done()
		dec := message.NewDecoder(r.subConn)
		for {
			env, err := dec.Decode()
			if err != nil {
				return // socket closed by close()
			}
			if pub, ok := env.Msg.(message.Publish); ok {
				led.deliver(0, pub)
			}
		}
	}()
	return r, nil
}

// await polls cond; set-up over sockets has no registry that spans the
// processes to wait on.
func (r *tcpRig) await(what string, cond func() bool) error {
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out waiting for %s", what)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

func (r *tcpRig) publish(_ eventSpec, ev predicate.Event) error {
	r.pubSeq++
	return r.pubEnc.Encode(message.Envelope{From: "pub", Msg: message.Publish{
		ID: message.PubID(fmt.Sprintf("pub-p%d", r.pubSeq)), Client: "pub", Event: ev,
	}})
}

func (r *tcpRig) move(int) (time.Duration, error) {
	to := 2 - r.mvAt
	target := r.nodes[to].b.ID()
	ctx, cancel := context.WithTimeout(context.Background(), moveTimeout)
	defer cancel()
	t0 := time.Now()
	err := r.mvClient.Move(ctx, target)
	d := time.Since(t0)
	if err != nil {
		return d, err
	}
	// The stub was serialized into the MoveState message and rebuilt in the
	// target's directory; the source's object is spent. Finding the new one
	// is the harness's own polling, so it stays out of the timed call (it
	// does bound moves_per_s here: the next move cannot start before it).
	var moved *client.Client
	if err := r.await("moved client started at "+string(target), func() bool {
		moved = r.nodes[to].dir.Get(r.mvID)
		return moved != nil && moved != r.mvClient && moved.State() == client.StateStarted && moved.Broker() == target
	}); err != nil {
		return d, err
	}
	r.mvClient, r.mvAt = moved, to
	return d, nil
}

func (r *tcpRig) movers() int         { return 1 }
func (r *tcpRig) routingOp(int) error { return r.ch.op() }
func (r *tcpRig) churners() int       { return 1 }

func (r *tcpRig) inflight() int64 {
	var n int64
	for _, nd := range r.nodes {
		n += nd.reg.Inflight()
	}
	return n
}

func (r *tcpRig) quiesce(d time.Duration) error { return awaitQuiescent(r.registries(), d) }

func (r *tcpRig) brokers() []*broker.Broker {
	var out []*broker.Broker
	for _, n := range r.nodes {
		out = append(out, n.b)
	}
	return out
}

func (r *tcpRig) registries() []*metrics.Registry {
	var out []*metrics.Registry
	for _, n := range r.nodes {
		out = append(out, n.reg)
	}
	return out
}

func (r *tcpRig) setupParts() (float64, float64) { return r.newS, r.populate }

func (r *tcpRig) verify() []string {
	var out []string
	hosted := map[string][]message.BrokerID{string(r.mvID): nil}
	for _, n := range r.nodes {
		if n.ct.Hosts(r.mvID) {
			hosted[string(r.mvID)] = append(hosted[string(r.mvID)], n.b.ID())
		}
	}
	out = append(out, checkMovers(hosted)...)
	// The churned subscriptions intersect the advertisement at b1, so all
	// three brokers must hold exactly the live set.
	for _, n := range r.nodes {
		if got := prtCountByClient(n.b, r.ch.id); got != len(r.ch.live) {
			out = append(out, fmt.Sprintf("broker %s holds %d subscriptions of %s, reference live set has %d", n.b.ID(), got, r.ch.id, len(r.ch.live)))
		}
	}
	return append(out, checkDropped(r.brokers())...)
}

func (r *tcpRig) describe() string {
	return "three brokers b1-b2-b3, each with its own network and TCP gateway, on host loopback; remote publisher at b1, remote subscriber at b3"
}

func (r *tcpRig) close() {
	if r.pubConn != nil {
		_ = r.pubConn.Close()
	}
	if r.subConn != nil {
		_ = r.subConn.Close()
	}
	r.reader.Wait()
	for _, n := range r.nodes {
		if n.gw != nil {
			n.gw.Close()
		}
	}
	for _, n := range r.nodes {
		if n.ct != nil {
			n.ct.Shutdown()
		}
		if n.b != nil {
			n.b.Stop()
		}
		n.net.Close()
	}
}
