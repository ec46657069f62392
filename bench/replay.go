package main

import (
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"padres/internal/broker"
	"padres/internal/journal"
	"padres/internal/matching"
	"padres/internal/message"
	"padres/internal/metrics"
	"padres/internal/predicate"
	"padres/internal/store"
	"padres/internal/telemetry"
	"padres/internal/transport"
)

// The layer replay calls each layer's public functions directly, one layer
// at a time on one goroutine, on inputs taken from the workload that just
// ran: its subscription set, its event pool, the envelopes those events
// travel in, the WAL records its routing operations write. It yields a cost
// per call for each layer; the traced windows yield the calls per operation;
// their product is what the ledger sets against cpu_us_per_op.

// cost is the measured price of one call.
type cost struct {
	ns     float64
	allocs float64
}

// measure calls fn with growing batch sizes until it has spent budget, and
// returns the mean cost per call over every batch. fn(n) performs n calls.
func measure(budget time.Duration, fn func(n int)) cost {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	total := 0
	for n := 1; ; n = min(n*2, 1<<20) {
		fn(n)
		total += n
		if time.Since(start) >= budget {
			break
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)
	c := float64(total)
	return cost{ns: float64(elapsed) / c, allocs: float64(ms1.Mallocs-ms0.Mallocs) / c}
}

// replayTableCap bounds the bare broker the replay builds for
// broker.dispatch_allocs. Allocations per dispatch do not depend on table
// size, and a second 200 000-subscription broker would double the traced
// run's set-up. The standalone PRT for the matching costs is never capped:
// match time does depend on table size.
const replayTableCap = 20000

// heapMeasureSubs is the least number of records matching.heap_bytes_per_sub
// is measured over.
const heapMeasureSubs = 10000

// layerCosts is the replay's outcome.
type layerCosts struct {
	filterMatches   cost
	prtMatch        cost
	prtInsert       cost
	prtRemove       cost
	srtIntersecting cost
	matchAfterWrite cost
	heapBytesPerSub float64
	marshal         cost
	unmarshal       cost
	frameBytes      float64
	linkSend        cost
	linkHopP50us    float64
	tcpRTTP50us     float64
	tcpBytesPerOp   float64
	dispatch        cost
	storeAppend     cost
	appendSyncP50us float64
	storeTel        *telemetry.StoreMetrics
	journalAdd      cost
	account         cost
}

// replayLayers runs every layer measurement, giving each an equal share of
// budget.
func replayLayers(pop *population, seed int64, baseDir string, budget time.Duration) (*layerCosts, error) {
	const parts = 16
	each := budget / parts
	lc := &layerCosts{}
	rnd := rand.New(rand.NewSource(seed ^ 0x7e91a))
	events := make([]predicate.Event, len(pop.events))
	for i, e := range pop.events {
		ev := e.ev.Clone()
		ev[seqAttr] = predicate.Number(float64(1_000_000 + i))
		events[i] = ev
	}

	// predicate
	lc.filterMatches = measure(each, func(n int) {
		for i := 0; i < n; i++ {
			sinkBool = pop.subs[i%len(pop.subs)].filter.Matches(events[i%len(events)])
		}
	})

	// matching: a standalone PRT holding the workload's subscription set.
	// Heap per subscription is measured on at least heapMeasureSubs records
	// (a small set repeated under fresh IDs): the growth of a handful of
	// records cannot be told from the collector's own noise.
	insert := func(prt *matching.PRT, n int) {
		for i := 0; i < n; i++ {
			s := pop.subs[i%len(pop.subs)]
			prt.Insert(message.SubID(fmt.Sprintf("s%d", i)), message.ClientID(fmt.Sprintf("h%d", s.holder)), s.filter, message.NodeID(fmt.Sprintf("h%d@b1", s.holder)))
		}
	}
	runtime.GC()
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	prt := matching.NewPRT()
	heapSubs := max(len(pop.subs), heapMeasureSubs)
	insert(prt, heapSubs)
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	lc.heapBytesPerSub = max(float64(int64(ms1.HeapAlloc)-int64(ms0.HeapAlloc)), 0) / float64(heapSubs)
	if heapSubs != len(pop.subs) {
		prt = matching.NewPRT()
		insert(prt, len(pop.subs))
	}
	buf := make([]*matching.Record, 0, 256)
	prt.MatchInto(events[0], buf) // build the snapshot outside the timing
	lc.prtMatch = measure(each, func(n int) {
		for i := 0; i < n; i++ {
			buf = prt.MatchInto(events[i%len(events)], buf[:0])
		}
	})
	class := ""
	if len(pop.subs) > 0 && pop.subs[0].class >= 0 {
		class = className("k", 0)
	}
	fresh := make([]*predicate.Filter, 1024)
	ids := make([]message.SubID, len(fresh))
	for i := range fresh {
		fresh[i] = churnFilter(rnd, class)
		ids[i] = message.SubID(fmt.Sprintf("fresh%d", i))
	}
	// Inserts and removes are timed in alternating runs of up to 1 024, so
	// the table stays at its workload size.
	var insNs, remNs time.Duration
	var insN int
	for start := time.Now(); time.Since(start) < 2*each; {
		t0 := time.Now()
		for i, f := range fresh {
			prt.Insert(ids[i], "churn", f, "churn@b1")
		}
		t1 := time.Now()
		for _, id := range ids {
			prt.Remove(id)
		}
		insNs, remNs, insN = insNs+t1.Sub(t0), remNs+time.Since(t1), insN+len(fresh)
	}
	lc.prtInsert = cost{ns: float64(insNs) / float64(insN)}
	lc.prtRemove = cost{ns: float64(remNs) / float64(insN)}
	var mawNs time.Duration
	var mawN int
	for start := time.Now(); time.Since(start) < each; mawN++ {
		i := mawN % len(fresh)
		prt.Insert(ids[i], "churn", fresh[i], "churn@b1")
		t0 := time.Now()
		buf = prt.MatchInto(events[mawN%len(events)], buf[:0])
		mawNs += time.Since(t0)
		prt.Remove(ids[i])
	}
	lc.matchAfterWrite = cost{ns: float64(mawNs) / float64(mawN)}

	srt := matching.NewSRT()
	for i, a := range pop.advs {
		srt.Insert(message.AdvID(fmt.Sprintf("a%d", i)), "pub", a, "b2")
	}
	lc.srtIntersecting = measure(each, func(n int) {
		for i := 0; i < n; i++ {
			// A fresh filter each call: a new subscription is never in the
			// table's query cache.
			sinkRecords = srt.Intersecting(churnFilter(rnd, class))
		}
	})

	// message + wire
	envs := make([]message.Envelope, len(events))
	for i, ev := range events {
		envs[i] = message.Envelope{From: "b1", Msg: message.Publish{ID: message.PubID(fmt.Sprintf("pub-p%d", 1_000_000+i)), Client: "pub", Event: ev}}
	}
	frames := make([][]byte, len(envs))
	var frameBytes int
	for i, env := range envs {
		data, err := message.Marshal(env)
		if err != nil {
			return nil, fmt.Errorf("replay: marshal: %w", err)
		}
		frames[i] = data
		frameBytes += len(data)
	}
	lc.frameBytes = float64(frameBytes) / float64(len(frames))
	lc.marshal = measure(each, func(n int) {
		for i := 0; i < n; i++ {
			sinkBytes, _ = message.Marshal(envs[i%len(envs)])
		}
	})
	lc.unmarshal = measure(each, func(n int) {
		for i := 0; i < n; i++ {
			sinkEnv, _ = message.Unmarshal(frames[i%len(frames)])
		}
	})

	if err := replayLink(lc, envs, each); err != nil {
		return nil, err
	}
	if err := replayTCP(lc, pop, envs, each); err != nil {
		return nil, err
	}
	if err := replayDispatch(lc, pop, events, each); err != nil {
		return nil, err
	}
	if err := replayStore(lc, pop, baseDir, each); err != nil {
		return nil, err
	}

	// journal
	j := journal.New(1 << 16)
	clk := j.ClockOf("b1")
	lc.journalAdd = measure(each, func(n int) {
		for i := 0; i < n; i++ {
			j.Add(journal.Record{Site: "b1", Cat: journal.CatLink, Kind: journal.KindLinkSend, Lamport: clk.Tick(), Ref: "pub-p1", From: "b1", To: "b2", Detail: "publish"})
		}
	})

	// metrics: the registry calls the transport makes for one message.
	reg := metrics.NewRegistry()
	msg := envs[0].Msg
	lc.account = measure(each, func(n int) {
		for i := 0; i < n; i++ {
			reg.CountSend("b1", "b2", message.KindPublish)
			reg.MsgEnqueued(msg)
			reg.MsgDone(msg)
		}
	})
	return lc, nil
}

// Package-level sinks keep the compiler from discarding measured calls.
var (
	sinkBool    bool
	sinkBytes   []byte
	sinkEnv     message.Envelope
	sinkRecords []*matching.Record
)

// replayLink measures a bare two-node zero-delay link: the cost of pushing
// messages through it (send, hand-off to the link goroutine, handler,
// accounting), and the Send→handler latency of one message at a time.
func replayLink(lc *layerCosts, envs []message.Envelope, budget time.Duration) error {
	reg := metrics.NewRegistry()
	nw := transport.NewNetwork(reg)
	defer nw.Close()
	var got atomic.Int64
	arrived := make(chan struct{}, 1) // one token: the sender waits for one message at a time
	var signal atomic.Bool
	nw.Register("a", func(env message.Envelope) { nw.Done(env.Msg) })
	nw.Register("b", func(env message.Envelope) {
		nw.Done(env.Msg)
		got.Add(1)
		if signal.Load() {
			arrived <- struct{}{}
		}
	})
	if err := nw.AddLink("a", "b", transport.LinkOptions{CountTraffic: true}); err != nil {
		return fmt.Errorf("replay: link: %w", err)
	}
	var sent int64
	var sendErr error
	lc.linkSend = measure(budget/2, func(n int) {
		for i := 0; i < n; i++ {
			if err := nw.Send("a", "b", envs[i%len(envs)].Msg); err != nil {
				sendErr = err
			}
		}
		sent += int64(n)
		for got.Load() < sent {
			runtime.Gosched()
		}
	})
	if sendErr != nil {
		return fmt.Errorf("replay: link send: %w", sendErr)
	}
	signal.Store(true)
	var hops []int64
	for start := time.Now(); time.Since(start) < budget/2; {
		t0 := time.Now()
		if err := nw.Send("a", "b", envs[0].Msg); err != nil {
			return fmt.Errorf("replay: link send: %w", err)
		}
		<-arrived
		hops = append(hops, int64(time.Since(t0)))
	}
	sortInt64(hops)
	lc.linkHopP50us = float64(percentile(hops, 0.5)) / 1e3
	return nil
}

// bareBroker starts one broker on its own network, with no neighbours.
func bareBroker() (*broker.Broker, *transport.Network, error) {
	nw := transport.NewNetwork(metrics.NewRegistry())
	b, err := broker.New(broker.Config{ID: "b1", Net: nw})
	if err != nil {
		nw.Close()
		return nil, nil, err
	}
	b.Start()
	return b, nw, nil
}

// replayTCP measures one broker behind a TCP gateway on loopback: the trip
// publisher socket → gateway → broker → gateway → subscriber socket, timed
// one publication at a time.
func replayTCP(lc *layerCosts, pop *population, envs []message.Envelope, budget time.Duration) error {
	b, nw, err := bareBroker()
	if err != nil {
		return fmt.Errorf("replay: tcp: %w", err)
	}
	defer nw.Close()
	defer b.Stop()
	gw, err := transport.NewGateway(transport.GatewayConfig{Net: nw, Local: "b1", Broker: b, Listen: "127.0.0.1:0"})
	if err != nil {
		return fmt.Errorf("replay: tcp: %w", err)
	}
	defer gw.Close()
	// Two sockets: a broker never routes a publication back to the node it
	// came from, so the publisher and the subscriber are separate clients.
	dial := func(node message.NodeID, first message.Message) (net.Conn, *message.Encoder, error) {
		conn, err := net.Dial("tcp", gw.Addr())
		if err != nil {
			return nil, nil, err
		}
		enc := message.NewEncoder(conn)
		for _, m := range []message.Message{transport.ClientHello(node), first} {
			if err := enc.Encode(message.Envelope{From: node, Msg: m}); err != nil {
				conn.Close()
				return nil, nil, err
			}
		}
		return conn, enc, conn.SetDeadline(time.Now().Add(budget + 10*time.Second))
	}
	all := predicate.MustFilter(ge("x", -1e9))
	pubConn, enc, err := dial("p", message.Advertise{ID: "p-a1", Client: "p", Filter: all})
	if err != nil {
		return fmt.Errorf("replay: tcp: %w", err)
	}
	defer pubConn.Close()
	subConn, _, err := dial("s", message.Subscribe{ID: "s-s1", Client: "s", Filter: all})
	if err != nil {
		return fmt.Errorf("replay: tcp: %w", err)
	}
	defer subConn.Close()
	dec := message.NewDecoder(subConn)
	for deadline := time.Now().Add(10 * time.Second); b.Stats().PRTSize == 0 || b.Stats().SRTSize == 0; {
		if time.Now().After(deadline) {
			return fmt.Errorf("replay: tcp: subscription never installed")
		}
		time.Sleep(200 * time.Microsecond)
	}
	var rtts []int64
	var bytes int
	for start := time.Now(); time.Since(start) < budget; {
		env := envs[len(rtts)%len(envs)]
		env.From = "p"
		t0 := time.Now()
		if err := enc.Encode(env); err != nil {
			return fmt.Errorf("replay: tcp: %w", err)
		}
		back, err := dec.Decode()
		if err != nil {
			return fmt.Errorf("replay: tcp: %w", err)
		}
		rtts = append(rtts, int64(time.Since(t0)))
		if len(rtts) <= len(envs) {
			out, _ := message.Marshal(env)
			in, _ := message.Marshal(back)
			bytes += len(out) + len(in)
		}
	}
	sortInt64(rtts)
	lc.tcpRTTP50us = float64(percentile(rtts, 0.5)) / 1e3
	lc.tcpBytesPerOp = float64(bytes) / float64(min(len(rtts), len(envs)))
	return nil
}

// replayDispatch measures a bare broker holding (up to replayTableCap of)
// the workload's subscriptions: Inject to deliver callback, one publication
// at a time.
func replayDispatch(lc *layerCosts, pop *population, events []predicate.Event, budget time.Duration) error {
	b, nw, err := bareBroker()
	if err != nil {
		return fmt.Errorf("replay: dispatch: %w", err)
	}
	defer nw.Close()
	defer b.Stop()
	reg := nw.Registry()
	pubNode := message.ClientNode("pub", "b1")
	b.Inject(pubNode, message.Advertise{ID: "pub-a1", Client: "pub", Filter: predicate.MustFilter(ge("x", -1e9))})
	for h := 0; h < pop.holders; h++ {
		b.AttachClient(message.NodeID(fmt.Sprintf("h%d@b1", h)), func(message.Publish) {})
	}
	for i, s := range pop.subs {
		if i == replayTableCap {
			break
		}
		b.Inject(message.NodeID(fmt.Sprintf("h%d@b1", s.holder)), message.Subscribe{ID: message.SubID(fmt.Sprintf("s%d", i)), Client: message.ClientID(fmt.Sprintf("h%d", s.holder)), Filter: s.filter})
	}
	if err := settle(reg, time.Minute); err != nil {
		return fmt.Errorf("replay: dispatch: %w", err)
	}
	msgs := make([]message.Publish, len(events))
	for i, ev := range events {
		msgs[i] = message.Publish{ID: message.PubID(fmt.Sprintf("pub-p%d", i)), Client: "pub", Event: ev}
	}
	b.Inject(pubNode, msgs[0]) // first match builds the snapshot
	if err := settle(reg, time.Minute); err != nil {
		return fmt.Errorf("replay: dispatch: %w", err)
	}
	lc.dispatch = measure(budget, func(n int) {
		for i := 0; i < n; i++ {
			b.Inject(pubNode, msgs[i%len(msgs)])
		}
		for reg.Inflight() > 0 {
			runtime.Gosched()
		}
	})
	return nil
}

// walRecords is the record mix one subscribe-then-unsubscribe pair writes at
// a broker that forwards the subscription to one neighbour.
func walRecords(f *predicate.Filter) []store.Record {
	return []store.Record{
		{Op: store.OpPRTInsert, ID: "ch0-s1234", Client: "ch0", Filter: f, Hop: "ch0@b2"},
		{Op: store.OpSentSubMark, ID: "ch0-s1234", Hop: "b3"},
		{Op: store.OpPRTRemove, ID: "ch0-s1234"},
		{Op: store.OpSentSubDrop, ID: "ch0-s1234"},
	}
}

// replayStore measures a standalone write-ahead log in a scratch directory
// under baseDir: the cost of an asynchronous append (enqueue, encode, group
// commit), and the latency of a synchronous one.
func replayStore(lc *layerCosts, pop *population, baseDir string, budget time.Duration) error {
	if err := os.MkdirAll(baseDir, 0o755); err != nil {
		return fmt.Errorf("replay: store: %w", err)
	}
	dir, err := os.MkdirTemp(baseDir, "replay-wal-")
	if err != nil {
		return fmt.Errorf("replay: store: %w", err)
	}
	defer os.RemoveAll(dir)
	lc.storeTel = telemetry.NewStoreMetrics()
	st, err := store.Open(filepath.Join(dir, "b1"), store.Options{Metrics: lc.storeTel, SnapshotEvery: -1})
	if err != nil {
		return fmt.Errorf("replay: store: %w", err)
	}
	defer st.Close()
	recs := walRecords(pop.subs[0].filter)
	var syncErr error
	lc.storeAppend = measure(budget/2, func(n int) {
		// Appends go in bursts of at most maxInflight, each made durable
		// before the next, as the churn clients' in-flight bound paces them:
		// the flusher's encoding and group commits are part of an append's
		// cost, and the store's own commit-latency histogram then sees the
		// queue depths a rig would give it.
		for i := 0; i < n; i++ {
			st.Append(recs[i%len(recs)])
			if i%maxInflight == maxInflight-1 || i == n-1 {
				if err := st.Sync(); err != nil {
					syncErr = err
				}
			}
		}
	})
	if syncErr != nil {
		return fmt.Errorf("replay: store: %w", syncErr)
	}
	var syncs []int64
	for start := time.Now(); time.Since(start) < budget/2; {
		t0 := time.Now()
		if err := st.AppendSync(recs[len(syncs)%len(recs)]); err != nil {
			return fmt.Errorf("replay: store: %w", err)
		}
		syncs = append(syncs, int64(time.Since(t0)))
	}
	sortInt64(syncs)
	lc.appendSyncP50us = float64(percentile(syncs, 0.5)) / 1e3
	return nil
}
