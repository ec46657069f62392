// Package scenario scripts deterministic catastrophes against a fully
// simulated deployment: a cluster driven by a sim.VirtualClock executes
// publication storms, thundering herds of simultaneous movements, rolling
// WAN partitions, and staggered coordinator kills — thousands of brokers in
// simulated time on one goroutine, with every source of randomness derived
// from a single seed so the entire run (including the flight-recorder
// journal, byte for byte) is a pure function of that seed.
//
// A scenario run proceeds in three phases. Setup builds the overlay
// (a seeded random tree), attaches publishers and subscribers, and drains
// the event heap until routing state has propagated. Scripting schedules
// the catastrophe on the virtual clock: every storm publication, herd
// movement, partition/heal pair, and kill is an event with a precomputed
// fire time. Execution drains the heap to the horizon, collects movement
// outcomes from their (buffered, non-blocking) done channels, snapshots
// and hashes the journal, and replays it through the auditor.
package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	mrand "math/rand"
	"time"

	"padres/internal/audit"
	"padres/internal/client"
	"padres/internal/cluster"
	"padres/internal/core"
	"padres/internal/failure"
	"padres/internal/journal"
	"padres/internal/message"
	"padres/internal/overlay"
	"padres/internal/replication"
	"padres/internal/sim"
	"padres/internal/transport"
	"padres/internal/workload"
)

// Name identifies a scripted catastrophe.
type Name string

// The scripted catastrophes.
const (
	// Storm floods the overlay with publication bursts from every
	// publisher at once.
	Storm Name = "storm"
	// Herd fires thundering herds of simultaneous movement transactions.
	Herd Name = "herd"
	// Partition rolls link partitions across the overlay while traffic
	// and movements continue.
	Partition Name = "partition"
	// Kill crash-stops target coordinators mid-movement on a staggered
	// schedule; quorum replication and standby takeover must resolve the
	// orphaned transactions.
	Kill Name = "kill"
	// Catastrophe layers all of the above into one run.
	Catastrophe Name = "catastrophe"
)

// Names lists the scripted catastrophes.
func Names() []Name { return []Name{Storm, Herd, Partition, Kill, Catastrophe} }

// Options configures a scenario run. The zero value of every field selects
// a scale-appropriate default; Seed alone fully determines the run.
type Options struct {
	// Seed determines everything: topology, client placement, workloads,
	// storm timing, herd targets, partition schedule, kill victims, link
	// jitter, and fault rolls.
	Seed int64
	// Scenario picks the script (default Catastrophe).
	Scenario Name
	// Brokers is the overlay size (default 64).
	Brokers int
	// Subscribers is the number of mobile subscriber clients (default
	// Brokers/2, minimum 4).
	Subscribers int
	// Publishers is the number of stationary publishers (default
	// Brokers/8, minimum 2).
	Publishers int
	// Storms is the number of publication bursts (default 2).
	Storms int
	// StormPubs is the number of publications per publisher per storm
	// (default 5).
	StormPubs int
	// Herds is the number of movement waves (default 4).
	Herds int
	// HerdSize is the number of simultaneous movements per wave (default
	// Subscribers/4, minimum 2).
	HerdSize int
	// Partitions is the number of rolling link partitions (default 3).
	Partitions int
	// PartitionHold is how long each partition lasts in virtual time
	// (default 400ms).
	PartitionHold time.Duration
	// Kills is the number of staggered coordinator kills (default 2).
	Kills int
	// MoveTimeout arms the non-blocking movement variant so transactions
	// orphaned by a kill abort instead of wedging (default 5s virtual).
	MoveTimeout time.Duration
	// Tail is the drain window after the last scripted event (default 30s
	// virtual) — retransmissions, lease takeovers, and timeout aborts all
	// resolve inside it.
	Tail time.Duration
	// JournalCap bounds the flight-recorder ring (default 1<<20 records).
	// Result.Dropped reports overflow; a sweep that overflows should raise
	// the cap or shrink the workload.
	JournalCap int
	// MaxEvents aborts a run that exceeds this many simulator events
	// (default 20 million) — a backstop against scheduling pathologies,
	// not a tuning knob.
	MaxEvents int
}

func (o Options) withDefaults() Options {
	if o.Scenario == "" {
		o.Scenario = Catastrophe
	}
	if o.Brokers <= 0 {
		o.Brokers = 64
	}
	if o.Subscribers <= 0 {
		o.Subscribers = max(4, o.Brokers/2)
	}
	if o.Publishers <= 0 {
		o.Publishers = max(2, o.Brokers/8)
	}
	if o.Storms <= 0 {
		o.Storms = 2
	}
	if o.StormPubs <= 0 {
		o.StormPubs = 5
	}
	if o.Herds <= 0 {
		o.Herds = 4
	}
	if o.HerdSize <= 0 {
		o.HerdSize = max(2, o.Subscribers/4)
	}
	if o.Partitions <= 0 {
		o.Partitions = 3
	}
	if o.PartitionHold <= 0 {
		o.PartitionHold = 400 * time.Millisecond
	}
	if o.Kills <= 0 {
		o.Kills = 2
	}
	if o.MoveTimeout <= 0 {
		o.MoveTimeout = 5 * time.Second
	}
	if o.Tail <= 0 {
		o.Tail = 30 * time.Second
	}
	if o.JournalCap <= 0 {
		o.JournalCap = 1 << 20
	}
	if o.MaxEvents <= 0 {
		o.MaxEvents = 20_000_000
	}
	switch o.Scenario {
	case Storm:
		o.Herds, o.Partitions, o.Kills = 0, 0, 0
	case Herd:
		o.Storms, o.Partitions, o.Kills = 0, 0, 0
	case Partition:
		o.Kills = 0
	case Kill:
		o.Storms, o.Partitions = 0, 0
	}
	return o
}

// MoveOutcome is the resolution of one scripted movement.
type MoveOutcome struct {
	Client message.ClientID
	From   message.BrokerID
	Target message.BrokerID
	// Err is nil for a commit, the abort cause otherwise; Requested is
	// false when RequestMove itself was refused (client already moving,
	// host shut down).
	Err       error
	Requested bool
	// Resolved is false when the done channel had not fired by the end of
	// the run (the transaction outlived the horizon).
	Resolved bool
}

// Result is everything a scenario run produced.
type Result struct {
	Seed     int64
	Scenario Name
	Brokers  int

	// Events is the number of simulator events executed; VirtualElapsed
	// is how much simulated time the run covered.
	Events         int
	VirtualElapsed time.Duration

	// Movement tallies.
	MovesRequested int
	Committed      int
	Aborted        int
	Unresolved     int
	Refused        int
	Moves          []MoveOutcome

	// Fault tallies.
	Kills      int
	Partitions int

	// Journal evidence. Hash is a SHA-256 over the canonical JSONL
	// encoding of the snapshot — two runs with the same seed must agree
	// on it byte for byte.
	Records int
	Dropped uint64
	Hash    string
	Report  *audit.Report
	Journal []journal.Record
}

// Clean reports whether the audit found no violations.
func (r *Result) Clean() bool { return r.Report != nil && r.Report.Clean() }

// Summary renders a one-line verdict for sweep reports.
func (r *Result) Summary() string {
	verdict := "clean"
	if !r.Clean() {
		verdict = fmt.Sprintf("%d violations", len(r.Report.Violations()))
	}
	return fmt.Sprintf(
		"seed=%d scenario=%s brokers=%d events=%d vtime=%s moves=%d committed=%d aborted=%d unresolved=%d refused=%d kills=%d partitions=%d records=%d %s",
		r.Seed, r.Scenario, r.Brokers, r.Events, r.VirtualElapsed.Round(time.Millisecond),
		r.MovesRequested, r.Committed, r.Aborted, r.Unresolved, r.Refused,
		r.Kills, r.Partitions, r.Records, verdict,
	)
}

// moveRec pairs a scripted movement with its outcome channel.
type moveRec struct {
	out  MoveOutcome
	done <-chan error
}

// Run executes one scripted catastrophe in simulated time and returns the
// evidence. The call runs entirely on the calling goroutine; wall-clock
// cost is proportional to the event count, not the virtual duration.
func Run(opts Options) (*Result, error) {
	opts = opts.withDefaults()
	rnd := sim.NewRand(opts.Seed)

	top, err := overlay.RandomTree(opts.Brokers, rnd.Derive("topology"))
	if err != nil {
		return nil, fmt.Errorf("topology: %w", err)
	}

	// The virtual epoch is fixed so record timestamps depend only on the
	// event order, never on when the run happens to execute.
	vc := sim.NewVirtualClock(time.Unix(1_000_000_000, 0).UTC())
	jnl := journal.New(opts.JournalCap)
	jnl.SetNowFunc(vc.Now)
	defer jnl.SetNowFunc(nil)

	clOpts := cluster.Options{
		Topology:    top,
		Profile:     transport.DefaultPlanetLab(rnd.Derive("links")),
		Protocol:    core.ProtocolReconfig,
		MoveTimeout: opts.MoveTimeout,
		Journal:     jnl,
		Clock:       vc,
	}
	if opts.Kills > 0 {
		// Reliable links keep the control plane exact under the loss the
		// breaker sees around a crash; replication lets a standby finish
		// what the killed coordinator started.
		clOpts.ReliableLinks = true
		clOpts.Replication = &replication.Config{Enabled: true}
	}
	c, err := cluster.New(clOpts)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	c.Start()
	defer c.Stop()
	in := failure.New(c)

	res := &Result{Seed: opts.Seed, Scenario: opts.Scenario, Brokers: opts.Brokers}

	// --- placement -------------------------------------------------------
	// Kill victims are leaf brokers that host nobody: their death orphans
	// exactly the movements scripted at them. Clients go on the remaining
	// brokers round-robin over a seeded permutation.
	brokers := c.Brokers() // sorted
	leaves := make([]message.BrokerID, 0)
	for _, id := range brokers {
		if len(top.Neighbors(id)) == 1 {
			leaves = append(leaves, id)
		}
	}
	if opts.Kills > len(leaves) {
		opts.Kills = len(leaves)
	}
	victims := leaves[len(leaves)-opts.Kills:]
	isVictim := make(map[message.BrokerID]bool, len(victims))
	for _, v := range victims {
		isVictim[v] = true
	}
	hosts := make([]message.BrokerID, 0, len(brokers))
	for _, id := range brokers {
		if !isVictim[id] {
			hosts = append(hosts, id)
		}
	}
	perm := rnd.DeriveRand("placement").Perm(len(hosts))

	// Publishers advertise one class each; subscribers draw from the
	// paper's workload blocks of a seeded-random publisher class.
	wl := mrand.New(mrand.NewSource(rnd.Derive("workload")))
	pubs := make([]*client.Client, 0, opts.Publishers)
	pubClasses := make([]string, 0, opts.Publishers)
	for i := 0; i < opts.Publishers; i++ {
		at := hosts[perm[i%len(perm)]]
		cl, err := c.NewClient(message.ClientID(fmt.Sprintf("pub-%03d", i)), at)
		if err != nil {
			return nil, fmt.Errorf("publisher %d: %w", i, err)
		}
		class := fmt.Sprintf("storm-%03d", i)
		if _, err := cl.Advertise(workload.Advertisement(class)); err != nil {
			return nil, fmt.Errorf("advertise %s: %w", class, err)
		}
		pubs = append(pubs, cl)
		pubClasses = append(pubClasses, class)
	}

	subs := make([]*client.Client, 0, opts.Subscribers)
	filtersByClass := make(map[string][]int) // class -> subscriber indices, for block math
	for i := 0; i < opts.Subscribers; i++ {
		at := hosts[perm[(opts.Publishers+i)%len(perm)]]
		cl, err := c.NewClient(message.ClientID(fmt.Sprintf("sub-%03d", i)), at)
		if err != nil {
			return nil, fmt.Errorf("subscriber %d: %w", i, err)
		}
		class := pubClasses[wl.Intn(len(pubClasses))]
		slot := len(filtersByClass[class])
		filtersByClass[class] = append(filtersByClass[class], i)
		fs := workload.Assign(workload.Random, class, slot+1, mrand.New(mrand.NewSource(rnd.Derive("assign-"+class))))
		if _, err := cl.Subscribe(fs[slot]); err != nil {
			return nil, fmt.Errorf("subscribe %d: %w", i, err)
		}
		subs = append(subs, cl)
	}

	// Let advertisements and subscriptions propagate before the script.
	res.Events += vc.RunFor(5 * time.Second)

	// --- scripting -------------------------------------------------------
	// All catastrophe events are scheduled up front with precomputed
	// arguments; callbacks only resolve state that must be current at fire
	// time (a mover's host broker).
	start := vc.Now()
	last := start

	at := func(d time.Duration, fn func()) {
		t := start.Add(d)
		if t.After(last) {
			last = t
		}
		vc.At(t, fn)
	}

	stormRnd := rnd.DeriveRand("storm")
	for s := 0; s < opts.Storms; s++ {
		base := time.Duration(s) * 2 * time.Second
		for pi := range pubs {
			p, class := pubs[pi], pubClasses[pi]
			blocks := max(1, (len(filtersByClass[class])+workload.Size-1)/workload.Size)
			for k := 0; k < opts.StormPubs; k++ {
				// Precompute the event so PRNG draw order is independent
				// of callback execution order.
				ev := workload.Publication(class, float64(stormRnd.Intn(blocks*workload.BlockSpan)))
				at(base+time.Duration(k)*20*time.Millisecond, func() { _, _ = p.Publish(ev) })
			}
		}
	}

	moveRnd := rnd.DeriveRand("moves")
	recs := make([]*moveRec, 0, opts.Herds*opts.HerdSize)
	requestMove := func(cl *client.Client, target message.BrokerID) {
		rec := &moveRec{out: MoveOutcome{Client: cl.ID(), From: cl.Broker(), Target: target}}
		recs = append(recs, rec)
		ct := c.Container(cl.Broker())
		if ct == nil {
			return
		}
		done, err := ct.RequestMove(cl, target)
		if err != nil {
			rec.out.Err = err
			return
		}
		rec.out.Requested = true
		rec.done = done
	}
	killSlot := 0
	for h := 0; h < opts.Herds; h++ {
		base := time.Second + time.Duration(h)*1500*time.Millisecond
		for m := 0; m < opts.HerdSize; m++ {
			cl := subs[moveRnd.Intn(len(subs))]
			target := hosts[moveRnd.Intn(len(hosts))]
			if killSlot < opts.Kills && h == m%max(1, opts.Herds) {
				// One movement per kill slot is redirected at a doomed
				// leaf coordinator; the kill fires mid-protocol.
				victim := victims[killSlot]
				killSlot++
				target = victim
				at(base+40*time.Millisecond, func() {
					if err := in.Crash(victim); err == nil {
						res.Kills++
					}
				})
			}
			at(base, func() { requestMove(cl, target) })
		}
	}

	partRnd := rnd.DeriveRand("partitions")
	edges := overlayEdges(top)
	for p := 0; p < opts.Partitions && len(edges) > 0; p++ {
		e := edges[partRnd.Intn(len(edges))]
		if isVictim[e[0]] || isVictim[e[1]] {
			continue // victims die on their own schedule
		}
		base := 500*time.Millisecond + time.Duration(p)*800*time.Millisecond
		at(base, func() {
			if err := in.PartitionFor(e[0], e[1], opts.PartitionHold); err == nil {
				res.Partitions++
			}
		})
		if end := base + opts.PartitionHold; start.Add(end).After(last) {
			last = start.Add(end)
		}
	}

	// --- execution -------------------------------------------------------
	horizon := last.Sub(vc.Now()) + opts.MoveTimeout + opts.Tail
	res.Events += vc.RunFor(horizon)
	if res.Events > opts.MaxEvents {
		return nil, fmt.Errorf("event cap exceeded: %d events (cap %d)", res.Events, opts.MaxEvents)
	}
	res.VirtualElapsed = vc.Now().Sub(start)

	for _, rec := range recs {
		res.MovesRequested++
		if !rec.out.Requested {
			res.Refused++
			rec.out.Resolved = true
			res.Moves = append(res.Moves, rec.out)
			continue
		}
		select {
		case err := <-rec.done:
			rec.out.Resolved = true
			rec.out.Err = err
			if err == nil {
				res.Committed++
			} else {
				res.Aborted++
			}
		default:
			res.Unresolved++
		}
		res.Moves = append(res.Moves, rec.out)
	}

	// Snapshot and hash before the auditor re-sorts the records, and
	// before Stop appends teardown noise.
	res.Journal = jnl.Snapshot()
	res.Records = len(res.Journal)
	res.Dropped = jnl.Dropped()
	res.Hash = HashRecords(res.Journal)
	res.Report = audit.Audit(res.Journal)
	return res, nil
}

// HashRecords returns the SHA-256 over the canonical JSONL encoding of the
// records — the byte-identity witness for determinism checks.
func HashRecords(recs []journal.Record) string {
	h := sha256.New()
	for _, r := range recs {
		writeRecord(h, r)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func writeRecord(h hash.Hash, r journal.Record) {
	b, _ := json.Marshal(r)
	h.Write(b)
	h.Write([]byte{'\n'})
}

// overlayEdges lists the topology's undirected edges in deterministic
// order (both endpoints sorted).
func overlayEdges(top *overlay.Topology) [][2]message.BrokerID {
	var out [][2]message.BrokerID
	for _, a := range top.Brokers() {
		for _, b := range top.Neighbors(a) {
			if a < b {
				out = append(out, [2]message.BrokerID{a, b})
			}
		}
	}
	return out
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
