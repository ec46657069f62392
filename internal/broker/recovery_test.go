package broker

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"padres/internal/matching"
	"padres/internal/message"
	"padres/internal/metrics"
	"padres/internal/predicate"
	"padres/internal/replication"
	"padres/internal/store"
	"padres/internal/transport"
)

// durableRig is one durable broker — b2 of a b1-b2-b3 line whose links are
// absent, so forwards toward either neighbor update the sent-sets and then
// drop — started on a network of its own, so a successor can reopen its
// directory.
type durableRig struct {
	t   *testing.T
	b   *Broker
	reg *metrics.Registry

	mu      sync.Mutex
	control []message.Message
}

func openDurable(t *testing.T, dir string, repl *replication.Config) *durableRig {
	t.Helper()
	r := &durableRig{t: t, reg: metrics.NewRegistry()}
	net := transport.NewNetwork(r.reg)
	b, err := New(Config{
		ID: "b2", Net: net, DataDir: dir, SnapshotEvery: -1,
		Neighbors:            []message.BrokerID{"b1", "b3"},
		NextHops:             map[message.BrokerID]message.BrokerID{"b1": "b1", "b3": "b3"},
		RecoveryQueryTimeout: time.Hour,
		Replication:          repl,
	})
	if err != nil {
		t.Fatal(err)
	}
	b.SetControlSink(func(env message.Envelope) {
		r.mu.Lock()
		defer r.mu.Unlock()
		r.control = append(r.control, env.Msg)
	})
	r.b = b
	b.Start()
	t.Cleanup(func() {
		b.Stop()
		net.Close()
	})
	return r
}

// inject delivers messages as if from the given node and waits for the
// broker to finish everything they caused.
func (r *durableRig) inject(from message.NodeID, msgs ...message.Message) {
	r.t.Helper()
	for _, m := range msgs {
		r.b.Inject(from, m)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := r.reg.AwaitQuiescent(ctx); err != nil {
		r.t.Fatalf("broker did not quiesce: %v (inflight=%d)", err, r.reg.Inflight())
	}
}

func (r *durableRig) controlCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.control)
}

// TestCheckpointKeepsFencesAndReplicas: a replicating broker's lease fences
// and replicated decisions must survive a checkpoint followed by a restart.
// A checkpoint deletes the log that held them, so they live on only if the
// snapshot carries them.
func TestCheckpointKeepsFencesAndReplicas(t *testing.T) {
	dir := t.TempDir()
	repl := &replication.Config{Enabled: true, LeaseTimeout: time.Hour}
	hdr := message.MoveHeader{Tx: "tx1", Client: "mover", Source: "b2", Target: "b9"}

	r := openDurable(t, dir, repl)
	r.inject("b1",
		message.ReplicateDecision{MoveHeader: hdr, Outcome: store.PhaseCommitted, Gen: 3, Origin: "b9", Replica: "b2"},
		message.LeaseClaim{MoveHeader: hdr, Gen: 7, Claimant: "b8", Replica: "b2"})
	if err := r.b.DurableStore().Checkpoint(); err != nil {
		t.Fatal(err)
	}
	r.b.Stop()

	r = openDurable(t, dir, repl)
	if !r.b.DurableStore().Recovery().SnapshotLoaded {
		t.Fatal("restart did not recover from the checkpoint's snapshot")
	}
	if got := r.b.repl.FenceGen(hdr.Tx); got != 7 {
		t.Errorf("fence generation after checkpoint + restart = %d, want 7", got)
	}
	if got := r.b.repl.HeldDecisions(); got != 1 {
		t.Errorf("held replica decisions after checkpoint + restart = %d, want 1", got)
	}
	r.inject("b3", message.MoveAck{MoveHeader: hdr, Gen: 6})
	if n := r.controlCount(); n != 0 {
		t.Fatalf("an acknowledgement below the fence reached the coordinator (%d delivered)", n)
	}
	r.inject("b3", message.MoveAck{MoveHeader: hdr, Gen: 7})
	if n := r.controlCount(); n != 1 {
		t.Fatalf("an acknowledgement at the fence generation was not delivered (%d delivered)", n)
	}
}

// durableState is everything of a broker that recovery must reproduce.
type durableState struct {
	SRT, PRT           map[string]string
	SentSubs, SentAdvs map[string][]message.NodeID
	Prepared           int
}

func tableRows(recs []*matching.Record) map[string]string {
	rows := make(map[string]string, len(recs))
	for _, r := range recs {
		rows[r.ID] = fmt.Sprintf("%s %s via %s", r.Client, r.Filter, r.LastHop)
	}
	return rows
}

func sentRows[ID ~string](s *sentSet[ID]) map[string][]message.NodeID {
	s.b.mu.Lock()
	ids := make([]ID, 0, len(s.to))
	for id := range s.to {
		ids = append(ids, id)
	}
	s.b.mu.Unlock()
	rows := make(map[string][]message.NodeID)
	for _, id := range ids {
		if hops := s.targets(id); len(hops) > 0 {
			rows[string(id)] = hops
		}
	}
	return rows
}

func stateOf(b *Broker) durableState {
	return durableState{
		SRT: tableRows(b.SRTSnapshot()), PRT: tableRows(b.PRTSnapshot()),
		SentSubs: sentRows(b.sentSubs), SentAdvs: sentRows(b.sentAdvs),
		Prepared: b.ReconfigCount(),
	}
}

// walFrames splits a log file into its frames, headers included, and
// decodes each frame's op.
func walFrames(t *testing.T, path string) (frames [][]byte, ops []store.Op) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for len(data) > 0 {
		end := 8 + int(binary.LittleEndian.Uint32(data))
		var rec store.Record
		if err := json.Unmarshal(data[8:end], &rec); err != nil {
			t.Fatal(err)
		}
		frames, ops = append(frames, data[:end]), append(ops, rec.Op)
		data = data[end:]
	}
	return frames, ops
}

// TestDecisionIdempotentAtEveryCrashPoint: commit and abort have one
// implementation each, shared by dispatch and recovery. For a prepared
// movement whose entries mix records already present here with new ones,
// a crash after the decision record and any number k of its table
// mutations, followed by recovery, must end in the state of the
// uninterrupted run.
func TestDecisionIdempotentAtEveryCrashPoint(t *testing.T) {
	f := predicate.MustParse
	hdr := message.MoveHeader{Tx: "tx1", Client: "mover", Source: "b1", Target: "b3"}
	decisions := map[store.Op]message.Message{
		store.OpTxCommit: message.MoveAck{MoveHeader: hdr, Reconfigure: true},
		store.OpTxAbort:  message.MoveAbort{MoveHeader: hdr, To: "b1", Reconfigure: true},
	}
	for op, decision := range decisions {
		t.Run(string(op), func(t *testing.T) {
			dir := t.TempDir()
			r := openDurable(t, dir, nil)
			// The mover sits behind b1 with one subscription and one
			// advertisement routed through here; another client's
			// subscription behind b1 intersects the advertisement the mover
			// will carry to b3, so prepare forwards it there.
			r.inject("b3", message.Advertise{ID: "a-far", Client: "far", Filter: f("[x,>,0]")})
			r.inject("b1",
				message.Advertise{ID: "a-old", Client: "mover", Filter: f("[y,>,0]")},
				message.Subscribe{ID: "s-old", Client: "mover", Filter: f("[x,>,5]")},
				message.Subscribe{ID: "s-other", Client: "other", Filter: f("[y,>,9]")})
			r.inject("b3", message.MoveApprove{
				MoveHeader: hdr, Reconfigure: true,
				Subs: []message.SubEntry{{ID: "s-old", Filter: f("[x,>,5]")}, {ID: "s-new", Filter: f("[x,>,7]")}},
				Advs: []message.AdvEntry{{ID: "a-old", Filter: f("[y,>,0]")}, {ID: "a-new", Filter: f("[y,>,3]")}},
			})
			if got := r.b.ReconfigCount(); got != 1 {
				t.Fatalf("prepared transactions = %d, want 1", got)
			}
			r.inject("b3", decision)
			want := stateOf(r.b)
			r.b.Stop()
			if want.Prepared != 0 {
				t.Fatalf("the decision left %d transactions prepared", want.Prepared)
			}

			frames, ops := walFrames(t, filepath.Join(dir, "wal-0.log"))
			decided := -1
			for i, o := range ops {
				if o == op {
					decided = i
				}
			}
			if decided < 0 || ops[len(ops)-1] != store.OpTxDone || len(ops)-decided < 4 {
				t.Fatalf("log ops %v: want %s, its table mutations, then %s", ops, op, store.OpTxDone)
			}
			for k := decided + 1; k <= len(frames); k++ {
				crashed := t.TempDir()
				var prefix []byte
				for _, fr := range frames[:k] {
					prefix = append(prefix, fr...)
				}
				if err := os.WriteFile(filepath.Join(crashed, "wal-0.log"), prefix, 0o644); err != nil {
					t.Fatal(err)
				}
				rec := openDurable(t, crashed, nil)
				if got := stateOf(rec.b); !reflect.DeepEqual(got, want) {
					t.Errorf("crash after %d of %d mutations: recovered\n %+v\nwant\n %+v",
						k-decided-1, len(frames)-decided-2, got, want)
				}
			}
		})
	}
}

// parentClassification is the flipped / inserted split of a prepare payload
// that prepare records and snapshots carried before commit stopped reading
// it; parentPrepare, parentReconfig and parentSnapshot write it back in.
type parentClassification struct {
	Fsubs []string `json:"fsubs,omitempty"`
	Isubs []string `json:"isubs,omitempty"`
	Fadvs []string `json:"fadvs,omitempty"`
	Iadvs []string `json:"iadvs,omitempty"`
}

type parentPrepare struct {
	store.Record
	parentClassification
}

type parentReconfig struct {
	store.ReconfigRecord
	parentClassification
}

type parentSnapshot struct {
	store.Snapshot
	Reconfigs map[string]parentReconfig `json:"reconfigs,omitempty"`
}

// frameOf frames one JSON value the way the store does.
func frameOf(t *testing.T, v any) []byte {
	t.Helper()
	payload, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	hdr := make([]byte, 8)
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	return append(hdr, payload...)
}

// TestRecoversParentFormatDirectory: a data directory written before the
// classification fields were dropped still recovers — the snapshot's
// half-applied commit is finished and the log's prepare comes back in
// doubt, the extra fields ignored.
func TestRecoversParentFormatDirectory(t *testing.T) {
	fx, fy := predicate.MustParse("[x,>,5]"), predicate.MustParse("[y,>,0]")
	class := parentClassification{
		Fsubs: []string{"s-old"}, Isubs: []string{"s-new"},
		Fadvs: []string{"a-old"},
	}
	entries := func(ids ...string) (out []store.Entry) {
		for _, id := range ids {
			out = append(out, store.Entry{ID: id, Filter: fx})
		}
		return out
	}
	snap := parentSnapshot{
		Snapshot: store.Snapshot{
			Gen: 1,
			// tx-c committed; the crash came after s-old's shadow was
			// promoted and before anything else.
			PRT: []store.TableRecord{
				{ID: "s-old", Client: "mover", Filter: fx, LastHop: "b3"},
				{ID: "s-new~tx-c", Client: "mover", Filter: fx, LastHop: "b3"},
			},
			SRT: []store.TableRecord{
				{ID: "a-old", Client: "mover", Filter: fy, LastHop: "b1"},
				{ID: "a-old~tx-c", Client: "mover", Filter: fy, LastHop: "b3"},
			},
		},
		Reconfigs: map[string]parentReconfig{"tx-c": {
			ReconfigRecord: store.ReconfigRecord{
				Tx: "tx-c", Client: "mover", Source: "b1", Target: "b3", PreHop: "b1", SucHop: "b3",
				Phase: store.PhaseCommitted,
				Subs:  entries("s-old", "s-new"), Advs: []store.Entry{{ID: "a-old", Filter: fy}},
			},
			parentClassification: class,
		}},
	}
	prepare := parentPrepare{
		Record: store.Record{
			Op: store.OpTxPrepare, Tx: "tx-p", Client: "mover", Source: "b3", Target: "b1",
			PreHop: "b3", SucHop: "b1", Subs: entries("s-old"),
		},
		parentClassification: parentClassification{Fsubs: []string{"s-old"}},
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "snapshot-1.snap"), frameOf(t, snap), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "wal-1.log"), frameOf(t, prepare), 0o644); err != nil {
		t.Fatal(err)
	}

	r := openDurable(t, dir, nil)
	rec := r.b.DurableStore().Recovery()
	if !rec.SnapshotLoaded || rec.WALRecords != 1 || rec.TruncatedBytes != 0 {
		t.Fatalf("recovery = %+v, want the snapshot and its one log record intact", rec)
	}
	wantPRT := map[string]message.NodeID{"s-old": "b3", "s-new": "b3", "s-old~tx-p": "b1"}
	if got := prtIDs(r.b); !reflect.DeepEqual(got, wantPRT) {
		t.Errorf("PRT = %v, want %v", got, wantPRT)
	}
	wantSRT := map[string]message.NodeID{"a-old": "b3"}
	if got := srtIDs(r.b); !reflect.DeepEqual(got, wantSRT) {
		t.Errorf("SRT = %v, want %v", got, wantSRT)
	}
	if got := r.b.ReconfigCount(); got != 1 {
		t.Errorf("prepared transactions = %d, want tx-p alone", got)
	}
	if got := r.b.InDoubtCount(); got != 1 {
		t.Errorf("in-doubt transactions = %d, want tx-p queued for query", got)
	}
}
