package message

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime/metrics"
	"strings"
	"testing"

	"padres/internal/israce"
	"padres/internal/predicate"
	"padres/internal/wire"
)

// Tests of the stream codec's receiver-side state: the Decoder interns
// strings and reuses (and gives back) its read buffer, and none of that may
// show in what it returns. The reference throughout is the stateless
// Marshal/Unmarshal pair and reflect.DeepEqual on whole envelopes.

// goldenEnvelopes returns one envelope of every Kind with every field set.
// The frames under testdata/golden_v1 are these envelopes as marshalled by
// the commit before the interning decoder (8fbc0c4), one file per kind.
func goldenEnvelopes() []Envelope {
	f := predicate.MustParse("[class,=,'stock'],[price,>,100],[symbol,str-prefix,'IB']")
	g := predicate.MustParse("[volume,<=,5000]")
	hdr := MoveHeader{Tx: "mv-b2-x1", Client: "c7", Source: "b2", Target: "b14"}
	ev := predicate.Event{"class": predicate.String("stock"), "price": predicate.Number(150.25), "symbol": predicate.String("IBM")}
	msgs := []Message{
		Advertise{ID: "c7-a1", Client: "c7", Filter: f, TxTag: "mv-b2-x1"},
		Unadvertise{ID: "c7-a1", Client: "c7", TxTag: "mv-b2-x1"},
		Subscribe{ID: "c7-s1", Client: "c7", Filter: f, TxTag: "mv-b2-x1"},
		Unsubscribe{ID: "c7-s1", Client: "c7", TxTag: "mv-b2-x1"},
		Publish{ID: "c7-p42", Client: "c7", Event: ev, TxTag: "mv-b2-x1"},
		MoveNegotiate{MoveHeader: hdr, Subs: []SubEntry{{ID: "c7-s1", Filter: f}, {ID: "c7-s2", Filter: g}}, Advs: []AdvEntry{{ID: "c7-a1", Filter: g}}},
		MoveApprove{MoveHeader: hdr, Subs: []SubEntry{{ID: "c7-s1", Filter: f}}, Advs: []AdvEntry{{ID: "c7-a1", Filter: g}}, Reconfigure: true},
		MoveReject{MoveHeader: hdr, Reason: "overloaded"},
		MoveState{MoveHeader: hdr, Buffered: []Publish{{ID: "c9-p1", Client: "c9", Event: ev}, {ID: "c9-p2", Client: "c9"}}, AppState: []byte("state\x00\xff")},
		MoveAck{MoveHeader: hdr, Reconfigure: true, Gen: 3},
		MoveAbort{MoveHeader: hdr, To: "b2", Reason: "timeout", Reconfigure: true},
		LinkAck{Cum: 1 << 40, Epoch: 9},
		MoveQuery{MoveHeader: hdr, From: "b5", At: "b9"},
		ReplicateDecision{MoveHeader: hdr, Outcome: "committed", Gen: 2, Origin: "b14", Replica: "b9", Hint: "b5", Release: true},
		ReplicaAck{MoveHeader: hdr, Gen: 2, Replica: "b9", To: "b14", Outcome: "aborted", Grant: true},
		LeaseClaim{MoveHeader: hdr, Gen: 5, Claimant: "b9", Replica: "b4"},
		StandbyResolve{MoveHeader: hdr, Outcome: "committed", Gen: 5, Claimant: "b9", To: "b2"},
	}
	envs := make([]Envelope, len(msgs))
	for i, m := range msgs {
		envs[i] = Envelope{From: "b2", Msg: m, Trace: TraceID("pub:c7-p42"), Lamport: 1 << 33, Seq: uint64(i)}
	}
	return envs
}

// decodeStream reads every envelope of a stream through one Decoder.
func decodeStream(t testing.TB, stream []byte) []Envelope {
	t.Helper()
	dec := NewDecoder(bytes.NewReader(stream))
	var out []Envelope
	for {
		env, err := dec.Decode()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("Decode of envelope %d: %v", len(out), err)
		}
		out = append(out, env)
	}
}

// TestGoldenFramesBothWays is the wire-compatibility check: the parent
// commit's frames decode — statelessly and through one interning Decoder
// reading all of them back to back — to exactly the envelopes they were
// made from, and this commit marshals those envelopes to the same bytes,
// so the parent decodes what this commit sends.
func TestGoldenFramesBothWays(t *testing.T) {
	envs := goldenEnvelopes()
	if len(envs) != len(kindNames) {
		t.Fatalf("golden set has %d envelopes, there are %d kinds", len(envs), len(kindNames))
	}
	var stream []byte
	for _, want := range envs {
		k := want.Msg.Kind()
		frame, err := os.ReadFile(filepath.Join("testdata", "golden_v1", k.String()+".frame"))
		if err != nil {
			t.Fatal(err)
		}
		got, err := Unmarshal(frame)
		if err != nil {
			t.Fatalf("%v: Unmarshal of the parent's frame: %v", k, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v: parent's frame unmarshals to\n%+v\nwant\n%+v", k, got, want)
		}
		ours, err := Marshal(want)
		if err != nil {
			t.Fatalf("%v: Marshal: %v", k, err)
		}
		if !bytes.Equal(ours, frame) {
			t.Errorf("%v: frame differs from the parent's\n got %x\nwant %x", k, ours, frame)
		}
		stream = append(stream, frame...)
	}
	if got := decodeStream(t, stream); !reflect.DeepEqual(got, envs) {
		t.Errorf("parent's frames through one Decoder:\n%+v\nwant\n%+v", got, envs)
	}
}

// envGen draws random envelopes in canonical form — what a decode yields:
// nil, never empty, for an absent event, filter list, buffer or state.
// Strings come from small pools so the interner sees hits, misses, and
// (with the numbered tail) more distinct strings than it will hold.
type envGen struct {
	r       *rand.Rand
	filters []*predicate.Filter
}

func newEnvGen(seed int64) *envGen {
	g := &envGen{r: rand.New(rand.NewSource(seed))}
	for len(g.filters) < 64 {
		var preds []predicate.Predicate
		for i, n := 0, 1+g.r.Intn(3); i < n; i++ {
			attr := g.str("attr", 6)
			if g.r.Intn(2) == 0 {
				preds = append(preds, predicate.Predicate{Attr: attr, Op: predicate.OpEq, Value: predicate.String(g.str("v", 8))})
			} else {
				op := []predicate.Op{predicate.OpLt, predicate.OpLe, predicate.OpGt, predicate.OpGe}[g.r.Intn(4)]
				preds = append(preds, predicate.Predicate{Attr: attr, Op: op, Value: predicate.Number(float64(g.r.Intn(1000)) / 4)})
			}
		}
		if f, err := predicate.NewFilter(preds...); err == nil { // unsatisfiable draws are redrawn
			g.filters = append(g.filters, f)
		}
	}
	return g
}

// str draws "<prefix><i>", i mostly below pool and sometimes from a range
// far wider than the intern table; one draw in sixteen is empty.
func (g *envGen) str(prefix string, pool int) string {
	switch g.r.Intn(16) {
	case 0:
		return ""
	case 1:
		return prefix + fmt.Sprint(g.r.Intn(1<<20))
	case 2:
		return prefix + strings.Repeat("x", 60+g.r.Intn(10)) // straddles the interner's length limit
	}
	return prefix + fmt.Sprint(g.r.Intn(pool))
}

func (g *envGen) filter() *predicate.Filter {
	if g.r.Intn(8) == 0 {
		return nil
	}
	return g.filters[g.r.Intn(len(g.filters))]
}

func (g *envGen) event() predicate.Event {
	n := g.r.Intn(5)
	if g.r.Intn(32) == 0 {
		n = 9 + g.r.Intn(4) // past AppendEvent's stack array
	}
	if n == 0 {
		return nil
	}
	e := make(predicate.Event, n)
	for len(e) < n {
		attr := g.str("attr", 2*n)
		if g.r.Intn(2) == 0 {
			e[attr] = predicate.String(g.str("v", 8))
		} else {
			e[attr] = predicate.Number(g.r.NormFloat64() * 1e3)
		}
	}
	return e
}

func (g *envGen) publish() Publish {
	return Publish{ID: PubID(g.str("p", 1<<20)), Client: ClientID(g.str("c", 4)), Event: g.event(), TxTag: TxID(g.str("mv", 2))}
}

func (g *envGen) header() MoveHeader {
	return MoveHeader{Tx: TxID(g.str("mv", 100)), Client: ClientID(g.str("c", 4)), Source: g.broker(), Target: g.broker()}
}

func (g *envGen) broker() BrokerID { return BrokerID(g.str("b", 14)) }

func (g *envGen) subs() []SubEntry {
	var out []SubEntry
	for i, n := 0, g.r.Intn(3); i < n; i++ {
		out = append(out, SubEntry{ID: SubID(g.str("s", 50)), Filter: g.filter()})
	}
	return out
}

func (g *envGen) advs() []AdvEntry {
	var out []AdvEntry
	for i, n := 0, g.r.Intn(3); i < n; i++ {
		out = append(out, AdvEntry{ID: AdvID(g.str("a", 50)), Filter: g.filter()})
	}
	return out
}

func (g *envGen) message(k Kind) Message {
	switch k {
	case KindAdvertise:
		return Advertise{ID: AdvID(g.str("a", 50)), Client: ClientID(g.str("c", 4)), Filter: g.filter(), TxTag: TxID(g.str("mv", 2))}
	case KindUnadvertise:
		return Unadvertise{ID: AdvID(g.str("a", 50)), Client: ClientID(g.str("c", 4)), TxTag: TxID(g.str("mv", 2))}
	case KindSubscribe:
		return Subscribe{ID: SubID(g.str("s", 50)), Client: ClientID(g.str("c", 4)), Filter: g.filter(), TxTag: TxID(g.str("mv", 2))}
	case KindUnsubscribe:
		return Unsubscribe{ID: SubID(g.str("s", 50)), Client: ClientID(g.str("c", 4)), TxTag: TxID(g.str("mv", 2))}
	case KindPublish:
		return g.publish()
	case KindMoveNegotiate:
		return MoveNegotiate{MoveHeader: g.header(), Subs: g.subs(), Advs: g.advs()}
	case KindMoveApprove:
		return MoveApprove{MoveHeader: g.header(), Subs: g.subs(), Advs: g.advs(), Reconfigure: g.r.Intn(2) == 0}
	case KindMoveReject:
		return MoveReject{MoveHeader: g.header(), Reason: g.str("reason", 3)}
	case KindMoveState:
		m := MoveState{MoveHeader: g.header()}
		for i, n := 0, g.r.Intn(4); i < n; i++ {
			m.Buffered = append(m.Buffered, g.publish())
		}
		if n := g.r.Intn(64); n > 0 {
			m.AppState = make([]byte, n)
			g.r.Read(m.AppState)
		}
		return m
	case KindMoveAck:
		return MoveAck{MoveHeader: g.header(), Reconfigure: g.r.Intn(2) == 0, Gen: g.r.Uint64() >> uint(g.r.Intn(64))}
	case KindMoveAbort:
		return MoveAbort{MoveHeader: g.header(), To: g.broker(), Reason: g.str("reason", 3), Reconfigure: g.r.Intn(2) == 0}
	case KindLinkAck:
		return LinkAck{Cum: g.r.Uint64() >> uint(g.r.Intn(64)), Epoch: uint64(g.r.Intn(5))}
	case KindMoveQuery:
		return MoveQuery{MoveHeader: g.header(), From: g.broker(), At: g.broker()}
	case KindReplicateDecision:
		return ReplicateDecision{MoveHeader: g.header(), Outcome: g.str("outcome", 2), Gen: uint64(g.r.Intn(9)), Origin: g.broker(), Replica: g.broker(), Hint: g.broker(), Release: g.r.Intn(2) == 0}
	case KindReplicaAck:
		return ReplicaAck{MoveHeader: g.header(), Gen: uint64(g.r.Intn(9)), Replica: g.broker(), To: g.broker(), Outcome: g.str("outcome", 2), Grant: g.r.Intn(2) == 0}
	case KindLeaseClaim:
		return LeaseClaim{MoveHeader: g.header(), Gen: uint64(g.r.Intn(9)), Claimant: g.broker(), Replica: g.broker()}
	case KindStandbyResolve:
		return StandbyResolve{MoveHeader: g.header(), Outcome: g.str("outcome", 2), Gen: uint64(g.r.Intn(9)), Claimant: g.broker(), To: g.broker()}
	}
	panic(fmt.Sprintf("no generator for kind %v", k))
}

// envelope draws a publication half the time — the stream the interner is
// for — and one of the other kinds, uniformly, the other half.
func (g *envGen) envelope() Envelope {
	k := KindPublish
	if g.r.Intn(2) == 0 {
		k = Kind(1 + g.r.Intn(len(kindNames)))
	}
	return Envelope{
		From:    NodeID(g.str("b", 14)),
		Msg:     g.message(k),
		Trace:   TraceID(g.str("pub:", 1<<20)),
		Lamport: g.r.Uint64() >> uint(g.r.Intn(64)),
		Seq:     uint64(g.r.Intn(3)),
	}
}

// TestCodecRoundTripProperty is the million-envelope round trip: seeded
// random envelopes of every kind go through Encoder→Decoder as one long
// stream per seed — so the Decoder's intern table and read buffer carry
// state from each envelope into the next — and through Marshal→Unmarshal,
// and both must return exactly (reflect.DeepEqual) what went in.
func TestCodecRoundTripProperty(t *testing.T) {
	total, perStream := 1_000_000, 20_000
	if testing.Short() || israce.Enabled {
		total = 50_000 // the race detector slows this 10x and finds nothing a stream of 50k does not
	}
	seen := make(map[Kind]int)
	for seed := int64(1); seed <= int64(total/perStream); seed++ {
		g := newEnvGen(seed)
		var stream bytes.Buffer
		enc := NewEncoder(&stream)
		dec := NewDecoder(&stream)
		for i := 0; i < perStream; i++ {
			want := g.envelope()
			seen[want.Msg.Kind()]++
			if err := enc.Encode(want); err != nil {
				t.Fatalf("seed %d envelope %d: Encode: %v", seed, i, err)
			}
			var frame []byte
			if i%8 == 0 { // the stateless path has no state to go wrong: sample it
				frame = append(frame, stream.Bytes()...)
			}
			got, err := dec.Decode()
			if err != nil {
				t.Fatalf("seed %d envelope %d: Decode: %v", seed, i, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d envelope %d: stream round trip\n got %+v\nwant %+v", seed, i, got, want)
			}
			if frame == nil {
				continue
			}
			if got, err = Unmarshal(frame); err != nil {
				t.Fatalf("seed %d envelope %d: Unmarshal: %v", seed, i, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d envelope %d: Marshal round trip\n got %+v\nwant %+v", seed, i, got, want)
			}
		}
		if n := dec.in.Len(); n > wire.InternCap {
			t.Fatalf("seed %d: intern table holds %d strings, cap %d", seed, n, wire.InternCap)
		}
	}
	for k := range kindNames {
		if seen[k] == 0 {
			t.Errorf("no %v envelope was generated", k)
		}
	}
}

// TestDecoderDoesNotAliasReadBuffer scribbles over the Decoder's buffer
// between two decodes: nothing the first envelope holds may change, and the
// second must still decode.
func TestDecoderDoesNotAliasReadBuffer(t *testing.T) {
	for _, first := range goldenEnvelopes() {
		second := Envelope{From: "b3", Msg: Publish{ID: "q1", Client: "c8", Event: predicate.Event{"k": predicate.String("v")}}}
		var stream bytes.Buffer
		enc := NewEncoder(&stream)
		for _, env := range []Envelope{first, second} {
			if err := enc.Encode(env); err != nil {
				t.Fatal(err)
			}
		}
		dec := NewDecoder(&stream)
		got, err := dec.Decode()
		if err != nil {
			t.Fatal(err)
		}
		buf := dec.buf[:cap(dec.buf)]
		for i := range buf {
			buf[i] = 0xAA
		}
		if !reflect.DeepEqual(got, first) {
			t.Errorf("%v: envelope changed when the read buffer was overwritten:\n got %+v\nwant %+v", first.Msg.Kind(), got, first)
		}
		if got, err = dec.Decode(); err != nil || !reflect.DeepEqual(got, second) {
			t.Errorf("%v: decode after it = %+v, %v; want %+v", first.Msg.Kind(), got, err, second)
		}
	}
}

// TestInternTableStopsAtCap streams three times as many distinct strings
// as the table will hold, then the first ones again: the table stops
// growing at its cap, and every envelope — interned or not — decodes right.
func TestInternTableStopsAtCap(t *testing.T) {
	var stream bytes.Buffer
	enc := NewEncoder(&stream)
	dec := NewDecoder(&stream)
	pub := func(i int) Envelope {
		return Envelope{From: NodeID(fmt.Sprint("b", i)), Msg: Publish{
			ID: "p", Client: ClientID(fmt.Sprint("c", i)), TxTag: TxID(fmt.Sprint("mv", i)),
			Event: predicate.Event{fmt.Sprint("attr", i): predicate.String(fmt.Sprint("v", i)), "n": predicate.Number(float64(i))},
		}}
	}
	check := func(i int) {
		t.Helper()
		want := pub(i)
		if err := enc.Encode(want); err != nil {
			t.Fatal(err)
		}
		got, err := dec.Decode()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("envelope %d with %d strings interned:\n got %+v\nwant %+v", i, dec.in.Len(), got, want)
		}
	}
	for i := 0; i < 3*wire.InternCap; i++ {
		check(i)
		if n := dec.in.Len(); n > wire.InternCap {
			t.Fatalf("intern table holds %d strings after %d envelopes, cap %d", n, i+1, wire.InternCap)
		}
	}
	if n := dec.in.Len(); n != wire.InternCap {
		t.Errorf("intern table holds %d strings, want it full at %d", n, wire.InternCap)
	}
	for i := 0; i < 10; i++ {
		check(i)
	}
}

// TestDecoderGivesBackLargeBuffer reads one movement-state frame of a few
// megabytes and then small frames: the Decoder must not keep the large
// buffer for the life of the connection.
func TestDecoderGivesBackLargeBuffer(t *testing.T) {
	var stream bytes.Buffer
	enc := NewEncoder(&stream)
	dec := NewDecoder(&stream)
	big := Envelope{From: "b1", Msg: MoveState{MoveHeader: MoveHeader{Tx: "mv1"}, AppState: make([]byte, 3<<20)}}
	small := Envelope{From: "b1", Msg: Publish{ID: "p1", Client: "c1"}}
	for _, env := range []Envelope{big, small, small} {
		if err := enc.Encode(env); err != nil {
			t.Fatal(err)
		}
	}
	if got, err := dec.Decode(); err != nil || !reflect.DeepEqual(got, big) {
		t.Fatalf("large frame: err %v, equal %v", err, reflect.DeepEqual(got, big))
	}
	if cap(dec.buf) < 3<<20 {
		t.Fatalf("buffer is %d bytes after a 3 MB frame", cap(dec.buf))
	}
	for i := 0; i < 2; i++ {
		if got, err := dec.Decode(); err != nil || !reflect.DeepEqual(got, small) {
			t.Fatalf("small frame %d = %+v, %v", i, got, err)
		}
		if cap(dec.buf) > 4<<10 {
			t.Errorf("buffer is still %d bytes after small frame %d", cap(dec.buf), i)
		}
	}
}

// publishStream returns n frames of a 3-attribute publication stream as
// tcp_chain carries it: everything repeats but the PubID and one value.
func publishStream(t testing.TB, n int) ([]byte, []Envelope) {
	t.Helper()
	var stream bytes.Buffer
	enc := NewEncoder(&stream)
	envs := make([]Envelope, n)
	for i := range envs {
		envs[i] = Envelope{From: "b2", Msg: Publish{ID: PubID(fmt.Sprint("pub-p", i)), Client: "pub", Event: predicate.Event{
			"class": predicate.String("t"), "x": predicate.Number(float64(i)), "y": predicate.Number(3),
		}}}
		if err := enc.Encode(envs[i]); err != nil {
			t.Fatal(err)
		}
	}
	return stream.Bytes(), envs
}

// TestPublishStreamAllocBudgets pins the publication path's codec cost
// between benchmark runs: a steady-state Publish decodes in at most 4
// allocations (its PubID, the event map's header and its one group, the
// Message box) and encodes in none.
func TestPublishStreamAllocBudgets(t *testing.T) {
	if israce.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	const runs = 1000
	stream, envs := publishStream(t, runs+2) // AllocsPerRun makes one warm-up call
	dec := NewDecoder(bytes.NewReader(stream))
	if _, err := dec.Decode(); err != nil { // fills the intern table
		t.Fatal(err)
	}
	var derr error
	if got := testing.AllocsPerRun(runs, func() {
		if _, err := dec.Decode(); err != nil {
			derr = err
		}
	}); got > 4 {
		t.Errorf("steady-state Publish decode allocates %.1f times, budget 4", got)
	}
	if derr != nil {
		t.Fatal(derr)
	}
	enc := NewEncoder(io.Discard)
	if got := testing.AllocsPerRun(runs, func() {
		if err := enc.Encode(envs[0]); err != nil {
			derr = err
		}
	}); got != 0 {
		t.Errorf("steady-state Publish encode allocates %.1f times, budget 0", got)
	}
	if derr != nil {
		t.Fatal(derr)
	}
}

// heapAllocBytes is the process's cumulative heap allocation.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// FuzzDecode feeds hostile bytes to both decode paths. Neither may panic,
// and neither may allocate out of proportion to its input: a count or
// length prefix is honoured only as far as the bytes behind it go. The
// stream Decoder sizes its read buffer from the frame header before the
// body arrives, so its bound is the header's claim (itself at most
// maxFrame) rather than the input's length. Whatever decodes must survive a
// second trip unchanged.
func FuzzDecode(f *testing.F) {
	for _, env := range goldenEnvelopes() {
		frame, err := Marshal(env)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0x03}) // a header claiming maxFrame, no body
	f.Fuzz(func(t *testing.T, data []byte) {
		// A decoded map entry costs ~48 B for 2 B of frame; the slack absorbs
		// what the rest of the process (the fuzzing worker) allocates meanwhile.
		const perByte, slack = 64, 1 << 20
		before := heapAllocBytes()
		env, err := Unmarshal(data)
		if grew := heapAllocBytes() - before; grew > perByte*uint64(len(data))+slack {
			t.Fatalf("Unmarshal of %d bytes allocated %d", len(data), grew)
		}
		if err == nil {
			again, err := Marshal(env)
			if err != nil {
				t.Fatalf("Marshal of a decoded envelope: %v", err)
			}
			back, err := Unmarshal(again)
			if err != nil {
				t.Fatalf("Unmarshal of a re-marshalled envelope: %v", err)
			}
			// NaN attribute values decode fine and never compare equal;
			// the bytes, which are canonical, must.
			if final, _ := Marshal(back); !bytes.Equal(final, again) {
				t.Fatalf("second round trip changed the frame:\n%x\n%x", again, final)
			}
		}
		var claimed uint64
		dec := NewDecoder(bytes.NewReader(data))
		before = heapAllocBytes()
		for {
			if _, err := dec.Decode(); err != nil {
				break
			}
		}
		for rest := data; len(rest) >= 4; {
			n := uint64(rest[0]) | uint64(rest[1])<<8 | uint64(rest[2])<<16 | uint64(rest[3])<<24
			if n > maxFrame {
				break
			}
			claimed += n
			if uint64(len(rest)-4) < n {
				break
			}
			rest = rest[4+n:]
		}
		if grew := heapAllocBytes() - before; grew > claimed+perByte*uint64(len(data))+slack {
			t.Fatalf("Decoder over %d bytes (frames claiming %d) allocated %d", len(data), claimed, grew)
		}
	})
}
