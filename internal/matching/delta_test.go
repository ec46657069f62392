package matching

import (
	"fmt"
	"math/rand"
	"testing"

	"padres/internal/israce"
	"padres/internal/message"
	"padres/internal/predicate"
)

// Tests of the base + delta match index (index.go): a differential walk
// against brute force that must pass through every state the index has, and
// mechanism tests that pin what a write may cost the next match.

// deltaWalk drives one PRT and a mirror of it through seeded random steps.
type deltaWalk struct {
	t      *testing.T
	r      *rand.Rand
	prt    *PRT
	mirror map[string]*Record // what the table must hold: Filter and LastHop
	ids    []string           // mirror's keys, for a seeded pick
	nextID int
	buf    []*Record

	reused, underDelta, lockFree int
}

func (w *deltaWalk) insert(id string) {
	f, hop := diffFilter(w.r), message.NodeID(fmt.Sprintf("hop%d", w.r.Intn(4)))
	if _, ok := w.mirror[id]; !ok {
		w.ids = append(w.ids, id)
	}
	w.mirror[id] = &Record{ID: id, Filter: f, LastHop: hop}
	w.prt.Insert(message.SubID(id), "c", f, hop)
	// A slot the base still holds a dead record in, handed to a new one.
	tb := w.prt.t
	if s := int(tb.records[id].slot); tb.base != nil && s < len(tb.base.recs) && tb.base.recs[s] != nil {
		w.reused++
	}
}

func (w *deltaWalk) write() {
	n := len(w.ids)
	// Hold the table between 32 and 128 records, so 64 writes always cross
	// the limit and a brute-force match stays cheap.
	switch op := w.r.Intn(10); {
	case n < 32 || (op < 4 && n < 128):
		w.insert(fmt.Sprintf("s%d", w.nextID))
		w.nextID++
	case op < 6:
		w.insert(w.ids[w.r.Intn(n)]) // replace by ID
	case op < 7:
		id := w.ids[w.r.Intn(n)]
		hop := message.NodeID(fmt.Sprintf("flip%d", w.r.Intn(4)))
		if !w.prt.SetLastHop(message.SubID(id), hop) {
			w.t.Fatalf("SetLastHop(%s): record missing", id)
		}
		w.mirror[id].LastHop = hop
	default:
		i := w.r.Intn(n)
		id := w.ids[i]
		if w.prt.Remove(message.SubID(id)) == nil {
			w.t.Fatalf("Remove(%s): record missing", id)
		}
		delete(w.mirror, id)
		w.ids[i] = w.ids[n-1]
		w.ids = w.ids[:n-1]
	}
}

func (w *deltaWalk) read(step int) {
	if tb := w.prt.t; tb.snap.Load() != nil {
		w.lockFree++
	} else if tb.base != nil {
		w.underDelta++
	}
	e := diffEvent(w.r)
	var want []string
	for _, id := range w.ids {
		if w.mirror[id].Filter.Matches(e) {
			want = append(want, id)
		}
	}
	sortStringsAsc(want)
	if w.r.Intn(4) == 0 {
		if got := w.prt.MatchAny(e); got != (len(want) > 0) {
			w.t.Fatalf("step %d: MatchAny(%v) = %v, brute force finds %v", step, e, got, want)
		}
		return
	}
	w.buf = w.prt.MatchInto(e, w.buf[:0])
	if got := recIDs(w.buf); !sameIDs(got, want) {
		w.t.Fatalf("step %d: MatchInto(%v) = %v, brute force = %v", step, e, got, want)
	}
	for _, rec := range w.buf {
		if m := w.mirror[rec.ID]; rec.LastHop != m.LastHop || rec.Filter != m.Filter {
			w.t.Fatalf("step %d: matched %s with last hop %s, mirror has %s", step, rec.ID, rec.LastHop, m.LastHop)
		}
	}
}

// TestDeltaDifferential walks Insert / replace-by-ID / Remove / SetLastHop /
// MatchInto / MatchAny against brute-force Filter.Matches over a mirror, in
// stretches that only write (the delta crosses its limit and the base is
// dropped), only read (the delta is taxed until it is folded) or mix the
// two, and requires every one of those events, a match on each side of the
// lock, and a base slot reused while the base lived, to have happened.
func TestDeltaDifferential(t *testing.T) {
	steps, perTable := 1_000_000, 50_000
	if testing.Short() || israce.Enabled {
		steps = 50_000 // the race detector slows this 10x; one table still meets every case below
	}
	var builds, drops, folds, reused, underDelta, lockFree int
	for seed := int64(1); seed <= int64(steps/perTable); seed++ {
		w := &deltaWalk{t: t, r: rand.New(rand.NewSource(seed)), prt: NewPRT(), mirror: map[string]*Record{}}
		kind, phaseEnd := 0, 0
		for step := 0; step < perTable; step++ {
			if step == phaseEnd {
				kind = w.r.Intn(3)
				phaseEnd += 1 + w.r.Intn(400)
			}
			switch {
			case kind == 0, kind == 2 && w.r.Intn(2) == 0:
				w.write()
			default:
				w.read(step)
			}
		}
		tb := w.prt.t
		builds, drops, folds = builds+tb.builds, drops+tb.drops, folds+tb.folds
		reused, underDelta, lockFree = reused+w.reused, underDelta+w.underDelta, lockFree+w.lockFree
	}
	t.Logf("%d steps: %d builds, %d bases dropped by a write, %d deltas folded by a read, %d matches under a delta, %d lock-free, %d base slots reused",
		steps, builds, drops, folds, underDelta, lockFree, reused)
	if drops == 0 || folds == 0 || underDelta == 0 || lockFree == 0 || reused == 0 {
		t.Fatal("the walk missed a state of the index")
	}
	// Every build is the first, follows a drop or is a fold; a write alone
	// never builds.
	if tables := steps / perTable; builds > tables+drops+folds {
		t.Fatalf("%d builds for %d tables, %d drops and %d folds", builds, tables, drops, folds)
	}
}

// TestWriteCostsNextMatchNothing: on a 10 000-record table, the match after
// one Insert and the match after one Remove allocate nothing and build
// nothing — the write is a delta entry — and both see the write.
func TestWriteCostsNextMatchNothing(t *testing.T) {
	prt := benchPRT(t, 10_000)
	e := predicate.Event{"x": predicate.Number(5000)}
	buf := prt.MatchInto(e, make([]*Record, 0, 64))
	before := len(buf)
	if prt.IndexBuilds() != 1 {
		t.Fatalf("first match built the index %d times", prt.IndexBuilds())
	}
	matchAllocs := func() float64 {
		if israce.Enabled {
			return 0 // sync.Pool drops a share of its items under the detector
		}
		return testing.AllocsPerRun(100, func() { buf = prt.MatchInto(e, buf[:0]) })
	}

	prt.Insert("new", "c1", predicate.MustParse("[x,>,4999],[x,<,5001]"), "b2")
	if a := matchAllocs(); a != 0 {
		t.Errorf("match after an Insert: %v allocs/op, want 0", a)
	}
	if buf = prt.MatchInto(e, buf[:0]); len(buf) != before+1 {
		t.Errorf("match after an Insert found %d records, want %d", len(buf), before+1)
	}
	// Taking the delta back out leaves the base clean: lock-free again.
	prt.Remove("new")
	if tb := prt.t; tb.snap.Load() != tb.base || len(tb.adds) != 0 {
		t.Errorf("the insert undone: %d adds left, lock-free %v", len(tb.adds), tb.snap.Load() != nil)
	}

	prt.Remove("s4990")
	if a := matchAllocs(); a != 0 {
		t.Errorf("match after a Remove: %v allocs/op, want 0", a)
	}
	if buf = prt.MatchInto(e, buf[:0]); len(buf) != before-1 {
		t.Errorf("match after a Remove found %d records, want %d", len(buf), before-1)
	}
	if !prt.MatchAny(predicate.Event{"x": predicate.Number(4990.5)}) {
		t.Error("MatchAny lost the records around a removed one")
	}
	if n := prt.IndexBuilds(); n != 1 {
		t.Errorf("index built %d times across two writes, want 1", n)
	}
}

// TestMatchAnyIgnoresDeadBase: the only record that matches is removed after
// the base was built; MatchAny must not answer from the base alone.
func TestMatchAnyIgnoresDeadBase(t *testing.T) {
	prt := benchPRT(t, 100)
	prt.Insert("lone", "c1", predicate.MustParse("[y,=,1]"), "b2")
	e := predicate.Event{"y": predicate.Number(1)}
	if !prt.MatchAny(e) {
		t.Fatal("MatchAny missed the record")
	}
	prt.Remove("lone")
	if prt.MatchAny(e) || len(prt.Match(e)) != 0 {
		t.Fatal("a removed record still matches")
	}
	prt.Insert("lone2", "c1", predicate.MustParse("[y,=,1]"), "b2")
	if !prt.MatchAny(e) {
		t.Fatal("MatchAny missed a record inserted since the base was built")
	}
}

// TestWriteBurstDoesNoIndexWork: writes with no match between them cost the
// index a compare and an append until the delta crosses its limit, then
// nothing — no build, no delta, whether or not a base existed.
func TestWriteBurstDoesNoIndexWork(t *testing.T) {
	burst := func(prt *PRT) {
		for i := 0; i < 1000; i++ {
			prt.Insert(message.SubID(fmt.Sprintf("burst%d", i)), "c1", predicate.MustParse("[x,>,1],[x,<,3]"), "b2")
		}
	}
	cold := NewPRT()
	burst(cold)
	if tb := cold.t; tb.builds != 0 || tb.base != nil || cap(tb.adds) != 0 {
		t.Errorf("1000 inserts into a table never matched: %d builds, %d adds capacity", tb.builds, cap(tb.adds))
	}

	warm := benchPRT(t, 10_000)
	warm.Match(predicate.Event{"x": predicate.Number(2)})
	limit := warm.t.base.limit
	if limit != 100 {
		t.Fatalf("limit of a 10 000-record base = %d, want √n = 100", limit)
	}
	burst(warm)
	tb := warm.t
	if tb.builds != 1 || tb.drops != 1 || tb.base != nil || len(tb.adds) != 0 || tb.dead != nil {
		t.Errorf("1000 inserts after a match: %d builds, %d drops, base kept %v, %d adds", tb.builds, tb.drops, tb.base != nil, len(tb.adds))
	}
	if c := cap(tb.adds); c > 2*(limit+1) {
		t.Errorf("adds grew to capacity %d, past the limit %d", c, limit)
	}
	if got := len(warm.Match(predicate.Event{"x": predicate.Number(2)})); got != 1000+2 {
		t.Errorf("match after the burst found %d records, want 1002", got)
	}
}

// TestReadOnlyPhaseFoldsDelta: after a burst of writes below the limit, a
// read-only phase pays the delta's tax a bounded number of times and then
// matches lock-free against a fresh base.
func TestReadOnlyPhaseFoldsDelta(t *testing.T) {
	prt := benchPRT(t, 1000)
	e := predicate.Event{"x": predicate.Number(500)}
	want := len(prt.Match(e))
	for i := 0; i < 32; i++ {
		prt.Insert(message.SubID(fmt.Sprintf("late%d", i)), "c1", predicate.MustParse("[x,>,499],[x,<,501]"), "b2")
	}
	for _, id := range []message.SubID{"s490", "s590", "s690", "s790"} {
		prt.Remove(id)
	}
	want += 32 - 1 // of the four removed windows only s490 held 500
	tb := prt.t
	foldAt := tb.base.foldAt
	taxed := 0
	for tb.snap.Load() == nil {
		if got := len(prt.Match(e)); got != want {
			t.Fatalf("match %d under the delta found %d records, want %d", taxed, got, want)
		}
		if taxed++; int64(taxed) > foldAt {
			t.Fatalf("delta still carried after %d matches", taxed)
		}
	}
	if tb.folds != 1 || tb.builds != 2 || tb.drops != 0 {
		t.Errorf("after the read-only phase: %d folds, %d builds, %d drops; want 1, 2, 0", tb.folds, tb.builds, tb.drops)
	}
	if got := len(prt.Match(e)); got != want {
		t.Errorf("match after the fold found %d records, want %d", got, want)
	}
	t.Logf("delta of %d folded after %d taxed matches (fold at tax %d)", 32+4, taxed, foldAt)
}
