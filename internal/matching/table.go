// Package matching implements the broker routing tables of a content-based
// pub/sub broker: the Subscription Routing Table (SRT) holding
// {advertisement, lasthop} records used to route subscriptions, and the
// Publication Routing Table (PRT) holding {subscription, lasthop} records
// used to route publications.
//
// Publication matching uses the counting algorithm (Fabret et al., SIGMOD
// 2001) over per-attribute interval trees: a publication stabs the trees of
// its attributes, candidates are verified exactly, and a record matches
// when its satisfied-constraint count equals its attribute count. The hot
// path runs against an immutable base index with pooled dense counters, so
// it allocates nothing, and takes no lock unless writes since the base was
// built have left a delta to apply (index.go). Covering and intersection
// queries run against live per-attribute posting lists that prune by
// interval hull and selectivity, with a result cache invalidated on
// mutation.
package matching

import (
	"sync"
	"sync/atomic"

	"padres/internal/message"
	"padres/internal/predicate"
)

// Record is one routing table entry: a filter installed by a client,
// together with the link it arrived on (the last hop).
type Record struct {
	ID      string
	Client  message.ClientID
	Filter  *predicate.Filter
	LastHop message.NodeID

	// slot is the record's dense index in the owning table; assigned by
	// Insert, meaningless outside it.
	slot int32
}

// attrBuf is where a table walks a filter's attribute names
// (Filter.AppendAttrs): on the stack, so the walk allocates nothing for a
// filter of up to 8 attributes.
type attrBuf [8]string

// covCacheMax bounds the covering-result cache; past it the whole cache is
// dropped (mutations clear it anyway, so steady state never gets there).
const covCacheMax = 4096

// table is the shared implementation of SRT and PRT. Records live in an
// ID-keyed map plus a dense slot array (slots/gens/free) that both index
// families address records by.
type table struct {
	mu      sync.RWMutex
	records map[string]*Record
	slots   []*Record // slot → record; nil = free
	gens    []uint32  // slot → generation, bumped on every vacate
	free    []int32   // vacated slots for reuse
	attrs   map[string]*postings

	// covCache memoizes Covering/CoveredBy/Intersecting results by query
	// key; cleared on any Insert/Remove (not on SetLastHop, which cannot
	// change any relation).
	covCache map[string][]*Record

	// The match index is an immutable base plus the delta writes have left
	// against it since it was built (index.go, "base + delta"): adds holds
	// the records inserted since, dead marks the base slots vacated since
	// (one bit per base slot, ndead of them set). All four are guarded by
	// mu and meaningless while base is nil. snap is what lock-free matching
	// loads: the base while the delta is empty, nil otherwise.
	base  *matchIndex
	adds  []*Record
	dead  []uint64
	ndead int
	snap  atomic.Pointer[matchIndex]
	// tax counts the record visits the delta has cost matches since the
	// base was built; readers add to it under the read lock.
	tax atomic.Int64

	// builds, drops and folds count index builds, bases dropped by a write
	// and deltas folded into a fresh base by a read.
	builds, drops, folds int

	scratch sync.Pool // *matchScratch
}

func newTable() *table {
	return &table{
		records:  make(map[string]*Record),
		attrs:    make(map[string]*postings),
		covCache: make(map[string][]*Record),
	}
}

// Insert adds or replaces a record by ID.
func (t *table) Insert(rec *Record) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if old, ok := t.records[rec.ID]; ok {
		t.vacateLocked(old)
	}
	var s int32
	if n := len(t.free); n > 0 {
		s = t.free[n-1]
		t.free = t.free[:n-1]
	} else {
		s = int32(len(t.slots))
		t.slots = append(t.slots, nil)
		t.gens = append(t.gens, 0)
	}
	rec.slot = s
	t.slots[s] = rec
	t.records[rec.ID] = rec
	g := t.gens[s]
	var ab attrBuf
	for _, attr := range rec.Filter.AppendAttrs(ab[:0]) {
		ps := t.attrs[attr]
		if ps == nil {
			ps = &postings{}
			t.attrs[attr] = ps
		}
		c := rec.Filter.Constraint(attr)
		lo, hi, loInf, hiInf := c.Interval()
		switch c.ValueKind() {
		case predicate.KindNumber:
			ps.num.insert(pentry[float64]{lo: lo.Num, hi: hi.Num, loInf: loInf, hiInf: hiInf, ref: pref{s, g}})
		case predicate.KindString:
			ps.str.insert(pentry[string]{lo: lo.S, hi: hi.S, loInf: loInf, hiInf: hiInf, ref: pref{s, g}})
		default:
			ps.loose = append(ps.loose, pref{s, g})
		}
		ps.count++
	}
	if t.base != nil {
		t.adds = append(t.adds, rec)
	}
	t.invalidateLocked()
}

// Remove deletes a record by ID, returning it (nil if absent).
func (t *table) Remove(id string) *Record {
	t.mu.Lock()
	defer t.mu.Unlock()
	rec, ok := t.records[id]
	if !ok {
		return nil
	}
	delete(t.records, id)
	t.vacateLocked(rec)
	t.invalidateLocked()
	return rec
}

// vacateLocked frees a record's slot. Posting entries are not excised —
// the bumped generation marks them dead — but per-attribute dead counters
// are advanced and lists compacted when mostly dead.
func (t *table) vacateLocked(rec *Record) {
	s := rec.slot
	t.slots[s] = nil
	t.gens[s]++
	t.free = append(t.free, s)
	if t.base != nil {
		t.unindexLocked(rec)
	}
	var ab attrBuf
	for _, attr := range rec.Filter.AppendAttrs(ab[:0]) {
		ps := t.attrs[attr]
		if ps == nil {
			continue
		}
		ps.count--
		if ps.count == 0 {
			// No alive record constrains the attribute; every posting
			// entry is dead, so drop the whole structure.
			delete(t.attrs, attr)
			continue
		}
		switch rec.Filter.Constraint(attr).ValueKind() {
		case predicate.KindNumber:
			ps.num.dead++
			if ps.num.dead > plistCompactMin && ps.num.dead*2 > ps.num.size() {
				ps.num.compact(t.aliveLocked)
			}
		case predicate.KindString:
			ps.str.dead++
			if ps.str.dead > plistCompactMin && ps.str.dead*2 > ps.str.size() {
				ps.str.compact(t.aliveLocked)
			}
		default:
			ps.looseDead++
			if ps.looseDead > plistCompactMin && ps.looseDead*2 > len(ps.loose) {
				kept := ps.loose[:0]
				for _, r := range ps.loose {
					if t.aliveLocked(r) {
						kept = append(kept, r)
					}
				}
				ps.loose = kept
				ps.looseDead = 0
			}
		}
	}
}

// aliveLocked reports whether a posting entry still refers to an installed
// record: the slot generation must not have moved since insert.
func (t *table) aliveLocked(r pref) bool {
	return t.gens[r.slot] == r.gen && t.slots[r.slot] != nil
}

// unindexLocked takes a vacated record out of the match index: a record the
// base holds is marked dead there (the base keeps its own slot → record
// copy, so the slot can be reused at once), one inserted since is dropped
// from adds. Recent adds go first — a subscription that comes and goes.
func (t *table) unindexLocked(rec *Record) {
	if s := int(rec.slot); s < len(t.base.recs) && t.base.recs[s] == rec {
		t.dead[s>>6] |= 1 << (s & 63)
		t.ndead++
		return
	}
	last := len(t.adds) - 1
	for i := last; i >= 0; i-- {
		if t.adds[i] == rec {
			t.adds[i] = t.adds[last]
			t.adds[last] = nil
			t.adds = t.adds[:last]
			return
		}
	}
}

// invalidateLocked closes a mutation: it settles what lock-free matching
// may see and drops the caches any mutation can stale. This is the write
// rule of the match index — a delta past the limit fixed when the base was
// built drops the base, and writes are O(1) again until a match next needs
// an index.
func (t *table) invalidateLocked() {
	if idx := t.base; idx != nil {
		switch n := len(t.adds) + t.ndead; {
		case n == 0:
			t.snap.Store(idx)
		case n > idx.limit:
			t.dropBaseLocked()
			t.drops++
		default:
			t.snap.Store(nil)
		}
	}
	if len(t.covCache) > 0 {
		clear(t.covCache)
	}
}

// dropBaseLocked discards the base and the delta recorded against it.
func (t *table) dropBaseLocked() {
	t.base = nil
	t.snap.Store(nil)
	clear(t.adds)
	t.adds = t.adds[:0]
	t.dead, t.ndead = nil, 0
}

// Get returns the record with the given ID, or nil.
func (t *table) Get(id string) *Record {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.records[id]
}

// SetLastHop updates the last hop of a record in place. It reports whether
// the record exists. The records are shared with match snapshots, so
// callers must not run SetLastHop concurrently with matching on the same
// table (the broker's serialized control lane guarantees this). Neither the
// slot, the postings nor the match index's base or delta change, and
// covering caches survive: the last hop participates in no matching
// relation.
func (t *table) SetLastHop(id string, hop message.NodeID) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	rec, ok := t.records[id]
	if !ok {
		return false
	}
	rec.LastHop = hop
	return true
}

// Len returns the number of records.
func (t *table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.records)
}

// All returns every record sorted by ID for deterministic iteration.
func (t *table) All() []*Record {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]*Record, 0, len(t.records))
	for _, rec := range t.records {
		out = append(out, rec)
	}
	sortRecords(out)
	return out
}

// acquire returns the index to match against. With locked false the index
// is complete on its own and nothing is held; with locked true it is the
// base of a non-empty delta, t.mu is read-held so adds and dead stand still,
// and the caller releases it. This is the read rule of the match index:
// once the delta has taxed matches as much as a rebuild would cost
// (idx.foldAt), the next match folds it into a fresh base instead of
// carrying it further.
func (t *table) acquire() (idx *matchIndex, locked bool) {
	if idx := t.snap.Load(); idx != nil {
		return idx, false
	}
	t.mu.RLock()
	if idx := t.base; idx != nil && t.tax.Load() < idx.foldAt {
		return idx, true
	}
	t.mu.RUnlock()
	return t.rebuild(), false
}

// rebuild builds a fresh base from the live slots under the write lock, so
// however many matchers find no usable index at once, one builds and the
// rest wait for it and take its result. The index returned is the whole
// table as of the build; a write that lands after the lock is released
// linearizes after the caller's match.
func (t *table) rebuild() *matchIndex {
	t.mu.Lock()
	defer t.mu.Unlock()
	if idx := t.snap.Load(); idx != nil {
		return idx
	}
	if t.base != nil {
		t.folds++
	}
	t.dropBaseLocked()
	idx := buildMatchIndex(t.slots, len(t.attrs))
	t.base = idx
	t.dead = make([]uint64, (len(idx.recs)+63)/64)
	t.tax.Store(0)
	t.builds++
	t.snap.Store(idx)
	return idx
}

func (t *table) getScratch(n int) *matchScratch {
	sc, _ := t.scratch.Get().(*matchScratch)
	if sc == nil {
		sc = &matchScratch{}
	}
	sc.reset(n)
	return sc
}

// MatchInto appends the records whose filters match the event to out and
// returns it, sorted by ID. This is the counting algorithm hot path: one
// interval-tree stab per event attribute, exact verification of each
// candidate, and an epoch-stamped dense counter per record slot. It
// allocates nothing when out has capacity, and takes no lock unless there
// is a delta to apply.
func (t *table) MatchInto(e predicate.Event, out []*Record) []*Record {
	out, _ = t.match(e, out, false)
	sortRecords(out)
	return out
}

// Match returns the records whose filters match the event.
func (t *table) Match(e predicate.Event) []*Record {
	return t.MatchInto(e, nil)
}

// MatchAny reports whether any record's filter matches the event, stopping
// at the first event attribute that completes a match. Used for the
// advertisement-conformance check on the publish path, which needs
// existence only.
func (t *table) MatchAny(e predicate.Event) bool {
	_, hit := t.match(e, nil, true)
	return hit
}

// match runs the counting algorithm over the base and then applies the
// delta, if there is one: a base match whose slot has since been vacated is
// discarded — a check per match, not per candidate — and the records
// inserted since are tested one by one. It appends the matching records to
// out unsorted; with exists set it appends nothing and only reports whether
// there is one.
func (t *table) match(e predicate.Event, out []*Record, exists bool) ([]*Record, bool) {
	idx, locked := t.acquire()
	masked := locked && t.ndead > 0
	sc := t.getScratch(len(idx.recs))
	// A first match settles existence unless it may turn out dead.
	matched := idx.count(e, sc, exists && !masked)
	if masked {
		live := matched[:0]
		for _, s := range matched {
			if t.dead[s>>6]&(1<<(s&63)) == 0 {
				live = append(live, s)
			}
		}
		matched = live
	}
	hit := len(matched) > 0
	if !exists {
		for _, s := range matched {
			out = append(out, idx.recs[s])
		}
	}
	t.scratch.Put(sc)
	if locked {
		if !(exists && hit) {
			for _, rec := range t.adds {
				if !rec.Filter.Matches(e) {
					continue
				}
				hit = true
				if exists {
					break
				}
				out = append(out, rec)
			}
		}
		// A match under a delta is taxed the delta's size: every add was
		// visited, and at most ndead matches were found and thrown away.
		t.tax.Add(int64(len(t.adds) + t.ndead))
		t.mu.RUnlock()
	}
	return out, hit
}

// Intersecting returns records whose filters intersect f.
//
// Candidates come from the posting list of f's most selective pruning
// attribute — the one constrained by the most records, which minimizes the
// complement (records not constraining it at all, which always intersect
// candidates and must be checked separately). Every candidate is verified
// with the exact relation.
func (t *table) Intersecting(f *predicate.Filter) []*Record {
	if f == nil || f.AttrCount() == 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	key := "I\x00" + f.Key()
	if hit, ok := t.covCache[key]; ok {
		return append([]*Record(nil), hit...)
	}
	best, bestCount := "", -1
	var ab attrBuf
	for _, attr := range f.AppendAttrs(ab[:0]) {
		c := 0
		if ps := t.attrs[attr]; ps != nil {
			c = ps.count
		}
		if c > bestCount {
			best, bestCount = attr, c
		}
	}
	var prefs []pref
	if ps := t.attrs[best]; ps != nil {
		cf := f.Constraint(best)
		lo, hi, loInf, hiInf := cf.Interval()
		switch cf.ValueKind() {
		case predicate.KindNumber:
			prefs = ps.num.overlapping(lo.Num, hi.Num, loInf, hiInf, prefs)
			prefs = append(prefs, ps.loose...)
		case predicate.KindString:
			prefs = ps.str.overlapping(lo.S, hi.S, loInf, hiInf, prefs)
			prefs = append(prefs, ps.loose...)
		default:
			// Presence-only query constraint intersects any constraint on
			// the attribute.
			prefs = ps.num.all(prefs)
			prefs = ps.str.all(prefs)
			prefs = append(prefs, ps.loose...)
		}
	}
	out := t.verifyLocked(prefs, "", func(rec *Record) bool { return rec.Filter.Intersects(f) })
	if bestCount < len(t.records) {
		// Records not constraining the pruning attribute never appear in
		// its postings but can still intersect f.
		for _, rec := range t.slots {
			if rec == nil || rec.Filter.HasAttr(best) {
				continue
			}
			if rec.Filter.Intersects(f) {
				out = append(out, rec)
			}
		}
	}
	sortRecords(out)
	t.cacheLocked(key, out)
	return out
}

// Covering returns records whose filters cover f, excluding the record with
// the given ID.
//
// A covering filter constrains a subset of f's attributes, each at least as
// loosely, so candidates are the union over f's attributes of posting
// entries whose hull encloses f's hull there (plus presence-only entries,
// which cover any constraint). Exact verification follows.
func (t *table) Covering(f *predicate.Filter, excludeID string) []*Record {
	if f == nil || f.AttrCount() == 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	key := "C\x00" + f.Key() + "\x00" + excludeID
	if hit, ok := t.covCache[key]; ok {
		return append([]*Record(nil), hit...)
	}
	var prefs []pref
	var ab attrBuf
	for _, attr := range f.AppendAttrs(ab[:0]) {
		ps := t.attrs[attr]
		if ps == nil {
			continue
		}
		cf := f.Constraint(attr)
		lo, hi, loInf, hiInf := cf.Interval()
		switch cf.ValueKind() {
		case predicate.KindNumber:
			prefs = ps.num.enclosing(lo.Num, hi.Num, loInf, hiInf, prefs)
		case predicate.KindString:
			prefs = ps.str.enclosing(lo.S, hi.S, loInf, hiInf, prefs)
		}
		// Presence-only constraints cover any constraint on the attribute;
		// a presence-only query constraint is covered only by them.
		prefs = append(prefs, ps.loose...)
	}
	out := t.verifyLocked(prefs, excludeID, func(rec *Record) bool { return rec.Filter.Covers(f) })
	sortRecords(out)
	t.cacheLocked(key, out)
	return out
}

// CoveredBy returns records whose filters are covered by f, excluding the
// record with the given ID.
//
// A covered filter must constrain every attribute f does, so the posting
// list of f's least-populated attribute bounds the candidate set; entries
// qualify when their hull is contained in f's hull there.
func (t *table) CoveredBy(f *predicate.Filter, excludeID string) []*Record {
	if f == nil || f.AttrCount() == 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	key := "B\x00" + f.Key() + "\x00" + excludeID
	if hit, ok := t.covCache[key]; ok {
		return append([]*Record(nil), hit...)
	}
	best, bestCount := "", -1
	var ab attrBuf
	for _, attr := range f.AppendAttrs(ab[:0]) {
		c := 0
		if ps := t.attrs[attr]; ps != nil {
			c = ps.count
		}
		if bestCount == -1 || c < bestCount {
			best, bestCount = attr, c
		}
	}
	var out []*Record
	if bestCount > 0 {
		ps := t.attrs[best]
		cf := f.Constraint(best)
		var prefs []pref
		lo, hi, loInf, hiInf := cf.Interval()
		switch cf.ValueKind() {
		case predicate.KindNumber:
			prefs = ps.num.contained(lo.Num, hi.Num, loInf, hiInf, prefs)
		case predicate.KindString:
			prefs = ps.str.contained(lo.S, hi.S, loInf, hiInf, prefs)
		default:
			// A presence-only query constraint covers any satisfiable
			// constraint on the attribute, of any kind.
			prefs = ps.num.all(prefs)
			prefs = ps.str.all(prefs)
			prefs = append(prefs, ps.loose...)
		}
		out = t.verifyLocked(prefs, excludeID, func(rec *Record) bool { return f.Covers(rec.Filter) })
	}
	sortRecords(out)
	t.cacheLocked(key, out)
	return out
}

// verifyLocked resolves posting refs to alive records, dedupes (a record
// can surface from several attributes), drops excludeID, and applies the
// exact relation.
func (t *table) verifyLocked(prefs []pref, excludeID string, keep func(*Record) bool) []*Record {
	if len(prefs) == 0 {
		return nil
	}
	var out []*Record
	seen := make(map[int32]struct{}, len(prefs))
	for _, r := range prefs {
		if !t.aliveLocked(r) {
			continue
		}
		if _, dup := seen[r.slot]; dup {
			continue
		}
		seen[r.slot] = struct{}{}
		rec := t.slots[r.slot]
		if rec.ID == excludeID {
			continue
		}
		if keep(rec) {
			out = append(out, rec)
		}
	}
	return out
}

// cacheLocked memoizes a query result under the covering cache key.
func (t *table) cacheLocked(key string, out []*Record) {
	if len(t.covCache) >= covCacheMax {
		clear(t.covCache)
	}
	t.covCache[key] = append([]*Record(nil), out...)
}

// ByClient returns the records installed by the given client.
func (t *table) ByClient(c message.ClientID) []*Record {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var out []*Record
	for _, rec := range t.records {
		if rec.Client == c {
			out = append(out, rec)
		}
	}
	sortRecords(out)
	return out
}

// sortRecords sorts by ID with an in-place heapsort: the match hot path
// sorts its result without the closure/interface allocation of sort.Slice.
func sortRecords(recs []*Record) {
	n := len(recs)
	for i := n/2 - 1; i >= 0; i-- {
		siftRecords(recs, i, n)
	}
	for i := n - 1; i > 0; i-- {
		recs[0], recs[i] = recs[i], recs[0]
		siftRecords(recs, 0, i)
	}
}

func siftRecords(recs []*Record, i, n int) {
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if c+1 < n && recs[c+1].ID > recs[c].ID {
			c++
		}
		if recs[i].ID >= recs[c].ID {
			return
		}
		recs[i], recs[c] = recs[c], recs[i]
		i = c
	}
}

// SRT is the Subscription Routing Table: it stores advertisements with
// their last hops and answers "which advertisements does this subscription
// intersect?" to decide where subscriptions are forwarded.
type SRT struct {
	t *table
}

// NewSRT returns an empty SRT.
func NewSRT() *SRT { return &SRT{t: newTable()} }

// Insert adds an advertisement record.
func (s *SRT) Insert(id message.AdvID, client message.ClientID, f *predicate.Filter, lastHop message.NodeID) {
	s.t.Insert(&Record{ID: string(id), Client: client, Filter: f, LastHop: lastHop})
}

// Remove deletes the advertisement, returning its record (nil if absent).
func (s *SRT) Remove(id message.AdvID) *Record { return s.t.Remove(string(id)) }

// Get returns the advertisement record, or nil.
func (s *SRT) Get(id message.AdvID) *Record { return s.t.Get(string(id)) }

// SetLastHop rewires the advertisement's last hop in place: the hop-by-hop
// reconfiguration's commit re-points a surviving record with it instead of
// re-inserting it, so the match index is untouched.
func (s *SRT) SetLastHop(id message.AdvID, hop message.NodeID) bool {
	return s.t.SetLastHop(string(id), hop)
}

// Len returns the number of advertisements.
func (s *SRT) Len() int { return s.t.Len() }

// All returns every advertisement sorted by ID.
func (s *SRT) All() []*Record { return s.t.All() }

// Intersecting returns advertisements intersecting the subscription filter.
func (s *SRT) Intersecting(sub *predicate.Filter) []*Record { return s.t.Intersecting(sub) }

// Covering returns advertisements covering f, excluding id.
func (s *SRT) Covering(f *predicate.Filter, exclude message.AdvID) []*Record {
	return s.t.Covering(f, string(exclude))
}

// CoveredBy returns advertisements covered by f, excluding id.
func (s *SRT) CoveredBy(f *predicate.Filter, exclude message.AdvID) []*Record {
	return s.t.CoveredBy(f, string(exclude))
}

// ByClient returns advertisements installed by the client.
func (s *SRT) ByClient(c message.ClientID) []*Record { return s.t.ByClient(c) }

// Match returns advertisements matching a publication; a publication is
// valid only if the issuing publisher advertised it.
func (s *SRT) Match(e predicate.Event) []*Record { return s.t.Match(e) }

// MatchAny reports whether any advertisement matches the publication; the
// publish path's conformance check needs existence, not the match set.
func (s *SRT) MatchAny(e predicate.Event) bool { return s.t.MatchAny(e) }

// PRT is the Publication Routing Table: it stores subscriptions with their
// last hops and answers "which subscriptions match this publication?" to
// route publications hop-by-hop toward subscribers.
type PRT struct {
	t *table
}

// NewPRT returns an empty PRT.
func NewPRT() *PRT { return &PRT{t: newTable()} }

// Insert adds a subscription record.
func (p *PRT) Insert(id message.SubID, client message.ClientID, f *predicate.Filter, lastHop message.NodeID) {
	p.t.Insert(&Record{ID: string(id), Client: client, Filter: f, LastHop: lastHop})
}

// Remove deletes the subscription, returning its record (nil if absent).
func (p *PRT) Remove(id message.SubID) *Record { return p.t.Remove(string(id)) }

// Get returns the subscription record, or nil.
func (p *PRT) Get(id message.SubID) *Record { return p.t.Get(string(id)) }

// SetLastHop rewires the subscription's last hop in place: the hop-by-hop
// reconfiguration's commit re-points a surviving record with it instead of
// re-inserting it, so the match index is untouched.
func (p *PRT) SetLastHop(id message.SubID, hop message.NodeID) bool {
	return p.t.SetLastHop(string(id), hop)
}

// Len returns the number of subscriptions.
func (p *PRT) Len() int { return p.t.Len() }

// All returns every subscription sorted by ID.
func (p *PRT) All() []*Record { return p.t.All() }

// Match returns subscriptions matching the publication.
func (p *PRT) Match(e predicate.Event) []*Record { return p.t.Match(e) }

// MatchInto appends subscriptions matching the publication to out; with a
// reused buffer the counting hot path allocates nothing.
func (p *PRT) MatchInto(e predicate.Event, out []*Record) []*Record { return p.t.MatchInto(e, out) }

// MatchAny reports whether any subscription matches the publication.
func (p *PRT) MatchAny(e predicate.Event) bool { return p.t.MatchAny(e) }

// IndexBuilds returns how many times the match index has been built from
// the whole table. A write records a delta against the index instead of
// dropping it, so builds follow writes at one per max(64, √n) of them at
// worst, not one per publication that follows a write.
func (p *PRT) IndexBuilds() int {
	p.t.mu.RLock()
	defer p.t.mu.RUnlock()
	return p.t.builds
}

// Intersecting returns subscriptions intersecting the advertisement filter.
func (p *PRT) Intersecting(adv *predicate.Filter) []*Record { return p.t.Intersecting(adv) }

// Covering returns subscriptions covering f, excluding id.
func (p *PRT) Covering(f *predicate.Filter, exclude message.SubID) []*Record {
	return p.t.Covering(f, string(exclude))
}

// CoveredBy returns subscriptions covered by f, excluding id.
func (p *PRT) CoveredBy(f *predicate.Filter, exclude message.SubID) []*Record {
	return p.t.CoveredBy(f, string(exclude))
}

// ByClient returns subscriptions installed by the client.
func (p *PRT) ByClient(c message.ClientID) []*Record { return p.t.ByClient(c) }
