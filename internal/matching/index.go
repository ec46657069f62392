package matching

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"padres/internal/predicate"
)

// Two index families back a routing table, with different
// mutation/query tradeoffs:
//
//   - The match index is base + delta. The base (matchIndex, built over
//     the itree) is immutable: lock-free O(log n + k) stabs with zero
//     per-event allocation, at an O(n log n) build. In the regime this
//     system exists for — clients moving and subscribing while
//     publications flow — writes interleave with matches one for one, so a
//     write must not cost the next match a build. A write instead records
//     a delta against the base (table.adds, table.dead), and a match under
//     a delta stabs the base, discards the matches that are dead and tests
//     the adds one by one, under the read lock. Two rules bound what the
//     delta may cost, both from what the table itself can see:
//
//     Write rule: a write that takes the delta past max(64, √n), n the
//     base's size, drops the base. Set-up and write-only phases therefore
//     pay a compare and an append per write for at most that many writes,
//     then nothing, exactly as if there were no index; and a match never
//     scans more than that many adds where a build would visit n records.
//     (Under the floor of 64 a delta scan is cheaper than any build.)
//
//     Read rule: a match under a delta is taxed the delta's size; once the
//     tax paid since the base was built reaches 4(n + limit), about what
//     building a base costs in record visits, the next match builds one
//     (rent until the rent paid equals the price, then buy). A read-only
//     phase after a burst of writes pays a bounded tax and then none.
//
//   - The covering index (postings/plist below) is a live incremental
//     structure. The broker's subscribe flow is covering-query-then-insert
//     for every subscription, so a rebuild-per-mutation snapshot would
//     degenerate to O(n log n) per subscribe; instead each attribute keeps
//     sorted posting lists with an unsorted insert tail that is merged in
//     bulk, and removals are lazy (generation-stamped) with periodic
//     compaction.

// pref identifies a posting entry's record: the dense slot plus the slot
// generation at insert time. An entry is alive iff the table's generation
// for that slot still matches — removal just bumps the generation.
type pref struct {
	slot int32
	gen  uint32
}

// pentry is one interval hull in a posting list.
type pentry[K cmp.Ordered] struct {
	lo, hi       K
	loInf, hiInf bool
	ref          pref
}

// plistTailMax bounds the unsorted insert tail; reaching it triggers a
// sorted merge into main, keeping inserts amortized O(log n) while queries
// scan at most this many unsorted entries.
const plistTailMax = 256

// plistCompactMin is the minimum dead-entry count before a removal-driven
// compaction; avoids rebuilding tiny lists on every churn.
const plistCompactMin = 32

// plist is one attribute's posting list for a single value kind: interval
// hulls sorted ascending by lower bound (unbounded-low entries first) plus
// the unsorted tail. dead counts lazily-removed entries still present.
type plist[K cmp.Ordered] struct {
	main []pentry[K]
	tail []pentry[K]
	dead int
}

func (p *plist[K]) size() int { return len(p.main) + len(p.tail) }

func (p *plist[K]) insert(e pentry[K]) {
	p.tail = append(p.tail, e)
	if len(p.tail) >= plistTailMax {
		p.mergeTail()
	}
}

// mergeTail sorts the tail and merges it into main (both sorted), so a
// sequence of n inserts costs O(n log n) total rather than n re-sorts.
func (p *plist[K]) mergeTail() {
	if len(p.tail) == 0 {
		return
	}
	sortPentries(p.tail)
	merged := make([]pentry[K], 0, len(p.main)+len(p.tail))
	i, j := 0, 0
	for i < len(p.main) && j < len(p.tail) {
		if pentryLess(p.main[i], p.tail[j]) {
			merged = append(merged, p.main[i])
			i++
		} else {
			merged = append(merged, p.tail[j])
			j++
		}
	}
	merged = append(merged, p.main[i:]...)
	merged = append(merged, p.tail[j:]...)
	p.main = merged
	p.tail = p.tail[:0]
}

func pentryLess[K cmp.Ordered](a, b pentry[K]) bool {
	if a.loInf != b.loInf {
		return a.loInf
	}
	return a.lo < b.lo
}

func sortPentries[K cmp.Ordered](es []pentry[K]) {
	sort.Slice(es, func(i, j int) bool { return pentryLess(es[i], es[j]) })
}

// prefixLoLE returns the count of main entries whose lower bound allows v
// (loInf or lo ≤ v); they form a prefix of main.
func (p *plist[K]) prefixLoLE(v K) int {
	return sort.Search(len(p.main), func(i int) bool {
		e := p.main[i]
		return !e.loInf && e.lo > v
	})
}

// enclosing appends entries whose hull contains the query hull [ql, qh]:
// candidates for filters *covering* the query filter on this attribute.
func (p *plist[K]) enclosing(ql, qh K, qloInf, qhiInf bool, out []pref) []pref {
	var lim int
	if qloInf {
		// Only unbounded-low entries reach below -inf; they are the prefix.
		lim = sort.Search(len(p.main), func(i int) bool { return !p.main[i].loInf })
	} else {
		lim = p.prefixLoLE(ql)
	}
	for i := 0; i < lim; i++ {
		e := &p.main[i]
		if e.hiInf || (!qhiInf && e.hi >= qh) {
			out = append(out, e.ref)
		}
	}
	for i := range p.tail {
		e := &p.tail[i]
		loOK := e.loInf || (!qloInf && e.lo <= ql)
		hiOK := e.hiInf || (!qhiInf && e.hi >= qh)
		if loOK && hiOK {
			out = append(out, e.ref)
		}
	}
	return out
}

// contained appends entries whose hull lies within the query hull:
// candidates for filters *covered by* the query filter on this attribute.
func (p *plist[K]) contained(ql, qh K, qloInf, qhiInf bool, out []pref) []pref {
	start := 0
	if !qloInf {
		start = sort.Search(len(p.main), func(i int) bool {
			e := p.main[i]
			return !e.loInf && e.lo >= ql
		})
	}
	for i := start; i < len(p.main); i++ {
		e := &p.main[i]
		if qhiInf || (!e.hiInf && e.hi <= qh) {
			out = append(out, e.ref)
		}
	}
	for i := range p.tail {
		e := &p.tail[i]
		loOK := qloInf || (!e.loInf && e.lo >= ql)
		hiOK := qhiInf || (!e.hiInf && e.hi <= qh)
		if loOK && hiOK {
			out = append(out, e.ref)
		}
	}
	return out
}

// overlapping appends entries whose hull intersects the query hull:
// candidates for filters *intersecting* the query filter on this attribute.
func (p *plist[K]) overlapping(ql, qh K, qloInf, qhiInf bool, out []pref) []pref {
	lim := len(p.main)
	if !qhiInf {
		lim = p.prefixLoLE(qh)
	}
	for i := 0; i < lim; i++ {
		e := &p.main[i]
		if qloInf || e.hiInf || e.hi >= ql {
			out = append(out, e.ref)
		}
	}
	for i := range p.tail {
		e := &p.tail[i]
		loOK := qhiInf || e.loInf || e.lo <= qh
		hiOK := qloInf || e.hiInf || e.hi >= ql
		if loOK && hiOK {
			out = append(out, e.ref)
		}
	}
	return out
}

// all appends every entry, alive or not; callers filter by generation.
func (p *plist[K]) all(out []pref) []pref {
	for i := range p.main {
		out = append(out, p.main[i].ref)
	}
	for i := range p.tail {
		out = append(out, p.tail[i].ref)
	}
	return out
}

// compact drops entries for which alive reports false and resets the dead
// counter.
func (p *plist[K]) compact(alive func(pref) bool) {
	p.mergeTail()
	kept := p.main[:0]
	for _, e := range p.main {
		if alive(e.ref) {
			kept = append(kept, e)
		}
	}
	p.main = kept
	p.dead = 0
}

// postings is the live covering index for one attribute: one posting list
// per value kind, plus the presence-only constraints (kind 0), which admit
// values of any kind and so belong to no interval list. count tracks alive
// records constraining the attribute; the covering queries use it to pick
// the most selective attribute.
type postings struct {
	num       plist[float64]
	str       plist[string]
	loose     []pref
	looseDead int
	count     int
}

// ---- match index (immutable snapshot) ----

// attrIdx is the snapshot match index for one attribute.
type attrIdx struct {
	num   *itree[float64]
	str   *itree[string]
	loose []iref
}

// matchIndex is an immutable snapshot of the counting match index: dense
// slot arrays plus per-attribute interval trees. Record pointers are shared
// with the live table; everything else is private to the snapshot.
type matchIndex struct {
	recs  []*Record // slot → record (nil for slots free at snapshot time)
	need  []int32   // slot → number of constrained attributes
	attrs map[string]*attrIdx

	limit  int   // delta size past which a write drops this base
	foldAt int64 // delta tax at which a match replaces this base
}

// buildMatchIndex builds the index of the records in slots; nattrs sizes
// the attribute map.
func buildMatchIndex(slots []*Record, nattrs int) *matchIndex {
	idx := &matchIndex{
		recs:  slices.Clone(slots),
		need:  make([]int32, len(slots)),
		attrs: make(map[string]*attrIdx, nattrs),
	}
	type builder struct {
		num   []ientry[float64]
		str   []ientry[string]
		loose []iref
	}
	builders := make(map[string]*builder, nattrs)
	n := 0
	var ab attrBuf
	for _, rec := range slots {
		if rec == nil {
			continue
		}
		n++
		idx.need[rec.slot] = int32(rec.Filter.AttrCount())
		for _, attr := range rec.Filter.AppendAttrs(ab[:0]) {
			b := builders[attr]
			if b == nil {
				b = &builder{}
				builders[attr] = b
			}
			c := rec.Filter.Constraint(attr)
			ref := iref{slot: rec.slot, c: c}
			lo, hi, loInf, hiInf := c.Interval()
			switch c.ValueKind() {
			case predicate.KindNumber:
				b.num = append(b.num, ientry[float64]{lo: lo.Num, hi: hi.Num, loInf: loInf, hiInf: hiInf, ref: ref})
			case predicate.KindString:
				b.str = append(b.str, ientry[string]{lo: lo.S, hi: hi.S, loInf: loInf, hiInf: hiInf, ref: ref})
			default:
				b.loose = append(b.loose, ref)
			}
		}
	}
	for attr, b := range builders {
		idx.attrs[attr] = &attrIdx{num: buildITree(b.num), str: buildITree(b.str), loose: b.loose}
	}
	idx.limit = max(64, int(math.Sqrt(float64(n))))
	idx.foldAt = 4 * int64(n+idx.limit)
	return idx
}

// count runs the counting algorithm for one event and returns the slots of
// the records it satisfies, in sc.matched: one interval-tree stab per event
// attribute, exact verification of each candidate, and an epoch-stamped
// dense counter per record slot. With first set it stops at the first event
// attribute that completes a match.
func (idx *matchIndex) count(e predicate.Event, sc *matchScratch, first bool) []int32 {
	matched := sc.matched[:0]
	cand := sc.cand
	for attr, v := range e {
		ai := idx.attrs[attr]
		if ai == nil || !v.IsValid() {
			continue
		}
		cand = cand[:0]
		switch v.K {
		case predicate.KindNumber:
			cand = ai.num.stab(v.Num, cand)
		case predicate.KindString:
			cand = ai.str.stab(v.S, cand)
		}
		for _, r := range cand {
			if !r.c.Matches(v) {
				continue
			}
			if sc.epoch[r.slot] != sc.cur {
				sc.epoch[r.slot] = sc.cur
				sc.counts[r.slot] = 0
			}
			sc.counts[r.slot]++
			if sc.counts[r.slot] == idx.need[r.slot] {
				matched = append(matched, r.slot)
			}
		}
		// Presence-only constraints admit any valid value of any kind.
		for _, r := range ai.loose {
			if sc.epoch[r.slot] != sc.cur {
				sc.epoch[r.slot] = sc.cur
				sc.counts[r.slot] = 0
			}
			sc.counts[r.slot]++
			if sc.counts[r.slot] == idx.need[r.slot] {
				matched = append(matched, r.slot)
			}
		}
		if first && len(matched) > 0 {
			break
		}
	}
	sc.matched = matched
	sc.cand = cand
	return matched
}

// matchScratch is the per-match working set, pooled so the counting hot
// path allocates nothing in steady state. Instead of clearing the dense
// counter array between events, each match bumps cur and lazily resets a
// slot's counter the first time the event touches it (epoch stamping).
type matchScratch struct {
	counts  []int32
	epoch   []uint32
	cur     uint32
	matched []int32
	cand    []iref
}

func (sc *matchScratch) reset(n int) {
	if len(sc.counts) < n {
		sc.counts = make([]int32, n)
		sc.epoch = make([]uint32, n)
	}
	sc.cur++
	if sc.cur == 0 { // epoch wrap: stale stamps could collide, clear once
		clear(sc.epoch)
		sc.cur = 1
	}
}
