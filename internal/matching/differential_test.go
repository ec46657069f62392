package matching

import (
	"fmt"
	"math/rand"
	"testing"

	"padres/internal/message"
	"padres/internal/predicate"
)

// Differential property test: randomized filters and events are driven
// through the indexed table — counting Match, posting-list Covering /
// CoveredBy / Intersecting, with cache hits and lazy removals in play —
// and every result is compared against a brute-force evaluation of the
// exact predicate relations over a mirror of the table. Any divergence is
// an index or cache bug.

var diffAttrs = []string{"a", "b", "c", "d"}

// diffValue picks a value from a small universe so constraints collide
// often enough to exercise covering, containment, and exclusions.
func diffValue(r *rand.Rand) predicate.Value {
	if r.Intn(3) == 0 {
		return predicate.String(string(rune('p'+r.Intn(4))) + string(rune('p'+r.Intn(4))))
	}
	return predicate.Number(float64(r.Intn(21)))
}

func diffPredicate(r *rand.Rand, attr string) predicate.Predicate {
	ops := []predicate.Op{
		predicate.OpEq, predicate.OpNeq, predicate.OpLt, predicate.OpLe,
		predicate.OpGt, predicate.OpGe, predicate.OpPrefix, predicate.OpPresent,
	}
	op := ops[r.Intn(len(ops))]
	v := diffValue(r)
	if op == predicate.OpPrefix {
		v = predicate.String(string(rune('p' + r.Intn(4))))
	}
	if op == predicate.OpPresent {
		v = predicate.Value{}
	}
	return predicate.Predicate{Attr: attr, Op: op, Value: v}
}

// diffFilter generates a random satisfiable filter over 1-3 attributes.
func diffFilter(r *rand.Rand) *predicate.Filter {
	for {
		nattrs := 1 + r.Intn(3)
		var preds []predicate.Predicate
		perm := r.Perm(len(diffAttrs))
		for i := 0; i < nattrs; i++ {
			attr := diffAttrs[perm[i]]
			for j := 0; j < 1+r.Intn(2); j++ {
				preds = append(preds, diffPredicate(r, attr))
			}
		}
		if f, err := predicate.NewFilter(preds...); err == nil {
			return f
		}
	}
}

func diffEvent(r *rand.Rand) predicate.Event {
	e := predicate.Event{}
	for _, attr := range diffAttrs {
		if r.Intn(2) == 0 {
			e[attr] = diffValue(r)
		}
	}
	return e
}

func recIDs(recs []*Record) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = r.ID
	}
	return out
}

func sameIDs(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// brute evaluates a relation over the mirror, sorted by ID like the table.
func brute(mirror map[string]*predicate.Filter, keep func(id string, f *predicate.Filter) bool) []string {
	var out []string
	for id, f := range mirror {
		if keep(id, f) {
			out = append(out, id)
		}
	}
	sortStringsAsc(out)
	return out
}

func sortStringsAsc(xs []string) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

func TestDifferentialQueries(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			r := rand.New(rand.NewSource(seed))
			prt := NewPRT()
			mirror := map[string]*predicate.Filter{}

			// A recurring query pool so repeated queries hit the covering
			// cache; correctness across interleaved mutations proves the
			// cache invalidates when it must.
			queries := make([]*predicate.Filter, 6)
			for i := range queries {
				queries[i] = diffFilter(r)
			}

			nextID := 0
			for round := 0; round < 600; round++ {
				switch op := r.Intn(10); {
				case op < 5: // insert fresh
					id := fmt.Sprintf("s%d", nextID)
					nextID++
					f := diffFilter(r)
					prt.Insert(message.SubID(id), "c", f, "hop")
					mirror[id] = f
				case op < 7 && len(mirror) > 0: // remove random
					for id := range mirror {
						prt.Remove(message.SubID(id))
						delete(mirror, id)
						break
					}
				case op < 8 && len(mirror) > 0: // replace in place
					for id := range mirror {
						f := diffFilter(r)
						prt.Insert(message.SubID(id), "c", f, "hop")
						mirror[id] = f
						break
					}
				}

				if round%3 != 0 {
					continue
				}
				e := diffEvent(r)
				got := recIDs(prt.Match(e))
				want := brute(mirror, func(_ string, f *predicate.Filter) bool { return f.Matches(e) })
				if !sameIDs(got, want) {
					t.Fatalf("round %d: Match(%v) = %v, brute = %v", round, e, got, want)
				}
				if prt.MatchAny(e) != (len(want) > 0) {
					t.Fatalf("round %d: MatchAny(%v) disagrees with Match", round, e)
				}

				q := queries[r.Intn(len(queries))]
				var excl message.SubID
				if len(mirror) > 0 && r.Intn(2) == 0 {
					for id := range mirror {
						excl = message.SubID(id)
						break
					}
				}
				got = recIDs(prt.Covering(q, excl))
				want = brute(mirror, func(id string, f *predicate.Filter) bool {
					return id != string(excl) && f.Covers(q)
				})
				if !sameIDs(got, want) {
					t.Fatalf("round %d: Covering(%s, %q) = %v, brute = %v", round, q, excl, got, want)
				}

				got = recIDs(prt.CoveredBy(q, excl))
				want = brute(mirror, func(id string, f *predicate.Filter) bool {
					return id != string(excl) && q.Covers(f)
				})
				if !sameIDs(got, want) {
					t.Fatalf("round %d: CoveredBy(%s, %q) = %v, brute = %v", round, q, excl, got, want)
				}

				got = recIDs(prt.Intersecting(q))
				want = brute(mirror, func(_ string, f *predicate.Filter) bool { return f.Intersects(q) })
				if !sameIDs(got, want) {
					t.Fatalf("round %d: Intersecting(%s) = %v, brute = %v", round, q, got, want)
				}
			}
		})
	}
}

// TestDifferentialMatchInto checks the caller-buffer path against Match on
// churning tables: same results, shared buffer reusable across calls.
func TestDifferentialMatchInto(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	prt := NewPRT()
	var buf []*Record
	for i := 0; i < 300; i++ {
		prt.Insert(message.SubID(fmt.Sprintf("s%d", i)), "c", diffFilter(r), "hop")
		if i%7 == 0 {
			prt.Remove(message.SubID(fmt.Sprintf("s%d", r.Intn(i+1))))
		}
		e := diffEvent(r)
		buf = prt.MatchInto(e, buf[:0])
		want := prt.Match(e)
		if !sameIDs(recIDs(buf), recIDs(want)) {
			t.Fatalf("MatchInto = %v, Match = %v", recIDs(buf), recIDs(want))
		}
	}
}

// FuzzMatchDifferential drives the fuzzer over (seed-derived) tables and a
// fuzzed query event, comparing the counting index against brute force. The
// base is built after the first `warm` inserts, so the rest of the inserts,
// and the removals and replacements interleaved with them, reach the final
// match as a delta (or, past its limit, as a dropped base).
func FuzzMatchDifferential(f *testing.F) {
	f.Add(int64(1), uint8(10), uint8(0), "a", 5.0)
	f.Add(int64(7), uint8(40), uint8(20), "d", 19.0)
	f.Add(int64(3), uint8(200), uint8(100), "b", 7.0)
	f.Fuzz(func(t *testing.T, seed int64, n, warm uint8, attr string, x float64) {
		r := rand.New(rand.NewSource(seed))
		prt := NewPRT()
		mirror := map[string]*predicate.Filter{}
		e := diffEvent(r)
		if attr != "" {
			e[attr] = predicate.Number(x)
		}
		for i := 0; i < int(n); i++ {
			if i == int(warm) {
				prt.Match(e)
			}
			id := fmt.Sprintf("s%d", i)
			if i > int(warm) && r.Intn(3) == 0 {
				id = fmt.Sprintf("s%d", r.Intn(i)) // replace, or re-insert a removed one
			}
			fl := diffFilter(r)
			prt.Insert(message.SubID(id), "c", fl, "hop")
			mirror[id] = fl
			if i > int(warm) && r.Intn(4) == 0 {
				id = fmt.Sprintf("s%d", r.Intn(i))
				prt.Remove(message.SubID(id))
				delete(mirror, id)
			}
		}
		got := recIDs(prt.Match(e))
		want := brute(mirror, func(_ string, fl *predicate.Filter) bool { return fl.Matches(e) })
		if !sameIDs(got, want) {
			t.Fatalf("Match(%v) = %v, brute = %v", e, got, want)
		}
		if prt.MatchAny(e) != (len(want) > 0) {
			t.Fatalf("MatchAny(%v) disagrees with brute force %v", e, want)
		}
	})
}
