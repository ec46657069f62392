package matching

import (
	"fmt"
	"sync"
	"testing"

	"padres/internal/message"
	"padres/internal/predicate"
)

// TestConcurrentMatchAndMutate hammers a PRT with parallel matchers while a
// writer churns records, the access pattern of the broker's parallel
// dispatch workers. Run under -race it is the regression test for the
// base + delta matching path; functionally it checks that a record the
// writer never touches is found by every matcher, whether it sits in the
// base ("stable") or has been in the delta since before the matchers
// started ("late"). The writer holds up to 8 adds and 8 dead base slots
// open at a time and takes them back out, and every so often writes a burst
// long enough to cross the delta's limit, so matchers run lock-free, under
// a delta, across folds and across a base dropped by a write — where
// several of them find no index at once and one must build it for all.
func TestConcurrentMatchAndMutate(t *testing.T) {
	prt := NewPRT()
	prt.Insert("stable", "cs", predicate.MustParse("[x,>,0]"), "hop1")
	window := func(i int) *predicate.Filter {
		return predicate.MustParse(fmt.Sprintf("[x,>,%d],[x,<,%d]", 1000+10*i, 1010+10*i))
	}
	for i := 0; i < 64; i++ {
		prt.Insert(message.SubID(fmt.Sprintf("s%d", i)), "cs", window(i), "hop1")
	}
	ev := predicate.Event{"x": predicate.Number(42)}
	prt.Match(ev) // build the base, so "late" starts life in the delta
	prt.Insert("late", "cs", predicate.MustParse("[x,<,100]"), "hop1")

	stop := make(chan struct{})
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		churn := predicate.MustParse("[y,>,0]")
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%256 == 255 {
				for b := 0; b < 70; b++ {
					prt.Insert(message.SubID(fmt.Sprintf("burst%d", b)), "cw", churn, "hop2")
				}
				for b := 0; b < 70; b++ {
					prt.Remove(message.SubID(fmt.Sprintf("burst%d", b)))
				}
			}
			k := i % 8
			id := message.SubID(fmt.Sprintf("churn%d", k))
			base := message.SubID(fmt.Sprintf("s%d", k))
			if i%16 < 8 {
				prt.Insert(id, "cw", churn, "hop2")
				prt.Remove(base)
			} else {
				prt.Remove(id)
				prt.Insert(base, "cs", window(k), "hop1")
			}
		}
	}()

	const matchers = 8
	var wg sync.WaitGroup
	for g := 0; g < matchers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				recs := prt.Match(ev)
				if len(recs) != 2 || recs[0].ID != "late" || recs[1].ID != "stable" {
					t.Errorf("match = %v, want [late stable]", recIDs(recs))
					return
				}
				if !prt.MatchAny(ev) {
					t.Error("MatchAny missed the stable records")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-writerDone
	tb := prt.t
	tb.mu.RLock()
	defer tb.mu.RUnlock()
	t.Logf("%d builds, %d drops, %d folds, tax %d", tb.builds, tb.drops, tb.folds, tb.tax.Load())
	if tb.folds == 0 && tb.tax.Load() == 0 {
		t.Error("no matcher ever ran under a delta")
	}
	if tb.builds > 1+tb.drops+tb.folds {
		t.Errorf("%d builds for %d drops and %d folds: matchers built side by side", tb.builds, tb.drops, tb.folds)
	}
}

// TestConcurrentCoveringAndMutate exercises the covering-relation queries —
// Covering, CoveredBy, Intersecting — and their result cache while a writer
// churns records on the same attributes the queries prune by. Run under
// -race it is the regression test for the lock-held posting-list paths;
// functionally, a record the writer never touches must appear in every
// query it satisfies, no matter how often churn invalidates the cache.
func TestConcurrentCoveringAndMutate(t *testing.T) {
	prt := NewPRT()
	// stable covers [x,>,10],[x,<,20], is covered by [x,>,0], and
	// intersects both.
	prt.Insert("stable", "cs", predicate.MustParse("[x,>,5],[x,<,50]"), "hop1")

	wide := predicate.MustParse("[x,>,0]")
	narrow := predicate.MustParse("[x,>,10],[x,<,20]")

	stop := make(chan struct{})
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			id := message.SubID(fmt.Sprintf("churn%d", i%8))
			// Churn on x so the writer mutates the very posting lists
			// the queries walk, and invalidates the covering cache.
			prt.Insert(id, "cw",
				predicate.MustParse(fmt.Sprintf("[x,>,%d],[x,<,%d]", i%100, i%100+30)), "hop2")
			prt.Remove(id)
		}
	}()

	find := func(recs []*Record) bool {
		for _, r := range recs {
			if r.ID == "stable" {
				return true
			}
		}
		return false
	}

	const queriers = 8
	var wg sync.WaitGroup
	for g := 0; g < queriers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				if !find(prt.Covering(narrow, "")) {
					t.Error("stable record missing from Covering result")
					return
				}
				if !find(prt.CoveredBy(wide, "")) {
					t.Error("stable record missing from CoveredBy result")
					return
				}
				if !find(prt.Intersecting(wide)) {
					t.Error("stable record missing from Intersecting result")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-writerDone
}
