package main

import (
	"fmt"
	"math/rand"

	"padres/internal/predicate"
	"padres/internal/workload"
)

// The generators below turn a seed into a workload's complete input: who
// holds which subscription, the pool of events the publishers cycle through,
// and — computed with Filter.Matches only, never with the matching index —
// the set of holders each pool event must reach. The program under test sees
// the filters and events; the reference masks stay in the harness.

// maxHolders bounds the notification receivers of one workload so a
// publication's expected and observed recipients each fit one uint64 mask.
const maxHolders = 64

// subSpec is one generated subscription and the receiver that holds it.
type subSpec struct {
	holder int
	filter *predicate.Filter
	// class is the generator's own knowledge of the filter's class value
	// (-1 when the filter has no class equality), and [xlo, xhi) of its x
	// range (xhi 0 when the generator does not say); the reference uses them
	// to skip subscriptions that cannot match, and cross-checks the shortcut.
	class    int
	xlo, xhi float64
}

// eventSpec is one pool event and the publisher that issues it.
type eventSpec struct {
	pub   int
	class int
	x     float64 // the event's x, for subscriptions that state their x range
	ev    predicate.Event
}

// population is one workload's generated input plus its reference answer.
type population struct {
	holders int
	subs    []subSpec
	events  []eventSpec
	// advs are the advertisements the workload's publishers announce.
	advs []*predicate.Filter
	// expect[i] is the holder mask pool event i must be delivered to.
	expect []uint64
}

func eq(attr, v string) predicate.Predicate {
	return predicate.Predicate{Attr: attr, Op: predicate.OpEq, Value: predicate.String(v)}
}

func ge(attr string, v float64) predicate.Predicate {
	return predicate.Predicate{Attr: attr, Op: predicate.OpGe, Value: predicate.Number(v)}
}

func lt(attr string, v float64) predicate.Predicate {
	return predicate.Predicate{Attr: attr, Op: predicate.OpLt, Value: predicate.Number(v)}
}

func className(prefix string, c int) string { return fmt.Sprintf("%s%d", prefix, c) }

// computeExpect fills p.expect by brute force. Subscriptions whose known
// class differs from the event's, or whose known x range excludes the
// event's x, are skipped; verifyExpect proves on a sample that the skips
// change nothing.
func (p *population) computeExpect() {
	byClass := make(map[int][]int)
	for i, s := range p.subs {
		byClass[s.class] = append(byClass[s.class], i)
	}
	p.expect = make([]uint64, len(p.events))
	for i, e := range p.events {
		// Candidates: subscriptions with no class constraint, plus those
		// of the event's own class.
		classes := []int{-1}
		if e.class >= 0 {
			classes = append(classes, e.class)
		}
		var mask uint64
		for _, cls := range classes {
			for _, si := range byClass[cls] {
				s := p.subs[si]
				if s.xhi > 0 && (e.x < s.xlo || e.x >= s.xhi) {
					continue
				}
				if s.filter.Matches(e.ev) {
					mask |= 1 << uint(s.holder)
				}
			}
		}
		p.expect[i] = mask
	}
}

// verifyExpect recomputes the masks of up to n pool events against every
// subscription, with no shortcut, and reports the first disagreement.
func (p *population) verifyExpect(n int) error {
	step := len(p.events)/n + 1
	for i := 0; i < len(p.events); i += step {
		var mask uint64
		for _, s := range p.subs {
			if s.filter.Matches(p.events[i].ev) {
				mask |= 1 << uint(s.holder)
			}
		}
		if mask != p.expect[i] {
			return fmt.Errorf("reference shortcut disagrees with full scan on pool event %d: %064b vs %064b", i, p.expect[i], mask)
		}
	}
	return nil
}

// meanFanout is the mean number of holders a pool event reaches.
func (p *population) meanFanout() float64 {
	var n int
	for _, m := range p.expect {
		n += popcount(m)
	}
	return float64(n) / float64(len(p.expect))
}

func popcount(m uint64) int {
	n := 0
	for ; m != 0; m &= m - 1 {
		n++
	}
	return n
}

const (
	fanoutClasses = 16
	fanoutSpace   = 1000.0
	// fanoutRefSubs is the table size the x-range widths below are tuned
	// for: at 200 000 subscriptions an event matches ~4.1 of them, which
	// lands on ~4 of the 64 holders. Other sizes scale the widths so the
	// fan-out stays near 4.
	fanoutRefSubs = 200000.0
)

// genMatchFanout builds nSubs subscriptions (class equality over 16 classes
// plus an x-range, a quarter of them with an extra y-range) spread over 64
// holders, and a pool of nEvents events.
func genMatchFanout(seed int64, nSubs, nEvents int) *population {
	r := rand.New(rand.NewSource(seed))
	p := &population{holders: maxHolders, advs: []*predicate.Filter{predicate.MustFilter(ge("x", -1000))}}
	scale := fanoutRefSubs / float64(nSubs)
	for i := 0; i < nSubs; i++ {
		c := r.Intn(fanoutClasses)
		w := (0.05 + 0.65*r.Float64()) * scale
		lo := r.Float64() * (fanoutSpace - w)
		preds := []predicate.Predicate{eq("class", className("k", c)), ge("x", lo), lt("x", lo+w)}
		if r.Intn(4) == 0 {
			ylo := r.Float64() * fanoutSpace / 2
			preds = append(preds, ge("y", ylo), lt("y", ylo+fanoutSpace/2))
		}
		p.subs = append(p.subs, subSpec{holder: r.Intn(maxHolders), filter: predicate.MustFilter(preds...), class: c, xlo: lo, xhi: lo + w})
	}
	for i := 0; i < nEvents; i++ {
		c, x := r.Intn(fanoutClasses), r.Float64()*fanoutSpace
		p.events = append(p.events, eventSpec{class: c, x: x, ev: predicate.Event{
			"class": predicate.String(className("k", c)),
			"x":     predicate.Number(x),
			"y":     predicate.Number(r.Float64() * fanoutSpace),
		}})
	}
	p.computeExpect()
	return p
}

const (
	overlayPublishers  = 4
	overlaySubscribers = 24
	overlayGroups      = 6
	overlayDeadSubs    = 50
	overlayGroupSpan   = 100.0
)

// genOverlay builds the publication-journey population: 24 subscribers in
// six groups of four, each holding one x-range subscription that matches
// its group's slice of the published space and 50 that intersect the
// advertisements (so they propagate and occupy every routing table on the
// way) but lie where no publisher ever publishes. Every event reaches
// exactly the four subscribers of one group.
func genOverlay(seed int64, nEvents int) *population {
	r := rand.New(rand.NewSource(seed))
	p := &population{holders: overlaySubscribers}
	for k := 0; k < overlayPublishers; k++ {
		p.advs = append(p.advs, workload.Advertisement(className("w", k)))
	}
	for s := 0; s < overlaySubscribers; s++ {
		g := s % overlayGroups
		lo := float64(g) * overlayGroupSpan
		p.subs = append(p.subs, subSpec{holder: s, class: -1, filter: predicate.MustFilter(ge("x", lo), lt("x", lo+overlayGroupSpan))})
		for d := 0; d < overlayDeadSubs; d++ {
			dlo := 2000 + r.Float64()*1e6
			p.subs = append(p.subs, subSpec{holder: s, class: -1, filter: predicate.MustFilter(ge("x", dlo), lt("x", dlo+1+r.Float64()*50))})
		}
	}
	for i := 0; i < nEvents; i++ {
		pub := r.Intn(overlayPublishers)
		p.events = append(p.events, eventSpec{pub: pub, class: -1, ev: workload.Publication(className("w", pub), r.Float64()*overlayGroups*overlayGroupSpan)})
	}
	p.computeExpect()
	return p
}

// genTCP builds the loopback-chain population: one subscriber, one
// publisher, and the smallest realistic event (class, x, and the harness's
// sequence attribute).
func genTCP(seed int64, nEvents int) *population {
	r := rand.New(rand.NewSource(seed))
	p := &population{holders: 1, advs: []*predicate.Filter{workload.Advertisement("t")}}
	p.subs = append(p.subs, subSpec{holder: 0, class: -1, filter: predicate.MustFilter(eq("class", "t"), ge("x", 0))})
	for i := 0; i < nEvents; i++ {
		p.events = append(p.events, eventSpec{class: -1, ev: workload.Publication("t", r.Float64()*1000)})
	}
	p.computeExpect()
	return p
}

const (
	stormClients   = 40
	stormCorridors = 2
)

// genMoveStorm builds the Fig. 8 population at QuickScale size: 40
// subscribers, 20 per corridor, each holding one subscription of the
// covered workload (Fig. 7); the two corridor classes are published by one
// publisher each.
func genMoveStorm(seed int64, nEvents int) *population {
	r := rand.New(rand.NewSource(seed))
	p := &population{holders: stormClients}
	for ci := 0; ci < stormCorridors; ci++ {
		for k := 0; k < 3; k++ { // Fig. 8 has three advertisers per corridor class
			p.advs = append(p.advs, workload.Advertisement(className("w", ci+1)))
		}
	}
	per := stormClients / stormCorridors
	for ci := 0; ci < stormCorridors; ci++ {
		for i, f := range workload.Assign(workload.Covered, className("w", ci+1), per, r) {
			p.subs = append(p.subs, subSpec{holder: ci*per + i, class: -1, filter: f})
		}
	}
	for i := 0; i < nEvents; i++ {
		ci := r.Intn(stormCorridors)
		p.events = append(p.events, eventSpec{pub: ci, class: -1,
			ev: workload.RandomPublication(className("w", ci+1), workload.Blocks(per), r)})
	}
	p.computeExpect()
	return p
}

const churnStable = 4

// genSubChurn builds the stable part of the churn workload: four
// subscribers that each receive every publication. The churned
// subscriptions come from churnFilter.
func genSubChurn(seed int64, nEvents int) *population {
	r := rand.New(rand.NewSource(seed))
	p := &population{holders: churnStable, advs: []*predicate.Filter{workload.Advertisement("s")}}
	for s := 0; s < churnStable; s++ {
		p.subs = append(p.subs, subSpec{holder: s, class: -1, filter: predicate.MustFilter(eq("class", "s"), ge("x", 0), lt("x", 1000))})
	}
	for i := 0; i < nEvents; i++ {
		p.events = append(p.events, eventSpec{class: -1, ev: workload.Publication("s", r.Float64()*1000)})
	}
	p.computeExpect()
	return p
}

// churnFilter draws a fresh subscription for a routing op: it intersects
// the workload's advertisements (which announce x >= -1000), so it
// propagates hop by hop toward the publishers, but lies above x = 2000
// where nothing is ever published. An empty class leaves class
// unconstrained.
func churnFilter(r *rand.Rand, class string) *predicate.Filter {
	lo := 2000 + r.Float64()*1e6
	preds := []predicate.Predicate{ge("x", lo), lt("x", lo+1+r.Float64()*50)}
	if class != "" {
		preds = append(preds, eq("class", class))
	}
	return predicate.MustFilter(preds...)
}
