// Package workload generates the subscription workloads of the paper's
// evaluation (Fig. 7) — covered, chained, tree, distinct, and random — plus
// the advertisements and publications that exercise them. The covering
// relationships between the ten subscriptions of each workload are what
// drive the performance differences between the movement protocols, so the
// shapes are reproduced exactly:
//
//	covered:  subscription 1 covers the other nine; the nine are unrelated.
//	chained:  each subscription covers the next (a chain of ten).
//	tree:     a tree where each inner subscription covers its subtree.
//	distinct: no covering relationships at all.
//	random:   a uniform mix of the four shapes.
package workload

import (
	"fmt"
	"math/rand"

	"padres/internal/predicate"
)

// Size is the number of subscriptions per workload (Fig. 7 uses ten).
const Size = 10

// Kind identifies a subscription workload.
type Kind int

// Workload kinds.
const (
	Covered Kind = iota + 1
	Chained
	Tree
	Distinct
	Random
)

var kindNames = map[Kind]string{
	Covered:  "covered",
	Chained:  "chained",
	Tree:     "tree",
	Distinct: "distinct",
	Random:   "random",
}

// String returns the workload name.
func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("workload(%d)", int(k))
}

// Kinds lists the four deterministic workloads in the order the paper's
// Fig. 9 sweeps them (by increasing covering: distinct, chained, tree,
// covered).
func Kinds() []Kind { return []Kind{Distinct, Chained, Tree, Covered} }

// CoveredCount returns the workload's x-coordinate in the paper's Fig. 9:
// the number of subscriptions covered by the workload's root (chained=1,
// tree=3, covered=9, distinct=0).
func CoveredCount(k Kind) int {
	switch k {
	case Covered:
		return 9
	case Chained:
		return 1
	case Tree:
		return 3
	default:
		return 0
	}
}

// classPred namespaces a workload instance so that several instances (one
// per publisher) coexist without cross-covering.
func classPred(class string) predicate.Predicate {
	return predicate.Predicate{Attr: "class", Op: predicate.OpEq, Value: predicate.String(class)}
}

func rangeSub(class string, lo, hi float64) *predicate.Filter {
	return predicate.MustFilter(
		classPred(class),
		predicate.Predicate{Attr: "x", Op: predicate.OpGe, Value: predicate.Number(lo)},
		predicate.Predicate{Attr: "x", Op: predicate.OpLt, Value: predicate.Number(hi)},
	)
}

func pointSub(class string, x float64) *predicate.Filter {
	return predicate.MustFilter(
		classPred(class),
		predicate.Predicate{Attr: "x", Op: predicate.OpEq, Value: predicate.Number(x)},
	)
}

// BlockSpan is the width of the x-range a workload block occupies. Block b
// of a class subscribes within [b*BlockSpan, (b+1)*BlockSpan), so covering
// relations exist within a block but never across blocks — mirroring the
// paper's population, where each group of ten subscriptions forms its own
// instance of the Fig. 7 covering structure (Fig. 12 selects "ten root
// subscriptions", i.e. the roots of ten distinct instances).
const BlockSpan = 100

// Subscriptions returns the ten filters of one workload block in Fig. 7's
// numbering: index 0 is subscription 1 (the root where one exists). Random
// is not a fixed set; use Assign for it.
func Subscriptions(k Kind, class string, block int) []*predicate.Filter {
	o := float64(block * BlockSpan)
	switch k {
	case Covered:
		// Root covers all; leaves are unrelated point subscriptions. The
		// root is bounded to the block's span so it does not cover other
		// blocks.
		subs := make([]*predicate.Filter, 0, Size)
		subs = append(subs, rangeSub(class, o, o+BlockSpan))
		for i := 1; i < Size; i++ {
			subs = append(subs, pointSub(class, o+float64(i*10)))
		}
		return subs
	case Chained:
		subs := make([]*predicate.Filter, 0, Size)
		for i := 0; i < Size; i++ {
			subs = append(subs, rangeSub(class, o+float64(i*10), o+BlockSpan))
		}
		return subs
	case Tree:
		// A covering tree over interval subdivisions:
		//   1 -> 2,3; 2 -> 4,5; 3 -> 6,7; 4 -> 8,9; 5 -> 10.
		return []*predicate.Filter{
			rangeSub(class, o+0, o+80),  // 1
			rangeSub(class, o+0, o+40),  // 2
			rangeSub(class, o+40, o+80), // 3
			rangeSub(class, o+0, o+20),  // 4
			rangeSub(class, o+20, o+40), // 5
			rangeSub(class, o+40, o+60), // 6
			rangeSub(class, o+60, o+80), // 7
			rangeSub(class, o+0, o+10),  // 8
			rangeSub(class, o+10, o+20), // 9
			rangeSub(class, o+20, o+30), // 10
		}
	case Distinct:
		subs := make([]*predicate.Filter, 0, Size)
		for i := 0; i < Size; i++ {
			subs = append(subs, pointSub(class, o+float64(i*10+5)))
		}
		return subs
	default:
		panic(fmt.Sprintf("Subscriptions: kind %v has no fixed set", k))
	}
}

// Advertisement returns an advertisement covering every publication of the
// workload's class (the publisher announces the full event space).
func Advertisement(class string) *predicate.Filter {
	return predicate.MustFilter(
		classPred(class),
		predicate.Predicate{Attr: "x", Op: predicate.OpGe, Value: predicate.Number(-1000)},
	)
}

// Publication returns an event of the workload's class with the given x.
func Publication(class string, x float64) predicate.Event {
	return predicate.Event{
		"class": predicate.String(class),
		"x":     predicate.Number(x),
	}
}

// RandomPublication draws a publication whose x is uniform over the spans
// of the class's first `blocks` workload blocks, so every subscription in
// the population is reachable.
func RandomPublication(class string, blocks int, r *rand.Rand) predicate.Event {
	if blocks < 1 {
		blocks = 1
	}
	return Publication(class, float64(r.Intn(blocks*BlockSpan)))
}

// Assign deals out n subscriptions from the workload: client i belongs to
// block i/Size and receives subscription i mod Size of that block's
// instance. For Random, the kind of each block is drawn uniformly from the
// four fixed kinds using the provided source.
func Assign(k Kind, class string, n int, r *rand.Rand) []*predicate.Filter {
	out := make([]*predicate.Filter, 0, n)
	var subs []*predicate.Filter
	for i := 0; i < n; i++ {
		if i%Size == 0 {
			block := i / Size
			kind := k
			if k == Random {
				kind = Kinds()[r.Intn(len(Kinds()))]
			}
			subs = Subscriptions(kind, class, block)
		}
		out = append(out, subs[i%Size])
	}
	return out
}

// Blocks returns the number of workload blocks needed for n clients.
func Blocks(n int) int {
	return (n + Size - 1) / Size
}
