package matching

import (
	"cmp"
	"slices"

	"padres/internal/predicate"
)

// Centered interval tree used by the counting match index. Each tree holds
// the interval hulls of every constraint on one attribute (one value kind
// per tree), and answers stabbing queries — "which constraints could this
// event value satisfy?" — in O(log n + k) instead of scanning the whole
// posting list.
//
// Hulls are compared closed: an entry's open bounds and <> exclusions are
// ignored here, so a stab may return constraints the value does not
// actually satisfy. Callers re-verify every candidate with the exact
// Constraint.Matches, so the conservative hull never costs correctness —
// only a few extra verifications at interval edges.

// iref is the payload carried through a tree: the record's dense slot plus
// the exact constraint used to verify stab candidates.
type iref struct {
	slot int32
	c    *predicate.Constraint
}

// ientry is one interval hull in a tree. loInf/hiInf mark unbounded ends;
// the corresponding key is then meaningless.
type ientry[K cmp.Ordered] struct {
	lo, hi       K
	loInf, hiInf bool
	ref          iref
}

// inode is one node of a centered interval tree: entries spanning the
// node's center value, stored twice — ascending by lower bound (unbounded
// first) and descending by upper bound (unbounded first) — so a stab scans
// only the qualifying prefix.
type inode[K cmp.Ordered] struct {
	center      K
	byLo        []ientry[K]
	byHi        []ientry[K]
	left, right *inode[K]
}

// itree is a centered interval tree. A nil *itree is an empty tree.
type itree[K cmp.Ordered] struct {
	root *inode[K]
}

// buildITree constructs a tree from entries. The slice is consumed: every
// node's byLo list is a segment of it, partitioned and sorted in place.
func buildITree[K cmp.Ordered](entries []ientry[K]) *itree[K] {
	if len(entries) == 0 {
		return nil
	}
	// One endpoint buffer serves every node: a node is done with it before
	// its children are built.
	eps := make([]K, 0, 2*len(entries))
	return &itree[K]{root: buildINode(entries, eps)}
}

func buildINode[K cmp.Ordered](entries []ientry[K], eps []K) *inode[K] {
	n := &inode[K]{}
	eps = eps[:0]
	for i := range entries {
		e := &entries[i]
		if !e.loInf {
			eps = append(eps, e.lo)
		}
		if !e.hiInf {
			eps = append(eps, e.hi)
		}
	}
	if len(eps) == 0 {
		// Every entry is unbounded on both sides: all span any center.
		n.setEntries(entries)
		return n
	}
	slices.Sort(eps)
	n.center = eps[len(eps)/2]
	// Three-way partition in place: entries[:h] span the center,
	// entries[h:r] end below it, entries[r:] start above it.
	h, r := 0, len(entries)
	for i := 0; i < r; {
		e := &entries[i]
		switch {
		case !e.hiInf && e.hi < n.center:
			i++
		case !e.loInf && e.lo > n.center:
			r--
			entries[i], entries[r] = entries[r], entries[i]
		default:
			entries[i], entries[h] = entries[h], entries[i]
			h++
			i++
		}
	}
	// The entry owning the median endpoint spans the center, so the first
	// segment is never empty and both subtrees strictly shrink — recursion
	// terminates.
	n.setEntries(entries[:h:h])
	if h < r {
		n.left = buildINode(entries[h:r], eps)
	}
	if r < len(entries) {
		n.right = buildINode(entries[r:], eps)
	}
	return n
}

// setEntries installs the node's two lists. Entries with equal bounds —
// every subscription to one class, say — are kept in slot order, so a stab
// that returns them all walks their records and constraints in the order
// they were allocated.
func (n *inode[K]) setEntries(here []ientry[K]) {
	n.byLo = here
	n.byHi = slices.Clone(here)
	slices.SortFunc(n.byLo, func(a, b ientry[K]) int {
		if c := trueFirst(a.loInf, b.loInf); c != 0 {
			return c
		}
		if c := cmp.Compare(a.lo, b.lo); c != 0 {
			return c
		}
		return cmp.Compare(a.ref.slot, b.ref.slot)
	})
	slices.SortFunc(n.byHi, func(a, b ientry[K]) int {
		if c := trueFirst(a.hiInf, b.hiInf); c != 0 {
			return c
		}
		if c := cmp.Compare(b.hi, a.hi); c != 0 {
			return c
		}
		return cmp.Compare(a.ref.slot, b.ref.slot)
	})
}

// trueFirst orders true before false.
func trueFirst(a, b bool) int {
	switch {
	case a == b:
		return 0
	case a:
		return -1
	}
	return 1
}

// stab appends to out the refs of every entry whose closed hull contains v.
// It allocates nothing beyond growth of out, so a caller reusing its buffer
// stabs allocation-free in steady state.
func (t *itree[K]) stab(v K, out []iref) []iref {
	if t == nil {
		return out
	}
	n := t.root
	for n != nil {
		switch {
		case v < n.center:
			// Node entries span the center (> v), so an entry contains v
			// iff its lower bound allows v; byLo's order makes that a
			// prefix.
			for i := range n.byLo {
				e := &n.byLo[i]
				if !e.loInf && e.lo > v {
					break
				}
				out = append(out, e.ref)
			}
			n = n.left
		case v > n.center:
			for i := range n.byHi {
				e := &n.byHi[i]
				if !e.hiInf && e.hi < v {
					break
				}
				out = append(out, e.ref)
			}
			n = n.right
		default:
			// v is exactly the center: every node entry contains it, and
			// neither subtree can (left ends below, right starts above).
			for i := range n.byLo {
				out = append(out, n.byLo[i].ref)
			}
			return out
		}
	}
	return out
}
