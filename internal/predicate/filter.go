package predicate

import (
	"encoding/json"
	"fmt"
	"strings"
)

// Filter is an immutable conjunction of predicates, used both as a
// subscription filter and as an advertisement. Construct filters with
// NewFilter (or Parse); the zero Filter matches nothing and covers nothing.
type Filter struct {
	preds []Predicate
	cons  map[string]*Constraint
	key   string
}

// NewFilter validates and normalizes a conjunction of predicates. It fails
// if any predicate is malformed or if the conjunction is unsatisfiable
// (no publication could ever match it).
func NewFilter(preds ...Predicate) (*Filter, error) {
	if len(preds) == 0 {
		return nil, fmt.Errorf("filter needs at least one predicate")
	}
	f := &Filter{preds: make([]Predicate, len(preds))}
	copy(f.preds, preds)
	if err := f.normalize(); err != nil {
		return nil, err
	}
	return f, nil
}

// MustFilter is NewFilter that panics on error; intended for tests and
// static workload definitions.
func MustFilter(preds ...Predicate) *Filter {
	f, err := NewFilter(preds...)
	if err != nil {
		panic(err)
	}
	return f
}

func (f *Filter) normalize() error {
	// A zero-constraint filter is inconsistent by construction: Matches
	// would reject every event while a vacuous Covers would accept every
	// filter, and the counting index (which walks per-attribute postings)
	// would never examine it. Reject it here so no decode path — gob,
	// JSON, or the compact binary codec — can materialize one.
	if len(f.preds) == 0 {
		return fmt.Errorf("filter needs at least one predicate")
	}
	f.cons = make(map[string]*Constraint, len(f.preds))
	for _, p := range f.preds {
		if err := p.Validate(); err != nil {
			return err
		}
		c, ok := f.cons[p.Attr]
		if !ok {
			c = newConstraint()
			f.cons[p.Attr] = c
		}
		c.add(p)
	}
	for attr, c := range f.cons {
		if !c.satisfiable() {
			return fmt.Errorf("%w: attribute %q: %s", ErrUnsatisfiable, attr, c.describe())
		}
	}
	f.key = f.canonicalKey()
	return nil
}

// Predicates returns a copy of the filter's predicates as authored.
func (f *Filter) Predicates() []Predicate {
	out := make([]Predicate, len(f.preds))
	copy(out, f.preds)
	return out
}

// Attrs returns the constrained attribute names in sorted order.
func (f *Filter) Attrs() []string {
	return f.AppendAttrs(make([]string, 0, len(f.cons)))
}

// AppendAttrs appends the constrained attribute names to dst in sorted
// order and returns it. A caller that walks the names and lets them go —
// the routing tables do, on every insert, removal and index build — passes
// a stack buffer and allocates nothing.
func (f *Filter) AppendAttrs(dst []string) []string {
	n := len(dst)
	for a := range f.cons {
		dst = append(dst, a)
	}
	sortStrings(dst[n:])
	return dst
}

// AttrCount returns the number of distinct attributes the filter constrains.
func (f *Filter) AttrCount() int { return len(f.cons) }

// HasAttr reports whether the filter constrains the given attribute.
func (f *Filter) HasAttr(attr string) bool {
	_, ok := f.cons[attr]
	return ok
}

// Matches reports whether a publication satisfies the filter: every
// constrained attribute must be present with a satisfying value.
func (f *Filter) Matches(e Event) bool {
	if f == nil || len(f.cons) == 0 {
		return false
	}
	for attr, c := range f.cons {
		v, ok := e[attr]
		if !ok || !c.matches(v) {
			return false
		}
	}
	return true
}

// Covers reports whether every publication matching o also matches f.
// This is the subscription (and advertisement) covering relation: if
// sub1.Covers(sub2), forwarding sub1 makes forwarding sub2 redundant.
func (f *Filter) Covers(o *Filter) bool {
	if f == nil || o == nil {
		return false
	}
	// Degenerate zero-constraint filters (only constructible by bypassing
	// NewFilter) match nothing, so they cover nothing and are covered by
	// nothing — Matches, Covers, and Intersects must agree.
	if len(f.cons) == 0 || len(o.cons) == 0 {
		return false
	}
	// Every attribute f constrains must be constrained by o at least as
	// tightly; an attribute constrained only by f could be absent (or
	// wild) in publications matching o.
	for attr, cf := range f.cons {
		co, ok := o.cons[attr]
		if !ok || !cf.covers(co) {
			return false
		}
	}
	return true
}

// Intersects reports whether some publication could match both filters.
// Used to decide whether a subscription intersects an advertisement: a
// publication conforming to the advertisement may carry extra attributes,
// so attributes constrained by only one side never preclude intersection.
func (f *Filter) Intersects(o *Filter) bool {
	if f == nil || o == nil {
		return false
	}
	// A degenerate zero-constraint filter matches no publication, so no
	// publication can match both sides; see Covers.
	if len(f.cons) == 0 || len(o.cons) == 0 {
		return false
	}
	for attr, cf := range f.cons {
		co, ok := o.cons[attr]
		if !ok {
			continue
		}
		if !cf.intersects(co) {
			return false
		}
	}
	return true
}

// Equal reports whether two filters have identical normalized semantics
// textualized to the same canonical key. Filters authored with different
// but equivalent predicate orders compare equal.
func (f *Filter) Equal(o *Filter) bool {
	if f == nil || o == nil {
		return f == o
	}
	return f.key == o.key
}

// Key returns a deterministic canonical identifier for the filter, stable
// across predicate ordering. Suitable as a map key.
func (f *Filter) Key() string { return f.key }

func (f *Filter) canonicalKey() string {
	parts := make([]string, len(f.preds))
	for i, p := range f.preds {
		parts[i] = p.String()
	}
	sortStrings(parts)
	return strings.Join(parts, ",")
}

// String renders the filter in the textual language, in canonical order.
func (f *Filter) String() string {
	if f == nil {
		return "<nil>"
	}
	return f.key
}

// Constraint returns the filter's normalized constraint on attr, or nil
// when the filter does not constrain it. The returned constraint is shared
// and must be treated as read-only; the matching index holds these
// pointers in its per-attribute postings.
func (f *Filter) Constraint(attr string) *Constraint {
	if f == nil {
		return nil
	}
	return f.cons[attr]
}

// filterWire is the serialized JSON form of a Filter: predicates only,
// with normalization recomputed on decode. (The binary wire form lives in
// codec.go.)
type filterWire struct {
	Preds []Predicate `json:"preds"`
}

// MarshalJSON implements json.Marshaler.
func (f *Filter) MarshalJSON() ([]byte, error) {
	return json.Marshal(filterWire{Preds: f.preds})
}

// UnmarshalJSON implements json.Unmarshaler.
func (f *Filter) UnmarshalJSON(data []byte) error {
	var w filterWire
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	f.preds = w.Preds
	return f.normalize()
}

var (
	_ json.Marshaler   = (*Filter)(nil)
	_ json.Unmarshaler = (*Filter)(nil)
)
