package predicate

import (
	"fmt"

	"padres/internal/wire"
)

// Compact binary codec for the predicate model. This is the wire form used
// by the message envelope codec and the broker/client state snapshots; it
// replaces the earlier nested-gob encoding, which re-sent gob type
// descriptors on every single Filter (a fresh gob stream per value made
// each encoded filter carry ~10x its payload in schema bytes).
//
// Layout (see docs/PROTOCOL.md, "Wire codec"):
//
//	value     := kind:byte payload
//	            kind 0  — invalid/absent, no payload
//	            kind 1  — string: uvarint len, bytes
//	            kind 2  — number: 8-byte little-endian IEEE 754
//	predicate := attr:string op:byte value
//	filter    := uvarint npreds, npreds × predicate
//	event     := uvarint nattrs, nattrs × (attr:string value), attrs sorted
//
// Decoding a filter re-runs normalization, so a frame that decodes but
// violates the filter invariants (empty, unsatisfiable, malformed
// predicate) is rejected exactly like it would be at construction time.

// AppendValue appends the compact encoding of v.
func AppendValue(b []byte, v Value) []byte {
	b = append(b, byte(v.K))
	switch v.K {
	case KindString:
		b = wire.AppendString(b, v.S)
	case KindNumber:
		b = wire.AppendF64(b, v.Num)
	}
	return b
}

// ReadValue consumes one value, returning the remainder of b.
func ReadValue(b []byte) (Value, []byte, error) { return readValue(b, nil) }

// readValue is ReadValue with string payloads taken through in.
func readValue(b []byte, in *wire.Interner) (Value, []byte, error) {
	k, rest, err := wire.Byte(b)
	if err != nil {
		return Value{}, nil, err
	}
	switch Kind(k) {
	case 0:
		return Value{}, rest, nil
	case KindString:
		s, rest, err := in.String(rest)
		if err != nil {
			return Value{}, nil, err
		}
		return String(s), rest, nil
	case KindNumber:
		f, rest, err := wire.F64(rest)
		if err != nil {
			return Value{}, nil, err
		}
		return Number(f), rest, nil
	default:
		return Value{}, nil, fmt.Errorf("predicate: unknown value kind %d", k)
	}
}

// AppendPredicate appends the compact encoding of p.
func AppendPredicate(b []byte, p Predicate) []byte {
	b = wire.AppendString(b, p.Attr)
	b = append(b, byte(p.Op))
	return AppendValue(b, p.Value)
}

// ReadPredicate consumes one predicate.
func ReadPredicate(b []byte) (Predicate, []byte, error) {
	attr, rest, err := wire.String(b)
	if err != nil {
		return Predicate{}, nil, err
	}
	op, rest, err := wire.Byte(rest)
	if err != nil {
		return Predicate{}, nil, err
	}
	v, rest, err := ReadValue(rest)
	if err != nil {
		return Predicate{}, nil, err
	}
	return Predicate{Attr: attr, Op: Op(op), Value: v}, rest, nil
}

// AppendBinary appends the compact encoding of the filter's predicates.
// The normalized constraint form is recomputed on decode.
func (f *Filter) AppendBinary(b []byte) []byte {
	b = wire.AppendUvarint(b, uint64(len(f.preds)))
	for _, p := range f.preds {
		b = AppendPredicate(b, p)
	}
	return b
}

// ReadFilter consumes one filter, validating and normalizing it exactly as
// NewFilter would. An encoded empty filter is rejected.
func ReadFilter(b []byte) (*Filter, []byte, error) {
	n, rest, err := wire.Count(b, 3) // attr, op, value kind
	if err != nil {
		return nil, nil, err
	}
	preds := make([]Predicate, 0, n)
	for i := 0; i < n; i++ {
		var p Predicate
		p, rest, err = ReadPredicate(rest)
		if err != nil {
			return nil, nil, err
		}
		preds = append(preds, p)
	}
	f := &Filter{preds: preds}
	if err := f.normalize(); err != nil {
		return nil, nil, fmt.Errorf("decode filter: %w", err)
	}
	return f, rest, nil
}

// AppendEvent appends the compact encoding of e, attributes in sorted
// order so equal events encode byte-identically. The names of an event of
// up to 8 attributes are sorted on the stack, so encoding one allocates
// nothing beyond growth of b.
func AppendEvent(b []byte, e Event) []byte {
	b = wire.AppendUvarint(b, uint64(len(e)))
	var stack [8]string
	attrs := stack[:0]
	if len(e) > len(stack) {
		attrs = make([]string, 0, len(e))
	}
	for a := range e {
		attrs = append(attrs, a)
	}
	sortStrings(attrs)
	for _, a := range attrs {
		b = wire.AppendString(b, a)
		b = AppendValue(b, e[a])
	}
	return b
}

// ReadEvent consumes one event. A zero-attribute event decodes to nil.
func ReadEvent(b []byte) (Event, []byte, error) { return ReadEventInterned(b, nil) }

// ReadEventInterned is ReadEvent for a stream decoder: attribute names and
// string values are taken through in (nil interns nothing), so the events
// of one stream share them instead of each holding its own copies.
func ReadEventInterned(b []byte, in *wire.Interner) (Event, []byte, error) {
	n, rest, err := wire.Count(b, 2) // attr, value kind
	if err != nil {
		return nil, nil, err
	}
	if n == 0 {
		return nil, rest, nil
	}
	e := make(Event, n)
	for i := 0; i < n; i++ {
		var a string
		a, rest, err = in.String(rest)
		if err != nil {
			return nil, nil, err
		}
		var v Value
		v, rest, err = readValue(rest, in)
		if err != nil {
			return nil, nil, err
		}
		e[a] = v
	}
	return e, rest, nil
}
