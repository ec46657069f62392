package predicate

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// Regression tests for the zero-constraint Filter inconsistency: an empty
// filter used to decode successfully while Matches rejected every event and
// a vacuous Covers accepted every filter. Now every decode path rejects it,
// and the degenerate in-package value agrees with itself across relations.

func TestEmptyFilterRejectedOnConstruction(t *testing.T) {
	if _, err := NewFilter(); err == nil {
		t.Fatal("NewFilter() with zero predicates succeeded")
	}
}

func TestEmptyFilterRejectedOnJSONDecode(t *testing.T) {
	for _, raw := range []string{`{"preds":[]}`, `{"preds":null}`, `{}`} {
		var f Filter
		if err := json.Unmarshal([]byte(raw), &f); err == nil {
			t.Errorf("UnmarshalJSON(%s) accepted an empty filter", raw)
		}
	}
}

func TestEmptyFilterRejectedOnBinaryDecode(t *testing.T) {
	// An encoded empty filter is a single uvarint zero (npreds = 0).
	empty := (&Filter{}).AppendBinary(nil)
	if _, _, err := ReadFilter(empty); err == nil {
		t.Fatal("ReadFilter accepted an encoded empty filter")
	}
}

func TestDegenerateFilterRelationsAgree(t *testing.T) {
	// Only constructible by bypassing NewFilter; the relations must still
	// agree that it matches nothing, covers nothing, and intersects nothing.
	var deg Filter
	real := MustParse("[x,>,0]")

	if deg.Matches(Event{"x": Number(1)}) {
		t.Error("degenerate filter matched an event")
	}
	if deg.Covers(real) || real.Covers(&deg) || deg.Covers(&deg) {
		t.Error("degenerate filter participates in covering")
	}
	if deg.Intersects(real) || real.Intersects(&deg) || deg.Intersects(&deg) {
		t.Error("degenerate filter intersects something")
	}
	var nilF *Filter
	if nilF.Matches(Event{"x": Number(1)}) || nilF.Covers(real) || real.Covers(nilF) ||
		nilF.Intersects(real) || real.Intersects(nilF) {
		t.Error("nil filter participates in a relation")
	}
}

func TestFilterBinaryRoundTrip(t *testing.T) {
	for _, src := range []string{
		"[x,>,0]",
		"[x,>,5],[x,<,50],[class,=,'alert']",
		"[name,str-prefix,'ab'],[x,!=,3]",
		"[p,isPresent]",
	} {
		f := MustParse(src)
		b := f.AppendBinary(nil)
		got, rest, err := ReadFilter(b)
		if err != nil {
			t.Fatalf("%s: decode: %v", src, err)
		}
		if len(rest) != 0 {
			t.Fatalf("%s: %d trailing bytes", src, len(rest))
		}
		if !got.Equal(f) {
			t.Fatalf("%s: round trip changed filter: got %s", src, got)
		}
	}
}

func TestFilterBinaryEncodingCompact(t *testing.T) {
	// The compact codec replaced nested gob, whose per-value type
	// descriptors made every filter carry ~10x its payload. Pin the size so
	// a codec regression (descriptor bloat, accidental double encode) fails
	// loudly rather than slowly re-inflating the wire.
	f := MustParse("[x,>,5],[x,<,50]")
	b := f.AppendBinary(nil)
	if len(b) > 40 {
		t.Fatalf("two-predicate filter encodes to %d bytes, want <= 40", len(b))
	}
	// Repeated encodes are byte-identical: no hidden per-stream state.
	if !bytes.Equal(b, f.AppendBinary(nil)) {
		t.Fatal("repeated AppendBinary differs")
	}
}

func TestEventBinaryRoundTrip(t *testing.T) {
	e := Event{"x": Number(4.5), "class": String("alert"), "n": Int(7)}
	b := AppendEvent(nil, e)
	got, rest, err := ReadEvent(b)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes", len(rest))
	}
	if len(got) != len(e) {
		t.Fatalf("round trip changed event: %v -> %v", e, got)
	}
	for a, v := range e {
		if got[a] != v {
			t.Fatalf("attr %q: %v -> %v", a, v, got[a])
		}
	}
	// Sorted-attr encoding makes equal events encode byte-identically.
	if !bytes.Equal(b, AppendEvent(nil, Event{"n": Int(7), "class": String("alert"), "x": Number(4.5)})) {
		t.Fatal("equal events encode differently")
	}
}

func TestFilterDecodeTruncated(t *testing.T) {
	f := MustParse("[x,>,5],[class,=,'alert']")
	b := f.AppendBinary(nil)
	for i := 0; i < len(b); i++ {
		if _, _, err := ReadFilter(b[:i]); err == nil {
			t.Fatalf("ReadFilter accepted truncation at %d/%d bytes", i, len(b))
		}
	}
}

func TestFilterDecodeUnsatisfiableRejected(t *testing.T) {
	// Encode predicates that individually validate but conjoin to an
	// unsatisfiable constraint; decode must reject like NewFilter does.
	b := AppendPredicate(nil, Predicate{Attr: "x", Op: OpGt, Value: Number(10)})
	b = AppendPredicate(b, Predicate{Attr: "x", Op: OpLt, Value: Number(5)})
	frame := append([]byte{2}, b...) // npreds = 2 fits in one uvarint byte
	_, _, err := ReadFilter(frame)
	if err == nil {
		t.Fatal("ReadFilter accepted an unsatisfiable filter")
	}
	if !strings.Contains(err.Error(), "unsatisfiable") {
		t.Fatalf("unexpected error: %v", err)
	}
}
