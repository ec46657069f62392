package predicate

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestValueBasics(t *testing.T) {
	tests := []struct {
		name string
		v    Value
		kind Kind
		str  string
	}{
		{"string", String("stock"), KindString, "'stock'"},
		{"string with quote", String("o'clock"), KindString, `'o\'clock'`},
		{"integer number", Number(42), KindNumber, "42"},
		{"negative", Number(-7), KindNumber, "-7"},
		{"fraction", Number(3.5), KindNumber, "3.5"},
		{"zero", Number(0), KindNumber, "0"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.v.Kind(); got != tt.kind {
				t.Errorf("Kind() = %v, want %v", got, tt.kind)
			}
			if got := tt.v.String(); got != tt.str {
				t.Errorf("String() = %q, want %q", got, tt.str)
			}
			if !tt.v.IsValid() {
				t.Error("IsValid() = false, want true")
			}
		})
	}
	var zero Value
	if zero.IsValid() {
		t.Error("zero Value should be invalid")
	}
}

func TestValueCompare(t *testing.T) {
	tests := []struct {
		a, b Value
		cmp  int
		ok   bool
	}{
		{Number(1), Number(2), -1, true},
		{Number(2), Number(1), 1, true},
		{Number(2), Number(2), 0, true},
		{String("a"), String("b"), -1, true},
		{String("b"), String("a"), 1, true},
		{String("a"), String("a"), 0, true},
		{String("a"), Number(1), 0, false},
		{Number(1), String("a"), 0, false},
	}
	for _, tt := range tests {
		cmp, ok := tt.a.Compare(tt.b)
		if cmp != tt.cmp || ok != tt.ok {
			t.Errorf("Compare(%v, %v) = (%d, %v), want (%d, %v)", tt.a, tt.b, cmp, ok, tt.cmp, tt.ok)
		}
	}
}

func TestPredicateMatches(t *testing.T) {
	tests := []struct {
		pred  Predicate
		value Value
		want  bool
	}{
		{Predicate{"x", OpEq, Number(5)}, Number(5), true},
		{Predicate{"x", OpEq, Number(5)}, Number(6), false},
		{Predicate{"x", OpEq, String("a")}, String("a"), true},
		{Predicate{"x", OpEq, String("a")}, Number(5), false},
		{Predicate{"x", OpNeq, Number(5)}, Number(6), true},
		{Predicate{"x", OpNeq, Number(5)}, Number(5), false},
		{Predicate{"x", OpNeq, Number(5)}, String("a"), false}, // kind mismatch
		{Predicate{"x", OpLt, Number(5)}, Number(4), true},
		{Predicate{"x", OpLt, Number(5)}, Number(5), false},
		{Predicate{"x", OpLe, Number(5)}, Number(5), true},
		{Predicate{"x", OpGt, Number(5)}, Number(6), true},
		{Predicate{"x", OpGt, Number(5)}, Number(5), false},
		{Predicate{"x", OpGe, Number(5)}, Number(5), true},
		{Predicate{"x", OpLt, String("m")}, String("a"), true},
		{Predicate{"x", OpGt, String("m")}, String("z"), true},
		{Predicate{"x", OpPrefix, String("ab")}, String("abc"), true},
		{Predicate{"x", OpPrefix, String("ab")}, String("ab"), true},
		{Predicate{"x", OpPrefix, String("ab")}, String("ba"), false},
		{Predicate{"x", OpPrefix, String("ab")}, Number(1), false},
		{Predicate{"x", OpPresent, Value{}}, Number(1), true},
		{Predicate{"x", OpPresent, Value{}}, String(""), true},
		{Predicate{"x", OpPresent, Value{}}, Value{}, false},
	}
	for _, tt := range tests {
		if got := tt.pred.Matches(tt.value); got != tt.want {
			t.Errorf("%v.Matches(%v) = %v, want %v", tt.pred, tt.value, got, tt.want)
		}
	}
}

func TestPredicateValidate(t *testing.T) {
	valid := []Predicate{
		{"a", OpEq, Number(1)},
		{"a", OpPrefix, String("x")},
		{"a", OpPresent, Value{}},
	}
	for _, p := range valid {
		if err := p.Validate(); err != nil {
			t.Errorf("Validate(%v) = %v, want nil", p, err)
		}
	}
	invalid := []Predicate{
		{"", OpEq, Number(1)},      // empty attr
		{"a", 0, Number(1)},        // invalid op
		{"a", OpEq, Value{}},       // invalid value
		{"a", OpPrefix, Number(1)}, // prefix on number
		{"a", Op(99), Number(1)},   // out-of-range op
	}
	for _, p := range invalid {
		if err := p.Validate(); err == nil {
			t.Errorf("Validate(%v) = nil, want error", p)
		}
	}
}

func TestFilterMatches(t *testing.T) {
	f := MustParse("[class,=,'stock'],[price,>,100],[price,<=,200]")
	tests := []struct {
		event string
		want  bool
	}{
		{"[class,'stock'],[price,150]", true},
		{"[class,'stock'],[price,200]", true},
		{"[class,'stock'],[price,100]", false},
		{"[class,'stock'],[price,201]", false},
		{"[class,'bond'],[price,150]", false},
		{"[price,150]", false},                        // class missing
		{"[class,'stock'],[price,150],[vol,9]", true}, // extra attrs ok
	}
	for _, tt := range tests {
		e := MustParseEvent(tt.event)
		if got := f.Matches(e); got != tt.want {
			t.Errorf("Matches(%s) = %v, want %v", tt.event, got, tt.want)
		}
	}
}

func TestFilterUnsatisfiable(t *testing.T) {
	bad := []string{
		"[x,>,10],[x,<,5]",
		"[x,>,10],[x,<,10]",
		"[x,=,5],[x,=,6]",
		"[x,=,5],[x,<>,5]",
		"[x,=,'a'],[x,=,5]",            // kind conflict
		"[x,str-prefix,'b'],[x,=,'a']", // prefix excludes value
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) succeeded, want unsatisfiable error", s)
		}
	}
	ok := []string{
		"[x,>,10],[x,<,10.5]",
		"[x,>=,5],[x,<=,5]",
		"[x,<>,5]",
		"[x,isPresent]",
	}
	for _, s := range ok {
		if _, err := Parse(s); err != nil {
			t.Errorf("Parse(%q) = %v, want nil", s, err)
		}
	}
}

func TestFilterCovers(t *testing.T) {
	tests := []struct {
		name   string
		f1, f2 string
		want   bool
	}{
		{"identical", "[x,>,5]", "[x,>,5]", true},
		{"wider interval", "[x,>,5]", "[x,>,10]", true},
		{"narrower interval", "[x,>,10]", "[x,>,5]", false},
		{"open vs closed same bound", "[x,>=,5]", "[x,>,5]", true},
		{"closed not covered by open", "[x,>,5]", "[x,>=,5]", false},
		{"fewer attrs covers more", "[class,=,'stock']", "[class,=,'stock'],[price,>,100]", true},
		{"more attrs does not cover fewer", "[class,=,'stock'],[price,>,100]", "[class,=,'stock']", false},
		{"eq covers eq", "[x,=,5]", "[x,=,5]", true},
		{"range covers eq", "[x,>=,0],[x,<=,10]", "[x,=,5]", true},
		{"eq does not cover range", "[x,=,5]", "[x,>=,0],[x,<=,10]", false},
		{"prefix covers longer prefix", "[x,str-prefix,'ab']", "[x,str-prefix,'abc']", true},
		{"longer prefix does not cover", "[x,str-prefix,'abc']", "[x,str-prefix,'ab']", false},
		{"prefix covers eq under it", "[x,str-prefix,'ab']", "[x,=,'abz']", true},
		{"prefix does not cover outside eq", "[x,str-prefix,'ab']", "[x,=,'ba']", false},
		{"present covers any string", "[x,isPresent]", "[x,=,'a']", true},
		{"present covers any number", "[x,isPresent]", "[x,>,0]", true},
		{"number does not cover present", "[x,>,0]", "[x,isPresent]", false},
		{"neq wide covers neq narrow", "[x,<>,5]", "[x,>,10]", true},
		{"neq inside target interval", "[x,<>,5]", "[x,>,0]", false},
		{"neq excluded by target too", "[x,<>,5]", "[x,>,0],[x,<>,5]", true},
		{"disjoint", "[x,>,10]", "[x,<,5]", false},
		{"kind mismatch", "[x,>,10]", "[x,=,'a']", false},
		{"string interval covers", "[x,>=,'a'],[x,<,'c']", "[x,=,'b']", true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			f1, f2 := MustParse(tt.f1), MustParse(tt.f2)
			if got := f1.Covers(f2); got != tt.want {
				t.Errorf("Covers(%s, %s) = %v, want %v", tt.f1, tt.f2, got, tt.want)
			}
		})
	}
}

func TestFilterIntersects(t *testing.T) {
	tests := []struct {
		name   string
		f1, f2 string
		want   bool
	}{
		{"overlapping ranges", "[x,>,5]", "[x,<,10]", true},
		{"disjoint ranges", "[x,>,10]", "[x,<,5]", false},
		{"touching closed", "[x,>=,5]", "[x,<=,5]", true},
		{"touching open", "[x,>,5]", "[x,<,5]", false},
		{"touching half-open", "[x,>,5]", "[x,<=,5]", false},
		{"eq in range", "[x,=,7]", "[x,>,5],[x,<,10]", true},
		{"eq out of range", "[x,=,4]", "[x,>,5]", false},
		{"different attrs always intersect", "[x,>,5]", "[y,<,3]", true},
		{"shared ok other free", "[x,>,5],[y,=,1]", "[x,<,10]", true},
		{"kind mismatch on shared attr", "[x,=,'a']", "[x,=,5]", false},
		{"prefix vs range", "[x,str-prefix,'b']", "[x,>=,'ba']", true},
		{"prefix vs disjoint eq", "[x,str-prefix,'b']", "[x,=,'a']", false},
		{"neq does not block continuum", "[x,<>,5]", "[x,>,0],[x,<,10]", true},
		{"eq blocked by neq", "[x,=,5]", "[x,<>,5]", false},
		{"string point interval blocked by neq", "[x,>=,'a'],[x,<=,'a']", "[x,<>,'a']", false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			f1, f2 := MustParse(tt.f1), MustParse(tt.f2)
			got := f1.Intersects(f2)
			if got != tt.want {
				t.Errorf("Intersects(%s, %s) = %v, want %v", tt.f1, tt.f2, got, tt.want)
			}
			if sym := f2.Intersects(f1); sym != got {
				t.Errorf("Intersects not symmetric for (%s, %s): %v vs %v", tt.f1, tt.f2, got, sym)
			}
		})
	}
}

func TestCoversImpliesIntersects(t *testing.T) {
	// Whenever f1 covers a satisfiable f2 on the same attribute set, they
	// must also intersect.
	pairs := [][2]string{
		{"[x,>,5]", "[x,>,10]"},
		{"[x,isPresent]", "[x,=,'a']"},
		{"[x,str-prefix,'a']", "[x,str-prefix,'ab']"},
		{"[x,>=,0],[x,<=,10]", "[x,=,5]"},
	}
	for _, p := range pairs {
		f1, f2 := MustParse(p[0]), MustParse(p[1])
		if !f1.Covers(f2) {
			t.Errorf("expected Covers(%s, %s)", p[0], p[1])
		}
		if !f1.Intersects(f2) {
			t.Errorf("Covers but not Intersects for (%s, %s)", p[0], p[1])
		}
	}
}

func TestParseRoundTrip(t *testing.T) {
	inputs := []string{
		"[class,=,'stock'],[price,>,100]",
		"[a,isPresent]",
		"[s,str-prefix,'ab'],[s,<>,'abq']",
		"[x,>=,1.5],[x,<,2.5]",
	}
	for _, in := range inputs {
		f1, err := Parse(in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", in, err)
		}
		f2, err := Parse(f1.String())
		if err != nil {
			t.Fatalf("reparse of %q (%q): %v", in, f1.String(), err)
		}
		if !f1.Equal(f2) {
			t.Errorf("round trip changed filter: %q -> %q", f1.String(), f2.String())
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"noclass",
		"[a,=,5",              // unterminated
		"[a,=]",               // missing value
		"[a,??,5]",            // bad op
		"[a,=,'unterminated]", // unterminated quote
		"[a]",                 // single field
		"[,=,5]",              // empty attr
		"[a,isPresent,5,6]",   // too many fields
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", s)
		}
	}
	badEvents := []string{"", "[a]", "[a,b,c]", "[a,bogus]"}
	for _, s := range badEvents {
		if _, err := ParseEvent(s); err == nil {
			t.Errorf("ParseEvent(%q) succeeded, want error", s)
		}
	}
}

func TestEventString(t *testing.T) {
	e := MustParseEvent("[b,2],[a,'x']")
	if got := e.String(); got != "[a,'x'],[b,2]" {
		t.Errorf("Event.String() = %q, want sorted rendering", got)
	}
	clone := e.Clone()
	clone["b"] = Number(3)
	if e["b"].Number64() != 2 {
		t.Error("Clone did not copy the event")
	}
}

func TestStringSuccessor(t *testing.T) {
	tests := []struct {
		in   string
		succ string
		ok   bool
	}{
		{"a", "b", true},
		{"ab", "ac", true},
		{"a\xff", "b", true},
		{"\xff\xff", "", false},
		{"", "", false},
	}
	for _, tt := range tests {
		succ, ok := stringSuccessor(tt.in)
		if succ != tt.succ || ok != tt.ok {
			t.Errorf("stringSuccessor(%q) = (%q, %v), want (%q, %v)", tt.in, succ, ok, tt.succ, tt.ok)
		}
	}
}

func TestFilterKeyCanonical(t *testing.T) {
	f1 := MustParse("[a,=,1],[b,=,2]")
	f2 := MustParse("[b,=,2],[a,=,1]")
	if f1.Key() != f2.Key() {
		t.Errorf("keys differ for reordered predicates: %q vs %q", f1.Key(), f2.Key())
	}
	if !f1.Equal(f2) {
		t.Error("reordered filters should be Equal")
	}
}

func TestFilterSerialization(t *testing.T) {
	f := MustParse("[class,=,'stock'],[price,>,100]")

	data, err := f.MarshalJSON()
	if err != nil {
		t.Fatalf("MarshalJSON: %v", err)
	}
	var f2 Filter
	if err := f2.UnmarshalJSON(data); err != nil {
		t.Fatalf("UnmarshalJSON: %v", err)
	}
	if !f.Equal(&f2) {
		t.Errorf("JSON round trip changed filter: %s vs %s", f, &f2)
	}
}

// --- Randomized property tests -------------------------------------------

// genAttrs is the attribute pool for random filters and events.
var genAttrs = []string{"a", "b", "c"}

func randomValue(r *rand.Rand) Value {
	if r.Intn(2) == 0 {
		return Number(float64(r.Intn(21) - 10))
	}
	letters := "abc"
	n := r.Intn(3) + 1
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteByte(letters[r.Intn(len(letters))])
	}
	return String(sb.String())
}

func randomPredicate(r *rand.Rand, attr string) Predicate {
	ops := []Op{OpEq, OpNeq, OpLt, OpLe, OpGt, OpGe, OpPrefix, OpPresent}
	op := ops[r.Intn(len(ops))]
	v := randomValue(r)
	if op == OpPrefix {
		v = String("ab"[:r.Intn(2)+1])
	}
	if op == OpPresent {
		v = Value{}
	}
	return Predicate{Attr: attr, Op: op, Value: v}
}

func randomFilter(r *rand.Rand) *Filter {
	for tries := 0; tries < 50; tries++ {
		n := r.Intn(3) + 1
		preds := make([]Predicate, 0, n)
		for i := 0; i < n; i++ {
			preds = append(preds, randomPredicate(r, genAttrs[r.Intn(len(genAttrs))]))
		}
		if f, err := NewFilter(preds...); err == nil {
			return f
		}
	}
	return MustParse("[a,isPresent]")
}

func randomEvent(r *rand.Rand) Event {
	e := make(Event)
	for _, a := range genAttrs {
		if r.Intn(4) > 0 {
			e[a] = randomValue(r)
		}
	}
	if len(e) == 0 {
		e["a"] = Number(0)
	}
	return e
}

// TestPropertyCoversSound: if f1.Covers(f2), every event matching f2 must
// match f1. This is the semantic definition of covering; the implementation
// decides it symbolically, so we cross-check against sampling.
func TestPropertyCoversSound(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	checked := 0
	for i := 0; i < 3000; i++ {
		f1, f2 := randomFilter(r), randomFilter(r)
		if !f1.Covers(f2) {
			continue
		}
		checked++
		for j := 0; j < 50; j++ {
			e := randomEvent(r)
			if f2.Matches(e) && !f1.Matches(e) {
				t.Fatalf("covering unsound: %s covers %s but event %s matches only f2", f1, f2, e)
			}
		}
	}
	if checked == 0 {
		t.Error("no covering pairs generated; property vacuous")
	}
}

// TestPropertyIntersectsComplete: if any sampled event matches both filters,
// Intersects must report true (no false negatives).
func TestPropertyIntersectsComplete(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	checked := 0
	for i := 0; i < 3000; i++ {
		f1, f2 := randomFilter(r), randomFilter(r)
		var witness Event
		for j := 0; j < 30; j++ {
			e := randomEvent(r)
			if f1.Matches(e) && f2.Matches(e) {
				witness = e
				break
			}
		}
		if witness == nil {
			continue
		}
		checked++
		if !f1.Intersects(f2) {
			t.Fatalf("intersection incomplete: event %s matches both %s and %s but Intersects=false", witness, f1, f2)
		}
	}
	if checked == 0 {
		t.Error("no intersecting pairs generated; property vacuous")
	}
}

// TestPropertyCoversReflexiveTransitive: covering is reflexive and
// transitive on randomly generated filters.
func TestPropertyCoversRelation(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for i := 0; i < 500; i++ {
		f1, f2, f3 := randomFilter(r), randomFilter(r), randomFilter(r)
		if !f1.Covers(f1) {
			t.Fatalf("covering not reflexive for %s", f1)
		}
		if f1.Covers(f2) && f2.Covers(f3) && !f1.Covers(f3) {
			t.Fatalf("covering not transitive: %s, %s, %s", f1, f2, f3)
		}
	}
}

func TestConstraintDescribe(t *testing.T) {
	f := MustParse("[x,>,1],[x,<=,5],[x,<>,3]")
	c := f.cons["x"]
	want := "(1, 5] \\ 3"
	if got := c.describe(); got != want {
		t.Errorf("describe() = %q, want %q", got, want)
	}
	if newConstraint().describe() != "present" {
		t.Errorf("presence constraint describe = %q", newConstraint().describe())
	}
}

func TestNumericEdgeCases(t *testing.T) {
	f := MustParse("[x,>=,0]")
	if !f.Matches(Event{"x": Number(math.MaxFloat64)}) {
		t.Error("unbounded above should match MaxFloat64")
	}
	if f.Matches(Event{"x": Number(-0.0000001)}) {
		t.Error("should not match below bound")
	}
	// -0 and +0 are equal floats.
	f2 := MustParse("[x,=,0]")
	if !f2.Matches(Event{"x": Number(math.Copysign(0, -1))}) {
		t.Error("-0 should equal +0")
	}
}

// TestPropertyStringParseRoundTrip: rendering any valid filter and parsing
// it back yields a semantically identical filter.
func TestPropertyStringParseRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for i := 0; i < 500; i++ {
		f1 := randomFilter(r)
		f2, err := Parse(f1.String())
		if err != nil {
			t.Fatalf("reparse of %q: %v", f1.String(), err)
		}
		if !f1.Equal(f2) {
			t.Fatalf("round trip changed key: %q vs %q", f1.Key(), f2.Key())
		}
		for j := 0; j < 20; j++ {
			e := randomEvent(r)
			if f1.Matches(e) != f2.Matches(e) {
				t.Fatalf("round trip changed semantics of %q on %s", f1.String(), e)
			}
		}
	}
}

// TestPropertyCoversAntisymmetry: mutual covering implies semantic
// equivalence on sampled events.
func TestPropertyCoversAntisymmetry(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	for i := 0; i < 2000; i++ {
		f1, f2 := randomFilter(r), randomFilter(r)
		if !f1.Covers(f2) || !f2.Covers(f1) {
			continue
		}
		for j := 0; j < 30; j++ {
			e := randomEvent(r)
			if f1.Matches(e) != f2.Matches(e) {
				t.Fatalf("mutually covering filters disagree: %s vs %s on %s", f1, f2, e)
			}
		}
	}
}

// TestQuickCompareConsistency uses testing/quick to verify Value.Compare is
// a total order over numbers consistent with Equal.
func TestQuickCompareConsistency(t *testing.T) {
	f := func(a, b float64) bool {
		va, vb := Number(a), Number(b)
		cmp, ok := va.Compare(vb)
		if !ok {
			return false
		}
		rev, _ := vb.Compare(va)
		if cmp != -rev {
			return false
		}
		return (cmp == 0) == va.Equal(vb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestQuickPrefixMatchesHasPrefix cross-checks OpPrefix against
// strings.HasPrefix for random short strings.
func TestQuickPrefixMatchesHasPrefix(t *testing.T) {
	alphabet := []string{"", "a", "b", "ab", "ba", "abc", "ac", "\xff", "a\xff"}
	f := func(pi, vi uint8) bool {
		p := alphabet[int(pi)%len(alphabet)]
		v := alphabet[int(vi)%len(alphabet)]
		pred := Predicate{Attr: "x", Op: OpPrefix, Value: String(p)}
		return pred.Matches(String(v)) == strings.HasPrefix(v, p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
