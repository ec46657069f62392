package wire

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"unsafe"
)

func TestRoundTrip(t *testing.T) {
	var b []byte
	b = AppendUvarint(b, 0)
	b = AppendUvarint(b, 1<<40+17)
	b = AppendString(b, "hello")
	b = AppendString(b, "")
	b = AppendBytes(b, []byte{1, 2, 3})
	b = AppendBytes(b, nil)
	b = AppendF64(b, -12.5)
	b = AppendF64(b, math.Inf(1))
	b = AppendBool(b, true)
	b = AppendBool(b, false)

	u, rest, err := Uvarint(b)
	if err != nil || u != 0 {
		t.Fatalf("uvarint: %v %v", u, err)
	}
	u, rest, err = Uvarint(rest)
	if err != nil || u != 1<<40+17 {
		t.Fatalf("uvarint: %v %v", u, err)
	}
	s, rest, err := String(rest)
	if err != nil || s != "hello" {
		t.Fatalf("string: %q %v", s, err)
	}
	s, rest, err = String(rest)
	if err != nil || s != "" {
		t.Fatalf("empty string: %q %v", s, err)
	}
	p, rest, err := Bytes(rest)
	if err != nil || !bytes.Equal(p, []byte{1, 2, 3}) {
		t.Fatalf("bytes: %v %v", p, err)
	}
	p, rest, err = Bytes(rest)
	if err != nil || p != nil {
		t.Fatalf("nil bytes: %v %v", p, err)
	}
	f, rest, err := F64(rest)
	if err != nil || f != -12.5 {
		t.Fatalf("f64: %v %v", f, err)
	}
	f, rest, err = F64(rest)
	if err != nil || !math.IsInf(f, 1) {
		t.Fatalf("f64 inf: %v %v", f, err)
	}
	v, rest, err := Bool(rest)
	if err != nil || !v {
		t.Fatalf("bool: %v %v", v, err)
	}
	v, rest, err = Bool(rest)
	if err != nil || v {
		t.Fatalf("bool: %v %v", v, err)
	}
	if len(rest) != 0 {
		t.Fatalf("%d bytes left over", len(rest))
	}
}

// TestTruncation feeds every proper prefix of an encoded sequence to the
// decoders and requires a clean error, never a panic or a bogus value.
func TestTruncation(t *testing.T) {
	var b []byte
	b = AppendString(b, "abcdef")
	b = AppendF64(b, 3.25)
	b = AppendUvarint(b, 300)
	for i := 0; i < len(b); i++ {
		pre := b[:i]
		s, rest, err := String(pre)
		if err == nil {
			f, rest2, err2 := F64(rest)
			if err2 == nil {
				if _, _, err3 := Uvarint(rest2); err3 == nil {
					t.Fatalf("prefix %d decoded fully (s=%q f=%v)", i, s, f)
				}
			}
		}
	}
}

// TestBytesIsCopy guards the contract that decoded byte slices do not
// alias the input buffer (which stream decoders reuse between frames).
func TestBytesIsCopy(t *testing.T) {
	b := AppendBytes(nil, []byte{9, 9, 9})
	out, _, err := Bytes(b)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] = 0
	if out[2] != 9 {
		t.Fatal("decoded bytes alias the input buffer")
	}
}

func TestLengthBound(t *testing.T) {
	b := AppendUvarint(nil, 1<<40) // absurd length prefix, no payload
	if _, _, err := String(b); err == nil {
		t.Fatal("oversized length prefix accepted")
	}
	if _, _, err := Bytes(b); err == nil {
		t.Fatal("oversized length prefix accepted")
	}
}

// TestCountBoundedByInput: an element count is honoured only as far as the
// bytes behind it could hold that many elements.
func TestCountBoundedByInput(t *testing.T) {
	b := append(AppendUvarint(nil, 3), make([]byte, 6)...)
	if n, rest, err := Count(b, 2); err != nil || n != 3 || len(rest) != 6 {
		t.Fatalf("Count(3 elements of 2 bytes over 6 bytes) = %d, %d left, %v", n, len(rest), err)
	}
	if _, _, err := Count(b, 3); err != ErrTruncated {
		t.Fatalf("Count(3 elements of 3 bytes over 6 bytes) error = %v, want ErrTruncated", err)
	}
}

// TestInternerSharesCopies: the second decode of a string returns the first
// one's copy; neither aliases the input; empty and over-long strings, and a
// nil Interner, decode as String does.
func TestInternerSharesCopies(t *testing.T) {
	long := strings.Repeat("x", internMaxLen+1)
	b := AppendString(AppendString(AppendString(AppendString(AppendString(nil, "attr"), "attr"), ""), long), long)
	var in Interner
	var got [5]string
	rest := b
	for i := range got {
		var err error
		if got[i], rest, err = in.String(rest); err != nil {
			t.Fatal(err)
		}
	}
	for i := range b {
		b[i] = 0xAA
	}
	if want := [5]string{"attr", "attr", "", long, long}; got != want {
		t.Fatalf("decoded %q after the input was overwritten, want %q", got, want)
	}
	if unsafe.StringData(got[0]) != unsafe.StringData(got[1]) {
		t.Error("a repeated string was copied twice")
	}
	if unsafe.StringData(got[3]) == unsafe.StringData(got[4]) || in.Len() != 1 {
		t.Errorf("a string over the length limit was interned (table holds %d)", in.Len())
	}
	if s, _, err := (*Interner)(nil).String(AppendString(nil, "attr")); err != nil || s != "attr" {
		t.Errorf("nil Interner decoded %q, %v", s, err)
	}
}
