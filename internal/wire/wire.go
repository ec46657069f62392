// Package wire provides the append/consume primitives shared by the
// system's compact binary codecs: the message envelope codec, the
// predicate filter/event codec, and the broker/client state snapshots.
//
// Every value is length- or tag-prefixed and self-delimiting, so decoders
// never scan for terminators: integers are unsigned varints, strings and
// byte slices are varint-length-prefixed, and float64s are fixed 8-byte
// little-endian IEEE 754 bit patterns. Unlike encoding/gob there are no
// type descriptors on the wire — the frame layout is fixed by the schema
// version byte each codec writes at the head of its payload — so encoding
// the same value twice costs the same bytes twice.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ErrTruncated reports that a decoder ran out of input mid-value.
var ErrTruncated = errors.New("wire: truncated input")

// maxLen bounds any single length prefix (strings, byte slices, element
// counts) so a corrupt or hostile frame cannot drive an allocation of
// arbitrary size before the payload bound check catches it.
const maxLen = 1 << 26

// AppendUvarint appends v as an unsigned varint.
func AppendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

// Uvarint consumes an unsigned varint from b, returning the remainder.
func Uvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, ErrTruncated
	}
	return v, b[n:], nil
}

// Count consumes the element count of a sequence whose elements each take
// at least minBytes on the wire, rejecting a count the remaining input
// cannot hold — so what a decoder pre-sizes from it is bounded by the bytes
// actually received, not by what a hostile prefix claims.
func Count(b []byte, minBytes int) (int, []byte, error) {
	n, rest, err := Len(b)
	if err != nil {
		return 0, nil, err
	}
	if n > len(rest)/minBytes {
		return 0, nil, ErrTruncated
	}
	return n, rest, nil
}

// Len consumes a varint length prefix, validating it against the sanity
// bound; callers check it against the bytes remaining.
func Len(b []byte) (int, []byte, error) {
	v, rest, err := Uvarint(b)
	if err != nil {
		return 0, nil, err
	}
	if v > maxLen {
		return 0, nil, fmt.Errorf("wire: length %d exceeds bound %d", v, maxLen)
	}
	return int(v), rest, nil
}

// AppendString appends a varint-length-prefixed string.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// String consumes a length-prefixed string.
func String(b []byte) (string, []byte, error) {
	n, rest, err := Len(b)
	if err != nil {
		return "", nil, err
	}
	if len(rest) < n {
		return "", nil, ErrTruncated
	}
	return string(rest[:n]), rest[n:], nil
}

// Interner is a bounded table of the strings a stream decoder has already
// produced, so fields that repeat frame after frame (node and client IDs,
// attribute names, enumerated values) decode to the one string first seen
// instead of a fresh copy each. It is receiver-local state: nothing about
// it is on the wire. A nil *Interner interns nothing. Not safe for
// concurrent use; a decoder owns one per stream.
type Interner struct {
	m map[string]string
}

// The table stops taking new strings at InternCap entries and never takes
// one longer than internMaxLen, so a peer sending distinct strings can make
// it hold at most InternCap × internMaxLen bytes; strings it does not hold
// decode as plain copies.
const (
	InternCap    = 1024
	internMaxLen = 64
)

// Len returns the number of strings held.
func (in *Interner) Len() int { return len(in.m) }

// String consumes a length-prefixed string like the package-level String
// (kept separate so paths that never intern pay nothing for this one),
// returning the interned copy when the table holds or can take it.
func (in *Interner) String(b []byte) (string, []byte, error) {
	n, rest, err := Len(b)
	if err != nil {
		return "", nil, err
	}
	if len(rest) < n {
		return "", nil, ErrTruncated
	}
	raw, rest := rest[:n], rest[n:]
	if in == nil || n == 0 || n > internMaxLen {
		return string(raw), rest, nil
	}
	if s, ok := in.m[string(raw)]; ok { // no copy: the compiler elides it for a lookup
		return s, rest, nil
	}
	s := string(raw)
	if len(in.m) < InternCap {
		if in.m == nil {
			in.m = make(map[string]string)
		}
		in.m[s] = s
	}
	return s, rest, nil
}

// AppendBytes appends a varint-length-prefixed byte slice.
func AppendBytes(b []byte, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

// Bytes consumes a length-prefixed byte slice. The result is a copy, so
// it stays valid after the caller's read buffer is reused.
func Bytes(b []byte) ([]byte, []byte, error) {
	n, rest, err := Len(b)
	if err != nil {
		return nil, nil, err
	}
	if len(rest) < n {
		return nil, nil, ErrTruncated
	}
	if n == 0 {
		return nil, rest, nil
	}
	out := make([]byte, n)
	copy(out, rest[:n])
	return out, rest[n:], nil
}

// AppendF64 appends an IEEE 754 float64 as 8 little-endian bytes.
func AppendF64(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

// F64 consumes an 8-byte float64.
func F64(b []byte) (float64, []byte, error) {
	if len(b) < 8 {
		return 0, nil, ErrTruncated
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b)), b[8:], nil
}

// AppendBool appends a bool as one byte.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// Bool consumes a one-byte bool; any nonzero byte reads as true.
func Bool(b []byte) (bool, []byte, error) {
	if len(b) < 1 {
		return false, nil, ErrTruncated
	}
	return b[0] != 0, b[1:], nil
}

// Byte consumes a single byte.
func Byte(b []byte) (byte, []byte, error) {
	if len(b) < 1 {
		return 0, nil, ErrTruncated
	}
	return b[0], b[1:], nil
}
