// Package store is the per-broker persistence subsystem: a CRC-framed,
// length-prefixed write-ahead log of routing-table mutations and movement-
// transaction state transitions, periodic snapshots of the full broker
// state with log truncation, and a recovery path that rebuilds the tables
// from snapshot + log replay and surfaces in-flight movement transactions
// for resolution.
//
// Layout of a data directory (one per broker):
//
//	wal-<gen>.log       frames of JSON Records, appended with group commit
//	snapshot-<gen>.snap one frame holding the JSON Snapshot closing gen-1
//
// Generation g's durable state is snapshot-<g>.snap (absent for g=0)
// plus the replay of wal-<g>.log. A checkpoint writes snapshot-<g+1>
// (temp file + rename), creates wal-<g+1>, then deletes generation g.
// The snapshot is the flusher's own replay of every record appended so
// far — the store has no other snapshot source — so it carries whatever
// the replay knows and the successor log starts exactly where it ends.
// Replayed records are idempotent upserts/deletes, so an owner finishing
// an interrupted operation after recovery may log a mutation twice.
package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// Frame layout: | length uint32 LE | crc32(Castagnoli) of payload uint32 LE | payload |.
const (
	frameHeaderSize = 8
	// MaxFrameSize bounds one record; larger lengths mark a corrupt frame
	// rather than an allocation request.
	MaxFrameSize = 16 << 20
)

// crcTable is the Castagnoli polynomial, hardware-accelerated on most CPUs.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// appendFrame appends one length+CRC framed payload to dst.
func appendFrame(dst, payload []byte) []byte {
	var hdr [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// TailError describes why a frame scan stopped before the end of input:
// a torn final frame (crash mid-append) or a corrupt one (bit flip). Both
// are recovered from by truncating the log back to Good bytes.
type TailError struct {
	// Good is the byte offset just past the last intact frame.
	Good int64
	// Reason is a human-readable cause ("torn header", "bad crc", ...).
	Reason string
}

func (e *TailError) Error() string {
	return fmt.Sprintf("wal tail at offset %d: %s", e.Good, e.Reason)
}

// scanFrames reads frames from r, invoking fn for each intact payload. It
// returns the number of intact frames and the byte offset just past the
// last one. A clean end of input returns a nil error; a torn or corrupt
// tail returns a *TailError (never a panic, whatever the input). Errors
// from fn abort the scan and are returned as-is.
func scanFrames(r io.Reader, fn func(payload []byte) error) (frames int, good int64, err error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var hdr [frameHeaderSize]byte
	for {
		n, rerr := io.ReadFull(br, hdr[:])
		if rerr == io.EOF {
			return frames, good, nil
		}
		if rerr != nil {
			return frames, good, &TailError{Good: good, Reason: fmt.Sprintf("torn header (%d of %d bytes)", n, frameHeaderSize)}
		}
		length := binary.LittleEndian.Uint32(hdr[0:4])
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		if length > MaxFrameSize {
			return frames, good, &TailError{Good: good, Reason: fmt.Sprintf("implausible frame length %d", length)}
		}
		payload := make([]byte, length)
		if n, rerr := io.ReadFull(br, payload); rerr != nil {
			return frames, good, &TailError{Good: good, Reason: fmt.Sprintf("torn payload (%d of %d bytes)", n, length)}
		}
		if crc32.Checksum(payload, crcTable) != sum {
			return frames, good, &TailError{Good: good, Reason: "bad crc"}
		}
		if err := fn(payload); err != nil {
			return frames, good, err
		}
		frames++
		good += int64(frameHeaderSize) + int64(length)
	}
}
