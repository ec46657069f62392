package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"padres/internal/predicate"
)

func filter(t *testing.T, s string) *predicate.Filter {
	t.Helper()
	f, err := predicate.Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// workload appends a representative mutation stream: table rows, sent-set
// churn, and one movement transaction per terminal phase.
func workload(t *testing.T, s *Store) {
	t.Helper()
	f := filter(t, "[x,>,0]")
	s.Append(Record{Op: OpSRTInsert, ID: "adv1", Client: "pub", Filter: f, Hop: "pub@b1"})
	s.Append(Record{Op: OpPRTInsert, ID: "sub1", Client: "sub", Filter: f, Hop: "sub@b1"})
	s.Append(Record{Op: OpPRTInsert, ID: "sub2", Client: "sub2", Filter: f, Hop: "b2"})
	s.Append(Record{Op: OpPRTRemove, ID: "sub2"})
	s.Append(Record{Op: OpSentSubMark, ID: "sub1", Hop: "b2"})
	s.Append(Record{Op: OpSentSubMark, ID: "sub1", Hop: "b3"})
	s.Append(Record{Op: OpSentSubClear, ID: "sub1", Hop: "b3"})
	s.Append(Record{Op: OpSentAdvMark, ID: "adv1", Hop: "b2"})

	// tx-c commits (and completes), tx-a aborts mid-flight, tx-p stays
	// prepared — the recovery path must surface it as in-doubt.
	prep := func(tx string) Record {
		return Record{
			Op: OpTxPrepare, Tx: tx, Client: "sub", Source: "b1", Target: "b4",
			PreHop: "b2", SucHop: "b3",
			Subs: []Entry{{ID: "sub1" + "~" + tx, Filter: f}},
		}
	}
	s.Append(prep("tx-c"))
	s.Append(Record{Op: OpTxCommit, Tx: "tx-c"})
	s.Append(Record{Op: OpTxDone, Tx: "tx-c"})
	s.Append(prep("tx-a"))
	s.Append(Record{Op: OpTxAbort, Tx: "tx-a"})
	s.Append(prep("tx-p"))
	if err := s.AppendSync(Record{Op: OpDecision, Tx: "tx-c", Role: "target", Outcome: PhaseCommitted}); err != nil {
		t.Fatal(err)
	}
}

// checkWorkload asserts the recovered state matches the workload's final
// durable state.
func checkWorkload(t *testing.T, st *Snapshot) {
	t.Helper()
	var adv1 *TableRecord
	for i := range st.SRT {
		if st.SRT[i].ID == "adv1" {
			adv1 = &st.SRT[i]
		}
	}
	if adv1 == nil || adv1.LastHop != "pub@b1" {
		t.Fatalf("SRT = %+v, want the adv1 row with hop pub@b1", st.SRT)
	}
	if len(st.PRT) != 1 || st.PRT[0].ID != "sub1" {
		t.Fatalf("PRT = %+v, want the single sub1 row (sub2 was removed)", st.PRT)
	}
	if got := st.SentSubs["sub1"]; !reflect.DeepEqual(got, []string{"b2"}) {
		t.Fatalf("SentSubs[sub1] = %v, want [b2] (b3 was cleared)", got)
	}
	if got := st.SentAdvs["adv1"]; !reflect.DeepEqual(got, []string{"b2"}) {
		t.Fatalf("SentAdvs[adv1] = %v, want [b2]", got)
	}
	if len(st.Reconfigs) != 2 {
		t.Fatalf("Reconfigs = %+v, want tx-a (aborted) and tx-p (prepared); tx-c was retired", st.Reconfigs)
	}
	if rc := st.Reconfigs["tx-a"]; rc.Phase != PhaseAborted {
		t.Fatalf("tx-a phase = %q, want aborted", rc.Phase)
	}
	rc, ok := st.Reconfigs["tx-p"]
	if !ok || rc.Phase != PhasePrepared {
		t.Fatalf("tx-p = %+v, want prepared (the in-doubt transaction)", rc)
	}
	if rc.Source != "b1" || rc.Target != "b4" || rc.SucHop != "b3" || len(rc.Subs) != 1 {
		t.Fatalf("tx-p payload not preserved: %+v", rc)
	}
	if st.Outcomes["tx-c"] != PhaseCommitted {
		t.Fatalf("Outcomes = %v, want tx-c committed", st.Outcomes)
	}
}

// TestAppendRecoverCycle: a mutation stream survives close + reopen via
// pure log replay (no snapshot yet).
func TestAppendRecoverCycle(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	workload(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(dir, Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	rec := r.Recovery()
	if rec.SnapshotLoaded {
		t.Error("no checkpoint ran, yet a snapshot was loaded")
	}
	if rec.WALRecords == 0 || rec.TruncatedBytes != 0 {
		t.Fatalf("recovery = %+v, want replayed records and no truncation", rec)
	}
	checkWorkload(t, rec.State)
}

// TestCheckpointAndReopen: a checkpoint rotates the generation, truncates
// the old log, and a reopen recovers from snapshot + (empty) successor log.
func TestCheckpointAndReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	workload(t, s)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint appends land in the successor log.
	s.Append(Record{Op: OpSRTInsert, ID: "adv2", Client: "pub2", Filter: filter(t, "[y,>,0]"), Hop: "b2"})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	for _, stale := range []string{"wal-0.log", "snapshot-0.snap"} {
		if _, err := os.Stat(filepath.Join(dir, stale)); !os.IsNotExist(err) {
			t.Errorf("generation 0 artifact %s survived the checkpoint", stale)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "snapshot-1.snap")); err != nil {
		t.Fatalf("snapshot-1.snap missing: %v", err)
	}

	r, err := Open(dir, Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	rec := r.Recovery()
	if !rec.SnapshotLoaded || rec.Gen != 1 {
		t.Fatalf("recovery = %+v, want snapshot of generation 1", rec)
	}
	if rec.WALRecords != 1 {
		t.Fatalf("replayed %d successor-log records, want 1", rec.WALRecords)
	}
	checkWorkload(t, rec.State)
	found := false
	for _, row := range rec.State.SRT {
		if row.ID == "adv2" {
			found = true
		}
	}
	if !found {
		t.Fatal("post-checkpoint append lost")
	}
}

// TestCheckpointIsTheLogsReplay: a checkpoint is the replay of everything
// the log held — replica decisions and lease fences included, which a
// second snapshot source once dropped — and the mirror carries on across
// it: a second checkpoint with nothing appended in between writes the same
// snapshot, generation aside.
func TestCheckpointIsTheLogsReplay(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	workload(t, s)
	s.Append(Record{Op: OpFence, Tx: "tx-f", Gen: 7})
	s.Append(Record{Op: OpReplica, Tx: "tx-r", Outcome: PhaseCommitted, Gen: 3})
	snapshotBytes := func(gen uint64) []byte {
		t.Helper()
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		snap, err := loadSnapshot(filepath.Join(dir, fmt.Sprintf("snapshot-%d.snap", gen)))
		if err != nil {
			t.Fatal(err)
		}
		snap.Gen = 0
		data, err := encodeSnapshot(snap)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	first := snapshotBytes(1)
	if second := snapshotBytes(2); !bytes.Equal(first, second) {
		t.Fatalf("second checkpoint diverged with no records between:\n 1: %s\n 2: %s", first, second)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(dir, Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	st := r.Recovery().State
	checkWorkload(t, st)
	if st.Fences["tx-f"] != 7 {
		t.Errorf("Fences = %v, want tx-f fenced at generation 7", st.Fences)
	}
	if want := (ReplicaDecision{Outcome: PhaseCommitted, Gen: 3}); st.Replicas["tx-r"] != want {
		t.Errorf("Replicas = %v, want tx-r = %+v", st.Replicas, want)
	}
}

// TestAutoCheckpoint: the record budget triggers checkpoints without an
// explicit call, and the recovered state is unaffected by how many
// generations the stream crossed.
func TestAutoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{SnapshotEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	f := filter(t, "[x,>,0]")
	for i := 0; i < 100; i++ {
		s.Append(Record{Op: OpPRTInsert, ID: "sub", Client: "c", Filter: f, Hop: "b1"})
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir, Options{SnapshotEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	rec := r.Recovery()
	if !rec.SnapshotLoaded || rec.Gen == 0 {
		t.Fatalf("recovery = %+v, want an automatic checkpoint to have rotated generations", rec)
	}
	if len(rec.State.PRT) != 1 {
		t.Fatalf("PRT = %+v, want the idempotent upserts folded to one row", rec.State.PRT)
	}
}

// TestTornTailTruncated: a crash mid-append leaves a partial final frame;
// recovery must keep every intact record, report and cut the torn tail,
// and leave the log appendable.
func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	workload(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	walPath := filepath.Join(dir, "wal-0.log")
	intact, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// A torn frame: a full header promising more payload than exists.
	torn := appendFrame(nil, []byte(`{"op":"srt+","id":"torn"}`))
	if err := os.WriteFile(walPath, append(append([]byte{}, intact...), torn[:len(torn)-3]...), 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := Open(dir, Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	rec := r.Recovery()
	if rec.TruncatedBytes != int64(len(torn)-3) {
		t.Fatalf("TruncatedBytes = %d, want %d", rec.TruncatedBytes, len(torn)-3)
	}
	checkWorkload(t, rec.State)
	// The truncated log must accept appends and recover again cleanly.
	r.Append(Record{Op: OpSRTInsert, ID: "after", Client: "c", Filter: filter(t, "[z,=,1]"), Hop: "b9"})
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r2, err := Open(dir, Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if rec := r2.Recovery(); rec.TruncatedBytes != 0 {
		t.Fatalf("second recovery truncated %d bytes from a clean log", rec.TruncatedBytes)
	}
	if got, err := os.ReadFile(walPath); err != nil || len(got) <= len(intact) {
		t.Fatalf("wal = %d bytes (err %v), want the original %d plus the post-truncation append", len(got), err, len(intact))
	}
}

// TestBitFlipCutsCorruptTail: a flipped bit mid-log fails that frame's CRC;
// everything before it survives, the corrupt frame and everything after are
// cut.
func TestBitFlipCutsCorruptTail(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	f := filter(t, "[x,>,0]")
	for i := 0; i < 4; i++ {
		s.Append(Record{Op: OpSentSubMark, ID: "sub", Hop: string(rune('a' + i))})
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	_ = f

	walPath := filepath.Join(dir, "wal-0.log")
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40 // flip one payload bit past the midpoint
	if err := os.WriteFile(walPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := Open(dir, Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	rec := r.Recovery()
	if rec.TruncatedBytes == 0 {
		t.Fatal("bit flip went undetected")
	}
	if rec.WALRecords == 0 || rec.WALRecords >= 4 {
		t.Fatalf("replayed %d records, want the intact prefix only (1..3)", rec.WALRecords)
	}
	if fi, err := os.Stat(walPath); err != nil || fi.Size() != int64(len(data))-rec.TruncatedBytes {
		t.Fatalf("log not truncated back to the intact prefix: size %d, want %d",
			fi.Size(), int64(len(data))-rec.TruncatedBytes)
	}
}

// TestCorruptSnapshotFallsBack: an unreadable snapshot must not wedge Open —
// recovery falls back a generation (to empty, when none remains) without a
// panic or error.
func TestCorruptSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	workload(t, s)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	snapPath := filepath.Join(dir, "snapshot-1.snap")
	data, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(snapPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir, Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatalf("corrupt snapshot wedged Open: %v", err)
	}
	defer r.Close()
	if r.Recovery().SnapshotLoaded {
		t.Fatal("corrupt snapshot was accepted")
	}
}

// TestRecordRoundTrip: every field of the prepare payload survives the
// frame codec byte-for-byte.
func TestRecordRoundTrip(t *testing.T) {
	in := Record{
		Op: OpTxPrepare, ID: "id", Client: "cl", Filter: filter(t, "[p,<,9]"),
		Hop: "b2", Tx: "tx9", Source: "b1", Target: "b4", PreHop: "n1", SucHop: "n2",
		Subs: []Entry{{ID: "s~tx9", Filter: filter(t, "[q,=,3]")}},
		Advs: []Entry{{ID: "a~tx9", Filter: filter(t, "[r,>,1]")}},
		Role: "target", Outcome: PhaseCommitted,
	}
	payload, err := encodeRecord(in)
	if err != nil {
		t.Fatal(err)
	}
	framed := appendFrame(nil, payload)
	var out Record
	frames, good, err := scanFrames(bytes.NewReader(framed), func(p []byte) error {
		r, err := decodeRecord(p)
		out = r
		return err
	})
	if err != nil || frames != 1 || good != int64(len(framed)) {
		t.Fatalf("scan: frames=%d good=%d err=%v", frames, good, err)
	}
	// Filters re-marshal identically even if pointer identity differs.
	inJSON, _ := encodeRecord(in)
	outJSON, _ := encodeRecord(out)
	if !bytes.Equal(inJSON, outJSON) {
		t.Fatalf("round trip diverged:\n in: %s\nout: %s", inJSON, outJSON)
	}
}

// TestWALFrameSizeBudget pins the on-disk cost of the common WAL records.
// Filters serialize through their compact-codec-backed JSON form; if a
// change to Filter marshaling reintroduced per-value schema bloat (as the
// old nested-gob encoding did), routing-churn frames would inflate and this
// budget would fail before the regression reached a soak run.
func TestWALFrameSizeBudget(t *testing.T) {
	f := filter(t, "[class,=,'stock'],[price,>,100]")
	cases := []struct {
		name string
		rec  Record
		max  int
	}{
		{"prt-insert", Record{Op: OpPRTInsert, ID: "sub42", Client: "c7", Filter: f, Hop: "b3"}, 256},
		{"prt-remove", Record{Op: OpPRTRemove, ID: "sub42"}, 64},
		{"sent-mark", Record{Op: OpSentSubMark, ID: "sub42", Hop: "b3"}, 64},
		{"decision", Record{Op: OpDecision, Tx: "tx9", Role: "target", Outcome: PhaseCommitted}, 96},
	}
	for _, tc := range cases {
		payload, err := encodeRecord(tc.rec)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		framed := appendFrame(nil, payload)
		if len(framed) > tc.max {
			t.Errorf("%s frame is %d bytes, budget %d (payload %s)",
				tc.name, len(framed), tc.max, payload)
		}
	}
}
