package broker

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"padres/internal/journal"
	"padres/internal/message"
	"padres/internal/predicate"
	"padres/internal/store"
)

// TestCommitRepointsSurvivingRecords: at a transit broker that already
// holds the mover's canonical records, the commit re-points those records
// in place — same *Record, last hop now toward the target, shadow gone, no
// index build — while an entry new to this hop is inserted. The journal and
// the write-ahead log still see one remove and one insert per entry, in the
// order and with the hops a re-inserting commit writes.
func TestCommitRepointsSurvivingRecords(t *testing.T) {
	f := predicate.MustParse
	dir := t.TempDir()
	r := openDurable(t, dir, nil)
	jnl := journal.New(0)
	r.b.cfg.Net.SetJournal(jnl)

	hdr := message.MoveHeader{Tx: "tx1", Client: "mover", Source: "b1", Target: "b3"}
	r.inject("b1",
		message.Advertise{ID: "a-old", Client: "mover", Filter: f("[y,>,0]")},
		message.Subscribe{ID: "s-old", Client: "mover", Filter: f("[x,>,5]")})
	r.inject("b3", message.MoveApprove{
		MoveHeader: hdr, Reconfigure: true,
		Subs: []message.SubEntry{{ID: "s-old", Filter: f("[x,>,5]")}, {ID: "s-new", Filter: f("[x,>,7]")}},
		Advs: []message.AdvEntry{{ID: "a-old", Filter: f("[y,>,0]")}, {ID: "a-new", Filter: f("[y,>,3]")}},
	})
	sub, adv := r.b.prt.Get("s-old"), r.b.srt.Get("a-old")
	if sub == nil || adv == nil || sub.LastHop != "b1" || adv.LastHop != "b1" {
		t.Fatalf("before the commit: sub %+v, adv %+v; want both via b1", sub, adv)
	}
	event := predicate.Event{"x": predicate.Number(9)}
	r.b.prt.Match(event) // build the index the commit must leave alone
	builds := r.b.prt.IndexBuilds()
	jnlFrom := len(jnl.Snapshot())

	r.inject("b3", message.MoveAck{MoveHeader: hdr, Reconfigure: true})

	if got := r.b.prt.Get("s-old"); got != sub || sub.LastHop != "b3" {
		t.Errorf("PRT s-old after commit: %p, want the record %p re-pointed via b3 (%+v)", got, sub, sub)
	}
	if got := r.b.srt.Get("a-old"); got != adv || adv.LastHop != "b3" {
		t.Errorf("SRT a-old after commit: %p, want the record %p re-pointed via b3 (%+v)", got, adv, adv)
	}
	if got := r.b.prt.Get("s-new"); got == nil || got.LastHop != "b3" || got.Client != "mover" {
		t.Errorf("PRT s-new, new to this hop: %+v, want an inserted record via b3", got)
	}
	if got := r.b.srt.Get("a-new"); got == nil || got.LastHop != "b3" || got.Client != "mover" {
		t.Errorf("SRT a-new, new to this hop: %+v, want an inserted record via b3", got)
	}
	for _, id := range []string{"s-old~tx1", "s-new~tx1"} {
		if r.b.prt.Get(message.SubID(id)) != nil {
			t.Errorf("shadow %s survived the commit", id)
		}
	}
	for _, id := range []string{"a-old~tx1", "a-new~tx1"} {
		if r.b.srt.Get(message.AdvID(id)) != nil {
			t.Errorf("shadow %s survived the commit", id)
		}
	}
	if got := len(r.b.prt.Match(event)); got != 2 {
		t.Errorf("a match after the commit found %d subscriptions, want s-old and s-new", got)
	}
	if got := r.b.prt.IndexBuilds(); got != builds {
		t.Errorf("index builds went %d → %d across the commit", builds, got)
	}

	// What a commit that removed each shadow and re-inserted the canonical
	// record wrote, entry by entry.
	wantJournal := []string{
		"prt-remove s-old~tx1 b3", "prt-insert s-old b3",
		"prt-remove s-new~tx1 b3", "prt-insert s-new b3",
		"srt-remove a-old~tx1 b3", "srt-insert a-old b3",
		"srt-remove a-new~tx1 b3", "srt-insert a-new b3",
	}
	var gotJournal []string
	for _, rec := range jnl.Snapshot()[jnlFrom:] {
		if rec.Cat == journal.CatRouting {
			gotJournal = append(gotJournal, fmt.Sprintf("%s %s %s", rec.Kind, rec.Ref, rec.To))
			if rec.Tx != "tx1" || rec.Client != "mover" {
				t.Errorf("journal %s %s: tx %q client %q, want tx1 mover", rec.Kind, rec.Ref, rec.Tx, rec.Client)
			}
		}
	}
	if !reflect.DeepEqual(gotJournal, wantJournal) {
		t.Errorf("commit journal:\n %q\nwant\n %q", gotJournal, wantJournal)
	}

	r.b.Stop()
	wantWAL := []string{
		"tx-commit  ",
		"prt- s-old~tx1 ", "prt+ s-old b3 [x,>,5]",
		"prt- s-new~tx1 ", "prt+ s-new b3 [x,>,7]",
		"srt- a-old~tx1 ", "srt+ a-old b3 [y,>,0]",
		"srt- a-new~tx1 ", "srt+ a-new b3 [y,>,3]",
		"tx-done  ",
	}
	frames, ops := walFrames(t, filepath.Join(dir, "wal-0.log"))
	from := -1
	for i, op := range ops {
		if op == store.OpTxCommit {
			from = i
		}
	}
	if from < 0 {
		t.Fatalf("no commit record in the log: %v", ops)
	}
	var gotWAL []string
	for _, fr := range frames[from:] {
		var rec store.Record
		if err := json.Unmarshal(fr[8:], &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Tx != "tx1" {
			t.Errorf("log %s %s: tx %q, want tx1", rec.Op, rec.ID, rec.Tx)
		}
		row := fmt.Sprintf("%s %s %s", rec.Op, rec.ID, rec.Hop)
		if rec.Filter != nil {
			row += " " + rec.Filter.String()
		}
		gotWAL = append(gotWAL, row)
	}
	if !reflect.DeepEqual(gotWAL, wantWAL) {
		t.Errorf("commit log:\n %q\nwant\n %q", gotWAL, wantWAL)
	}
}
