package audit

import (
	"fmt"
	"strings"

	"padres/internal/journal"
)

// cursor is a position in one journal stream: Lamport-major with the
// per-process sequence as tiebreaker — the same total order journal.Cursor
// exposes over HTTP and SortCausal uses within a run.
type cursor struct {
	lamport uint64
	seq     uint64
}

func cursorOf(r journal.Record) cursor { return cursor{r.Lamport, r.Seq} }

func (c cursor) less(o cursor) bool {
	if c.lamport != o.lamport {
		return c.lamport < o.lamport
	}
	return c.seq < o.seq
}

func (c cursor) zero() bool { return c == cursor{} }

// convergenceState incrementally replays the routing-relevant records of
// one run: the live SRT/PRT contents per site, each client's final host,
// its last arrival, and the evidence needed to verify the final-host
// filter property. A causally sorted journal and per-source tails arriving
// as they please drive the same state machine: apply only assumes that
// mutations of one site's tables arrive in that site's emission order — cross-site
// interleaving is free because tables are per-site and the host/arrive
// trackers order by (Lamport, Seq) explicitly.
type convergenceState struct {
	tables     map[tableKey]map[string]tableEntry
	finalHost  map[string]journal.Record // client -> last attach/arrive record
	lastArrive map[string]journal.Record
	// Inserts tagged with each client's arrival transaction at the target
	// site: the filters the movement promised to re-home.
	taggedInserts map[string][]journal.Record
	// Untagged (client-issued) removes, to excuse filters the client itself
	// retracted after arriving.
	untaggedRemoved map[tableKey]map[string]bool
	// Live shadow records per transaction, so the streaming auditor keeps a
	// transaction in flight while its prepared configuration survives.
	shadowCount map[string]int
	lastMut     cursor // cursor of the newest routing/host mutation applied
}

func newConvergenceState() *convergenceState {
	return &convergenceState{
		tables:          make(map[tableKey]map[string]tableEntry),
		finalHost:       make(map[string]journal.Record),
		lastArrive:      make(map[string]journal.Record),
		taggedInserts:   make(map[string][]journal.Record),
		untaggedRemoved: make(map[tableKey]map[string]bool),
		shadowCount:     make(map[string]int),
	}
}

// apply folds one record into the replayed state. Non-routing records are
// ignored, so callers can feed the full stream.
func (cs *convergenceState) apply(r journal.Record) {
	switch r.Kind {
	case journal.KindClientAttach, journal.KindClientArrive:
		if cur, ok := cs.finalHost[r.Client]; !ok || cursorOf(cur).less(cursorOf(r)) {
			cs.finalHost[r.Client] = r
		}
		if r.Kind == journal.KindClientArrive {
			if cur, ok := cs.lastArrive[r.Client]; !ok || cursorOf(cur).less(cursorOf(r)) {
				// A newer arrival supersedes the old transaction: its tagged
				// inserts can never be read again, so drop them.
				if ok && cur.Tx != r.Tx {
					delete(cs.taggedInserts, cur.Tx)
				}
				cs.lastArrive[r.Client] = r
			} else if cur.Tx != r.Tx {
				delete(cs.taggedInserts, r.Tx)
			}
		}
	case journal.KindSRTInsert, journal.KindPRTInsert, journal.KindSRTRemove, journal.KindPRTRemove:
		table := "srt"
		if r.Kind == journal.KindPRTInsert || r.Kind == journal.KindPRTRemove {
			table = "prt"
		}
		k := tableKey{r.Site, table}
		t := cs.tables[k]
		if t == nil {
			t = make(map[string]tableEntry)
			cs.tables[k] = t
		}
		switch r.Kind {
		case journal.KindSRTInsert, journal.KindPRTInsert:
			if _, existed := t[r.Ref]; !existed && isShadow(r.Ref) {
				cs.shadowCount[txOfShadow(r.Ref)]++
			}
			t[r.Ref] = tableEntry{client: r.Client, lastHop: r.To}
			if r.Tx != "" {
				cs.taggedInserts[r.Tx] = append(cs.taggedInserts[r.Tx], r)
			}
		default:
			if _, existed := t[r.Ref]; existed && isShadow(r.Ref) {
				tx := txOfShadow(r.Ref)
				if cs.shadowCount[tx]--; cs.shadowCount[tx] <= 0 {
					delete(cs.shadowCount, tx)
				}
			}
			delete(t, r.Ref)
			if r.Tx == "" {
				u := cs.untaggedRemoved[k]
				if u == nil {
					u = make(map[string]bool)
					cs.untaggedRemoved[k] = u
				}
				u[baseID(r.Ref)] = true
			}
		}
	default:
		return
	}
	if cs.lastMut.less(cursorOf(r)) {
		cs.lastMut = cursorOf(r)
	}
}

// dropTx forgets a settled transaction's tagged inserts when they can no
// longer be read (the transaction is not any client's last arrival), so
// the streaming auditor's memory stays bounded by in-flight work.
func (cs *convergenceState) dropTx(tx, client string) {
	if la, ok := cs.lastArrive[client]; ok && la.Tx == tx {
		return
	}
	delete(cs.taggedInserts, tx)
}

// liveShadows reports whether any prepared shadow record of the
// transaction survives in a replayed table.
func (cs *convergenceState) liveShadows(tx string) bool { return cs.shadowCount[tx] > 0 }

// entries counts the replayed state held, for memory observability.
func (cs *convergenceState) entries() int {
	n := len(cs.finalHost) + len(cs.lastArrive)
	for _, t := range cs.tables {
		n += len(t)
	}
	for _, ins := range cs.taggedInserts {
		n += len(ins)
	}
	return n
}

// violations verifies property (c) on the replayed final state: no shadow
// configuration survives, no entry points at a client copy the client has
// departed from, and each moved client's filters are present at its final
// host.
//
// Crash relaxations: tables at still-down sites are not inspected (the
// state died with the broker and nobody recovered it) — but a restarted
// site is inspected in full, because its replacement rebuilt the tables
// from the durable store and they must converge like any live site's. A
// shadow surviving at an inspected site is excused when its transaction's
// coordinator crashed (the cleanup order could never arrive); orphaned
// entries are excused when the abandoned copy's host or the client's final
// host ever crashed (hosted clients are not durable, so the unsubscription
// path is severed even across a restart); the final-host filter check is
// likewise skipped when the final host ever crashed.
func (cs *convergenceState) violations(run int64, crashed, stillDown, crashedTx map[string]bool) []Violation {
	var out []Violation

	// No prepared shadow configuration may survive the run, and no entry may
	// point at a client copy the client has departed from.
	for k, t := range cs.tables {
		if stillDown[k.site] {
			continue
		}
		for id, e := range t {
			if isShadow(id) && !crashedTx[txOfShadow(id)] {
				out = append(out, Violation{
					Run: run, Check: "convergence", Site: k.site, Ref: id, Client: e.client, Tx: txOfShadow(id),
					Detail: fmt.Sprintf("prepared shadow record survived in the %s", strings.ToUpper(k.table)),
				})
			}
			c, host, ok := splitClientNode(e.lastHop)
			if !ok {
				continue
			}
			final := cs.finalHost[c].Site
			if final != "" && host != final && !crashed[host] && !crashed[final] {
				out = append(out, Violation{
					Run: run, Check: "convergence", Site: k.site, Ref: id, Client: c,
					Detail: fmt.Sprintf("orphaned %s entry points at abandoned copy %s (client now at %s)",
						strings.ToUpper(k.table), e.lastHop, final),
				})
			}
		}
	}

	// The filters the client's final committed movement re-homed must be
	// present at the final host (unless the client retracted them itself).
	for c, arrive := range cs.lastArrive {
		site := arrive.Site
		if crashed[site] {
			// Ever crashed, even if restarted: the arriving client's copy
			// died with the container and is not resurrected, so its filters
			// are legitimately unsubscribed rather than present.
			continue
		}
		expected := make(map[string]string) // base id -> table
		for _, ins := range cs.taggedInserts[arrive.Tx] {
			if ins.Site != site || ins.Client != c || ins.To != clientNode(c, site) {
				continue
			}
			table := "srt"
			if ins.Kind == journal.KindPRTInsert {
				table = "prt"
			}
			expected[baseID(ins.Ref)] = table
		}
		for base, table := range expected {
			k := tableKey{site, table}
			if cs.untaggedRemoved[k][base] {
				continue
			}
			found := false
			for id, e := range cs.tables[k] {
				if baseID(id) == base && e.lastHop == clientNode(c, site) {
					found = true
					break
				}
			}
			if !found {
				out = append(out, Violation{
					Run: run, Check: "convergence", Site: site, Ref: base, Client: c, Tx: arrive.Tx,
					Detail: fmt.Sprintf("filter missing from the %s at the client's final host", strings.ToUpper(table)),
				})
			}
		}
	}
	sortViolations(out)
	return out
}
