package audit

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"padres/internal/journal"
)

// phasePrecedence lists the orderings the 3PC movement conversation
// (Fig. 3) requires whenever both steps occur: the successful path down the
// protocol, and the reject path. Lamport propagation makes these orderings
// checkable across coordinators — each step is causally downstream of its
// predecessor through the control message that carried it, so its stamp is
// strictly greater.
var phasePrecedence = [][2]string{
	{"move-requested", "negotiate-sent"},
	{"negotiate-sent", "negotiate-received"},
	{"negotiate-received", "approve-sent"},
	{"negotiate-received", "reject-sent"},
	{"approve-sent", "approve-received"},
	{"approve-received", "state-sent"},
	{"state-sent", "state-received"},
	{"state-received", "ack-sent"},
	{"ack-sent", "ack-received"},
	{"ack-received", "committed"},
	{"reject-sent", "reject-received"},
	{"reject-received", "aborted"},
}

// tableEntry is the replayed state of one routing record.
type tableEntry struct {
	client  string
	lastHop string
}

// tableKey addresses one routing table at one site.
type tableKey struct {
	site  string
	table string // "srt" | "prt"
}

// clientNode renders the location-qualified node identity mirrored from
// message.ClientNode.
func clientNode(client, brokerSite string) string { return client + "@" + brokerSite }

// repTakeover is one standby-takeover journal record, parsed: the fencing
// generation the claimant won the lease at, the outcome it acted on, and
// the standby site that performed the takeover.
type repTakeover struct {
	gen     uint64
	outcome string
	site    string
}

// detailField extracts the value of one "key=value" token from a journal
// detail string, or "" when the key is absent.
func detailField(detail, key string) string {
	prefix := key + "="
	for _, tok := range strings.Fields(detail) {
		if strings.HasPrefix(tok, prefix) {
			return tok[len(prefix):]
		}
	}
	return ""
}

// parseTakeover reads the fields of a standby-takeover record
// ("gen=%d outcome=%s"). An unparsable generation yields 0, which the check
// flags — a takeover without a fence is a violation either way.
func parseTakeover(r journal.Record) repTakeover {
	gen, _ := strconv.ParseUint(detailField(r.Detail, "gen"), 10, 64)
	return repTakeover{gen: gen, outcome: detailField(r.Detail, "outcome"), site: r.Site}
}

// replicationViolations verifies property (e) — the quorum-replication
// layer's safety rules — for one transaction, from its parsed
// standby-takeover records:
//
//   - every takeover carries a fencing generation strictly above the
//     original coordinator's (gen >= 1, the coordinator acts at gen 0);
//   - no two takeovers share a generation (each granted lease claim must
//     bump the fence, so a shared generation means fencing failed);
//   - all takeovers agree on one outcome;
//   - that outcome matches the transaction's resolution when it resolved
//     to exactly one (double resolution is already a phase-order finding).
//
// Conflicting replica-decision records alone are deliberately NOT flagged:
// a replica may durably hold "committed" from a quorum round that failed,
// later superseded by the coordinator's abort. The invariant constrains
// outcomes that were acted on — takeovers and the resolution — not every
// record written along the way. The derivation is independent of the order
// the takeovers were observed in.
func replicationViolations(run int64, txID, client string, takeovers []repTakeover, committed, aborted bool) []Violation {
	if len(takeovers) == 0 {
		return nil
	}
	var out []Violation
	add := func(site, detail string) {
		out = append(out, Violation{Run: run, Check: "replication", Tx: txID, Client: client, Site: site, Detail: detail})
	}

	byGen := make(map[uint64]int)
	outcomes := make(map[string]bool)
	for _, t := range takeovers {
		if t.gen == 0 {
			add(t.site, "standby takeover without a fencing generation (gen=0)")
		}
		byGen[t.gen]++
		outcomes[t.outcome] = true
	}
	gens := make([]uint64, 0, len(byGen))
	for g := range byGen {
		gens = append(gens, g)
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
	for _, g := range gens {
		if n := byGen[g]; n > 1 {
			add("", fmt.Sprintf("%d standby takeovers share fencing generation %d", n, g))
		}
	}

	if len(outcomes) > 1 {
		list := make([]string, 0, len(outcomes))
		for oc := range outcomes {
			list = append(list, oc)
		}
		sort.Strings(list)
		add("", "standby takeovers disagree on outcome ("+strings.Join(list, " vs ")+")")
	} else if committed != aborted { // resolved to exactly one outcome
		oc := takeovers[0].outcome
		switch {
		case committed && oc != "committed":
			add("", fmt.Sprintf("standby takeover resolved %s but the transaction committed", oc))
		case aborted && oc != "aborted":
			add("", fmt.Sprintf("standby takeover resolved %s but the transaction aborted", oc))
		}
	}
	sortViolations(out)
	return out
}

// splitClientNode parses a location-qualified client node "c@b"; ok is
// false for plain broker nodes.
func splitClientNode(node string) (client, broker string, ok bool) {
	i := strings.Index(node, "@")
	if i < 0 {
		return "", "", false
	}
	return node[:i], node[i+1:], true
}

// txOfShadow extracts the transaction from a shadow record ID.
func txOfShadow(id string) string {
	if i := strings.Index(id, shadowSep); i >= 0 {
		return id[i+1:]
	}
	return ""
}

// sortViolations orders violations deterministically for stable reports.
func sortViolations(v []Violation) {
	sort.Slice(v, func(i, j int) bool {
		a, b := v[i], v[j]
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		if a.Tx != b.Tx {
			return a.Tx < b.Tx
		}
		if a.Client != b.Client {
			return a.Client < b.Client
		}
		if a.Site != b.Site {
			return a.Site < b.Site
		}
		return a.Ref < b.Ref
	})
}
