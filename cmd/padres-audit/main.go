// Command padres-audit replays a flight-recorder journal (JSONL, written by
// cmd/experiments -journal or any journal.SinkTo consumer) and mechanically
// verifies the paper's ACID mobility properties: exactly-once delivery
// across movements, 3PC phase-order legality, routing-state convergence,
// and movement atomicity under aborts.
//
// Usage:
//
//	padres-audit run.jsonl                 # verdict; exit 1 on violations
//	padres-audit -v run.jsonl              # also print violating tx timelines
//	padres-audit -timeline mv-b1-3 run.jsonl
//	padres-audit -json run.jsonl           # machine-readable report
//	padres-audit -stream run.jsonl         # also check arrival-order independence
//
// The verdict is audit.Audit's: the journal fed to audit.Stream in causal
// order. -stream additionally feeds it as shuffled per-site chunks (the
// arrival order a fleet of independently-paced /journal/stream tails
// produces) and the command fails unless every interleaving finalizes to
// exactly the same report — what the live fleet auditor relies on.
//
// The exit status is 0 when every property holds, 1 when the auditor found
// violations or a shuffled feed diverged, and 2 on usage or input errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"

	"padres/internal/audit"
	"padres/internal/journal"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("padres-audit", flag.ContinueOnError)
	var (
		timeline = fs.String("timeline", "", "print the causal timeline of one transaction and exit")
		runNum   = fs.Int64("run", 0, "restrict -timeline to this run (default: every run the tx appears in)")
		verbose  = fs.Bool("v", false, "print the causal timeline of every violating transaction")
		jsonOut  = fs.Bool("json", false, "emit the report as JSON instead of text")
		stream   = fs.Bool("stream", false, "also require shuffled per-site feeds to finalize to the same report")
	)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: padres-audit [flags] <journal.jsonl>")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}

	recs, err := journal.ReadFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "padres-audit:", err)
		return 2
	}
	if len(recs) == 0 {
		fmt.Fprintln(os.Stderr, "padres-audit: journal is empty")
		return 2
	}

	if *timeline != "" {
		printTimelines(recs, *runNum, *timeline)
		return 0
	}

	rep := audit.Audit(recs)
	if *stream {
		if diff := streamDifferential(recs, rep); diff != "" {
			fmt.Fprintln(os.Stderr, "padres-audit: arrival order changed the verdict:", diff)
			return 1
		}
		fmt.Println("shuffled per-site feeds agree with the in-order feed on every interleaving")
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(os.Stderr, "padres-audit:", err)
			return 2
		}
	} else {
		rep.Write(os.Stdout)
	}
	if rep.Clean() {
		return 0
	}
	if *verbose && !*jsonOut {
		seen := map[[2]interface{}]bool{}
		for _, v := range rep.Violations() {
			if v.Tx == "" {
				continue
			}
			k := [2]interface{}{v.Run, v.Tx}
			if seen[k] {
				continue
			}
			seen[k] = true
			fmt.Println()
			audit.WriteTimeline(os.Stdout, recs, v.Run, v.Tx)
		}
	}
	return 1
}

// streamDifferential feeds the records to fresh streams as seeded-random
// interleavings of per-site chunks and returns the first divergence from
// the in-order feed's report, or "".
func streamDifferential(recs []journal.Record, inOrder *audit.Report) string {
	bySite := make(map[string][]journal.Record)
	var sites []string
	for _, r := range recs {
		if len(bySite[r.Site]) == 0 {
			sites = append(sites, r.Site)
		}
		bySite[r.Site] = append(bySite[r.Site], r)
	}
	sort.Strings(sites)
	const chunk = 25
	for _, seed := range []int64{1, 7, 42} {
		rng := rand.New(rand.NewSource(seed))
		s := audit.NewStream(audit.StreamOptions{})
		next := make(map[string]int, len(sites))
		remaining := append([]string(nil), sites...)
		for len(remaining) > 0 {
			i := rng.Intn(len(remaining))
			site := remaining[i]
			lo, hi := next[site], next[site]+chunk
			if hi > len(bySite[site]) {
				hi = len(bySite[site])
			}
			s.Ingest(site, bySite[site][lo:hi]...)
			if next[site] = hi; hi == len(bySite[site]) {
				remaining = append(remaining[:i], remaining[i+1:]...)
			}
		}
		if diff := audit.DiffReports(inOrder, s.Finalize()); diff != "" {
			return fmt.Sprintf("shuffled per-site feed (seed %d): %s", seed, diff)
		}
	}
	return ""
}

// printTimelines renders one transaction's causal timeline, in the given
// run or in every run that mentions the transaction.
func printTimelines(recs []journal.Record, run int64, tx string) {
	var runs []int64
	if run != 0 {
		runs = []int64{run}
	} else {
		seen := map[int64]bool{}
		for _, r := range recs {
			if r.Tx == tx && !seen[r.Run] {
				seen[r.Run] = true
				runs = append(runs, r.Run)
			}
		}
		sort.Slice(runs, func(i, j int) bool { return runs[i] < runs[j] })
	}
	if len(runs) == 0 {
		fmt.Printf("transaction %s not found in the journal\n", tx)
		return
	}
	for i, rn := range runs {
		if i > 0 {
			fmt.Println()
		}
		audit.WriteTimeline(os.Stdout, recs, rn, tx)
	}
}
