package mon

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"

	"padres/internal/audit"
	"padres/internal/telemetry"
)

// Target is one broker observability endpoint to scrape.
type Target struct {
	// Name is the display name ("" derives it from the address).
	Name string
	// Addr is host:port or a full http:// base URL of the telemetry server.
	Addr string
}

// baseURL normalizes the target address to an http base URL.
func (t Target) baseURL() string {
	if strings.Contains(t.Addr, "://") {
		return strings.TrimSuffix(t.Addr, "/")
	}
	return "http://" + t.Addr
}

// DisplayName returns the target's name, falling back to its address.
func (t Target) DisplayName() string {
	if t.Name != "" {
		return t.Name
	}
	return t.Addr
}

// ParseTargets parses a comma-separated target list; each element is
// host:port or name=host:port.
func ParseTargets(spec string) ([]Target, error) {
	var out []Target
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		var t Target
		if name, addr, ok := strings.Cut(part, "="); ok && !strings.Contains(name, ":") {
			t = Target{Name: name, Addr: addr}
		} else {
			t = Target{Addr: part}
		}
		out = append(out, t)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no targets in %q", spec)
	}
	return out, nil
}

// Scrape is the result of scraping one target once.
type Scrape struct {
	Target Target
	Err    error
	// Expo is the parsed /metrics exposition (nil on error).
	Expo *Exposition
	// Active holds the in-flight movement timelines from /spans (nil when
	// the endpoint is unreachable or reports none).
	Active []telemetry.MovementTimeline
}

// NewScraper returns a scraper with the given per-target timeout (<= 0
// selects the 5-second default).
func NewScraper(timeout time.Duration) *Scraper {
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	return &Scraper{Client: &http.Client{Timeout: timeout}}
}

// Scraper fetches broker telemetry endpoints.
type Scraper struct {
	// Client is the HTTP client used for scrapes (a 5-second-timeout
	// client when nil).
	Client *http.Client
}

func (s *Scraper) client() *http.Client {
	if s != nil && s.Client != nil {
		return s.Client
	}
	return &http.Client{Timeout: 5 * time.Second}
}

// ScrapeTarget fetches one target's /metrics and /spans. A /metrics
// failure marks the scrape failed; a /spans failure only loses the
// in-flight view (older brokers may not serve it).
func (s *Scraper) ScrapeTarget(t Target) Scrape {
	sc := Scrape{Target: t}
	base := t.baseURL()
	resp, err := s.client().Get(base + "/metrics")
	if err != nil {
		sc.Err = err
		return sc
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		sc.Err = fmt.Errorf("GET /metrics: %s", resp.Status)
		return sc
	}
	expo, err := Parse(resp.Body)
	if err != nil {
		sc.Err = fmt.Errorf("parse /metrics: %w", err)
		return sc
	}
	sc.Expo = expo
	sc.Active = s.scrapeActive(base)
	return sc
}

// scrapeActive fetches the live in-flight movements from /spans. The page
// limit keeps the completed-timeline payload minimal; the active view rides
// on every page regardless of pagination.
func (s *Scraper) scrapeActive(base string) []telemetry.MovementTimeline {
	resp, err := s.client().Get(base + "/spans?limit=1")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil
	}
	var page struct {
		Active []telemetry.MovementTimeline `json:"active"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
		return nil
	}
	return page.Active
}

// ScrapeAll scrapes every target concurrently and returns the results in
// target order.
func (s *Scraper) ScrapeAll(targets []Target) []Scrape {
	out := make([]Scrape, len(targets))
	done := make(chan int, len(targets))
	for i, t := range targets {
		go func(i int, t Target) {
			out[i] = s.ScrapeTarget(t)
			done <- i
		}(i, t)
	}
	for range targets {
		<-done
	}
	return out
}

// StageStats is the cluster-merged latency distribution of one named stage
// (or movement phase).
type StageStats struct {
	Name  string        `json:"name"`
	Count int64         `json:"count"`
	Mean  time.Duration `json:"mean_ns"`
	P50   time.Duration `json:"p50_ns"`
	P95   time.Duration `json:"p95_ns"`
	P99   time.Duration `json:"p99_ns"`
}

func stageStats(name string, s telemetry.HistogramSnapshot) StageStats {
	return StageStats{
		Name:  name,
		Count: s.Count,
		Mean:  s.Mean(),
		P50:   s.Quantile(0.50),
		P95:   s.Quantile(0.95),
		P99:   s.Quantile(0.99),
	}
}

// LinkHealth is one directed overlay link's merged health row.
type LinkHealth struct {
	From        string        `json:"from"`
	To          string        `json:"to"`
	Up          bool          `json:"up"`
	RTTCount    int64         `json:"rtt_count"`
	RTTP50      time.Duration `json:"rtt_p50_ns"`
	RTTP95      time.Duration `json:"rtt_p95_ns"`
	Retransmits int64         `json:"retransmits"`
	DeadLetters int64         `json:"dead_letters"`
	ResendDepth int64         `json:"resend_depth"`
}

// ActiveMove is one in-flight movement transaction in the fleet view.
type ActiveMove struct {
	Tx       string        `json:"tx"`
	Client   string        `json:"client"`
	LastStep string        `json:"last_step"`
	Broker   string        `json:"broker"`
	Age      time.Duration `json:"age_ns"`
	Steps    int           `json:"steps"`
}

// TargetStatus is one target's scrape outcome in the fleet snapshot.
type TargetStatus struct {
	Target string `json:"target"`
	OK     bool   `json:"ok"`
	Err    string `json:"err,omitempty"`
	// Brokers lists the broker IDs found in the target's exposition.
	Brokers []string `json:"brokers,omitempty"`
	// JournalDropped is the target's padres_journal_dropped_total: non-zero
	// means its flight-recorder ring overwrote records, so any audit fed
	// from this broker's journal is lossy.
	JournalDropped uint64 `json:"journal_dropped,omitempty"`
}

// FleetSnapshot is one aggregation round over the whole fleet: cluster
// per-stage percentiles, movement-phase percentiles, the link health
// matrix, and the live in-flight-moves table.
type FleetSnapshot struct {
	At      time.Time      `json:"at"`
	Targets []TargetStatus `json:"targets"`
	// Stages merges padres_broker_stage_seconds across all brokers, plus
	// the store's durability stages (wal_fsync, wal_commit) when present.
	Stages []StageStats `json:"stages"`
	// Phases merges padres_movement_phase_seconds across registries.
	Phases []StageStats `json:"phases"`
	Links  []LinkHealth `json:"links"`
	Moves  []ActiveMove `json:"moves"`
	// Audit is the live invariant auditor's view when padres-mon runs with
	// -audit: per-check verdicts, watermark position, and in-flight
	// transactions. Nil when no auditor is attached.
	Audit *audit.StreamStatus `json:"audit,omitempty"`
	// Errors collects aggregation problems (histogram bound mismatches and
	// the like) without aborting the snapshot.
	Errors []string `json:"errors,omitempty"`
}

// stageOrder fixes the display order of the pipeline stages; unknown stages
// sort after the known ones, alphabetically.
var stageOrder = map[string]int{
	telemetry.StageInboxWait: 0,
	telemetry.StageMatch:     1,
	"wal_fsync":              2,
	"wal_commit":             3,
}

// phaseOrder fixes the display order of the movement phases.
var phaseOrder = map[string]int{
	telemetry.PhaseInit:      0,
	telemetry.PhasePrepare:   1,
	telemetry.PhasePrecommit: 2,
	telemetry.PhaseCommit:    3,
	telemetry.PhaseAbort:     4,
	telemetry.PhaseTotal:     5,
}

// Aggregate merges one round of scrapes into a fleet snapshot taken at
// `now` (the caller's clock, so tests can pin it).
func Aggregate(scrapes []Scrape, now time.Time) *FleetSnapshot {
	fs := &FleetSnapshot{At: now}
	stageAgg := make(map[string]telemetry.HistogramSnapshot)
	phaseAgg := make(map[string]telemetry.HistogramSnapshot)
	linkAgg := make(map[LinkKey]*LinkHealth)
	var linkOrder []LinkKey
	seenMoves := make(map[string]bool)

	mergeInto := func(agg map[string]telemetry.HistogramSnapshot, key string, s telemetry.HistogramSnapshot) {
		cur := agg[key]
		if err := cur.Merge(s); err != nil {
			fs.Errors = append(fs.Errors, fmt.Sprintf("merge %s: %v", key, err))
			return
		}
		agg[key] = cur
	}

	for _, sc := range scrapes {
		ts := TargetStatus{Target: sc.Target.DisplayName(), OK: sc.Err == nil}
		if sc.Err != nil {
			ts.Err = sc.Err.Error()
			fs.Targets = append(fs.Targets, ts)
			continue
		}
		e := sc.Expo
		for _, s := range e.Samples("padres_broker_processed_total") {
			if b := s.Label("broker"); b != "" {
				ts.Brokers = append(ts.Brokers, b)
			}
		}
		sort.Strings(ts.Brokers)
		if v, ok := e.SumValues("padres_journal_dropped_total", nil); ok {
			ts.JournalDropped = uint64(v)
		}
		fs.Targets = append(fs.Targets, ts)

		if hs, err := e.Histograms("padres_broker_stage_seconds"); err != nil {
			fs.Errors = append(fs.Errors, err.Error())
		} else {
			for _, h := range hs {
				if stage := h.Labels["stage"]; stage != "" {
					mergeInto(stageAgg, stage, h.Snapshot)
				}
			}
		}
		// The store's durability path joins the stage table: where a
		// record's latency goes once it leaves the dispatch pipeline.
		for stage, fam := range map[string]string{
			"wal_fsync":  "padres_store_fsync_latency_seconds",
			"wal_commit": "padres_store_commit_latency_seconds",
		} {
			hs, err := e.Histograms(fam)
			if err != nil {
				fs.Errors = append(fs.Errors, err.Error())
				continue
			}
			for _, h := range hs {
				mergeInto(stageAgg, stage, h.Snapshot)
			}
		}
		if hs, err := e.Histograms("padres_movement_phase_seconds"); err != nil {
			fs.Errors = append(fs.Errors, err.Error())
		} else {
			for _, h := range hs {
				if phase := h.Labels["phase"]; phase != "" {
					mergeInto(phaseAgg, phase, h.Snapshot)
				}
			}
		}

		aggregateLinks(e, linkAgg, &linkOrder, fs)

		for _, tl := range sc.Active {
			if seenMoves[tl.Tx] {
				continue
			}
			seenMoves[tl.Tx] = true
			mv := ActiveMove{Tx: tl.Tx, Client: tl.Client, Age: now.Sub(tl.Start), Steps: len(tl.Steps)}
			if n := len(tl.Steps); n > 0 {
				mv.LastStep = tl.Steps[n-1].Name
				mv.Broker = tl.Steps[n-1].Broker
			}
			fs.Moves = append(fs.Moves, mv)
		}
	}

	fs.Stages = sortedStats(stageAgg, stageOrder)
	fs.Phases = sortedStats(phaseAgg, phaseOrder)
	for _, k := range linkOrder {
		fs.Links = append(fs.Links, *linkAgg[k])
	}
	sort.Slice(fs.Links, func(i, j int) bool {
		if fs.Links[i].From != fs.Links[j].From {
			return fs.Links[i].From < fs.Links[j].From
		}
		return fs.Links[i].To < fs.Links[j].To
	})
	sort.Slice(fs.Moves, func(i, j int) bool { return fs.Moves[i].Age > fs.Moves[j].Age })
	return fs
}

// LinkKey identifies one directed link in the aggregation maps.
type LinkKey struct{ From, To string }

// aggregateLinks folds one exposition's padres_link_* series into the link
// health map.
func aggregateLinks(e *Exposition, agg map[LinkKey]*LinkHealth, order *[]LinkKey, fs *FleetSnapshot) {
	row := func(labels map[string]string) *LinkHealth {
		k := LinkKey{From: labels["from"], To: labels["to"]}
		if k.From == "" && k.To == "" {
			return nil
		}
		lh, ok := agg[k]
		if !ok {
			lh = &LinkHealth{From: k.From, To: k.To, Up: true}
			agg[k] = lh
			*order = append(*order, k)
		}
		return lh
	}
	hs, err := e.Histograms("padres_link_rtt_seconds")
	if err != nil {
		fs.Errors = append(fs.Errors, err.Error())
	}
	for _, h := range hs {
		if lh := row(h.Labels); lh != nil {
			lh.RTTCount = h.Snapshot.Count
			lh.RTTP50 = h.Snapshot.Quantile(0.50)
			lh.RTTP95 = h.Snapshot.Quantile(0.95)
		}
	}
	for _, s := range e.Samples("padres_link_retransmits_total") {
		if lh := row(s.Labels); lh != nil {
			lh.Retransmits += int64(s.Value)
		}
	}
	for _, s := range e.Samples("padres_link_dead_letters_total") {
		if lh := row(s.Labels); lh != nil {
			lh.DeadLetters += int64(s.Value)
		}
	}
	for _, s := range e.Samples("padres_link_up") {
		if lh := row(s.Labels); lh != nil {
			lh.Up = s.Value > 0
		}
	}
	for _, s := range e.Samples("padres_link_resend_depth") {
		if lh := row(s.Labels); lh != nil {
			lh.ResendDepth += int64(s.Value)
		}
	}
}

func sortedStats(agg map[string]telemetry.HistogramSnapshot, order map[string]int) []StageStats {
	names := make([]string, 0, len(agg))
	for name := range agg {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		oi, iok := order[names[i]]
		oj, jok := order[names[j]]
		switch {
		case iok && jok:
			return oi < oj
		case iok:
			return true
		case jok:
			return false
		default:
			return names[i] < names[j]
		}
	})
	out := make([]StageStats, 0, len(names))
	for _, name := range names {
		out = append(out, stageStats(name, agg[name]))
	}
	return out
}
