package telemetry

import "sync"

// Canonical broker dispatch stage names; both exist on every broker.
const (
	StageInboxWait = "inbox_wait"
	StageMatch     = "match"
)

// StageSet is a named-histogram registry: each dispatch stage registers a
// latency histogram under a stable name, and monitors snapshot the whole
// set without knowing the stage list ahead of time. Registration takes the
// set's mutex; observation is on the returned *Histogram and stays
// lock-free, so the hot path never touches the registry again.
type StageSet struct {
	mu    sync.Mutex
	order []string
	hists map[string]*Histogram
}

// NewStageSet returns an empty stage registry.
func NewStageSet() *StageSet {
	return &StageSet{hists: make(map[string]*Histogram)}
}

// Register returns the named stage histogram, creating it with the default
// latency buckets on first registration. Idempotent: a second Register of
// the same name returns the same histogram.
func (ss *StageSet) Register(name string) *Histogram {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if h, ok := ss.hists[name]; ok {
		return h
	}
	h := NewLatencyHistogram()
	ss.hists[name] = h
	ss.order = append(ss.order, name)
	return h
}

// Attach registers an existing histogram under a stage name, letting a
// stage share an instrument that predates the registry (the match stage is
// the broker's MatchLatency histogram). A name already registered keeps
// its histogram.
func (ss *StageSet) Attach(name string, h *Histogram) *Histogram {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if existing, ok := ss.hists[name]; ok {
		return existing
	}
	ss.hists[name] = h
	ss.order = append(ss.order, name)
	return h
}

// Get returns the named histogram, or nil when unregistered.
func (ss *StageSet) Get(name string) *Histogram {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.hists[name]
}

// Names returns the registered stage names in registration order.
func (ss *StageSet) Names() []string {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	out := make([]string, len(ss.order))
	copy(out, ss.order)
	return out
}

// Snapshot copies every registered stage histogram.
func (ss *StageSet) Snapshot() map[string]HistogramSnapshot {
	ss.mu.Lock()
	names := make([]string, len(ss.order))
	copy(names, ss.order)
	hists := make([]*Histogram, len(names))
	for i, n := range names {
		hists[i] = ss.hists[n]
	}
	ss.mu.Unlock()
	out := make(map[string]HistogramSnapshot, len(names))
	for i, n := range names {
		out[n] = hists[i].Snapshot()
	}
	return out
}
