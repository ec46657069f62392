package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// traceEvery is the publication sampling period of the traced run: one
// publication in 64 gets a publish span and one notify span per receiver.
// Every move is traced.
const traceEvery = 64

// span is one timed call from the harness into a public function of the
// program, or a harness-observed interval (publication due → notification).
// Start and End are nanoseconds since the workload's ledger was created.
// Spans of one operation share Op; Parent names the span that caused this
// one ("" for a root).
type span struct {
	Name     string `json:"name"`
	Workload string `json:"workload,omitempty"`
	Op       uint64 `json:"op"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Parent   string `json:"parent,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is a
// disabled tracer: callers test for nil before building a span.
type tracer struct {
	workload string
	mu       sync.Mutex
	spans    []span
}

func (t *tracer) add(s span) {
	s.Workload = t.workload
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// writeTrace writes every workload's spans to path as one JSON document.
func writeTrace(path string, tracers []*tracer) error {
	var all []span
	for _, t := range tracers {
		t.mu.Lock()
		all = append(all, t.spans...)
		t.mu.Unlock()
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{all})
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}
