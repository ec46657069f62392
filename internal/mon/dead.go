package mon

import (
	"fmt"
	"sort"

	"padres/internal/telemetry"
)

// DeadInstruments cross-checks an exposition's activity counters against
// its stage histograms and reports every instrument that should have
// observations but has none — the wiring regressions a green unit-test run
// does not catch (a timer compiled out, a stage registered but never
// observed). The checks are per broker label:
//
//   - processed messages imply inbox_wait observations;
//   - forwarded publications imply match observations;
//   - WAL appends imply store commit-latency observations.
func DeadInstruments(e *Exposition) []string {
	var out []string
	brokers := make(map[string]bool)
	for _, s := range e.Samples("padres_broker_processed_total") {
		if b := s.Label("broker"); b != "" {
			brokers[b] = true
		}
	}
	ids := make([]string, 0, len(brokers))
	for b := range brokers {
		ids = append(ids, b)
	}
	sort.Strings(ids)

	for _, b := range ids {
		want := map[string]string{"broker": b}
		processed, _ := e.SumValues("padres_broker_processed_total", want)
		pubSends, _ := e.SumValues("padres_broker_sends_total", map[string]string{"broker": b, "kind": "publish"})

		stage := func(name string) (telemetry.HistogramSnapshot, bool) {
			snap, ok, err := e.Histogram("padres_broker_stage_seconds", map[string]string{"broker": b, "stage": name})
			if err != nil {
				out = append(out, fmt.Sprintf("broker %s: stage %s: %v", b, name, err))
				return telemetry.HistogramSnapshot{}, false
			}
			return snap, ok
		}

		if processed > 0 {
			if snap, ok := stage(telemetry.StageInboxWait); ok && snap.Count == 0 {
				out = append(out, fmt.Sprintf("broker %s: processed %d messages but inbox_wait has no observations", b, int64(processed)))
			}
		}
		if pubSends > 0 {
			if snap, ok := stage(telemetry.StageMatch); ok && snap.Count == 0 {
				out = append(out, fmt.Sprintf("broker %s: forwarded %d publications but match has no observations", b, int64(pubSends)))
			}
		}
		if appends, ok := e.SumValues("padres_store_wal_appends_total", want); ok && appends > 0 {
			snap, ok2, err := e.Histogram("padres_store_commit_latency_seconds", want)
			if err != nil {
				out = append(out, fmt.Sprintf("broker %s: wal_commit: %v", b, err))
			} else if ok2 && snap.Count == 0 {
				out = append(out, fmt.Sprintf("broker %s: %d WAL appends but commit latency has no observations", b, int64(appends)))
			}
		}
	}

	// Live-audit wiring: a registered auditor that ingested nothing, or
	// ingested records without its watermark ever advancing, is dead — the
	// journal tap or the watermark merge is disconnected.
	if records, ok := e.SumValues("padres_audit_records_total", nil); ok {
		if records == 0 {
			out = append(out, "live auditor registered but ingested no records")
		} else if wm, ok2 := e.SumValues("padres_audit_watermark", nil); ok2 && wm == 0 {
			out = append(out, fmt.Sprintf("live auditor ingested %d records but its watermark never advanced", int64(records)))
		}
	}
	return out
}
