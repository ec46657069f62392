// Package telemetry is the observability layer of the pub/sub system:
// hop-by-hop message tracing, per-phase movement spans, lock-free broker
// runtime metrics, structured per-component logging, and HTTP exposition
// (Prometheus text, health, trace dumps, pprof).
//
// The package sits below every other layer: it imports only
// internal/message and the standard library, so the broker, transport,
// core, and client packages can all report into it without import cycles.
// The hot-path instruments (Counter, Gauge, MaxGauge, Histogram) are built
// on sync/atomic so the broker dispatch path pays no lock to record a
// measurement.
package telemetry

import (
	"fmt"
	"io"
	"sort"
	"sync/atomic"
	"time"

	"padres/internal/message"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0 to keep the counter monotonic).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// MaxGauge tracks the maximum observed value (a high-water mark).
type MaxGauge struct{ v atomic.Int64 }

// Observe raises the mark to n if n exceeds it.
func (m *MaxGauge) Observe(n int64) {
	for {
		cur := m.v.Load()
		if n <= cur {
			return
		}
		if m.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Value returns the high-water mark.
func (m *MaxGauge) Value() int64 { return m.v.Load() }

// defaultLatencyBounds are the histogram bucket upper bounds in seconds,
// spanning sub-millisecond matching up to multi-second congestion stalls.
var defaultLatencyBounds = []float64{
	0.000_05, 0.000_1, 0.000_25, 0.000_5,
	0.001, 0.002_5, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket latency histogram safe for lock-free
// concurrent observation. Bucket counts are cumulative only at snapshot
// time (each atomic cell holds its own bucket's count).
type Histogram struct {
	bounds []float64 // upper bounds in seconds, ascending
	counts []atomic.Int64
	sum    atomic.Int64 // nanoseconds
	count  atomic.Int64
}

// NewLatencyHistogram returns a histogram with the default latency buckets.
func NewLatencyHistogram() *Histogram { return NewHistogram(defaultLatencyBounds) }

// NewHistogram returns a histogram with the given upper bounds (seconds,
// ascending); an implicit +Inf bucket is appended.
func NewHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	s := d.Seconds()
	i := sort.SearchFloat64s(h.bounds, s)
	h.counts[i].Add(1)
	h.sum.Add(int64(d))
	h.count.Add(1)
}

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	Bounds []float64 // upper bounds in seconds; implicit +Inf bucket last
	Counts []int64   // len(Bounds)+1 per-bucket (non-cumulative) counts
	Sum    time.Duration
	Count  int64
}

// Snapshot copies the histogram state. Concurrent observations may land
// between cell reads; totals are therefore approximate under load, which is
// acceptable for monitoring.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]int64, len(h.counts)),
		Sum:    time.Duration(h.sum.Load()),
		Count:  h.count.Load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// Mean returns the mean observed duration (0 when empty).
func (s HistogramSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / time.Duration(s.Count)
}

// Quantile estimates the q-quantile (0 < q <= 1) assuming observations sit
// at their bucket's upper bound; the +Inf bucket reports the last finite
// bound.
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 || len(s.Bounds) == 0 {
		return 0
	}
	rank := int64(q * float64(s.Count))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range s.Counts {
		cum += c
		if cum >= rank {
			bound := s.Bounds[len(s.Bounds)-1]
			if i < len(s.Bounds) {
				bound = s.Bounds[i]
			}
			return time.Duration(bound * float64(time.Second))
		}
	}
	return time.Duration(s.Bounds[len(s.Bounds)-1] * float64(time.Second))
}

// Merge adds other's observations into s. Both snapshots must share the
// same bucket bounds; an empty snapshot (no bounds, no observations) acts
// as the identity on either side.
func (s *HistogramSnapshot) Merge(other HistogramSnapshot) error {
	if other.Count == 0 && len(other.Bounds) == 0 {
		return nil
	}
	if s.Count == 0 && len(s.Bounds) == 0 {
		s.Bounds = append([]float64(nil), other.Bounds...)
		s.Counts = append([]int64(nil), other.Counts...)
		s.Sum = other.Sum
		s.Count = other.Count
		return nil
	}
	if len(s.Bounds) != len(other.Bounds) {
		return fmt.Errorf("histogram merge: %d vs %d buckets", len(s.Bounds), len(other.Bounds))
	}
	for i := range s.Bounds {
		if s.Bounds[i] != other.Bounds[i] {
			return fmt.Errorf("histogram merge: bound %d differs (%g vs %g)", i, s.Bounds[i], other.Bounds[i])
		}
	}
	for i := range other.Counts {
		s.Counts[i] += other.Counts[i]
	}
	s.Sum += other.Sum
	s.Count += other.Count
	return nil
}

// MergeSnapshots folds any number of snapshots into one. Snapshots must
// share bucket bounds (empties are skipped); the cluster aggregator uses
// it to turn N brokers' same-stage histograms into fleet percentiles.
func MergeSnapshots(snaps ...HistogramSnapshot) (HistogramSnapshot, error) {
	var out HistogramSnapshot
	for _, s := range snaps {
		if err := out.Merge(s); err != nil {
			return HistogramSnapshot{}, err
		}
	}
	return out, nil
}

// kindSlots bounds the per-kind counter array; message kinds are small
// consecutive integers. Keep headroom above the highest defined kind
// (currently KindStandbyResolve = 17) so new kinds are counted, not
// silently dropped by the bounds check in CountSend.
const kindSlots = 24

// BrokerMetrics holds one broker's runtime instruments. All fields are
// updated lock-free; the broker hot path touches only atomics.
type BrokerMetrics struct {
	// QueueDepth mirrors the broker inbox length.
	QueueDepth Gauge
	// QueueHighWater is the maximum inbox length seen since start.
	QueueHighWater MaxGauge
	// BackpressureWaits counts times a sender blocked because the bounded
	// inbox was full (one increment per blocking episode, not per retry).
	BackpressureWaits Counter
	// Processed counts messages fully processed by the dispatch loop.
	Processed Counter
	// DroppedPublications counts publications discarded because no
	// advertisement matched them.
	DroppedPublications Counter
	// SRTSize and PRTSize mirror the routing table sizes (including
	// prepared shadow configurations of in-flight movements).
	SRTSize Gauge
	PRTSize Gauge
	// DispatchLatency measures the real processing time of one message
	// (matching and forwarding), excluding any simulated service delay.
	DispatchLatency *Histogram
	// MatchLatency measures the publication matching pass alone.
	MatchLatency *Histogram
	// LinksDown mirrors the number of this broker's overlay links whose
	// circuit breaker is currently open.
	LinksDown Gauge
	// LinkDownEvents counts breaker-open transitions on this broker's links.
	LinkDownEvents Counter
	// Stages is the named per-stage latency registry the dispatch path
	// reports into: inbox_wait and match.
	Stages *StageSet
	// InboxWait measures the time from a message's enqueue on the inbox to
	// the start of its dispatch, simulated service delay included
	// (registered in Stages as inbox_wait).
	InboxWait *Histogram
	// sends counts messages sent, by message kind.
	sends [kindSlots]Counter
	// stageTiming gates the clock reads behind the stage instruments; the
	// telemetry-overhead benchmark flips it off to measure the bare path.
	stageTiming atomic.Bool
}

// NewBrokerMetrics returns zeroed broker instruments with stage timing
// enabled.
func NewBrokerMetrics() *BrokerMetrics {
	bm := &BrokerMetrics{
		DispatchLatency: NewLatencyHistogram(),
		MatchLatency:    NewLatencyHistogram(),
		Stages:          NewStageSet(),
	}
	bm.InboxWait = bm.Stages.Register(StageInboxWait)
	bm.Stages.Attach(StageMatch, bm.MatchLatency)
	bm.stageTiming.Store(true)
	return bm
}

// SetStageTiming enables or disables the per-stage clock reads. The
// instruments stay registered; they simply stop observing, which is what
// the overhead benchmark's "off" mode measures.
func (bm *BrokerMetrics) SetStageTiming(on bool) { bm.stageTiming.Store(on) }

// StageTimingEnabled reports whether stage timers should read the clock.
func (bm *BrokerMetrics) StageTimingEnabled() bool { return bm.stageTiming.Load() }

// CountSend records one outbound message of the given kind.
func (bm *BrokerMetrics) CountSend(k message.Kind) {
	if k > 0 && int(k) < kindSlots {
		bm.sends[k].Inc()
	}
}

// SendsByKind returns the outbound message counts per kind (kinds with zero
// sends are omitted).
func (bm *BrokerMetrics) SendsByKind() map[message.Kind]int64 {
	out := make(map[message.Kind]int64)
	for k := 1; k < kindSlots; k++ {
		if n := bm.sends[k].Value(); n > 0 {
			out[message.Kind(k)] = n
		}
	}
	return out
}

// TotalSends returns the outbound message count across all kinds.
func (bm *BrokerMetrics) TotalSends() int64 {
	var total int64
	for k := 1; k < kindSlots; k++ {
		total += bm.sends[k].Value()
	}
	return total
}

// writeProm adds the broker's instruments to the exposition builder,
// labelled with the broker ID. Output ordering is deterministic.
func (bm *BrokerMetrics) writeProm(pb *PromBuilder, broker string) {
	l := []Label{{"broker", broker}}
	pb.Gauge("padres_broker_queue_depth", "Current broker inbox length.", l, bm.QueueDepth.Value())
	pb.Gauge("padres_broker_queue_high_water", "Maximum inbox length seen since start.", l, bm.QueueHighWater.Value())
	pb.Counter("padres_broker_backpressure_waits_total", "Blocking episodes on the bounded inbox.", l, bm.BackpressureWaits.Value())
	pb.Counter("padres_broker_processed_total", "Messages fully processed by the dispatch loop.", l, bm.Processed.Value())
	pb.Counter("padres_broker_dropped_publications_total", "Publications discarded because no advertisement matched.", l, bm.DroppedPublications.Value())
	pb.Gauge("padres_broker_srt_size", "Subscription routing table size.", l, bm.SRTSize.Value())
	pb.Gauge("padres_broker_prt_size", "Publication routing table size.", l, bm.PRTSize.Value())
	pb.Gauge("padres_broker_links_down", "Overlay links of this broker with an open circuit breaker.", l, bm.LinksDown.Value())
	pb.Counter("padres_broker_link_down_total", "Breaker-open transitions on this broker's links.", l, bm.LinkDownEvents.Value())
	for k := 1; k < kindSlots; k++ {
		if n := bm.sends[k].Value(); n > 0 {
			pb.Counter("padres_broker_sends_total", "Messages sent, by message kind.",
				[]Label{{"broker", broker}, {"kind", message.Kind(k).String()}}, n)
		}
	}
	pb.Histogram("padres_broker_dispatch_latency_seconds", "Real processing time of one message (matching and forwarding).", l, bm.DispatchLatency.Snapshot())
	pb.Histogram("padres_broker_match_latency_seconds", "Publication matching pass alone.", l, bm.MatchLatency.Snapshot())
	stages := bm.Stages.Snapshot()
	for _, name := range bm.Stages.Names() {
		pb.Histogram("padres_broker_stage_seconds", "Per-stage dispatch latency, keyed by stage.",
			[]Label{{"broker", broker}, {"stage", name}}, stages[name])
	}
}

// writePrometheus emits the broker's instruments in Prometheus text format
// (one self-contained exposition fragment, HELP/TYPE included).
func (bm *BrokerMetrics) writePrometheus(w io.Writer, broker string) {
	pb := NewPromBuilder()
	bm.writeProm(pb, broker)
	pb.Emit(w)
}

// StoreMetrics holds one broker's durable-store instruments: WAL append
// volume, group-commit fsync cost, checkpoint recency, and recovery cost.
// Updated only by the store's flusher goroutine and its Open path, but the
// instruments stay atomic so scrapes need no coordination.
type StoreMetrics struct {
	// WALAppends counts records appended to the write-ahead log.
	WALAppends Counter
	// WALBytes counts framed bytes written to the log.
	WALBytes Counter
	// Fsyncs counts group commits (one fsync each, batching many appends).
	Fsyncs Counter
	// FsyncLatency measures the fsync portion of each group commit.
	FsyncLatency *Histogram
	// CommitLatency measures one record's full durability path: from its
	// enqueue on the flusher to the group commit's successful fsync.
	CommitLatency *Histogram
	// Snapshots counts completed checkpoint cycles (snapshot + truncation).
	Snapshots Counter
	// LastSnapshotUnixNano is the wall time of the last checkpoint; the
	// exposition derives snapshot age from it. Zero until the first one.
	LastSnapshotUnixNano Gauge
	// SnapshotGen mirrors the current log generation.
	SnapshotGen Gauge
	// RecoveryDuration is the nanoseconds Open spent rebuilding state.
	RecoveryDuration Gauge
	// RecoveredRecords counts WAL records replayed at recovery.
	RecoveredRecords Counter
	// TailTruncations counts torn/corrupt log tails cut off at recovery.
	TailTruncations Counter
}

// NewStoreMetrics returns zeroed store instruments.
func NewStoreMetrics() *StoreMetrics {
	return &StoreMetrics{
		FsyncLatency:  NewLatencyHistogram(),
		CommitLatency: NewLatencyHistogram(),
	}
}

// writeProm adds the store's instruments labelled with the broker ID.
func (sm *StoreMetrics) writeProm(pb *PromBuilder, broker string) {
	l := []Label{{"broker", broker}}
	pb.Counter("padres_store_wal_appends_total", "Records appended to the write-ahead log.", l, sm.WALAppends.Value())
	pb.Counter("padres_store_wal_bytes_total", "Framed bytes written to the log.", l, sm.WALBytes.Value())
	pb.Counter("padres_store_fsyncs_total", "Group commits (one fsync each).", l, sm.Fsyncs.Value())
	pb.Counter("padres_store_snapshots_total", "Completed checkpoint cycles.", l, sm.Snapshots.Value())
	pb.Gauge("padres_store_snapshot_gen", "Current log generation.", l, sm.SnapshotGen.Value())
	age := 0.0
	if ts := sm.LastSnapshotUnixNano.Value(); ts > 0 {
		age = time.Since(time.Unix(0, ts)).Seconds()
	}
	pb.GaugeFloat("padres_store_snapshot_age_seconds", "Seconds since the last checkpoint.", l, age)
	pb.GaugeFloat("padres_store_recovery_duration_seconds", "Wall time Open spent rebuilding state.", l,
		time.Duration(sm.RecoveryDuration.Value()).Seconds())
	pb.Counter("padres_store_recovered_records_total", "WAL records replayed at recovery.", l, sm.RecoveredRecords.Value())
	pb.Counter("padres_store_tail_truncations_total", "Torn or corrupt log tails cut off at recovery.", l, sm.TailTruncations.Value())
	pb.Histogram("padres_store_fsync_latency_seconds", "Fsync portion of each group commit.", l, sm.FsyncLatency.Snapshot())
	pb.Histogram("padres_store_commit_latency_seconds", "Record durability latency from flusher enqueue to fsync.", l, sm.CommitLatency.Snapshot())
}

// writePrometheus emits the store's instruments in Prometheus text format.
func (sm *StoreMetrics) writePrometheus(w io.Writer, broker string) {
	pb := NewPromBuilder()
	sm.writeProm(pb, broker)
	pb.Emit(w)
}

// ReplicationMetrics holds one broker's movement-decision replication
// instruments: quorum write latency, hinted-handoff depth, standby
// takeovers, and generation fencing. Updated lock-free by the replication
// agent; scrapes need no coordination.
type ReplicationMetrics struct {
	// QuorumLatency measures one decision's replication round: from the
	// first ReplicateDecision send to the write quorum's last required ack.
	QuorumLatency *Histogram
	// Replicated counts decision records successfully replicated to a
	// write quorum before the coordinator acted on them.
	Replicated Counter
	// QuorumFailures counts decisions whose write quorum never assembled
	// within the replication timeout (the move aborts instead).
	QuorumFailures Counter
	// HandoffDepth mirrors the number of hinted-handoff records currently
	// parked at this broker for unreachable preference-list members.
	HandoffDepth Gauge
	// Handoffs counts hinted handoffs accepted on behalf of down replicas.
	Handoffs Counter
	// HandoffDeliveries counts parked hints re-delivered to their owner.
	HandoffDeliveries Counter
	// Takeovers counts standby takeovers this broker completed (lease
	// claimed, quorum granted, resolution driven to every participant).
	Takeovers Counter
	// LeaseClaims counts takeover bids this broker issued.
	LeaseClaims Counter
	// FencingRejections counts stale coordinator messages dropped because
	// a higher-generation takeover had fenced them.
	FencingRejections Counter
	// DecisionsHeld mirrors the replica decision records currently held on
	// behalf of other coordinators.
	DecisionsHeld Gauge
}

// NewReplicationMetrics returns zeroed replication instruments.
func NewReplicationMetrics() *ReplicationMetrics {
	return &ReplicationMetrics{QuorumLatency: NewLatencyHistogram()}
}

// writeProm adds the replication instruments labelled with the broker ID.
func (rm *ReplicationMetrics) writeProm(pb *PromBuilder, broker string) {
	l := []Label{{"broker", broker}}
	pb.Counter("padres_replication_replicated_total", "Decision records replicated to a write quorum.", l, rm.Replicated.Value())
	pb.Counter("padres_replication_quorum_failures_total", "Decisions whose write quorum never assembled in time.", l, rm.QuorumFailures.Value())
	pb.Gauge("padres_replication_handoff_depth", "Hinted-handoff records parked for unreachable replicas.", l, rm.HandoffDepth.Value())
	pb.Counter("padres_replication_handoffs_total", "Hinted handoffs accepted on behalf of down replicas.", l, rm.Handoffs.Value())
	pb.Counter("padres_replication_handoff_deliveries_total", "Parked hints re-delivered to their owning replica.", l, rm.HandoffDeliveries.Value())
	pb.Counter("padres_replication_takeovers_total", "Standby takeovers completed by this broker.", l, rm.Takeovers.Value())
	pb.Counter("padres_replication_lease_claims_total", "Takeover bids issued by this broker.", l, rm.LeaseClaims.Value())
	pb.Counter("padres_replication_fencing_rejections_total", "Stale lower-generation coordinator messages dropped.", l, rm.FencingRejections.Value())
	pb.Gauge("padres_replication_decisions_held", "Replica decision records held for other coordinators.", l, rm.DecisionsHeld.Value())
	pb.Histogram("padres_replication_quorum_latency_seconds", "Decision replication round: first send to write-quorum ack.", l, rm.QuorumLatency.Snapshot())
}

// writePrometheus emits the replication instruments in Prometheus text form.
func (rm *ReplicationMetrics) writePrometheus(w io.Writer, broker string) {
	pb := NewPromBuilder()
	rm.writeProm(pb, broker)
	pb.Emit(w)
}

func formatBound(b float64) string { return fmt.Sprintf("%g", b) }
