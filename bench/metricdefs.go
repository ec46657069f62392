package main

// metricDef describes one end-to-end metric: its unit, which direction is
// better, and the share of the baseline median by which it may worsen before
// -compare calls it a regression. BENCHMARK.json carries the same table; a
// unit test keeps the two equal.
type metricDef struct {
	name   string
	unit   string
	better string // "higher" or "lower"
	bound  float64
	// slack is an absolute allowance on top of the bound, in the metric's
	// unit, that -compare grants: a set-up of 50 ms that takes 80 ms has not
	// regressed, nor has a 3 MB heap that holds one more megabyte of
	// part-used spans because the process ran another workload first.
	slack float64
}

// A bound has to cover the metric's noisiest workload, because the benchmark
// contract gives a metric one bound for all five: it accepts the benchmark
// only while ten runs on ten seeds lie within the bound of each other
// (interquartile range over median), caps a bound at 25 %, and asks for three
// times that margin. README.md has the measured spreads the values below
// were set from, and says why the issue's two 99th-percentile latencies
// (pub_notify_p99_us, move_commit_p99_us) are per-layer metrics instead.
func endToEndDefs() []metricDef {
	return []metricDef{
		{name: "setup_s", unit: "s", better: "lower", bound: 0.25, slack: 0.5},
		{name: "notif_per_s", unit: "1/s", better: "higher", bound: 0.25},
		{name: "pub_notify_p50_us", unit: "us", better: "lower", bound: 0.25},
		{name: "moves_per_s", unit: "1/s", better: "higher", bound: 0.25},
		{name: "move_commit_p50_us", unit: "us", better: "lower", bound: 0.25},
		{name: "msgs_per_move", unit: "count", better: "lower", bound: 0.02},
		{name: "routing_ops_per_s", unit: "1/s", better: "higher", bound: 0.25},
		{name: "cpu_us_per_op", unit: "us", better: "lower", bound: 0.25},
		{name: "allocs_per_op", unit: "count", better: "lower", bound: 0.15},
		{name: "bytes_per_op", unit: "B", better: "lower", bound: 0.20},
		{name: "heap_after_setup_mb", unit: "MB", better: "lower", bound: 0.05, slack: 2},
	}
}
