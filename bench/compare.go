package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// verdict is -compare's judgement of one workload × metric pair.
type verdict string

const (
	verdictOK         verdict = "ok"
	verdictRegressed  verdict = "regressed"
	verdictUnresolved verdict = "unresolved"
)

// medianNoise is the 95 % half-width of a median of n windows whose
// interquartile range is spreadPct of it, as a share of the median. For 3 to
// 15 normally scattered windows and the quartile rule of quartiles(), 1.96
// standard deviations of the sample median come to 1.3-1.7 times IQR/sqrt(n)
// (simulated); 1.5 stands for all of them. It is what a difference between
// two runs' medians must be read against; the raw spread of the windows
// overstates it.
func medianNoise(spreadPct float64, n int) float64 {
	if n < 2 {
		return 0
	}
	return 1.5 * spreadPct / 100 / math.Sqrt(float64(n))
}

// judge compares a candidate's median against a baseline's under one
// metric's bound. The pair is unresolved, not unchanged, when either side's
// median is known no better than the worsening the bound allows: a
// difference that size could not be told from the run's own noise.
func judge(d metricDef, base, cand metricValue, baseNoise, candNoise float64) verdict {
	allowed := d.bound*base.Value + d.slack
	if baseNoise*base.Value > allowed || candNoise*cand.Value > allowed {
		return verdictUnresolved
	}
	worse := cand.Value - base.Value
	if d.better == "higher" {
		worse = -worse
	}
	if worse > allowed {
		return verdictRegressed
	}
	return verdictOK
}

// readResults returns a result file's untraced run of each workload:
// end-to-end numbers come from untraced runs only.
func readResults(path string) (map[string]*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("compare: %w", err)
	}
	var f resultsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("compare: %s: %w", path, err)
	}
	out := make(map[string]*result)
	for _, r := range f.Results {
		if r.Traced {
			continue
		}
		if _, dup := out[r.Workload]; dup {
			return nil, fmt.Errorf("compare: %s holds more than one untraced run of %s", path, r.Workload)
		}
		out[r.Workload] = r
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("compare: %s holds no untraced results", path)
	}
	return out, nil
}

// compareFiles prints one row per workload × end-to-end metric present in
// both files and returns the process exit code: 1 if any row regressed, 2 if
// the files could not be compared.
func compareFiles(w io.Writer, basePath, candPath string) int {
	base, err := readResults(basePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	cand, err := readResults(candPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	fmt.Fprintf(w, "%-13s %-20s %14s %14s  %-22s %6s  %s\n", "workload", "metric", "base", "candidate", "candidate/base", "bound", "verdict")
	regressed, unresolved, rows := 0, 0, 0
	for _, ws := range workloads() {
		b, ok1 := base[ws.name]
		c, ok2 := cand[ws.name]
		if !ok1 || !ok2 {
			continue
		}
		for _, d := range endToEndDefs() {
			bm, ok1 := b.Metrics[d.name]
			cm, ok2 := c.Metrics[d.name]
			if !ok1 || !ok2 {
				continue
			}
			v := judge(d, bm, cm, medianNoise(b.SpreadPct[d.name], len(b.Windows[d.name])), medianNoise(c.SpreadPct[d.name], len(c.Windows[d.name])))
			switch v {
			case verdictRegressed:
				regressed++
			case verdictUnresolved:
				unresolved++
			}
			rows++
			fmt.Fprintf(w, "%-13s %-20s %14.4f %14.4f  %-22s %5.0f%%  %s\n", ws.name, d.name, bm.Value, cm.Value,
				fmt.Sprintf("%.3f of %.4g %s", ratio(cm.Value, bm.Value), bm.Value, d.unit), 100*d.bound, v)
		}
	}
	if rows == 0 {
		fmt.Fprintln(os.Stderr, "compare: the two files share no workload")
		return 2
	}
	fmt.Fprintf(w, "%d rows: %d regressed, %d unresolved (a side's median is known no better than the bound)\n", rows, regressed, unresolved)
	if regressed > 0 {
		return 1
	}
	return 0
}
