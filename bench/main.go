// Command bench is the repository's absolute performance ledger: five
// workloads, 11 bounded end-to-end metrics and a per-layer breakdown, each
// run checked against a brute-force reference. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 20

// procs is the run's GOMAXPROCS. One, not the machine's two: every rate is
// then a per-core rate, the Go scheduler's idle-spinning threads stay out of
// cpu_us_per_op, and run-to-run spread on the 2-vCPU reference VM was about
// half of what two Ps gave (README.md, Ground rules).
const procs = 1

// defaultOutDir is bench/out whether the command runs from the repository
// root (as the driver runs it) or from bench/ itself (go run .).
func defaultOutDir() string {
	if st, err := os.Stat("bench"); err == nil && st.IsDir() {
		return filepath.Join("bench", "out")
	}
	return "out"
}

// exitCode is non-zero when any workload run had a failed operation.
func exitCode(results []*result) int {
	for _, res := range results {
		if !res.Correct {
			return 1
		}
	}
	return 0
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "all", "workload to run: one of the five names, or all")
	seed := fs.Int64("seed", 1, "seed for the generated inputs")
	seconds := fs.Float64("seconds", defaultSeconds, "seconds of measurement per workload (windows only; set-up and warm-up come on top)")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics and out/trace.json; 0 = untraced run: end-to-end metrics")
	out := fs.String("out", "", "write the full results of every workload run to this JSON file")
	outDir := fs.String("outdir", defaultOutDir(), "directory for trace.json and scratch data (WAL directories)")
	compare := fs.Bool("compare", false, "compare two result files: bench -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare a.json b.json")
			return 2
		}
		return compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
	}
	runtime.GOMAXPROCS(procs)
	var specs []workloadSpec
	if *workload == "all" {
		specs = workloads()
	} else {
		ws, ok := findWorkload(*workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown workload %q\n", *workload)
			return 2
		}
		specs = []workloadSpec{ws}
	}

	var results []*result
	var tracers []*tracer
	for _, ws := range specs {
		res, err := runWorkload(os.Stdout, ws, runOptions{seed: *seed, seconds: *seconds, trace: *trace != 0, baseDir: *outDir})
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		results = append(results, res)
		if res.tracer != nil {
			tracers = append(tracers, res.tracer)
		}
	}
	if len(tracers) > 0 {
		path := filepath.Join(*outDir, "trace.json")
		if err := writeTrace(path, tracers); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		fmt.Printf("trace written to %s\n", path)
	}
	if *out != "" {
		if err := writeResults(*out, results); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
	}
	// The last line of standard output is the contract's result object: the
	// metrics of the last workload run, end-to-end ones on an untraced run
	// and per-layer ones on a traced run.
	last := results[len(results)-1]
	line, err := json.Marshal(last.contractLine())
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return exitCode(results)
}

// contractResult is the one-line result object the benchmark driver reads.
type contractResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (res *result) contractLine() contractResult {
	c := contractResult{Correct: res.Correct, Attempted: max(res.Attempted, 1), Failed: res.Failed, Metrics: map[string]metricValue{}}
	if res.Traced {
		for _, name := range perLayerNames() {
			c.Metrics[name] = res.Metrics[name]
		}
		return c
	}
	for _, d := range endToEndDefs() {
		c.Metrics[d.name] = res.Metrics[d.name]
	}
	return c
}

// resultsFile is the on-disk form -out writes and -compare reads.
type resultsFile struct {
	Results []*result `json:"results"`
}

func writeResults(path string, results []*result) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write results: %w", err)
	}
	data, err := json.MarshalIndent(resultsFile{Results: results}, "", "  ")
	if err != nil {
		return fmt.Errorf("write results: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("write results: %w", err)
	}
	return nil
}
