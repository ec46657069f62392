#!/usr/bin/env bash
# bench-smoke.sh: runs the benchmark's own command (bench/run.sh, a separate
# module built with GOPROXY=off GOTOOLCHAIN=local) once per workload at the
# full 20 s length, seed 1, and fails on a non-zero exit, on a result line
# with "correct":false, or on one with "failed" > 0. Shorter runs fail the
# harness's per-window sample minimums by design, so the length is not a
# knob. About 40 s per workload with its build and checks.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
status=0
for w in match_fanout overlay_pub tcp_chain move_storm sub_churn; do
	if ! line=$(bash "$root/bench/run.sh" --workload "$w" --seed 1 --seconds 20 --trace 0 | tail -n 1); then
		echo "bench-smoke: $w: bench/run.sh exited non-zero" >&2
		status=1
		continue
	fi
	failed=$(printf '%s\n' "$line" | sed -n 's/.*"failed":\([0-9]*\).*/\1/p')
	if [[ $line != *'"correct":true'* ]] || [[ -z $failed ]] || ((failed > 0)); then
		echo "bench-smoke: $w: correct/failed check did not pass: $line" >&2
		status=1
		continue
	fi
	echo "bench-smoke: $w ok (failed=$failed)"
done
exit $status
