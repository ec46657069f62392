#!/usr/bin/env bash
# bench-pairs.sh BASE_REF WORKLOAD [N=10]
#
# Judges the working tree against BASE_REF the way bench/README.md says a
# gain is accepted: N alternating base/change pairs of the benchmark driver's
# own command, one seed per pair, then per end-to-end metric both medians,
# both interquartile ranges (as a share of the side's median) and the pairs
# the change won. A 20 s run takes ~40 s with its build, set-up and checks,
# so ten pairs of one workload take ~13 min. Everything it writes stays under
# .bench_build/pairs.
set -euo pipefail
if [ $# -lt 2 ]; then
	echo "usage: $0 BASE_REF WORKLOAD [N=10]" >&2
	exit 2
fi
base_ref=$1 workload=$2 n=${3:-10}
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
base="$root/.bench_build/pairs/base"
out="$root/.bench_build/pairs/$workload"

rm -rf "$base" "$out"
mkdir -p "$base" "$out"
git -C "$root" archive "$base_ref" | tar -x -C "$base"

# run SIDE TREE SEED: the result is the last line of the benchmark's stdout.
run() {
	bash "$2/bench/run.sh" --workload "$workload" --seed "$3" --seconds 20 --trace 0 \
		2>>"$out/stderr.log" | tail -n 1 >"$out/$1-$3.json"
}
for i in $(seq 1 "$n"); do
	if ((i % 2)); then
		run base "$base" "$i"
		run change "$root" "$i"
	else
		run change "$root" "$i"
		run base "$base" "$i"
	fi
	echo "pair $i/$n done" >&2
done

# The metric list and each metric's better direction come from
# BENCHMARK.json; the values from the result lines, whose metrics read
# "name":{"value":V,"unit":"U"}.
awk -v n="$n" -v out="$out" -v workload="$workload" -v base_ref="$base_ref" '
# num returns the number that follows the first occurrence of key in line.
function num(line, key,    i) {
	if (!(i = index(line, key))) { print "bench-pairs: no " key " in a result line" > "/dev/stderr"; exit 1 }
	return substr(line, i + length(key)) + 0
}
function sorted(src, dst,    i, j, t) {
	for (i = 1; i <= n; i++) dst[i] = src[i]
	for (i = 2; i <= n; i++)
		for (j = i; j > 1 && dst[j-1] > dst[j]; j--) { t = dst[j]; dst[j] = dst[j-1]; dst[j-1] = t }
}
# quantile k of 4, exclusive method with linear interpolation, as bench/stats.go.
function quart(s, k,    pos, j) {
	pos = k * (n + 1) / 4; j = int(pos)
	if (j < 1) return s[1]
	if (j >= n) return s[n]
	return s[j] + (pos - j) * (s[j+1] - s[j])
}
function iqrpct(s,    med) {
	med = quart(s, 2)
	return med == 0 ? 0 : 100 * (quart(s, 3) - quart(s, 1)) / (med < 0 ? -med : med)
}
/"end_to_end"/ { in_e2e = 1 }
/"per_layer"/ { in_e2e = 0 }
in_e2e && /"name"/ { split($0, q, "\""); name = q[4]; names[++nm] = name }
in_e2e && /"better"/ { split($0, q, "\""); better[name] = q[4] }
END {
	for (i = 1; i <= n; i++) {
		getline b < (out "/base-" i ".json"); getline c < (out "/change-" i ".json")
		for (k = 1; k <= nm; k++) {
			key = "\"" names[k] "\":{\"value\":"
			bv[names[k], i] = num(b, key); cv[names[k], i] = num(c, key)
		}
		bfail += num(b, "\"failed\":"); cfail += num(c, "\"failed\":")
		if (b !~ /"correct":true/ || c !~ /"correct":true/) wrong++
	}
	printf "%s: %d alternating pairs, base %s vs working tree (failed operations: base %d, change %d%s)\n",
		workload, n, base_ref, bfail, cfail, wrong ? "; " wrong " pairs with an INCORRECT run" : ""
	printf "%-22s %14s %7s %14s %7s %8s  %s\n", "metric", "base median", "IQR %", "change median", "IQR %", "delta %", "pairs won"
	for (k = 1; k <= nm; k++) {
		name = names[k]; won = tied = 0
		for (i = 1; i <= n; i++) {
			x[i] = bv[name, i]; y[i] = cv[name, i]
			if (y[i] == x[i]) tied++
			else if ((better[name] == "higher") == (y[i] > x[i])) won++
		}
		sorted(x, xs); sorted(y, ys)
		bm = quart(xs, 2); cm = quart(ys, 2)
		printf "%-22s %14.4f %7.1f %14.4f %7.1f %+8.1f  %d/%d%s\n", name, bm, iqrpct(xs), cm, iqrpct(ys),
			bm == 0 ? 0 : 100 * (cm - bm) / bm, won, n, tied ? " (" tied " tied)" : ""
	}
}' "$root/BENCHMARK.json"
