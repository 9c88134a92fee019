#!/bin/sh
# Compare two BENCH_*.json files (an old baseline and a fresh run of the
# same emitter) and flag regressions beyond a threshold.
#
#   scripts/benchdiff.sh old.json new.json [threshold-pct]
#
# Every numeric field is named by its path: top-level keys by name,
# fields of nested objects as object.field, and fields of a row (an
# object in an array) as array[row].field, where row is the row's first
# string field (its "name", or the solver stages' "cell"). Fields are
# paired by that path, so reordered rows still meet their own
# measurements. A path in only one file is reported as ADDED or REMOVED
# instead of compared; a REMOVED field fails the diff, since the
# measurement is gone.
#
# A metric regresses when it moves more than the threshold (default 10%)
# in its bad direction, read from the field's name — up for costs (a
# unit token s, ms, us or ns, as in wall_s, cold_ms, mem_hit_us and
# ns_per_op; allocs; bytes), down for benefits (speedup, per_sec,
# throughput, hits). Fields with no direction (cells, probes, sweeps,
# counts) are reported only when they change at all, since the benches
# are deterministic. Exits 1 if any regression was flagged or any field
# was removed.
set -eu

if [ $# -lt 2 ]; then
	echo "usage: scripts/benchdiff.sh old.json new.json [threshold-pct]" >&2
	exit 2
fi
OLD="$1"
NEW="$2"
THRESH="${3:-10}"

# Flatten one BENCH file into "path<TAB>field<TAB>value" lines, one per
# numeric field. The emitters write one field per line
# (json.MarshalIndent) and their rows hold scalars only, so a line scan
# with a container stack is a faithful parse for these files.
flatten() {
	awk '
	function key(s) { sub(/^"/, "", s); sub(/".*$/, "", s); return s }
	function prefix(   i, p) {
		p = ""
		for (i = 1; i <= d; i++) {
			if (kind[i] == "row") p = p "[" rid[i] "]."
			else if (kind[i] == "{") p = p name[i] "."
			else p = p name[i]
		}
		return p
	}
	{
		line = $0
		sub(/^[ \t]+/, "", line)
		sub(/[ \t,]+$/, "", line)
	}
	line ~ /^"[^"]*": *[[{]$/ {
		d++
		name[d] = key(line)
		kind[d] = substr(line, length(line), 1)
		rows[d] = 0
		next
	}
	line == "{" {
		if (d > 0 && kind[d] == "[") {
			rows[d]++
			d++
			kind[d] = "row"
			rid[d] = "#" rows[d-1]
			named = 0
			n = 0
		}
		next
	}
	line == "}" || line == "]" {
		if (d == 0) next
		if (kind[d] == "row")
			for (i = 1; i <= n; i++) printf "%s%s\t%s\t%s\n", prefix(), rk[i], rk[i], rv[i]
		d--
		next
	}
	line ~ /^"[^"]*": *"/ {
		if (d > 0 && kind[d] == "row" && !named) {
			v = line
			sub(/^"[^"]*": *"/, "", v)
			sub(/"$/, "", v)
			rid[d] = v
			named = 1
		}
		next
	}
	line ~ /^"[^"]*": *-?[0-9]/ {
		k = key(line)
		v = line
		sub(/^"[^"]*": */, "", v)
		if (d > 0 && kind[d] == "row") {
			n++
			rk[n] = k
			rv[n] = v
		} else {
			printf "%s%s\t%s\t%s\n", prefix(), k, k, v
		}
	}
	' "$1"
}

TMP_OLD="${TMPDIR:-/tmp}/benchdiff_old.$$"
TMP_NEW="${TMPDIR:-/tmp}/benchdiff_new.$$"
trap 'rm -f "$TMP_OLD" "$TMP_NEW"' EXIT
flatten "$OLD" >"$TMP_OLD"
flatten "$NEW" >"$TMP_NEW"

awk -F'\t' -v thresh="$THRESH" '
FNR == NR { old[$1] = $3; order[++n] = $1; next }
{
	path = $1; field = $2; nval = $3
	seen[path] = 1
	if (!(path in old)) {
		printf "ADDED      %-44s %g\n", path, nval
		next
	}
	oval = old[path]
	dir = 0 # 0: no direction, 1: lower is better, -1: higher is better
	if (field ~ /(^|_)(s|ms|us|ns)(_|$)/ || field ~ /alloc/ || field ~ /bytes/) dir = 1
	if (field ~ /speedup/ || field ~ /per_sec/ || field ~ /throughput/ || field ~ /hits/) dir = -1
	if (oval == 0) {
		if (nval != 0) { printf "REGRESSION %-44s 0 -> %g (was zero)\n", path, nval; bad++ }
		next
	}
	delta = (nval - oval) / oval * 100
	if (dir == 0) {
		if (nval != oval) printf "CHANGED    %-44s %g -> %g\n", path, oval, nval
		next
	}
	if (dir * delta > thresh) {
		printf "REGRESSION %-44s %g -> %g (%+.1f%%, threshold %s%%)\n", path, oval, nval, delta, thresh
		bad++
	} else if (dir * delta < -thresh) {
		printf "IMPROVED   %-44s %g -> %g (%+.1f%%)\n", path, oval, nval, delta
	}
}
END {
	for (i = 1; i <= n; i++)
		if (!(order[i] in seen)) { printf "REMOVED    %-44s (was %g)\n", order[i], old[order[i]]; gone++ }
	if (bad > 0 || gone > 0) {
		printf "%d regression(s) beyond %s%%, %d field(s) removed\n", bad, thresh, gone
		exit 1
	}
}
' "$TMP_OLD" "$TMP_NEW" || exit 1

echo "no regressions beyond ${THRESH}% ($OLD -> $NEW)"
