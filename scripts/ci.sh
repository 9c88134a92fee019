#!/bin/sh
# Continuous-integration gate for the repository.
#
#   scripts/ci.sh          vet + build + full test suite + race pass +
#                          fuzz smoke + sweep/serve smoke
#   scripts/ci.sh -short   the same with -short everywhere (a few minutes
#                          on one core; the race pass stays bounded)
#
# The race pass covers the packages with real concurrency in their hot
# paths: the parallel-for helpers in par and every package that runs
# through them (the sweep cells in core, the Monte Carlo
# batch runner, the equilibrium search in games), the MDP solver and
# the BU analysis beneath the rows, the experiment store (singleflight,
# LRU, solve budget), the observability layer (registry, sinks), the
# network simulator, the solve farm (queue, farm, verify), and buserve,
# whose concurrent handlers share the store's blobs and the
# per-endpoint instruments.
set -eu

cd "$(dirname "$0")/.."

SHORT=""
if [ "${1:-}" = "-short" ]; then
	SHORT="-short"
fi

echo "== gofmt =="
UNFORMATTED="$(gofmt -l .)"
if [ -n "$UNFORMATTED" ]; then
	echo "gofmt needed on:" >&2
	echo "$UNFORMATTED" >&2
	exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test ${SHORT} =="
go test ${SHORT} ./...

echo "== bench module: go vet + go test ${SHORT} =="
# bench/ is its own Go module (its go.mod replaces buanalysis with ../),
# so the root ./... never reaches it. Its tests check the program's
# metric declarations against BENCHMARK.json and, without -short, build
# and smoke-run every workload end to end.
(cd bench && go vet ./... && go test ${SHORT} ./...)

# The Makefile's race target runs the same package list; keep the two
# identical.
echo "== go test -race ${SHORT} (par, games, mdp, bumdp, core, montecarlo, expstore, obs, netsim, jobqueue, farm, verify, buserve) =="
go test -race ${SHORT} ./internal/par/ ./internal/games/ ./internal/mdp/ ./internal/bumdp/ ./internal/core/ ./internal/montecarlo/ ./internal/expstore/ ./internal/obs/ ./internal/netsim/ ./internal/jobqueue/ ./internal/farm/ ./internal/verify/ ./cmd/buserve/

echo "== cache-key fuzz smoke (FuzzCanonicalKey) =="
# A short coverage-guided session over the canonical cache-key
# derivation; regressions found earlier are pinned as seeds in
# internal/expstore/testdata and already ran in the unit pass above.
go test -run '^$' -fuzz FuzzCanonicalKey -fuzztime 5s ./internal/expstore/

echo "== validity-predicate fuzz smoke (FuzzVerifyArtifact) =="
# Mutated artifact blobs against the coordinator's validity predicates:
# the structural checks must refuse every mutation before it can reach
# a model build and the witness check, and never panic.
go test -run '^$' -fuzz FuzzVerifyArtifact -fuzztime 5s ./internal/verify/

echo "== sweep identity smoke =="
# A sweep cell is solved one way wherever it is solved: core.Sweep, the
# store behind butables, /sweep and /tables, and the farm's merged
# shards must give the same sweep record bytes, and a sweep must be
# identical at every GOMAXPROCS setting; the first three tests pin
# exactly that. Every model but a shape's first is derived from that
# shape's skeleton, so the fourth pins derived models to fresh
# compiles, bit for bit, and their solves to the same values and
# witnesses. Every BU model evaluates each policy in the one order
# Compile stored for its structure, so the fifth pins that static path
# to the per-policy SCC, closed-class and Kahn passes, bit for bit, on
# every BU model shape.
go test -count 1 -run '^TestSweepMatchesUncachedSweep$' ./internal/expstore/
go test -count 1 -run '^TestFarmEndToEndShardedSweep$' ./internal/farm/
go test -count 1 -run '^TestSweepWorkerDeterminism$' ./internal/core/
go test -count 1 -run '^TestSkeletonIdentity$' ./internal/bumdp/
go test -count 1 -run '^TestStaticPathIdentity$' ./internal/mdp/

echo "== setting-2 Table 2 smoke (butables -table 2 -setting 2 -full -fast) =="
# The full setting-2 grid, alpha = beta boundary cells included, which
# took minutes per cell before policy iteration; it must print every
# cell and the 25.16% boundary value.
go run ./cmd/butables -table 2 -setting 2 -full -fast > "${TMPDIR:-/tmp}/buanalysis-table2-set2.txt"
grep -q "25.16" "${TMPDIR:-/tmp}/buanalysis-table2-set2.txt"
rm -f "${TMPDIR:-/tmp}/buanalysis-table2-set2.txt"

echo "== solver bench advisory diff (BENCH_solver.json) =="
# Regenerates the solver benchmark and compares it against the committed
# baseline with scripts/benchdiff.sh. Advisory only: the wall-clock
# metrics vary with machine load, so a miss is printed for review but
# does not fail CI. (The bench's own correctness checks — every grid
# cell solved without error, policy-iteration gains within 1e-8 of the
# RVI reference — do fail the inner go test.) Skipped with -short: the
# RVI reference re-solves the Table-2 setting-2 row by value iteration.
if [ -z "$SHORT" ]; then
	BENCHTMP="$(mktemp)"
	if SOLVER_BENCH_OUT="$BENCHTMP" go test -count 1 -run TestBenchSolver -timeout 900s ./internal/core/; then
		scripts/benchdiff.sh BENCH_solver.json "$BENCHTMP" 25 ||
			echo "ADVISORY: solver bench moved beyond threshold (timing-only; not a CI failure)"
	else
		echo "ADVISORY: solver bench targets missed on this machine (not a CI failure)"
	fi
	rm -f "$BENCHTMP"
fi

echo "== buserve smoke test =="
SMOKE="$(mktemp -d)"
SERVE_PID=""
SERVE2_PID=""
trap 'kill "$SERVE_PID" "$SERVE2_PID" 2>/dev/null || true; rm -rf "$SMOKE"' EXIT

go build -o "$SMOKE/buserve" ./cmd/buserve
"$SMOKE/buserve" -addr 127.0.0.1:0 -cache-dir "$SMOKE/cache" -portfile "$SMOKE/port" \
	-trace "$SMOKE/coord.jsonl" &
SERVE_PID=$!

# Wait for the portfile to appear (the server writes it once listening).
i=0
while [ ! -s "$SMOKE/port" ]; do
	i=$((i + 1))
	if [ "$i" -gt 50 ]; then
		echo "buserve did not start" >&2
		exit 1
	fi
	sleep 0.1
done
ADDR="$(cat "$SMOKE/port")"

[ "$(curl -fsS "http://$ADDR/healthz")" = "ok" ]

Q="http://$ADDR/solve?alpha=0.25&ratio=1:1&model=compliant&setting=1&ratio_tol=1e-4&epsilon=1e-8"
curl -fsS -D "$SMOKE/h1" -o "$SMOKE/b1" "$Q"
curl -fsS -D "$SMOKE/h2" -o "$SMOKE/b2" "$Q"
grep -qi '^x-cache: miss' "$SMOKE/h1"
grep -qi '^x-cache: hit' "$SMOKE/h2"
# A hit body must be byte-identical to the body the miss produced.
cmp "$SMOKE/b1" "$SMOKE/b2"
# A negative tolerance is refused with 400 at once, before any solve runs.
[ "$(curl -sS -m 5 -o /dev/null -w '%{http_code}' "http://$ADDR/solve?alpha=0.1&ratio=1:1&setting=1&epsilon=-1e-8")" = 400 ]
curl -fsS "http://$ADDR/statsz" | grep -q '"solves":1'
# The metrics endpoints cover the store, the server, and the solver.
METRICS="$(curl -fsS "http://$ADDR/metrics")"
echo "$METRICS" | grep -q '^expstore_solves_total 1$'
echo "$METRICS" | grep -q '^buserve_requests_total{endpoint="GET /solve"} 3$'
echo "$METRICS" | grep -q '^# TYPE mdp_solves_total counter$'
echo "$METRICS" | grep -q '^# TYPE mdp_warm_solves_total counter$'
echo "$METRICS" | grep -q '^# TYPE mdp_reparams_total counter$'
curl -fsS "http://$ADDR/debug/vars" | grep -q '"expstore_solves_total": 1'

echo "== solve-farm smoke (3 workers, one killed mid-lease) =="
# A small Table-2-style sweep fanned out as 3 shard jobs over the same
# coordinator, plus one deliberately long Monte-Carlo job that a
# sacrificial worker leases on a short TTL and is killed -9 in the
# middle of; its lease expires back into the queue and three draining
# workers finish everything. This exercises the whole protocol through
# real processes: enqueue, lease, heartbeat, expiry requeue,
# completion, and the merged result.
go build -o "$SMOKE/buworker" ./cmd/buworker

cat >"$SMOKE/sweep.json" <<'EOF'
{
  "model": 0,
  "config": {
    "Alphas": [0.10, 0.15, 0.20],
    "Ratios": [
      {"Name": "1:1", "B": 1, "G": 1},
      {"Name": "1:2", "B": 1, "G": 2},
      {"Name": "2:1", "B": 2, "G": 1}
    ],
    "Settings": [1],
    "AD": 3,
    "RatioTol": 1e-4,
    "Epsilon": 1e-8
  },
  "count": 3
}
EOF

# The victim's job: ~10s of Monte-Carlo replay, so the kill below is
# guaranteed to land while the lease is held and the job is running.
cat >"$SMOKE/mc.json" <<'EOF'
{"kind": "mcbatch",
 "spec": {"params": {"Alpha": 0.25, "Beta": 0.375, "Gamma": 0.375,
                     "AD": 3, "Setting": 1, "Model": 0},
          "steps": 2000000, "batches": 24, "seed": 7}}
EOF

# The server indents its JSON; strip whitespace so greps can match
# "key":value exactly.
curl -fsS -X POST --data-binary @"$SMOKE/sweep.json" "http://$ADDR/jobs/sweep" |
	tee "$SMOKE/enqueue.json" | tr -d ' \n\t' | grep -q '"created":3'
curl -fsS -X POST --data-binary @"$SMOKE/mc.json" "http://$ADDR/jobs/enqueue" |
	tr -d ' \n\t' | grep -q '"created":true'

# The victim only leases the long Monte-Carlo job; the short TTL makes
# its lease expire quickly after the kill.
"$SMOKE/buworker" -server "http://$ADDR" -name victim -kinds mcbatch -ttl 2s -quiet &
VICTIM_PID=$!
sleep 1.5 # long enough to lease the job and start replaying
kill -9 "$VICTIM_PID" 2>/dev/null || true
wait "$VICTIM_PID" 2>/dev/null || true

# The drain fleet runs with tracing on; the victim stays untraced so
# the kill -9 cannot tear a JSONL file mid-line. Every job the victim
# abandoned is redelivered to a traced worker, so the merged trace
# still covers 100% of completed jobs.
"$SMOKE/buworker" -server "http://$ADDR" -name w1 -drain -quiet -trace "$SMOKE/w1.jsonl" &
W1=$!
"$SMOKE/buworker" -server "http://$ADDR" -name w2 -drain -quiet -trace "$SMOKE/w2.jsonl" &
W2=$!
"$SMOKE/buworker" -server "http://$ADDR" -name w3 -drain -quiet -trace "$SMOKE/w3.jsonl" &
W3=$!
wait "$W1" "$W2" "$W3"

curl -fsS -X POST --data-binary @"$SMOKE/sweep.json" "http://$ADDR/jobs/sweep/status" |
	tr -d ' \n\t' | grep -q '"ready":true'
curl -fsS -X POST --data-binary @"$SMOKE/sweep.json" "http://$ADDR/jobs/sweep/result" \
	>"$SMOKE/result.json"
grep -q '"table":' "$SMOKE/result.json"
tr -d ' \n\t' <"$SMOKE/result.json" | grep -q '"alpha":0.2'
# All three shards and the Monte-Carlo job completed exactly once; the
# killed worker's lease expired and was redelivered.
STATS="$(curl -fsS "http://$ADDR/jobs/statsz" | tr -d ' \n\t')"
echo "$STATS" | grep -q '"done":4'
echo "$STATS" | grep -q '"pending":0'
case "$STATS" in
*'"lease_expiries":0,'*)
	echo "expected at least one lease expiry from the killed worker" >&2
	exit 1
	;;
esac

# The live observability endpoints: /workersz knows the whole fleet
# (including the killed victim) and /tracez serves the recent per-job
# timelines rebuilt from the coordinator's ring sink.
WORKERS="$(curl -fsS "http://$ADDR/workersz")"
for W in victim w1 w2 w3; do
	echo "$WORKERS" | grep -q "\"$W/0\"" || {
		echo "worker $W missing from /workersz" >&2
		exit 1
	}
done
curl -fsS "http://$ADDR/tracez" | tr -d ' \n\t' | grep -q '"queue_wait_ms":'

echo "== buserve graceful shutdown =="
kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
# The queue journal survived the shutdown with the finished jobs in it.
grep -q '"state": *"done"' "$SMOKE/cache/jobqueue.json" ||
	grep -q '"state":"done"' "$SMOKE/cache/jobqueue.json"

echo "== butrace: merged cross-process trace check =="
# Merge the coordinator's and the drain fleet's JSONL files (flushed on
# their graceful exits above) and verify the invariants: every tree is
# rooted with no orphan spans, every completed job's path is whole
# (enqueue -> lease -> execute -> solve -> complete), and the stamps
# are causal. All 4 jobs completed on traced workers, so the check must
# see all 4.
go build -o "$SMOKE/butrace" ./cmd/butrace
"$SMOKE/butrace" -check "$SMOKE/coord.jsonl" \
	"$SMOKE/w1.jsonl" "$SMOKE/w2.jsonl" "$SMOKE/w3.jsonl" |
	tee "$SMOKE/check.out"
grep -q '4 completed job(s): 0 problem(s)' "$SMOKE/check.out"
# And the human report: the per-job critical-path table, for the CI log.
"$SMOKE/butrace" "$SMOKE/coord.jsonl" \
	"$SMOKE/w1.jsonl" "$SMOKE/w2.jsonl" "$SMOKE/w3.jsonl"

echo "== byzantine drill smoke (validity consensus + quarantine) =="
# A fresh coordinator (empty cache, instant quarantine) gets the same
# sweep, and a byzantine worker leases first. Its flipcell forgeries are
# well-formed canonical bytes whose claimed values are false — the
# hardest case, refusable only by the witness check: the shard's witness
# policy still attains the honest value, 0.01 away from the claim. Every
# delivery must be rejected, the worker quarantined, nothing
# materialized; honest workers then drain the queue and the merged
# result must be byte-identical to the honest run's above.
"$SMOKE/buserve" -addr 127.0.0.1:0 -cache-dir "$SMOKE/cache2" -portfile "$SMOKE/port2" \
	-quarantine-after 1 &
SERVE2_PID=$!
i=0
while [ ! -s "$SMOKE/port2" ]; do
	i=$((i + 1))
	if [ "$i" -gt 50 ]; then
		echo "buserve (byzantine drill) did not start" >&2
		exit 1
	fi
	sleep 0.1
done
ADDR2="$(cat "$SMOKE/port2")"

curl -fsS -X POST --data-binary @"$SMOKE/sweep.json" "http://$ADDR2/jobs/sweep" |
	tr -d ' \n\t' | grep -q '"created":3'

"$SMOKE/buworker" -server "http://$ADDR2" -name byz \
	-byzantine flipcell -byzantine-seed 42 -quiet &
BYZ_PID=$!
# Wait for the coordinator to refuse a forged completion; the reject
# debits the worker past -quarantine-after 1, so the byzantine worker's
# next lease is refused and it exits (nonzero) on its own.
i=0
until curl -fsS "http://$ADDR2/jobs/statsz" | tr -d ' \n\t' |
	grep -q '"verify_rejects":[1-9]'; do
	i=$((i + 1))
	if [ "$i" -gt 100 ]; then
		echo "no forged completion was rejected" >&2
		exit 1
	fi
	sleep 0.1
done
wait "$BYZ_PID" 2>/dev/null || true

"$SMOKE/buworker" -server "http://$ADDR2" -name h1 -drain -quiet &
H1=$!
"$SMOKE/buworker" -server "http://$ADDR2" -name h2 -drain -quiet &
H2=$!
wait "$H1" "$H2"

STATS2="$(curl -fsS "http://$ADDR2/jobs/statsz" | tr -d ' \n\t')"
echo "$STATS2" | grep -q '"done":3'
echo "$STATS2" | grep -q '"pending":0'
echo "$STATS2" | grep -q '"quarantined_workers":1'
curl -fsS "http://$ADDR2/workersz" | tr -d ' \n\t' | grep -q '"quarantined":true'
# The forgeries never poisoned the store: the byzantine run's merged
# table is byte-identical to the honest run's.
curl -fsS -X POST --data-binary @"$SMOKE/sweep.json" "http://$ADDR2/jobs/sweep/result" \
	>"$SMOKE/result2.json"
cmp "$SMOKE/result.json" "$SMOKE/result2.json"

kill -TERM "$SERVE2_PID"
wait "$SERVE2_PID"

echo "CI: all checks passed"
