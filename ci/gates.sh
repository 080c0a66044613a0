#!/usr/bin/env bash
# The CLI gates of CI, runnable against any cgsim binary:
#
#     ci/gates.sh <cgsim-binary> <out-dir>
#
# Every scenario writes under <out-dir> through relative paths and everything
# left there is deterministic, so "byte-identical to the parent commit" is
#
#     ci/gates.sh parent/target/release/cgsim A
#     ci/gates.sh target/release/cgsim B
#     diff -r A B
set -euo pipefail
[ $# -eq 2 ] || { echo "usage: $0 <cgsim-binary> <out-dir>" >&2; exit 2; }
BIN=$(realpath "$1")
rm -rf "$2" && mkdir -p "$2" && cd "$2"

# No gate run is anywhere near 300 s; the ceiling only catches a return to
# quadratic scaling (the 100k-job scale run is ~5 s), not runner noise.
cgsim() { timeout 300 "$BIN" "$@"; }

# double_run <name> <cgsim args..>: the same scenario run twice must leave
# byte-identical output directories (results.json excludes wall-clock time;
# CSV tables, dashboards and the ML dataset are deterministic by
# construction). Catches any iteration-order nondeterminism, e.g. a HashMap
# on the fluid model's share-recomputation path. <name> is kept.
double_run() {
  local name=$1; shift
  cgsim "$@" --output "$name" > /dev/null
  cgsim "$@" --output "$name.again" > /dev/null
  diff -r "$name" "$name.again"
  rm -r "$name.again"
}

# same_as <kept-name> <name> <cgsim args..>: this scenario must produce
# exactly the output directory an earlier one did.
same_as() {
  local base=$1 name=$2; shift 2
  cgsim "$@" --output "$name" > /dev/null
  diff -r "$base" "$name"
}

DEMO=(demo --sites 6 --jobs 500 --seed 7)

echo "gate: determinism"
double_run plain "${DEMO[@]}"

# Fault scheduling (outages, link degradation, kills + the retry/resubmit
# machinery) must be as reproducible as the fair-weather path, and an empty
# plan must equal no plan.
echo "gate: determinism (fault injection)"
FAULTS="outage:site=all,mttf=6h,mttr=30m;degrade:link=all,factor=0.3,mttf=8h,mttr=20m;kill:rate=2"
double_run fault "${DEMO[@]}" --faults "$FAULTS" --fault-seed 7
same_as plain emptyplan "${DEMO[@]}" --faults ""

# Segmented execution, durable-state transfers, restores after kills and
# disk-loss invalidation; a zero interval must equal no checkpoint flags.
echo "gate: determinism (checkpoint/restart)"
FAULTS="outage:site=all,mttf=4h,mttr=30m;diskloss:site=all,mttf=8h;kill:rate=2"
double_run ckpt "${DEMO[@]}" --faults "$FAULTS" --fault-seed 7 \
  --checkpoint-interval 30m --checkpoint-target site
same_as plain ckpt-off "${DEMO[@]}" --checkpoint-interval 0

# Background repair transfers, overlapped writes and delta shipping; and the
# features disabled (repair knobs without --repair, zero delta rate,
# synchronous writes) must not change one byte of the plain faulted +
# checkpointed run. Restating the default of every checkpoint and repair
# flag the heal run leaves unset changes nothing either, so a knob that
# writes the wrong field fails here.
echo "gate: determinism (self-healing data layer)"
FAULTS="outage:site=all,mttf=4h,mttr=30m;diskloss:site=all,mttf=6h;kill:rate=2"
HEAL=("${DEMO[@]}" --faults "$FAULTS" --fault-seed 7 --checkpoint-interval 30m)
HEALING=(--checkpoint-overlap --checkpoint-delta-bytes-per-s 10000000
  --repair --repair-target 2 --repair-concurrent 4)
double_run heal "${HEAL[@]}" "${HEALING[@]}"
same_as heal heal-defaults "${HEAL[@]}" "${HEALING[@]}" \
  --checkpoint-bytes 2000000000 --checkpoint-per-core-bytes 250000000 \
  --checkpoint-target site --repair-backoff 300s --repair-retries 5
cgsim "${HEAL[@]}" --output heal-base > /dev/null
same_as heal-base heal-off "${HEAL[@]}" --checkpoint-delta-bytes-per-s 0 \
  --repair-target 3 --repair-concurrent 2 --repair-retries 9

# Every other gate places jobs with least-loaded. The data-aware policy under
# the same churn reads `has_input_replica`, skips staging where the input is
# already held, and loses replicas to outages and disk losses while repair
# re-replicates them.
echo "gate: determinism (data-aware placement)"
double_run data "${HEAL[@]}" --policy data-aware --repair

# Tracing and profiling are pure observers: a traced + profiled run leaves
# results.json byte-identical to the plain run, trace files replay
# byte-identically, every JSONL line parses against the record schema, the
# Chrome file holds well-formed trace_event objects, and profile.json reports
# a non-zero event-loop bucket (it covers the whole run).
echo "gate: trace (observability)"
FAULTS="outage:site=all,mttf=4h,mttr=30m;kill:rate=2"
OBS=("${DEMO[@]}" --faults "$FAULTS" --fault-seed 7 --checkpoint-interval 30m)
cgsim "${OBS[@]}" --output obs-plain > /dev/null
cgsim "${OBS[@]}" --trace-out obs-trace.jsonl --profile --output obs-traced > /dev/null
diff obs-plain/results.json obs-traced/results.json
cgsim "${OBS[@]}" --trace-out obs-trace.again.jsonl > /dev/null
cmp obs-trace.jsonl obs-trace.again.jsonl
rm obs-trace.again.jsonl
cgsim "${OBS[@]}" --trace-out obs-trace.chrome.json --trace-format chrome > /dev/null
cgsim trace-check --jsonl obs-trace.jsonl --chrome obs-trace.chrome.json
grep -q '"traceEvents"' obs-trace.chrome.json
grep -A2 '"case": "event_loop"' obs-traced/profile.json \
  | grep '"wall_s"' | grep -vq '"wall_s": 0.0,'
rm obs-traced/profile.json # wall-clock: the one file two runs may differ in

# The JSONL what-if service must answer the same transcript byte-identically
# across server restarts, a repeated scenario (a cache hit) must equal its
# first (simulated) answer, and a served `save` file must be exactly the
# results.json a direct `cgsim simulate --output` run writes.
echo "gate: serve smoke"
cgsim init --dir serve-run --sites 6 --jobs 400 --seed 7 > /dev/null
cat > serve-batch.jsonl <<'EOF'
[{"id":"baseline"},{"id":"rr","policy":"round-robin"},{"id":"faulted","faults":"kill:rate=1;horizon=48h","fault_seed":7}]
{"id":"baseline"}
{"id":"save","save":"serve-out/results.json"}
EOF
INPUTS=(--platform serve-run/platform.json --execution serve-run/execution.json
  --trace serve-run/trace.jsonl)
cgsim serve "${INPUTS[@]}" < serve-batch.jsonl > serve-resp.jsonl
cgsim serve "${INPUTS[@]}" < serve-batch.jsonl > serve-resp.again.jsonl
diff serve-resp.jsonl serve-resp.again.jsonl
rm serve-resp.again.jsonl
cmp <(sed -n 1p serve-resp.jsonl) <(sed -n 4p serve-resp.jsonl)
cgsim simulate "${INPUTS[@]}" --output serve-direct > /dev/null
diff serve-out/results.json serve-direct/results.json

# Every input format refuses a key no field takes: in a batch only the
# member with the typo fails, and `simulate` on a platform.json with one
# exits 1 naming its path.
echo "gate: strict input formats"
printf '%s\n' '[{"id":"ok1"},{"id":"typo","seeed":3},{"id":"ok2","policy":"round-robin"}]' \
  > serve-typo.jsonl
cgsim serve "${INPUTS[@]}" < serve-typo.jsonl > serve-typo.resp.jsonl
[ "$(grep -c '"ok":false' serve-typo.resp.jsonl)" = 1 ]
grep -q '^{"id":"typo","ok":false,"error":"invalid request: unknown key `seeed`' serve-typo.resp.jsonl
[ "$(grep -c '"ok":true' serve-typo.resp.jsonl)" = 2 ]
sed 's/"speed_multiplier"/"speed_multiplyer"/' serve-run/platform.json > typo-platform.json
status=0
cgsim simulate --platform typo-platform.json --execution serve-run/execution.json \
  --trace serve-run/trace.jsonl --output typo-out > /dev/null 2> typo-platform.err || status=$?
[ "$status" = 1 ]
[ ! -e typo-out ]
grep -q 'unknown key `sites\[0\].speed_multiplyer` in platform.json' typo-platform.err

# The CLI and serve run a faulted, traced scenario through the same
# `ScenarioSpec::run`, so a served run's trace and saved results.json are
# exactly what `cgsim simulate` writes for the same inputs.
FAULTS="kill:rate=1;outage:site=all,mttf=6h,mttr=30m"
printf '{"id":"traced","faults":"%s","fault_seed":7,"trace":"%s","save":"%s"}\n' \
  "$FAULTS" serve-traced.jsonl serve-traced/results.json > serve-traced.req.jsonl
cgsim serve "${INPUTS[@]}" < serve-traced.req.jsonl > serve-traced.resp.jsonl
grep -q '"ok":true' serve-traced.resp.jsonl
cgsim simulate "${INPUTS[@]}" --faults "$FAULTS" --fault-seed 7 \
  --trace-out direct-traced.jsonl --output direct-traced > /dev/null
cmp serve-traced.jsonl direct-traced.jsonl
diff serve-traced/results.json direct-traced/results.json

# The BENCH_scale.json scenario at its smaller row — streamed generation,
# bounded monitoring, faults + overlapped delta checkpoints — pins streaming
# determinism and the bounded-memory paths at a scale the 500-job gates
# never reach.
echo "gate: scale smoke (100k jobs, streamed)"
FAULTS="outage:site=all,mttf=2h,mttr=20m;degrade:link=all,factor=0.3,mttf=4h,mttr=30m;kill:rate=2"
double_run scale demo --sites 12 --jobs 100000 --seed 42 --policy least-loaded --stream \
  --faults "$FAULTS" --fault-seed 7 \
  --checkpoint-interval 20m --checkpoint-overlap --checkpoint-delta-bytes-per-s 10000000 \
  --max-events 10000 --sample-stride 100 --window 1h

# Bounding the event table thins events.csv and nothing else: each job's
# outcome keeps the site state of its dispatch, so a bounded run's ML
# dataset, jobs table and results are the unbounded run's, byte for byte.
# And, the streamed twin of `emptyplan`: an empty fault spec is no plan, so
# every output file equals the run without one.
echo "gate: bounded monitoring keeps the per-job outputs"
BOUNDED=(demo --sites 12 --jobs 20000 --seed 42 --policy least-loaded --stream)
cgsim "${BOUNDED[@]}" --output unbounded > /dev/null
cgsim "${BOUNDED[@]}" --max-events 1000 --sample-stride 10 --output bounded > /dev/null
for file in ml_dataset.csv jobs.csv results.json; do cmp unbounded/$file bounded/$file; done
cgsim "${BOUNDED[@]}" --faults "" --output unbounded-emptyplan > /dev/null
for file in unbounded/*; do cmp "$file" "unbounded-emptyplan/${file#unbounded/}"; done
rm -r unbounded bounded unbounded-emptyplan

# The build grows one heap-Dijkstra tree, the main server's, and every other
# source's route row is grown by its first read, so a 3,000-site run of one
# job takes about 0.02 s and 14 MiB on a 2-core VM (about 1.1 s and 483 MiB
# with every route written up front, about 50 s with the O(V^3) array-scan
# routing before that). The 20 s ceiling catches a return to cubic route
# construction, not runner noise. At 20,000 sites an up-front table of
# every route (17.6 GB) is refused; on demand the run takes about 0.1 s.
echo "gate: 3,000-site platform"
timeout 20 "$BIN" demo --sites 3000 --jobs 1 --output sites3000 > /dev/null
echo "gate: 20,000-site platform"
timeout 20 "$BIN" demo --sites 20000 --jobs 1 --output sites20000 > /dev/null

echo "all gates passed; deterministic outputs in $PWD"
