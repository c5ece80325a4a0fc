#!/usr/bin/env bash
# The repo's CI gate, runnable locally and in any runner. Fully offline:
# every dependency is an in-workspace path crate.
#
#   offline — neither lockfile may name a registry or git package
#   tier 1  — workspace release build + root-package tests (the seed
#             gate; --workspace so the binaries lrc-exp, lrc-bench,
#             lrc-soak and lrc-check are built here too, not silently
#             skipped until a later stage needs them). The root package's
#             suites include the snapshot restore contract and the golden
#             determinism fingerprints; no later stage re-runs them
#   lint    — clippy with warnings denied, across every target
#   docs    — rustdoc with warnings denied (broken or private intra-doc
#             links fail here)
#   unsafe  — every crate root must carry #![forbid(unsafe_code)]
#   tier 2  — every other workspace crate's test suites, including the
#             model checker's bounded configs (`cargo test -p lrc-check`)
#   checker sweep — the model checker's ignored exhaustive sweep in
#             release: 48 explorations, each held to its pinned state,
#             terminal and depth counts and its terminal-outcome digest,
#             with every revisit audited and the push order reversed
#   mutation sweep — the snapshot decoder's ignored long sweep in
#             release: 3,000 seeded mutants of snapshots that carry the
#             race detector's and the value tracker's tables
#   queue sweep — the event queue's ignored long sweep in release:
#             1.2 million seeded steps against a reference binary heap
#   perfbench — the benchmark crate (its own workspace) builds against the
#             changed crates and its tests pass
#   bench A/B — lrc-bench ab runs the benchmark's own command on both
#             sides and writes a v2 point
#   smokes  — soak, race, crash, observability and report stages drive
#             the binaries end to end, each test and each lrc-soak smoke
#             sweep once

set -euo pipefail
cd "$(dirname "$0")/.."

# Each `==>` stage's wall time, printed as a table when the script exits,
# whether it passes or a stage fails.
stage_names=()
stage_ms=()
stage_t0=""
now_ms() { echo $(( $(date +%s%N) / 1000000 )); }
# stage_stop: close the running stage's clock.
stage_stop() {
  if [ -n "$stage_t0" ]; then
    stage_ms+=($(( $(now_ms) - stage_t0 )))
    stage_t0=""
  fi
}
# stage NAME: close the running stage, then announce and time NAME.
stage() {
  stage_stop
  stage_names+=("$1")
  stage_t0=$(now_ms)
  echo "==> $1"
}
stage_table() {
  local status=$? i ms total=0 mark
  stage_stop
  echo
  echo "stage wall times (s):"
  for i in "${!stage_names[@]}"; do
    ms=${stage_ms[$i]}
    total=$((total + ms))
    mark=""
    if [ "$status" -ne 0 ] && [ "$i" -eq $((${#stage_names[@]} - 1)) ]; then
      mark="  (failed, exit $status)"
    fi
    printf '%7d.%d  %s%s\n' $((ms / 1000)) $((ms % 1000 / 100)) "${stage_names[$i]}" "$mark"
  done
  printf '%7d.%d  total\n' $((total / 1000)) $((total % 1000 / 100))
}
trap stage_table EXIT

stage "offline: lockfiles hold only in-repo path crates"
# Cargo writes a `source = ` line into the lockfile entry of every registry
# or git package; path crates have none. Name each offender.
external=$(awk '/^name = /{name=$3} /^source = /{gsub(/"/, "", name); print FILENAME ": " name}' \
  Cargo.lock perfbench/Cargo.lock)
if [ -n "$external" ]; then
  echo "lockfile names a non-path package (the build must stay offline):" >&2
  echo "$external" >&2
  exit 1
fi

stage "tier 1: workspace release build + root tests"
cargo build --workspace --release
# The root package's suites. Among them: the snapshot contract
# (tests/snapshot_restore.rs: checkpoint mid-run, restore, run to
# completion, fingerprint equals the uninterrupted golden run, all four
# protocols, with and without a fault plan, plus the serialization pins:
# byte-identical round trips, typed errors for unknown versions,
# truncation and corruption), and the golden determinism fingerprints
# (tests/determinism_golden.rs), which pin the default behaviour and so
# assert that the bounded-resource machinery, the tracing, sampling and
# histogram layer and the crash/lease subsystem, all off by default, leave
# the simulation bit-identical until explicitly configured.
cargo test -q

stage "lint: clippy -D warnings (workspace, all targets)"
cargo clippy --workspace --all-targets -- -D warnings

stage "docs: rustdoc -D warnings (workspace)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

stage "unsafe: crate roots must forbid unsafe_code"
missing=0
for root in src/lib.rs crates/*/src/lib.rs crates/*/src/main.rs; do
  [ -f "$root" ] || continue
  if ! grep -q 'forbid(unsafe_code)' "$root"; then
    echo "missing #![forbid(unsafe_code)]: $root" >&2
    missing=1
  fi
done
[ "$missing" -eq 0 ]

stage "tier 2: workspace tests (the root package ran in tier 1)"
cargo test --workspace --exclude lazy-rc -q

stage "checker sweep: pinned counts and outcomes, congruence audit, reversed push order"
# Six scenarios x four protocols, with and without the race detector. A
# fingerprint that merged or split logical states moves a count or an
# outcome digest and fails here, and so does one that merges two states
# whose successors differ (the audit) or whose counts depend on the order
# children are pushed (the reversed walk). The debug tier above runs the
# same guards on the explorations pinned below 5,000 states.
cargo test -p lrc-check --release --offline -- --ignored

stage "mutation sweep: 3,000 mutants of snapshots with both trackers armed"
# Tier 1 runs 300 mutants; this runs ten times as many, of three snapshots
# whose race words, home image and unflushed records index dense tables.
# Every mutant must restore or fail with a typed SnapshotError: a panic,
# or a key past the address space sizing a table, fails the stage.
cargo test --release --offline --test snapshot_restore -- --ignored

stage "queue sweep: 1.2 million event-queue steps against a reference heap"
# Tier 2 runs 160,000 steps; this runs 1.2 million, with delays drawn from
# the simulations' measured mix, bursts of equal keys at one time inside
# the window and past the horizon, pops below a limit, out-of-order
# removals and rebuilds from a shuffled listing. Every pop must match.
cargo test --release --offline -p lrc-sim --test props -- --ignored

stage "perfbench: build and test the benchmark crate"
# perfbench calls the crates' public APIs by path (MachineSnapshot's
# capture/encode/parse/restore, ToJson, lrc_exp::config_hash), and its
# tests include a negative control on the snapshot codec: a mutated
# snapshot must count as a failed iteration.
cargo test --release --offline --manifest-path perfbench/Cargo.toml

stage "bench A/B smoke: lrc-bench ab with this checkout on both sides"
# One one-second check-lazy pair of BENCHMARK.json's own command, run in
# this checkout for both sides. One pair is below the ten the A/B rule
# needs, so every metric must read unresolved; the point must carry the v2
# schema and record HEAD as the commit of both sides.
abpoint=$(mktemp /tmp/bench_ab.XXXXXX.json)
./target/release/lrc-bench ab --parent . --change . --workload check-lazy \
  --pairs 1 --seconds 1 --out "$abpoint" > /dev/null
grep -q '"schema": "lrc-bench-v2"' "$abpoint"
head=$(git rev-parse --short HEAD)
[ "$(grep -c "\"commit\": \"$head\"" "$abpoint")" -eq 2 ]
verdicts=$(grep -c '"verdict": ' "$abpoint")
[ "$verdicts" -gt 0 ]
[ "$(grep -c '"verdict": "unresolved"' "$abpoint")" -eq "$verdicts" ]
rm -f "$abpoint"

stage "soak smoke: every lrc-soak mode at --smoke, killed and resumed"
# Each mode's smoke sweep runs once, uninterrupted and journaled, and must
# exit 0 (set -e): lrc-soak exits non-zero on any failed cell. Then the
# crash-resumable sweep: cell markers are written atomically and in sweep
# order after each verdict, so a journal prefix is byte-for-byte the
# directory a SIGKILL would leave behind; truncating the journal and
# resuming IS the kill test, and is deterministic where actually killing a
# subsecond smoke run mid-flight is not.
snapdir=$(mktemp -d /tmp/soak_resume.XXXXXX)
# resume_check MODE MARKERS FLAGS...: journal the mode's smoke sweep,
# require its manifest to name MODE, delete MARKERS (a suffix of the sweep
# order) and resume. The report goes to stderr. Auto-dumped wedge-snapshot
# paths embed the checkpoint dir; every other byte of the resumed sweep's
# report must match the unkilled reference.
resume_check() {
  local mode=$1 markers=$2
  shift 2
  ./target/release/lrc-soak --smoke "$@" --checkpoint-dir "$snapdir/$mode" \
    > "$snapdir/$mode.out" 2>&1
  grep -q "\"mode\": \"$mode\"" "$snapdir/$mode/sweep.json"
  cp -r "$snapdir/$mode" "$snapdir/$mode-killed"
  (cd "$snapdir/$mode-killed" && rm $markers)
  ./target/release/lrc-soak --smoke "$@" --resume "$snapdir/$mode-killed" \
    > "$snapdir/$mode-resumed.out" 2>&1
  diff <(grep -v 'snapshot\|replay\|resume' "$snapdir/$mode.out") \
       <(grep -v 'snapshot\|replay\|resume' "$snapdir/$mode-resumed.out")
}
# The fault grid: rates {0, 1e-3} x all four protocols, every run checked
# against the reference SC execution and reproduced bit-identically, plus
# the unrecoverable stage proving wedges die with a structured diagnosis.
resume_check faults 'cell-rate0.001-* cell-unrecoverable.json'
# Finite resources: NI queue depth x write-notice budget x protocol,
# fault-free. Every cell must complete under backpressure, verify against
# the reference SC execution, rerun bit-identically, and the grid must
# exercise real pressure (nonzero reject/NACK/overflow counters somewhere).
resume_check capacity 'cell-depth2-*' --capacity-sweep
# Happens-before race detection end to end: the five DRF generators must
# come back clean under all four protocols, the deliberately racy programs
# (mp3d, locusroute, and the planted racy micro workload) must be flagged,
# and every report must reproduce bit-identically.
resume_check races 'cell-race-mp3d-* cell-race-racy-*' --races
# Availability: crash rates {0, 0.25} x all four protocols. Rate-0 control
# cells verify values against the reference SC execution with the lease
# machinery armed; crashed cells prove the survivors complete (victim
# finish time 0, every survivor nonzero) and rerun bit-identically.
resume_check availability 'cell-avail0.25-*' --availability
# The stall snapshot the wedged stage auto-dumped must restore into a
# state that still reproduces the wedge (replay exits 0 = reproduced).
./target/release/lrc-soak --replay "$snapdir/faults/wedge-unrecoverable-seed1.json" --quiet
# And the checked-in v1 wedge dump from the release that introduced the
# snapshot format: today's decoder must still restore it and reproduce
# the wedge (the format-compat contract, end to end).
./target/release/lrc-soak --replay tests/fixtures/wedge-unrecoverable-seed1.json --quiet
rm -rf "$snapdir"

stage "race smoke: lrc-check --races"
# The checker's positive control: the racy scenario must FAIL (exit 1) with
# a race counterexample, and a clean scenario must still PASS with the
# detector armed.
if ./target/release/lrc-check --races --scenario racy --protocol lazy \
    --max-states 20000 > /tmp/race_check.out 2>&1; then
  echo "lrc-check --races failed to flag the racy positive control" >&2
  cat /tmp/race_check.out >&2
  exit 1
fi
grep -q 'data race' /tmp/race_check.out
./target/release/lrc-check --races --scenario handoff --protocol lazy \
  --max-states 20000 > /dev/null
rm -f /tmp/race_check.out

stage "crash smoke: lrc-check --crash-nth counterexample"
# The checker's crash choice point, negative control first: with the
# injected recovery bug (the home skips reclaiming a dead node's locks),
# some crash timing in 1..80 must wedge the survivors, and the minimized
# counterexample's printed reproduce line must replay to the same failure
# (exit 1 = reproduced). The same timing with the BUSY-NACK choice point
# armed (it never fires under lazy) must still fail, with `--nack-nth 0`
# in a reproduce line that fails again, and a crash victim outside the
# scenario must be a usage error (exit 2), not a panic.
crashout=$(mktemp /tmp/crash_check.XXXXXX.out)
foundn=""
for n in $(seq 1 80); do
  if ! ./target/release/lrc-check --scenario counter --protocol lazy \
      --fault skip-lock-reclaim --crash-nth "$n" --crash-node 1 \
      --max-states 20000 > "$crashout" 2>&1; then
    foundn="$n"
    break
  fi
done
[ -n "$foundn" ]
grep -q 'crash choice point' "$crashout"
repro=$(grep -o 'lrc-check --scenario .*' "$crashout" | head -1)
read -r -a repro_cmd <<< "$repro"
if "./target/release/${repro_cmd[0]}" "${repro_cmd[@]:1}" > /dev/null 2>&1; then
  echo "minimized crash counterexample failed to reproduce" >&2
  cat "$crashout" >&2
  exit 1
fi
status=0
./target/release/lrc-check --scenario counter --protocol lazy \
  --fault skip-lock-reclaim --crash-nth "$foundn" --crash-node 1 \
  --max-states 20000 --nack-nth 0 > "$crashout" 2>&1 || status=$?
repro=$(grep -o 'lrc-check --scenario .*' "$crashout" | head -1 || true)
if [ "$status" -ne 1 ] || [[ "$repro" != *" --nack-nth 0 "* ]]; then
  echo "--nack-nth 0 did not fail with --nack-nth 0 in its reproduce line" >&2
  cat "$crashout" >&2
  exit 1
fi
read -r -a repro_cmd <<< "$repro"
status=0
"./target/release/${repro_cmd[0]}" "${repro_cmd[@]:1}" > /dev/null 2>&1 || status=$?
if [ "$status" -ne 1 ]; then
  echo "the --nack-nth 0 reproduce line exited $status, not 1: $repro" >&2
  exit 1
fi
status=0
./target/release/lrc-check --scenario counter --crash-nth 1 --crash-node 9 \
  > /dev/null 2>&1 || status=$?
if [ "$status" -ne 2 ]; then
  echo "an out-of-range --crash-node exited $status, not the usage error 2" >&2
  exit 1
fi
# Positive control: recovery intact, the same crash timing must pass.
./target/release/lrc-check --scenario counter --protocol lazy \
  --crash-nth "$foundn" --crash-node 1 --max-states 20000 > /dev/null
rm -f "$crashout"

stage "observability smoke: traced observe run + artifact validation"
# A tiny fully instrumented run: structured trace -> Perfetto JSON (checked
# by the experiment itself via a serialize/parse round-trip), latency
# histograms, and the metrics time series. Here we additionally check the
# emitted artifacts: the Perfetto file has named tracks and flow events,
# the time series is a non-trivial CSV, and the latency table is non-empty.
obsdir=$(mktemp -d /tmp/observe_smoke.XXXXXX)
./target/release/lrc-exp observe --scale tiny --procs 8 --quiet \
  --trace-dir "$obsdir" > /dev/null
grep -q '"traceEvents"' "$obsdir/observe.perfetto.json"
grep -q '"ph":"M"' "$obsdir/observe.perfetto.json"
grep -q '"ph":"s"' "$obsdir/observe.perfetto.json"
head -1 "$obsdir/observe.timeseries.csv" | grep -q '^cycle,inflight,dir_busy'
[ "$(wc -l < "$obsdir/observe.timeseries.csv")" -gt 2 ]
grep -q '"name":"rt.read"' "$obsdir/observe.latency.json"
[ -s "$obsdir/observe.jsonl" ]
rm -rf "$obsdir"

stage "report smoke: store round-trip, HTML report, staleness gate"
# The experiment lab end to end at tiny scale: a two-seed run into a fresh
# store (fixed --timestamp so the store is byte-reproducible), the HTML
# paper report with provenance links and cross-seed CI columns, and the
# staleness checker both ways — clean store passes, a content-mutated blob
# must fail. Finally the committed store must be current against HEAD.
labdir=$(mktemp -d /tmp/report_smoke.XXXXXX)
./target/release/lrc-exp table3 quality --scale tiny --procs 8 --seeds 2 \
  --store "$labdir/store" --timestamp 1754700000 --quiet > /dev/null
./target/release/lrc-exp report --store "$labdir/store" \
  --out "$labdir/report.html" > /dev/null 2>&1
grep -q 'objects/' "$labdir/report.html"            # provenance links
grep -q 'p (Holm)' "$labdir/report.html"            # adjusted significance
grep -qE '\[[^]]+, [^]]+\]</td>' "$labdir/report.html"  # CI interval columns
grep -q '"schema": "lrc-exp-report-v1"' "$labdir/report.json"
./target/release/lrc-exp report --store "$labdir/store" --check > /dev/null
# Byte-reproducibility: the same runs must land on the same blob set.
lsbefore=$(ls "$labdir/store/objects" | sort)
./target/release/lrc-exp table3 quality --scale tiny --procs 8 --seeds 2 \
  --store "$labdir/store" --timestamp 1754700000 --quiet > /dev/null
[ "$(ls "$labdir/store/objects" | sort)" = "$lsbefore" ]
# Mutate one blob's content (valid JSON, wrong hash): --check must fail.
blob=$(ls "$labdir/store/objects/"*.json | head -1)
printf '{"tampered":true}' > "$blob"
if ./target/release/lrc-exp report --store "$labdir/store" --check \
    > /dev/null 2>&1; then
  echo "staleness checker passed a mutated artifact" >&2
  exit 1
fi
rm -rf "$labdir"
# The committed store must be current against the code being tested.
./target/release/lrc-exp report --store results/store --check > /dev/null

echo "CI green."
