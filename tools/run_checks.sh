#!/usr/bin/env bash
# Full verification sweep: plain Release build (recompiled from scratch; any
# compiler warning fails the sweep) + test run, an ASan+UBSan
# build + test run (-DCEAFF_SANITIZE=ON), a TSan build of the concurrency
# and chaos tests (-DCEAFF_TSAN=ON), a crash-recovery soak (the fork-based
# kill-the-process drills with the per-site iteration count raised, once
# plain and once under ASan), a failpoint smoke (arm an injected error on
# every registered durability site and assert the binaries fail cleanly),
# a kernels smoke (the `bench`-labelled parity ctest plus a quick
# micro_kernels run asserting a clean parity bill), an end-to-end serving
# smoke (export an index from a tiny synthetic run, then drive ceaff_serve
# against it; an unknown flag or a malformed number must exit 2 before
# writing anything), a thread-count identity drill (`align --threads 1`,
# 3 and 4 must write byte-identical predictions, index and delta state,
# under adaptive, fixed and learned fusion and with the attribute
# feature) that also asserts the CLI's ZH-EN hits@1 lands in the
# EXPERIMENTS.md band, an ANN
# smoke (the exported artifact must be format v3, ANN answers must overlap
# >= 95% with exhaustive top-10 over 20 queries, and STATS must show the
# ANN path engaged with zero fallbacks; the
# `ann`-labelled suites also rerun under ASan), an overload smoke (soak the service past capacity, assert
# it sheds, that the failpoint chaos phases stay clean, and that SIGTERM
# during the soak drains cleanly), and a sharded smoke (router + 3 shard
# workers, SIGKILL one mid-session, assert degraded answers, HEALTH
# degrade/recover, and healthy byte-identity with single-process mode), a
# replication drill (3 ranges x 2 replicas, SIGKILL one replica per range
# in turn: every answer must stay byte-identical to single-process serving
# and the degraded counter must stay 0), and a rolling-reload hammer
# (RELOAD mid-session on a 2x1 and a 2x2 fleet: zero failed queries, also
# rerun under ASan), and a delta smoke (journal a patch batch with a
# rename, an added triple and a new served entity, apply it beside a live
# server and assert RELOAD serves the patch, assert `delta rebuild` of the
# same batch and a `--threads 3` apply write the same state bytes, then
# SIGKILL mid-publish and assert the journal replay converges on the next
# apply);
# the `shard`-labelled drills — including the
# replication/rolling-reload/rollback suite — also rerun under ASan, the
# `delta`-labelled suites (WAL units, repair-vs-rebuild equivalence,
# kill-at-every-site crash drills) also rerun under ASan, the
# `codec`-labelled suites (the shared byte codec, golden byte pins,
# hostile declared lengths, and the CEAFFMAT/CEAFFIDX/CEAFFDLT/patch/IPC
# codecs) also rerun under ASan, and the RELOAD-vs-HEALTH-reap race test
# and the GenerationalStore suite (threads sharing one store directory)
# run under TSan.
#
# Usage: tools/run_checks.sh [--skip-sanitize] [--skip-tsan] [--skip-smoke]
#                            [--skip-crash]
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
jobs="$(nproc 2>/dev/null || echo 4)"
skip_sanitize=0
skip_tsan=0
skip_smoke=0
skip_crash=0
for arg in "$@"; do
  case "$arg" in
    --skip-sanitize) skip_sanitize=1 ;;
    --skip-tsan) skip_tsan=1 ;;
    --skip-smoke) skip_smoke=1 ;;
    --skip-crash) skip_crash=1 ;;
    *) echo "unknown flag: $arg" >&2; exit 2 ;;
  esac
done

run_suite() {
  local dir="$1"; shift
  cmake -B "$dir" -S "$repo" "$@"
  cmake --build "$dir" -j "$jobs"
  ctest --test-dir "$dir" --output-on-failure -j "$jobs"
}

echo "==> Release build (every translation unit, warning-free) + tests"
# --clean-first recompiles every translation unit, so a warning in a file
# an incremental build would skip (say, an unused static left behind by a
# deletion) still shows; any `warning:` line fails the sweep.
cmake -B "$repo/build" -S "$repo"
build_log="$(mktemp)"
cmake --build "$repo/build" -j "$jobs" --clean-first 2>&1 | tee "$build_log"
if grep -q 'warning:' "$build_log"; then
  echo "Release build printed warnings:" >&2
  grep 'warning:' "$build_log" >&2
  rm -f "$build_log"
  exit 1
fi
rm -f "$build_log"
ctest --test-dir "$repo/build" --output-on-failure -j "$jobs"

if [[ "$skip_sanitize" == 0 ]]; then
  echo "==> ASan+UBSan build + tests (includes the serve hammer test)"
  run_suite "$repo/build-asan" -DCEAFF_SANITIZE=ON
  echo "==> ANN suite under ASan"
  ctest --test-dir "$repo/build-asan" --output-on-failure -j "$jobs" -L ann
  echo "==> Delta-ingestion suite under ASan"
  ctest --test-dir "$repo/build-asan" --output-on-failure -j "$jobs" -L delta
  echo "==> Binary-codec suite under ASan"
  ctest --test-dir "$repo/build-asan" --output-on-failure -j "$jobs" -L codec
fi

if [[ "$skip_tsan" == 0 ]]; then
  echo "==> TSan build + concurrency & chaos tests"
  cmake -B "$repo/build-tsan" -S "$repo" -DCEAFF_TSAN=ON
  cmake --build "$repo/build-tsan" -j "$jobs" \
    --target common_test la_test codec_test embed_test serve_test \
      serve_hammer_test serve_chaos_test serve_shard_replication_test
  ctest --test-dir "$repo/build-tsan" --output-on-failure -j "$jobs" \
    -R 'ThreadPool|ParallelFor|ThreadLocalRng|Logging|GenerationalStore|Serve|AlignmentService|AlignmentIndex|IndexMmap|ParseRequest|Admission|RetryPolicy|CircuitBreaker|Degradation|OverloadChaos|Kernel|GcnAligner|ShardReplicationTest.WorkerDeathMidReload'
fi

if [[ "$skip_crash" == 0 ]]; then
  echo "==> Crash-recovery soak: kill-the-process drills, 50 rounds per site"
  CEAFF_CRASH_ITERS=50 ctest --test-dir "$repo/build" --output-on-failure \
    -j "$jobs" -L chaos
  if [[ "$skip_sanitize" == 0 ]]; then
    echo "==> Crash-recovery drill under ASan"
    ctest --test-dir "$repo/build-asan" --output-on-failure -j "$jobs" \
      -L chaos -R 'CrashRecoveryTest|IndexCrashTest'
    echo "==> Shard-kill drill under ASan"
    ctest --test-dir "$repo/build-asan" --output-on-failure -j "$jobs" \
      -L shard
  fi
fi

if [[ "$skip_smoke" == 0 ]]; then
  echo "==> Kernels smoke: parity checks + a quick tracked-benchmark run"
  ctest --test-dir "$repo/build" --output-on-failure -L bench
  kbench="$(mktemp -d)"
  trap 'rm -rf "$kbench"' EXIT
  # Full (tracked) shapes so the rows line up with the committed
  # BENCH_kernels.json; each run itself exits non-zero on any
  # kernel-vs-naive divergence (the --smoke perf gate ran as part of
  # `-L bench` above). Each JSON must also record a clean parity bill and
  # at least one kernel row. Three back-to-back runs, so the gate below
  # can take each row's median.
  for run in 1 2 3; do
    "$repo/build/bench/micro_kernels" --out "$kbench/BENCH_kernels.$run.json"
    grep -q '"parity_failures": 0' "$kbench/BENCH_kernels.$run.json"
    grep -q '"kernel": "cosine_kernel"' "$kbench/BENCH_kernels.$run.json"
  done

  echo "==> Perf-regression gate: fresh runs vs committed BENCH_kernels.json"
  # speedup_vs_naive is machine-relative, so the committed baseline still
  # gates a different box; the loose threshold on each row's median of the
  # three runs tolerates benchmark jitter (an oversubscribed 8-thread row
  # on a 4-core host varies by 2x run to run) while catching a kernel that
  # fell off a cliff. A baseline row missing from a fresh run fails the
  # gate too.
  python3 "$repo/tools/bench_diff.py" "$repo/BENCH_kernels.json" \
    "$kbench"/BENCH_kernels.{1,2,3}.json --threshold 0.5

  echo "==> Failpoint smoke: injected faults fail the real binaries cleanly"
  fpsmoke="$(mktemp -d)"
  trap 'rm -rf "$fpsmoke" "$kbench"' EXIT
  "$repo/build/tools/ceaff" generate --config DBP15K_FR_EN \
    --scale 0.02 --out "$fpsmoke/data"
  align_args=(align --data "$fpsmoke/data" --gcn-epochs 3 --gcn-dim 16
              --threads 2 --checkpoint_dir "$fpsmoke/ckpt" --resume
              --out "$fpsmoke/pred.tsv")
  # A malformed spec must abort loudly (exit 2), not silently test nothing.
  if CEAFF_FAILPOINTS='not-a-spec' "$repo/build/tools/ceaff" "${align_args[@]}" \
      2>/dev/null; then
    echo "malformed CEAFF_FAILPOINTS was not rejected" >&2; exit 1
  fi
  # An injected write error on every checkpoint durability step must fail
  # the run with a controlled error — no crash, no torn store.
  fp='checkpoint.before_tmp_write=error'
  fp="$fp;checkpoint.manifest.before_rename=error"
  if CEAFF_FAILPOINTS="$fp" "$repo/build/tools/ceaff" "${align_args[@]}" \
      > "$fpsmoke/fp_out.txt" 2> "$fpsmoke/fp_err.txt"; then
    echo "align succeeded despite injected checkpoint write errors" >&2
    exit 1
  fi
  # The injected crash action must die with the drill exit code (77) ...
  rc=0
  CEAFF_FAILPOINTS='checkpoint.before_rename=crash' \
    "$repo/build/tools/ceaff" "${align_args[@]}" >/dev/null 2>&1 || rc=$?
  if [[ "$rc" != 77 ]]; then
    echo "crash action exited $rc, expected 77" >&2; exit 1
  fi
  # ... and a plain rerun resumes from whatever the crash left behind.
  "$repo/build/tools/ceaff" "${align_args[@]}" > /dev/null

  echo "==> Serving smoke: generate -> align --export_index -> ceaff_serve"
  smoke="$(mktemp -d)"
  trap 'rm -rf "$smoke" "$fpsmoke" "$kbench"' EXIT
  "$repo/build/tools/ceaff" generate --config DBP15K_FR_EN \
    --scale 0.02 --out "$smoke/data"
  "$repo/build/tools/ceaff" align --data "$smoke/data" \
    --gcn-epochs 3 --gcn-dim 16 --threads 2 \
    --export_index "$smoke/run.idx" --out "$smoke/pred.tsv"
  # One known source name from the exported index drives a PAIR + TOPK.
  name="$(head -n 1 "$smoke/data/entities1.tsv" | cut -f2)"
  printf 'PAIR %s\nTOPK 5 %s\nSTATS\nQUIT\n' "$name" "$name" \
    | "$repo/build/tools/ceaff_serve" --index "$smoke/run.idx" --threads 2 \
    | tee "$smoke/replies.txt"
  grep -q 'OK TOPK' "$smoke/replies.txt"
  grep -q 'OK STATS' "$smoke/replies.txt"

  # An injected reload fault answers ERR but never takes the service down;
  # the scrubber thread runs alongside and reports its counters in STATS.
  printf 'RELOAD %s\nPAIR %s\nSTATS\nQUIT\n' "$smoke/run.idx" "$name" \
    | CEAFF_FAILPOINTS='serve.reload=error' \
      "$repo/build/tools/ceaff_serve" --index "$smoke/run.idx" \
        --threads 2 --scrub_ms 20 \
    | tee "$smoke/fp_replies.txt"
  grep -q 'ERR' "$smoke/fp_replies.txt"
  grep -q 'OK PAIR' "$smoke/fp_replies.txt"
  grep -q '"scrub"' "$smoke/fp_replies.txt"

  # An unknown flag or a malformed number is a usage error (exit 2) that
  # writes nothing: no prediction file, no reply.
  for bad in '--block_size 32' '--threads 4x' '--theta1 high' \
      '--resume maybe'; do
    rc=0
    "$repo/build/tools/ceaff" align --data "$smoke/data" --gcn-epochs 3 \
      --gcn-dim 16 --out "$smoke/bad_pred.tsv" $bad >/dev/null 2>&1 || rc=$?
    if [[ "$rc" != 2 || -e "$smoke/bad_pred.tsv" ]]; then
      echo "align $bad exited $rc (expected 2) or wrote output" >&2; exit 1
    fi
  done
  for bad in '--no_such_flag 1' '--threads two' '--nprobe 8.5'; do
    rc=0
    printf 'PAIR %s\nQUIT\n' "$name" \
      | "$repo/build/tools/ceaff_serve" --index "$smoke/run.idx" $bad \
        > "$smoke/bad_replies.txt" 2>/dev/null || rc=$?
    if [[ "$rc" != 2 || -s "$smoke/bad_replies.txt" ]]; then
      echo "ceaff_serve $bad exited $rc (expected 2) or replied" >&2; exit 1
    fi
  done

  echo "==> Thread-count identity: align --threads 1 vs --threads 3 and 4"
  # GCN training runs each phase over KG x row-panel tasks, each row
  # computed by one task in a fixed order (the panel cuts move with the
  # pool size and are uneven at 3 threads); every kernel, the streamed
  # fused pass of every fusion mode included, is thread-count
  # deterministic and deferred acceptance builds its first preference
  # blocks in fixed row panels, so neither the predictions, the exported
  # index nor the delta state may differ by a byte between pool sizes.
  # Learned fusion and the attribute feature have no delta state.
  "$repo/build/tools/ceaff" generate --config DBP15K_ZH_EN --scale 0.25 \
    --out "$smoke/tdata"
  for mode in adaptive fixed learned attributes; do
    case "$mode" in
      adaptive) mode_args=() ;;
      fixed|learned) mode_args=(--fusion "$mode") ;;
      attributes) mode_args=(--attributes) ;;
    esac
    for t in 1 3 4; do
      state_args=()
      if [[ "$mode" == adaptive || "$mode" == fixed ]]; then
        state_args=(--export_delta_state "$smoke/threads_$mode$t.state")
      fi
      "$repo/build/tools/ceaff" align --data "$smoke/tdata" --threads "$t" \
        "${mode_args[@]}" "${state_args[@]}" \
        --export_index "$smoke/threads_$mode$t.idx" \
        --out "$smoke/threads_$mode$t.tsv" > "$smoke/threads_$mode$t.log"
    done
    for t in 3 4; do
      cmp "$smoke/threads_${mode}1.tsv" "$smoke/threads_$mode$t.tsv"
      cmp "$smoke/threads_${mode}1.idx" "$smoke/threads_$mode$t.idx"
      if [[ "$mode" == adaptive || "$mode" == fixed ]]; then
        cmp "$smoke/threads_${mode}1.state/state.g1" \
          "$smoke/threads_$mode$t.state/state.g1"
      fi
    done
  done
  # The CLI reproduces the paper: `generate` writes the generator's word
  # store and `align` embeds names with it, so hits@1 lands in the
  # EXPERIMENTS.md band (CEAFF on ZH-EN at scale 0.25: 0.869), far above
  # the 0.349 of dropping Mn.
  hits1="$(awk '/^accuracy:/ {print $2}' "$smoke/threads_adaptive1.log")"
  if ! awk -v h="$hits1" 'BEGIN { exit !(h >= 0.80 && h <= 0.95) }'; then
    echo "CLI hits@1 on ZH-EN scale 0.25 is $hits1, outside [0.80, 0.95]" >&2
    exit 1
  fi

  echo "==> ANN smoke: v3 artifact, recall@10 vs exhaustive, ANN serving path"
  # The serving smoke's corpus is too small for ANN to engage (the range
  # must exceed the shortlist), so export a full-scale synthetic run.
  # align --export_index trains ANN sections by default; the artifact must
  # come out as format v3 (version u32 at byte 8).
  "$repo/build/tools/ceaff" generate --config DBP15K_FR_EN \
    --scale 1.0 --out "$smoke/data_ann"
  "$repo/build/tools/ceaff" align --data "$smoke/data_ann" \
    --gcn-epochs 3 --gcn-dim 16 --threads 2 \
    --export_index "$smoke/ann.idx" --out "$smoke/pred_ann.tsv"
  ver="$(od -An -t u4 -j 8 -N 4 "$smoke/ann.idx" | tr -d ' ')"
  if [[ "$ver" != 3 ]]; then
    echo "exported index is v$ver, expected v3 (ANN sections)" >&2; exit 1
  fi
  # recall@10 over 20 known sources: tag every CAND line with its query
  # ordinal, then count how many (query, candidate) pairs the ANN answers
  # share with the exhaustive ones. 20 queries x k=10 -> >= 190 of 200.
  cand_set='/^OK TOPK/{q++} /^CAND/{print q "\t" $2}'
  head -n 20 "$smoke/data_ann/entities1.tsv" | cut -f2 > "$smoke/ann_names.txt"
  { while read -r n; do printf 'TOPK 10 %s\n' "$n"; done \
      < "$smoke/ann_names.txt"; printf 'STATS\nQUIT\n'; } > "$smoke/ann_req.txt"
  "$repo/build/tools/ceaff_serve" --index "$smoke/ann.idx" --threads 2 \
    < "$smoke/ann_req.txt" > "$smoke/ann_exact.txt"
  "$repo/build/tools/ceaff_serve" --index "$smoke/ann.idx" --threads 2 \
    --ann on --nprobe 8 --shortlist 128 \
    < "$smoke/ann_req.txt" > "$smoke/ann_approx.txt"
  hits="$(comm -12 \
    <(awk -F'\t' "$cand_set" "$smoke/ann_exact.txt" | sort) \
    <(awk -F'\t' "$cand_set" "$smoke/ann_approx.txt" | sort) | wc -l)"
  if [[ "$hits" -lt 190 ]]; then
    echo "ANN recall@10 too low: $hits/200 overlap with exhaustive" >&2
    exit 1
  fi
  # The ANN path actually answered (not the exhaustive fallback): STATS
  # must report a nonzero ann query count and zero fallbacks.
  grep -Eq '"ann":\{"queries":[1-9][0-9]*,"fallbacks":0,' "$smoke/ann_approx.txt"

  echo "==> Overload smoke: soak past capacity, assert the service sheds"
  (cd "$smoke" && \
    CEAFF_SOAK_ENTITIES=2000 CEAFF_SOAK_CAL_QUERIES=100 \
    CEAFF_SOAK_PHASE_MS=500 CEAFF_SOAK_MULTIPLIERS=1,4 \
    "$repo/build/bench/overload_soak" > soak.out)
  # The 4x phase must have shed at least one request (goodput over queueing).
  grep -Eq '"shed": *[1-9]' "$smoke/BENCH_overload.json"
  grep -Eq '"other_errors": *0' "$smoke/BENCH_overload.json"
  # The failpoint chaos phases ran, injected faults, and saw nothing else:
  # the scan-error phase must record injected errors and every chaos phase
  # must record zero unexpected ones.
  grep -Eq '"name": "scan_error_1in20".*"injected_errors": [1-9]' \
    "$smoke/BENCH_overload.json"
  if grep -Eq '"unexpected_errors": [1-9]' "$smoke/BENCH_overload.json"; then
    echo "chaos phase saw unexpected (non-injected) errors" >&2; exit 1
  fi

  echo "==> Sharded smoke: router + 3 shards, SIGKILL one, degrade + recover"
  shard_fifo="$smoke/shard_req.fifo"
  mkfifo "$shard_fifo"
  "$repo/build/tools/ceaff_serve" --index "$smoke/run.idx" --shards 3 \
    < "$shard_fifo" > "$smoke/shard_out.txt" 2> "$smoke/shard_err.txt" &
  shard_pid=$!
  exec 9> "$shard_fifo"
  # Healthy baseline TOPK, then wait for the reply before pulling a shard.
  printf 'TOPK 5 %s\n' "$name" >&9
  for _ in $(seq 100); do
    grep -q 'OK TOPK' "$smoke/shard_out.txt" 2>/dev/null && break
    sleep 0.2
  done
  grep -q 'OK TOPK 5$' "$smoke/shard_out.txt"
  # SIGKILL shard 1 (pid from the router's startup log), mid-session.
  victim="$(grep -oE 'shard 1 pid [0-9]+' "$smoke/shard_err.txt" \
    | grep -oE '[0-9]+$')"
  kill -9 "$victim"
  # Degraded TOPK from the survivors, HEALTH observes the death, the next
  # HEALTH reports the breaker-gated respawn, and the final TOPK is back
  # to full fidelity.
  printf 'TOPK 5 %s\nHEALTH\nHEALTH\nTOPK 5 %s\nQUIT\n' "$name" "$name" >&9
  exec 9>&-
  wait "$shard_pid"  # set -e: a router crash fails the sweep here
  grep -q 'OK TOPK 5 degraded=partial' "$smoke/shard_out.txt"
  grep -q 'OK HEALTH shards=2/3 degraded' "$smoke/shard_out.txt"
  grep -q 'OK HEALTH shards=3/3' "$smoke/shard_out.txt"
  # Healthy sharded replies are byte-identical to single-process serving:
  # first and last TOPK blocks (reply line + 5 candidates) must equal the
  # single-process answer for the same request.
  printf 'TOPK 5 %s\nQUIT\n' "$name" \
    | "$repo/build/tools/ceaff_serve" --index "$smoke/run.idx" --threads 2 \
    > "$smoke/single_out.txt"
  head -n 6 "$smoke/shard_out.txt" | diff - <(head -n 6 "$smoke/single_out.txt")
  tail -n 6 "$smoke/shard_out.txt" | diff - <(head -n 6 "$smoke/single_out.txt")

  echo "==> Replication drill: 3 ranges x 2 replicas, SIGKILL one per range"
  repl_fifo="$smoke/repl_req.fifo"
  mkfifo "$repl_fifo"
  "$repo/build/tools/ceaff_serve" --index "$smoke/run.idx" \
    --shards 3 --replicas 2 \
    < "$repl_fifo" > "$smoke/repl_out.txt" 2> "$smoke/repl_err.txt" &
  repl_pid=$!
  exec 8> "$repl_fifo"
  repl_topk=0
  wait_repl_topk() {
    repl_topk=$((repl_topk + 1))
    for _ in $(seq 100); do
      if [[ "$(grep -c '^OK TOPK' "$smoke/repl_out.txt" 2>/dev/null)" \
            -ge "$repl_topk" ]]; then return 0; fi
      sleep 0.2
    done
    echo "timed out waiting for replicated TOPK reply $repl_topk" >&2
    return 1
  }
  printf 'TOPK 5 %s\n' "$name" >&8; wait_repl_topk
  # Kill replica 0 of each range in turn. Every answer while a worker is
  # down must come from the failover path: full fidelity, never degraded.
  for range in 0 1 2; do
    victim="$(grep -oE "shard $((range * 2)) pid [0-9]+" \
      "$smoke/repl_err.txt" | grep -oE '[0-9]+$')"
    kill -9 "$victim"
    printf 'TOPK 5 %s\n' "$name" >&8; wait_repl_topk
    # Reap + breaker respawn before the next round's kill.
    printf 'HEALTH\n' >&8
  done
  printf 'STATS\nQUIT\n' >&8
  exec 8>&-
  wait "$repl_pid"  # set -e: a router crash fails the sweep here
  if grep -q 'degraded=partial' "$smoke/repl_out.txt"; then
    echo "replicated fleet served a degraded answer" >&2; exit 1
  fi
  grep -q '"degraded": 0' "$smoke/repl_out.txt"
  # Every TOPK block is byte-identical to single-process serving.
  grep -v '^OK HEALTH' "$smoke/repl_out.txt" > "$smoke/repl_topk.txt"
  for i in 0 1 2 3; do
    sed -n "$((i * 6 + 1)),$((i * 6 + 6))p" "$smoke/repl_topk.txt" \
      | diff - <(head -n 6 "$smoke/single_out.txt")
  done

  echo "==> Rolling-reload hammer: RELOAD under load, 2x1 and 2x2 fleets"
  { for _ in $(seq 10); do printf 'TOPK 5 %s\n' "$name"; done
    printf 'RELOAD %s\n' "$smoke/run.idx"
    for _ in $(seq 10); do printf 'TOPK 5 %s\n' "$name"; done
    printf 'STATS\nQUIT\n'; } > "$smoke/roll_req.txt"
  # Same gates for every topology: with R = 1 the cycle moves range by
  # range, and the single-threaded loop never queries mid-cycle.
  run_roll_hammer() {
    local serve_bin="$1" out="$2" shards="$3" replicas="$4"
    "$serve_bin" --index "$smoke/run.idx" --shards "$shards" \
      --replicas "$replicas" \
      < "$smoke/roll_req.txt" > "$out" 2> /dev/null
    if grep -q '^ERR' "$out"; then
      echo "rolling reload failed a query" >&2; exit 1
    fi
    grep -q 'OK RELOAD' "$out"
    [[ "$(grep -c '^OK TOPK 5$' "$out")" -eq 20 ]]
    grep -q '"reloads": 1' "$out"
  }
  for replicas in 1 2; do
    run_roll_hammer "$repo/build/tools/ceaff_serve" \
      "$smoke/roll_out_r$replicas.txt" 2 "$replicas"
  done
  if [[ "$skip_sanitize" == 0 ]]; then
    echo "==> Rolling-reload hammer under ASan"
    for replicas in 1 2; do
      run_roll_hammer "$repo/build-asan/tools/ceaff_serve" \
        "$smoke/roll_asan_out_r$replicas.txt" 2 "$replicas"
    done
  fi

  echo "==> Delta smoke: journal -> apply -> RELOAD, kill mid-apply -> replay"
  # The delta workflow needs the generational (directory) index form: the
  # pre-created directory routes --export_index through the keep-2 store
  # that `delta apply` republishes into and RELOAD hot-swaps from.
  delta="$smoke/delta"
  mkdir -p "$delta/index"
  "$repo/build/tools/ceaff" align --data "$smoke/data" \
    --gcn-epochs 3 --gcn-dim 16 --threads 2 \
    --export_delta_state "$delta/state" --export_index "$delta/index" \
    --out "$delta/pred.tsv"
  # Patch: rename a known matched source entity (the PAIR probe — its new
  # name only answers once the publish is served), a triple between two
  # existing KG1 entities (so the structural repair runs), plus a
  # brand-new served entity for add/serve coverage.
  uri="$(head -n 1 "$smoke/data/entities1.tsv" | cut -f1)"
  printf 'rename_entity\t1\t%s\tdelta renamed smoke entity\n' "$uri" \
    > "$delta/patch.tsv"
  head_uri="$(sed -n 2p "$smoke/data/entities1.tsv" | cut -f1)"
  tail_uri="$(sed -n 3p "$smoke/data/entities1.tsv" | cut -f1)"
  rel="$(head -n 1 "$smoke/data/triples1.tsv" | cut -f2)"
  printf 'add_triple\t1\t%s\t%s\t%s\n' "$head_uri" "$rel" "$tail_uri" \
    >> "$delta/patch.tsv"
  printf 'add_entity\t1\thttp://smoke/brand_new\tbrand new smoke entity\n' \
    >> "$delta/patch.tsv"
  printf 'serve_entity\t1\thttp://smoke/brand_new\n' >> "$delta/patch.tsv"
  "$repo/build/tools/ceaff" delta append \
    --journal "$delta/wal" --patch "$delta/patch.tsv"
  # Sizing flags are validated like align's: a zero thread count is a
  # usage error (exit 2), never a wrapped size_t; so are an unknown flag
  # and a malformed number.
  for bad in '--threads 0' '--threads 1.5' '--no_such_flag 1'; do
    rc=0
    "$repo/build/tools/ceaff" delta append --journal "$delta/wal_bad" \
      --patch "$delta/patch.tsv" $bad >/dev/null 2>&1 || rc=$?
    if [[ "$rc" != 2 ]]; then
      echo "delta append $bad exited $rc, expected 2" >&2; exit 1
    fi
  done
  # Serve the pre-apply generation: the renamed name must NOT answer yet.
  delta_fifo="$delta/req.fifo"
  mkfifo "$delta_fifo"
  "$repo/build/tools/ceaff_serve" --index "$delta/index" --threads 2 \
    < "$delta_fifo" > "$delta/serve_out.txt" 2> /dev/null &
  delta_pid=$!
  exec 7> "$delta_fifo"
  printf 'PAIR delta renamed smoke entity\n' >&7
  for _ in $(seq 100); do
    grep -q '^NONE PAIR' "$delta/serve_out.txt" 2>/dev/null && break
    sleep 0.2
  done
  grep -q '^NONE PAIR' "$delta/serve_out.txt"
  # Keep copies of the pre-apply state and journal for the rebuild and the
  # thread-count check below.
  cp -r "$delta/state" "$delta/rebuild_state"
  cp -r "$delta/wal" "$delta/rebuild_wal"
  cp -r "$delta/state" "$delta/threads3_state"
  cp -r "$delta/wal" "$delta/threads3_wal"
  # Apply the journaled batch while the service keeps running, then RELOAD
  # the same directory: the renamed entity must now answer its PAIR.
  "$repo/build/tools/ceaff" delta apply --journal "$delta/wal" \
    --state "$delta/state" --index "$delta/index" | tee "$delta/apply.txt"
  grep -q 'watermark 0 -> 4' "$delta/apply.txt"
  # Repair equals rebuild on the CLI path: the exhaustive rebuild of the
  # same batch must write the same state bytes as the bounded repair.
  "$repo/build/tools/ceaff" delta rebuild --journal "$delta/rebuild_wal" \
    --state "$delta/rebuild_state" | tee "$delta/rebuild.txt"
  grep -q 'watermark 0 -> 4' "$delta/rebuild.txt"
  cmp "$delta/state/state.g2" "$delta/rebuild_state/state.g2"
  # Threads only partition the work: a 3-thread apply of the same journal
  # writes the same state bytes as the single-thread one.
  "$repo/build/tools/ceaff" delta apply --journal "$delta/threads3_wal" \
    --state "$delta/threads3_state" --threads 3 > /dev/null
  cmp "$delta/state/state.g2" "$delta/threads3_state/state.g2"
  printf 'RELOAD %s\nPAIR delta renamed smoke entity\nQUIT\n' \
    "$delta/index" >&7
  exec 7>&-
  wait "$delta_pid"  # set -e: a serve crash fails the sweep here
  grep -q 'OK RELOAD' "$delta/serve_out.txt"
  grep -q 'OK PAIR' "$delta/serve_out.txt"
  # Kill mid-apply at the state-publish site: the journal and the last
  # good generations must survive, and a plain replay must converge.
  printf 'add_entity\t1\thttp://smoke/later\tlater smoke entity\n' \
    > "$delta/patch2.tsv"
  printf 'serve_entity\t1\thttp://smoke/later\n' >> "$delta/patch2.tsv"
  "$repo/build/tools/ceaff" delta append \
    --journal "$delta/wal" --patch "$delta/patch2.tsv"
  rc=0
  CEAFF_FAILPOINTS='delta.publish.state=crash' \
    "$repo/build/tools/ceaff" delta apply --journal "$delta/wal" \
      --state "$delta/state" --index "$delta/index" >/dev/null 2>&1 || rc=$?
  if [[ "$rc" != 77 ]]; then
    echo "delta apply crash action exited $rc, expected 77" >&2; exit 1
  fi
  # Old-or-new: the store still serves the pre-crash state (watermark 4,
  # pending records), never a torn one, and a crash never quarantines.
  "$repo/build/tools/ceaff" delta status \
    --journal "$delta/wal" --state "$delta/state" | tee "$delta/status.txt"
  grep -q 'watermark 4' "$delta/status.txt"
  grep -q '2 pending' "$delta/status.txt"
  # The replay folds the survivors in and drains the journal.
  "$repo/build/tools/ceaff" delta apply --journal "$delta/wal" \
    --state "$delta/state" --index "$delta/index" | tee "$delta/replay.txt"
  grep -q 'watermark 4 -> 6' "$delta/replay.txt"
  "$repo/build/tools/ceaff" delta status \
    --journal "$delta/wal" --state "$delta/state" | tee "$delta/status2.txt"
  grep -q 'watermark 6' "$delta/status2.txt"
  grep -q '0 pending' "$delta/status2.txt"
  # A state of a format version this build does not read (as a newer
  # build would write it: the written version + 1 under a valid container
  # CRC; MANIFEST lists generations only, so it stays as written) must be
  # refused by name and left alone, never quarantined as corrupt.
  newer="$smoke/newer_state"
  "$repo/build/tools/ceaff" generate --config DBP15K_ZH_EN --scale 0.1 \
    --out "$smoke/newer_data"
  "$repo/build/tools/ceaff" align --data "$smoke/newer_data" \
    --gcn-epochs 3 --gcn-dim 16 --export_delta_state "$newer" \
    --out "$smoke/newer_pred.tsv"
  newer_version=$(python3 - "$newer" <<'PY'
import struct, sys, zlib
d = sys.argv[1]
state = bytearray(open(d + "/state.g1", "rb").read())
# The version, after the magic: one past the version this build writes.
version = struct.unpack("<I", bytes(state[8:12]))[0] + 1
state[8:12] = struct.pack("<I", version)
state[-4:] = struct.pack("<I", zlib.crc32(bytes(state[:-4])))
open(d + "/state.g1", "wb").write(state)
print(version)
PY
)
  cp -r "$newer" "$smoke/newer_state.before"
  rc=0
  "$repo/build/tools/ceaff" delta status --journal "$delta/wal" \
    --state "$newer" > /dev/null 2> "$smoke/newer_status.txt" || rc=$?
  if [[ "$rc" != 1 ]]; then
    echo "delta status on a version-$newer_version state exited $rc," \
      "expected 1" >&2; exit 1
  fi
  grep -q "version $newer_version" "$smoke/newer_status.txt"
  cmp "$newer/state.g1" "$smoke/newer_state.before/state.g1"
  cmp "$newer/MANIFEST" "$smoke/newer_state.before/MANIFEST"
  [[ ! -e "$newer/state.g1.corrupt" ]]

  echo "==> SIGTERM drill: drain mid-stream, exit 0, stats on stderr"
  "$repo/build/tools/ceaff_serve" --index "$smoke/run.idx" --threads 2 \
    < <(printf 'READY\nHEALTH\n'; sleep 5) \
    > "$smoke/drain_out.txt" 2> "$smoke/drain_err.txt" &
  serve_pid=$!
  sleep 1
  kill -TERM "$serve_pid"
  wait "$serve_pid"  # set -e: a non-zero drain exit fails the sweep here
  grep -q 'OK READY tier=' "$smoke/drain_out.txt"
  grep -q 'draining: intake stopped' "$smoke/drain_err.txt"
  grep -q 'final stats:' "$smoke/drain_err.txt"
fi

echo "==> all checks passed"
