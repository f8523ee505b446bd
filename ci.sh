#!/usr/bin/env bash
# Repo CI: tier-1 verify (Release build + full ctest), an ASan+UBSan
# configuration of the full test suite, and a docs/report gate that
# exercises the observability pipeline end to end.
#
#   ./ci.sh          # all stages
#   ./ci.sh tier1    # Release build + ctest only
#   ./ci.sh san      # sanitizer build + ctest only
#   ./ci.sh docs     # report pipeline + manifest validation + Markdown links,
#                    # and README's env table == the MUXLINK_* getenv() set
#   ./ci.sh faults   # kill-and-resume e2e, the saved model reloaded as a
#                    # warm-start ref, and a netlist fuzz smoke (sanitized)
#   ./ci.sh simd     # GNN suites under MUXLINK_SIMD=scalar and =avx2, plus
#                    # an ASan+UBSan pass over the vectorized kernels; the
#                    # avx2 leg skips gracefully on hosts without AVX2+FMA
#   ./ci.sh serving  # model-zoo round trip: a cold attack populates the
#                    # registry, the warm rerun must be served (mmap),
#                    # bit-identical, and faster; plus an ASan+UBSan pass
#                    # over the mmap/score-cache path
#   ./ci.sh campaign # tiny defense x attack sweep on c432: per-cell +
#                    # aggregate manifests validate with report_md --check,
#                    # the aggregate is byte-identical across worker counts,
#                    # --campaign renders, CLI usage errors exit 1, and the
#                    # CLI-parse/campaign suites pass under ASan+UBSan
#   ./ci.sh daemon   # attack-as-a-service gate: a real muxlinkd serves a
#                    # job over its unix socket and the result manifest must
#                    # be byte-identical to one-shot `muxlink attack
#                    # --deterministic`; plus a fault-injected daemon kill +
#                    # restart drill, a SIGTERM drain check, the concurrent
#                    # bench_daemon byte-identity gate, and the MXRPC1 suite
#                    # under ASan+UBSan
#   ./ci.sh fleet    # fleet-coordinator gate: a muxlink-coord job whose
#                    # manifest must be byte-identical to `muxlink submit`,
#                    # bad-spec usage errors (exit 1, nothing dispatched),
#                    # a 2-backend chaos drill (one muxlinkd SIGKILLed and
#                    # restarted mid-campaign) whose aggregate must be
#                    # byte-identical to the no-fleet run, the bench_fleet
#                    # fan-out byte-identity gate, and the fleet + daemon
#                    # suites under ASan+UBSan
#   ./ci.sh tsan     # ThreadSanitizer over every threaded suite: the pool,
#                    # parallel determinism (nested loops on the pool), the
#                    # GNN (per-thread slot scratch, pooled gradient merge),
#                    # the zoo, the daemon and the fleet; any report fails it
#
# Build trees: build/ (Release, the same tree developers use), build-san/
# (ASan+UBSan) and build-tsan/ (TSan). Benchmarks are compiled in the first
# two configs but only the test suite runs here — kernel perf is tracked separately by
# tools/bench_kernels and tools/bench_pipeline (see EXPERIMENTS.md).
set -euo pipefail
cd "$(dirname "$0")"

stage="${1:-all}"
jobs="$(nproc)"

run_tier1() {
  echo "== tier-1: Release build + ctest =="
  # google-benchmark is not a dependency: with its package lookup disabled, a
  # find_package(benchmark REQUIRED) coming back fails this configure.
  cmake -B build -S . -DCMAKE_DISABLE_FIND_PACKAGE_benchmark=ON >/dev/null
  cmake --build build -j "$jobs"
  ctest --test-dir build --output-on-failure -j "$jobs"
}

run_san() {
  echo "== sanitizers: ASan+UBSan build + ctest =="
  cmake -B build-san -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -fno-omit-frame-pointer" \
    >/dev/null
  cmake --build build-san -j "$jobs"
  # detect_leaks needs ptrace; disabled automatically where unavailable.
  ASAN_OPTIONS="${ASAN_OPTIONS:-detect_stack_use_after_return=1}" \
  UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1}" \
    ctest --test-dir build-san --output-on-failure -j "$jobs"
}

run_docs() {
  echo "== docs: report pipeline + manifest validation + Markdown links =="
  cmake -B build -S . >/dev/null
  cmake --build build -j "$jobs" --target muxlink_cli report_md
  local d cli
  d="$(mktemp -d)"
  cli=build/tools/muxlink

  # End-to-end report: gen -> lock -> attack --report on a small circuit.
  "$cli" gen c432 --out "$d/c432.bench" >/dev/null
  "$cli" lock "$d/c432.bench" --scheme dmux --key-bits 16 --seed 1 \
    --out "$d/locked.bench" --key-out "$d/key.txt" >/dev/null
  "$cli" attack "$d/locked.bench" --epochs 3 --links 300 --seed 1 \
    --truth-key "$d/key.txt" --orig "$d/c432.bench" --patterns 2000 \
    --scheme dmux --telemetry "$d/epochs.jsonl" --report "$d/run.json"
  for key in schema tool git_sha threads seed circuit stages results \
             accuracy_percent hd_percent telemetry_path observability; do
    grep -q "\"$key\"" "$d/run.json" \
      || { echo "manifest missing key: $key" >&2; rm -rf "$d"; return 1; }
  done
  [ -s "$d/epochs.jsonl" ] || { echo "telemetry stream empty" >&2; rm -rf "$d"; return 1; }
  # The UNTANGLE front-end reports through the same job runner.
  "$cli" untangle "$d/locked.bench" --epochs 3 --links 300 --seed 1 \
    --truth-key "$d/key.txt" --orig "$d/c432.bench" --patterns 2000 \
    --scheme dmux --report "$d/untangle.json"
  grep -q '"routing_queries"' "$d/untangle.json" \
    || { echo "untangle manifest missing routing_queries" >&2; rm -rf "$d"; return 1; }

  # Validate the fresh manifests plus every committed one.
  build/tools/report_md --check "$d/run.json" "$d/untangle.json" manifests/*.json \
    manifests/campaign/*.json \
    BENCH_pipeline.json BENCH_kernels.json BENCH_serving.json BENCH_daemon.json \
    BENCH_fleet.json
  # And make sure the renderers accept them.
  build/tools/report_md manifests/*.json >/dev/null
  build/tools/report_md --campaign manifests/campaign/campaign.json >/dev/null
  build/tools/report_md --daemon BENCH_daemon.json >/dev/null
  build/tools/report_md --fleet BENCH_fleet.json >/dev/null
  rm -rf "$d"

  # The wire protocol must stay documented: DESIGN.md §13 is the normative
  # MXRPC1 spec the daemon suite tests against.
  grep -q "## 13. Daemon & wire protocol" DESIGN.md \
    || { echo "DESIGN.md lost its daemon/wire-protocol section" >&2; return 1; }
  for token in MXRPC1 "CRC-32" HELLO SUBMIT WAIT_RESULT forwarded "job lifecycle"; do
    grep -qi "$token" DESIGN.md \
      || { echo "DESIGN.md §13 lost its '$token' coverage" >&2; return 1; }
  done

  # Same for the fleet coordinator: DESIGN.md §14 is the normative spec the
  # fleet suite and the chaos drill test against.
  grep -q "## 14. Fleet coordinator" DESIGN.md \
    || { echo "DESIGN.md lost its fleet-coordinator section" >&2; return 1; }
  for token in WAIT_RESULT forwarded EJECTED "decorrelated" "retry budget" \
               "spool retention" failover; do
    grep -qi "$token" DESIGN.md \
      || { echo "DESIGN.md §14 lost its '$token' coverage" >&2; return 1; }
  done

  # README's environment table calls itself the complete set: its rows must
  # name exactly the MUXLINK_* variables that src/ and tools/ getenv().
  local read_vars table_vars
  read_vars="$(grep -rhoE 'getenv\("MUXLINK_[A-Z0-9_]+"' src tools \
    | sed 's/^getenv("//; s/"$//' | sort -u)"
  table_vars="$(awk '/^### Environment variables/ {on = 1; next} on && /^#/ {on = 0} on' \
    README.md | grep -oE '^\| `MUXLINK_[A-Z0-9_]+`' | sed 's/^| `//; s/`$//' | sort -u)"
  if [ "$read_vars" != "$table_vars" ]; then
    echo "README environment table differs from the getenv(\"MUXLINK_*\") calls" \
      "(< read by src/ + tools/, > listed in README):" >&2
    diff <(echo "$read_vars") <(echo "$table_vars") >&2 || true
    return 1
  fi

  # Intra-repo Markdown links must resolve (external URLs are skipped).
  local fail=0 f link target
  for f in $(git ls-files '*.md'); do
    for link in $(grep -oE '\]\([^)]+\)' "$f" | sed 's/^](//; s/)$//'); do
      target="${link%%#*}"
      [ -z "$target" ] && continue
      case "$target" in http://*|https://*|mailto:*) continue ;; esac
      if [ ! -e "$(dirname "$f")/$target" ]; then
        echo "broken link in $f: $link" >&2
        fail=1
      fi
    done
  done
  [ "$fail" -eq 0 ]
}

run_faults() {
  echo "== faults: kill-and-resume e2e + fuzz smoke under ASan+UBSan =="
  cmake -B build-san -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -fno-omit-frame-pointer" \
    >/dev/null
  cmake --build build-san -j "$jobs" --target muxlink_cli fuzz_netlist
  local d cli
  d="$(mktemp -d)"
  cli=build-san/tools/muxlink

  # Kill-and-resume drill against the sanitized CLI: SIGKILL after epoch 3's
  # checkpoint lands, then resume and demand a BYTE-identical model (the
  # crash-safety contract from DESIGN.md §8).
  "$cli" gen c432 --out "$d/c.bench" >/dev/null
  "$cli" lock "$d/c.bench" --scheme dmux --key-bits 8 --seed 5 \
    --out "$d/l.bench" --key-out "$d/k.txt" >/dev/null
  "$cli" attack "$d/l.bench" --epochs 6 --links 120 --seed 7 --threads 2 \
    --checkpoint-dir "$d/ck_base" --save-model "$d/base.model" >/dev/null
  if MUXLINK_FAULTS=train.epoch:3 "$cli" attack "$d/l.bench" --epochs 6 \
      --links 120 --seed 7 --threads 2 --checkpoint-dir "$d/ck" >/dev/null 2>&1; then
    echo "fault injection did not kill the attack run" >&2; rm -rf "$d"; return 1
  fi
  [ -f "$d/ck/model0.ckpt" ] \
    || { echo "no checkpoint survived the injected crash" >&2; rm -rf "$d"; return 1; }
  "$cli" attack "$d/l.bench" --epochs 6 --links 120 --seed 7 --threads 2 \
    --checkpoint-dir "$d/ck" --resume --save-model "$d/resumed.model" >/dev/null
  cmp "$d/base.model" "$d/resumed.model" \
    || { echo "resumed model is not bit-identical" >&2; rm -rf "$d"; return 1; }
  # The saved model is an MXZOO1 blob, so it must load as a warm-start ref.
  "$cli" attack "$d/l.bench" --epochs 6 --links 120 --seed 7 --threads 2 \
    --warm-start "$d/resumed.model" --warm-epochs 1 --zoo-dir "$d/zoo" >/dev/null \
    || { echo "saved model does not load as a warm-start ref" >&2; rm -rf "$d"; return 1; }

  # Deterministic mutation fuzzing of the netlist parsers, time-boxed:
  # mutated BENCH/Verilog inputs must parse or raise NetlistError, never
  # crash or trip a sanitizer.
  ASAN_OPTIONS="${ASAN_OPTIONS:-detect_stack_use_after_return=1}" \
  UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1}" \
    build-san/tools/fuzz_netlist --corpus tests/corpus --iters 200000 \
      --max-seconds 30 --seed 1
  rm -rf "$d"
}

run_simd() {
  echo "== simd: kernel dispatch gates (scalar + avx2, sanitized) =="
  cmake -B build -S . >/dev/null
  cmake --build build -j "$jobs" \
    --target test_simd test_gnn test_layout test_parallel_determinism bench_kernels

  # Keeps the stage readable: gtest output only surfaces on failure.
  quiet() {
    local log rc=0
    log="$(mktemp)"
    "$@" >"$log" 2>&1 || rc=$?
    [ "$rc" -ne 0 ] && cat "$log" >&2
    rm -f "$log"
    return "$rc"
  }

  local suites=(test_simd test_gnn test_layout test_parallel_determinism)
  local t
  # The GNN suites must pass with dispatch forced to the scalar oracle...
  for t in "${suites[@]}"; do
    echo "simd: $t (MUXLINK_SIMD=scalar)"
    MUXLINK_SIMD=scalar quiet "build/tests/$t"
  done

  # ...and, where host and build support it, with the AVX2 table forced on.
  # --min-ms 0 makes the probe run single-iteration timings (instant); only
  # the resolved ISA in its manifest matters here, not the floors.
  local probe
  probe="$(MUXLINK_SIMD=avx2 build/tools/bench_kernels --min-ms 0 2>/dev/null || true)"
  local simd_env=scalar
  if printf '%s' "$probe" | grep -q '"simd_isa":"avx2"'; then
    simd_env=avx2
    for t in "${suites[@]}"; do
      echo "simd: $t (MUXLINK_SIMD=avx2)"
      MUXLINK_SIMD=avx2 quiet "build/tests/$t"
    done
  else
    echo "simd: host or build lacks AVX2+FMA; skipping the avx2 leg"
  fi

  # Sanitized pass over the kernel layer — in the vectorized config when the
  # host allows it (padded-tail loads/stores are exactly what ASan would
  # catch overrunning), scalar otherwise so the dispatch layer stays covered.
  cmake -B build-san -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -fno-omit-frame-pointer" \
    >/dev/null
  cmake --build build-san -j "$jobs" --target test_simd
  echo "simd: test_simd sanitized (MUXLINK_SIMD=$simd_env)"
  ASAN_OPTIONS="${ASAN_OPTIONS:-detect_stack_use_after_return=1}" \
  UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1}" \
  MUXLINK_SIMD="$simd_env" quiet build-san/tests/test_simd
}

run_serving() {
  echo "== serving: model-zoo round trip (cold train, warm mmap-served) =="
  cmake -B build -S . >/dev/null
  cmake --build build -j "$jobs" --target muxlink_cli bench_serving
  local d cli
  d="$(mktemp -d)"
  cli=build/tools/muxlink

  # Cold run populates the registry; the warm rerun must be served from it
  # (skipping sampling + training) and decipher the identical key.
  "$cli" gen c432 --out "$d/c.bench" >/dev/null
  "$cli" lock "$d/c.bench" --scheme dmux --key-bits 16 --seed 1 \
    --out "$d/l.bench" --key-out "$d/k.txt" >/dev/null
  "$cli" attack "$d/l.bench" --epochs 3 --links 300 --seed 1 --scheme dmux \
    --zoo --zoo-dir "$d/zoo" --key-out "$d/cold.key" >"$d/cold.out"
  grep -q "zoo miss" "$d/cold.out" \
    || { echo "cold run unexpectedly hit the zoo" >&2; rm -rf "$d"; return 1; }
  "$cli" attack "$d/l.bench" --epochs 3 --links 300 --seed 1 --scheme dmux \
    --zoo --zoo-dir "$d/zoo" --key-out "$d/warm.key" --report "$d/warm.json" \
    >"$d/warm.out"
  grep -q "zoo hit" "$d/warm.out" \
    || { echo "warm run was not served from the zoo" >&2; rm -rf "$d"; return 1; }
  cmp "$d/cold.key" "$d/warm.key" \
    || { echo "zoo-served key differs from the trained one" >&2; rm -rf "$d"; return 1; }
  grep -q '"serving"' "$d/warm.json" \
    || { echo "warm manifest lacks the serving block" >&2; rm -rf "$d"; return 1; }

  # The committed benchmark gate: warm must be bit-identical (scores
  # included, with and without the score cache) and >= 5x faster.
  build/tools/bench_serving --circuit c432 --key-bits 16 --epochs 5 --links 500 \
    >/dev/null

  # ASan+UBSan over the mmap + score-cache path (test_zoo covers blob
  # round-trips, registry races, eviction, and the serving determinism
  # contract).
  cmake -B build-san -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -fno-omit-frame-pointer" \
    >/dev/null
  cmake --build build-san -j "$jobs" --target test_zoo
  ASAN_OPTIONS="${ASAN_OPTIONS:-detect_stack_use_after_return=1}" \
  UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1}" \
    build-san/tests/test_zoo >/dev/null
  rm -rf "$d"
}

run_campaign() {
  echo "== campaign: defense x attack sweep gate =="
  cmake -B build -S . >/dev/null
  cmake --build build -j "$jobs" --target muxlink_cli report_md
  local d cli
  d="$(mktemp -d)"
  cli=build/tools/muxlink

  # CLI usage errors are exit-1 with a message, never a leaked exception.
  local rc=0
  "$cli" attack missing.bench --threads abc 2>"$d/err" || rc=$?
  [ "$rc" -eq 1 ] || { echo "--threads abc exited $rc, want 1" >&2; rm -rf "$d"; return 1; }
  grep -q -- "--threads" "$d/err" \
    || { echo "usage error does not name the flag" >&2; rm -rf "$d"; return 1; }
  if "$cli" campaign --schemes bogus --circuits c432 --out-dir "$d/x" 2>"$d/err"; then
    echo "bogus scheme did not fail" >&2; rm -rf "$d"; return 1
  fi
  grep -q "valid:" "$d/err" \
    || { echo "scheme error does not list valid schemes" >&2; rm -rf "$d"; return 1; }

  # Tiny 2x2 sweep on c432, twice at different worker counts: every manifest
  # must validate and the aggregates must be byte-identical.
  "$cli" campaign --schemes dmux,simll --circuits c432 --attacks muxlink,untangle \
    --key-bits 8 --scale 0.5 --epochs 2 --hd-patterns 200 --seed 1 \
    --workers 1 --out-dir "$d/camp1" >/dev/null
  "$cli" campaign --schemes dmux,simll --circuits c432 --attacks muxlink,untangle \
    --key-bits 8 --scale 0.5 --epochs 2 --hd-patterns 200 --seed 1 \
    --workers 4 --out-dir "$d/camp4" >/dev/null
  cmp "$d/camp1/campaign.json" "$d/camp4/campaign.json" \
    || { echo "aggregate differs across worker counts" >&2; rm -rf "$d"; return 1; }
  build/tools/report_md --check "$d"/camp1/*.json
  build/tools/report_md --campaign "$d/camp1/campaign.json" | grep -q "Verdict" \
    || { echo "--campaign render lacks the verdict column" >&2; rm -rf "$d"; return 1; }

  # A resumed sweep must reuse every cell and still write the same bytes.
  "$cli" campaign --schemes dmux,simll --circuits c432 --attacks muxlink,untangle \
    --key-bits 8 --scale 0.5 --epochs 2 --hd-patterns 200 --seed 1 \
    --workers 1 --out-dir "$d/camp1" --resume | grep -q "4 cells (4 resumed)" \
    || { echo "resume did not reuse the persisted cells" >&2; rm -rf "$d"; return 1; }
  cmp "$d/camp1/campaign.json" "$d/camp4/campaign.json" \
    || { echo "resume perturbed the aggregate" >&2; rm -rf "$d"; return 1; }
  rm -rf "$d"

  # Sanitized pass over the CLI parser and the sweep machinery.
  cmake -B build-san -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -fno-omit-frame-pointer" \
    >/dev/null
  cmake --build build-san -j "$jobs" --target test_cli_args test_campaign
  ASAN_OPTIONS="${ASAN_OPTIONS:-detect_stack_use_after_return=1}" \
  UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1}" \
    build-san/tests/test_cli_args >/dev/null
  ASAN_OPTIONS="${ASAN_OPTIONS:-detect_stack_use_after_return=1}" \
  UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1}" \
    build-san/tests/test_campaign >/dev/null
}

run_daemon() {
  echo "== daemon: attack-as-a-service byte-identity + crash drill =="
  cmake -B build -S . >/dev/null
  cmake --build build -j "$jobs" --target muxlink_cli muxlinkd bench_daemon
  local d cli dpid rc
  d="$(mktemp -d)"
  cli=build/tools/muxlink

  # Wait for the daemon's startup line so submits never race the bind.
  wait_for_startup() {
    local log="$1" tries=0
    until grep -q "serving MXRPC1" "$log" 2>/dev/null; do
      tries=$((tries + 1))
      [ "$tries" -gt 100 ] && { echo "muxlinkd did not start" >&2; return 1; }
      sleep 0.1
    done
  }

  "$cli" gen c432 --out "$d/c.bench" >/dev/null
  "$cli" lock "$d/c.bench" --scheme dmux --key-bits 16 --seed 1 \
    --out "$d/l.bench" --key-out "$d/k.txt" >/dev/null

  # The acceptance contract: a job served by a real muxlinkd process over
  # its unix socket writes a result manifest byte-identical to one-shot
  # `muxlink attack --deterministic` with the same configuration.
  build/tools/muxlinkd --socket "$d/daemon.sock" --workers 2 \
    --spool "$d/spool" >"$d/daemon.log" 2>&1 &
  dpid=$!
  wait_for_startup "$d/daemon.log" || { rm -rf "$d"; return 1; }
  "$cli" submit "$d/l.bench" --epochs 3 --links 300 --seed 1 --scheme dmux \
    --truth-key "$d/k.txt" --daemon "unix:$d/daemon.sock" --wait \
    --report "$d/daemon.json" >/dev/null
  "$cli" attack "$d/l.bench" --deterministic --epochs 3 --links 300 --seed 1 \
    --scheme dmux --truth-key "$d/k.txt" --report "$d/oneshot.json" >/dev/null
  cmp "$d/daemon.json" "$d/oneshot.json" \
    || { echo "daemon manifest differs from one-shot attack" >&2; rm -rf "$d"; return 1; }
  cmp "$d/spool/j1.json" "$d/oneshot.json" \
    || { echo "spooled manifest differs from one-shot attack" >&2; rm -rf "$d"; return 1; }
  "$cli" daemon stats --daemon "unix:$d/daemon.sock" | grep -q '"jobs_completed": 1' \
    || { echo "daemon stats did not count the job" >&2; rm -rf "$d"; return 1; }

  # SIGTERM drains gracefully: running jobs finish, exit status 0.
  kill -TERM "$dpid"
  rc=0; wait "$dpid" || rc=$?
  [ "$rc" -eq 0 ] || { echo "drained muxlinkd exited $rc, want 0" >&2; rm -rf "$d"; return 1; }
  grep -q "drained, exiting" "$d/daemon.log" \
    || { echo "muxlinkd did not log its drain" >&2; rm -rf "$d"; return 1; }

  # Crash drill (DESIGN.md §8/§13): the daemon.job fault site kills the
  # daemon mid-job. The waiting client must surface a daemon error (exit 6),
  # and a restarted daemon on the same socket must serve the resubmitted job
  # with a manifest byte-identical to the one-shot run.
  MUXLINK_FAULTS=daemon.job:1 build/tools/muxlinkd --socket "$d/daemon.sock" \
    --workers 2 >"$d/crash.log" 2>&1 &
  dpid=$!
  wait_for_startup "$d/crash.log" || { rm -rf "$d"; return 1; }
  rc=0
  "$cli" submit "$d/l.bench" --epochs 3 --links 300 --seed 1 --scheme dmux \
    --truth-key "$d/k.txt" --daemon "unix:$d/daemon.sock" --wait \
    >/dev/null 2>&1 || rc=$?
  [ "$rc" -eq 6 ] || { echo "client exited $rc after daemon kill, want 6" >&2; rm -rf "$d"; return 1; }
  wait "$dpid" 2>/dev/null || true  # the injected SIGKILL already landed
  build/tools/muxlinkd --socket "$d/daemon.sock" --workers 2 \
    >"$d/restart.log" 2>&1 &
  dpid=$!
  wait_for_startup "$d/restart.log" || { rm -rf "$d"; return 1; }
  "$cli" submit "$d/l.bench" --epochs 3 --links 300 --seed 1 --scheme dmux \
    --truth-key "$d/k.txt" --daemon "unix:$d/daemon.sock" --wait \
    --report "$d/retry.json" >/dev/null
  cmp "$d/retry.json" "$d/oneshot.json" \
    || { echo "post-restart manifest differs from one-shot attack" >&2; rm -rf "$d"; return 1; }
  "$cli" daemon shutdown --daemon "unix:$d/daemon.sock" >/dev/null
  wait "$dpid" 2>/dev/null || true

  # Concurrent-clients byte-identity gate (exit 3 on any divergence).
  build/tools/bench_daemon --circuit c432 --key-bits 16 --epochs 3 --links 300 \
    --jobs 4 --distinct 2 --clients 2 --workers 2 >/dev/null

  # MXRPC1 framing + server contracts under ASan+UBSan.
  cmake -B build-san -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -fno-omit-frame-pointer" \
    >/dev/null
  cmake --build build-san -j "$jobs" --target test_daemon
  ASAN_OPTIONS="${ASAN_OPTIONS:-detect_stack_use_after_return=1}" \
  UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1}" \
    build-san/tests/test_daemon >/dev/null
  rm -rf "$d"
}

run_fleet() {
  echo "== fleet: multi-daemon fan-out + chaos drill =="
  cmake -B build -S . >/dev/null
  cmake --build build -j "$jobs" --target muxlink_cli muxlinkd muxlink_coord bench_fleet
  local d cli dpid1 dpid2
  d="$(mktemp -d)"
  cli=build/tools/muxlink

  wait_for_startup() {
    local log="$1" tries=0
    until grep -q "serving MXRPC1" "$log" 2>/dev/null; do
      tries=$((tries + 1))
      [ "$tries" -gt 100 ] && { echo "muxlinkd did not start" >&2; return 1; }
      sleep 0.1
    done
  }

  # The no-fleet reference sweep the chaos run must reproduce byte-for-byte.
  "$cli" campaign --schemes dmux,simll --circuits c432 --attacks muxlink,untangle \
    --key-bits 8 --scale 0.5 --epochs 2 --hd-patterns 200 --seed 1 \
    --workers 1 --out-dir "$d/base" >/dev/null

  # Two single-worker backends; backend 1 is SIGKILLed mid-sweep and
  # restarted on the same socket. Retry/failover + the breaker's probed
  # re-admission must absorb the outage without changing a byte.
  build/tools/muxlinkd --socket "$d/b1.sock" --workers 1 >"$d/b1.log" 2>&1 &
  dpid1=$!
  build/tools/muxlinkd --socket "$d/b2.sock" --workers 1 >"$d/b2.log" 2>&1 &
  dpid2=$!
  wait_for_startup "$d/b1.log" || { rm -rf "$d"; return 1; }
  wait_for_startup "$d/b2.log" || { rm -rf "$d"; return 1; }
  build/tools/muxlink-coord --backends "unix:$d/b1.sock,unix:$d/b2.sock" --probe \
    | grep -c HEALTHY | grep -q 2 \
    || { echo "coordinator probe did not see both backends healthy" >&2; rm -rf "$d"; return 1; }

  # Job mode: one locked file through muxlink-coord must produce the same
  # manifest bytes as `muxlink submit` to one backend, every knob explicit.
  local knobs=(--attack muxlink --scheme dmux --hops 3 --th 0.01 --epochs 3 --lr 0.001
               --links 300 --seed 1)
  "$cli" gen c432 --out "$d/c.bench" >/dev/null
  "$cli" lock "$d/c.bench" --scheme dmux --key-bits 16 --seed 1 \
    --out "$d/l.bench" --key-out "$d/k.txt" >/dev/null
  build/tools/muxlink-coord --backends "unix:$d/b1.sock,unix:$d/b2.sock" "${knobs[@]}" \
    --out-dir "$d/coord" "$d/l.bench" >/dev/null
  "$cli" submit "$d/l.bench" "${knobs[@]}" --daemon "unix:$d/b2.sock" --wait \
    --report "$d/submit.json" >/dev/null
  cmp "$d/coord/f1.json" "$d/submit.json" \
    || { echo "muxlink-coord manifest differs from muxlink submit" >&2; rm -rf "$d"; return 1; }
  # A bad spec is a usage error (exit 1) before anything is dispatched, as
  # it is for `muxlink submit`.
  local bad rc
  for bad in "--scheme bogus" "--attack bogus"; do
    rc=0
    # shellcheck disable=SC2086  # $bad is a flag and its value
    build/tools/muxlink-coord --backends "unix:$d/b1.sock" $bad "$d/l.bench" \
      >/dev/null 2>&1 || rc=$?
    [ "$rc" -eq 1 ] \
      || { echo "muxlink-coord $bad exited $rc, want 1" >&2; rm -rf "$d"; return 1; }
  done
  (
    sleep 1
    kill -KILL "$dpid1" 2>/dev/null || true
    sleep 0.5
    build/tools/muxlinkd --socket "$d/b1.sock" --workers 1 >"$d/b1-restart.log" 2>&1 &
    echo $! >"$d/b1-restart.pid"
  ) &
  local chaos=$!
  "$cli" campaign --schemes dmux,simll --circuits c432 --attacks muxlink,untangle \
    --key-bits 8 --scale 0.5 --epochs 2 --hd-patterns 200 --seed 1 \
    --workers 1 --out-dir "$d/fleet" \
    --fleet "unix:$d/b1.sock,unix:$d/b2.sock" \
    --fleet-dispatch-timeout-ms 8000 --fleet-max-attempts 6 >/dev/null
  wait "$chaos" 2>/dev/null || true
  cmp "$d/base/campaign.json" "$d/fleet/campaign.json" \
    || { echo "chaos-run aggregate differs from the no-fleet sweep" >&2; rm -rf "$d"; return 1; }
  kill "$dpid2" 2>/dev/null || true
  [ -f "$d/b1-restart.pid" ] && kill "$(cat "$d/b1-restart.pid")" 2>/dev/null || true
  wait 2>/dev/null || true

  # Fan-out byte-identity gate (exit 3 when the fleet aggregate diverges
  # from the sequential single-daemon run).
  build/tools/bench_fleet --circuit c432 --key-bits 16 --epochs 3 --links 300 \
    --jobs 4 --distinct 2 --backends 2 --workers 1 >/dev/null

  # Coordinator + daemon suites under ASan+UBSan: breaker races, requeue
  # bookkeeping, and the WAIT_RESULT/forwarded paths.
  cmake -B build-san -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -fno-omit-frame-pointer" \
    >/dev/null
  cmake --build build-san -j "$jobs" --target test_fleet test_daemon
  ASAN_OPTIONS="${ASAN_OPTIONS:-detect_stack_use_after_return=1}" \
  UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1}" \
    build-san/tests/test_fleet >/dev/null
  ASAN_OPTIONS="${ASAN_OPTIONS:-detect_stack_use_after_return=1}" \
  UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1}" \
    build-san/tests/test_daemon >/dev/null
  rm -rf "$d"
}

run_tsan() {
  echo "== tsan: ThreadSanitizer over the threaded suites =="
  cmake -B build-tsan -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer" \
    >/dev/null
  local suites=(test_thread_pool test_parallel_determinism test_gnn test_zoo test_daemon
                test_fleet)
  cmake --build build-tsan -j "$jobs" --target "${suites[@]}"
  local t
  for t in "${suites[@]}"; do
    echo "tsan: $t"
    TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" "build-tsan/tests/$t" >/dev/null
  done
}

case "$stage" in
  tier1)  run_tier1 ;;
  san)    run_san ;;
  docs)   run_docs ;;
  faults) run_faults ;;
  simd)   run_simd ;;
  serving) run_serving ;;
  campaign) run_campaign ;;
  daemon) run_daemon ;;
  fleet)  run_fleet ;;
  tsan)   run_tsan ;;
  all)    run_tier1; run_san; run_docs; run_faults; run_simd; run_serving; run_campaign; run_daemon; run_fleet; run_tsan ;;
  *) echo "usage: $0 [tier1|san|docs|faults|simd|serving|campaign|daemon|fleet|tsan|all]" >&2; exit 64 ;;
esac
echo "== ci.sh: $stage passed =="
