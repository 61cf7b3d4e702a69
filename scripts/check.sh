#!/usr/bin/env bash
# Sanitizer + benchmark gate. Modes:
#   address (default) - Debug build with PSP_SANITIZE=address (ASan + UBSan),
#                       full test suite.
#   thread            - Debug build with PSP_SANITIZE=thread (TSan), run over
#                       the concurrency-bearing tests: the threaded runtime
#                       (dispatcher + workers + the telemetry sampler thread),
#                       channels, rings, NIC and the telemetry subsystem.
#   bench             - tier-2: benchmark trajectory harness in smoke mode
#                       (scripts/bench_report.sh --smoke): schema and
#                       zero-allocation gates (including the timer-wheel
#                       cascade-stress path) are fatal, speedup gates —
#                       3x at 256-4096 plus the 16384 floor — are advisory
#                       at smoke windows. Every stage prints its wall-clock
#                       seconds so the fleet-sweep speedup is visible in CI.
#   introspect        - admin-plane smoke: launch the quickstart with the
#                       endpoint enabled, scrape /metrics via pspctl --check
#                       (malformed exposition is a hard failure) and validate
#                       /snapshot.json + /outliers.json with python3. Also run
#                       automatically inside the address and thread modes so
#                       the live scrape path executes under both sanitizers.
#   fleet             - fleet determinism smoke: run the multi-server sim
#                       (examples/fleet_demo) twice with the same seed and
#                       require byte-identical fleet.json and metrics.prom
#                       artifacts (each page passing pspctl checkfile), then
#                       a different seed and require divergence.
#   ingress           - socket-ingress smoke: a real two-process exchange over
#                       loopback — examples/udp_server on an ephemeral port
#                       driven by the external tools/psp_loadgen; responses
#                       must come back and the server's books must balance.
#   profile           - sampling-profiler smoke: udp_server with the admin
#                       plane on and psp_loadgen driving it, one-shot
#                       `pspctl profile` capture (start -> wait -> stop ->
#                       folded), then validate the folded stacks: grammar
#                       (`role;state:...;frames count` lines), ledger-state
#                       tags on >= 99% of samples, and a 409 on double-start.
#   trace             - distributed-tracing smoke: udp_server with the admin
#                       plane on, psp_loadgen sampling 1-in-64 on the wire,
#                       psp_tracejoin fetching /lifecycle.json live and
#                       joining both halves into a Perfetto trace (validated
#                       with python3), pspctl checkfile on the loadgen's
#                       --prom page (also with a type name that needs
#                       escaping), and a two-server pspctl federate merge
#                       validated by --check.
#   deadline          - deadline-tier smoke: wire-stamped budgets end to end
#                       in two real processes — psp_loadgen stamps per-type
#                       budgets (--deadline-us) into the PSP header, the
#                       EDF-mode udp_server turns them into absolute
#                       deadlines at ingress, the loadgen's own client-side
#                       miss accounting must appear in its --json report and
#                       the live /metrics page must expose well-formed
#                       psp_deadline_* families with a nonzero stamped count.
#   all               - all of the above.
# Usage: scripts/check.sh [address|thread|bench|introspect|fleet|ingress|trace|profile|deadline|all] [build-dir]
set -eu
MODE=${1:-address}
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"

# Admin-plane smoke against an already-configured build tree: start the
# quickstart with the endpoint on, scrape it like an external Prometheus +
# operator would, and fail on malformed output. Inherits whatever sanitizer
# the tree was configured with, so ASan/TSan runs cover the live scrape path.
run_introspect() {
  local build=${1:-build}
  cmake -B "$build" -S . >/dev/null
  cmake --build "$build" -j "$(nproc)" --target quickstart pspctl
  local log="$build/introspect_smoke.log"
  PSP_ADMIN=1 PSP_ADMIN_SERVE_MS=8000 \
    "$build/examples/quickstart" >"$log" 2>&1 &
  local pid=$!
  local port=""
  for _ in $(seq 1 100); do
    port=$(sed -n 's/^admin: listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
      "$log" | head -1)
    [ -n "$port" ] && break
    sleep 0.1
  done
  if [ -z "$port" ]; then
    echo "introspect smoke: quickstart never announced its admin port" >&2
    cat "$log" >&2
    kill "$pid" 2>/dev/null || true
    return 1
  fi
  local rc=0
  # --check parses the exposition and exits 4 on any malformed line.
  "$build/tools/pspctl" --port "$port" --check \
    --out "$build/introspect_smoke.prom" metrics || rc=$?
  if [ "$rc" = 0 ]; then
    "$build/tools/pspctl" --port "$port" snapshot \
      | python3 -m json.tool >/dev/null || rc=$?
  fi
  if [ "$rc" = 0 ]; then
    "$build/tools/pspctl" --port "$port" outliers \
      | python3 -m json.tool >/dev/null || rc=$?
  fi
  if [ "$rc" = 0 ]; then
    "$build/tools/pspctl" --port "$port" health >/dev/null || rc=$?
  fi
  # The quickstart exits on its own when the serve window closes; its exit
  # code surfaces sanitizer findings hit while serving the scrapes.
  wait "$pid" || rc=$?
  if [ "$rc" != 0 ]; then
    echo "introspect smoke FAILED (rc=$rc); server log:" >&2
    cat "$log" >&2
    return 1
  fi
  echo "introspect smoke OK (port $port)"
}

run_address() {
  local build=${1:-build-asan}
  cmake -B "$build" -S . \
    -DCMAKE_BUILD_TYPE=Debug \
    -DPSP_SANITIZE=address
  cmake --build "$build" -j "$(nproc)"
  # halt_on_error keeps UBSan findings fatal so ctest reports them as failures.
  UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
  ASAN_OPTIONS=detect_leaks=1 \
    ctest --test-dir "$build" --output-on-failure -j "$(nproc)"
  ASAN_OPTIONS=detect_leaks=1 run_introspect "$build"
}

run_thread() {
  local build=${1:-build-tsan}
  cmake -B "$build" -S . \
    -DCMAKE_BUILD_TYPE=Debug \
    -DPSP_SANITIZE=thread
  cmake --build "$build" -j "$(nproc)"
  # The threaded-runtime tests exercise every cross-thread surface: SPSC
  # channels, the NIC rings, worker completion signalling, and the
  # time-series sampler thread closing intervals while the dispatcher
  # records. Single-threaded sim/bench tests add nothing under TSan.
  TSAN_OPTIONS=halt_on_error=1 \
    ctest --test-dir "$build" --output-on-failure -j "$(nproc)" \
      -R 'runtime_|telemetry_|introspect_|common_rings_|net_nic_|common_memory_pool_'
  TSAN_OPTIONS=halt_on_error=1 run_introspect "$build"
}

# Fleet determinism smoke: the whole multi-server simulation — N server
# pipelines off one event queue, per-server RNG streams split from the fleet
# seed, policy decisions, telemetry aggregation — must replay bit-identically
# for a seed. Two same-seed runs are compared byte-for-byte on fleet.json and
# every metrics.prom (fleet page and member pages), each of which must also
# pass `pspctl checkfile`; a third run with another seed must diverge (guards
# against the artifact not actually depending on the run).
run_fleet() {
  local build=${1:-build}
  cmake -B "$build" -S . >/dev/null
  cmake --build "$build" -j "$(nproc)" --target fleet_demo pspctl
  local work="$build/fleet_smoke"
  rm -rf "$work"
  mkdir -p "$work"
  local flags="--servers 3 --policy shortest-q --duration-ms 20 --load 0.7"
  local run seed
  for run in a:42 b:42 c:43; do
    seed=${run#*:}
    # shellcheck disable=SC2086
    "$build/examples/fleet_demo" $flags --seed "$seed" \
      --out "$work/${run%%:*}" >/dev/null
  done
  local f
  for f in fleet.json metrics.prom server0/metrics.prom server1/metrics.prom \
           server2/metrics.prom; do
    if ! cmp -s "$work/a/$f" "$work/b/$f"; then
      echo "fleet smoke FAILED: same-seed runs differ on $f" >&2
      diff "$work/a/$f" "$work/b/$f" | head -5 >&2 || true
      return 1
    fi
    case $f in
      *.prom) "$build/tools/pspctl" checkfile "$work/a/$f" || return 1 ;;
    esac
  done
  if cmp -s "$work/a/fleet.json" "$work/c/fleet.json"; then
    echo "fleet smoke FAILED: different seeds produced identical" \
         "fleet.json" >&2
    return 1
  fi
  python3 -m json.tool "$work/a/fleet.json" >/dev/null
  echo "fleet smoke OK (same-seed byte-identical, seeds diverge," \
       "pages well-formed)"
}

# Socket-ingress smoke: the kernel-UDP frontend as an operator would run it —
# server and load generator in separate processes, datagrams over real
# loopback sockets. Parses the announced ephemeral port off the server log,
# requires the loadgen to see responses, and requires the server's shutdown
# books to show completed requests. Inherits the build tree's sanitizer
# flags, like run_introspect.
run_ingress() {
  local build=${1:-build}
  cmake -B "$build" -S . >/dev/null
  cmake --build "$build" -j "$(nproc)" --target udp_server psp_loadgen
  local log="$build/ingress_smoke.log"
  "$build/examples/udp_server" --port 0 --serve-ms 8000 >"$log" 2>&1 &
  local pid=$!
  local port=""
  for _ in $(seq 1 100); do
    port=$(sed -n 's/^udp: listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
      "$log" | head -1)
    [ -n "$port" ] && break
    sleep 0.1
  done
  if [ -z "$port" ]; then
    echo "ingress smoke: udp_server never announced its port" >&2
    cat "$log" >&2
    kill "$pid" 2>/dev/null || true
    return 1
  fi
  local rc=0
  "$build/tools/psp_loadgen" --port "$port" --rate 2000 --requests 500 \
    --json >"$build/ingress_smoke.json" || rc=$?
  if [ "$rc" = 0 ]; then
    python3 - "$build/ingress_smoke.json" <<'PY' || rc=$?
import json, sys
with open(sys.argv[1]) as f:
    report = json.load(f)
if report["received"] <= 0:
    sys.exit(f"loadgen got no responses: {report}")
print(f"  loadgen: {report['received']}/{report['sent']} responses, "
      f"overall p99 {report['overall']['p99_us']:.0f}us")
PY
  fi
  # The server exits on its own when the serve window closes; its exit code
  # surfaces sanitizer findings hit while serving the datagrams.
  wait "$pid" || rc=$?
  if [ "$rc" != 0 ]; then
    echo "ingress smoke FAILED (rc=$rc); server log:" >&2
    cat "$log" >&2
    return 1
  fi
  local completed
  completed=$(sed -n 's/^completed \([0-9]*\) requests.*/\1/p' "$log" | head -1)
  if [ -z "$completed" ] || [ "$completed" = 0 ]; then
    echo "ingress smoke FAILED: server completed no requests; log:" >&2
    cat "$log" >&2
    return 1
  fi
  echo "ingress smoke OK (port $port, server completed $completed requests)"
}

# Sampling-profiler smoke: the operator workflow end to end in real
# processes — a loaded udp_server, `pspctl profile` driving the admin
# routes, folded stacks back out. Validates the folded grammar, requires
# ledger-state tags to partition >= 99% of samples (the time-provenance
# attribution the profiler exists for), and checks that a second start
# while a capture runs is refused with an HTTP error (409).
run_profile() {
  local build=${1:-build}
  cmake -B "$build" -S . >/dev/null
  cmake --build "$build" -j "$(nproc)" --target udp_server psp_loadgen pspctl
  local work="$build/profile_smoke"
  rm -rf "$work"
  mkdir -p "$work"
  local log="$work/server.log"
  PSP_ADMIN=1 "$build/examples/udp_server" --port 0 --serve-ms 12000 \
    >"$log" 2>&1 &
  local pid=$!
  local udp_port="" admin_port=""
  for _ in $(seq 1 100); do
    udp_port=$(sed -n 's/^udp: listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
      "$log" | head -1)
    admin_port=$(sed -n 's/^admin: listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
      "$log" | head -1)
    [ -n "$udp_port" ] && [ -n "$admin_port" ] && break
    sleep 0.1
  done
  if [ -z "$udp_port" ] || [ -z "$admin_port" ]; then
    echo "profile smoke: udp_server never announced its ports" >&2
    cat "$log" >&2
    kill "$pid" 2>/dev/null || true
    return 1
  fi
  local rc=0
  # Load in the background so the capture sees busy workers, not just polls.
  "$build/tools/psp_loadgen" --port "$udp_port" --rate 4000 --requests 16000 \
    >"$work/loadgen.out" 2>&1 &
  local load_pid=$!
  # One-shot capture: start at 199 Hz, 2 s window, stop, fetch folded.
  "$build/tools/pspctl" --port "$admin_port" --out "$work/profile.folded" \
    profile 199 2 || rc=$?
  # 409 leg: arm a fresh capture, then a second start must be refused
  # (pspctl maps HTTP >= 400 to exit 3); stop cleans up.
  if [ "$rc" = 0 ]; then
    "$build/tools/pspctl" --port "$admin_port" profile start 99 \
      >/dev/null || rc=$?
  fi
  if [ "$rc" = 0 ]; then
    local rc2=0
    "$build/tools/pspctl" --port "$admin_port" profile start 99 \
      >/dev/null 2>&1 || rc2=$?
    if [ "$rc2" != 3 ]; then
      echo "profile smoke: double-start was not refused (rc=$rc2)" >&2
      rc=1
    fi
    "$build/tools/pspctl" --port "$admin_port" profile stop >/dev/null || rc=$?
  fi
  if [ "$rc" = 0 ]; then
    python3 - "$work/profile.folded" <<'PY' || rc=$?
import sys
total = tagged = 0
lines = 0
with open(sys.argv[1]) as f:
    for line in f:
        line = line.rstrip("\n")
        if not line:
            continue
        lines += 1
        key, _, count = line.rpartition(" ")
        if not key or not count.isdigit():
            sys.exit(f"malformed folded line: {line!r}")
        role = key.split(";", 1)[0]
        if role not in ("worker", "dispatcher", "net", "sampler"):
            sys.exit(f"unknown role {role!r} in: {line!r}")
        total += int(count)
        if ";state:" in key:
            tagged += int(count)
if lines == 0 or total == 0:
    sys.exit("folded profile is empty (no samples captured)")
if tagged * 100 < total * 99:
    sys.exit(f"ledger-state tags cover only {tagged}/{total} samples "
             "(need >= 99%)")
print(f"  profile: {total} samples across {lines} stacks, "
      f"{tagged * 100.0 / total:.1f}% state-tagged")
PY
  fi
  wait "$load_pid" || true
  wait "$pid" || rc=$?
  if [ "$rc" != 0 ]; then
    echo "profile smoke FAILED (rc=$rc); server log:" >&2
    cat "$log" >&2
    return 1
  fi
  echo "profile smoke OK (udp $udp_port, admin $admin_port)"
}

# Distributed-tracing smoke: the full cross-process story in real processes.
# One udp_server with the admin plane on; psp_loadgen stamps 1-in-64 requests
# with the wire sampling bit; psp_tracejoin fetches the server's sampled
# lifecycle records over the live admin endpoint and joins the two clock
# domains into one Perfetto trace covering client-queue → wire → all seven
# server stages. A second server then joins for the federation leg: pspctl
# federate merges both /metrics pages and --check gates the merged page.
run_trace() {
  local build=${1:-build}
  cmake -B "$build" -S . >/dev/null
  cmake --build "$build" -j "$(nproc)" \
    --target udp_server psp_loadgen psp_tracejoin pspctl
  local work="$build/trace_smoke"
  rm -rf "$work"
  mkdir -p "$work"

  local log_a="$work/server_a.log" log_b="$work/server_b.log"
  PSP_ADMIN=1 "$build/examples/udp_server" --port 0 --serve-ms 10000 \
    >"$log_a" 2>&1 &
  local pid_a=$!
  PSP_ADMIN=1 "$build/examples/udp_server" --port 0 --serve-ms 10000 \
    >"$log_b" 2>&1 &
  local pid_b=$!

  local udp_port="" admin_a="" admin_b=""
  for _ in $(seq 1 100); do
    udp_port=$(sed -n 's/^udp: listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
      "$log_a" | head -1)
    admin_a=$(sed -n 's/^admin: listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
      "$log_a" | head -1)
    admin_b=$(sed -n 's/^admin: listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
      "$log_b" | head -1)
    [ -n "$udp_port" ] && [ -n "$admin_a" ] && [ -n "$admin_b" ] && break
    sleep 0.1
  done
  if [ -z "$udp_port" ] || [ -z "$admin_a" ] || [ -z "$admin_b" ]; then
    echo "trace smoke: servers never announced their ports" >&2
    cat "$log_a" "$log_b" >&2
    kill "$pid_a" "$pid_b" 2>/dev/null || true
    return 1
  fi

  local rc=0
  # Client half: 1-in-64 wire sampling, JSON report + Prometheus page.
  "$build/tools/psp_loadgen" --port "$udp_port" --rate 2000 --requests 1000 \
    --sample 64 --json --prom "$work/client.prom" \
    >"$work/client.json" || rc=$?
  # The network-time exposition page must be well-formed Prometheus text,
  # and the --json report valid JSON, also when a --type name needs escaping.
  if [ "$rc" = 0 ]; then
    "$build/tools/psp_loadgen" --port "$udp_port" --rate 2000 \
      --requests 200 --type '1:a"b:0.9:5' --type '2:LONG:0.1:50' --json \
      --prom "$work/quoted.prom" >"$work/quoted.json" || rc=$?
  fi
  if [ "$rc" = 0 ]; then
    "$build/tools/pspctl" checkfile "$work/client.prom" || rc=$?
    "$build/tools/pspctl" checkfile "$work/quoted.prom" || rc=$?
    python3 -m json.tool "$work/quoted.json" >/dev/null || rc=$?
  fi
  # Join against the live admin endpoint (exit 0 requires joined spans).
  if [ "$rc" = 0 ]; then
    "$build/tools/psp_tracejoin" --client "$work/client.json" \
      --admin "127.0.0.1:$admin_a" --out "$work/trace.json" || rc=$?
  fi
  if [ "$rc" = 0 ]; then
    python3 - "$work/trace.json" <<'PY' || rc=$?
import json, sys
with open(sys.argv[1]) as f:
    trace = json.load(f)
events = trace["traceEvents"]
if not events:
    sys.exit("joined trace has no events")
names = {e.get("name") for e in events}
phases = {e.get("ph") for e in events}
for need in ("client-queue", "wire-out", "wire-back", "classify", "enqueue",
             "queue", "handoff", "service", "reply"):
    if need not in names:
        sys.exit(f"joined trace lacks {need!r} slices: {sorted(names)}")
if not {"b", "e"} <= phases:
    sys.exit(f"joined trace lacks async span pairs: {sorted(phases)}")
spans = sum(1 for e in events if e.get("ph") == "b")
print(f"  tracejoin: {spans} sampled spans, {len(events)} events")
PY
  fi
  # Federation leg: merge both live servers, gate the merged page.
  if [ "$rc" = 0 ]; then
    "$build/tools/pspctl" --check --out "$work/federated.prom" \
      federate "127.0.0.1:$admin_a" "127.0.0.1:$admin_b" || rc=$?
  fi
  if [ "$rc" = 0 ]; then
    grep -q 'psp_fleet_servers 2' "$work/federated.prom" || {
      echo "trace smoke: federated page lacks psp_fleet_servers 2" >&2
      rc=1
    }
    grep -q 'server="1"' "$work/federated.prom" || {
      echo "trace smoke: federated page lacks server=\"1\" samples" >&2
      rc=1
    }
  fi
  wait "$pid_a" || rc=$?
  wait "$pid_b" || rc=$?
  if [ "$rc" != 0 ]; then
    echo "trace smoke FAILED (rc=$rc); server logs:" >&2
    cat "$log_a" "$log_b" >&2
    return 1
  fi
  echo "trace smoke OK (udp $udp_port, admin $admin_a + $admin_b federated)"
}

# Deadline-tier smoke: the wire-deadline story as an operator would run it —
# the load generator stamps per-type latency budgets into the PSP header
# (--deadline-us), the server (EDF dispatch) turns them into absolute
# deadlines at ingress and judges them at completion. Three checks: the
# loadgen's client-side miss accounting shows checked deadlines in --json,
# pspctl --check gates the live exposition, and the scraped page must carry
# the psp_deadline_* families with a nonzero stamped count.
run_deadline() {
  local build=${1:-build}
  cmake -B "$build" -S . >/dev/null
  cmake --build "$build" -j "$(nproc)" --target udp_server psp_loadgen pspctl
  local work="$build/deadline_smoke"
  rm -rf "$work"
  mkdir -p "$work"
  local log="$work/server.log"
  PSP_ADMIN=1 "$build/examples/udp_server" --port 0 --policy edf \
    --serve-ms 8000 >"$log" 2>&1 &
  local pid=$!
  local udp_port="" admin_port=""
  for _ in $(seq 1 100); do
    udp_port=$(sed -n 's/^udp: listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
      "$log" | head -1)
    admin_port=$(sed -n 's/^admin: listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
      "$log" | head -1)
    [ -n "$udp_port" ] && [ -n "$admin_port" ] && break
    sleep 0.1
  done
  if [ -z "$udp_port" ] || [ -z "$admin_port" ]; then
    echo "deadline smoke: udp_server never announced its ports" >&2
    cat "$log" >&2
    kill "$pid" 2>/dev/null || true
    return 1
  fi
  local rc=0
  # Budgets chosen so SHORT (5 µs spin) comfortably meets 150 µs while LONG
  # (200 µs spin) can realistically miss 600 µs under queueing — both sides
  # of the miss accounting get exercised without the smoke depending on it.
  "$build/tools/psp_loadgen" --port "$udp_port" --rate 2000 --requests 500 \
    --deadline-us SHORT:150 --deadline-us LONG:600 \
    --json >"$work/loadgen.json" || rc=$?
  if [ "$rc" = 0 ]; then
    python3 - "$work/loadgen.json" <<'PY' || rc=$?
import json, sys
with open(sys.argv[1]) as f:
    report = json.load(f)
if report["received"] <= 0:
    sys.exit(f"loadgen got no responses: {report}")
checked = missed = 0
for t in report["types"]:
    if t.get("deadline_us", 0) > 0:
        if t.get("deadline_checked", 0) <= 0:
            sys.exit(f"type {t['name']} has a budget but checked no "
                     f"deadlines: {t}")
        checked += t["deadline_checked"]
        missed += t.get("deadline_missed", 0)
if checked <= 0:
    sys.exit("loadgen report carries no client-side deadline accounting")
print(f"  loadgen: {report['received']}/{report['sent']} responses, "
      f"{checked} deadlines checked, {missed} missed client-side")
PY
  fi
  # Live scrape while the server still serves: exposition must parse
  # (--check) and carry the deadline families with real activity.
  if [ "$rc" = 0 ]; then
    "$build/tools/pspctl" --port "$admin_port" --check \
      --out "$work/metrics.prom" metrics || rc=$?
  fi
  if [ "$rc" = 0 ]; then
    python3 - "$work/metrics.prom" <<'PY' || rc=$?
import sys
stamped = 0.0
families = set()
with open(sys.argv[1]) as f:
    for line in f:
        if line.startswith("#") or not line.strip():
            continue
        name = line.split("{")[0].split(" ")[0]
        if "deadline" in name:
            families.add(name)
        if line.startswith("psp_deadline_stamped_total "):
            stamped = float(line.rsplit(" ", 1)[1])
if stamped <= 0:
    sys.exit(f"/metrics shows no stamped deadlines "
             f"(deadline families seen: {sorted(families)})")
for need in ("psp_deadline_type_missed_total",
             "psp_deadline_type_slack_ns_count"):
    if need not in families:
        sys.exit(f"/metrics lacks {need}; saw {sorted(families)}")
print(f"  metrics: {stamped:.0f} deadlines stamped server-side, "
      f"{len(families)} deadline families")
PY
  fi
  wait "$pid" || rc=$?
  if [ "$rc" != 0 ]; then
    echo "deadline smoke FAILED (rc=$rc); server log:" >&2
    cat "$log" >&2
    return 1
  fi
  echo "deadline smoke OK (udp $udp_port, admin $admin_port)"
}

run_bench() {
  local build=${1:-build-bench}
  # Smoke windows: short enough for CI, still runs every gate. The report
  # lands in the build tree, not the repo root (the committed BENCH_PR3.json
  # comes from a full run).
  scripts/bench_report.sh --smoke "$build" "$build/BENCH_SMOKE.json"
}

case "$MODE" in
  address) run_address "${2:-build-asan}" ;;
  thread)  run_thread "${2:-build-tsan}" ;;
  bench)   run_bench "${2:-build-bench}" ;;
  introspect) run_introspect "${2:-build}" ;;
  fleet)   run_fleet "${2:-build}" ;;
  ingress) run_ingress "${2:-build}" ;;
  profile) run_profile "${2:-build}" ;;
  trace)   run_trace "${2:-build}" ;;
  deadline) run_deadline "${2:-build}" ;;
  all)     run_address build-asan; run_thread build-tsan; run_fleet build;
           run_ingress build; run_profile build; run_trace build;
           run_deadline build; run_bench build-bench ;;
  *) echo "usage: scripts/check.sh [address|thread|bench|introspect|fleet|ingress|trace|profile|deadline|all] [build-dir]" >&2
     exit 2 ;;
esac
