#!/usr/bin/env bash
# End-to-end smoke test: build (if needed), run the quickstart example,
# run an instrumented highway simulation, and validate the emitted run
# report + span trace with tools/check_run_report (which applies the same
# voiceprint.run_report/v1 schema checks as the unit tests). The
# instrumented runs also emit §12 telemetry frame streams, validated with
# `check_run_report --telemetry` and rendered once through tools/vp_top.
#
#   scripts/smoke.sh [build-dir]       # default build dir: ./build
#
# Set SMOKE_ARTIFACT_DIR to keep the emitted reports, traces, telemetry
# streams and bench artefacts (CI uploads them); by default they live in
# a mktemp dir removed on exit.
#
# Wired into ctest as the `smoke` test (ctest passes its own binary dir).
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-$repo_root/build}"

quickstart="$build_dir/examples/quickstart"
highway="$build_dir/examples/highway_sybil_sim"
streaming="$build_dir/examples/streaming_detection"
fleet="$build_dir/examples/fleet_detection"
chaos_bench="$build_dir/bench/chaos_detection"
fusion_bench="$build_dir/bench/fusion_quality"
ingest_server="$build_dir/tools/vp_ingest_server"
ingest_client="$build_dir/tools/vp_ingest_client"
checker="$build_dir/tools/check_run_report"
top="$build_dir/tools/vp_top"

if [[ ! -x "$quickstart" || ! -x "$highway" || ! -x "$streaming" \
      || ! -x "$fleet" || ! -x "$chaos_bench" || ! -x "$fusion_bench" \
      || ! -x "$ingest_server" || ! -x "$ingest_client" \
      || ! -x "$checker" || ! -x "$top" ]]; then
  echo "smoke: binaries missing, building in $build_dir"
  cmake -B "$build_dir" -S "$repo_root"
  cmake --build "$build_dir" -j --target quickstart highway_sybil_sim \
    streaming_detection fleet_detection chaos_detection fusion_quality \
    vp_ingest_server vp_ingest_client check_run_report vp_top
fi

if [[ -n "${SMOKE_ARTIFACT_DIR:-}" ]]; then
  mkdir -p "$SMOKE_ARTIFACT_DIR"
  tmp="$(cd "$SMOKE_ARTIFACT_DIR" && pwd)"
else
  tmp="$(mktemp -d)"
  trap 'rm -rf "$tmp"' EXIT
fi

echo "smoke: quickstart"
"$quickstart" > "$tmp/quickstart.out"
grep -q "flagged as Sybil attack" "$tmp/quickstart.out" || {
  echo "smoke: quickstart output missing detection summary"
  cat "$tmp/quickstart.out"
  exit 1
}

echo "smoke: instrumented highway_sybil_sim"
"$highway" --density 12 --sim-time 20 \
  --metrics-out "$tmp/report.json" --trace-out "$tmp/trace.jsonl" \
  --telemetry-out "$tmp/highway_telemetry.jsonl" \
  --openmetrics-out "$tmp/highway.om" \
  > "$tmp/highway.out"
grep -q "fleet average detection rate" "$tmp/highway.out" || {
  echo "smoke: highway_sybil_sim output missing fleet summary"
  cat "$tmp/highway.out"
  exit 1
}
grep -q "# EOF" "$tmp/highway.om" || {
  echo "smoke: highway_sybil_sim OpenMetrics snapshot not terminated"
  exit 1
}

echo "smoke: validating run report + trace + telemetry"
"$checker" "$tmp/report.json" --trace "$tmp/trace.jsonl" \
  --telemetry "$tmp/highway_telemetry.jsonl"

echo "smoke: streaming_detection (batch parity)"
"$streaming" --density 12 --duration 60 \
  --metrics-out "$tmp/stream_report.json" \
  --trace-out "$tmp/stream_trace.jsonl" \
  --telemetry-out "$tmp/stream_telemetry.jsonl" > "$tmp/streaming.out"
grep -q "streaming parity: OK" "$tmp/streaming.out" || {
  echo "smoke: streaming_detection did not report batch parity"
  cat "$tmp/streaming.out"
  exit 1
}

echo "smoke: validating streaming report + telemetry"
"$checker" "$tmp/stream_report.json" --trace "$tmp/stream_trace.jsonl" \
  --require stream.beacons_ingested --require stream.rounds \
  --telemetry "$tmp/stream_telemetry.jsonl"

echo "smoke: vp_top --once over the streaming telemetry"
"$top" --once "$tmp/stream_telemetry.jsonl" > "$tmp/vp_top.out"
grep -q "stream.beacons_ingested" "$tmp/vp_top.out" || {
  echo "smoke: vp_top did not render the throughput table"
  cat "$tmp/vp_top.out"
  exit 1
}

echo "smoke: fleet_detection --fuse (multi-session + fusion parity)"
"$fleet" --density 12 --sim-time 40 --sessions 3 --fuse \
  --metrics-out "$tmp/fleet_report.json" \
  --trace-out "$tmp/fleet_trace.jsonl" \
  --telemetry-out "$tmp/fleet_telemetry.jsonl" > "$tmp/fleet.out"
grep -q "fleet parity: OK" "$tmp/fleet.out" || {
  echo "smoke: fleet_detection did not report parity"
  cat "$tmp/fleet.out"
  exit 1
}
grep -q "fusion parity: OK" "$tmp/fleet.out" || {
  echo "smoke: fleet_detection --fuse did not report fusion parity"
  cat "$tmp/fleet.out"
  exit 1
}

echo "smoke: validating fleet report + telemetry"
"$checker" "$tmp/fleet_report.json" --trace "$tmp/fleet_trace.jsonl" \
  --require service.beacons_ingested --require service.rounds_executed \
  --require fusion.rounds_delivered --require fusion.epochs_closed \
  --telemetry "$tmp/fleet_telemetry.jsonl"

echo "smoke: fusion_quality --quick (corroboration accuracy sweep)"
"$fusion_bench" --quick --out "$tmp/BENCH_fusion.json" \
  > "$tmp/fusion_bench.out"
grep -q "fusion_quality: OK" "$tmp/fusion_bench.out" || {
  echo "smoke: fusion_quality did not report success"
  cat "$tmp/fusion_bench.out"
  exit 1
}

echo "smoke: validating fusion bench artefact"
"$checker" --fusion-bench "$tmp/BENCH_fusion.json"

echo "smoke: streaming_detection --kill-at (checkpoint/restore parity)"
"$streaming" --density 12 --sim-time 60 --kill-at 30 > "$tmp/killed.out"
grep -q "killed and restored engine" "$tmp/killed.out" || {
  echo "smoke: streaming_detection --kill-at did not kill/restore"
  cat "$tmp/killed.out"
  exit 1
}
grep -q "streaming parity: OK" "$tmp/killed.out" || {
  echo "smoke: parity lost across kill/restore"
  cat "$tmp/killed.out"
  exit 1
}

echo "smoke: streaming_detection --cond --kill-at (conditioned restore parity)"
"$streaming" --density 12 --sim-time 60 --cond --kill-at 30 \
  > "$tmp/conditioned.out"
grep -q "conditioned parity: OK" "$tmp/conditioned.out" || {
  echo "smoke: conditioned parity lost across kill/restore"
  cat "$tmp/conditioned.out"
  exit 1
}

echo "smoke: chaos_detection --quick (fault sweep + kill/restore cycles)"
"$chaos_bench" --quick --out "$tmp/BENCH_chaos.json" \
  --metrics-out "$tmp/chaos_report.json" > "$tmp/chaos.out"
grep -q "chaos: OK" "$tmp/chaos.out" || {
  echo "smoke: chaos_detection did not report success"
  cat "$tmp/chaos.out"
  exit 1
}
grep -q "chaos: collusion held" "$tmp/chaos.out" || {
  echo "smoke: chaos_detection did not run the collusion regression"
  cat "$tmp/chaos.out"
  exit 1
}

echo "smoke: validating chaos report + bench artefact"
"$checker" "$tmp/chaos_report.json" \
  --require fault.dropped --require fault.flood_injected \
  --require fault.rssi_non_finite \
  --require stream.shed_invalid.rssi_non_finite \
  --require stream.shed_invalid.time_negative \
  --require cond.offered --require cond.passed --require cond.rejected \
  --chaos-bench "$tmp/BENCH_chaos.json"

echo "smoke: wire ingest server + client over loopback TCP"
rm -f "$tmp/vp.port"
"$ingest_server" --port 0 --port-file "$tmp/vp.port" \
  --expect-connections 2 --max-seconds 60 \
  --telemetry-out "$tmp/wire_telemetry.jsonl" > "$tmp/wire_server.out" &
server_pid=$!
if ! "$ingest_client" --port-file "$tmp/vp.port" --connections 2 \
    --sessions 4 --identities 4 --rate 10 --duration 10 \
    > "$tmp/wire_client.out"; then
  echo "smoke: vp_ingest_client failed"
  cat "$tmp/wire_client.out"
  kill "$server_pid" 2>/dev/null || true
  exit 1
fi
if ! wait "$server_pid"; then
  echo "smoke: vp_ingest_server exited with failure (timeout or alerts)"
  cat "$tmp/wire_server.out"
  exit 1
fi
grep -q "0 invalid, 0 backpressure" "$tmp/wire_server.out" || {
  echo "smoke: vp_ingest_server shed frames on a clean stream"
  cat "$tmp/wire_server.out"
  exit 1
}
grep -q "0 health alerts" "$tmp/wire_server.out" || {
  echo "smoke: vp_ingest_server raised health alerts"
  cat "$tmp/wire_server.out"
  exit 1
}

echo "smoke: validating wire telemetry stream"
"$checker" --telemetry "$tmp/wire_telemetry.jsonl"

echo "smoke: OK"
