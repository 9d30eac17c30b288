#!/usr/bin/env bash
# Runs one row of CI's scenario matrix from the repository root: one
# `repro` scenario at one seed, then checks its artifact. `repro` itself
# exits non-zero when a scenario's gates fail; this script adds the schema
# and layout greps and, for the byte-deterministic scenarios, a second run
# that must reproduce every artifact byte for byte.
set -euo pipefail

usage='usage: .github/scenario.sh <chaos|trace|bench|elastic|netchaos|monitor|fuzz> <seed>'
scenario=${1:?$usage}
seed=${2:?$usage}
schema='"schema_version": 9'

case $scenario in
  chaos | trace | netchaos | monitor | fuzz) out=target/$scenario-$seed.json ;;
  bench) out=target/BENCH_admission-$seed.json ;;
  elastic) out=target/BENCH_elastic-$seed.json ;;
  *) echo "$usage" >&2; exit 2 ;;
esac
again=target/$scenario-again.json

repro() {
  local extra=()
  if [[ $scenario == fuzz ]]; then extra=(--cases 200); fi
  cargo run --release -p vfpga-bench --bin repro -- "$scenario" --seed "$seed" "${extra[@]}" "$@"
}

# has PATTERN [FILE]: FILE (default: the artifact) matches PATTERN.
has() {
  grep -q "$1" "${2:-$out}" || { echo "$scenario: no match for $1 in ${2:-$out}" >&2; return 1; }
}

repro --json "$out"
has "$schema"
case $scenario in
  chaos)
    has '"migrated"' ;;
  trace)
    has '"traceEvents"'
    has '"critical_path"'
    has 'fpga0'
    has '# TYPE completions counter' "${out%.json}.prom" ;;
  bench)
    has '"deploy_attempts_per_admission"'
    has '"attempts_per_admission_ceiling"'
    has '"min_probe_ratio"'
    has '"outcomes_match": true'
    has '"baseline"'
    has '"scaling"'
    has '"queue_touches_per_admission"'
    has '"queue_touches_per_admission_ceiling"'
    # The scaling curve at 40k/160k/640k tasks.
    repro --tasks 640000 --json "target/BENCH_scaling-$seed.json"
    has '"tasks": 640000' "target/BENCH_scaling-$seed.json" ;;
  elastic)
    has '"elasticity_on"'
    has '"elasticity_off"'
    has '"p95_ratio"'
    has '"promotions"'
    has '"passes": true' ;;
  netchaos)
    has '"links"'
    has '"bytes_retransmitted"'
    has '"reroutes"'
    has '"link_events"' ;;
  monitor)
    has '"monitor"'
    has '"alerts_fired"'
    has '"rollups"'
    has '"burn_threshold"'
    has 'vfpga_slo_health' "${out%.json}.prom" ;;
  fuzz)
    has '"kind": "fuzz_summary"'
    has '"passed": true'
    has '"scaleout-differential"' ;;
esac

# Bench and elastic record wall-clock fields; every other scenario must
# rerun byte for byte, its Prometheus sidecar included.
case $scenario in
  bench | elastic) ;;
  *) repro --json "$again"; cmp "$out" "$again" ;;
esac
case $scenario in
  trace | monitor) cmp "${out%.json}.prom" "${again%.json}.prom" ;;
esac
