#!/bin/sh
# Regenerates every table and figure (see DESIGN.md experiment index).
# The combined evaluate_suite covers Figures 6a/6b/7a/7b; the smoke run
# also exercises fig6, which collects the Fig 6 class on its own.
#
# Usage:
#   ./run_all_experiments.sh           # full run (paper-scale parameters)
#   ./run_all_experiments.sh --smoke   # CI smoke: tiny trial counts, no SVG
#
# Thread count for the trial engine is taken from FLOW_RECON_THREADS
# (`auto` or 0 = one thread per core) or per-bin `--threads`.
set -e

SMOKE=0
for arg in "$@"; do
    case "$arg" in
        --smoke) SMOKE=1 ;;
        *) echo "usage: $0 [--smoke]" >&2; exit 2 ;;
    esac
done

set -x
BIN="cargo run --release -p experiments --bin"

# Runs one named step, failing the whole script immediately with an
# unambiguous marker when it breaks — `set -e` alone leaves CI logs
# ending mid-cargo-output with no hint of which experiment died. Exit
# code 130 is the supervised runner's graceful-interrupt path (SIGINT/
# SIGTERM): partial CSVs and an `interrupted` manifest were flushed,
# and the run can continue from its checkpoint.
run() {
    _name="$1"
    shift
    "$@" || {
        _code=$?
        if [ "${_code}" -eq 130 ]; then
            echo "INTERRUPTED: experiment '${_name}' stopped early; partial results flushed — rerun with --resume to continue" >&2
        else
            echo "FAILED: experiment '${_name}' (exit ${_code})" >&2
        fi
        exit "${_code}"
    }
}

# Runs a step that MUST stop at a deterministic kill-point: anything but
# the graceful-interrupt exit code (130) fails the script.
run_interrupted() {
    _name="$1"
    shift
    "$@" && {
        echo "FAILED: '${_name}' expected an interrupted exit, but it completed" >&2
        exit 1
    }
    _code=$?
    [ "${_code}" -eq 130 ] || {
        echo "FAILED: '${_name}' exit ${_code}, expected 130 (interrupted)" >&2
        exit "${_code}"
    }
}

# Preflight: the determinism lint (rules D1-D10, including the D5-D8
# dataflow pass) must pass before any experiment runs — a hash-iteration
# order, wall-clock read, unsalted RNG stream, non-total float order,
# inverted lock pair, or impure cache policy would silently invalidate
# every CSV produced below.
cargo run --release -p detlint

if [ "$SMOKE" -eq 1 ]; then
    # Reduced trial counts: exercises every experiment end to end in
    # minutes, skips SVG rendering, and writes to results/smoke so the
    # committed paper-scale CSVs are untouched. Shapes are noisy at this
    # scale; only the full run reproduces the paper's numbers.
    OUT="results/smoke"
    run latency_table $BIN latency_table -- --seed 7 --fast --out "$OUT"
    run scalability $BIN scalability -- --seed 7 --fast --out "$OUT"
    run ablation_evaluators $BIN ablation_evaluators -- --seed 7 --fast --out "$OUT"
    run countermeasures $BIN countermeasures -- --configs 4 --trials 10 --seed 7 --fast --out "$OUT"
    run multiprobe $BIN multiprobe -- --configs 4 --trials 10 --seed 7 --fast --out "$OUT"
    run multiswitch $BIN multiswitch -- --configs 4 --trials 10 --seed 7 --fast --out "$OUT"
    run robustness_rates $BIN robustness_rates -- --configs 4 --trials 10 --seed 7 --fast --out "$OUT"
    run defense_transform $BIN defense_transform -- --configs 3 --trials 10 --seed 7 --fast --out "$OUT"
    run sweep_parameters $BIN sweep_parameters -- --configs 2 --trials 10 --seed 7 --fast --out "$OUT"
    run fault_sweep $BIN fault_sweep -- --configs 4 --trials 10 --seed 7 --fast --out "$OUT"
    run evaluate_suite $BIN evaluate_suite -- --configs 4 --trials 10 --seed 7 --fast --out "$OUT"
    # Fig 6 from its own configuration class; a directory of its own, as
    # evaluate_suite above writes the same two file names.
    run fig6 $BIN fig6 -- --configs 4 --trials 10 --seed 7 --fast --out "$OUT/fig6"
    run defense_tournament $BIN defense_tournament -- --configs 4 --trials 10 --seed 7 --fast --out "$OUT"
    # The tournament CSV must not depend on the trial engine's thread
    # count: rerun with 8 threads and require byte equality.
    run defense_tournament_t8 $BIN defense_tournament -- --configs 4 --trials 10 --seed 7 --fast --threads 8 --out "$OUT/t8"
    run tournament_csv_thread_equality cmp "$OUT/defense_tournament.csv" "$OUT/t8/defense_tournament.csv"
    # Observability must be free: rerun fault_sweep with the recorder on,
    # require a byte-identical CSV, then render the manifest report.
    run fault_sweep_obs $BIN fault_sweep -- --configs 4 --trials 10 --seed 7 --fast --obs --out "$OUT/obs"
    run obs_csv_byte_equality cmp "$OUT/fault_sweep.csv" "$OUT/obs/fault_sweep.csv"
    run obs_manifest_nonempty test -s "$OUT/obs/fault_sweep.manifest.jsonl"
    run diagnose cargo run --release -p flow-recon -- diagnose --results "$OUT/obs"
    # Crash-safety gates: cut a supervised grid at a checkpoint boundary
    # (exit 130, checkpoint + partial CSV flushed), resume it, and
    # require the CSV byte-identical to the uninterrupted run above —
    # for the two grid sweeps, and for countermeasures on behalf of the
    # other programs on the supervised runner.
    run_interrupted fault_sweep_kill $BIN fault_sweep -- --configs 4 --trials 10 --seed 7 --fast --checkpoint-every 1 --kill-after-checkpoints 2 --out "$OUT/chaos"
    run fault_sweep_resume $BIN fault_sweep -- --configs 4 --trials 10 --seed 7 --fast --resume --checkpoint-every 1 --out "$OUT/chaos"
    run fault_sweep_resume_equality cmp "$OUT/fault_sweep.csv" "$OUT/chaos/fault_sweep.csv"
    run_interrupted defense_tournament_kill $BIN defense_tournament -- --configs 4 --trials 10 --seed 7 --fast --checkpoint-every 2 --kill-after-checkpoints 2 --out "$OUT/chaos"
    run defense_tournament_resume $BIN defense_tournament -- --configs 4 --trials 10 --seed 7 --fast --resume --checkpoint-every 2 --out "$OUT/chaos"
    run defense_tournament_resume_equality cmp "$OUT/defense_tournament.csv" "$OUT/chaos/defense_tournament.csv"
    run_interrupted countermeasures_kill $BIN countermeasures -- --configs 4 --trials 10 --seed 7 --fast --checkpoint-every 2 --kill-after-checkpoints 3 --out "$OUT/chaos"
    run countermeasures_resume $BIN countermeasures -- --configs 4 --trials 10 --seed 7 --fast --resume --checkpoint-every 2 --out "$OUT/chaos"
    run countermeasures_resume_equality cmp "$OUT/countermeasures.csv" "$OUT/chaos/countermeasures.csv"
    # Supervisor soak: injected panics, watchdog stalls, kill/resume
    # cycles and checkpoint-corruption detection on a synthetic job.
    run chaos_soak cargo run --release -p experiments --bin chaos_soak -- --smoke --out "$OUT/chaos/soak"
    exit 0
fi

run latency_table $BIN latency_table -- --seed 7
run scalability $BIN scalability -- --seed 7
run ablation_evaluators $BIN ablation_evaluators -- --seed 7
run countermeasures $BIN countermeasures -- --configs 25 --trials 80 --seed 7
run multiprobe $BIN multiprobe -- --configs 25 --trials 80 --seed 7
run multiswitch $BIN multiswitch -- --configs 25 --trials 80 --seed 7
run robustness_rates $BIN robustness_rates -- --configs 25 --trials 80 --seed 7
run defense_transform $BIN defense_transform -- --configs 15 --trials 60 --seed 7
run sweep_parameters $BIN sweep_parameters -- --configs 8 --trials 60 --seed 7
# Every trial-running step runs on the supervised runner; the two grid
# sweeps are the long-running ones, so they also checkpoint
# periodically and a killed run resumes instead of starting over
# (--resume is a no-op when no checkpoint exists).
run fault_sweep $BIN fault_sweep -- --configs 25 --trials 80 --seed 7 --obs --checkpoint-every 5 --resume
run evaluate_suite $BIN evaluate_suite -- --configs 40 --trials 100 --seed 7 --obs
run defense_tournament $BIN defense_tournament -- --configs 25 --trials 80 --seed 7 --obs --checkpoint-every 5 --resume
run render_figures $BIN render_figures
# Render every run manifest into the diagnose report (+ SVG histograms).
run diagnose cargo run --release -p flow-recon -- diagnose --results results --svg results/diagnose.svg
