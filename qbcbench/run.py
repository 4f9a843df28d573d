#!/usr/bin/env python3
"""Benchmark of the mzqbc package: three workloads, calibrated timings.

Run from the root of a checkout:

    python3 qbcbench/run.py --workload photon_sessions --seed 1 --seconds 30 --trace 0

Workloads: photon_sessions, mc_games, reports (see README.md).  With
--trace 0 the last line of stdout is one JSON object with the end-to-end
metrics; with --trace 1 a traced run reports the per-layer metrics
instead and writes its spans under qbcbench/out/.  Exit code 0 means the
run finished; `correct` in the JSON says whether every output checked
out.  Readable tables with raw and calibrated figures come before it.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: One BLAS/OpenMP thread and a fixed hash seed, so that the load stays
#: within two cores and a run repeats.
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
COLD_STARTS = 15
COLD_START_TIMEOUT_S = 60


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--cold-start", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def log(*parts) -> None:
    print(*parts, flush=True)


def cold_start(args) -> float:
    """Wall time of one complete cold start: interpreter, imports, inputs
    built from the seed and caches warmed by one pass of every operation."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--cold-start"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          timeout=COLD_START_TIMEOUT_S, text=True)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"cold start failed: {proc.stderr[-500:]}")
    return elapsed


class Clock:
    """Times steps and the reference load between them.

    A step is scaled by the median of the last REF_WINDOW reference
    measurements, the one right after it included: a single 10-30 ms
    measurement catches transient spikes, while the median of a few still
    follows the machine's slow and fast spells.
    """

    REF_WINDOW = 7

    def __init__(self, reference):
        self.reference = reference
        self.refs = [reference.measure()]

    def factor(self) -> float:
        return self.reference.nominal_s / statistics.median(self.refs[-self.REF_WINDOW:])

    def step(self, fn) -> tuple[float, float]:
        """(raw seconds, calibration factor) of one step."""
        t0 = time.perf_counter()
        fn()
        raw = time.perf_counter() - t0
        self.refs.append(self.reference.measure())
        return raw, self.factor()


def run_round(workload, clock, tracer=None) -> list[tuple[str, float, float]]:
    rows = []
    for label, fn in workload.steps():
        if tracer is not None:
            tracer.install()
        raw, factor = clock.step(fn)
        if tracer is not None:
            tracer.uninstall()
            tracer.flush(factor)
        rows.append((label, raw, factor))
    return rows


def summarize(rounds) -> dict:
    """Median round time, raw and calibrated, and per-step medians."""
    raw = [sum(r for _, r, _ in rnd) for rnd in rounds]
    cal = [sum(r * f for _, r, f in rnd) for rnd in rounds]
    steps = {}
    for rnd in rounds:
        for label, r, f in rnd:
            steps.setdefault(label, []).append((r, r * f))
    return {
        "raw_s": statistics.median(raw),
        "cal_s": statistics.median(cal),
        "steps": {k: (statistics.median(a for a, _ in v), statistics.median(b for _, b in v))
                  for k, v in steps.items()},
    }


def user_figures(name: str, work: dict, summary, rounds: int) -> dict[str, tuple[float, float, str]]:
    """The workload's own figures as (raw, calibrated, unit); `work` is
    what the summarized rounds did."""
    out = {}
    per_round = {k: v / rounds for k, v in work.items()}
    steps = summary["steps"]

    def rate(key, labels):
        raw = sum(steps[k][0] for k in labels)
        cal = sum(steps[k][1] for k in labels)
        return per_round[key] / raw, per_round[key] / cal

    if "photons" in per_round and name == "photon_sessions":
        r, c = rate("photons", list(steps))
        out["photons_per_s"] = (r, c, "photons/s")
    for game in ("binding", "concealing"):
        labels = [k for k in steps if k.startswith(game + "/")]
        if labels:
            r, c = rate(f"{game}_trials", labels)
            out[f"{game}_trials_per_s"] = (r, c, "trials/s")
    if name == "reports":
        out["reports_s"] = (summary["raw_s"], summary["cal_s"], "s")
    return out


def layer_metrics(tracer, work: dict, rounds: int, overhead_pct: float) -> dict:
    """Per-layer metrics per traced round, the traced set-up added once;
    `work` is what the traced rounds did."""
    from tracing import CALLS, ENTRIES, INCLUSIVE_S, SELF_S

    photons = work.get("photons", 0) / rounds
    counters = tracer.counters
    m = {}
    for layer in ("optics", "strategies", "codes", "kernels", "protocol",
                  "operator_model", "counterfactual", "cli"):
        m[f"{layer}.self_s"] = (tracer.layer(layer, SELF_S, rounds), "s")
        m[f"{layer}.calls"] = (tracer.layer(layer, ENTRIES, rounds), "count")
    m["optics.us_per_photon"] = (m["optics.self_s"][0] / photons * 1e6 if photons else 0.0, "us")
    for name, key in [
        ("strategies.apply_strategy", "strategies.apply_strategy"),
        ("strategies.detection_prob", "strategies.detection_prob"),
        ("strategies.search_epsilon", "strategies.search_epsilon"),
        ("codes.sample_codeword", "codes.sample_codeword"),
        ("codes.consistent_codewords", "codes.consistent_codewords"),
        ("codes.codewords", "codes.LinearCode.codewords"),
        ("codes.coset_parities", "codes.coset_parities"),
        ("codes.min_distance", "codes.min_distance_of_generator"),
        ("kernels.min_weight", "kernels.min_weight"),
        ("kernels.binding_counts", "kernels.binding_counts"),
        ("kernels.concealing_stats", "kernels.concealing_stats"),
        ("protocol.run_unveil", "protocol.run_unveil"),
        ("operator_model.initial_composite_state", "operator_model.initial_composite_state"),
        ("operator_model.apply_mode_unitary", "operator_model.apply_mode_unitary"),
        ("operator_model.rotate_beta", "operator_model.rotate_beta"),
        ("operator_model.partial_trace", "operator_model.partial_trace"),
        ("counterfactual.fbs_run", "counterfactual.fbs_run"),
        ("cli.nogo", "cli.cmd_nogo"),
        ("cli.strategies", "cli.cmd_strategies"),
        ("cli.counterfactual", "cli.cmd_counterfactual"),
    ]:
        m[f"{name}_s"] = (tracer.per_round(key, INCLUSIVE_S, rounds), "s")
    for name, key in [
        ("strategies.apply_strategy.calls", "strategies.apply_strategy"),
        ("codes.sample_codeword.calls", "codes.sample_codeword"),
        ("counterfactual.fbs_run.calls", "counterfactual.fbs_run"),
    ]:
        m[name] = (tracer.per_round(key, CALLS, rounds), "count")
    for name, key in [
        ("protocol.run_commit_self_s", "protocol.run_commit"),
        ("operator_model.alice_local_invariance_self_s", "operator_model.alice_local_invariance"),
        ("counterfactual.attack_session_self_s", "counterfactual.attack_session"),
    ]:
        m[name] = (tracer.per_round(key, SELF_S, rounds), "s")
    m["protocol.draw_s"] = (
        tracer.per_round("protocol.run_binding_experiment", SELF_S, rounds)
        + tracer.per_round("protocol.run_concealing_experiment", SELF_S, rounds), "s")
    bind_trials = counters.get("kernels.binding_counts.trials", 0)
    m["kernels.ns_per_binding_trial"] = (
        tracer.inclusive_s("kernels.binding_counts") / bind_trials * 1e9 if bind_trials else 0.0, "ns")
    for code in ("extended_hamming", "golay"):
        trials = counters.get(f"kernels.concealing_stats.trials@{code}", 0)
        t = tracer.inclusive_s(f"kernels.concealing_stats@{code}")
        m[f"kernels.us_per_concealing_trial.{code}"] = (t / trials * 1e6 if trials else 0.0, "us")
    m["kernels.concealing_bytes"] = (counters.get("kernels.concealing_bytes", 0), "B")
    m["kernels.concealing_peak_mb"] = (counters.get("kernels.concealing_peak_mb", 0.0), "MB")
    m["trace.overhead_pct"] = (overhead_pct, "%")
    m["trace.spans"] = (len(tracer.spans) + tracer.dropped, "count")
    return m


def measure(args) -> dict:
    import reference
    import workloads

    OUT.mkdir(exist_ok=True)
    cls = workloads.WORKLOADS[args.workload]
    cold_starts = 0 if args.trace else COLD_STARTS
    setup_times = [cold_start(args) for _ in range(min(cold_starts, 1))]
    clock = Clock(reference.Reference(cls.REFERENCE))
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    workload = cls(args.seed, OUT)
    if tracer is not None:
        # building the inputs (codes, minimum distances) is traced once
        tracer.uninstall()
        tracer.flush(clock.factor())
        tracer.end_setup()
    workload.warm_up()
    workload.work.clear()
    workload.attempted = workload.failed = 0

    plain, traced = [], []
    plain_work, traced_work = workload.work, {}
    start = time.perf_counter()
    deadline = start + args.seconds
    while True:
        if tracer is None or len(traced) >= len(plain):
            plain.append(run_round(workload, clock))
        else:
            workload.work = traced_work
            traced.append(run_round(workload, clock, tracer))
            workload.work = plain_work
        # cold starts are spread over the run, so that their median spans
        # the machine's slow and fast spells like the rounds do
        while len(setup_times) < min(cold_starts, cold_starts * (time.perf_counter() - start) / args.seconds):
            setup_times.append(cold_start(args))
        if time.perf_counter() >= deadline and (tracer is None or traced):
            break
    while len(setup_times) < cold_starts:
        setup_times.append(cold_start(args))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failures = workload.check()
    for line in workload.errors + failures:
        print("CHECK FAILED" if line in failures else "OPERATION FAILED", line, file=sys.stderr)

    summary = summarize(plain)
    log(f"workload {args.workload} seed {args.seed}: {len(plain)} rounds"
        + (f" + {len(traced)} traced" if traced else ""))
    log(f"  {'step':<34}{'raw s':>12}{'calibrated s':>14}")
    for label, (r, c) in summary["steps"].items():
        log(f"  {label:<34}{r:>12.5f}{c:>14.5f}")
    log(f"  {'round':<34}{summary['raw_s']:>12.5f}{summary['cal_s']:>14.5f}")
    log(f"  reference load: median {statistics.median(clock.refs):.5f} s over "
        f"{len(clock.refs)} runs, nominal {clock.reference.nominal_s} s "
        f"({' + '.join(cls.REFERENCE)})")
    figures = user_figures(args.workload, plain_work, summary, len(plain))
    for name, (r, c, unit) in figures.items():
        log(f"  {name:<34}{r:>12.2f}{c:>14.2f} {unit}")
    if setup_times:
        log(f"  setup_s cold starts: {', '.join(f'{t:.4f}' for t in setup_times)}")
    log(f"  peak_rss_mb {rss_mb:.2f}")

    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (rss_mb, "MB"),
            "round_s": (summary["cal_s"], "s"),
        }
    else:
        overhead = (summarize(traced)["cal_s"] / summary["cal_s"] - 1.0) * 100
        tracer.measure_memory()
        metrics = layer_metrics(tracer, traced_work, len(traced), overhead)
        tracer.write(OUT / f"spans_{args.workload}_{args.seed}.jsonl")
        (OUT / f"layers_{args.workload}_{args.seed}.json").write_text(
            json.dumps({k: v for k, (v, _) in metrics.items()}, indent=1, sort_keys=True))
        for name, (v, unit) in sorted(metrics.items()):
            log(f"  {name:<48}{v:>16.6g} {unit}")
    return {
        "correct": not failures,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "mzqbc" / "__init__.py").is_file():
        print(f"error: no mzqbc sources under {ROOT / 'src'}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
        script = str(Path(__file__).resolve())
        os.execve(sys.executable, [sys.executable, script, *sys.argv[1:]],
                  {**os.environ, **PINNED_ENV})
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.cold_start:
        workloads.WORKLOADS[args.workload](args.seed, OUT).warm_up()
        return 0
    result = measure(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
