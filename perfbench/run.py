#!/usr/bin/env python3
"""Benchmark of the tcsm toolkit: one workload per run, from one process.

    python3 perfbench/run.py --workload pencil-scan --seed 1 --seconds 28 --trace 0

Workloads: pencil-scan, exact-certify, oracle-scale, oracle-states (see
README.md in this directory).  With `--trace 0` the run reports the
end-to-end metrics `wall_s`, `setup_s` and `peak_rss_mib`, the two times
scaled to a reference host speed (hostspeed.py); with `--trace 1`
it reports the per-layer metrics from spans around the program's public
functions, and the tracing overhead.  Every case of every pass is checked;
`fail_frac` is failed cases over attempted cases.  The last line of standard
output is one JSON object; the exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import hostspeed
import program

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 11
MIN_PASSES = 3


def _timed(run_once, seconds: float, min_runs: int) -> list[float]:
    """Call run_once repeatedly for about `seconds`, at least `min_runs` times.

    A further call starts only while the median call so far still fits in the
    remaining time, so a run measures for at most `seconds` plus the minimum.
    """
    times: list[float] = []
    start = perf_counter()
    while len(times) < min_runs or perf_counter() - start + statistics.median(times) <= seconds:
        t0 = perf_counter()
        run_once(len(times))
        times.append(perf_counter() - t0)
    return times


def _spread(values: list[float]) -> str:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"median of {len(values)}, quartiles {q1:.4f}..{q3:.4f}"


def measure_setup(workload: str, seed: int, probes: int) -> list[tuple[float, float]]:
    """(wall, scaled) set-up times of `probes` fresh interpreters, run one after another."""
    times = []
    for _ in range(probes):
        probe = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), "--workload", workload, "--seed", str(seed)],
            cwd=program.ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        wall, scaled = probe.stdout.split()[-2:]
        times.append((float(wall), float(scaled)))
    return times


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    try:
        program.load()
    except program.ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    import tracing
    import workloads
    from tcsm import oracle

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")

    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds}")
    print("env " + json.dumps(program.environment(), sort_keys=True))
    report: list[str] = []
    metrics: dict[str, tuple[float, str]] = {}
    # half the set-up probes run before the passes and half after, so that
    # the median spans the run rather than one moment of a drifting host
    setup = [] if args.trace else measure_setup(args.workload, args.seed, SETUP_PROBES // 2)

    # in-process set-up: lazy calibration (traced with --trace 1) and the inputs
    tracer = tracing.Tracer()
    with tracer if args.trace else contextlib.nullcontext():
        oracle.conversion_coefficient()
    setup_mark = len(tracer.spans)
    # pass i runs the inputs of seed stream i % 2, so every run checks two seeds
    streams = [workloads.make_cases(args.workload, args.seed, stream) for stream in (0, 1)]
    failures: list[str] = []

    def untraced(i):
        failures.extend(workloads.run_pass(streams[i % 2])[1])

    def traced(i):
        with tracer:
            failures.extend(workloads.run_pass(streams[i % 2])[1])

    if not args.trace:
        walls: list[float] = []
        scaled: list[float] = []

        def sampled(i):
            since = sampler.mark()
            t0 = perf_counter()
            untraced(i)
            walls.append(perf_counter() - t0)
            scaled.append(sampler.normalise(walls[-1], since))

        with hostspeed.Sampler() as sampler:
            _timed(sampled, args.seconds, MIN_PASSES)
        attempted = sum(len(streams[i % 2]) for i in range(len(walls)))
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setup += measure_setup(args.workload, args.seed, SETUP_PROBES - len(setup))
        setup_walls, setup_scaled = (list(column) for column in zip(*setup))
        metrics["wall_s"] = (statistics.median(scaled), "s")
        metrics["setup_s"] = (statistics.median(setup_scaled), "s")
        metrics["peak_rss_mib"] = (peak, "MiB")
        probe_ms = 1e3 * statistics.fmean(sampler.samples)
        report.append(f"wall_s        {metrics['wall_s'][0]:.4f} s    {_spread(scaled)} passes, "
                      f"at reference speed")
        report.append(f"  wall        {statistics.median(walls):.4f} s    {_spread(walls)} passes, "
                      f"mean probe {probe_ms:.4f} ms of {len(sampler.samples)}")
        report.append(f"setup_s       {metrics['setup_s'][0]:.4f} s    {_spread(setup_scaled)} "
                      f"fresh interpreters, at reference speed")
        report.append(f"  wall        {statistics.median(setup_walls):.4f} s    {_spread(setup_walls)}")
        report.append(f"peak_rss_mib  {peak:.1f} MiB")
    else:
        plain: list[float] = []
        with_spans: list[float] = []

        def pair(i):
            # both sides run the same inputs; alternate their order so that
            # neither always runs on a warmer cache
            sides = [(untraced, plain), (traced, with_spans)]
            for run_once, times in sides if i % 2 == 0 else sides[::-1]:
                t0 = perf_counter()
                run_once(i)
                times.append(perf_counter() - t0)

        pairs = _timed(pair, args.seconds, 2)
        attempted = 2 * sum(len(streams[i % 2]) for i in range(len(pairs)))
        totals = tracing.Totals.of(tracer.spans, setup_mark)
        metrics.update(
            tracing.layer_metrics(
                totals,
                len(with_spans),
                tracing.Totals.of(tracer.spans, 0, setup_mark),
                statistics.median(with_spans),
                statistics.median(plain),
            )
        )
        report.append(f"traced pass   {metrics['trace.pass_s'][0]:.4f} s, untraced "
                      f"{statistics.median(plain):.4f} s, overhead "
                      f"{metrics['trace.overhead_s'][0]:.4f} s ({len(pairs)} pairs)")
        report.extend(_shares(totals, len(with_spans), statistics.fmean(with_spans)))
        report.extend(f"{name:44s} {value:.6g} {unit}" for name, (value, unit) in metrics.items())

    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    report.append(f"fail_frac     {len(failures) / attempted:.4g} ratio  "
                  f"({len(failures)} failed of {attempted} cases)")
    print("\n".join(report))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


def _shares(totals, passes: int, pass_s: float) -> list[str]:
    """Inclusive and self time per traced function, as shares of the mean traced pass."""
    lines = [f"{'span':40s} {'calls':>9s} {'incl s':>9s} {'share':>6s} {'self s':>9s} {'share':>6s}"]
    for name in sorted(totals.self_seconds, key=totals.self_seconds.get, reverse=True):
        incl = totals.seconds.get(name, 0.0) / passes
        own = totals.self_seconds[name] / passes
        lines.append(
            f"{name:40s} {totals.calls[name] / passes:9.0f} {incl:9.4f} {incl / pass_s:6.1%} "
            f"{own:9.4f} {own / pass_s:6.1%}"
        )
    return lines


if __name__ == "__main__":
    sys.exit(main())
