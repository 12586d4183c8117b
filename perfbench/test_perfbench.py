"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/test_perfbench.py

Each workload is run once untraced and once traced: the outcomes must be
bit-identical, and every per-layer metric must be emitted, non-zero for the
layers the workload runs.  The command-line contract is checked on the
cheapest settings, and against a directory that holds no program.
"""

import json
import shutil
import signal
import subprocess
import sys
from time import perf_counter

import pytest

import hostspeed
import program

program.load()

import tracing  # noqa: E402
import workloads  # noqa: E402
from tcsm import model, oracle, spectral, wavefunction  # noqa: E402
from tcsm.wavefunction import GROUND, StateSpec  # noqa: E402

BENCHMARK = json.loads((program.ROOT / "BENCHMARK.json").read_text())
PER_LAYER = [m["name"] for m in BENCHMARK["per_layer"]]
END_TO_END = [m["name"] for m in BENCHMARK["end_to_end"]]

PENCIL = {
    "polyalg.basis_s", "polyalg.dim_cyclic", "polyalg.project_s", "polyalg.exact_divide_s",
    "polyalg.exact_divide_calls", "spectral.apply_H1_s", "spectral.apply_H1_calls",
    "spectral.build_pencil_s", "spectral.solve_pencil_s", "spectral.certified_ratio",
    "spectral.candidate_pairs",
}
EXACT = {
    "polyalg.exact_divide_s", "polyalg.exact_divide_calls", "spectral.apply_H1_s",
    "spectral.apply_H1_calls", "spectral.exact_eigencheck_s",
}
ORACLE = {
    "model.three_body_triples_s", "model.three_body_triples_calls",
    "wavefunction.grad_log_psi0_s", "wavefunction.grad_log_psi0_calls",
    "wavefunction.laplacian_ratio_psi0_s", "wavefunction.phi_eval_batch_s",
    "wavefunction.min_cyclic_separation_s", "oracle.sample_positions_s", "oracle.draws",
    "oracle.accept_ratio", "oracle.potential_energy_s", "oracle.local_energy_batch_s",
    "oracle.samples_per_s",
}
ALWAYS = {"model.interaction_pairs_calls", "oracle.conversion_coefficient_s", "trace.pass_s"}
RUNS = {
    "pencil-scan": PENCIL | {"cli.main_self_s"},
    "exact-certify": EXACT,
    "oracle-scale": ORACLE | {"cli.main_self_s"},
    "oracle-states": ORACLE | {"dual_paths.dual_grad_and_second_log_psi0_s"},
}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_pass_is_bit_identical_and_emits_every_layer(workload):
    originals = (spectral.apply_H1, oracle.grad_log_psi0, wavefunction.grad_log_psi0)
    cases = workloads.make_cases(workload, 7)
    tracer = tracing.Tracer()
    with tracer:
        oracle.conversion_coefficient()
    mark = len(tracer.spans)
    plain, failures = workloads.run_pass(cases)
    assert failures == []
    with tracer:
        traced, failures = workloads.run_pass(cases)
    assert failures == []
    assert traced == plain
    assert (spectral.apply_H1, oracle.grad_log_psi0, wavefunction.grad_log_psi0) == originals

    metrics = tracing.layer_metrics(
        tracing.Totals.of(tracer.spans, mark), 1, tracing.Totals.of(tracer.spans, 0, mark), 1.0, 1.0
    )
    assert list(metrics) == PER_LAYER
    nonzero = {name for name, (value, _) in metrics.items() if value}
    assert RUNS[workload] | ALWAYS <= nonzero
    layers_run = {name.split(".")[0] for name in RUNS[workload]}
    idle = {name for name in PER_LAYER if name.split(".")[0] not in layers_run | {"model", "trace"}}
    assert not (nonzero & idle) - ALWAYS


def test_tracer_catches_calls_inside_the_package():
    params = model.derive_params(6, 2)
    x = oracle.sample_positions(params, 4, seed=1)
    with tracing.Tracer() as tracer:
        oracle.local_energy_batch(params, StateSpec(GROUND), x)
    names = [span.name for span in tracer.spans]
    # one grad_log_psi0 from local_energy_batch, one from inside laplacian_ratio_psi0
    assert names.count("wavefunction.grad_log_psi0") == 2
    lap = names.index("wavefunction.laplacian_ratio_psi0")
    assert any(s.parent == lap and s.name == "wavefunction.grad_log_psi0" for s in tracer.spans)


def test_sampler_scales_probe_work_to_its_reference_time():
    # work made of probes alone takes, at any host speed, one reference probe
    # time per probe; the sampler's own probes are taken out of the interval
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.Sampler() as sampler:
        since = sampler.mark()
        t0 = perf_counter()
        for _ in range(2000):
            hostspeed.probe()
        scaled = sampler.normalise(perf_counter() - t0, since)
    assert len(sampler.samples) > since
    assert scaled == pytest.approx(2000 * hostspeed.REFERENCE_PROBE_S, rel=0.2)
    assert signal.getsignal(signal.SIGALRM) is before


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace,names", [("0", END_TO_END), ("1", PER_LAYER)])
def test_command_line_contract(trace, names):
    done = _run(program.ROOT, "--workload", "pencil-scan", "--seed", "3", "--seconds", "1",
                "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    assert sorted(result["metrics"]) == sorted(names)


def test_fails_without_the_program(tmp_path):
    shutil.copy(program.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(program.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "--workload", "pencil-scan", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert "correct" not in done.stdout
