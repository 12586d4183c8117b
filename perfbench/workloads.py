"""The four benchmark workloads: their cases, seeded inputs and outcome checks.

A case is one operation a user would ask for: one pencil block, one exact
certification or one oracle verification.  Its `run` calls the program only
through public functions, looked up on the module at call time so that an
installed tracer sees the call; its `check` compares the outcome with a value
known independently of the code under test.  Expected levels are written out
here from the closed forms rather than taken from `tcsm`.

See README.md in this directory for why each workload exists.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

import numpy as np

import program
from tcsm import cli, dual_paths, model, oracle, polyalg, spectral, wavefunction
from tcsm.wavefunction import (
    BOOSTED,
    COMBO,
    COS_SUM,
    E1,
    EN,
    ENM1,
    GROUND,
    NONDEG_ZERO,
    SIN_SUM,
    StateSpec,
)

GOLDEN = program.ROOT / "tests" / "goldens" / "spectrum_n6_r2_beta1.json"

LEVEL_RTOL = 1e-8  # reduced level or energy against its closed form
DUAL_RTOL = 1e-12  # analytic against dual-number derivatives
ONE = Fraction(1)


@dataclass(frozen=True)
class Case:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]  # problems with the outcome; empty when right


def _close(got: float, want: float, rtol: float) -> bool:
    return abs(got - want) <= rtol * (abs(want) + 1.0)


def _cli(argv: list[str]):
    """Run the CLI in-process; return (exit code, parsed JSON document or None)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    text = out.getvalue()
    return code, (json.loads(text) if text else None)


def _cli_problems(outcome) -> tuple[list[str], dict]:
    code, doc = outcome
    problems = [] if code == 0 else [f"exit code {code}"]
    return problems, doc or {}


# -- pencil-scan -------------------------------------------------------------

PENCIL_BLOCKS = [(6, 2, d) for d in range(1, 7)] + [(7, 2, d) for d in range(1, 7)]
PENCIL_VIA_CLI = (7, 2, 6)


def _spectrum_problems(n: int, r: int, d: int, doc: dict, golden: dict) -> list[str]:
    problems = []
    if doc.get("ambiguous_pairs") != 0:
        problems.append(f"ambiguous pairs: {doc.get('ambiguous_pairs')}")
    got = [(e["value"], e["multiplicity"]) for e in doc.get("eigenvalues", [])]
    if (n, r) == (6, 2):
        entry = golden[d]
        want = [(e["value"], e["multiplicity"]) for e in entry["eigenvalues"]]
        dims = (doc.get("dim_symmetric"), doc.get("dim_cyclic"))
        if dims != (entry["dim_symmetric"], entry["dim_cyclic"]):
            problems.append(f"basis dims {dims} differ from the golden")
        if len(got) != len(want) or not all(
            m == wm and _close(v, wv, 1e-9) for (v, m), (wv, wm) in zip(got, want)
        ):
            problems.append(f"certified {got} differ from the golden {want}")
    else:
        closed_form = {1: 1 + 2 * r, n - 1: (n - 1) + 2 * r}
        if d in closed_form and not any(_close(v, closed_form[d], LEVEL_RTOL) for v, _ in got):
            problems.append(f"closed-form level {closed_form[d]} not certified in {got}")
    return problems


def pencil_scan(seeds: Iterator[int]) -> list[Case]:
    golden = {entry["degree"]: entry for entry in json.loads(GOLDEN.read_text())}
    cases = []
    for n, r, d in PENCIL_BLOCKS:
        if (n, r, d) == PENCIL_VIA_CLI:
            argv = ["spectrum", "--n", str(n), "--r", str(r), "--degree", str(d), "--beta", "1"]

            def run(argv=argv):
                return _cli(argv)

            def check(outcome, n=n, r=r, d=d):
                problems, doc = _cli_problems(outcome)
                return problems + _spectrum_problems(n, r, d, doc, golden)

        else:

            def run(n=n, r=r, d=d):
                params = model.derive_params(n, r, beta=1.0)
                return spectral.spectrum_report(spectral.H1Operator.build(params), d, 1.0)

            def check(report, n=n, r=r, d=d):
                return _spectrum_problems(n, r, d, report.to_dict(), golden)

        cases.append(Case(f"spectrum n={n} r={r} d={d}", run, check))
    return cases


# -- exact-certify -----------------------------------------------------------

EXACT_SIZES = ((8, 3), (12, 4), (16, 5))
BOOST_QS = (-1, 1, 2)


def exact_certify(seeds: Iterator[int]) -> list[Case]:
    cases = []
    for n, r in EXACT_SIZES:
        rb = 2 * r  # drift weight times beta, beta = 1

        def op(n=n, r=r):
            return spectral.H1Operator.build(model.derive_params(n, r, beta=1.0))

        e1 = polyalg.elementary_symmetric(1, n)
        enm1 = polyalg.elementary_symmetric(n - 1, n)
        en = polyalg.elementary_symmetric(n, n)
        combo = e1 * enm1 - en.scale(Fraction(n, 1 + rb))
        kappa0 = e1 * polyalg.power_sum(-1, n) - polyalg.LaurentPoly.constant(n, Fraction(n, 1 + rb))
        eigen = {
            "e1": (e1, 1, 1 + rb),
            "enm1": (enm1, n - 1, (n - 1) + rb),
            "en": (en, n, n),
            "combo": (combo, n, n + 2 * (1 + rb)),
        }
        for label, (poly, _, level) in eigen.items():

            def run(poly=poly, op=op):
                return spectral.exact_eigencheck(op(), poly, ONE)

            def check(lam, level=level):
                return [] if lam == level else [f"eigenvalue {lam}, expected {level}"]

            cases.append(Case(f"eigencheck {label} n={n} r={r}", run, check))

        def run(op=op, e1=e1):
            return spectral.parity_partner(op(), e1, ONE)

        def check(res, level=1 + rb, enm1=enm1):
            ok = res.lam == res.lam_partner == level and res.partner == enm1
            return [] if ok and not res.self_paired else [f"e1 parity result {res.lam}, {res}"]

        cases.append(Case(f"parity e1 n={n} r={r}", run, check))

        def run(op=op, kappa0=kappa0):
            return spectral.parity_partner(op(), kappa0, ONE)

        def check(res, level=2 + 2 * rb):
            ok = res.lam == res.lam_partner == level and res.self_paired
            return [] if ok else [f"kappa=0 parity result {res.lam}, self_paired={res.self_paired}"]

        cases.append(Case(f"parity kappa0 n={n} r={r}", run, check))

        for label in ("e1", "enm1", "en"):
            poly, degree, _ = eigen[label]
            for q in BOOST_QS:

                def run(op=op, poly=poly, q=q):
                    return spectral.boost_shift_check(op(), poly, q, ONE)

                def check(bc, shift=2 * q * degree + n * q * q):
                    ok = bc.matches == "operator" and bc.shift == shift
                    return [] if ok else [f"boost shift {bc.shift} ({bc.matches}), expected {shift}"]

                cases.append(Case(f"boost {label} q={q} n={n} r={r}", run, check))
    return cases


# -- oracle-scale ------------------------------------------------------------

SCALE_R = 8
SCALE_SIZES = ((32, 2000), (48, 2000), (64, 1000))  # (N, samples)
SCALE_VIA_CLI = 64


def _ground_energy(n: int, r: int, beta: float, length: float) -> float:
    """Closed-form ground energy for N >= 3r+1, where the boundary term vanishes."""
    assert n >= 3 * r + 1
    return beta * beta * n * r * (r + 1) / 2 * (math.pi / length) ** 2


def oracle_scale(seeds: Iterator[int]) -> list[Case]:
    cases = []
    for n, samples in SCALE_SIZES:
        seed = next(seeds)
        e0 = _ground_energy(n, SCALE_R, 1.0, 2.0 * math.pi)
        if n == SCALE_VIA_CLI:
            argv = ["verify-ground", "--n", str(n), "--r", str(SCALE_R), "--samples", str(samples),
                    "--seed", str(seed)]

            def run(argv=argv):
                return _cli(argv)

            def check(outcome, e0=e0):
                problems, doc = _cli_problems(outcome)
                return problems + _ground_problems(doc, e0)

        else:

            def run(n=n, samples=samples, seed=seed):
                params = model.derive_params(n, SCALE_R, beta=1.0)
                return oracle.verify_eigenstate(
                    params,
                    StateSpec(GROUND),
                    count=samples,
                    seed=seed,
                    predicted=model.ground_energy_physical(params),
                )

            def check(report, e0=e0):
                return _ground_problems(report.to_dict(), e0)

        cases.append(Case(f"verify-ground n={n} r={SCALE_R} seed={seed}", run, check))
    return cases


def _ground_problems(doc: dict, e0: float) -> list[str]:
    problems = []
    if doc.get("verdict") != oracle.PASS:
        problems.append(f"verdict {doc.get('verdict')}")
    if not _close(doc.get("energy_mean", math.nan), e0, LEVEL_RTOL):
        problems.append(f"energy {doc.get('energy_mean')}, expected {e0}")
    if not _close(doc.get("reduced_mean", math.nan), 0.0, LEVEL_RTOL):
        problems.append(f"reduced level {doc.get('reduced_mean')}, expected 0")
    return problems


# -- oracle-states -----------------------------------------------------------

STATE_SIZES = ((6, 2), (9, 3), (12, 4))
STATE_BETAS = (1.0, 2.5)
STATE_SAMPLES = 5000
DUAL_SAMPLES = 1000
TABLE_SAMPLES = 2000
BOOSTED_BASES = (E1, ENM1, EN, COMBO, NONDEG_ZERO)
# the published table with the (9, 3) row adjudicated: 57, not 30
TABLE1 = {(6, 2): 20, (7, 2): 21, (8, 2): 24, (8, 3): 56, (9, 2): 27, (9, 3): 57}
TABLE1_CONFLICT = (9, 3)


def _levels(n: int, rb: float) -> dict:
    """kind -> (reduced level, homogeneous degree or None) in the truncated regime."""
    return {
        E1: (1 + rb, 1),
        ENM1: ((n - 1) + rb, n - 1),
        EN: (float(n), n),
        COMBO: (n + 2 * (1 + rb), n),
        COS_SUM: (1 + rb, None),
        SIN_SUM: (1 + rb, None),
        NONDEG_ZERO: (2 + 2 * rb, 0),
    }


def oracle_states(seeds: Iterator[int]) -> list[Case]:
    cases = []
    for n, r in STATE_SIZES:
        for beta in STATE_BETAS:
            levels = _levels(n, 2 * r * beta)
            specs = [(StateSpec(kind), level) for kind, (level, _) in levels.items()]
            for kind in BOOSTED_BASES:
                level, degree = levels[kind]
                boosted = StateSpec(BOOSTED, q=1, base=StateSpec(kind))
                specs.append((boosted, level + 2 * degree + n))
            for spec, level in specs:
                seed = next(seeds)

                def run(n=n, r=r, beta=beta, spec=spec, seed=seed):
                    params = model.derive_params(n, r, beta=beta)
                    return oracle.verify_eigenstate(
                        params,
                        spec,
                        count=STATE_SAMPLES,
                        seed=seed,
                        predicted=oracle.predicted_physical(spec, params),
                    )

                def check(report, level=level):
                    problems = [] if report.verdict == oracle.PASS else [f"verdict {report.verdict}"]
                    if not _close(report.reduced_mean, level, LEVEL_RTOL):
                        problems.append(f"reduced level {report.reduced_mean}, expected {level}")
                    return problems

                cases.append(
                    Case(f"verify {spec.label()} n={n} r={r} beta={beta} seed={seed}", run, check)
                )
            seed = next(seeds)
            cases.append(
                Case(f"dual derivatives n={n} r={r} beta={beta} seed={seed}",
                     _dual_run(n, r, beta, seed), _dual_check)
            )
    seed = next(seeds)

    def run_table():
        return cli.run_table1_rows(samples=TABLE_SAMPLES, seed=seed)

    cases.append(Case(f"table1 seed={seed}", run_table, _table_check))
    return cases


def _dual_run(n: int, r: int, beta: float, seed: int):
    def run():
        params = model.derive_params(n, r, beta=beta)
        x = oracle.sample_positions(params, DUAL_SAMPLES, seed)
        ga = wavefunction.grad_log_psi0(params, x)
        la = wavefunction.laplacian_ratio_psi0(params, x)
        gd, sd = dual_paths.dual_grad_and_second_log_psi0(params, x)
        ld = (gd * gd).sum(axis=-1) + sd.sum(axis=-1)
        rel_g = float(np.abs(ga - gd).max() / (np.abs(ga).max() + 1.0))
        rel_l = float(np.abs(la - ld).max() / (np.abs(la).max() + 1.0))
        return rel_g, rel_l

    return run


def _dual_check(outcome) -> list[str]:
    rel_g, rel_l = outcome
    return [] if rel_g < DUAL_RTOL and rel_l < DUAL_RTOL else [f"derivative mismatch {outcome}"]


def _table_check(rows) -> list[str]:
    problems = []
    got = {(row["N"], row["r"]): row for row in rows}
    if set(got) != set(TABLE1):
        problems.append(f"table rows {sorted(got)}")
    for key, value in TABLE1.items():
        row = got.get(key, {})
        if row.get("formula") != value:
            problems.append(f"row {key}: formula {row.get('formula')}, expected {value}")
        if key == TABLE1_CONFLICT:
            if row.get("verdict") != "conflict" or row.get("oracle_confirms_formula") is not True:
                problems.append(f"row {key} not adjudicated to {value}: {row}")
        elif row.get("verdict") != "match":
            problems.append(f"row {key}: verdict {row.get('verdict')}")
    return problems


# -- registry and passes -----------------------------------------------------

WORKLOADS = {
    "pencil-scan": pencil_scan,
    "exact-certify": exact_certify,
    "oracle-scale": oracle_scale,
    "oracle-states": oracle_states,
}

def make_cases(workload: str, seed: int, stream: int = 0) -> list[Case]:
    """Cases of one workload; every sampler seed is derived from (seed, stream)."""
    state = np.random.SeedSequence(seed, spawn_key=(stream,)).generate_state(256)
    return WORKLOADS[workload](iter(int(s) for s in state))


def run_pass(cases: list[Case]) -> tuple[list, list[str]]:
    """Run and check every case; return (outcomes, failures).

    A case fails when it raises or when its check finds a problem; the
    failure is recorded with the exception name and the pass goes on.
    """
    outcomes, failures = [], []
    for case in cases:
        try:
            outcome = case.run()
        except Exception as exc:  # counted against fail_frac, never fatal
            outcomes.append(None)
            failures.append(f"{case.name}: {type(exc).__name__}: {exc}")
            continue
        outcomes.append(outcome)
        problems = case.check(outcome)
        if problems:
            failures.append(f"{case.name}: {'; '.join(problems)}")
    return outcomes, failures
