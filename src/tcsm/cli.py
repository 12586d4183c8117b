"""Command-line surface: deterministic, machine-readable verification reports.

Every command emits a JSON document with a `verdicts` array; CSV output is
a lossy tabular projection of the same data.  Exit codes: 0 all verdicts
pass, 1 at least one Fail/conflict, 2 usage or parameter-domain error, or a
size that cannot be allocated.

For most commands start-up is most of the run, so this module imports at
module level only what every command needs: `model`, which loads no numpy.
Each handler imports its own route when it runs: `spectrum` the exact
`spectral` route, and the oracle commands `oracle` and `wavefunction`,
which load numpy.  So `params` and `spectrum` never import numpy, and
`csv` is imported only for CSV output.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from . import __version__
from .model import (
    BOOSTED,
    COMBO,
    COS_SUM,
    E1,
    EN,
    ENM1,
    GROUND,
    NO_PREDICTION,
    NONDEG_ZERO,
    PASS,
    SIN_SUM,
    TABLE1_ROWS,
    ParameterDomainError,
    SamplingError,
    derive_params,
    ground_energy_coeff,
    ground_energy_physical,
    ground_energy_reduced,
    triple_count_formula,
    triple_offsets,
)

STATE_NAMES = {
    "ground": GROUND,
    "e1": E1,
    "enm1": ENM1,
    "en": EN,
    "combo": COMBO,
    "cos": COS_SUM,
    "sin": SIN_SUM,
    "nondeg": NONDEG_ZERO,
}

PASSING = {PASS, "match", NO_PREDICTION}


class UsageError(Exception):
    """The command line does not parse."""


class _Parser(argparse.ArgumentParser):
    """Raises UsageError where argparse would print usage text and exit 2."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _common(parser):
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--r", type=int, required=True)
    parser.add_argument("--beta", type=float, default=1.0)
    parser.add_argument("--length", type=float, default=2.0 * math.pi)


def _sampling(parser):
    # the oracle's rounding bound and separation floor are its own, not the caller's
    parser.add_argument("--samples", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=1)


def _output(parser):
    parser.add_argument("--output", choices=("json", "csv"), default="json")
    parser.add_argument("--out", dest="out_path", default=None)


# one parser per process: parsing keeps no state in it, building it takes
# over a millisecond, and each discarded parser is cyclic garbage
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="tcsm",
        description="Verification and spectral analysis for the truncated "
        "inverse-square model on a circle.",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("params", help="derived parameters, counts, ground energy")
    _common(p)
    _output(p)

    p = sub.add_parser("table1", help="reproduce the published ground-energy table")
    _sampling(p)
    _output(p)

    p = sub.add_parser("verify-ground", help="ground-state local-energy oracle")
    _common(p)
    _sampling(p)
    _output(p)

    p = sub.add_parser("verify-excited", help="excited-state local-energy oracle")
    _common(p)
    p.add_argument("--state", choices=sorted(STATE_NAMES), required=True)
    p.add_argument("--q", type=int, default=0, help="Galilei boost exponent")
    _sampling(p)
    _output(p)

    p = sub.add_parser("spectrum", help="degree-block pencil spectrum of the transformed operator")
    _common(p)
    p.add_argument("--degree", type=int, required=True)
    _output(p)

    return ap


def _state_spec(name: str, q: int):
    from .wavefunction import StateSpec

    spec = StateSpec(STATE_NAMES[name])
    if q:
        spec = StateSpec(BOOSTED, q=q, base=spec)
    return spec


def cmd_params(args) -> dict:
    params = derive_params(args.n, args.r, args.length, args.beta)
    # counted from the rules that build the lists, without building them:
    # each site is in drift_weight pairs (N * drift_weight counts each pair
    # twice), and each center has one triple per end offset pair (s, t)
    enumerated = params.n * sum(hi - lo + 1 for _, lo, hi in triple_offsets(params))
    formula = triple_count_formula(params)
    conflict = (args.n, args.r) in TABLE1_ROWS and TABLE1_ROWS[(args.n, args.r)] != int(
        ground_energy_coeff(params)
    )
    verdicts = [
        {"name": "params", "verdict": PASS},
        {"name": "triple_count", "verdict": PASS if enumerated == formula else "Fail"},
    ]
    if conflict:
        verdicts.append({"name": "table1_row", "verdict": "conflict"})
    return {
        "N": params.n,
        "r": params.r,
        "beta": params.beta,
        "L": params.length,
        "g": params.g,
        "G": params.big_g,
        "c": params.c,
        "k": params.k,
        "regime": params.regime,
        "pair_count": params.n * params.drift_weight // 2,
        "triple_count_formula": formula,
        "triple_count_enumerated": enumerated,
        "E0_reduced": ground_energy_reduced(params),
        "E0_physical": ground_energy_physical(params),
        "table1_conflict": conflict,
        "verdicts": verdicts,
    }


def run_table1_rows(samples: int = 2000, seed: int = 1) -> list:
    """One row per entry of `model.TABLE1_ROWS`: the published ground energy
    against the closed form, with the oracle run on each conflicting row."""
    from .oracle import verify_eigenstate

    rows = []
    for (n, r), published in sorted(TABLE1_ROWS.items()):
        params = derive_params(n, r, beta=1.0)
        formula = int(ground_energy_coeff(params))
        verdict = "match" if formula == published else "conflict"
        row = {
            "N": n,
            "r": r,
            "published": published,
            "formula": formula,
            "verdict": verdict,
        }
        if verdict == "conflict":
            # the sampled local energy adjudicates which number is the eigenvalue
            report = verify_eigenstate(
                params,
                _state_spec("ground", 0),
                count=samples,
                seed=seed,
                predicted=ground_energy_physical(params),
            )
            # measured E0 in units of pi^2/L^2: should land on `formula`
            row["oracle_energy_reduced"] = (
                report.energy_mean * params.length**2 / math.pi**2
            )
            row["oracle_confirms_formula"] = report.verdict == PASS
            row["oracle_rounding_multiple"] = report.rounding_multiple
        rows.append(row)
    return rows


def cmd_table1(args) -> dict:
    rows = run_table1_rows(args.samples, args.seed)
    verdicts = [
        {"name": f"table1_{row['N']}_{row['r']}", "verdict": row["verdict"]} for row in rows
    ]
    return {"rows": rows, "verdicts": verdicts}


def _verify(args, spec) -> dict:
    from .oracle import predicted_physical, verify_eigenstate

    params = derive_params(args.n, args.r, args.length, args.beta)
    report = verify_eigenstate(
        params,
        spec,
        count=args.samples,
        seed=args.seed,
        predicted=predicted_physical(spec, params),
    )
    d = report.to_dict()
    d["verdicts"] = [{"name": spec.label(), "verdict": report.verdict}]
    return d


def cmd_verify_ground(args) -> dict:
    return _verify(args, _state_spec("ground", 0))


def cmd_verify_excited(args) -> dict:
    return _verify(args, _state_spec(args.state, args.q))


def cmd_spectrum(args) -> dict:
    from .spectral import H1Operator, spectrum_report

    params = derive_params(args.n, args.r, args.length, args.beta)
    op = H1Operator.build(params)
    d = spectrum_report(op, args.degree, args.beta).to_dict()
    d["verdicts"] = [{"name": f"spectrum_d{args.degree}", "verdict": PASS}]
    return d


def _to_csv(result: dict) -> str:
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    # the document's table key picks the layout, so an empty table keeps it
    if "rows" in result:
        rows = result["rows"]
        keys = sorted({k for row in rows for k in row})
    elif "eigenvalues" in result:
        rows, keys = result["eigenvalues"], ["multiplicity", "value"]
    else:
        rows = [{"key": k, "value": json.dumps(v, sort_keys=True)}
                for k, v in sorted(result.items()) if k != "verdicts"]
        keys = ["key", "value"]
    writer.writerow(keys)
    for row in rows:
        writer.writerow([row.get(k, "") for k in keys])
    return buf.getvalue()


HANDLERS = {
    "params": cmd_params,
    "table1": cmd_table1,
    "verify-ground": cmd_verify_ground,
    "verify-excited": cmd_verify_excited,
    "spectrum": cmd_spectrum,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        result = HANDLERS[args.command](args)
    except SystemExit as exc:  # --help and --version
        return exc.code or 0
    except (UsageError, ParameterDomainError, SamplingError, MemoryError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2
    result["command"] = args.command
    result["schema_version"] = "4"
    if args.command in ("table1", "verify-ground", "verify-excited"):
        from .oracle import conversion_coefficient

        result["conversion_c0"] = conversion_coefficient()
    if args.output == "csv":
        text = _to_csv(result)
    else:
        text = json.dumps(result, sort_keys=True, indent=2) + "\n"
    if args.out_path:
        try:
            with open(args.out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(json.dumps({"error": str(exc)}), file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    ok = all(v["verdict"] in PASSING for v in result.get("verdicts", []))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
