"""One fresh-interpreter set-up: import `tcsm`, finish its lazy calibration
(`oracle.conversion_coefficient()`) and generate a workload's inputs.

Prints the wall seconds this took and the same time scaled to the reference
host speed (hostspeed.py).  `run.py` starts it several times per run and
reports the median scaled time as `setup_s`.

    python3 perfbench/setup_probe.py --workload oracle-scale --seed 1
"""

from time import perf_counter

START = perf_counter()

import hostspeed  # noqa: E402

SAMPLER = hostspeed.Sampler().start()

import argparse  # noqa: E402

import program  # noqa: E402


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    program.load()
    import workloads
    from tcsm import oracle

    oracle.conversion_coefficient()
    workloads.make_cases(args.workload, args.seed)
    elapsed = perf_counter() - START
    SAMPLER.stop()
    print(elapsed, SAMPLER.normalise(elapsed))


if __name__ == "__main__":
    main()
