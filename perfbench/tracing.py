"""Outside-in tracing of the program's public functions, and the per-layer
metrics derived from the spans.

`Tracer.install()` replaces each traced function in every `tcsm` module
namespace (and module-level dict, such as `cli.HANDLERS`) that binds it, so
calls made inside the package are caught as well as the benchmark's own.
Each call becomes a `Span` with a name, start, end and parent; spans stay in
memory until the run ends.  Nothing under `src/` is changed.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from time import perf_counter

from tcsm import cli, dual_paths, model, oracle, polyalg, spectral, wavefunction


def _rows(result) -> dict:
    return {"rows": int(result.size)}


def _sampled(result) -> dict:
    return {"returned": int(result.shape[0])}


def _energies(result) -> dict:
    return {"energies": int(result[0].shape[0])}


def _cyclic_dim(result) -> dict:
    return {"dim_cyclic": len(result) if result.kind == polyalg.CYCLIC else 0}


def _pencil_pairs(result) -> dict:
    candidates = len(result.certified) + len(result.spurious) + len(result.ambiguous)
    return {"certified": len(result.certified), "candidates": candidates}


def _node_rejections(result) -> dict:
    return {"node_rejections": result.node_rejections}


# (defining module, function name, counter over the return value or None)
TARGETS = (
    (model, "interaction_pairs", None),
    (model, "three_body_triples", None),
    (polyalg, "basis", _cyclic_dim),
    (polyalg, "project", None),
    (polyalg, "exact_divide", None),
    (spectral, "apply_H1", None),
    (spectral, "build_pencil", None),
    (spectral, "solve_pencil", _pencil_pairs),
    (spectral, "spectrum_report", None),
    (spectral, "exact_eigencheck", None),
    (spectral, "parity_partner", None),
    (spectral, "boost_shift_check", None),
    (wavefunction, "grad_log_psi0", None),
    (wavefunction, "laplacian_ratio_psi0", None),
    (wavefunction, "phi_eval_batch", None),
    (wavefunction, "min_cyclic_separation", _rows),
    (dual_paths, "dual_grad_and_second_log_psi0", None),
    (oracle, "sample_positions", _sampled),
    (oracle, "potential_energy", None),
    (oracle, "local_energy_batch", _energies),
    (oracle, "verify_eigenstate", _node_rejections),
    (oracle, "conversion_coefficient", None),
    (cli, "main", None),
    (cli, "run_table1_rows", None),
    (cli, "cmd_spectrum", None),
    (cli, "cmd_verify_ground", None),
)


@dataclass
class Span:
    name: str
    parent: int  # index into Tracer.spans, -1 at top level
    start: float = 0.0
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Wraps TARGETS while installed; use as a context manager."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, object, object]] = []

    def _wrap(self, name, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self._stack[-1] if self._stack else -1)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
            if count is not None:
                span.counts = count(result)
            return result

        return traced

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for module, attr, count in TARGETS:
            fn = getattr(module, attr)
            short = module.__name__.rsplit(".", 1)[-1]
            wrappers[id(fn)] = (fn, self._wrap(f"{short}.{attr}", fn, count))
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "tcsm"]
        for module in modules:
            for key, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._patches.append((module.__dict__, key, value))
                    module.__dict__[key] = wrappers[id(value)][1]
                elif isinstance(value, dict):
                    for dkey, dvalue in list(value.items()):
                        hit = wrappers.get(id(dvalue))
                        if hit is not None and hit[0] is dvalue:
                            self._patches.append((value, dkey, dvalue))
                            value[dkey] = hit[1]

    def uninstall(self):
        while self._patches:
            namespace, key, original = self._patches.pop()
            namespace[key] = original

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


@dataclass
class Totals:
    """Aggregates over a slice of spans."""

    seconds: dict  # name -> time in outermost spans of that name
    self_seconds: dict  # name -> duration minus direct children
    calls: Counter
    counts: Counter
    draws: int  # rows passed to the separation test by the sampler

    @staticmethod
    def of(spans: list[Span], lo: int = 0, hi: int | None = None) -> "Totals":
        hi = len(spans) if hi is None else hi
        seconds = defaultdict(float)
        self_seconds = defaultdict(float)
        calls, counts = Counter(), Counter()
        draws = 0
        for i in range(lo, hi):
            span = spans[i]
            calls[span.name] += 1
            counts.update(span.counts)
            self_seconds[span.name] += span.duration
            parent = span.parent
            if parent >= lo:
                self_seconds[spans[parent].name] -= span.duration
                if span.name == "wavefunction.min_cyclic_separation" and (
                    spans[parent].name == "oracle.sample_positions"
                ):
                    draws += span.counts["rows"]
            while parent >= lo and spans[parent].name != span.name:
                parent = spans[parent].parent
            if parent < lo:
                seconds[span.name] += span.duration
        return Totals(dict(seconds), dict(self_seconds), calls, counts, draws)


def layer_metrics(totals: Totals, passes: int, setup: Totals, traced_s: float, untraced_s: float):
    """Per-layer metrics, per traced pass, as {name: (value, unit)}."""
    s = lambda name: totals.seconds.get(name, 0.0) / passes  # noqa: E731
    calls = lambda name: totals.calls[name] / passes  # noqa: E731
    count = lambda key: totals.counts[key] / passes  # noqa: E731
    ratio = lambda num, den: num / den if den else 0.0  # noqa: E731
    return {
        "model.three_body_triples_s": (s("model.three_body_triples"), "s"),
        "model.three_body_triples_calls": (calls("model.three_body_triples"), "count"),
        "model.interaction_pairs_calls": (calls("model.interaction_pairs"), "count"),
        "polyalg.basis_s": (s("polyalg.basis"), "s"),
        "polyalg.dim_cyclic": (count("dim_cyclic"), "count"),
        "polyalg.project_s": (s("polyalg.project"), "s"),
        "polyalg.exact_divide_s": (s("polyalg.exact_divide"), "s"),
        "polyalg.exact_divide_calls": (calls("polyalg.exact_divide"), "count"),
        "spectral.apply_H1_s": (s("spectral.apply_H1"), "s"),
        "spectral.apply_H1_calls": (calls("spectral.apply_H1"), "count"),
        "spectral.build_pencil_s": (s("spectral.build_pencil"), "s"),
        "spectral.solve_pencil_s": (s("spectral.solve_pencil"), "s"),
        "spectral.exact_eigencheck_s": (s("spectral.exact_eigencheck"), "s"),
        "spectral.certified_ratio": (
            ratio(totals.counts["certified"], totals.counts["candidates"]),
            "ratio",
        ),
        "spectral.candidate_pairs": (count("candidates"), "count"),
        "wavefunction.grad_log_psi0_s": (s("wavefunction.grad_log_psi0"), "s"),
        "wavefunction.grad_log_psi0_calls": (calls("wavefunction.grad_log_psi0"), "count"),
        "wavefunction.laplacian_ratio_psi0_s": (s("wavefunction.laplacian_ratio_psi0"), "s"),
        "wavefunction.phi_eval_batch_s": (s("wavefunction.phi_eval_batch"), "s"),
        "wavefunction.min_cyclic_separation_s": (s("wavefunction.min_cyclic_separation"), "s"),
        "dual_paths.dual_grad_and_second_log_psi0_s": (
            s("dual_paths.dual_grad_and_second_log_psi0"),
            "s",
        ),
        "oracle.sample_positions_s": (s("oracle.sample_positions"), "s"),
        "oracle.draws": (totals.draws / passes, "count"),
        "oracle.accept_ratio": (ratio(totals.counts["returned"], totals.draws), "ratio"),
        "oracle.potential_energy_s": (s("oracle.potential_energy"), "s"),
        "oracle.local_energy_batch_s": (s("oracle.local_energy_batch"), "s"),
        "oracle.samples_per_s": (
            ratio(totals.counts["energies"], totals.seconds.get("oracle.local_energy_batch", 0.0)),
            "1/s",
        ),
        "oracle.node_rejections": (count("node_rejections"), "count"),
        "oracle.conversion_coefficient_s": (
            setup.seconds.get("oracle.conversion_coefficient", 0.0),
            "s",
        ),
        "cli.main_self_s": (totals.self_seconds.get("cli.main", 0.0) / passes, "s"),
        "trace.pass_s": (traced_s, "s"),
        "trace.overhead_s": (traced_s - untraced_s, "s"),
    }
