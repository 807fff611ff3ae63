"""Span recorder that wraps spencerlab's public functions from outside.

A span is one call of a wrapped function: its name, start and end times,
the span that was open when it began (its parent) and the run it belongs
to. Spans are kept in memory and written out once, when the run ends.

Wrappers replace every binding of the original function in the loaded
``spencerlab.*`` modules, because ``kernels``, ``torus`` and ``cli`` import
names from ``linalg``, ``operators`` and ``reports``. A function that no
longer exists is reported as absent, never as an error. ``sym.monomial_rank``
is deliberately not wrapped: the E7 flagship calls it ~10^7 times, and its
cost stays inside ``operators.assembly_s``.

Every ``_s`` layer metric is a self time: the span's duration minus the part
of it that wrapped child spans cover, so the self times of one run add up to
the time its top-level spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import time
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str


def _nnz(args, kwargs, result):
    return {"operators.nnz": result.nnz()}


def _certified(args, kwargs, result):
    return {"kernels.certified": int(result[1].exact_confirmed)}


def _iterations(args, kwargs, result):
    return {"varsolve.iterations": len(result[1]) - 1}


def _kronecker_entries(args, kwargs, result):
    """Entries of the dense Kronecker matrices, computed from their sizes."""
    complex_ = args[3] if len(args) > 3 else kwargs["complex_"]
    kappa = result.kernel_dim
    total = sum(
        complex_.n_cells(p + 1) * kappa * complex_.n_cells(p) * kappa
        for p in range(complex_.dimension)
    )
    return {"torus.dense_entries": total}


# (metric, spencerlab module, attribute path, counter hook or None).
# A metric fed by several functions sums their self times.
SPAN_TARGETS = (
    ("chevalley.build_s", "chevalley", "build_chevalley_basis", None),
    ("chevalley.jacobi_s", "chevalley", "check_jacobi", None),
    ("operators.generator_images_s", "operators", "generator_images", None),
    ("operators.assembly_s", "operators", "delta_constrained", _nnz),
    ("operators.mirror_add_s", "operators", "SpencerMatrix.add", None),
    ("operators.mirror_check_s", "operators", "verify_mirror", None),
    ("linalg.dense_modp_s", "linalg", "dense_rank_modp", None),
    ("linalg.sparse_modp_s", "linalg", "sparse_rank_modp", None),
    ("linalg.exact_kernel_s", "linalg", "sparse_kernel_exact", None),
    ("linalg.verify_s", "linalg", "verify_kernel_vectors", None),
    ("linalg.dense_exact_s", "linalg", "rref_dense", None),
    ("kernels.kernel_s", "kernels", "kernel", _certified),
    ("kernels.same_subspace_s", "linalg", "same_subspace", None),
    ("kernels.mirror_stability_s", "kernels", "mirror_stability_check", None),
    ("repdecomp.submodule_s", "repdecomp", "is_g_submodule", None),
    ("repdecomp.weights_s", "repdecomp", "weight_decomposition", None),
    ("repdecomp.character_s", "repdecomp", "decompose_character", None),
    ("torus.betti_s", "torus", "CellComplex.betti_numbers", None),
    ("torus.cohomology_s", "torus", "degenerate_cohomology", _kronecker_entries),
    ("torus.classes_s", "torus", "DeRhamClasses.__init__", None),
    ("torus.classes_s", "torus", "phi_deg", None),
    ("varsolve.minimize_s", "varsolve", "minimize", _iterations),
    ("varsolve.certify_s", "varsolve", "certify_compatible_pair", None),
    ("cli.report_s", "reports", "build_report", None),
    ("cli.report_s", "reports", "write_report", None),
    ("cli.report_s", "reports", "write_csv", None),
    ("cli.command_s", "cli", "kernel.callback", None),
    ("cli.command_s", "cli", "cohomology.callback", None),
    ("cli.command_s", "cli", "varsolve.callback", None),
)

# Calls counted without a span: energy evaluations happen thousands of
# times inside one minimize() and are part of its self time.
COUNT_TARGETS = (("varsolve.energy_evals", "varsolve", "energy"),)

# Counts and ratios derived from span counts and counter hooks:
# metric -> (metrics whose functions must exist, unit).
COUNTS = {
    "operators.nnz": (("operators.assembly_s",), "count"),
    "linalg.modp_calls": (("linalg.dense_modp_s", "linalg.sparse_modp_s"), "count"),
    "linalg.modp_calls_per_kernel": (
        ("linalg.dense_modp_s", "linalg.sparse_modp_s", "kernels.kernel_s"), "ratio"),
    "linalg.exact_kernel_calls": (("linalg.exact_kernel_s",), "count"),
    "kernels.certified": (("kernels.kernel_s",), "count"),
    "torus.dense_entries": (("torus.cohomology_s",), "count"),
    "varsolve.iterations": (("varsolve.minimize_s",), "count"),
    "varsolve.energy_evals": (("varsolve.energy_evals",), "count"),
    "varsolve.accept_ratio": (("varsolve.minimize_s", "varsolve.energy_evals"), "ratio"),
}

TRACE_METRICS = ("trace.solve_s", "trace.spans_s", "trace.unattributed_s")


def layer_metric_names() -> list[str]:
    """Every per-layer metric name, in report order."""
    names = list(dict.fromkeys(m for m, *_ in SPAN_TARGETS))
    return names + list(COUNTS) + list(TRACE_METRICS)


def metric_unit(name: str) -> str:
    if name in COUNTS:
        return COUNTS[name][1]
    return "s"


class SpanRecorder:
    """Records nested spans of single-threaded code in memory."""

    def __init__(self, run: str, clock=time.perf_counter):
        self.run = run
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def wrap(self, name: str, fn, hook=None):
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(recorder.spans)
            parent = recorder._stack[-1] if recorder._stack else None
            span = Span(span_id, name, recorder.clock(), 0.0, parent, recorder.run)
            recorder.spans.append(span)
            recorder._stack.append(span_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = recorder.clock()
                recorder._stack.pop()
            if hook is not None:
                for key, n in hook(args, kwargs, result).items():
                    recorder.count(key, n)
            return result

        return traced

    def counted(self, key: str, fn):
        recorder = self

        @functools.wraps(fn)
        def counting(*args, **kwargs):
            recorder.count(key)
            return fn(*args, **kwargs)

        return counting

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"spans": [asdict(s) for s in self.spans], "counters": self.counters}, fh
            )


def load_modules(package) -> list:
    """Import every submodule of the package, so that every binding exists."""
    mods = [package]
    for info in pkgutil.iter_modules(package.__path__):
        mods.append(importlib.import_module(f"{package.__name__}.{info.name}"))
    return mods


def _resolve(modules_by_name: dict, module: str, path: str):
    """(owner, attribute, original) or None when any part is missing."""
    owner = modules_by_name.get(module)
    parts = path.split(".")
    for part in parts[:-1]:
        if owner is None:
            return None
        owner = getattr(owner, part, None)
    if owner is None:
        return None
    orig = owner.__dict__.get(parts[-1]) if isinstance(owner, type) else getattr(owner, parts[-1], None)
    if orig is None or not callable(orig):
        return None
    return owner, parts[-1], orig


def replace_everywhere(modules: list, owner, attr: str, orig, new) -> None:
    """Point every module-level binding of ``orig`` (and the owner's) at ``new``."""
    setattr(owner, attr, new)
    for mod in modules:
        for name, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, name, new)


def install(
    recorder: SpanRecorder, package, span_targets=SPAN_TARGETS, count_targets=COUNT_TARGETS
) -> list[str]:
    """Wrap every target; returns the names of metrics whose functions are all gone."""
    modules = load_modules(package)
    by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
    found: dict[str, bool] = {}
    for metric, module, path, hook in span_targets:
        hit = _resolve(by_name, module, path)
        found[metric] = found.get(metric, False) or hit is not None
        if hit is not None:
            owner, attr, orig = hit
            span = recorder.wrap(f"{module}.{path}", orig, hook)
            replace_everywhere(modules, owner, attr, orig, span)
    for metric, module, path in count_targets:
        hit = _resolve(by_name, module, path)
        found[metric] = hit is not None
        if hit is not None:
            owner, attr, orig = hit
            replace_everywhere(modules, owner, attr, orig, recorder.counted(metric, orig))
    return [m for m, ok in found.items() if not ok]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    out = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def layer_metrics(
    spans: list[dict], counters: dict[str, int], absent: list[str],
    solve_start: float, solve_end: float,
) -> dict[str, float]:
    """Per-layer values of one run; metrics in ``absent`` are left out.

    Set-up spans (the algebra builds) count toward their layers; the
    coverage figures use only the spans that start inside the solve phase.
    """
    own = self_times(spans)
    metric_of = {f"{module}.{path}": m for m, module, path, _hook in SPAN_TARGETS}
    values: dict[str, float] = {}
    calls: dict[str, int] = {}
    for metric in metric_of.values():
        if metric not in absent:
            values[metric] = 0.0
            calls[metric] = 0
    for s in spans:
        metric = metric_of.get(s["name"])
        if metric in values:
            values[metric] += own[s["id"]]
            calls[metric] += 1

    derived = {
        "operators.nnz": counters.get("operators.nnz", 0),
        "linalg.modp_calls": (
            calls.get("linalg.dense_modp_s", 0) + calls.get("linalg.sparse_modp_s", 0)),
        "linalg.exact_kernel_calls": calls.get("linalg.exact_kernel_s", 0),
        "kernels.certified": counters.get("kernels.certified", 0),
        "torus.dense_entries": counters.get("torus.dense_entries", 0),
        "varsolve.iterations": counters.get("varsolve.iterations", 0),
        "varsolve.energy_evals": counters.get("varsolve.energy_evals", 0),
    }
    kernels = calls.get("kernels.kernel_s", 0)
    derived["linalg.modp_calls_per_kernel"] = (
        derived["linalg.modp_calls"] / kernels if kernels else 0.0
    )
    evals = derived["varsolve.energy_evals"]
    derived["varsolve.accept_ratio"] = derived["varsolve.iterations"] / evals if evals else 0.0
    for metric, (needs, _unit) in COUNTS.items():
        if not any(n in absent for n in needs):
            values[metric] = derived[metric]

    top = [s for s in spans if s["parent"] is None and s["start"] >= solve_start]
    covered = sum(s["end"] - s["start"] for s in top)
    values["trace.solve_s"] = solve_end - solve_start
    values["trace.spans_s"] = covered
    values["trace.unattributed_s"] = (solve_end - solve_start) - covered
    return values
