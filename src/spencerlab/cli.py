"""Command-line front door.

Exit status taxonomy: 0 success, 2 usage error (also an unknown algebra
label and an input or output path that cannot be read or written),
3 resource cap exceeded, 4 forced-identity failure (mirror antisymmetry or
kernel mirror stability), 5 certification failure (modular ranks that keep
disagreeing, a kernel that fails its exact membership check, or degenerate
cohomology dimensions that differ from the product prediction), 6 solver
divergence (``varsolve`` backtracking cannot lower the energy, or the start
has a non-finite energy or gradient norm).
Every failure prints one message line on stderr.  Statuses 4 and 3 from
``verify`` are verdicts; every other failure status comes from the one
table ``EXIT_STATUS``.
The nilpotency audit is informational and never gates the exit status.
"""

from __future__ import annotations

import json
import math
import sys

import click

from .cartan import CartanError
from .chevalley import algebra, killing_determinant_sign, serialize_table
from .kernels import (
    kernel_of_constrained,
    mirror_stability_check,
    tension_report,
)
from .linalg import CertificationError
from .operators import (
    delta_classical,
    delta_constrained,
    generator_formula_agreement,
    nilpotency_audit,
    verify_mirror,
)
from .presets import describe_lambda, parse_lambda_spec
from .reports import RunManifest, build_report, write_csv, write_report
from .sym import ResourceCapExceeded
from .torus import CellComplex, degenerate_cohomology
from .varsolve import (
    FieldConfig,
    LatticeBundle,
    SolverConfig,
    SolverDivergence,
    Weights,
    cartan_residual,
    certify_compatible_pair,
    guard_lattice_size,
    minimize,
    random_bundle_and_config,
)

EXIT_USAGE = 2
EXIT_RESOURCE_CAP = 3
EXIT_FORCED_IDENTITY = 4
EXIT_CERTIFICATION = 5
EXIT_SOLVER_DIVERGENCE = 6
POSITIVE_INT = click.IntRange(min=1)
NON_NEGATIVE_INT = click.IntRange(min=0)

# (exception type, exit status, message prefix); the first matching row
# wins.  Click reports its own usage errors, also with status 2.
EXIT_STATUS = (
    (CartanError, EXIT_USAGE, "Error: "),
    (OSError, EXIT_USAGE, "Error: "),
    (ResourceCapExceeded, EXIT_RESOURCE_CAP, ""),
    (CertificationError, EXIT_CERTIFICATION, "certification failed: "),
    (SolverDivergence, EXIT_SOLVER_DIVERGENCE, "solver diverged: "),
)


class _ErrorBoundary(click.Group):
    """Command group that ends every failure in ``EXIT_STATUS`` with its
    status and one stderr line; nothing is written to stdout."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except BrokenPipeError:
            raise  # click exits 1 quietly when stdout is closed early
        except tuple(row[0] for row in EXIT_STATUS) as exc:
            status, prefix = next((s, p) for t, s, p in EXIT_STATUS if isinstance(exc, t))
            click.echo(f"{prefix}{exc}", err=True)
            sys.exit(status)


@click.group(cls=_ErrorBoundary)
@click.option("--max-dim", type=POSITIVE_INT, default=10_000_000, show_default=True,
              help="Cap on symmetric-power basis sizes, torus cell counts and varsolve "
                   "lattice entries.")
@click.pass_context
def main(ctx: click.Context, max_dim: int) -> None:
    """Spencer operator computations over exact rationals."""
    ctx.obj = {"max_dim": max_dim}


@main.group()
def lie() -> None:
    """Lie algebra tables."""


@lie.command("info")
@click.option("--algebra", "label", required=True, help="Algebra label, e.g. A1, E7.")
@click.option("--out", "out_path", type=click.Path(writable=True), default=None)
@click.option("--table", "table_path", type=click.Path(writable=True), default=None,
              help="Also write the full serialized bracket table to this path.")
def lie_info(label: str, out_path: str | None, table_path: str | None) -> None:
    """Dimension, root count, Killing determinant sign, Jacobi verdict."""
    alg = algebra(label)
    body = {
        "algebra": alg.label,
        "dim": alg.dim,
        "rank": alg.rank,
        "positive_roots": alg.n_positive,
        "root_count": 2 * alg.n_positive,
        "killing_det_sign": killing_determinant_sign(alg),
        "jacobi_holds": alg.jacobi_checked,
        "basis_labels": list(alg.basis_labels),
    }
    manifest = RunManifest("lie-info", {"algebra": label}, algebra=label)
    write_report(build_report(manifest, body), out_path)
    if table_path:
        with open(table_path, "w", encoding="utf-8") as fh:
            json.dump(serialize_table(alg), fh, sort_keys=True, indent=1)


def _lambda_option(alg, spec: str):
    try:
        return parse_lambda_spec(alg, spec)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc


@main.command()
@click.option("--algebra", "label", required=True)
@click.option("--k", type=POSITIVE_INT, required=True)
@click.option("--variant", type=click.Choice(["classical", "constrained", "equivalent"]),
              default="constrained", show_default=True)
@click.option("--lambda", "lam_spec", default="preset:zero", show_default=True)
@click.option("--out", "out_path", type=click.Path(writable=True), default=None)
@click.option("--mm", "mm_path", type=click.Path(writable=True), default=None,
              help="Write the matrix in Matrix Market coordinate format.")
@click.pass_context
def matrix(ctx, label: str, k: int, variant: str, lam_spec: str,
           out_path: str | None, mm_path: str | None) -> None:
    """Assemble a Spencer operator matrix."""
    alg = algebra(label)
    cap = ctx.obj["max_dim"]
    if variant == "classical":
        mat = delta_classical(alg, k, cap)
    else:
        lam = _lambda_option(alg, lam_spec)
        formula = "symmetrized" if variant == "constrained" else "equivalent"
        mat = delta_constrained(alg, lam, k, cap, formula=formula)
    body = {
        "algebra": alg.label,
        "variant": mat.variant,
        "k_from": mat.k_from,
        "k_to": mat.k_to,
        "nrows": mat.nrows,
        "ncols": mat.ncols,
        "nnz": mat.nnz(),
        "lambda": describe_lambda(mat.lam) if mat.lam is not None else None,
    }
    manifest = RunManifest(
        "spencer-matrix",
        {"algebra": label, "k": k, "variant": variant, "lambda": lam_spec},
        algebra=label,
    )
    write_report(build_report(manifest, body), out_path)
    if mm_path:
        with open(mm_path, "w", encoding="utf-8") as fh:
            fh.write(mat.to_matrix_market())


@main.command()
@click.option("--algebra", "label", required=True)
@click.option("--k", type=POSITIVE_INT, required=True)
@click.option("--lambda", "lam_spec", required=True)
@click.option("--out", "out_path", type=click.Path(writable=True), default=None)
@click.option("--csv", "csv_path", type=click.Path(writable=True), default=None)
@click.option("--basis/--no-basis", default=False, show_default=True,
              help="Include the kernel basis in the report body.")
@click.option("--decompose/--no-decompose", default=False, show_default=True,
              help="Attach module-structure verdicts and the irrep decomposition.")
@click.pass_context
def kernel(ctx, label: str, k: int, lam_spec: str, out_path: str | None,
           csv_path: str | None, basis: bool, decompose: bool) -> None:
    """Exact nullspace of the constraint-coupled operator."""
    alg = algebra(label)
    lam = _lambda_option(alg, lam_spec)
    kb, cert = kernel_of_constrained(alg, lam, k, ctx.obj["max_dim"])
    body = {
        "algebra": alg.label,
        "k": k,
        "lambda": describe_lambda(lam),
        "kernel_dim": kb.dim,
        "certificate": cert.as_dict(),
    }
    if basis:
        body["kernel_basis"] = [el.serialize() for el in kb.basis]
    if decompose:
        from .repdecomp import decompose_character, is_g_submodule, weight_decomposition

        sub = is_g_submodule(alg, kb)
        wd = weight_decomposition(alg, kb)
        block = {
            "is_submodule": sub["is_submodule"],
            "violation_count": sub["violation_count"],
            "weights": wd["weights"],
            "graded": wd["graded"],
            # decomposition below a failed module check is advisory: the
            # module-forcing hypothesis is violated for this kernel
            "advisory": not sub["is_submodule"],
        }
        if wd["graded"]:
            try:
                summands = decompose_character(alg, [tuple(w) for w in wd["multiset"]])
                block["summands"] = [s.as_dict() for s in summands]
            except ValueError as exc:
                block["summands"] = None
                block["decomposition_error"] = str(exc)
        else:
            block["summands"] = None
            block["decomposition_error"] = "kernel is not weight-graded"
        body["decomposition"] = block
    manifest = RunManifest(
        "spencer-kernel", {"algebra": label, "k": k, "lambda": lam_spec}, algebra=label
    )
    write_report(build_report(manifest, body), out_path)
    if csv_path:
        rows = [
            {"prime": p, "modular_rank": r}
            for p, r in zip(cert.primes_used, cert.modular_ranks)
        ] or [{"prime": "", "modular_rank": cert.rank}]
        write_csv(rows, csv_path)


@main.command()
@click.option("--algebra", "label", required=True)
@click.option("--lambda", "lam_spec", required=True)
@click.option("--k-min", type=POSITIVE_INT, default=1, show_default=True)
@click.option("--k-max", type=POSITIVE_INT, default=2, show_default=True)
@click.option("--out", "out_path", type=click.Path(writable=True), default=None)
@click.pass_context
def verify(ctx, label: str, lam_spec: str, k_min: int, k_max: int,
           out_path: str | None) -> None:
    """Mirror antisymmetry, kernel mirror stability, and nilpotency audits.

    Exit 0 only when every forced identity that ran holds; a forced audit
    blocked by the resource cap exits 3.  Nilpotency results never gate.
    """
    if k_min > k_max:
        raise click.UsageError(f"--k-min {k_min} exceeds --k-max {k_max}")
    alg = algebra(label)
    lam = _lambda_option(alg, lam_spec)
    cap = ctx.obj["max_dim"]
    audits = [{"kind": "generator-formula-agreement",
               **generator_formula_agreement(alg, lam)}]
    # (kind, audit, verdict key); a forced audit has a verdict key and gates.
    per_k = (
        ("mirror-antisymmetry", verify_mirror, "holds"),
        ("kernel-mirror-stability", mirror_stability_check, "kernels_equal"),
        ("nilpotency", nilpotency_audit, None),
    )
    forced_ok = True
    forced_capped = False
    for k in range(k_min, k_max + 1):
        for kind, audit, verdict in per_k:
            try:
                result = audit(alg, lam, k, cap)
            except ResourceCapExceeded as exc:
                audits.append({"kind": kind, "k": k, "skipped": str(exc)})
                forced_capped = forced_capped or verdict is not None
                continue
            audits.append({"kind": kind, **result})
            if verdict is not None:
                forced_ok = forced_ok and result[verdict]
    body = {
        "algebra": alg.label,
        "lambda": describe_lambda(lam),
        "audits": audits,
        "forced_identities_hold": forced_ok,
        "forced_audit_capped": forced_capped,
    }
    manifest = RunManifest(
        "spencer-verify",
        {"algebra": label, "lambda": lam_spec, "k_min": k_min, "k_max": k_max},
        algebra=label,
    )
    write_report(build_report(manifest, body), out_path)
    if not forced_ok:
        sys.exit(EXIT_FORCED_IDENTITY)
    if forced_capped:
        sys.exit(EXIT_RESOURCE_CAP)


@main.command()
@click.option("--torus", "torus_dim", type=POSITIVE_INT, default=2, show_default=True)
@click.option("--n", "subdivisions", type=POSITIVE_INT, default=4, show_default=True)
@click.option("--algebra", "label", required=True)
@click.option("--k", type=POSITIVE_INT, required=True)
@click.option("--lambda", "lam_spec", required=True)
@click.option("--out", "out_path", type=click.Path(writable=True), default=None)
@click.option("--csv", "csv_path", type=click.Path(writable=True), default=None)
@click.pass_context
def cohomology(ctx, torus_dim: int, subdivisions: int, label: str, k: int,
               lam_spec: str, out_path: str | None, csv_path: str | None) -> None:
    """Degenerate-complex cohomology over a cubical torus."""
    alg = algebra(label)
    lam = _lambda_option(alg, lam_spec)
    cap = ctx.obj["max_dim"]
    complex_ = CellComplex.torus(torus_dim, subdivisions, cap)
    rep = degenerate_cohomology(alg, lam, k, complex_, cap=cap)
    body = rep.as_dict()
    manifest = RunManifest(
        "spencer-cohomology",
        {
            "torus": torus_dim, "n": subdivisions, "algebra": label,
            "k": k, "lambda": lam_spec,
        },
        algebra=label,
    )
    write_report(build_report(manifest, body), out_path)
    if csv_path:
        rows = [
            {"degree": p, "betti": rep.betti[p], "degenerate_dim": rep.degenerate_dims[p]}
            for p in range(len(rep.betti))
        ]
        write_csv(rows, csv_path)


@main.command()
@click.option("--algebra", "label", required=True)
@click.option("--h11", type=NON_NEGATIVE_INT, required=True)
@click.option("--kernel-dim", "kernel_dim", type=NON_NEGATIVE_INT, default=None)
@click.option("--out", "out_path", type=click.Path(writable=True), default=None)
def tension(label: str, h11: int, kernel_dim: int | None, out_path: str | None) -> None:
    """Dimension-tension verdict from the minimal-irrep and h11 bounds."""
    rep = tension_report(label, h11, kernel_dim)
    manifest = RunManifest(
        "tension", {"algebra": label, "h11": h11, "kernel_dim": kernel_dim}, algebra=label
    )
    write_report(build_report(manifest, rep.as_dict()), out_path)


def _config_section(cfg: dict, key: str, default: dict) -> dict:
    section = cfg.get(key, default)
    if not isinstance(section, dict):
        raise click.UsageError(f"config field {key!r} must be a JSON object")
    return section


def _config_int(section: dict, key: str, default: int, config_path: str,
                minimum: int) -> int:
    """An integer config field of at least minimum; anything else exits 2."""
    value = section.get(key, default)
    if type(value) is not int:
        kind = "non-integer" if isinstance(value, float) else "non-numeric"
        raise click.UsageError(f"config {config_path} has a {kind} field {key!r}: "
                               f"{json.dumps(value)}; expected a JSON integer")
    _config_range(value >= minimum, config_path, key, value, f"an integer >= {minimum}")
    return value


def _config_real(section: dict, key: str, default: float, config_path: str) -> float:
    """A real config field: a JSON number or a numeric string; anything else exits 2."""
    value = section.get(key, default)
    if type(value) in (int, float, str):
        try:
            return float(value)
        except OverflowError as exc:
            raise click.UsageError(f"config {config_path} has an out-of-range field "
                                   f"{key!r}: {exc}") from exc
        except ValueError:
            pass
    raise click.UsageError(f"config {config_path} has a non-numeric field {key!r}: "
                           f"{json.dumps(value)}; expected a JSON number")


def _config_range(ok: bool, config_path: str, key: str, value, expected: str) -> None:
    if not ok:
        raise click.UsageError(f"config {config_path} has an out-of-range field {key!r}: "
                               f"{json.dumps(value)}; expected {expected}")


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True), required=True)
@click.option("--out", "trace_path", type=click.Path(writable=True), default=None,
              help="Per-iteration energy breakdown CSV.")
@click.option("--json", "json_path", type=click.Path(writable=True), default=None,
              help="Write the JSON report here instead of stdout.")
@click.pass_context
def varsolve(ctx, config_path: str, trace_path: str | None, json_path: str | None) -> None:
    """Minimize the penalized energy for a configured lattice instance."""
    try:
        with open(config_path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except ValueError as exc:
        raise click.UsageError(f"config {config_path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise click.UsageError(f"config {config_path} must hold a JSON object")
    label = str(cfg.get("algebra", "A1"))
    alg = algebra(label)
    lattice = _config_section(cfg, "lattice", {})
    wcfg = _config_section(cfg, "weights", {})
    scfg = _config_section(cfg, "solver", {})
    omega_cfg = _config_section(cfg, "omega", {})
    mode = omega_cfg.get("mode", "random")
    _config_range(mode in ("random", "zero"), config_path, "mode", mode, '"random" or "zero"')
    d = _config_int(lattice, "d", 2, config_path, minimum=1)
    n = _config_int(lattice, "n", 4, config_path, minimum=1)
    seed = _config_int(cfg, "seed", 0, config_path, minimum=0)
    max_iters = _config_int(scfg, "max_iters", 2000, config_path, minimum=0)
    real = {key: _config_real(section, key, default, config_path)
            for section, key, default in (
                (wcfg, "alpha1", 1.0), (wcfg, "alpha2", 0.0), (wcfg, "alpha3", 1.0),
                (wcfg, "C", 1.0), (scfg, "step", 0.1), (scfg, "tol", 1e-8),
                (cfg, "lambda_scale", 0.5), (omega_cfg, "scale", 0.3))}
    step, tol = real.pop("step"), real.pop("tol")
    _config_range(math.isfinite(step) and step > 0, config_path, "step", step,
                  "a finite number > 0")
    _config_range(math.isfinite(tol) and tol >= 0, config_path, "tol", tol,
                  "a finite number >= 0")
    for key, value in real.items():
        _config_range(math.isfinite(value), config_path, key, value, "a finite number")
    weights = Weights(alpha1=real["alpha1"], alpha3=real["alpha3"], bound_c=real["C"])
    lam_scale, omega_scale = real["lambda_scale"], real["scale"]
    guard_lattice_size(d, n, alg.dim, ctx.obj["max_dim"])
    solver = SolverConfig(step=step, max_iters=max_iters, tol=tol)
    # Not a module-level import: loading numpy ahead of the engine modules
    # raised the benchmark workloads' peak RSS by about 0.1 MiB.
    import numpy as np

    # Non-finite energies end in SolverDivergence or show in the body, not
    # as numpy warnings on stderr.
    with np.errstate(all="ignore"):
        if mode == "zero":
            bundle = LatticeBundle(d, n, alg)
            rng = np.random.default_rng(seed)
            config0 = FieldConfig(lam_scale * rng.standard_normal((bundle.n_nodes, alg.dim)))
        else:
            bundle, config0 = random_bundle_and_config(
                alg, d, n, seed, omega_scale=omega_scale, lam_scale=lam_scale
            )
        final, trace = minimize(bundle, config0, weights, solver)
        certs = certify_compatible_pair(bundle, final)
        residual = cartan_residual(bundle, final)
    last = trace[-1]
    body = {
        "algebra": alg.label,
        "lattice": {"d": d, "n": n},
        "seed": seed,
        "iterations": len(trace) - 1,
        "converged": last.grad_norm < solver.tol,
        "final": {
            "energy": last.breakdown.as_dict(),
            "grad_norm": last.grad_norm,
            "cartan_residual": residual,
        },
        "start": {"energy": trace[0].breakdown.as_dict()},
        "monotone": all(
            trace[i + 1].breakdown.total <= trace[i].breakdown.total
            for i in range(len(trace) - 1)
        ),
        "node_certificates": [c.as_dict() for c in certs],
    }
    manifest = RunManifest("varsolve", {"config": cfg}, algebra=label, seeds=[seed])
    write_report(build_report(manifest, body), json_path)
    if trace_path:
        rows = (
            {
                "iteration": row.iteration,
                "total": repr(row.breakdown.total),
                "main": repr(row.breakdown.main),
                "pen1": repr(row.breakdown.pen1),
                "pen3": repr(row.breakdown.pen3),
                "grad_norm": repr(row.grad_norm),
                "step": repr(row.step),
            }
            for row in trace
        )
        write_csv(rows, trace_path)


if __name__ == "__main__":
    main()
