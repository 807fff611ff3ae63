"""Regenerate the golden fixtures from the stated oracles.

Run from the repository root:  python tools/regen_goldens.py
Review every diff before committing; goldens are regression locks for
values that were computed once and must not drift.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tests"))

import numpy as np

from spencerlab.chevalley import algebra, serialize_table
from spencerlab.cli import main as spencer
from spencerlab.kernels import kernel_of_constrained
from spencerlab.operators import delta_classical, delta_constrained, nilpotency_audit
from spencerlab.presets import cartan_dual, parse_lambda_spec, random_dual
from spencerlab.reports import body_bytes
from spencerlab.repdecomp import decompose_character, is_g_submodule, weight_decomposition
from spencerlab.varsolve import Weights, energy, random_bundle_and_config

GOLDEN = os.path.join(os.path.dirname(__file__), "..", "tests", "golden")


def triples(mat):
    out = []
    for j, col in enumerate(mat.fraction_columns()):
        for r, v in col:
            out.append([r, j, v.numerator, v.denominator])
    return out


def dump(name, obj):
    path = os.path.join(GOLDEN, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote", path)


# (algebra, lambda spec or None for the classical operator, k, formula):
# the matrices whose Matrix Market text ``assembly_sha.json`` locks.
ASSEMBLY_CASES = (
    ("G2", "preset:random:1000", 2, "symmetrized"),
    ("G2", "preset:random:1000", 3, "symmetrized"),
    ("A2", "preset:random:7", 3, "equivalent"),
    ("G2", None, 2, None),
    ("A1", "preset:zero", 3, "symmetrized"),
    ("E7", "preset:cartan1", 2, "symmetrized"),
)


def assembly_record(label, spec, k, formula):
    alg = algebra(label)
    if spec is None:
        mat = delta_classical(alg, k)
    else:
        mat = delta_constrained(alg, parse_lambda_spec(alg, spec), k, formula=formula)
    text = mat.to_matrix_market()
    return {"algebra": label, "lambda": spec, "k": k, "formula": formula,
            "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest()}


# CLI argument lists whose report body ``report_body_sha.json`` locks.
REPORT_BODY_CASES = (
    ["kernel", "--algebra", "A2", "--k", "2", "--lambda", "preset:random:5",
     "--basis", "--decompose"],
    ["kernel", "--algebra", "G2", "--k", "2", "--lambda", "preset:random:1000",
     "--basis", "--decompose"],
    ["kernel", "--algebra", "G2", "--k", "2", "--lambda", "preset:cartan1",
     "--basis", "--decompose"],
    ["verify", "--algebra", "A2", "--lambda", "preset:random:11", "--k-max", "2"],
    ["cohomology", "--torus", "2", "--n", "4", "--algebra", "A1", "--k", "2",
     "--lambda", "preset:cartan1"],
    ["cohomology", "--torus", "2", "--n", "4", "--algebra", "G2", "--k", "2",
     "--lambda", "preset:cartan1"],
    ["cohomology", "--torus", "3", "--n", "2", "--algebra", "A2", "--k", "2",
     "--lambda", "preset:random:20"],
    ["cohomology", "--torus", "2", "--n", "3", "--algebra", "A1", "--k", "1",
     "--lambda", "preset:cartan1"],
    ["kernel", "--algebra", "F4", "--k", "2", "--lambda", "preset:random:7", "--decompose"],
    ["tension", "--algebra", "E7", "--h11", "56", "--kernel-dim", "135"],
    ["tension", "--algebra", "E8", "--h11", "56", "--kernel-dim", "0"],
    ["tension", "--algebra", "G2", "--h11", "100", "--kernel-dim", "50"],
    ["lie", "info", "--algebra", "E7"],
    ["lie", "info", "--algebra", "E8"],
    ["lie", "info", "--algebra", "a3"],
)


# The `spencer varsolve` config whose whole solve ``varsolve_solve_a1_d3n3.json``
# locks.
VARSOLVE_SOLVE_CONFIG = {"algebra": "A1", "lattice": {"d": 3, "n": 3}, "seed": 1,
                         "weights": {"alpha1": 0.5, "alpha3": 1.0, "C": 0.1},
                         "solver": {"max_iters": 3000}}


def report_body_record(args):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "report.json")
        spencer([*args, "--out", out], standalone_mode=False)
        with open(out, encoding="utf-8") as fh:
            body = body_bytes(json.load(fh))
    return {"args": list(args), "sha256": hashlib.sha256(body).hexdigest()}


def main():
    a1 = algebra("A1")
    a2 = algebra("A2")

    dump("a1_classical_k1.json", {"shape": [6, 3], "triples": triples(delta_classical(a1, 1))})
    dump(
        "a1_cartan1_k2_matrix.json",
        {"shape": [10, 6], "triples": triples(delta_constrained(a1, cartan_dual(a1, 1), 2))},
    )
    dump("a1_nilpotency_k1.json", nilpotency_audit(a1, cartan_dual(a1, 1), 1))
    dump("a2_random_nilpotency_k1.json", nilpotency_audit(a2, random_dual(a2, seed=1234), 1))

    kb, _ = kernel_of_constrained(a2, random_dual(a2, seed=4321), 2)
    sub = is_g_submodule(a2, kb)
    wd = weight_decomposition(a2, kb)
    dump(
        "a2_random_k2_kernel.json",
        {
            "kernel_dim": kb.dim,
            "is_submodule": sub["is_submodule"],
            "violation_count": sub["violation_count"],
            "weights": wd["weights"],
            "graded": wd["graded"],
        },
    )

    # Flagship measurement: exceptional algebra, first Cartan dual direction.
    e7 = algebra("E7")
    lam = cartan_dual(e7, 1)
    kb7, cert7 = kernel_of_constrained(e7, lam, 2)
    sub7 = is_g_submodule(e7, kb7)
    dump(
        "e7_sym2_kernel.json",
        {
            "algebra": "E7",
            "k": 2,
            "lambda": "preset:cartan1",
            "kernel_dim_measured": kb7.dim,
            "rank": cert7.rank,
            "predicted_forced_dim": 56,
            "is_submodule": sub7["is_submodule"],
            "notes": "measured and predicted values recorded side by side; "
            "agreement is reported, not asserted",
        },
    )

    # Character peeling of the full quadratic power of sl2.
    from spencerlab.presets import zero_dual

    kb_full, _ = kernel_of_constrained(a1, zero_dual(a1), 2)
    wd_full = weight_decomposition(a1, kb_full)
    summands = decompose_character(a1, [tuple(w) for w in wd_full["multiset"]])
    dump(
        "sym2_a1_decomposition.json",
        {
            "summands": [s.as_dict() for s in summands],
            "adjoint_multiplicity": sum(
                s.multiplicity for s in summands if s.highest_weight == (2,)
            ),
        },
    )

    # Variational energy on a seeded 4x4 instance.
    bundle, config = random_bundle_and_config(a1, 2, 4, seed=2024)
    w = Weights(alpha1=0.5, alpha3=1.0, bound_c=10.0)
    eb = energy(bundle, config, w)
    dump(
        "varsolve_energy_4x4.json",
        {"seed": 2024, "weights": {"alpha1": 0.5, "alpha3": 1.0, "C": 10.0},
         "breakdown": {k: repr(v) for k, v in eb.as_dict().items()}},
    )

    # A whole `spencer varsolve` solve: report body and CSV trace; the
    # manifest carries a timestamp and is left out.
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: os.path.join(tmp, name) for name in ("cfg.json", "vs.json", "vs.csv")}
        with open(paths["cfg.json"], "w", encoding="utf-8") as fh:
            json.dump(VARSOLVE_SOLVE_CONFIG, fh)
        spencer(["varsolve", "--config", paths["cfg.json"], "--json", paths["vs.json"],
                 "--out", paths["vs.csv"]], standalone_mode=False)
        with open(paths["vs.json"], encoding="utf-8") as fh:
            body = json.load(fh)["body"]
        with open(paths["vs.csv"], encoding="utf-8") as fh:
            trace = fh.read().splitlines()
    dump("varsolve_solve_a1_d3n3.json", {"config": VARSOLVE_SOLVE_CONFIG, "body": body, "csv": trace})

    # The serialized G2 table (brackets and Killing entries) and the
    # `spencer lie info` body; the manifest carries a timestamp and is left out.
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "info.json")
        spencer(["lie", "info", "--algebra", "G2", "--out", out], standalone_mode=False)
        with open(out, encoding="utf-8") as fh:
            info = json.load(fh)["body"]
    dump("g2_lie_table.json", {"table": serialize_table(algebra("G2")), "lie_info_body": info})

    # sha256 of the Matrix Market text of assembled operators, one per case.
    dump("assembly_sha.json", {"cases": [assembly_record(*case) for case in ASSEMBLY_CASES]})

    # sha256 of the canonical report body of CLI runs; the manifest carries
    # a timestamp and is left out.
    dump("report_body_sha.json",
         {"cases": [report_body_record(args) for args in REPORT_BODY_CASES]})


if __name__ == "__main__":
    main()
