from __future__ import annotations

import dataclasses
import errno
import hashlib
import json
import math
from datetime import datetime

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spencerlab import __version__, linalg, torus
from spencerlab.cli import main
from spencerlab.linalg import PRIME_POOL
from spencerlab.reports import SchemaError, body_bytes, validate_report

from conftest import load_golden


@pytest.fixture()
def runner():
    return CliRunner()


def _report(result):
    assert result.exit_code == 0, result.output
    return json.loads(result.output)


def test_lie_info_a1(runner):
    rep = _report(runner.invoke(main, ["lie", "info", "--algebra", "A1"]))
    assert rep["body"]["dim"] == 3
    validate_report(rep)


def test_lie_info_e7(runner):
    rep = _report(runner.invoke(main, ["lie", "info", "--algebra", "E7"]))
    assert rep["body"]["dim"] == 133
    assert rep["body"]["root_count"] == 126
    assert rep["body"]["jacobi_holds"] is True


def test_lie_info_invalid_label_usage_error(runner):
    result = runner.invoke(main, ["lie", "info", "--algebra", "Z9"])
    assert result.exit_code == 2


def test_matrix_command_with_mm_export(runner, tmp_path):
    mm = tmp_path / "mat.mtx"
    result = runner.invoke(
        main,
        ["matrix", "--algebra", "A1", "--k", "1", "--lambda", "preset:cartan1",
         "--mm", str(mm)],
    )
    rep = _report(result)
    assert rep["body"]["nrows"] == 6 and rep["body"]["ncols"] == 3
    text = mm.read_text()
    assert text.startswith("%%MatrixMarket matrix coordinate rational general")
    assert "/" in text.splitlines()[-1]


def test_matrix_classical_variant(runner):
    rep = _report(runner.invoke(
        main, ["matrix", "--algebra", "A1", "--k", "1", "--variant", "classical"]
    ))
    assert rep["body"]["variant"] == "classical"
    assert rep["body"]["lambda"] is None
    assert rep["body"]["nnz"] == 6


def test_matrix_equivalent_variant(runner):
    rep = _report(runner.invoke(
        main,
        ["matrix", "--algebra", "A1", "--k", "1", "--variant", "equivalent",
         "--lambda", "preset:cartan1"],
    ))
    assert rep["body"]["variant"] == "equivalent-form"


def test_matrix_resource_cap_exit_code(runner):
    result = runner.invoke(
        main,
        ["--max-dim", "100", "matrix", "--algebra", "G2", "--k", "3",
         "--lambda", "preset:cartan1"],
    )
    assert result.exit_code == 3


def test_kernel_command(runner, tmp_path):
    out = tmp_path / "report.json"
    result = runner.invoke(
        main,
        ["kernel", "--algebra", "A1", "--k", "2", "--lambda", "preset:cartan1",
         "--out", str(out), "--basis"],
    )
    assert result.exit_code == 0
    rep = json.loads(out.read_text())
    assert rep["body"]["kernel_dim"] == 4
    assert len(rep["body"]["kernel_basis"]) == 4
    validate_report(rep)


def test_kernel_decompose_option(runner):
    result = runner.invoke(
        main,
        ["kernel", "--algebra", "A1", "--k", "2", "--lambda", "preset:zero",
         "--decompose"],
    )
    rep = _report(result)
    dec = rep["body"]["decomposition"]
    assert dec["is_submodule"] is True
    assert dec["advisory"] is False
    assert sorted(s["dim"] for s in dec["summands"]) == [1, 5]
    # a random dual generally breaks the module hypothesis: advisory mode
    result = runner.invoke(
        main,
        ["kernel", "--algebra", "A2", "--k", "2", "--lambda", "preset:random:9",
         "--decompose"],
    )
    rep = _report(result)
    dec = rep["body"]["decomposition"]
    assert dec["advisory"] is True


def _lambda_file(tmp_path, entries):
    path = tmp_path / "lam.json"
    path.write_text(json.dumps(entries))
    return f"file:{path}"


def test_kernel_lambda_zero_denominator_exits_2(runner, tmp_path):
    spec = _lambda_file(tmp_path, [[1, 0]] + [[0, 1]] * 7)
    result = runner.invoke(main, ["kernel", "--algebra", "A2", "--k", "1", "--lambda", spec])
    assert result.exit_code == 2
    assert "Error: dual vector file has an entry with denominator 0" in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize("entry", [[1.5, 2], [None, 1], [True, 1], [1, 2, 3], "1/2"])
def test_kernel_lambda_non_integer_entry_exits_2(runner, tmp_path, entry):
    spec = _lambda_file(tmp_path, [entry] + [[0, 1]] * 7)
    result = runner.invoke(main, ["kernel", "--algebra", "A2", "--k", "1", "--lambda", spec])
    assert result.exit_code == 2, result.output
    assert "Error: dual vector file entry 0 is" in result.output
    assert "Traceback" not in result.output


def test_kernel_skips_prime_dividing_lambda_denominator(runner, tmp_path):
    entries = [[0, 1]] * 8
    entries[3] = [1, PRIME_POOL[0]]
    result = runner.invoke(
        main, ["kernel", "--algebra", "A2", "--k", "3", "--lambda", _lambda_file(tmp_path, entries)]
    )
    cert = _report(result)["body"]["certificate"]
    assert cert["primes_used"] == list(PRIME_POOL[1:4])
    assert cert["modular_ranks"] == [cert["rank"]] * 3
    assert cert["method"] == "multi-modular+exact" and cert["exact_confirmed"]


def test_verify_command_passes(runner):
    result = runner.invoke(
        main,
        ["verify", "--algebra", "A1", "--lambda", "preset:cartan1",
         "--k-min", "1", "--k-max", "2"],
    )
    rep = _report(result)
    assert rep["body"]["forced_identities_hold"] is True
    kinds = {a["kind"] for a in rep["body"]["audits"]}
    assert kinds == {"generator-formula-agreement", "mirror-antisymmetry",
                     "kernel-mirror-stability", "nilpotency"}
    agreement = next(a for a in rep["body"]["audits"]
                     if a["kind"] == "generator-formula-agreement")
    assert agreement["agree"] is True


def test_verify_nilpotency_capped_does_not_gate(runner):
    # cap chosen so k=2 mirror fits (Sym^3 = 10) but the k=2 nilpotency
    # composite (Sym^4 = 15) does not
    result = runner.invoke(
        main,
        ["--max-dim", "12", "verify", "--algebra", "A1",
         "--lambda", "preset:cartan1", "--k-min", "1", "--k-max", "2"],
    )
    rep = json.loads(result.output)
    nil_audits = [a for a in rep["body"]["audits"] if a["kind"] == "nilpotency"]
    assert any("skipped" in a for a in nil_audits)
    assert result.exit_code == 0


def test_verify_forced_audit_capped_exits_3(runner):
    result = runner.invoke(
        main,
        ["--max-dim", "5", "verify", "--algebra", "A1",
         "--lambda", "preset:cartan1", "--k-min", "1", "--k-max", "1"],
    )
    assert result.exit_code == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["kernel", "--algebra", "A1", "--k", "0", "--lambda", "preset:cartan1"],
        ["kernel", "--algebra", "A1", "--k", "-1", "--lambda", "preset:cartan1"],
        ["matrix", "--algebra", "A1", "--k", "0"],
        ["cohomology", "--algebra", "A1", "--k", "0", "--lambda", "preset:cartan1"],
        ["cohomology", "--torus", "0", "--algebra", "A1", "--k", "1",
         "--lambda", "preset:cartan1"],
        ["cohomology", "--n", "0", "--algebra", "A1", "--k", "1",
         "--lambda", "preset:cartan1"],
        ["verify", "--algebra", "A1", "--lambda", "preset:cartan1", "--k-min", "0"],
        ["verify", "--algebra", "A1", "--lambda", "preset:cartan1",
         "--k-min", "3", "--k-max", "1"],
        ["--max-dim", "0", "matrix", "--algebra", "A1", "--k", "1"],
        ["--max-dim", "-5", "matrix", "--algebra", "A1", "--k", "1"],
        ["tension", "--algebra", "E7", "--h11", "56", "--kernel-dim", "-3"],
        ["tension", "--algebra", "E7", "--h11", "-1"],
    ],
)
def test_out_of_range_integer_options_exit_2(runner, argv):
    result = runner.invoke(main, argv)
    assert result.exit_code == 2, result.output
    assert len([ln for ln in result.output.splitlines() if ln.startswith("Error:")]) == 1
    assert "Traceback" not in result.output


def test_certification_failure_exits_5(runner, monkeypatch):
    # A2 k=3 is 120 x 330, above the dense-exact tier, so its rank comes from
    # the one pass modulo a product of three primes; if every prime triple
    # meets a pivot that is not a unit, the rank cannot be certified.
    moduli = []
    relations = linalg._relations

    def non_unit(cols, p, *rest):
        if p is None:
            return relations(cols, p, *rest)
        moduli.append(p)
        raise linalg._NonUnitPivot(f"pivot is not a unit modulo {p}")

    monkeypatch.setattr(linalg, "_relations", non_unit)
    result = runner.invoke(
        main, ["kernel", "--algebra", "A2", "--k", "3", "--lambda", "preset:cartan1"]
    )
    assert result.exit_code == 5, result.output
    lines = result.output.splitlines()
    assert len(lines) == 1 and "disagree" in lines[0], result.output
    assert "Traceback" not in result.output
    assert moduli == [math.prod(PRIME_POOL[i : i + 3]) for i in range(0, 12, 3)]


def test_torus_rank_failure_exits_5(runner, monkeypatch):
    # The A2 k=1 kernel matrix is small enough for the dense-exact tier, but
    # d_1 (x) I_8 on T^2 n=4 has 128 x 256 = 32768 entries, so its rank comes
    # from the pass modulo three primes; a pivot that is never a unit leaves
    # the torus rank uncertified.
    assert 128 * 256 > linalg.DENSE_ENTRY_LIMIT
    relations = linalg._relations
    moduli = []

    def non_unit(cols, p, *rest):
        if p is None:
            return relations(cols, p, *rest)
        moduli.append(p)
        raise linalg._NonUnitPivot(f"pivot is not a unit modulo {p}")

    monkeypatch.setattr(linalg, "_relations", non_unit)
    result = runner.invoke(main, ["cohomology", "--torus", "2", "--n", "4", "--algebra", "A2",
                                  "--k", "1", "--lambda", "preset:zero"])
    assert result.exit_code == 5, result.output
    lines = result.output.splitlines()
    assert len(lines) == 1 and lines[0].startswith("certification failed:"), result.output
    assert "Traceback" not in result.output
    assert moduli


def test_product_identity_mismatch_exits_5(runner, monkeypatch):
    # One rank too many, only for the kappa-tensored operators, breaks
    # dim H^p = b_p * kappa; the report must not be written.
    untensored = {torus.CellComplex.torus(2, 4).n_cells(p) for p in range(3)}
    real = torus.kernel_with_certificate

    def one_rank_too_many(cols, nrows, ncols, *rest):
        vectors, cert = real(cols, nrows, ncols, *rest)
        if ncols not in untensored:
            cert = dataclasses.replace(cert, rank=cert.rank + 1)
        return vectors, cert

    monkeypatch.setattr(torus, "kernel_with_certificate", one_rank_too_many)
    result = runner.invoke(main, ["cohomology", "--torus", "2", "--n", "4", "--algebra", "A1",
                                  "--k", "2", "--lambda", "preset:cartan1"])
    assert result.exit_code == 5, result.output
    lines = result.output.splitlines()
    assert len(lines) == 1, result.output
    assert lines[0].startswith("certification failed: degenerate cohomology dims")
    assert "Traceback" not in result.output


def test_kernel_not_in_free_variable_form_exits_5(runner, monkeypatch):
    # --decompose reads span membership off the free-variable form; a basis
    # vector scaled by 2 breaks that form and must not yield a verdict.
    import spencerlab.cli as cli_mod

    real = cli_mod.kernel_of_constrained

    def scaled_first_vector(*args):
        kb, cert = real(*args)
        kb.coords[0] = {j: 2 * v for j, v in kb.coords[0].items()}
        return kb, cert

    monkeypatch.setattr(cli_mod, "kernel_of_constrained", scaled_first_vector)
    result = runner.invoke(
        main,
        ["kernel", "--algebra", "A2", "--k", "2", "--lambda", "preset:random:4321",
         "--decompose"],
    )
    assert result.exit_code == 5, result.output
    lines = result.output.splitlines()
    assert len(lines) == 1 and lines[0].startswith("certification failed: "), result.output


def test_cohomology_command(runner, tmp_path):
    csv_path = tmp_path / "dims.csv"
    result = runner.invoke(
        main,
        ["cohomology", "--torus", "2", "--n", "4", "--algebra", "A1",
         "--k", "2", "--lambda", "preset:cartan1", "--csv", str(csv_path)],
    )
    rep = _report(result)
    assert rep["body"]["betti"] == [1, 2, 1]
    assert rep["body"]["degenerate_dims"] == [4, 8, 4]
    assert rep["body"]["euler_characteristic"] == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "degree,betti,degenerate_dim"
    assert len(lines) == 4


def test_tension_command_examples(runner):
    rep = _report(runner.invoke(main, ["tension", "--algebra", "E7", "--h11", "56"]))
    assert rep["body"]["verdict"] == "forced_match"
    assert rep["body"]["forced_dim"] == 56
    rep = _report(runner.invoke(main, ["tension", "--algebra", "G2", "--h11", "7"]))
    assert rep["body"]["verdict"] == "forced_match"
    rep = _report(runner.invoke(main, ["tension", "--algebra", "F4", "--h11", "10"]))
    assert rep["body"]["verdict"] == "infeasible"


def test_varsolve_command(runner, tmp_path):
    cfg = {
        "algebra": "A1",
        "lattice": {"d": 2, "n": 4},
        "weights": {"alpha1": 0.5, "alpha2": 0.0, "alpha3": 1.0, "C": 10.0},
        "seed": 42,
        "solver": {"step": 0.1, "max_iters": 3000, "tol": 1e-8},
        "omega": {"mode": "random", "scale": 0.3},
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    trace_path = tmp_path / "trace.csv"
    json_path = tmp_path / "report.json"
    result = runner.invoke(
        main,
        ["varsolve", "--config", str(cfg_path), "--out", str(trace_path),
         "--json", str(json_path)],
    )
    assert result.exit_code == 0, result.output
    rep = json.loads(json_path.read_text())
    assert rep["body"]["converged"] is True
    assert rep["body"]["monotone"] is True
    lines = trace_path.read_text().strip().splitlines()
    assert lines[0].startswith("iteration,total,main,pen1,pen3")
    assert len(lines) == rep["body"]["iterations"] + 2


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"seed": "x"}', "non-numeric field"),
        ('{"solver": {"max_iters": null}}', "non-numeric field"),
        ('{"seed": 1', "is not valid JSON"),
        ("[1, 2]", "must hold a JSON object"),
        ('{"lattice": 3}', "'lattice' must be a JSON object"),
        ('{"algebra": 7}', "cannot parse algebra label '7'"),
        ('{"seed": 1.5}', "non-integer field 'seed': 1.5"),
        ('{"seed": true}', "non-numeric field 'seed': true"),
        ('{"lattice": {"d": 2.0}}', "non-integer field 'd': 2.0"),
        ('{"lattice": {"n": "4"}}', "non-numeric field 'n': \"4\""),
        ('{"solver": {"max_iters": 10.5}}', "non-integer field 'max_iters': 10.5"),
        ('{"solver": {"max_iters": false}}', "non-numeric field 'max_iters': false"),
        ('{"solver": {"step": true, "max_iters": 1}}',
         "non-numeric field 'step': true; expected a JSON number"),
        ('{"weights": {"C": null}}', "non-numeric field 'C': null; expected a JSON number"),
        ('{"lambda_scale": [1]}',
         "non-numeric field 'lambda_scale': [1]; expected a JSON number"),
        ('{"omega": {"scale": {}}}', "non-numeric field 'scale': {}; expected a JSON number"),
    ],
)
def test_varsolve_bad_config_exits_2(runner, tmp_path, text, message):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(text)
    result = runner.invoke(main, ["varsolve", "--config", str(cfg_path)])
    assert result.exit_code == 2, result.output
    assert message in result.output
    assert "Traceback" not in result.output


def test_report_bodies_deterministic(runner, tmp_path):
    # identical manifests (minus timestamp) give byte-identical bodies
    commands = [
        ["lie", "info", "--algebra", "A2"],
        ["matrix", "--algebra", "A1", "--k", "2", "--lambda", "preset:random:7"],
        ["kernel", "--algebra", "A2", "--k", "1", "--lambda", "preset:random:3"],
        ["verify", "--algebra", "A1", "--lambda", "preset:cartan1", "--k-max", "2"],
        ["cohomology", "--torus", "2", "--n", "3", "--algebra", "A1", "--k", "2",
         "--lambda", "preset:cartan1"],
        ["tension", "--algebra", "E7", "--h11", "56"],
    ]
    for argv in commands:
        r1 = runner.invoke(main, argv)
        r2 = runner.invoke(main, argv)
        assert r1.exit_code == r2.exit_code == 0, (argv, r1.output)
        b1 = body_bytes(json.loads(r1.output))
        b2 = body_bytes(json.loads(r2.output))
        assert b1 == b2, argv


def test_varsolve_deterministic(runner, tmp_path):
    cfg = {
        "algebra": "A1",
        "lattice": {"d": 2, "n": 3},
        "weights": {"alpha1": 0.5, "alpha3": 1.0, "C": 10.0},
        "seed": 7,
        "solver": {"max_iters": 500, "tol": 1e-8},
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    outs = []
    for _ in range(2):
        result = runner.invoke(main, ["varsolve", "--config", str(cfg_path)])
        assert result.exit_code == 0
        outs.append(body_bytes(json.loads(result.output)))
    assert outs[0] == outs[1]


def test_verify_forced_identity_failure_exits_4(runner, monkeypatch):
    import spencerlab.cli as cli_mod

    def broken_mirror(alg, lam, k, cap):
        return {"algebra": alg.label, "k": k, "holds": False,
                "max_abs_entry": "1/1", "shape": [0, 0]}

    monkeypatch.setattr(cli_mod, "verify_mirror", broken_mirror)
    result = runner.invoke(
        main,
        ["verify", "--algebra", "A1", "--lambda", "preset:cartan1", "--k-max", "1"],
    )
    assert result.exit_code == 4


def test_schema_validation_rejects_malformed():
    with pytest.raises(SchemaError):
        validate_report({"schema": {"name": "report/lie-info", "version": 1}})
    with pytest.raises(SchemaError):
        validate_report(
            {
                "schema": {"name": "report/lie-info", "version": 1},
                "manifest": {"command": "lie-info", "params": {},
                             "tool_version": "x", "timestamp": "t"},
                "body": {"algebra": "A1"},
            }
        )


def _message_line(result) -> str:
    """The one stderr line saying why a command failed.

    Click's usage hint around a status-2 message (``Usage:`` and ``Try ...``
    lines) is not a message line.
    """
    assert "Traceback" not in result.output
    lines = [ln for ln in result.stderr.splitlines()
             if ln and not ln.startswith(("Usage: ", "Try '"))]
    assert len(lines) == 1, result.stderr
    return lines[0]


def _varsolve(runner, directory, cfg_text):
    cfg_path = directory / "cfg.json"
    cfg_path.write_text(cfg_text)
    return runner.invoke(main, ["varsolve", "--config", str(cfg_path)])


@pytest.mark.parametrize(
    "text, field",
    [
        ('{"lattice": {"d": 0}}', "'d': 0"),
        ('{"lattice": {"d": -1}}', "'d': -1"),
        ('{"lattice": {"n": 0}}', "'n': 0"),
        ('{"seed": -1}', "'seed': -1"),
        ('{"solver": {"max_iters": -1}}', "'max_iters': -1"),
        ('{"solver": {"step": -1}}', "'step': -1.0"),
        ('{"solver": {"step": 0}}', "'step': 0.0"),
        ('{"solver": {"step": NaN}}', "'step': NaN"),
        ('{"solver": {"step": "nan"}}', "'step': NaN"),
        ('{"solver": {"step": Infinity}}', "'step': Infinity"),
        ('{"solver": {"tol": -1e-8}}', "'tol': -1e-08"),
        ('{"solver": {"tol": "inf"}}', "'tol': Infinity"),
        ('{"solver": {"tol": NaN}}', "'tol': NaN"),
        ('{"weights": {"alpha1": "inf"}}', "'alpha1': Infinity"),
        ('{"weights": {"alpha2": NaN}}', "'alpha2': NaN"),
        ('{"weights": {"alpha3": "inf"}, "solver": {"max_iters": 0}}', "'alpha3': Infinity"),
        ('{"weights": {"C": -Infinity}}', "'C': -Infinity"),
        ('{"lambda_scale": "1e400"}', "'lambda_scale': Infinity"),
        ('{"omega": {"scale": NaN}}', "'scale': NaN"),
    ],
)
def test_varsolve_out_of_range_config_exits_2(runner, tmp_path, text, field):
    result = _varsolve(runner, tmp_path, text)
    assert result.exit_code == 2, result.output
    line = _message_line(result)
    assert line.startswith("Error: config ") and f"out-of-range field {field}" in line, line


@pytest.mark.parametrize("mode, shown", [("zeros", '"zeros"'), (3, "3"), (None, "null")])
def test_varsolve_unknown_omega_mode_exits_2(runner, tmp_path, mode, shown):
    result = _varsolve(runner, tmp_path, json.dumps({"omega": {"mode": mode}}))
    assert result.exit_code == 2, result.output
    assert _message_line(result).endswith(
        f"has an out-of-range field 'mode': {shown}; expected \"random\" or \"zero\"")


@pytest.mark.parametrize(
    "lattice, shown",
    [({"d": 3, "n": 4}, "576"), ({"d": 10**30, "n": 2}, "more than 500"),
     ({"d": 10**30, "n": 1}, str(3 * 10**30))],
)
def test_varsolve_lattice_over_the_cap_exits_3(runner, tmp_path, lattice, shown):
    # d n^d dim omega entries on A1: 3 * 4^3 * 3 = 576 > 500
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"lattice": lattice}))
    result = runner.invoke(main, ["--max-dim", "500", "varsolve", "--config", str(cfg_path)])
    assert result.exit_code == 3, result.output
    assert not result.stdout
    line = _message_line(result)
    assert f"has {shown} omega entries" in line and line.endswith("the cap of 500"), line
    cfg_path.write_text(json.dumps({"lattice": {"d": 3, "n": 4}, "solver": {"max_iters": 0}}))
    result = runner.invoke(main, ["--max-dim", "576", "varsolve", "--config", str(cfg_path)])
    assert result.exit_code == 0, result.output


def test_varsolve_huge_integer_field_exits_2(runner, tmp_path):
    result = _varsolve(runner, tmp_path, '{"lambda_scale": 1' + "0" * 400 + "}")
    assert result.exit_code == 2, result.output
    assert "too large to convert to float" in _message_line(result)


def test_varsolve_divergence_exits_6(runner, tmp_path, recwarn):
    # A pairing penalty this stiff needs a step far below min_step.
    result = _varsolve(runner, tmp_path,
                       '{"weights": {"alpha1": 1e30}, "solver": {"max_iters": 50}}')
    assert result.exit_code == 6, result.output
    assert not result.stdout
    line = _message_line(result)
    assert line.startswith("solver diverged: backtracking exhausted at iteration 1"), line
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("text, shown", [
    ('{"lambda_scale": 1e300, "solver": {"max_iters": 0}}', "energy inf and gradient norm inf"),
    ('{"lambda_scale": 1e200, "solver": {"max_iters": 50}}', "energy inf and gradient norm inf"),
    ('{"lambda_scale": 2e152}', "energy 8.539973146710987e+306 and gradient norm inf"),
])
def test_varsolve_non_finite_start_exits_6(runner, tmp_path, recwarn, text, shown):
    # Finite inputs whose start overflows: no Infinity token reaches a body.
    result = _varsolve(runner, tmp_path, text)
    assert result.exit_code == 6, result.output
    assert not result.stdout
    assert _message_line(result) == f"solver diverged: the start has {shown}; both must be finite"
    # numpy's overflow warnings would print on stderr outside pytest
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_varsolve_whole_solve_matches_golden(runner, tmp_path):
    golden = load_golden("varsolve_solve_a1_d3n3.json")
    cfg_path, json_path, csv_path = (tmp_path / name for name in ("c.json", "r.json", "t.csv"))
    cfg_path.write_text(json.dumps(golden["config"]))
    result = runner.invoke(main, ["varsolve", "--config", str(cfg_path), "--json",
                                  str(json_path), "--out", str(csv_path)])
    assert result.exit_code == 0, result.output
    assert json.loads(json_path.read_text())["body"] == golden["body"]
    assert csv_path.read_text().splitlines() == golden["csv"]


def test_lie_info_g2_table_matches_golden(runner, tmp_path):
    golden = load_golden("g2_lie_table.json")
    table_path = tmp_path / "g2.json"
    rep = _report(runner.invoke(main, ["lie", "info", "--algebra", "G2",
                                       "--table", str(table_path)]))
    assert rep["body"] == golden["lie_info_body"]
    assert json.loads(table_path.read_text()) == golden["table"]


def _body_case_ids(cases):
    # A case is named by its first five arguments, or by all of them when
    # those five already name an earlier case.
    ids = []
    for case in cases:
        short = " ".join(case["args"][:5])
        ids.append(" ".join(case["args"]) if short in ids else short)
    return ids


_BODY_CASES = load_golden("report_body_sha.json")["cases"]


@pytest.mark.parametrize("case", _BODY_CASES, ids=_body_case_ids(_BODY_CASES))
def test_report_body_matches_golden_sha(runner, case):
    # sha256 of the canonical body; the manifest carries a timestamp
    body = body_bytes(_report(runner.invoke(main, case["args"])))
    assert hashlib.sha256(body).hexdigest() == case["sha256"]


def _manifest_without_timestamp(rep) -> dict:
    manifest = dict(rep["manifest"])
    datetime.fromisoformat(manifest.pop("timestamp"))
    return manifest


def test_manifests_are_pinned(runner, tmp_path):
    rep = _report(runner.invoke(main, ["kernel", "--algebra", "A1", "--k", "1",
                                       "--lambda", "preset:cartan1"]))
    assert _manifest_without_timestamp(rep) == {
        "command": "spencer-kernel",
        "params": {"algebra": "A1", "k": 1, "lambda": "preset:cartan1"},
        "algebra": "A1",
        "seeds": [],
        "tool_version": __version__,
    }
    cfg = {"lattice": {"d": 1, "n": 3}, "seed": 3, "solver": {"max_iters": 0}}
    manifest = _manifest_without_timestamp(_report(_varsolve(runner, tmp_path, json.dumps(cfg))))
    assert manifest["seeds"] == [3]
    assert manifest["params"] == {"config": cfg}


@pytest.mark.parametrize("cap, d, n, shown", [
    (100, 3, 6, "1728"),
    (10_000_000, 10**30, 10**9, "more than 10000000"),
])
def test_cohomology_torus_over_the_cap_exits_3(runner, cap, d, n, shown):
    # (2n)^d cells are checked before any is built, so a huge d returns at once.
    result = runner.invoke(main, ["--max-dim", str(cap), "cohomology", "--torus", str(d),
                                  "--n", str(n), "--algebra", "A1", "--k", "1",
                                  "--lambda", "preset:cartan1"])
    assert result.exit_code == 3, result.output
    assert not result.stdout
    assert _message_line(result) == (f"a d={d}, n={n} torus has {shown} cells ((2n)^d), "
                                     f"exceeding the cap of {cap}")


@pytest.mark.parametrize(
    "argv",
    [
        ["kernel", "--algebra", "A1", "--k", "1", "--lambda", "preset:cartan1", "--out"],
        ["kernel", "--algebra", "A1", "--k", "1", "--lambda", "preset:cartan1", "--csv"],
        ["matrix", "--algebra", "A1", "--k", "1", "--out"],
        ["lie", "info", "--algebra", "A1", "--out"],
    ],
)
def test_output_into_missing_directory_exits_2(runner, tmp_path, argv):
    missing = tmp_path / "no-such-dir" / "out"
    result = runner.invoke(main, argv + [str(missing)])
    assert result.exit_code == 2, result.output
    line = _message_line(result)
    assert line == f"Error: [Errno 2] No such file or directory: {str(missing)!r}", line


def test_unknown_label_and_missing_lambda_file_exit_2_with_one_line(runner, tmp_path):
    result = runner.invoke(main, ["kernel", "--algebra", "Q3", "--k", "1", "--lambda",
                                  "preset:zero"])
    assert result.exit_code == 2
    assert _message_line(result) == "Error: cannot parse algebra label 'Q3'"
    result = runner.invoke(main, ["kernel", "--algebra", "A1", "--k", "1", "--lambda",
                                  f"file:{tmp_path / 'absent.json'}"])
    assert result.exit_code == 2
    assert _message_line(result).startswith("Error: [Errno 2] No such file or directory")


def test_closed_stdout_keeps_the_quiet_exit_1(runner, monkeypatch):
    # A BrokenPipeError is an OSError, but click's own handling stays.
    import spencerlab.cli as cli_mod

    def closed_stdout(report, out_path):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")

    monkeypatch.setattr(cli_mod, "write_report", closed_stdout)
    result = runner.invoke(main, ["lie", "info", "--algebra", "A1"])
    assert result.exit_code == 1
    assert not result.stderr


def test_tension_reports_the_canonical_label(runner):
    rep = _report(runner.invoke(main, ["tension", "--algebra", " e7", "--h11", "56"]))
    assert rep["body"]["algebra"] == "E7"
    assert rep["body"]["verdict"] == "forced_match"


def test_tension_huge_rank_reads_only_the_table(runner):
    # parsing the label builds no rank x rank matrix
    rep = _report(runner.invoke(main, ["tension", "--algebra", "A20000", "--h11", "5"]))
    assert rep["body"]["algebra"] == "A20000"
    assert rep["body"]["min_irrep_source"] == "extension"


# Adversarial inputs: every run ends in a documented status with one message
# line.  Sized so that the whole property suite takes seconds.
_JUNK = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3), st.lists(st.integers(-2, 2), max_size=2),
    st.dictionaries(st.text(max_size=1), st.none(), max_size=1),
)
_NUMBER = st.one_of(
    st.floats(),  # NaN, +-inf, negative and huge values included
    st.integers(-3, 3),
    st.sampled_from(["nan", "inf", "-inf", "1e400", "0.5"]),
    _JUNK,
)


def _reject_constant(name: str):
    raise AssertionError(f"the report holds the non-JSON constant {name}")


def _is_finite_number(value) -> bool:
    if isinstance(value, bool):
        return False
    try:
        return math.isfinite(float(value))
    except (TypeError, ValueError, OverflowError):
        return False


@settings(max_examples=60, deadline=None)
@given(cfg=st.fixed_dictionaries({
    "lattice": st.fixed_dictionaries({"d": st.integers(-1, 3), "n": st.integers(-1, 3)}),
    "seed": st.one_of(st.integers(-1, 5), _NUMBER),
    "solver": st.fixed_dictionaries({
        "max_iters": st.integers(-1, 20), "step": _NUMBER, "tol": _NUMBER,
    }),
    "weights": st.fixed_dictionaries({"alpha1": _NUMBER, "alpha2": _NUMBER,
                                      "alpha3": _NUMBER, "C": _NUMBER}),
    "lambda_scale": _NUMBER,
    "omega": st.fixed_dictionaries({"mode": st.sampled_from(["random", "zero"]),
                                    "scale": _NUMBER}),
}))
@example(cfg={
    "lattice": {"d": 2, "n": 4}, "seed": 0,
    "solver": {"max_iters": 0, "step": 0.1, "tol": 1e-8},
    "weights": {"alpha1": 1.0, "alpha2": 0.0, "alpha3": 1.0, "C": 1.0},
    "lambda_scale": 1e300, "omega": {"mode": "random", "scale": 0.3},
})
def test_varsolve_adversarial_configs_end_in_a_documented_status(tmp_path_factory, cfg):
    result = _varsolve(CliRunner(), tmp_path_factory.mktemp("cfg"), json.dumps(cfg))
    assert result.exit_code in (0, 2, 6), (result.output, result.exception)
    real_fields = [*cfg["weights"].values(), cfg["lambda_scale"], cfg["omega"]["scale"],
                   cfg["solver"]["step"], cfg["solver"]["tol"]]
    if not all(_is_finite_number(v) for v in real_fields):
        assert result.exit_code == 2, result.output
    if result.exit_code:
        _message_line(result)
    else:
        validate_report(json.loads(result.stdout, parse_constant=_reject_constant))


@settings(max_examples=60, deadline=None)
@given(data=st.one_of(
    st.lists(st.one_of(st.lists(st.integers(-10**6, 10**6), min_size=2, max_size=2), _NUMBER),
             min_size=3, max_size=3),
    st.lists(st.lists(st.integers(-5, 5), min_size=2, max_size=2), max_size=4),
    _NUMBER,
    st.binary(max_size=8),
))
def test_lambda_file_adversarial_json_ends_in_a_documented_status(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("lam") / "lam.json"
    if isinstance(data, bytes):
        path.write_bytes(data)
    else:
        path.write_text(json.dumps(data))
    result = CliRunner().invoke(
        main, ["kernel", "--algebra", "A1", "--k", "2", "--lambda", f"file:{path}"]
    )
    assert result.exit_code in (0, 2), (result.output, result.exception)
    if result.exit_code:
        _message_line(result)
    else:
        validate_report(json.loads(result.stdout))
