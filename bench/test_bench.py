"""Tests of the benchmark's own arithmetic and bookkeeping.

Run with ``python -m pytest bench/test_bench.py -q`` from the repository root.
"""

from __future__ import annotations

import os
import sys
import textwrap

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def span(id_, name, start, end, parent=None):
    return {"id": id_, "name": name, "start": start, "end": end, "parent": parent, "run": "r"}


def test_self_time_subtracts_direct_children_only():
    tree = [
        span(0, "a", 0.0, 10.0),
        span(1, "b", 1.0, 4.0, parent=0),
        span(2, "c", 2.0, 3.0, parent=1),
        span(3, "b", 5.0, 6.0, parent=0),
        span(4, "a", 11.0, 12.0),
    ]
    own = spans.self_times(tree)
    assert own == pytest.approx({0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0, 4: 1.0})
    assert sum(own.values()) == pytest.approx(11.0)  # what the top-level spans cover


def test_layer_metrics_sum_self_times_and_cover_the_solve():
    tree = [
        span(0, "chevalley.build_chevalley_basis", 0.0, 1.0),
        span(1, "chevalley.check_jacobi", 0.2, 0.9, parent=0),
        span(2, "kernels.kernel", 2.0, 7.0),
        span(3, "linalg.sparse_rank_modp", 2.5, 3.5, parent=2),
        span(4, "linalg.sparse_rank_modp", 3.5, 4.5, parent=2),
        span(5, "linalg.sparse_kernel_exact", 4.5, 6.5, parent=2),
    ]
    counters = {"kernels.certified": 1}
    values = spans.layer_metrics(tree, counters, [], solve_start=2.0, solve_end=7.5)
    assert values["chevalley.build_s"] == pytest.approx(0.3)
    assert values["chevalley.jacobi_s"] == pytest.approx(0.7)
    assert values["linalg.sparse_modp_s"] == pytest.approx(2.0)
    assert values["linalg.exact_kernel_s"] == pytest.approx(2.0)
    assert values["kernels.kernel_s"] == pytest.approx(1.0)
    assert values["linalg.modp_calls"] == 2
    assert values["linalg.modp_calls_per_kernel"] == 2
    assert values["kernels.certified"] == 1
    assert values["trace.spans_s"] == pytest.approx(5.0)  # set-up spans excluded
    assert values["trace.unattributed_s"] == pytest.approx(0.5)


def test_recorder_nests_spans_and_counts_hooks():
    ticks = iter(range(100))
    rec = spans.SpanRecorder("run-1", clock=lambda: float(next(ticks)))

    def inner(x):
        return x + 1

    traced_inner = rec.wrap("m.inner", inner, hook=lambda a, k, r: {"m.seen": r})
    outer = rec.wrap("m.outer", lambda x: traced_inner(x) * 2)
    assert outer(3) == 8
    names = [(s.name, s.parent, s.start, s.end) for s in rec.spans]
    assert names == [("m.outer", None, 0.0, 3.0), ("m.inner", 0, 1.0, 2.0)]
    assert rec.counters == {"m.seen": 4}


@pytest.fixture
def fake_package(tmp_path, monkeypatch):
    pkg = tmp_path / "fakepkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "lin.py").write_text(textwrap.dedent("""
        def rank(x):
            return x
    """))
    (pkg / "ker.py").write_text(textwrap.dedent("""
        from .lin import rank

        def kernel(x):
            return rank(x) + 1
    """))
    monkeypatch.syspath_prepend(str(tmp_path))
    import fakepkg

    yield fakepkg
    for name in [m for m in sys.modules if m.split(".")[0] == "fakepkg"]:
        del sys.modules[name]


def test_install_wraps_every_binding_and_reports_missing_functions(fake_package):
    rec = spans.SpanRecorder("r")
    targets = (
        ("lin.rank_s", "lin", "rank", None),
        ("ker.kernel_s", "ker", "kernel", None),
        ("lin.gone_s", "lin", "renamed_away", None),
        ("nomod.x_s", "nomod", "x", None),
    )
    counts = (("lin.calls", "lin", "also_gone"),)
    absent = spans.install(rec, fake_package, span_targets=targets, count_targets=counts)
    assert sorted(absent) == ["lin.calls", "lin.gone_s", "nomod.x_s"]
    from fakepkg import ker

    assert ker.kernel(1) == 2
    # ``ker`` imported ``rank`` by name; that binding is wrapped too.
    assert [(s.name, s.parent) for s in rec.spans] == [("ker.kernel", None), ("lin.rank", 0)]


def test_absent_metric_is_left_out_and_named():
    absent = ["linalg.dense_modp_s"]
    values = spans.layer_metrics([], {}, absent, 0.0, 1.0)
    assert "linalg.dense_modp_s" not in values
    assert "linalg.modp_calls" not in values  # derived from an absent function
    assert "linalg.sparse_modp_s" in values


def test_every_span_target_exists_at_this_commit():
    import spencerlab

    modules = spans.load_modules(spencerlab)
    by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
    missing = [
        (module, path) for _m, module, path, _h in spans.SPAN_TARGETS
        if spans._resolve(by_name, module, path) is None
    ]
    assert missing == []


def e7_record(dim=135, rank=8776):
    return {
        "shape": [400995, 8911], "dim": dim, "rank": rank,
        "certificate": {
            "primes_used": [1073741789, 1073741783, 1073741741],
            "modular_ranks": [rank] * 3, "exact_confirmed": True,
            "method": "multi-modular+exact", "rank": rank,
        },
    }


def test_wrong_expected_value_is_a_failed_operation():
    body = {"kernel_dim": 135, "certificate": e7_record()["certificate"]}
    golden = {"kernel_dim_measured": 135, "rank": 8776, "is_submodule": False}
    ops = workloads.Ops()
    assert ops.record("e7.kernel", workloads.e7_kernel_checks(body, e7_record(), golden, None))
    wrong = dict(golden, kernel_dim_measured=136)
    assert not ops.record("e7.kernel", workloads.e7_kernel_checks(body, e7_record(), wrong, None))
    assert ops.records[-1]["failed_checks"] == ["kernel_dim"]

    outcome = {"setups": [0.5], "passes": [
        {"ops": ops.records, "solve_s": 1.0, "peak_rss_mb": 50.0, "body_sha": None}
    ]}
    result, lines = run.summarize(outcome, trace=0)
    assert (result["attempted"], result["failed"], result["correct"]) == (2, 1, False)
    assert lines[-1].endswith("(1 failed of 2 operations)")


def test_kernel_checks_catch_rank_nullity_and_prime_disagreement():
    good = e7_record()
    assert all(workloads.kernel_checks(good).values())
    assert not workloads.kernel_checks(e7_record(dim=134))["rank_nullity"]
    split = e7_record()
    split["certificate"]["modular_ranks"] = [8776, 8776, 8775]
    assert not workloads.kernel_checks(split)["primes_agree"]


def test_crashed_worker_counts_as_a_failed_operation():
    result, _ = run.summarize({"setups": [], "passes": [None]}, trace=0)
    assert (result["attempted"], result["failed"], result["correct"]) == (1, 1, False)
