"""The regeneration tool and the goldens it writes list the same cases.

A case added to ``tools/regen_goldens.py`` without regenerating the golden
(or the other way round) fails here.
"""

from __future__ import annotations

import importlib.util
import os

from conftest import load_golden

_TOOL = os.path.join(os.path.dirname(__file__), "..", "tools", "regen_goldens.py")
_spec = importlib.util.spec_from_file_location("regen_goldens", _TOOL)
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)


def test_report_body_cases_match_the_golden():
    cases = load_golden("report_body_sha.json")["cases"]
    assert [list(args) for args in regen.REPORT_BODY_CASES] == [c["args"] for c in cases]


def test_assembly_cases_match_the_golden():
    cases = load_golden("assembly_sha.json")["cases"]
    rows = [(c["algebra"], c["lambda"], c["k"], c["formula"]) for c in cases]
    assert list(regen.ASSEMBLY_CASES) == rows


def test_varsolve_solve_config_matches_the_golden():
    assert regen.VARSOLVE_SOLVE_CONFIG == load_golden("varsolve_solve_a1_d3n3.json")["config"]
