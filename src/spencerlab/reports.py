"""Report serialization: manifests, canonical JSON bodies, schema checks.

Every CLI report is a JSON document ``{"schema": ..., "manifest": ...,
"body": ...}``.  The manifest echoes the command and its parameters plus a
timestamp; the body is everything the computation produced and is rendered
with sorted keys and fixed separators, so identical manifests (ignoring the
timestamp) produce byte-identical bodies.

A record that goes into a body (or the manifest) is a dataclass whose fields
are its keys: ``as_dict`` is ``dataclasses.asdict``, so the format is stated
once, by the fields.
"""

from __future__ import annotations

import csv
import json
import sys
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from typing import Iterable

from . import __version__

SCHEMA_VERSION = 1


@dataclass
class RunManifest:
    command: str
    params: dict
    algebra: str | None = None
    seeds: list[int] = field(default_factory=list)
    tool_version: str = __version__
    timestamp: str = ""

    def as_dict(self) -> dict:
        return {**asdict(self),
                "timestamp": self.timestamp or datetime.now(timezone.utc).isoformat()}


def build_report(manifest: RunManifest, body: dict) -> dict:
    return {
        "schema": {"name": f"report/{manifest.command}", "version": SCHEMA_VERSION},
        "manifest": manifest.as_dict(),
        "body": body,
    }


def body_bytes(report: dict) -> bytes:
    """Canonical byte rendering of the report body."""
    return json.dumps(report["body"], sort_keys=True, separators=(",", ":")).encode()


def write_report(report: dict, out_path: str | None) -> None:
    """Validate the report, then stream its text, never held whole in memory."""
    validate_report(report)
    with open(out_path, "w", encoding="utf-8") if out_path else nullcontext(sys.stdout) as fh:
        json.dump(report, fh, sort_keys=True, indent=2)
        fh.write("\n")


def write_csv(rows: Iterable[dict], out_path: str) -> None:
    """Write rows from any iterable under the first row's keys; none give an empty file."""
    rows = iter(rows)
    first = next(rows, None)
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        if first is not None:
            writer = csv.DictWriter(fh, fieldnames=list(first))
            writer.writeheader()
            writer.writerow(first)
            writer.writerows(rows)


class SchemaError(ValueError):
    pass


# Required body keys (with types) per command; extra keys are allowed so
# schema growth is backwards-compatible within a version.
_BODY_REQUIRED: dict[str, dict[str, type]] = {
    "lie-info": {
        "algebra": str, "dim": int, "rank": int, "positive_roots": int,
        "root_count": int, "killing_det_sign": int, "jacobi_holds": bool,
    },
    "spencer-matrix": {
        "algebra": str, "variant": str, "k_from": int, "k_to": int,
        "nrows": int, "ncols": int, "nnz": int,
    },
    "spencer-kernel": {
        "algebra": str, "k": int, "kernel_dim": int, "certificate": dict,
    },
    "spencer-verify": {"algebra": str, "audits": list, "forced_identities_hold": bool},
    "spencer-cohomology": {
        "algebra": str, "torus_dimension": int, "betti": list,
        "degenerate_dims": list, "euler_characteristic": int,
    },
    "tension": {"algebra": str, "verdict": str, "lower_bound": int, "upper_bound": int},
    "varsolve": {
        "algebra": str, "iterations": int, "final": dict, "converged": bool,
    },
}


def validate_report(report: dict) -> None:
    for key in ("schema", "manifest", "body"):
        if key not in report:
            raise SchemaError(f"report is missing the {key!r} section")
    schema = report["schema"]
    if schema.get("version") != SCHEMA_VERSION:
        raise SchemaError(f"unsupported schema version {schema.get('version')}")
    name = schema.get("name", "")
    if not name.startswith("report/"):
        raise SchemaError(f"bad schema name {name!r}")
    command = name[len("report/"):]
    manifest = report["manifest"]
    for key in ("command", "params", "tool_version", "timestamp"):
        if key not in manifest:
            raise SchemaError(f"manifest is missing {key!r}")
    required = _BODY_REQUIRED.get(command)
    if required is None:
        raise SchemaError(f"unknown report command {command!r}")
    body = report["body"]
    for key, typ in required.items():
        if key not in body:
            raise SchemaError(f"body is missing {key!r} for {command}")
        if not isinstance(body[key], typ):
            raise SchemaError(
                f"body field {key!r} has type {type(body[key]).__name__}, "
                f"expected {typ.__name__}"
            )
