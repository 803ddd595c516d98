"""Correctness checks on the outputs of one op.

An op passes only if every CLI step exits as it did when the reference
was recorded (or 0 where it failed then), a rerun with the same config
and seed gives byte-identical files, the protocol read-back equals the
in-memory transcript exactly, regenerating the transcript from
manifest.json's seeds reproduces key.csv, and the reported numbers match
``reference.json`` within ``TOLERANCE``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re

import numpy as np

# (relative, absolute) tolerance per field class. Root-finder outputs get
# a looser class so that a different root finder with the same crossing
# tolerance still passes; everything else is closed-form or seeded
# arithmetic and must agree to rounding.
TOLERANCE = {
    "value": (1e-6, 1e-12),
    "root": (1e-3, 1e-6),
    "rate": (1e-6, 0.06),  # printed with one decimal
    "exact": (0.0, 0.0),
}
FIELD_CLASS = {
    "crossing": "root",
    "eps_max": "root",
    "distance": "root",
    "lb_rows": "root",
    "rate": "rate",
    "n_rows": "exact",
    "n_matched": "exact",
}

_STDOUT_FIELDS = {
    "crossing": r"crosses zero at nbar = (\S+)",
    "eps_max": r"max tolerable loss: (\S+)",
    "distance": r"distance limit: (\S+) m",
    "rate": r"raw key rate at configured loss: (\S+) bit/s",
}

# A sweep of up to SWEEP_FULL_ROWS points is compared row by row. A longer
# one is compared on every SWEEP_ROW_STRIDE-th row and on the sum of
# absolute values and the largest absolute value of each column, which
# every row enters.
SWEEP_FULL_ROWS = 41
SWEEP_ROW_STRIDE = 10


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def output_hashes(path) -> dict[str, str]:
    """sha256 of an output file, or of every file in an output directory."""
    if os.path.isdir(path):
        return {name: sha256_file(os.path.join(path, name)) for name in sorted(os.listdir(path))}
    if os.path.exists(path):
        return {os.path.basename(path): sha256_file(path)}
    return {}


def _stdout_value(stdout: str, field: str) -> float:
    match = re.search(_STDOUT_FIELDS[field], stdout)
    if match is None:
        raise ValueError(f"no {field} line in stdout")
    return float(match.group(1))


def _sweep_values(rows: list, crossing: float) -> dict:
    values = {"crossing": crossing, "n_rows": len(rows)}
    if len(rows) <= SWEEP_FULL_ROWS:
        values["rows"] = rows
    else:
        columns = list(zip(*rows))
        values["rows"] = rows[::SWEEP_ROW_STRIDE]
        values["col_abs_sums"] = [math.fsum(abs(x) for x in col) for col in columns]
        values["col_max_abs"] = [max(abs(x) for x in col) for col in columns]
    return values


def extract(kind: str, out_path: str, stdout: str) -> dict:
    """The numbers a step reports that are compared with the reference."""
    if kind == "sweep":
        if out_path.endswith(".json"):
            with open(out_path) as fh:
                payload = json.load(fh)
            crossing = payload["asymptotic_noise_crossing"]
            rows = [
                [
                    r["inputs"]["channel"]["noise_photons"],
                    r["snr"],
                    r["mi_bits"],
                    r["holevo_bits"],
                    r["asymptotic_key_bits"],
                    r["finite_size"]["bits_per_raw_symbol"],
                ]
                for r in payload["reports"]
            ]
        else:
            with open(out_path) as fh:
                lines = fh.read().splitlines()
            if not lines[0].startswith("# config: "):
                raise ValueError("sweep CSV lacks its config line")
            rows = [[float(x) for x in line.split(",")] for line in lines[2:]]
            crossing = _stdout_value(stdout, "crossing")
        return _sweep_values(rows, crossing)
    if kind == "linkbudget":
        if out_path.endswith(".json"):
            with open(out_path) as fh:
                payload = json.load(fh)
            rows = [[r["nbar_th"], r["eps_max"], r["distance_m"]] for r in payload["rows"]]
            return {
                "eps_max": payload["max_tolerable_loss"],
                "distance": payload["distance_limit_m"],
                "rate": payload["raw_key_rate_bits_per_s"],
                "lb_rows": rows,
            }
        with open(out_path) as fh:
            lines = fh.read().splitlines()
        rows = [[float(x) for x in line.split(",")] for line in lines[2:]]
        return {
            "eps_max": _stdout_value(stdout, "eps_max"),
            "distance": _stdout_value(stdout, "distance"),
            "rate": _stdout_value(stdout, "rate"),
            "lb_rows": rows,
        }
    if kind == "report":
        with open(out_path) as fh:
            payload = json.load(fh)
        return {
            "snr": payload["snr"],
            "mi_bits": payload["mi_bits"],
            "holevo_bits": payload["holevo_bits"],
            "asymptotic": payload["asymptotic_key_bits"],
            "composite": payload["finite_size"]["bits_per_raw_symbol"],
        }
    if kind == "protocol":
        with open(os.path.join(out_path, "report.json")) as fh:
            payload = json.load(fh)
        est = payload["inputs"]["estimate"]
        emp = payload["empirical"]
        return {
            "loss": est["loss"],
            "loss_sigma": est["loss_sigma"],
            "noise_photons": est["noise_photons"],
            "noise_sigma": est["noise_sigma"],
            "asymptotic": payload["asymptotic_key_bits"],
            "composite": payload["finite_size"]["bits_per_raw_symbol"],
            "mi_emp": emp["mutual_information_bits"],
            "mi_sigma": emp["mutual_information_sigma"],
            "n_matched": emp["n_matched"],
        }
    raise ValueError(f"unknown step kind {kind!r}")


def _close(ref, got, rel: float, abs_: float) -> bool:
    if isinstance(ref, list):
        return (
            isinstance(got, list)
            and len(ref) == len(got)
            and all(_close(r, g, rel, abs_) for r, g in zip(ref, got))
        )
    if ref == got:
        return True
    return math.isclose(float(ref), float(got), rel_tol=rel, abs_tol=abs_)


def compare(reference: dict, values: dict) -> list[str]:
    """Fields of ``values`` that differ from ``reference`` beyond tolerance."""
    errors = []
    for field, ref in reference.items():
        rel, abs_ = TOLERANCE[FIELD_CLASS.get(field, "value")]
        got = values.get(field)
        if got is None or not _close(ref, got, rel, abs_):
            errors.append(f"{field}: reference {ref!r}, got {got!r}")
    return errors


def record_errors(expected, actual, label: str) -> list[str]:
    """Exact field-by-field comparison of two KeyRecords."""
    errors = []
    for name in ("alice_symbols", "alice_bases", "bob_bases", "outcomes", "matched"):
        a, b = getattr(expected, name), getattr(actual, name)
        if a.dtype != b.dtype or not np.array_equal(a, b):
            errors.append(f"{label}: column {name} differs")
    return errors


def reference_key(kind: str, key: tuple) -> str:
    return kind + "|" + "|".join(str(part) for part in key)
