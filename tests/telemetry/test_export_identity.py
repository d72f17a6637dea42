"""Byte identity of the telemetry exports the CLI writes.

Pins the sha256 of five exports, each produced by a fresh ``repro``
process with every ``REPRO_*`` variable cleared:

* ``repro stats --json --smash`` and ``repro stats --prom --smash``
  over all 14 schemes;
* the ``--telemetry-out`` JSON of ``repro chaos --budget 4``;
* the ``--telemetry-out`` JSON of ``repro fleet --budget 200`` at
  ``--jobs 1`` and ``--jobs 2``.

A change to how instruments are declared or recorded must leave every
key, value, help text and event in these exports as it was.  Lines
naming ``memory_pages_frozen_total`` are left out of the digest: that
counter's unit is pinned on its own in ``tests/machine/test_cow.py``.
"""

import hashlib
import os
import subprocess
import sys

import pytest

import repro
from repro.core.deploy import SCHEMES

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

_SKIPPED = "memory_pages_frozen_total"

_STATS = ["stats", "--smash", "--schemes", ",".join(SCHEMES)]

#: export name -> (repro argv, writes to --telemetry-out, sha256)
EXPORTS = {
    "stats-json": (
        _STATS + ["--json"], False,
        "9d3559ac5d867235bea168477a4465534363e4e1afded9b6db986633b8c41665",
    ),
    "stats-prom": (
        _STATS + ["--prom"], False,
        "047b6ca6f20dd41f354610e5d66a30aa63552a7797fed519f15c88f2c2e375d6",
    ),
    "chaos": (
        ["chaos", "--budget", "4"], True,
        "097c1d72e8ec5bbef8a13b0a67c75762e510393352dbfa063e35e02feef3360f",
    ),
    "fleet-jobs1": (
        ["fleet", "--budget", "200", "--jobs", "1"], True,
        "e49ec9b3e483a6a6321a98a9eb8421e09364c5fb149a43f3fc19f4e316ef8da8",
    ),
    "fleet-jobs2": (
        ["fleet", "--budget", "200", "--jobs", "2"], True,
        "62b5c059fea2b8b6d2f32f497db4f640dbc37a42fd08e44cafffdd935a4b0e72",
    ),
}


def _export(argv, telemetry_out, tmp_path):
    env = {
        key: value for key, value in os.environ.items()
        if not key.startswith("REPRO_")
    }
    env["PYTHONPATH"] = _SRC
    out = tmp_path / "telemetry.json"
    if telemetry_out:
        argv = argv + ["--telemetry-out", str(out)]
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        env=env, cwd=tmp_path, capture_output=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    text = out.read_text() if telemetry_out else proc.stdout.decode()
    return "".join(
        line for line in text.splitlines(keepends=True)
        if _SKIPPED not in line
    )


@pytest.mark.parametrize("name", sorted(EXPORTS))
def test_export_is_byte_identical(name, tmp_path):
    argv, telemetry_out, digest = EXPORTS[name]
    text = _export(argv, telemetry_out, tmp_path)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
