"""The one artifact writer, and every artifact written through it.

:func:`repro.persist.atomic_write` is the only place the system writes a
file.  A kill at any byte of its temp write, or between the write and
the ``os.replace``, leaves the target's previous bytes and no temp file
beside it — for the helper itself, and for each of its fourteen callers.

The kill is simulated by :class:`CutWrite`, which stands in for the
``open`` the helper writes its temp file through.  The checkpoint
kill-and-resume tests (``tests/parallel/test_checkpoints.py``) use the
same seam.
"""

import contextlib
import functools
import os
import stat

import pytest

from repro import cli as repro_cli
from repro import persist
from repro.binfmt import serialize
from repro.cli import main
from repro.core.deploy import build, get_scheme
from repro.fuzz.conformance import ConformanceFailure
from repro.fuzz.fuzzer import FuzzFailure, FuzzReport, write_failure_artifacts
from repro.harness import figures
from repro.parallel import Checkpoint
from repro.parallel.snapcache import IMAGE_SUFFIX, SnapshotCache
from repro.persist import atomic_write
from repro.trace import CampaignTrace, TraceConfig, write_trace
from repro.trace.bundle import (
    BUNDLE_SUFFIX,
    build_lost_bundle,
    bundle_digest,
    write_bundle,
)
from repro.workloads.generator import generate_fuzz_program


class Killed(Exception):
    """The process, killed mid-write."""


class CutWrite:
    """Stands in for the ``open`` :func:`atomic_write` writes through.

    Lets ``writes`` temp writes through whole, then writes the next one
    only up to ``offset`` (modulo its length + 1) and dies there: the
    process killed at that byte or, at the full length, between the
    write and the rename.  ``done`` holds every complete write's bytes.
    """

    def __init__(self, writes=1 << 30, offset=0):
        self.writes = writes
        self.offset = offset
        self.done = []

    @property
    def last(self):
        return self.done[-1] if self.done else None

    @contextlib.contextmanager
    def installed(self):
        persist.open = self
        try:
            yield self
        finally:
            del persist.open

    def __call__(self, fd, mode):
        self.handle = open(fd, mode)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.handle.close()

    def write(self, data):
        if self.writes == 0:
            cut = self.offset % (len(data) + 1)
            self.handle.write(data[:cut])
            raise Killed(f"killed at byte {cut} of {len(data)}")
        self.writes -= 1
        self.handle.write(data)
        self.done.append(data)


PREVIOUS = b'{"previous": "artifact"}\n'

#: The report and Figure 5 take seconds to generate; these tests are
#: about writing them, so each is generated once per module.
_generate_report = functools.lru_cache()(repro_cli.generate_report)
_figure5 = functools.lru_cache()(figures.figure5)


@pytest.fixture(autouse=True)
def generate_once(monkeypatch):
    monkeypatch.setattr(repro_cli, "generate_report", _generate_report)
    monkeypatch.setattr(figures, "figure5", _figure5)


class TestAtomicWrite:
    def test_str_is_utf8_and_bytes_are_verbatim(self, tmp_path):
        path = str(tmp_path / "a.txt")
        atomic_write(path, "canary ≡ cañary\n")
        assert (tmp_path / "a.txt").read_bytes() == "canary ≡ cañary\n".encode()
        atomic_write(path, b"\x00\xff")
        assert (tmp_path / "a.txt").read_bytes() == b"\x00\xff"
        assert os.listdir(tmp_path) == ["a.txt"]

    def test_mode_is_what_a_plain_open_gives(self, tmp_path):
        atomic_write(str(tmp_path / "atomic"), "x")
        with open(tmp_path / "plain", "w") as handle:
            handle.write("x")
        mode = os.stat(tmp_path / "atomic").st_mode
        assert stat.S_IMODE(mode) == stat.S_IMODE(
            os.stat(tmp_path / "plain").st_mode
        )

    def test_a_kill_at_every_byte_leaves_the_previous_file(self, tmp_path):
        path = tmp_path / "ckpt.json"
        data = b'{"units": {"1": [1, 2, 3]}}'
        for offset in range(len(data) + 1):
            path.write_bytes(PREVIOUS)
            with CutWrite(writes=0, offset=offset).installed():
                with pytest.raises(Killed):
                    atomic_write(str(path), data)
            assert path.read_bytes() == PREVIOUS
            assert os.listdir(tmp_path) == ["ckpt.json"]


# -- every writer -----------------------------------------------------------
#
# Each writer maps a directory to (the artifact's path, a call that
# writes it there with exactly one atomic_write).

SOURCE = "int main() { return 0; }"


def checkpoint(directory):
    path = os.path.join(directory, "ckpt.json")
    saved = Checkpoint(path, "kill-test", {"seeds": [1, 2]})
    saved.units["1"] = {"ok": True}
    return path, saved.save


def bundle(directory):
    payload = build_lost_bundle("pssp", [3, 4], {"chaos_seed": 9})
    name = bundle_digest(payload)[:16] + BUNDLE_SUFFIX
    return (
        os.path.join(directory, name),
        lambda: write_bundle(payload, directory),
    )


def snapshot_image(directory):
    binary, spec = build(SOURCE, "pssp"), get_scheme("pssp")
    key = SnapshotCache.key_for(binary, spec, [], 0x40000)
    cache = SnapshotCache(directory=directory)
    return (
        os.path.join(directory, key + IMAGE_SUFFIX),
        lambda: cache.image_for(binary, spec),
    )


def perfetto_trace(directory):
    path = os.path.join(directory, "trace.json")
    trace = CampaignTrace(config=TraceConfig(), slices=[])
    return path, lambda: write_trace(trace, path)


def fuzz_failure(directory):
    spec, source = generate_fuzz_program(7)
    report = FuzzReport(budget=1, base_seed=7, schemes=("pssp",), failures=[
        FuzzFailure(7, spec, source, [
            ConformanceFailure("spurious-smash", "pssp", "fast", "planted"),
        ]),
    ])
    return (
        os.path.join(directory, "fuzz-failure-seed7.json"),
        lambda: write_failure_artifacts(report, directory),
    )


def binary_image(directory):
    path = os.path.join(directory, "victim.bin")
    binary = build(SOURCE, "pssp")
    return path, lambda: serialize.save(binary, path)


def cli(filename, *argv):
    """A CLI write: ``repro <argv> <path>``."""
    def writer(directory):
        path = os.path.join(directory, filename)
        return path, lambda: main([*argv, path])
    writer.__name__ = f"{argv[0]} {argv[-1]}"
    return writer


WRITERS = [
    checkpoint,
    bundle,
    snapshot_image,
    perfetto_trace,
    fuzz_failure,
    binary_image,
    cli("figure5.csv", "figure", "5", "--csv"),
    cli("telemetry.json", "chaos", "--budget", "1", "--telemetry-out"),
    cli("chaos.json", "chaos", "--budget", "1", "--out"),
    cli("stats.txt", "stats", "--out"),
    cli("profile.json", "profile", "--out"),
    cli("serve.json", "serve", "--requests", "20", "--out"),
    cli("fleet.json", "fleet", "--budget", "100", "--out"),
    cli("report.md", "report", "--trials", "20", "--output"),
]


@pytest.mark.parametrize(
    "writer", WRITERS,
    ids=[writer.__name__ for writer in WRITERS],
)
def test_a_kill_during_any_artifact_write_keeps_the_previous_bytes(
    tmp_path, writer, capsys
):
    # An uncut run: exactly one atomic write, and it is the artifact.
    path, write = writer(str(tmp_path / "whole"))
    with CutWrite().installed() as record:
        write()
    with open(path, "rb") as handle:
        assert record.done == [handle.read()]
    size = len(record.last)
    # The first byte, mid-write, and between the write and the rename.
    for offset in (0, size // 2, size):
        directory = tmp_path / f"cut-{offset}"
        directory.mkdir()
        path, write = writer(str(directory))
        with open(path, "wb") as handle:
            handle.write(PREVIOUS)
        with CutWrite(writes=0, offset=offset).installed():
            with pytest.raises(Killed):
                write()
        with open(path, "rb") as handle:
            assert handle.read() == PREVIOUS
        assert os.listdir(directory) == [os.path.basename(path)]


# -- output flags -------------------------------------------------------------

#: Every CLI output flag, each pointed into a directory that does not exist.
OUTPUT_FLAGS = [
    ["figure", "5", "--csv", "{new}/figure5.csv"],
    ["report", "--trials", "20", "--output", "{new}/report.md"],
    ["attack", "--scheme", "ssp", "--trials", "50",
     "--telemetry-out", "{new}/attack-telemetry.json"],
    ["chaos", "--budget", "1", "--out", "{new}/chaos.json",
     "--checkpoint", "{new}/chaos-ckpt.json",
     "--telemetry-out", "{new}/chaos-telemetry.json"],
    ["stats", "--out", "{new}/stats.txt"],
    ["profile", "--out", "{new}/profile.json"],
    ["serve", "--requests", "20", "--out", "{new}/serve.json"],
    ["fleet", "--budget", "100", "--schemes", "ssp",
     "--out", "{new}/fleet.json", "--checkpoint", "{new}/fleet-ckpt.json",
     "--telemetry-out", "{new}/fleet-telemetry.json",
     "--trace-out", "{new}/fleet-trace.json"],
    ["trace", "--requests", "20", "--out", "{new}/trace.json"],
]


@pytest.mark.parametrize(
    "argv", OUTPUT_FLAGS, ids=[argv[0] for argv in OUTPUT_FLAGS],
)
def test_every_output_flag_creates_its_missing_directory(
    tmp_path, argv, capsys
):
    new = tmp_path / "does" / "not" / "exist"
    main([arg.format(new=new) for arg in argv])
    outputs = [arg[len("{new}/"):] for arg in argv if arg.startswith("{new}/")]
    assert sorted(os.listdir(new)) == sorted(outputs)
