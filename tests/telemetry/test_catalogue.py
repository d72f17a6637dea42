"""The counter catalogue in docs/observability.md is the set of declared
instruments: every module-level handle in ``repro.*`` has one row naming
the module that declares it, and every row names a declared handle."""

import importlib
import pkgutil
import re
from pathlib import Path

import repro
from repro.telemetry import _Handle

CATALOGUE = Path(__file__).resolve().parents[2] / "docs" / "observability.md"
PACKAGE = Path(repro.__file__).resolve().parent

_ROW = re.compile(r"^\| `([a-z0-9_]+)` \| `([a-z_/]+\.py)` \|")


def catalogue_rows():
    """``{instrument name: declaring module path}`` from the table."""
    text = CATALOGUE.read_text(encoding="utf-8")
    table = text.split("### Counter catalogue", 1)[1].split("\n### ", 1)[0]
    rows = {}
    for line in table.splitlines():
        match = _ROW.match(line)
        if match:
            name, source = match.groups()
            assert name not in rows, f"{name} has two catalogue rows"
            rows[name] = source
    return rows


def declared_handles():
    """``{instrument name: {declaring module paths}}`` over ``repro.*``.

    A handle is declared as a module global, or as a value of a
    module-level dict of handles (one per outcome, one per leader).
    """
    declared = {}
    seen = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name == "repro.__main__":
            continue
        module = importlib.import_module(info.name)
        path = Path(module.__file__).resolve().relative_to(PACKAGE).as_posix()
        for value in vars(module).values():
            handles = value.values() if isinstance(value, dict) else (value,)
            for handle in handles:
                if not isinstance(handle, _Handle):
                    continue
                other = seen.setdefault(handle.name, handle)
                assert other is handle, (
                    f"{handle.name} is declared twice ({path})"
                )
                declared.setdefault(handle.name, set()).add(path)
    return declared


def test_every_declared_instrument_has_one_catalogue_row():
    rows = catalogue_rows()
    declared = declared_handles()
    assert sorted(declared) == sorted(rows)
    assert {name: {source} for name, source in rows.items()} == declared
