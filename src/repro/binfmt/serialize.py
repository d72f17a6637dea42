"""On-disk binary format: serialize/deserialize :class:`Binary`.

A minimal ELF-flavoured container so binaries can be written to disk,
shipped, and re-loaded — which is what a real rewriter consumes and what
the code-size experiments measure "on disk".  Layout:

* magic + version header,
* a JSON section table (function bodies as printed+parsed assembly is
  lossy for labels, so instructions are stored structurally),
* rodata/bss/constructor/metadata sections; rodata and bss keep their
  declaration order, which is the order the loader lays them out in.

The format is deliberately human-greppable (JSON) rather than packed
binary: the simulator's "bytes" live in the encoding model, and the
serialization's job is fidelity, not compression.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

from ..errors import LinkError
from ..persist import atomic_write
from ..isa.instructions import Function, Imm, Instruction, Label, Mem, Operand, Reg, Sym
from .elf import Binary

MAGIC = "REPRO-ELF"
#: Version 2 stores rodata and bss as ordered ``[name, value]`` lists:
#: the loader lays them out in declaration order, so the order is part
#: of the binary.  Version 1 (sorted JSON objects) is rejected.
VERSION = 2


def _operand_to_json(operand: Operand) -> Dict[str, Any]:
    if isinstance(operand, Reg):
        return {"k": "reg", "name": operand.name}
    if isinstance(operand, Imm):
        return {"k": "imm", "value": operand.value}
    if isinstance(operand, Mem):
        return {
            "k": "mem",
            "base": operand.base,
            "disp": operand.disp,
            "seg": operand.seg,
            "index": operand.index,
            "scale": operand.scale,
        }
    if isinstance(operand, Label):
        return {"k": "label", "name": operand.name}
    if isinstance(operand, Sym):
        return {"k": "sym", "name": operand.name}
    raise TypeError(f"unserializable operand {operand!r}")


def _operand_from_json(data: Dict[str, Any]) -> Operand:
    kind = data["k"]
    if kind == "reg":
        return Reg(data["name"])
    if kind == "imm":
        return Imm(data["value"])
    if kind == "mem":
        return Mem(data["base"], data["disp"], data["seg"],
                   data["index"], data["scale"])
    if kind == "label":
        return Label(data["name"])
    if kind == "sym":
        return Sym(data["name"])
    raise LinkError(f"bad operand kind {kind!r}")


def _function_to_json(function: Function) -> Dict[str, Any]:
    return {
        "name": function.name,
        "body": [
            {
                "op": instruction.op,
                "operands": [_operand_to_json(o) for o in instruction.operands],
                "note": instruction.note,
            }
            for instruction in function.body
        ],
        "labels": function.labels,
        "protected": function.protected,
        "has_buffer": function.has_buffer,
        "frame_size": function.frame_size,
        "meta": function.meta,
    }


def _function_from_json(data: Dict[str, Any]) -> Function:
    function = Function(data["name"])
    for entry in data["body"]:
        function.body.append(
            Instruction(
                entry["op"],
                tuple(_operand_from_json(o) for o in entry["operands"]),
                entry.get("note", ""),
            )
        )
    function.labels = {k: int(v) for k, v in data["labels"].items()}
    for label, index in function.labels.items():
        # A label may sit at the end of the body, never outside it: a
        # negative index would index the body from its end.
        if not 0 <= index <= len(function.body):
            raise LinkError(
                f"{function.name}: label {label!r} at {index} is outside "
                f"its {len(function.body)}-instruction body"
            )
    function.protected = data.get("protected", "")
    function.has_buffer = data.get("has_buffer", False)
    function.frame_size = data.get("frame_size", 0)
    meta = data.get("meta", {})
    # JSON has no tuples; restore the buffers' (offset, size) pairs.
    if "buffers" in meta:
        meta["buffers"] = {k: tuple(v) for k, v in meta["buffers"].items()}
    function.meta = meta
    return function


def dumps(binary: Binary) -> bytes:
    """Serialize ``binary`` to bytes."""
    document = {
        "magic": MAGIC,
        "version": VERSION,
        "name": binary.name,
        "entry": binary.entry,
        "link_type": binary.link_type,
        "protection": binary.protection,
        "constructors": binary.constructors,
        "needed": binary.needed,
        "functions": [_function_to_json(f) for f in binary.functions.values()],
        "rodata": [[k, v.hex()] for k, v in binary.rodata.items()],
        "bss": [[k, v] for k, v in binary.bss.items()],
    }
    return json.dumps(document, sort_keys=True).encode("utf-8")


def loads(data: bytes) -> Binary:
    """Deserialize a binary previously produced by :func:`dumps`."""
    try:
        document = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise LinkError(f"not a {MAGIC} image: {error}") from None
    if document.get("magic") != MAGIC:
        raise LinkError(f"bad magic {document.get('magic')!r}")
    if document.get("version") != VERSION:
        raise LinkError(f"unsupported version {document.get('version')!r}")
    binary = Binary(
        document["name"],
        entry=document["entry"],
        link_type=document["link_type"],
    )
    binary.protection = document.get("protection", "")
    binary.constructors = list(document.get("constructors", []))
    binary.needed = list(document.get("needed", []))
    for function_data in document["functions"]:
        binary.add_function(_function_from_json(function_data))
    binary.rodata = {k: bytes.fromhex(v) for k, v in document["rodata"]}
    binary.bss = {k: int(v) for k, v in document["bss"]}
    return binary


def save(binary: Binary, path: str) -> None:
    """Write ``binary`` to ``path``."""
    atomic_write(path, dumps(binary))


def load_file(path: str) -> Binary:
    """Read a binary image from ``path``."""
    with open(path, "rb") as handle:
        return loads(handle.read())
