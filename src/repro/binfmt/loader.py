"""Program loader: lay a :class:`~repro.binfmt.elf.Binary` out in memory.

The loader assigns every function a code address (so return addresses on
the stack are real numbers an overflow can clobber), places rodata/bss in
the data segment, and produces the :class:`LoadedImage` the CPU executes
against.

Interposition (``LD_PRELOAD``) is a layering concern: callers may pass
``preload`` binaries whose function definitions shadow the main binary's
and libc's, mirroring the paper's deployment of the 16 KB P-SSP shared
library (§V-A).
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterable, List, Optional, Tuple

from ..errors import InvalidJump, LinkError
from ..isa.encoding import encoded_length
from ..isa.instructions import Function
from ..machine.memory import CODE_BASE, Memory
from .elf import Binary


class LoadedImage:
    """Executable code image with concrete addresses.

    Implements the protocol the CPU needs:

    * ``function(name)`` — simulated function or ``None``;
    * ``address_of(name, index=0)`` — code/data symbol address;
    * ``resolve(address)`` — map an address back to ``(Function, index)``,
      raising :class:`InvalidJump` when the address is not an instruction
      boundary (the usual fate of a corrupted return address).
    """

    def __init__(self, code_base: int = CODE_BASE) -> None:
        self.code_base = code_base
        self._functions: Dict[str, Function] = {}
        #: function name → (entry, [cumulative instruction offsets])
        self._layout: Dict[str, Tuple[int, List[int]]] = {}
        self._entries: List[int] = []
        self._entry_names: List[str] = []
        self._data_symbols: Dict[str, int] = {}
        self._next_code = code_base
        #: Monotonic counter bumped on every code change (new function,
        #: rewriter patch via ``add_function(replace=True)``, or
        #: :meth:`invalidate_code`).  Each bump empties
        #: :attr:`shared_decodes`, and every CPU running on this image
        #: drops its views of the old step lists the next time it
        #: switches function.  Loaded ``Function`` bodies must otherwise
        #: be treated as immutable; in-place patches must go through
        #: :meth:`add_function` (or call :meth:`invalidate_code`) to be
        #: picked up.
        self.code_generation = 0
        #: Decoded step lists shared by every CPU that runs on this image
        #: (the booted parent, its fork children and its threads):
        #: ``dbi_multiplier -> {function name: DecodedFunction}``.  Filled
        #: by ``CPU._decoded``; never copied by :meth:`clone`, so each
        #: spawn from a warmed image starts cold.
        self.shared_decodes: Dict[float, Dict[str, object]] = {}

    # -- construction --------------------------------------------------------

    def add_function(self, function: Function, *, replace: bool = False) -> int:
        """Lay out a function at the next free code address.

        With ``replace=True`` an existing definition is shadowed *at the
        same address* if the new body fits in the old footprint (the
        rewriter's layout-preservation constraint) or relocated otherwise.
        Returns the entry address.
        """
        if function.name in self._functions and not replace:
            raise LinkError(f"symbol {function.name!r} already loaded")
        offsets = [0]
        for instruction in function.body:
            offsets.append(offsets[-1] + encoded_length(instruction))
        if function.name in self._functions:
            entry, old_offsets = self._layout[function.name]
            if offsets[-1] > old_offsets[-1]:
                entry = self._next_code
                self._next_code += offsets[-1]
                self._insert_entry(entry, function.name)
        else:
            entry = self._next_code
            self._next_code += offsets[-1]
            self._insert_entry(entry, function.name)
        self._functions[function.name] = function
        self._layout[function.name] = (entry, offsets)
        self.invalidate_code()
        return entry

    def clone(self) -> "LoadedImage":
        """Shallow twin for spawning from a warmed image.

        Layout tables are copied (so ``add_function(replace=True)``
        patches stay private to one process), while the immutable
        ``Function`` bodies are shared — the same sharing ``fork``
        already relies on when parent and child reuse one image.  The
        decoded steps are not: the twin starts with an empty
        :attr:`shared_decodes`.
        """
        twin = LoadedImage(self.code_base)
        twin._functions = dict(self._functions)
        twin._layout = dict(self._layout)
        twin._entries = list(self._entries)
        twin._entry_names = list(self._entry_names)
        twin._data_symbols = dict(self._data_symbols)
        twin._next_code = self._next_code
        twin.code_generation = self.code_generation
        return twin

    def invalidate_code(self) -> None:
        """Force CPUs to re-decode: call after mutating a loaded body in
        place (the rewriter's splice path does this for you)."""
        self.code_generation += 1
        self.shared_decodes.clear()

    def _insert_entry(self, entry: int, name: str) -> None:
        position = bisect.bisect_left(self._entries, entry)
        self._entries.insert(position, entry)
        self._entry_names.insert(position, name)

    def add_data_symbol(self, name: str, address: int) -> None:
        """Record a data symbol's load address."""
        self._data_symbols[name] = address

    # -- the CPU-facing protocol ----------------------------------------------

    def function(self, name: str) -> Optional[Function]:
        """Simulated function for ``name`` or ``None``."""
        return self._functions.get(name)

    def functions(self) -> Iterable[Function]:
        """All loaded functions."""
        return self._functions.values()

    def address_of(self, name: str, index: int = 0) -> int:
        """Address of instruction ``index`` in function ``name``, or of a
        data symbol when ``name`` is not code."""
        if name in self._layout:
            entry, offsets = self._layout[name]
            if index >= len(offsets):
                raise InvalidJump(f"{name}: instruction index {index} out of range")
            return entry + offsets[index]
        if name in self._data_symbols:
            return self._data_symbols[name]
        raise LinkError(f"unresolved symbol {name!r}")

    def resolve(self, address: int) -> Tuple[Function, int]:
        """Map ``address`` to (function, instruction index)."""
        position = bisect.bisect_right(self._entries, address) - 1
        if position < 0:
            raise InvalidJump(f"jump to unmapped address {address:#x}")
        name = self._entry_names[position]
        entry, offsets = self._layout[name]
        offset = address - entry
        if offset >= offsets[-1] and offsets[-1] != offset:
            raise InvalidJump(f"jump to unmapped address {address:#x}")
        index = bisect.bisect_left(offsets, offset)
        if index >= len(offsets) or offsets[index] != offset:
            raise InvalidJump(
                f"jump into the middle of an instruction at {address:#x}"
            )
        if index >= len(self._functions[name].body):
            raise InvalidJump(f"jump past the end of {name} at {address:#x}")
        return self._functions[name], index

    def entry_of(self, name: str) -> int:
        """Entry address of a function (convenience)."""
        return self.address_of(name, 0)

    def __contains__(self, name: str) -> bool:
        return name in self._functions or name in self._data_symbols


def load(
    binary: Binary,
    memory: Memory,
    *,
    preloads: Iterable[Binary] = (),
    code_base: int = CODE_BASE,
) -> LoadedImage:
    """Map ``binary`` (plus preloaded shared objects) into ``memory``.

    Preload binaries are laid out *first* and their symbols win name
    clashes, which is how ``LD_PRELOAD`` interposition works: the dynamic
    loader resolves a symbol to the first definition in search order.

    Data placement: rodata blobs and bss blocks are carved from the data
    segment in declaration order; their addresses are registered as data
    symbols on the image.
    """
    image = LoadedImage(code_base)
    for preload in preloads:
        for function in preload.functions.values():
            if image.function(function.name) is None:
                image.add_function(function)
    for function in binary.functions.values():
        if image.function(function.name) is None:
            image.add_function(function)
        # else: interposed by a preload — the binary's copy is shadowed.

    data_segment = memory.segment("data")
    cursor = data_segment.base
    for source in (*preloads, binary):
        for sym, blob in source.rodata.items():
            if sym in image:
                continue
            memory.write(cursor, blob)
            image.add_data_symbol(sym, cursor)
            cursor += len(blob) + (-len(blob) % 8)
        for sym, size in source.bss.items():
            if sym in image:
                continue
            image.add_data_symbol(sym, cursor)
            cursor += size + (-size % 8)
        if cursor > data_segment.end:
            raise LinkError(f"data segment overflow loading {source.name}")
    return image
