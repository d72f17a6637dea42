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
import weakref
from typing import Dict, Iterable, List, Optional, Tuple

from ..errors import InvalidJump, LinkError
from ..isa.encoding import encoded_length
from ..isa.instructions import Function
from ..machine.memory import CODE_BASE, Memory
from .elf import Binary


class DecodeStore(dict):
    """Decoded step lists, ``dbi_multiplier -> {name: DecodedFunction}``.

    A dict that can be weakly referenced: a spawn template holds the
    store it hands its clones only weakly (see :meth:`LoadedImage.clone`).
    """

    __slots__ = ("__weakref__",)


class LoadedImage:
    """Executable code image with concrete addresses.

    Implements the protocol the CPU needs:

    * ``function(name)`` — simulated function or ``None``;
    * ``address_of(name, index=0)`` — code/data symbol address;
    * ``resolve(address)`` — map an address back to ``(Function, index)``,
      raising :class:`InvalidJump` when the address is not an instruction
      boundary (the usual fate of a corrupted return address);
    * ``shared_decodes`` — the :class:`DecodeStore` its CPUs decode into.

    :func:`load` is the only code that adds functions or data symbols;
    once it returns, the image and its ``Function`` bodies never change,
    so a decoded step stays valid for as long as the image lives.
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
        #: Decoded step lists shared by every CPU that runs on this image
        #: (the booted parent, its fork children and its threads), and by
        #: every live clone of the same spawn template.  Filled by
        #: ``CPU._decoded``.
        self.shared_decodes = DecodeStore()
        #: The store handed to this image's clones, held weakly: each
        #: clone holds it strongly, so it lives exactly as long as some
        #: clone does (see :meth:`clone`).
        self._clone_decodes: Optional[weakref.ref] = None

    # -- construction --------------------------------------------------------

    def add_function(self, function: Function) -> int:
        """Lay out a function at the next free code address.

        Addresses only grow, so the entry table stays sorted by
        appending.  Returns the entry address.
        """
        if function.name in self._functions:
            raise LinkError(f"symbol {function.name!r} already loaded")
        offsets = [0]
        for instruction in function.body:
            offsets.append(offsets[-1] + encoded_length(instruction))
        entry = self._next_code
        self._next_code += offsets[-1]
        self._entries.append(entry)
        self._entry_names.append(function.name)
        self._functions[function.name] = function
        self._layout[function.name] = (entry, offsets)
        return entry

    def clone(self) -> "LoadedImage":
        """Twin for spawning from a warmed image.

        The twin shares this image's tables and ``Function`` bodies,
        which never change after :func:`load`.  Every clone alive at once
        also gets the same :attr:`shared_decodes`.  This image holds that
        store only weakly, so it goes when the last clone does and a
        template never keeps decodes alive by itself.
        """
        twin = LoadedImage.__new__(LoadedImage)
        vars(twin).update(vars(self))
        store = self._clone_decodes() if self._clone_decodes else None
        if store is None:
            store = DecodeStore()
            self._clone_decodes = weakref.ref(store)
        twin.shared_decodes = store
        twin._clone_decodes = None
        return twin

    def add_data_symbol(self, name: str, address: int) -> None:
        """Record a data symbol's load address."""
        self._data_symbols[name] = address

    # -- the CPU-facing protocol ----------------------------------------------

    def function(self, name: str) -> Optional[Function]:
        """Simulated function for ``name`` or ``None``."""
        return self._functions.get(name)

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
