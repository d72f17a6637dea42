"""Loader: address assignment, resolution, interposition, clones."""

import gc

import pytest

from repro.binfmt.elf import Binary
from repro.binfmt.loader import LoadedImage, load
from repro.errors import InvalidJump, LinkError
from repro.isa.assembler import assemble
from repro.isa.encoding import encoded_length
from repro.machine.memory import CODE_BASE, standard_memory


def binary_from_asm(source, name="a"):
    binary = Binary(name)
    for function in assemble(source).values():
        binary.add_function(function)
    return binary


SOURCE = """
f:
    push rbp
    mov rbp, rsp
    leave
    ret
g:
    nop
    ret
"""


class TestLayout:
    def test_functions_get_increasing_addresses(self):
        image = load(binary_from_asm(SOURCE), standard_memory())
        assert image.address_of("f") == CODE_BASE
        assert image.address_of("g") > image.address_of("f")

    def test_instruction_offsets_follow_encoding(self):
        binary = binary_from_asm(SOURCE)
        image = load(binary, standard_memory())
        f = binary.function("f")
        expected = image.address_of("f") + encoded_length(f.body[0])
        assert image.address_of("f", 1) == expected

    def test_resolve_roundtrip_every_instruction(self):
        binary = binary_from_asm(SOURCE)
        image = load(binary, standard_memory())
        for name in ("f", "g"):
            for index in range(len(binary.function(name))):
                address = image.address_of(name, index)
                function, resolved = image.resolve(address)
                assert (function.name, resolved) == (name, index)

    def test_resolve_mid_instruction_faults(self):
        image = load(binary_from_asm(SOURCE), standard_memory())
        # f's second instruction (mov rbp, rsp) is 3 bytes; +1 is mid-byte.
        with pytest.raises(InvalidJump):
            image.resolve(image.address_of("f", 1) + 1)

    def test_resolve_unmapped_faults(self):
        image = load(binary_from_asm(SOURCE), standard_memory())
        with pytest.raises(InvalidJump):
            image.resolve(0x10)
        with pytest.raises(InvalidJump):
            image.resolve(image.address_of("g") + 0x10000)

    def test_unknown_symbol_is_link_error(self):
        image = load(binary_from_asm(SOURCE), standard_memory())
        with pytest.raises(LinkError):
            image.address_of("missing")


class TestData:
    def test_rodata_written_and_addressable(self):
        binary = binary_from_asm(SOURCE)
        binary.rodata["msg"] = b"hi\x00"
        memory = standard_memory()
        image = load(binary, memory)
        address = image.address_of("msg")
        assert memory.read_cstring(address) == b"hi"

    def test_bss_reserved(self):
        binary = binary_from_asm(SOURCE)
        binary.rodata["msg"] = b"hi\x00"
        binary.bss["table"] = 64
        memory = standard_memory()
        image = load(binary, memory)
        assert image.address_of("table") > image.address_of("msg")


class TestInterposition:
    def test_preload_shadows_binary_symbol(self):
        main = binary_from_asm("f:\n mov rax, 1\n ret\n")
        preload = binary_from_asm("f:\n mov rax, 2\n ret\n", name="pre")
        image = load(main, standard_memory(), preloads=[preload])
        # The preload's definition wins: its body loads 2.
        function = image.function("f")
        assert function.body[0].operands[1].value == 2

    def test_duplicate_load_rejected(self):
        image = LoadedImage()
        binary = binary_from_asm(SOURCE)
        image.add_function(binary.function("f"))
        with pytest.raises(LinkError):
            image.add_function(binary.function("f"))

    def test_add_function_has_no_replace_mode(self):
        image = load(binary_from_asm(SOURCE), standard_memory())
        with pytest.raises(TypeError):
            image.add_function(image.function("f"), replace=True)


def loaded_template():
    binary = binary_from_asm(SOURCE)
    binary.rodata["msg"] = b"hi\x00"
    return binary, load(binary, standard_memory())


class TestClone:
    def test_clone_resolves_like_its_template(self):
        binary, template = loaded_template()
        twin = template.clone()
        assert twin.code_base == template.code_base
        assert twin.address_of("msg") == template.address_of("msg")
        for name in ("f", "g"):
            assert twin.function(name) is template.function(name)
            for index in range(len(binary.function(name))):
                address = template.address_of(name, index)
                assert twin.address_of(name, index) == address
                assert twin.resolve(address) == template.resolve(address)
        assert "msg" in twin and "missing" not in twin

    def test_clone_shares_the_templates_tables(self):
        _, template = loaded_template()
        twin = template.clone()
        assert twin._functions is template._functions
        assert twin._layout is template._layout
        assert twin._entries is template._entries
        assert twin._entry_names is template._entry_names
        assert twin._data_symbols is template._data_symbols

    def test_live_clones_share_one_store_the_template_holds_weakly(self):
        _, template = loaded_template()
        first, second = template.clone(), template.clone()
        assert first.shared_decodes is second.shared_decodes
        assert first.shared_decodes is not template.shared_decodes
        assert template._clone_decodes() is first.shared_decodes
        assert first._clone_decodes is None
        first.shared_decodes[1.0] = {"f": "decoded"}
        del first, second
        gc.collect()
        assert template._clone_decodes() is None
        assert not template.clone().shared_decodes, "the next clone is cold"
