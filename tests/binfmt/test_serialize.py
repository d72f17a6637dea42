"""Binary serialization round-trips."""

import pytest

from repro.binfmt.serialize import dumps, load_file, loads, save
from repro.compiler.codegen import compile_source
from repro.core.deploy import deploy
from repro.errors import LinkError
from repro.kernel.kernel import Kernel
from repro.rewriter.rewrite import instrument_binary

VICTIM = """
int handler(int n) {
    char buf[32];
    read(0, buf, 4096);
    return 0;
}
int main() { return handler(0); }
"""


@pytest.fixture
def binary():
    return compile_source(VICTIM, protection="pssp", name="victim")


class TestRoundTrip:
    def test_functions_preserved(self, binary):
        restored = loads(dumps(binary))
        assert set(restored.functions) == set(binary.functions)
        for name in binary.functions:
            assert restored.function(name).body == binary.function(name).body
            assert restored.function(name).labels == binary.function(name).labels

    def test_metadata_preserved(self, binary):
        restored = loads(dumps(binary))
        assert restored.protection == "pssp"
        assert restored.entry == binary.entry
        assert restored.function("handler").meta == binary.function("handler").meta

    def test_rodata_and_bss_keep_declaration_order(self, binary):
        binary.rodata = {"zz": b"Z" * 3, "aa": b"A", "mm": b""}
        binary.bss = {"zz_bss": 16, "aa_bss": 8}
        restored = loads(dumps(binary))
        assert list(restored.rodata.items()) == list(binary.rodata.items())
        assert list(restored.bss.items()) == list(binary.bss.items())

    def test_rodata_preserved(self, binary):
        binary.rodata["blob"] = bytes(range(256))
        restored = loads(dumps(binary))
        assert restored.rodata["blob"] == bytes(range(256))

    def test_sizes_identical(self, binary):
        restored = loads(dumps(binary))
        assert restored.total_size() == binary.total_size()

    def test_deterministic_bytes(self, binary):
        assert dumps(binary) == dumps(binary)

    def test_file_roundtrip(self, binary, tmp_path):
        path = str(tmp_path / "victim.relf")
        save(binary, path)
        restored = load_file(path)
        assert set(restored.functions) == set(binary.functions)


class TestRestoredBinariesExecute:
    def test_runs_and_detects(self, binary):
        restored = loads(dumps(binary))
        kernel = Kernel(7)
        process, _ = deploy(kernel, restored, "pssp")
        process.feed_stdin(b"A" * 100)
        assert process.call("handler", (100,)).smashed

    def test_rewriter_consumes_deserialized_binaries(self):
        """The realistic pipeline: compile → ship to disk → rewrite."""
        shipped = loads(dumps(compile_source(VICTIM, protection="ssp",
                                             name="legacy")))
        rewritten = instrument_binary(shipped)
        assert rewritten.total_size() == shipped.total_size()
        kernel = Kernel(8)
        process, _ = deploy(kernel, rewritten, "pssp-binary")
        process.feed_stdin(b"A" * 100)
        assert process.call("handler", (100,)).smashed


class TestValidation:
    def test_bad_magic_rejected(self):
        with pytest.raises(LinkError):
            loads(b'{"magic": "NOPE", "version": 1}')

    def test_garbage_rejected(self):
        with pytest.raises(LinkError):
            loads(b"\x7fELF\x02\x01\x01")

    def test_version_1_rejected(self, binary):
        import json

        document = json.loads(dumps(binary))
        document.update(version=1, rodata={}, bss={})
        with pytest.raises(LinkError):
            loads(json.dumps(document).encode())

    def test_wrong_version_rejected(self, binary):
        import json

        document = json.loads(dumps(binary))
        document["version"] = 99
        with pytest.raises(LinkError):
            loads(json.dumps(document).encode())

    @pytest.mark.parametrize("index", [-1, 10**6])
    def test_label_index_outside_the_body_rejected(self, binary, index, tmp_path):
        import json

        document = json.loads(dumps(binary))
        handler = next(f for f in document["functions"] if f["name"] == "handler")
        handler["labels"][".Lret"] = index
        data = json.dumps(document).encode()
        with pytest.raises(LinkError, match=r"handler: label '\.Lret' at"):
            loads(data)
        path = tmp_path / "victim.relf"
        path.write_bytes(data)
        with pytest.raises(LinkError, match="outside"):
            load_file(str(path))

    def test_end_label_accepted(self, binary):
        handler = binary.function("handler")
        handler.labels[".end"] = len(handler.body)
        assert loads(dumps(binary)).function("handler").labels[".end"] == len(handler.body)
