"""Byte-identity gate for the whole toolchain.

Every scheme in :data:`repro.core.deploy.SCHEMES` builds a fixed program
set: the regression corpus, the 28 SPEC-like programs and a run of
generated fuzz programs.  One sha256 per scheme covers the serialized
image of every build, so any change to the lexer, parser, code
generator, protection passes, rewriter or static linker that moves a
single instruction, note, label or rodata byte fails here.  A change
meant to keep behaviour must pass the digests unchanged.

Re-record only with an intended toolchain change and a
``TOOLCHAIN_VERSION`` bump: print ``toolchain_digest(scheme, programs)``
for each scheme and paste the tables.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.binfmt.serialize import dumps
from repro.compiler.codegen import compile_source
from repro.core.deploy import SCHEMES, build
from repro.errors import CompileError
from repro.workloads.generator import ProgramSpec, generate_fuzz_program, render_program
from repro.workloads.spec import SPEC_PROGRAMS

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"
#: The corpus as recorded; entries added later do not move the digests.
CORPUS = (
    "critical-buffer-lv", "dcr-cycle-drift", "fault-fork-eagain-pssp",
    "fault-rdrand-starved-nt", "fault-torn-shadow-pssp", "fork-libc",
    "recursion-libc", "setjmp-longjmp", "setjmp-then-fork",
)


def corpus_programs():
    programs = []
    for stem in CORPUS:
        data = json.loads((CORPUS_DIR / f"{stem}.json").read_text())
        programs.append((stem, render_program(ProgramSpec.from_json(data["spec"]))))
    return programs


def generated_programs(seeds):
    return [(f"gen{seed}", generate_fuzz_program(seed)[1]) for seed in seeds]


def tier1_programs():
    return (
        corpus_programs()
        + [(p.name, p.source) for p in SPEC_PROGRAMS]
        + generated_programs(range(2018, 2038))
    )


def toolchain_digest(scheme, programs):
    digest = hashlib.sha256()
    for name, source in programs:
        digest.update(dumps(build(source, scheme, name=name)))
    return digest.hexdigest()


TIER1_DIGESTS = {
    "dcr": "12d4cf580afa0030a61c0aa346d06107addc11aa01f103ceb95bc26af3220d1e",
    "dynaguard": "105a1836581ab172e8f88dda1e35eb533c3071a3cdf14b6725d43854259cb306",
    "dynaguard-dbi": "a8f045338a3429e16994f9e292a0786854a2a5443ae2f79e5c06b9baeac30b51",
    "none": "ace8901dd312fafc50558948b260befef5ef306fd3cb3f3807e9548dae9b06ff",
    "pssp": "212bfb1da6c4fe7e2b4540aa24d7e2da229fdce1749c5729c8df0847044b05c8",
    "pssp-binary": "fb7abec4adfaa0203475cf4fa1cdd6f62ac3f2462f628f6bd556be5c5bd185cd",
    "pssp-binary-static": "f2c8b5b9e56bc8fb3e2046bd12cb3faa8f67c3477d3a4f0ffc000612b4440c2b",
    "pssp-gb": "de311e8f4d67c6c6d4178b81174ac0cf858511f6ffa3153c91a568a19389abaf",
    "pssp-lv": "b55c82111cf7fece39041ddeec9dd7bafe27531d91904ed60b9c18541dee42eb",
    "pssp-nt": "05da63068f07a554c29ac405be93495ef3188c1de053ddf05837a7acae45950d",
    "pssp-nt-hardened": "a498ba628ac55aaaa8af81d069190163c0f98ac2d20dbfd061dbea1d74c5140b",
    "pssp-owf": "74238b1b41768827f582021305a38193831a1a105c3409c99e5137d7c77dde2b",
    "raf-ssp": "3b785d7d9cba8a80e34b1afd94d70961c4cd9afd7bae63be70ea17936d593d6d",
    "ssp": "787fd4aa161f7741d07e3957deaa250d61a174fd9941a2a046174dca325a0aeb",
}

SLOW_DIGESTS = {
    "dcr": "2044dbbd2f057a653bafe175eab181048b956d5931e78ba47ea5e4597856d826",
    "dynaguard": "5bbbd66c2199b23030573e0940d876a3ec66e33958eb250353e43334d6160759",
    "dynaguard-dbi": "37fb23fd095df1b88732e1effb5c7d747ed8ec53bee0f6b8e6c6e5725b48ded7",
    "none": "a342b344b89bcf3abed128150dd7e50654355cd5878f86507bd51b8a3d1b93a0",
    "pssp": "7b74ecd81f8d6241c4433f72a1d069d8c732377d6571a61b89b1a34e2eec457e",
    "pssp-binary": "9732f48032a151f345323cb582c6c19067bc444337f6999d40ecdd52c3044cd9",
    "pssp-binary-static": "412699eec8a97b163e4378aa0c442c6ed58a33a2321c345f3498240701fef2e6",
    "pssp-gb": "34b1a149e06ebf5d904e8655626d7424d81d8dfc51ba15086ca3a4c683844577",
    "pssp-lv": "bb34fec447365c8548949905a6ed4e8057d65986eab3577b4ad4649077d34117",
    "pssp-nt": "99ebc15a396b09b26dd70df5f8f29f4b2ef37494162b6c9d2eba3056af4b830d",
    "pssp-nt-hardened": "4a69144f7d685fc8e5ab95165147c9f7ea93459674e7edb24460815624fc7a59",
    "pssp-owf": "b1b55075ca40af3a530a06df77b90450f8169a34c3be53c318e734a4a79eb612",
    "raf-ssp": "0667409a0e4a82c9ad3a570a4d032fab318683ab896c79ac0b2b8b55f11ef4fc",
    "ssp": "9d51ffc28e136e7e17c8463e4ca0efed25fa880fb1e2cb8ac9abbbbb432e323c",
}


def test_digest_table_covers_every_scheme():
    assert set(TIER1_DIGESTS) == set(SCHEMES)
    assert set(SLOW_DIGESTS) == set(SCHEMES)


def test_tier1_program_set_shape():
    programs = tier1_programs()
    assert len(SPEC_PROGRAMS) == 28
    assert len(programs) == len(CORPUS) + 28 + 20
    assert len({name for name, _ in programs}) == len(programs)


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_tier1_images_are_byte_identical(scheme):
    assert toolchain_digest(scheme, tier1_programs()) == TIER1_DIGESTS[scheme]


@pytest.mark.slow
@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_generated_images_are_byte_identical(scheme):
    programs = generated_programs(range(2018, 2218))
    assert toolchain_digest(scheme, programs) == SLOW_DIGESTS[scheme]


#: Every malformed input the front end rejected before the token table,
#: with the exact message it gave.
MALFORMED = [
    ("/* never ends", "line 1: unterminated block comment"),
    ("a\n/* spans\nlines", "line 2: unterminated block comment"),
    ('"abc', "line 1: unterminated literal"),
    ("x\n'a", "line 2: unterminated literal"),
    ('"ab\ncd"', "line 1: newline in literal"),
    ("'ab'", "line 1: bad char literal 'ab'"),
    ("''", "line 1: bad char literal ''"),
    (r'"\q"', "line 1: unknown escape \\q"),
    ("'\\", "line 1: dangling escape"),
    ("a $ b", "line 1: unexpected character '$'"),
    ("a\n\n@", "line 3: unexpected character '@'"),
    ("int main() { return 0; }\n`", "line 2: unexpected character '`'"),
]


@pytest.mark.parametrize("source, message", MALFORMED)
def test_malformed_input_error_text(source, message):
    with pytest.raises(CompileError) as caught:
        compile_source(source)
    assert str(caught.value) == message
