"""Checked-in artifact consistency.

EXPERIMENTS.md and DESIGN.md are deliverables; these tests keep them from
silently rotting relative to the code (missing sections, stale scheme
lists, broken doc links).
"""

import pathlib
import re
import subprocess

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def read(name: str) -> str:
    return (ROOT / name).read_text()


class TestExperimentsDocument:
    def test_exists_and_has_all_sections(self):
        text = read("EXPERIMENTS.md")
        for heading in (
            "## Table I", "## Table II", "## Table III", "## Table IV",
            "## Table V", "## Figure 5", "## Figures 1 & 2",
            "## Figures 3 & 4", "## Figure 6", "## §VI-C",
            "## Measured properties matrix",
        ):
            assert heading in text, heading

    def test_figure5_covers_the_full_suite(self):
        from repro.workloads.spec import SPEC_PROGRAMS

        text = read("EXPERIMENTS.md")
        for program in SPEC_PROGRAMS:
            assert program.name in text, program.name

    def test_quotes_paper_reference_values(self):
        text = read("EXPERIMENTS.md")
        for anchor in ("0.24", "1.01", "156", "33.006", "167.27", "986"):
            assert anchor in text, anchor

    @pytest.mark.slow
    @pytest.mark.filterwarnings("ignore:installing a cpu.trace hook:RuntimeWarning")
    def test_regenerating_the_report_reproduces_the_file(self):
        # The file is `python -m repro report` output; every number in it
        # is seeded, so only the `_Generated ..._` timestamp may differ.
        from repro.harness.report import generate_report

        def body(text):
            return [
                line for line in text.splitlines()
                if not line.startswith("_Generated ")
            ]

        assert body(generate_report()) == body(read("EXPERIMENTS.md"))


class TestDesignDocument:
    def test_every_experiment_indexed(self):
        text = read("DESIGN.md")
        for experiment in ("Table I", "Table II", "Table III", "Table IV",
                           "Table V", "Fig. 5", "Thm 1"):
            assert experiment in text, experiment

    def test_reproduction_findings_present(self):
        text = read("DESIGN.md")
        assert "global-buffer" in text          # unwinding fragility
        assert "single-variable degeneracy" in text.lower() or \
            "LV single-variable degeneracy" in text

    def test_bench_targets_exist(self):
        # Every benchmark script and BENCH_*.json baseline a document or
        # CI step names must exist: deleting one leaves no stale pointer.
        documents = [
            "DESIGN.md", "README.md", "CONTRIBUTING.md",
            ".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md",
        ] + [f"docs/{page.name}" for page in sorted((ROOT / "docs").glob("*.md"))]
        for name in documents:
            text = read(name)
            for target in re.findall(r"\b(bench_\w+\.py|BENCH_\w+\.json)", text):
                assert (ROOT / "benchmarks" / target).exists(), f"{name}: {target}"


class TestRepoHygiene:
    def test_no_bytecode_or_image_noise_is_tracked(self):
        try:
            tracked = subprocess.run(
                ["git", "ls-files"], cwd=ROOT,
                capture_output=True, text=True, check=True,
            ).stdout.splitlines()
        except (OSError, subprocess.CalledProcessError):
            pytest.skip("not running from a git checkout")
        noise = [
            path for path in tracked
            if "__pycache__" in path
            or path.endswith((".pyc", ".pyo", ".pyd", ".simg"))
        ]
        assert noise == []

    def test_gitignore_covers_the_noise_patterns(self):
        text = read(".gitignore")
        for pattern in (
            "__pycache__/", "*.py[cod]", "*.simg",
            ".hypothesis/", ".pytest_cache/",
        ):
            assert pattern in text, pattern


class TestReadme:
    def test_doc_links_resolve(self):
        text = read("README.md")
        for link in re.findall(r"\]\(((?:docs/)?[\w.-]+\.md)\)", text):
            assert (ROOT / link).exists(), link

    def test_example_list_matches_directory(self):
        text = read("README.md")
        for path in (ROOT / "examples").glob("*.py"):
            assert path.name in text, f"README does not mention {path.name}"


class TestDocsPages:
    def test_all_pages_present(self):
        for page in ("architecture.md", "schemes.md", "attacks.md",
                     "minic.md", "api.md", "walkthrough.md"):
            assert (ROOT / "docs" / page).exists(), page

    def test_schemes_page_covers_the_registry(self):
        from repro.core.deploy import SCHEMES

        text = read("docs/schemes.md")
        documented_elsewhere = {
            "none", "dynaguard-dbi", "pssp-binary-static",
            # Ablation variants (registered lazily by register_ablation_
            # schemes, possibly earlier in this test session) live in
            # DESIGN.md §4b/§5, not the schemes page.
            "pssp-owf-nononce", "pssp-binary-inline", "pssp-tls-half",
        }
        for scheme in SCHEMES:
            if scheme in documented_elsewhere:
                continue
            assert f"`{scheme}`" in text or scheme in text, scheme
