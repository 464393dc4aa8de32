"""Documentation and example integrity tests.

* Doctests embedded in public docstrings must stay correct.
* Every example script must run end-to-end (at reduced sizes).
* The repo-level documents must exist and reference real artefacts.
"""

import doctest
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
EXAMPLES = REPO / "examples"

DOCTEST_MODULES = [
    "poisson_binomial",
    "repro.core.gamma_diagonal",
    "repro.data.schema",
    "repro.mining.itemsets",
    "repro.store.keys",
    "repro.experiments.orchestrator",
]


@pytest.mark.parametrize("module_name", DOCTEST_MODULES)
def test_doctests(module_name):
    module = __import__(module_name, fromlist=["_"])
    result = doctest.testmod(module)
    assert result.attempted > 0, f"{module_name} should carry doctest examples"
    assert result.failed == 0


_EXAMPLE_ARGS = {
    "quickstart.py": [],
    "mechanism_comparison.py": ["4000"],
    "privacy_accuracy_tradeoff.py": ["3000"],
    "custom_survey.py": [],
    "health_rules.py": ["6000"],
    "private_classifier.py": ["6000"],
    "continuous_reconstruction.py": [],
}


def test_every_example_is_covered():
    on_disk = {p.name for p in EXAMPLES.glob("*.py")}
    assert on_disk == set(_EXAMPLE_ARGS), "keep _EXAMPLE_ARGS in sync"


@pytest.mark.parametrize("script", sorted(_EXAMPLE_ARGS))
def test_example_runs(script):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / script), *_EXAMPLE_ARGS[script]],
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip(), "examples must narrate their output"


def _readme_block(heading):
    """The first ``python`` code block after ``heading`` in README.md."""
    text = (REPO / "README.md").read_text()
    section = text[text.index(heading) :]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


@pytest.mark.parametrize(
    "heading",
    ["## Quickstart", "## Mechanisms: registry, composition, privacy accountant"],
)
def test_readme_block_runs(heading):
    paths = os.pathsep.join(
        filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, "-c", _readme_block(heading)],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": paths},
    )
    assert result.returncode == 0, result.stderr[-2000:]


def test_docstring_coverage_gate():
    """The lint-job gate: every public definition carries a docstring."""
    result = subprocess.run(
        [sys.executable, str(REPO / "tools" / "check_docstrings.py")],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stdout[-2000:]


def test_traced_run_wrappers_resolve():
    """Every library name perfbench/spans.py wraps still exists.

    ``install`` patches modules process-wide, so it runs in a child.
    """
    paths = os.pathsep.join([str(REPO / "src"), str(REPO / "perfbench")])
    env = {**os.environ, "PYTHONPATH": paths}
    result = subprocess.run(
        [sys.executable, "-c", "from spans import Tracer, install; install(Tracer())"],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert result.returncode == 0, result.stderr[-2000:]


def test_pdoc_builds_cleanly(tmp_path):
    """The docs job's build, warnings-as-errors (skipped without pdoc)."""
    pytest.importorskip("pdoc")
    result = subprocess.run(
        [
            sys.executable,
            "-W",
            "error::UserWarning",
            "-m",
            "pdoc",
            "repro",
            "-o",
            str(tmp_path / "api"),
            "--docformat",
            "numpy",
        ],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert (tmp_path / "api" / "repro.html").is_file()


class TestRepoDocuments:
    def test_documents_exist(self):
        for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md"):
            assert (REPO / name).is_file(), name

    def test_design_references_real_modules(self):
        text = (REPO / "DESIGN.md").read_text()
        for path in (
            "repro/core/gamma_diagonal.py",
            "repro/baselines/mask.py",
            "repro/mining/apriori.py",
        ):
            assert path in text
            assert (REPO / "src" / path).is_file()
        # Every source, test and tool file README.md and DESIGN.md name
        # exists.  EXPERIMENTS.md is a history log, so it may name files
        # a later change deleted.
        named = re.compile(
            r"(?<![\w/.-])(?:src/repro|repro|tests|tools)/[\w/.-]*\.py\b"
        )
        missing = [
            (document, path)
            for document in ("README.md", "DESIGN.md")
            for path in named.findall((REPO / document).read_text())
            if not (REPO / re.sub(r"^repro/", "src/repro/", path)).is_file()
        ]
        assert not missing, missing

    def test_experiments_covers_all_paper_artifacts(self):
        text = (REPO / "EXPERIMENTS.md").read_text()
        for artifact in ("Table 1", "Table 2", "Table 3", "Figure 1", "Figure 2",
                         "Figure 3", "Figure 4"):
            assert artifact in text

    def test_readme_quickstart_names_real_api(self):
        import repro

        text = (REPO / "README.md").read_text()
        for symbol in ("PrivacyRequirement", "Session", "design_mechanism"):
            assert symbol in text
            assert hasattr(repro, symbol)
