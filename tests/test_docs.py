"""Docs hygiene: intra-repo links must resolve, examples must compile, and
the wire-transport example must run.

The same checks run as a dedicated CI job; running them in tier-1 too means
a broken README link or a bit-rotted example script fails locally before a
PR is even opened.
"""

import compileall
import runpy
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

sys.path.insert(0, str(REPO_ROOT / "tools"))

from check_docs import (  # noqa: E402
    broken_links,
    iter_doc_files,
    missing_required_links,
)


def test_docs_exist():
    files = {path.name for path in iter_doc_files(REPO_ROOT)}
    assert "README.md" in files
    assert "architecture.md" in files
    assert "fleet_operations.md" in files
    assert "concurrency_contract.md" in files


def test_no_broken_intra_repo_links():
    problems = broken_links(REPO_ROOT)
    assert problems == [], "broken doc links: " + ", ".join(
        f"{path.name} -> {target}" for path, target in problems
    )


def test_required_cross_links_present():
    # The concurrency contract and the docs it governs must link each other;
    # see REQUIRED_LINKS in tools/check_docs.py.
    missing = missing_required_links(REPO_ROOT)
    assert missing == [], "missing required cross-links: " + ", ".join(
        f"{source} -> {target}" for source, target in missing
    )


def test_examples_compile():
    assert compileall.compile_dir(
        str(REPO_ROOT / "examples"), quiet=1, force=True
    ), "an examples/*.py script no longer compiles"


def test_wire_transport_example_runs(capsys):
    # The example asserts sim and chaotic-wire scores are equal before printing.
    namespace = runpy.run_path(str(REPO_ROOT / "examples" / "wire_transport.py"))
    assert namespace["main"]() == 0
    out = capsys.readouterr().out
    assert "Every sample score identical on sim and wire" in out
    assert "Recovered:" in out
