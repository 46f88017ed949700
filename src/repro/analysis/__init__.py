"""Analysis: paper artefacts plus the concurrency-correctness suite.

Two families live here:

**Paper artefacts** -- each module produces the data behind one evaluation
artefact and renders it as plain text (the benchmark harness captures these):

* :mod:`repro.analysis.figure4` -- best-score-so-far vs. elapsed time for the
  batch-size sweep,
* :mod:`repro.analysis.table1` -- the proposed SDL metrics for the B = 1 run,
  compared against the paper's reported values,
* :mod:`repro.analysis.figure3` -- the data-portal summary and detail views,
* :mod:`repro.analysis.report` -- small ASCII table/plot helpers shared by the
  above.

**Concurrency analysis** -- the machine-checked concurrency contract
(``docs/concurrency_contract.md``):

* :mod:`repro.analysis.lint` -- AST rules RPR001-RPR007 behind
  ``python -m repro lint``,
* :mod:`repro.analysis.runtime` -- opt-in lock-order (ABBA) detection and
  thread-ownership checking for the driver stack.

The paper-artefact symbols are re-exported lazily (PEP 562): the driver layer
imports :mod:`repro.analysis.runtime` at module load, and an eager
``figure3`` import here would pull ``repro.core`` -> ``repro.wei`` back in a
cycle.
"""

from typing import TYPE_CHECKING

__all__ = [
    "figure4_series",
    "render_figure4",
    "table1_comparison",
    "render_table1",
    "figure3_views",
    "render_figure3",
    "format_table",
    "ascii_scatter",
]

#: Lazily re-exported name -> defining submodule.
_EXPORTS = {
    "figure3_views": "repro.analysis.figure3",
    "render_figure3": "repro.analysis.figure3",
    "figure4_series": "repro.analysis.figure4",
    "render_figure4": "repro.analysis.figure4",
    "table1_comparison": "repro.analysis.table1",
    "render_table1": "repro.analysis.table1",
    "format_table": "repro.analysis.report",
    "ascii_scatter": "repro.analysis.report",
}

if TYPE_CHECKING:  # pragma: no cover - static analysers need the real names
    from repro.analysis.figure3 import figure3_views, render_figure3  # noqa: F401
    from repro.analysis.figure4 import figure4_series, render_figure4  # noqa: F401
    from repro.analysis.report import ascii_scatter, format_table  # noqa: F401
    from repro.analysis.table1 import render_table1, table1_comparison  # noqa: F401


def __getattr__(name: str):
    if name in _EXPORTS:
        import importlib

        module = importlib.import_module(_EXPORTS[name])
        value = getattr(module, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
