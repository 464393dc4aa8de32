"""Tables 1-3 of the paper.

* Table 1 / Table 2: the attribute categories of CENSUS and HEALTH --
  reproduced directly from the schema definitions (which are verbatim
  paper transcriptions).
* Table 3: the number of frequent itemsets per length at
  ``supmin = 2%`` on each dataset.
"""

from __future__ import annotations

from repro.data.census import census_schema
from repro.data.health import health_schema
from repro.experiments.config import PAPER_MIN_SUPPORT
from repro.experiments.orchestrator import DatasetSpec, exact_cell
from repro.mining.reconstructing import mine_exact

#: Paper Table 3, for side-by-side reporting.
PAPER_TABLE3 = {
    "CENSUS": {1: 19, 2: 102, 3: 203, 4: 165, 5: 64, 6: 10},
    "HEALTH": {1: 23, 2: 123, 3: 292, 4: 361, 5: 250, 6: 86, 7: 12},
}


def table1() -> list[tuple[str, tuple[str, ...]]]:
    """CENSUS attribute categories (paper Table 1)."""
    return [(a.name, a.categories) for a in census_schema()]


def table2() -> list[tuple[str, tuple[str, ...]]]:
    """HEALTH attribute categories (paper Table 2)."""
    return [(a.name, a.categories) for a in health_schema()]


def table3_cells(
    min_support: float = PAPER_MIN_SUPPORT, n_census=None, n_health=None
) -> dict:
    """The two exact-mining cells behind Table 3, by dataset name."""
    return {
        name: exact_cell(DatasetSpec.from_name(name, n_records), min_support)
        for name, n_records in (("CENSUS", n_census), ("HEALTH", n_health))
    }


def table3(
    min_support: float = PAPER_MIN_SUPPORT,
    n_census=None,
    n_health=None,
    orchestrator=None,
) -> dict[str, dict[int, int]]:
    """Frequent itemsets per length for both datasets (paper Table 3).

    With an :class:`~repro.experiments.orchestrator.Orchestrator`, both
    exact-mining passes are cached cells shared with the figure runs.
    """
    if orchestrator is not None:
        cells = table3_cells(min_support, n_census, n_health)
        results = orchestrator.run(cells.values())
        return {
            name: results[cell.name].counts_by_length() for name, cell in cells.items()
        }
    counts = {}
    for name, n_records in (("CENSUS", n_census), ("HEALTH", n_health)):
        dataset = DatasetSpec.from_name(name, n_records).build()
        counts[name] = mine_exact(dataset, min_support).counts_by_length()
    return counts
