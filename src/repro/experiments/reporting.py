"""Plain-text rendering of experiment results.

Every table/figure builder returns nested dicts; these helpers turn
them into aligned monospace tables (what the CLI prints and what
EXPERIMENTS.md embeds).
"""

from __future__ import annotations

import math


def _format_value(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        if math.isnan(value):
            return "-"
        if value == float("inf"):
            return "inf"
        if value != 0 and (abs(value) >= 1e4 or abs(value) < 1e-3):
            return f"{value:.2e}"
        return f"{value:.4g}"
    return str(value)


def _format_bound(value) -> str:
    """Format a privacy bound with a finite-width marker for ``inf``.

    Mechanisms without a strict amplification guarantee (additive
    noise, unmaterialisable composites with an unbounded part) report
    ``inf``/``nan`` bounds; the privacy table prints ``unbounded`` /
    ``-`` so nothing downstream has to arithmetic on the rendering.
    Series tables keep :func:`_format_value`'s bare ``inf`` (condition
    numbers legitimately diverge there).
    """
    if isinstance(value, float):
        if math.isnan(value):
            return "-"
        if math.isinf(value):
            return "unbounded"
    return _format_value(value)


def render_series_table(series: dict, x_label: str = "length", sort_keys=True) -> str:
    """Render ``{row_name: {x: value}}`` as an aligned text table.

    Rows keep insertion order; columns are the union of x-values.
    """
    columns = set()
    for values in series.values():
        columns.update(values)
    columns = sorted(columns) if sort_keys else list(columns)
    col_headers = [
        f"{c:.2f}" if isinstance(c, float) else str(c) for c in columns
    ]
    header = [x_label] + col_headers
    rows = [header]
    for name, values in series.items():
        rows.append([str(name)] + [_format_value(values.get(c)) for c in columns])
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    lines = []
    for i, row in enumerate(rows):
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def render_schema_table(rows: list[tuple[str, tuple[str, ...]]]) -> str:
    """Render Table-1/2 style ``(attribute, categories)`` listings."""
    width = max(len(name) for name, _ in rows)
    lines = [f"{'Attribute'.ljust(width)}  Categories", f"{'-' * width}  {'-' * 10}"]
    for name, categories in rows:
        lines.append(f"{name.ljust(width)}  {', '.join(categories)}")
    return "\n".join(lines)


def order_mechanism_rows(series: dict) -> dict:
    """Reorder mechanism-keyed rows into the registry's plot order.

    Display names and plot order live in the mechanism registry's
    metadata (:func:`repro.mechanisms.registry.display_order`); this
    re-sorts a ``{mechanism: ...}`` mapping accordingly so comparison
    tables list mechanisms consistently no matter how the series was
    assembled.  Names the registry does not know keep their relative
    insertion order after the known ones.
    """
    from repro.mechanisms.registry import display_order

    return {name: series[name] for name in display_order(series)}


def render_figure_panels(panels: dict, x_label: str = "length") -> str:
    """Render a multi-panel figure: ``{panel: {mechanism: {x: value}}}``.

    Mechanism rows are rendered in the registry's plot order (see
    :func:`order_mechanism_rows`).
    """
    blocks = []
    for panel, series in panels.items():
        blocks.append(f"[{panel}]")
        blocks.append(render_series_table(order_mechanism_rows(series), x_label=x_label))
        blocks.append("")
    return "\n".join(blocks).rstrip()


def render_privacy_table(statements, requirement=None) -> str:
    """Render privacy-accountant statements as a comparison table.

    One row per :class:`~repro.mechanisms.PrivacyStatement`, in the
    given order, with the amplification bound (``gamma``), the
    worst-case posterior ceiling at the statement's ``rho1``, the
    reconstruction condition number (when the mechanism's matrix
    description admits one -- including implicit Kronecker composites
    whose joint matrix is never materialised), the determinable-breach
    range for randomized mechanisms, the composite product factors, and
    -- when a :class:`~repro.core.privacy.PrivacyRequirement` is
    supplied -- an ``admits`` verdict column.  Unbounded values render
    as the finite-width ``unbounded`` marker, never raw ``inf``/``nan``
    (see :func:`_format_bound`).
    """
    header = ["mechanism", "gamma_bound", "rho2_bound", "cond"]
    if requirement is not None:
        header.append("admits")
    header.append("notes")
    rows = [header]
    for statement in statements:
        notes = []
        if statement.factors is not None:
            notes.append(
                "product of "
                + " x ".join(_format_bound(f) for f in statement.factors)
            )
        if statement.posterior_range is not None:
            lo, _, hi = statement.posterior_range
            notes.append(
                f"determinable breach in [{_format_bound(lo)}, {_format_bound(hi)}]"
            )
        row = [
            statement.mechanism,
            _format_bound(statement.amplification),
            _format_bound(statement.rho2),
            _format_bound(getattr(statement, "condition_number", None)),
        ]
        if requirement is not None:
            row.append("yes" if statement.admits(requirement) else "NO")
        row.append("; ".join(notes) if notes else "-")
        rows.append(row)
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    lines = []
    for i, row in enumerate(rows):
        cells = [
            cell.ljust(w) if j in (0, len(header) - 1) else cell.rjust(w)
            for j, (cell, w) in enumerate(zip(row, widths))
        ]
        lines.append("  ".join(cells).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def render_solver_table(stats) -> str:
    """Render per-lane solver tallies as a table.

    ``stats`` carries ``cells``, ``raced`` and ``cancelled`` totals and
    an ``as_rows()`` method yielding ``(lane, wins, rejected, errors)``
    rows; one row per lane, in the order ``as_rows`` gives.
    """
    lines = [
        f"solver portfolio: {stats.cells} cell(s), {stats.raced} raced, "
        f"{stats.cancelled} lane(s) cancelled"
    ]
    rows = [["lane", "wins", "rejected", "errors"]]
    for lane, wins, rejected, errors in stats.as_rows():
        rows.append([lane, str(wins), str(rejected), str(errors)])
    widths = [max(len(row[i]) for row in rows) for i in range(4)]
    for i, row in enumerate(rows):
        cells = [
            cell.ljust(w) if j == 0 else cell.rjust(w)
            for j, (cell, w) in enumerate(zip(row, widths))
        ]
        lines.append("  ".join(cells).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)
