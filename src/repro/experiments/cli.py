"""Command-line entry point: ``frapp`` / ``python -m repro.experiments``.

Regenerates any table or figure of the paper from the command line,
and runs the always-on perturbation service:

.. code-block:: console

   $ frapp table3
   $ frapp fig1 --records 10000 --seed 7
   $ frapp privacy               # the accountant's (rho1, rho2) table
   $ frapp all --jobs 4          # everything, one cell DAG, 4 workers
   $ frapp all                   # warm: served entirely from the cache
   $ frapp cache ls              # inspect the result store
   $ frapp cache gc              # drop entries from older code versions
   $ frapp serve --port 0        # the perturbation daemon (random port)
   $ frapp ledger ls             # per-tenant privacy-budget summaries
   $ frapp ledger show acme      # one tenant's full ledger
   $ frapp kernels               # active counting kernel / native-kernel report

Execution knobs (``--workers``, ``--chunk-size``, ``--jobs``) are
shared across all subcommands via :mod:`repro.experiments.options`.

Experiment results are memoised in a content-addressed store (default
``~/.cache/frapp``, override with ``--cache-dir`` or
``$REPRO_CACHE_DIR``); ``--no-cache`` bypasses it, ``--force``
recomputes and overwrites.  Cache hit/miss accounting goes to stderr
so stdout stays byte-comparable between runs.  A bad input (a typed
:class:`~repro.exceptions.FrappError`) ends the run with one line,
``frapp <experiment>: <message>``, and exit status 1.
"""

from __future__ import annotations

import argparse
import sys

from repro.data.census import census_schema
from repro.exceptions import FrappError
from repro.experiments.config import (
    PAPER_GAMMA,
    PAPER_RHO1,
    PAPER_RHO2,
    ExperimentConfig,
)
from repro.experiments.options import execution_options
from repro.experiments.orchestrator import DatasetSpec, Orchestrator
from repro.experiments.figures import (
    comparison_figure_cells,
    figure1,
    figure2,
    figure3_error_cells,
    figure3_posterior,
    figure3_support_error,
    figure4,
)
from repro.experiments.reporting import (
    render_figure_panels,
    render_schema_table,
    render_series_table,
)
from repro.experiments.tables import (
    PAPER_TABLE3,
    table1,
    table2,
    table3,
    table3_cells,
)
from repro.service.batcher import DEFAULT_MAX_BATCH, DEFAULT_MAX_LATENCY
from repro.service.server import (
    DEFAULT_DRAIN_DEADLINE,
    DEFAULT_MAX_INFLIGHT,
    DEFAULT_MAX_QUEUED_ROWS,
)
from repro.store import ResultStore, code_fingerprint, default_store_root

_EXPERIMENTS = (
    "table1",
    "table2",
    "table3",
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "sweep-gamma",
    "privacy",
    "all",
    "cache",
    "serve",
    "ledger",
    "kernels",
)

#: ``frapp cache`` maintenance verbs.
_CACHE_OPS = ("ls", "rm", "gc")

#: ``frapp ledger`` inspection verbs.
_LEDGER_OPS = ("ls", "show")


def _config_from_args(args) -> ExperimentConfig:
    return ExperimentConfig(
        gamma=args.gamma,
        min_support=args.min_support,
        seed=args.seed,
        workers=args.workers,
        chunk_size=args.chunk_size,
    )


def _store_from_args(args) -> ResultStore | None:
    if args.no_cache:
        return None
    root = args.cache_dir if args.cache_dir else default_store_root()
    try:
        return ResultStore(root)
    except OSError as error:
        print(f"frapp: cache disabled ({root}: {error})", file=sys.stderr)
        return None


def _run_table1() -> str:
    return "Table 1: CENSUS categories\n" + render_schema_table(table1())


def _run_table2() -> str:
    return "Table 2: HEALTH categories\n" + render_schema_table(table2())


def _run_table3(args, orchestrator) -> str:
    measured = table3(min_support=args.min_support, orchestrator=orchestrator)
    series = {}
    for name, counts in measured.items():
        series[f"{name} (measured)"] = counts
        series[f"{name} (paper)"] = PAPER_TABLE3[name]
    return "Table 3: frequent itemsets per length (supmin=2%)\n" + render_series_table(
        series
    )


def _run_fig1(args, orchestrator) -> str:
    panels = figure1(
        _config_from_args(args), n_records=args.records, orchestrator=orchestrator
    )
    return "Figure 1: CENSUS errors per itemset length\n" + render_figure_panels(panels)


def _run_fig2(args, orchestrator) -> str:
    panels = figure2(
        _config_from_args(args), n_records=args.records, orchestrator=orchestrator
    )
    return "Figure 2: HEALTH errors per itemset length\n" + render_figure_panels(panels)


def _run_fig3(args, orchestrator) -> str:
    n = census_schema().joint_size
    posterior = figure3_posterior(n=n, gamma=args.gamma)
    blocks = [
        "Figure 3(a): posterior probability vs alpha/(gamma x)",
        render_series_table(posterior, x_label="alpha_rel"),
    ]
    for dataset, panel in (("CENSUS", "(b)"), ("HEALTH", "(c)")):
        series = figure3_support_error(
            dataset,
            config=_config_from_args(args),
            n_records=args.records,
            orchestrator=orchestrator,
        )
        blocks.append(
            f"Figure 3{panel}: {dataset} support error (length 4) vs alpha/(gamma x)"
        )
        blocks.append(render_series_table(series, x_label="alpha_rel"))
    return "\n\n".join(blocks)


def _run_sweep_gamma(args, orchestrator) -> str:
    from repro.experiments.sweeps import gamma_sweep

    records = args.records or 20_000
    config = ExperimentConfig(seed=args.seed, min_support=args.min_support)
    series = gamma_sweep(
        DatasetSpec.from_name("CENSUS", n_records=records),
        config=config,
        orchestrator=orchestrator,
    )
    return (
        f"Ablation: DET-GD error at itemset length 4 vs gamma (CENSUS, N={records})\n"
        + render_series_table(series, x_label="gamma")
    )


def _run_fig4(args) -> str:
    blocks = []
    for dataset, panel in (("CENSUS", "(a)"), ("HEALTH", "(b)")):
        series = figure4(dataset, gamma=args.gamma)
        blocks.append(f"Figure 4{panel}: {dataset} condition numbers per length")
        blocks.append(render_series_table(series))
    return "\n\n".join(blocks)


def _all_cells(args) -> list:
    """The union cell DAG behind ``frapp all``.

    Shared cells (e.g. the exact-mining reference used by Figure 1,
    Figure 3(b) and Table 3) appear once, and with ``--jobs N`` the
    whole grid runs concurrently before the artifacts materialise.
    """
    config = _config_from_args(args)
    cells = []
    cells += comparison_figure_cells("CENSUS", config, args.records)
    cells += comparison_figure_cells("HEALTH", config, args.records)
    for dataset in ("CENSUS", "HEALTH"):
        exact, det, ran = figure3_error_cells(
            dataset, config=config, n_records=args.records
        )
        cells += [exact, det, *ran.values()]
    cells += table3_cells(args.min_support).values()
    return cells


def _run_privacy(args) -> str:
    """``frapp privacy``: the central accountant over the mechanism line-up.

    Renders one comparison table per paper schema with the
    amplification bound, the worst-case posterior ceiling at the
    paper's ``rho1``, and per-mechanism notes (randomized posterior
    ranges, composite product factors).  Extra operands are JSON
    mechanism specs (``{"name": ..., "params": {...}}``) resolved over
    the CENSUS schema and appended to the line-up -- e.g. a composite
    whose product amplification bound the table then reports.
    """
    import json

    from repro.core.privacy import PrivacyRequirement
    from repro.data.health import health_schema
    from repro.experiments.config import (
        PAPER_MECHANISMS,
        PAPER_RHO1,
        PAPER_RHO2,
    )
    from repro.experiments.reporting import render_privacy_table
    from repro.mechanisms import MechanismSpec, PrivacyAccountant, resolve

    import math

    config = _config_from_args(args)
    accountant = PrivacyAccountant(rho1=PAPER_RHO1)
    # PAPER_GAMMA is 19 up to float algebra (gamma_from_rho rounds to
    # ...999996), so compare with a tolerance: `--gamma 19` -- the value
    # the header itself displays -- must keep the admits column.
    requirement = (
        PrivacyRequirement(PAPER_RHO1, PAPER_RHO2)
        if math.isclose(args.gamma, PAPER_GAMMA, rel_tol=1e-9)
        else None
    )
    extra_specs = []
    for operand in args.extra:
        try:
            extra_specs.append(MechanismSpec.from_dict(json.loads(operand)))
        except json.JSONDecodeError as error:
            raise SystemExit(f"frapp privacy: not a JSON mechanism spec: {error}")
        except FrappError as error:
            raise SystemExit(f"frapp privacy: invalid mechanism spec: {error}")
    blocks = [
        f"Privacy accountant: amplification bounds and worst-case posteriors "
        f"(rho1={PAPER_RHO1:.0%}, gamma={args.gamma:g})"
    ]
    for name, schema in (("CENSUS", census_schema()), ("HEALTH", health_schema())):
        statements = [
            accountant.statement(
                resolve(mech, schema, defaults=config.mechanism_defaults())
            )
            for mech in PAPER_MECHANISMS
        ]
        if name == "CENSUS":
            for spec in extra_specs:
                try:
                    statements.append(accountant.statement(resolve(spec, schema)))
                except FrappError as error:
                    raise SystemExit(
                        f"frapp privacy: cannot build {spec.name!r} over the "
                        f"CENSUS schema: {error}"
                    )
        blocks.append(f"[{name}]")
        blocks.append(render_privacy_table(statements, requirement=requirement))
    return "\n\n".join(blocks)


def _run_kernels(args) -> str:
    """``frapp kernels``: the active counting kernel and the native layer.

    Shows which counting kernel the kernel layer selected, whether the
    compiled extension is importable, and whether
    ``REPRO_FORCE_PYTHON=1`` is pinning the NumPy paths.  Ends with a
    probe: a fixed miniature dataset counted by the active kernel and
    by the ``bincount`` oracle, asserting identical supports.
    """
    import numpy as np

    from repro.data.dataset import CategoricalDataset
    from repro.mining.counting import (
        ExactSupportCounter,
        supports_from_subset_counts,
    )
    from repro.mining.itemsets import all_items
    from repro.mining.kernels import native

    info = native.status()
    lines = [
        "Native kernel layer",
        f"  active counting kernel  : "
        f"{'native' if info['available'] else 'bitmap'}",
        f"  extension available     : {'yes' if info['available'] else 'no'}",
        f"  forced python (env)     : "
        f"{'yes (REPRO_FORCE_PYTHON=1)' if info['forced_python'] else 'no'}",
        f"  kernel ABI              : {info['abi'] if info['abi'] else '-'}",
    ]
    schema = census_schema()
    rng = np.random.default_rng(20050405)
    records = rng.integers(
        0, [a.cardinality for a in schema], size=(257, schema.n_attributes)
    )
    dataset = CategoricalDataset(schema, records)
    probe = list(all_items(schema))
    oracle = supports_from_subset_counts(
        schema, dataset.n_records, dataset.subset_counts, probe
    )
    agree = np.array_equal(ExactSupportCounter(dataset).supports(probe), oracle)
    lines.append(
        f"  bincount-oracle probe   : "
        f"{'ok (identical counts)' if agree else 'MISMATCH'}"
    )
    if not agree:
        raise SystemExit("\n".join(lines))
    return "\n".join(lines)


def _run_cache(args) -> str:
    """``frapp cache {ls,rm,gc}`` over the configured store."""
    operands = list(args.extra)
    op = operands.pop(0) if operands else "ls"
    if op not in _CACHE_OPS:
        raise SystemExit(f"frapp cache: unknown operation {op!r} (use ls/rm/gc)")
    root = args.cache_dir if args.cache_dir else default_store_root()
    try:
        store = ResultStore(root)
    except OSError as error:
        raise SystemExit(f"frapp cache: cannot open store at {root}: {error}")
    if op == "ls":
        # One scan: rebuild the index and render straight from it.
        manifest = store.refresh_manifest()["entries"]
        if not manifest:
            return f"cache at {store.root}: empty"
        header = f"{'key':<14} {'cell':<42} {'size':>10}"
        lines = [
            f"cache at {store.root}: {len(manifest)} entry(ies)",
            header,
            "-" * len(header),
        ]
        for key, meta in manifest.items():
            lines.append(
                f"{key[:12] + '..':<14} "
                f"{meta.get('cell', '?'):<42} {meta.get('size', 0):>10,}"
            )
        return "\n".join(lines)
    if op == "rm":
        if not operands:
            raise SystemExit(
                "frapp cache rm: give a key prefix, or 'all' to clear everything"
            )
        target = operands.pop(0)
        removed = store.clear() if target == "all" else store.remove(target)
        return f"cache rm: removed {removed} entry(ies)"
    removed = store.gc(code_fingerprint())
    return f"cache gc: removed {removed} stale entry(ies)"


def build_parser() -> argparse.ArgumentParser:
    """The ``frapp`` argument parser (one positional experiment + knobs)."""
    parser = argparse.ArgumentParser(
        prog="frapp",
        description="Reproduce the tables and figures of Agrawal & Haritsa (ICDE 2005)",
        parents=[execution_options()],
    )
    parser.add_argument("experiment", choices=_EXPERIMENTS, help="what to regenerate")
    parser.add_argument(
        "extra",
        nargs="*",
        help="operands for 'cache' (ls, rm <prefix|all>, gc), 'ledger' "
        "(ls, show <tenant>), or JSON mechanism specs for 'privacy'",
    )
    parser.add_argument(
        "--records", type=int, default=None, help="dataset size override"
    )
    parser.add_argument("--seed", type=int, default=20050405, help="experiment seed")
    parser.add_argument(
        "--gamma", type=float, default=PAPER_GAMMA, help="amplification bound"
    )
    parser.add_argument(
        "--min-support", type=float, default=0.02, help="support threshold"
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="compute everything; do not read or write the result store",
    )
    parser.add_argument(
        "--force",
        action="store_true",
        help="recompute cells even when cached, overwriting their entries",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="result-store directory (default $REPRO_CACHE_DIR or ~/.cache/frapp)",
    )
    service = parser.add_argument_group("service (frapp serve / frapp ledger)")
    service.add_argument(
        "--host", default="127.0.0.1", help="address frapp serve binds to"
    )
    service.add_argument(
        "--port",
        type=int,
        default=8417,
        help="port frapp serve listens on (0 = pick a free port; the "
        "chosen port is announced on stdout)",
    )
    service.add_argument(
        "--data-dir",
        default="frapp-data",
        help="durable service state: per-tenant ledgers and spools",
    )
    service.add_argument(
        "--schema",
        choices=("census", "health"),
        default="census",
        help="the schema the service collects",
    )
    service.add_argument(
        "--mechanism",
        default="det-gd",
        help="default mechanism for collections opened without a spec",
    )
    service.add_argument(
        "--rho1",
        type=float,
        default=PAPER_RHO1,
        help="default tenant budget: prior probability ceiling",
    )
    service.add_argument(
        "--rho2",
        type=float,
        default=PAPER_RHO2,
        help="default tenant budget: cumulative posterior ceiling",
    )
    service.add_argument(
        "--max-batch",
        type=int,
        default=None,
        help=f"micro-batch flush threshold in rows (default {DEFAULT_MAX_BATCH})",
    )
    service.add_argument(
        "--max-latency",
        type=float,
        default=None,
        help="seconds a micro-batch is held for more submissions to join; 0 "
        f"flushes on the next event-loop turn (default {DEFAULT_MAX_LATENCY})",
    )
    service.add_argument(
        "--no-auto-register",
        action="store_true",
        help="refuse unknown tenants/collections instead of creating "
        "them with the default budget and mechanism",
    )
    service.add_argument(
        "--max-inflight",
        type=int,
        default=None,
        help="admission limit on concurrent mutating requests; excess "
        f"is shed with HTTP 429 (default {DEFAULT_MAX_INFLIGHT})",
    )
    service.add_argument(
        "--max-queued-rows",
        type=int,
        default=None,
        help="admission limit on rows queued in micro-batchers; "
        f"submissions above it are shed with HTTP 429 (default "
        f"{DEFAULT_MAX_QUEUED_ROWS})",
    )
    service.add_argument(
        "--drain-deadline",
        type=float,
        default=None,
        help="seconds shutdown waits for in-flight requests before "
        f"cancelling their connections (default {DEFAULT_DRAIN_DEADLINE})",
    )
    return parser


def _run_serve(args) -> int:
    """``frapp serve``: run the perturbation daemon until interrupted."""
    import asyncio

    from repro.data.health import health_schema
    from repro.mechanisms import resolve
    from repro.service import ServiceConfig, run_server

    schema = census_schema() if args.schema == "census" else health_schema()
    mechanism = resolve(args.mechanism, schema, defaults={"gamma": args.gamma})
    # Flags left unset keep ServiceConfig's own defaults.
    limits = {
        name: getattr(args, name)
        for name in (
            "max_batch",
            "max_latency",
            "max_inflight",
            "max_queued_rows",
            "drain_deadline",
        )
        if getattr(args, name) is not None
    }
    config = ServiceConfig(
        schema=schema,
        data_dir=args.data_dir,
        rho1=args.rho1,
        rho2=args.rho2,
        mechanism=mechanism.spec().canonical(),
        seed=args.seed,
        auto_register=not args.no_auto_register,
        **limits,
    )

    def announce(port):
        print(f"frapp serve: listening on http://{args.host}:{port}", flush=True)

    try:
        asyncio.run(
            run_server(config, host=args.host, port=args.port, announce=announce)
        )
    except KeyboardInterrupt:
        pass
    return 0


def _run_ledger(args) -> str:
    """``frapp ledger {ls,show <tenant>}`` over ``--data-dir``."""
    import json

    from repro.service import LedgerStore

    operands = list(args.extra)
    op = operands.pop(0) if operands else "ls"
    if op not in _LEDGER_OPS:
        raise SystemExit(f"frapp ledger: unknown operation {op!r} (use ls/show)")
    store = LedgerStore(args.data_dir)
    if op == "show":
        if not operands:
            raise SystemExit("frapp ledger show: give a tenant name")
        tenant = operands.pop(0)
        ledger = store.load(tenant)
        if ledger is None:
            raise SystemExit(f"frapp ledger: unknown tenant {tenant!r}")
        return json.dumps(ledger.to_dict(), indent=2, sort_keys=True)
    tenants = store.tenants()
    if not tenants:
        return f"ledgers at {store.root}: none"
    header = (
        f"{'tenant':<20} {'collections':>11} {'records':>10} "
        f"{'gamma used':>11} {'gamma budget':>12} {'rho2 reached':>12}"
    )
    lines = [f"ledgers at {store.root}:", header, "-" * len(header)]
    for tenant in tenants:
        ledger = store.load(tenant)
        lines.append(
            f"{tenant:<20} {len(ledger.collections):>11} "
            f"{sum(r.records for r in ledger.collections.values()):>10,} "
            f"{ledger.cumulative_amplification():>11.4g} "
            f"{ledger.budget.gamma:>12.4g} "
            f"{ledger.cumulative_rho2():>12.4g}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    """Entry point: regenerate an artefact or run a cache verb."""
    # parse_intermixed_args lets options follow the free-form operands
    # and vice versa (`frapp privacy --gamma 19 '<spec>'`), which plain
    # parse_args rejects once a nargs="*" positional is in play.
    args = build_parser().parse_intermixed_args(argv)
    if args.experiment == "serve":
        if args.extra:
            raise SystemExit(
                f"frapp serve: unexpected operand(s) {args.extra!r}"
            )
        return _run_serve(args)
    if args.experiment == "ledger":
        print(_run_ledger(args))
        return 0
    if args.experiment == "cache":
        print(_run_cache(args))
        return 0
    if args.experiment == "privacy":
        print(_run_privacy(args))
        return 0
    if args.experiment == "kernels":
        if args.extra:
            raise SystemExit(
                f"frapp kernels: unexpected operand(s) {args.extra!r}"
            )
        print(_run_kernels(args))
        return 0
    if args.extra:
        raise SystemExit(
            f"frapp {args.experiment}: unexpected operand(s) {args.extra!r}"
        )
    try:
        orchestrator = Orchestrator(
            store=_store_from_args(args), jobs=args.jobs, force=args.force
        )
        runners = {
            "table1": lambda: _run_table1(),
            "table2": lambda: _run_table2(),
            "table3": lambda: _run_table3(args, orchestrator),
            "fig1": lambda: _run_fig1(args, orchestrator),
            "fig2": lambda: _run_fig2(args, orchestrator),
            "fig3": lambda: _run_fig3(args, orchestrator),
            "fig4": lambda: _run_fig4(args),
            "sweep-gamma": lambda: _run_sweep_gamma(args, orchestrator),
        }
        if args.experiment == "all":
            names = [name for name in runners if name != "sweep-gamma"]
            # Pre-run the union DAG so independent cells from *different*
            # artifacts run concurrently; the per-artifact materialisers
            # below are then pure memo/store hits.
            orchestrator.run(_all_cells(args))
        else:
            names = [args.experiment]
        print("\n\n".join(runners[name]() for name in names))
    except FrappError as error:
        raise SystemExit(f"frapp {args.experiment}: {error}")
    stats = orchestrator.stats
    if stats.hits or stats.misses:
        where = "disabled" if orchestrator.store is None else orchestrator.store.root
        print(f"frapp: {stats.summary()} [store: {where}]", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
