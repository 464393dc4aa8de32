"""Run ``frapp serve`` with the benchmark's layer spans installed.

Usage::

    python3 perfbench/serve_traced.py --spans-out FILE -- serve --port 0 ...

Installs the wrappers of :mod:`spans`, then runs the daemon through the
public CLI (which calls ``repro.service.run_server``).  On SIGINT the
daemon drains and stops as usual; afterwards the launcher writes the
Chrome trace to ``FILE`` and the per-layer summary to
``FILE.layers.json``.
"""

from __future__ import annotations

import argparse
import json
import time

from spans import Tracer, install, layer_metrics, span_cost


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans-out", required=True)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    serve_args = [arg for arg in args.serve_args if arg != "--"]

    tracer = Tracer()
    install(tracer)
    from repro.experiments import cli

    start = time.perf_counter()
    try:
        code = cli.main(serve_args)
    finally:
        wall_s = time.perf_counter() - start
        summary = {
            "wall_s": wall_s,
            "span_cost_s": span_cost(),
            "layers": layer_metrics(tracer, wall_s),
            "samples": dict(tracer.samples),
        }
        with open(args.spans_out + ".layers.json", "w", encoding="utf-8") as out:
            json.dump(summary, out)
        tracer.write_chrome(args.spans_out)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
