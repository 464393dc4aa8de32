# Developer entry points. CI runs the same commands (.github/workflows/ci.yml).

PYTHON ?= python

.PHONY: test native lint docstrings docs bench clean

# The second line is CI's traced-run wrapper smoke: perfbench/spans.py
# wraps library names, so a rename or removal fails here, not in a
# later `perfbench/run.py --trace 1`.
test:
	$(PYTHON) -m pytest -x -q
	PYTHONPATH=src:perfbench $(PYTHON) -c "from spans import Tracer, install; install(Tracer())"

# Build the optional native kernel extension next to its wrapper
# (src/repro/_native_kernels*.so); `pip install -e .` does the same.
# Check what loaded with `frapp kernels`; REPRO_FORCE_PYTHON=1 ignores it.
native:
	$(PYTHON) setup.py build_ext --inplace

lint:
	ruff check .
	ruff format --check .
	$(PYTHON) tools/check_docstrings.py

docstrings:
	$(PYTHON) tools/check_docstrings.py

# API reference under docs/api (requires the `docs` extra: pip install -e .[docs]).
# -W error::UserWarning turns pdoc's warnings (broken links, bad docstrings)
# into build failures, which is exactly what the CI docs job gates on.
docs:
	$(PYTHON) -W error::UserWarning -m pdoc repro -o docs/api --docformat numpy

bench:
	REPRO_SCALE=0.1 $(PYTHON) -m pytest benchmarks/bench_miners.py benchmarks/bench_kernels.py benchmarks/bench_pipeline.py benchmarks/bench_orchestrator.py -q

clean:
	rm -rf docs/api .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
