# Developer entry points. CI runs the same commands (.github/workflows/ci.yml).

PYTHON ?= python

.PHONY: test native lint docstrings docs bench clean

# Tier-1 includes the traced-run wrapper smoke
# (tests/test_docs_and_examples.py): perfbench/spans.py wraps library
# names, so a rename or removal fails here, not in a later
# `perfbench/run.py --trace 1`.
test:
	$(PYTHON) -m pytest -x -q

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

# A short pass over the repository benchmark's three workloads (see
# perfbench/README.md); each command exits non-zero on any failed
# output check.  `service` needs >= 5 s for the analyst to run.
bench:
	$(PYTHON) perfbench/run.py --workload paper --seed 1 --seconds 2 --trace 1
	$(PYTHON) perfbench/run.py --workload stream --seed 1 --seconds 2 --trace 1
	$(PYTHON) perfbench/run.py --workload service --seed 1 --seconds 5 --trace 0

clean:
	rm -rf docs/api .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
