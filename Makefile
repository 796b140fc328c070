# Common developer targets.

.PHONY: install test bench examples lint all

install:
	pip install -e . || python setup.py develop

test:
	pytest tests/

bench:
	PYTHONPATH=src python -m pytest benchmarks --ignore=benchmarks/e2e -q

examples:
	@for ex in examples/*.py; do echo "== $$ex"; python $$ex > /dev/null || exit 1; done; echo "all examples OK"

all: test bench
