# Convenience targets for the reproduction repo.
#
# `make verify` is the one-shot health check: tier-1 tests, the
# simulator-throughput smoke (all three engines: legacy, decoded,
# warp), the end-to-end tracing smoke, the
# fault-injection smoke, the multi-tenant serving smoke, the
# per-construct microbenchmark smoke, the serve-resilience chaos
# smoke (the same cells run under the `simperf`, `trace`, `faults`,
# `serve`, `micro` and `chaos` pytest markers) and the compile-time
# smoke (`timings --smoke`: uncached pipeline and per-pass wall time),
# followed by the noise-aware perf-regression gate (`bench compare`,
# see README "Perf tracking").

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test verify simperf trace faults serve micro chaos compare figures clean

test:
	$(PYTHON) -m pytest -q

verify: test
	$(PYTHON) -m repro.bench simperf --quick --out -
	$(PYTHON) -m repro.bench trace --smoke
	$(PYTHON) -m repro.bench faults --smoke
	$(PYTHON) -m repro.bench serve --smoke --out -
	$(PYTHON) -m repro.bench micro --smoke
	$(PYTHON) -m repro.bench chaos --smoke
	$(PYTHON) -m repro.bench timings --smoke
	$(PYTHON) -m repro.bench compare --baseline
	@echo "verify: OK"

simperf:
	$(PYTHON) -m repro.bench simperf

trace:
	$(PYTHON) -m repro.bench trace --smoke

faults:
	$(PYTHON) -m repro.bench faults

serve:
	$(PYTHON) -m repro.bench serve

micro:
	$(PYTHON) -m repro.bench micro

chaos:
	$(PYTHON) -m repro.bench chaos

compare:
	$(PYTHON) -m repro.bench compare --baseline

figures:
	$(PYTHON) -m repro.bench all

# `clean` deliberately keeps .repro-bench/ — the perf history's value
# is its persistence across checkouts; delete it explicitly if needed.
clean:
	rm -rf .repro-cache .pytest_cache TRACE_*.json
	find . -name __pycache__ -type d -prune -exec rm -rf {} +
