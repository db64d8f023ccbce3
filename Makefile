# Convenience targets for the reproduction.

PYTHON ?= python3

.PHONY: install lint test test-fast test-slow verify-smoke campaign-smoke serve-smoke scaling-smoke scaling-full scaling-slow synth-smoke synth-bench surrogate-smoke surrogate-bench bench examples reports experiments clean

install:
	$(PYTHON) -m pip install -e . --no-build-isolation || $(PYTHON) setup.py develop

# Lint with ruff when it is installed (config lives in pyproject.toml);
# degrade to a notice otherwise so `make test` works on minimal boxes.
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks examples; \
	elif $(PYTHON) -c "import ruff" >/dev/null 2>&1; then \
		$(PYTHON) -m ruff check src tests benchmarks examples; \
	else \
		echo "lint: ruff not installed, skipping (pip install ruff)"; \
	fi

test: lint campaign-smoke serve-smoke scaling-smoke synth-smoke surrogate-smoke
	$(PYTHON) -m pytest tests/

# Tier-1: everything except minutes-scale simulation tests (marker: slow).
test-fast:
	$(PYTHON) -m pytest tests/ -m "not slow" -x -q

# The slow tier on its own (nightly CI runs this plus verify-smoke).
test-slow:
	$(PYTHON) -m pytest tests/ -m slow -q

# Simulation-vs-analytic conformance smoke: nine constituent measures on
# scaled parameters through the campaign runtime (see docs/verification.md).
verify-smoke:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	PYTHONPATH=src:$$PYTHONPATH $(PYTHON) -m repro verify --profile scaled \
		--cache-dir "$$tmp/cache" --run-dir "$$tmp/runs" && \
	echo "verify-smoke: OK"

# End-to-end smoke test of the campaign runtime: a tiny two-point-per-curve
# campaign through the process backend, cached into a temp dir; the warm
# rerun, on the thread backend against the store the process run wrote,
# must be served entirely from the cache, and the cache directory must
# hold the one store, no per-entry ``??/*.json`` files.
campaign-smoke:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	PYTHONPATH=src:$$PYTHONPATH $(PYTHON) -m repro campaign FIG9 --step 10000 \
		--backend process --jobs 2 --no-chart \
		--cache-dir "$$tmp/cache" --run-dir "$$tmp/runs" >/dev/null && \
	PYTHONPATH=src:$$PYTHONPATH $(PYTHON) -m repro campaign FIG9 --step 10000 \
		--backend thread --jobs 2 --no-chart \
		--cache-dir "$$tmp/cache" --run-dir "$$tmp/runs" \
		| grep -q "hit rate 100%" && \
	test -s "$$tmp/cache/results.sqlite3" && \
	test -z "$$(find "$$tmp/cache" -path '*/??/*.json')" && \
	echo "campaign-smoke: OK (warm rerun fully cached)"

# End-to-end smoke of the serving layer: boot an in-process server on an
# ephemeral port, drive a closed-loop load through every endpoint via the
# load generator's self-test mode, and tear it down cleanly.
serve-smoke:
	@PYTHONPATH=src:$$PYTHONPATH $(PYTHON) -m repro.serve.loadgen --selftest \
		--requests 20 --concurrency 4 --step 2500 && \
	echo "serve-smoke: OK"

# Fleet scaling benchmark, reduced profile (seconds-scale): sparse
# solvers vs the lumped reference on small fleets, plus the
# cross-solver differential harness (streaming vs krylov vs dense expm
# vs spectral); writes benchmarks/reports/BENCH_scaling_smoke.json.
scaling-smoke:
	@FLEET_BENCH_PROFILE=smoke PYTHONPATH=src:$$PYTHONPATH \
		$(PYTHON) -m pytest benchmarks/test_fleet_scaling.py \
		tests/ctmc/test_solver_differential.py \
		-m "not slow" -q && \
	echo "scaling-smoke: OK"

# The full sweep (1e3..2.6e5 flat states, plus the 1e6 slow tier);
# writes benchmarks/reports/BENCH_scaling.json.  The 1e7 streaming-only
# tier needs FLEET_BENCH_PROFILE=slow (see scaling-slow).
scaling-full:
	PYTHONPATH=src:$$PYTHONPATH $(PYTHON) -m pytest \
		benchmarks/test_fleet_scaling.py -q

# Nightly tier: the full sweep plus the 1e7-state streaming-only
# point, under the slow-profile memory budget.
scaling-slow:
	FLEET_BENCH_PROFILE=slow PYTHONPATH=src:$$PYTHONPATH \
		$(PYTHON) -m pytest benchmarks/test_fleet_scaling.py -q

# Joint-synthesis smoke: a small phi-only optimization on the scaled
# profile whose analytic quantile/exceedance measures are validated
# against simulation; the run must end with a passing verdict family.
synth-smoke:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	PYTHONPATH=src:$$PYTHONPATH $(PYTHON) -m repro synthesize \
		--theta 20 --lam 60 --mu-new 0.2 --mu-old 1e-4 \
		--alpha 600 --beta 600 --levers phi --max-iters 6 --starts 2 \
		--replications 256 --validate --cache-dir "$$tmp/cache" \
		| grep -q "verdicts: PASS" && \
	echo "synth-smoke: OK (distribution measures validated)"

# Full synthesis benchmark: parametric templates + step cache vs naive
# per-point re-solve; writes benchmarks/reports/BENCH_synth.json and
# gates the 3x speedup (SYNTH_BENCH_PROFILE=smoke for a log-only pass).
synth-bench:
	PYTHONPATH=src:$$PYTHONPATH $(PYTHON) -m pytest \
		benchmarks/test_synth_scaling.py -q

# Surrogate smoke: fit a reduced-degree box, exercise every acceptance
# dimension (point eval, serve tier, certification, synthesis) in
# seconds; writes benchmarks/reports/BENCH_surrogate_smoke.json.
surrogate-smoke:
	@SURROGATE_BENCH_PROFILE=smoke PYTHONPATH=src:$$PYTHONPATH \
		$(PYTHON) -m pytest benchmarks/test_surrogate_scaling.py -q && \
	echo "surrogate-smoke: OK"

# Full surrogate benchmark: table3-degree fit with all seven acceptance
# gates (100x point eval, 5x serve p50, 10x synth reduction, 1e-6
# certified bound, ...); writes benchmarks/reports/BENCH_surrogate.json.
surrogate-bench:
	PYTHONPATH=src:$$PYTHONPATH $(PYTHON) -m pytest \
		benchmarks/test_surrogate_scaling.py -q

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

reports: bench
	@ls benchmarks/reports/

experiments:
	$(PYTHON) -m repro experiment all

examples:
	@for script in examples/*.py; do \
		echo "=== $$script ==="; \
		PYTHONPATH=src:$$PYTHONPATH $(PYTHON) $$script || exit 1; \
	done

clean:
	rm -rf .pytest_cache benchmarks/reports
	find . -name __pycache__ -type d -exec rm -rf {} +
