# Convenience targets for the HSLB reproduction.
#
# Every target that imports the library sets PYTHONPATH=src, so targets work
# uniformly from a bare checkout with no install step.

PYTHON ?= python

.PHONY: install test test-random bench e2e-bench solver-bench bench-check dynlb-bench faults-bench serving obs-test obs-bench examples reports clean

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	PYTHONPATH=src $(PYTHON) -m pytest tests/

# Tier-1 runs hypothesis derandomized (tests/conftest.py).  This target
# explores with fresh random examples instead; what it finds is a report
# to turn into a pinned regression test, not a gate.
test-random:
	PYTHONPATH=src $(PYTHON) -m pytest tests/ --hypothesis-profile=randomized

bench:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/ --benchmark-only

# The end-to-end ledger (BENCHMARK.json): every workload's end-to-end
# metrics with tracing off, then the ledger's own self-tests (tier-1
# collects only tests/).  The runner finds src/ itself.
e2e-bench:
	python3 benchmarks/e2e/run.py --trace 0
	python3 -m pytest benchmarks/e2e/test_e2e.py

# Solver hot-path micro-benchmarks (simplex, warm restarts, B&B node
# throughput, OA masters); updates benchmarks/out/BENCH_solver_micro.json.
solver-bench:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/bench_solver_micro.py --benchmark-only

# Regression gate: run the solver micro-benchmarks to a scratch file and
# fail if any gated (simplex/LP) mean regressed >2x vs. the committed
# baseline. CI runs this on every push.  The scratch *.fresh.json is
# removed after a passing gate so it cannot go stale on disk; pass
# --update to check_bench.py instead to promote it into the baseline.
bench-check:
	HSLB_BENCH_OUT=benchmarks/out/BENCH_solver_micro.fresh.json \
		PYTHONPATH=src $(PYTHON) -m pytest benchmarks/bench_solver_micro.py --benchmark-only -q
	$(PYTHON) benchmarks/check_bench.py --fresh benchmarks/out/BENCH_solver_micro.fresh.json
	rm -f benchmarks/out/BENCH_solver_micro.fresh.json

# Online-rebalancing benchmark + regression gate: run the strategy
# comparison to a scratch file and diff the deterministic simulated totals
# (dynlb_total_*) against the committed benchmarks/out/BENCH_dynlb.json.
# The totals are bit-identical under the keyed RNG, so the gate runs at a
# tight 1.25x threshold.
dynlb-bench:
	HSLB_BENCH_DYNLB_OUT=benchmarks/out/BENCH_dynlb.fresh.json \
		PYTHONPATH=src $(PYTHON) -m pytest benchmarks/bench_dynlb.py --benchmark-only -q
	$(PYTHON) benchmarks/check_bench.py --fresh benchmarks/out/BENCH_dynlb.fresh.json \
		--baseline benchmarks/out/BENCH_dynlb.json --threshold 1.25
	rm -f benchmarks/out/BENCH_dynlb.fresh.json

# Fault-injection degradation curves; writes
# benchmarks/out/faults_degradation.txt and faults_pipeline.txt.
faults-bench:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/bench_faults.py --benchmark-only

# Everything about the serving path, one target (it is one path): the
# service/chaos/tier test suites and the commands users type at them
# (`hslb serve` / `batch` / `chaos`), the two service benchmarks with their
# deterministic regression gates (Zipf-mix hit rate and bit-identical replay
# vs. BENCH_service.json; keyed-burst accounting vs. BENCH_asyncserve.json:
# lost requests pinned at 0, one solve per distinct request), and a
# 250-request in-process chaos soak over all three objectives that fails if
# any request is lost or if benchmarks/out/chaos_metrics.json, which it
# writes, counts no injected crash.  Every request is answered on the tier's
# event loop.  Wall-clock lives in the end-to-end ledger; compare a change
# in alternating parent/change pairs of
#   python3 benchmarks/e2e/run.py --workload serve_flash --trace 0 --seed S --out FILE
serving:
	PYTHONPATH=src $(PYTHON) -m pytest tests/service tests/faults/test_chaos_plan.py tests/minlp/test_warm_start.py tests/cli/test_serving.py tests/cli/test_parser.py -q
	PYTHONPATH=src $(PYTHON) -m pytest tests/test_cli.py -q -k "serve or batch or chaos"
	HSLB_BENCH_SERVICE_OUT=benchmarks/out/BENCH_service.fresh.json \
		PYTHONPATH=src $(PYTHON) -m pytest benchmarks/bench_service.py --benchmark-only -q
	$(PYTHON) benchmarks/check_bench.py --fresh benchmarks/out/BENCH_service.fresh.json \
		--baseline benchmarks/out/BENCH_service.json
	rm -f benchmarks/out/BENCH_service.fresh.json
	HSLB_BENCH_ASYNCSERVE_OUT=benchmarks/out/BENCH_asyncserve.fresh.json \
		PYTHONPATH=src $(PYTHON) -m pytest benchmarks/bench_asyncserve.py --benchmark-only -q
	$(PYTHON) benchmarks/check_bench.py --fresh benchmarks/out/BENCH_asyncserve.fresh.json \
		--baseline benchmarks/out/BENCH_asyncserve.json
	rm -f benchmarks/out/BENCH_asyncserve.fresh.json
	PYTHONPATH=src $(PYTHON) -m repro chaos --requests 250 \
		--chaos-seed 20260808 --metrics-out benchmarks/out/chaos_metrics.json
	$(PYTHON) -c "import json; s = json.load(open('benchmarks/out/chaos_metrics.json')); r = s['resilience']; \
		assert r['worker_crashes'] > 0, ('the soak injected no crash', r); \
		assert s['requests'] + s['coalesce']['riders'] == 250, ('lost requests', s)"

# The one metrics stack, one list: the obs suites plus the two service
# suites that pin it (the view over a registry scope; scrape == tier
# snapshot == shard views under chaos), and the `hslb trace` / `top` /
# `metrics` commands.  CI calls this.
obs-test:
	PYTHONPATH=src $(PYTHON) -m pytest tests/obs tests/service/test_metrics.py tests/service/test_tier_chaos.py tests/cli/test_obs.py -q
	PYTHONPATH=src $(PYTHON) -m pytest tests/test_cli.py -q -k "trace or top"

# Tracing overhead (off / on / on + export); writes
# benchmarks/out/obs_overhead.txt.
obs-bench:
	HSLB_BENCH_OBS_OUT=benchmarks/out/BENCH_obs.fresh.json \
		PYTHONPATH=src $(PYTHON) -m pytest benchmarks/bench_obs.py --benchmark-only -q
	$(PYTHON) benchmarks/check_bench.py --fresh benchmarks/out/BENCH_obs.fresh.json \
		--baseline benchmarks/out/BENCH_obs.json
	rm -f benchmarks/out/BENCH_obs.fresh.json

# Regenerate every paper table/figure and print the saved reports.
reports: bench
	@for f in benchmarks/out/*.txt; do echo "=== $$f"; cat $$f; echo; done

examples:
	PYTHONPATH=src $(PYTHON) examples/quickstart.py
	PYTHONPATH=src $(PYTHON) examples/fmo_fragments.py
	PYTHONPATH=src $(PYTHON) examples/custom_application.py
	PYTHONPATH=src $(PYTHON) examples/solver_tour.py
	PYTHONPATH=src $(PYTHON) examples/job_size_prediction.py
	PYTHONPATH=src $(PYTHON) examples/cesm_high_resolution.py
	PYTHONPATH=src $(PYTHON) examples/fault_injection.py
	PYTHONPATH=src $(PYTHON) examples/allocation_service.py
	PYTHONPATH=src $(PYTHON) examples/resilient_service.py

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
