# Convenience targets.  NOTE: in offline environments without the `wheel`
# package, `pip install -e .` cannot build editable metadata; the install
# target falls back to the legacy setuptools path automatically.

.PHONY: install test bench bench-smoke fault-smoke cert-smoke kernel-smoke serve-smoke plan-smoke transport-smoke examples selfcheck docs all

install:
	pip install -e . || python setup.py develop

test:
	pytest tests/

bench:
	pytest benchmarks/ --benchmark-only

# Quick CI-sized benchmark: the simulator throughput check plus the
# parallel sweep engine on tiny instances (round-count equivalence and
# warm-start cache hits only, no timing thresholds).  The sweep smoke runs
# with two workers against a persisted schedule store and emits
# benchmarks/results/BENCH_sweeps.json.
SWEEP_CACHE_DIR ?= benchmarks/results/sweep-cache
bench-smoke:
	REPRO_BENCH_SMOKE=1 REPRO_BENCH_WORKERS=2 REPRO_SWEEP_CACHE_DIR=$(SWEEP_CACHE_DIR) \
		pytest benchmarks/bench_simulator_throughput.py benchmarks/bench_sweep_executor.py --benchmark-only

# Fault-injection smoke: first the delivery-core golden (every phase kind
# x mode x fault plan x resilience policy, tests/test_delivery_core.py),
# then resilience curves (2 algorithms x 3 drop rates), single-drop
# recovery, the self-healing sweep (drop rate 0.01, 2 workers, one
# injected worker crash, one poisoned cell -> quarantined), and the
# schedule-store crash drill.  Emits benchmarks/results/BENCH_resilience.json.
fault-smoke:
	pytest tests/test_delivery_core.py -q
	REPRO_BENCH_SMOKE=1 REPRO_BENCH_WORKERS=2 \
		pytest benchmarks/bench_resilience.py --benchmark-only -k "not certification"

# Certification smoke: the distributed Freivalds certifier over an
# algorithms x fault-plans grid (k >= 20 checks, zero silent corruption,
# detection rate 1.0) plus the checkpoint crash/resume drill (a SIGKILL'd
# sweep resumes bit-identically from its manifest).  Merges the
# "certification" and "checkpoint_resume_drill" sections into
# benchmarks/results/BENCH_resilience.json.
cert-smoke:
	REPRO_BENCH_SMOKE=1 \
		pytest benchmarks/bench_resilience.py --benchmark-only -k certification

# Kernel + zero-copy executor smoke: the NumPy segment-sum kernels
# against np.add.at, the scheduler parity net (run-collapsed first-fit
# against the reference loop; the bounded-key numbering and per-pair
# lookups against the sorts they replace), the one-shot triangle
# enumeration and column-wise cluster extraction against their oracles
# (tests/oracles), the local-step folds against their recorded goldens,
# and the shared-memory work-stealing engine
# (serial equivalence, crash recovery, segment hygiene, dispatch before
# polling, and the self-healing timeout/retry/quarantine policy it also
# runs), then the sweep bench with two workers so BENCH_sweeps.json
# records the shm engine's per-cell payload accounting.
kernel-smoke:
	pytest tests/test_kernels.py tests/test_scheduler_runs.py tests/test_pair_lookup_parity.py tests/test_local_fold.py tests/test_triangle_enumeration.py tests/test_clustering_columns.py tests/test_instance_words.py tests/test_shm_executor.py tests/test_dispatch_order.py tests/test_executor_resilience.py -q
	REPRO_BENCH_SMOKE=1 REPRO_BENCH_WORKERS=2 \
		pytest benchmarks/bench_sweep_executor.py --benchmark-only

# Serving-layer smoke: the serve test suite and the store's container
# tests and loader fuzzing (schedule and plan records), then the serving
# bench —
# boots the frontend over a 2-worker shared-memory pool, drives
# mixed-tenant load in-process (3 job kinds, all 7 semirings), and
# asserts coalescing (rate > 0), bit-identity of every batched result to
# serial ground truth, zero warm-run misses off the digest-prefix shard
# store, and bounded-queue rejection.  Emits
# benchmarks/results/BENCH_serving.json (CI uploads it as an artifact).
serve-smoke:
	pytest tests/test_serve.py tests/test_schedule_cache_store.py tests/test_store_fuzz.py -q
	REPRO_BENCH_SMOKE=1 REPRO_SERVE_WORKERS=2 \
		pytest benchmarks/bench_serving.py --benchmark-only

# Compiled-replay-plan smoke: the plan test suite (batched-kernel parity,
# bit-identity of tensor-batched replay to per-job execution across every
# semiring and job kind, honest fallbacks under faults/certification, plan
# store round trips), the value-path equivalence matrix (default,
# per-message, strict and replayed Lemma 3.1 runs byte-identical), then the
# serving bench whose hard gates include zero-dispatch plan replay strictly
# faster than the warm per-job baseline.
# Emits benchmarks/results/BENCH_serving.json (CI uploads it as an artifact).
plan-smoke:
	pytest tests/test_plan.py tests/test_value_paths.py -q
	REPRO_BENCH_SMOKE=1 REPRO_SERVE_WORKERS=2 \
		pytest benchmarks/bench_serving.py --benchmark-only

# Real-wire transport smoke: the delivery-core golden (its wire cells run
# the same phases over an in-process echo transport), the transport test
# suite (framing, config resolution, bit-identity of custom wires, TCP
# kill/pause drills), then
# the transport bench — Table 1 workloads over a multi-process loopback
# TCP mesh must be bit-identical (values digest, rounds, messages,
# per-phase bills) to the in-process reference, a SIGKILLed host
# mid-round must recover in-budget or abort typed with a salvaged bill,
# and a SIGSTOPped host must be caught by heartbeat staleness.  Emits
# benchmarks/results/BENCH_transport.json (CI uploads it as an artifact).
transport-smoke:
	pytest tests/test_delivery_core.py -q
	pytest tests/test_transport.py -q
	REPRO_BENCH_SMOKE=1 \
		pytest benchmarks/bench_transport.py --benchmark-only

examples:
	for f in examples/*.py; do echo "== $$f"; python $$f || exit 1; done

selfcheck:
	python -m repro selfcheck

docs:
	python tools/gen_api_docs.py

all: test bench
