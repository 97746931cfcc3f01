"""Performance bench — the generic topology kernels vs the specialized path.

Guards the tentpole refactor's "generality is free for the paper" claim:

* ``test_dual_hub_fast_path_overhead`` is the CI perf smoke — running the
  dual-hub grid *through the generic API* must stay within 1.3x of the
  specialized ``simulate_grid`` it dispatches to (the fast-path hooks mean
  the only extra work is dispatch itself).
* ``test_generic_bfs_grid_throughput`` records what the assumption-free
  path costs: the same graph rebuilt as ``khub(hubs=2)`` has no attached
  kernels, so every threshold goes through the batched matmul BFS binary
  search.  No assertion on the ratio — the snapshot documents it and the
  bench-gate diff catches regressions.
* ``test_exhaustive_oracle_throughput`` — the exact-enumeration oracle
  (failure sets batched through the matmul BFS) against the pure-Python
  reference BFS it replaced: identical counts at every ``f``, and at
  least 5x the reference's sets per second.

The committed ``BENCH_bench_topology_kernel.json`` holds the
full-profile numbers; ``TOPOLOGY_BENCH_ITERATIONS`` shrinks the workload
for the quick CI profile.
"""

import os
from itertools import combinations
from math import comb
from time import perf_counter

import numpy as np

from repro.analysis import (
    enumerate_topology_success,
    simulate_grid,
    simulate_topology_grid,
    topology_connected_vec,
)
from repro.topology import build_topology, dual_hub_cluster, fat_tree_three_level, k_hub_cluster

N = 63
F_GRID = (2, 3, 4, 5, 6)
ITERATIONS = int(os.environ.get("TOPOLOGY_BENCH_ITERATIONS", "500000"))


def test_dual_hub_fast_path_overhead(benchmark):
    """CI perf smoke: generic dispatch must cost < 30% over the raw kernel."""
    topology = dual_hub_cluster(N)

    started = perf_counter()
    specialized = simulate_grid(N, F_GRID, ITERATIONS, rng=np.random.default_rng(0))
    specialized_s = perf_counter() - started

    generic = benchmark.pedantic(
        lambda: simulate_topology_grid(topology, F_GRID, ITERATIONS, rng=np.random.default_rng(0)),
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
    generic_s = benchmark.stats.stats.total

    assert generic == specialized  # same draws through either API, exactly
    ratio = generic_s / specialized_s
    benchmark.extra_info["specialized_seconds"] = round(specialized_s, 4)
    benchmark.extra_info["ratio_vs_specialized"] = round(ratio, 3)
    assert ratio <= 1.3, (
        f"dual-hub fast path ({generic_s:.2f}s) exceeds 1.3x the specialized "
        f"kernel ({specialized_s:.2f}s) at {ITERATIONS} iterations"
    )


def test_generic_bfs_grid_throughput(benchmark):
    """The assumption-free path: same graph, no fast-path hooks attached."""
    topology = k_hub_cluster(N, hubs=2)  # the dual-hub graph, generic kernels
    iterations = max(ITERATIONS // 10, 10_000)
    estimates = benchmark.pedantic(
        lambda: simulate_topology_grid(topology, F_GRID, iterations, rng=np.random.default_rng(0)),
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
    benchmark.extra_info["iterations"] = iterations
    values = [estimates[f] for f in F_GRID]
    assert all(a >= b for a, b in zip(values, values[1:]))  # CRN monotone in f


def test_batched_bfs_predicate_throughput(benchmark):
    """The matmul-BFS predicate stays vectorized on a deep (3-level) graph."""
    topology = fat_tree_three_level(64, pods=4, leaves_per_pod=4, aggs_per_pod=4, cores=4)
    rng = np.random.default_rng(3)
    failed = rng.random((50_000, topology.width)) < 0.1
    ok = benchmark(lambda: topology_connected_vec(topology, failed))
    assert ok.shape == (50_000,)
    assert 0 < ok.sum() < 50_000


def test_exhaustive_oracle_throughput(benchmark):
    """Batched enumeration vs the per-subset reference BFS: same counts, >= 5x."""
    topology = build_topology("khub:hubs=3,nics=2", size=6)
    fs = range(topology.width + 1)
    sets = sum(comb(topology.width, f) for f in fs)

    reference_s = float("inf")
    for _ in range(3):  # best of three, like the benchmarked side
        started = perf_counter()
        reference = [
            sum(topology.connected(s) for s in combinations(range(topology.width), f)) for f in fs
        ]
        reference_s = min(reference_s, perf_counter() - started)

    batched = benchmark.pedantic(
        lambda: [enumerate_topology_success(topology, f) for f in fs],
        rounds=3,
        iterations=1,
        warmup_rounds=1,
    )
    batched_s = benchmark.stats.stats.min

    assert batched == [good / comb(topology.width, f) for f, good in zip(fs, reference)]
    ratio = reference_s / batched_s
    benchmark.extra_info["sets"] = sets
    benchmark.extra_info["sets_per_s"] = round(sets / batched_s)
    benchmark.extra_info["reference_seconds"] = round(reference_s, 4)
    benchmark.extra_info["ratio_vs_reference"] = round(ratio, 2)
    assert ratio >= 5.0, (
        f"batched oracle ({batched_s:.3f}s) is under 5x the reference BFS "
        f"({reference_s:.3f}s) over {sets} failure sets"
    )
