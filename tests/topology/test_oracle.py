"""Exhaustive and statistical oracles for the generic topology kernels.

Three layers of evidence that the generic machinery computes the same
quantity as the specialized dual-hub kernels and as Equation 1:

* exhaustive — every failure subset at n in {2, 3}: pure-Python
  reachability == batched matmul BFS == ``pair_connected_vec``;
* algebraic — breakdown thresholds from the generic binary search match
  the hand-derived ``connectivity_levels``, and the dual-hub fast path
  makes the generic grid replay the specialized grid byte for byte;
* statistical — the generic Monte Carlo estimator agrees with Equation 1
  within a Wilson 99.9% interval on the paper's grid.

The batched exhaustive oracle is itself pinned to the pure-Python
reference BFS, subset by subset, for every catalog family and predicate.
"""

from dataclasses import dataclass, replace
from itertools import combinations
from math import comb

import numpy as np
import pytest

import repro.analysis.topokernel as topokernel
from repro.analysis import (
    connectivity_levels,
    enumerate_topology_success,
    exact_topology_success,
    simulate_topology_grid,
    simulate_topology_success,
    success_probability,
    topology_connected_vec,
    topology_connectivity_levels,
)
from repro.analysis.montecarlo import pair_connected_vec
from repro.analysis.stats import wilson_interval
from repro.topology import (
    TOPOLOGY_FAMILIES,
    AllTerminalsConnected,
    ConnectivityPredicate,
    PairConnected,
    TerminalQuorum,
    Topology,
    build_topology,
    dual_hub_cluster,
    k_hub_cluster,
    reachable_from,
)


def strip_fast_paths(topology):
    """The same topology with specialized kernels detached.

    Forces every call through the generic batched-BFS / binary-search
    path — the thing these oracles are actually probing.
    """
    return replace(topology, connected_fn=None, levels_fn=None, exact_fn=None)


def _all_failure_matrices(width: int, f: int) -> np.ndarray:
    """Every size-``f`` failure subset of ``width`` sites, one per row."""
    subsets = list(combinations(range(width), f))
    failed = np.zeros((len(subsets), width), dtype=bool)
    for row, subset in enumerate(subsets):
        failed[row, list(subset)] = True
    return failed


@pytest.mark.parametrize("n", [2, 3])
class TestExhaustiveEquivalence:
    """Generic BFS == specialized kernel == reference BFS, every subset."""

    def test_all_three_predicates_agree_on_every_failure_set(self, n):
        topology = dual_hub_cluster(n)
        generic = strip_fast_paths(topology)
        width = topology.width
        for f in range(width + 1):
            failed = _all_failure_matrices(width, f)
            via_bfs = topology_connected_vec(generic, failed)
            via_specialized = pair_connected_vec(failed)
            via_reference = np.array(
                [topology.connected(np.flatnonzero(row)) for row in failed]
            )
            np.testing.assert_array_equal(via_bfs, via_specialized)
            np.testing.assert_array_equal(via_bfs, via_reference)

    def test_fast_path_dispatch_matches_generic_bfs(self, n):
        topology = dual_hub_cluster(n)
        failed = _all_failure_matrices(topology.width, 3)
        np.testing.assert_array_equal(
            topology_connected_vec(topology, failed),
            topology_connected_vec(strip_fast_paths(topology), failed),
        )

    def test_enumeration_matches_equation1_at_every_f(self, n):
        topology = strip_fast_paths(dual_hub_cluster(n))
        for f in range(topology.width + 1):
            assert enumerate_topology_success(topology, f) == pytest.approx(
                success_probability(n, f), abs=1e-12
            )

    def test_exact_dispatch_uses_the_closed_form(self, n):
        topology = dual_hub_cluster(n)
        for f in range(topology.width + 1):
            assert exact_topology_success(topology, f) == success_probability(n, f)


class TestLevelsEquivalence:
    def test_binary_search_matches_hand_derived_thresholds(self):
        topology = strip_fast_paths(dual_hub_cluster(6))
        keys = np.random.default_rng(7).random((4000, topology.width))
        np.testing.assert_array_equal(
            topology_connectivity_levels(topology, keys),
            connectivity_levels(keys),
        )

    def test_levels_encode_the_breakdown_threshold(self):
        # level >= f  iff  the f smallest keys leave the pair connected
        topology = strip_fast_paths(k_hub_cluster(3, hubs=3))
        rng = np.random.default_rng(11)
        keys = rng.random((500, topology.width))
        levels = topology_connectivity_levels(topology, keys)
        ranks = np.argsort(np.argsort(keys, axis=1), axis=1)
        for f in range(topology.width + 1):
            np.testing.assert_array_equal(
                levels >= f, topology_connected_vec(topology, ranks < f)
            )

    def test_dual_hub_grid_is_byte_identical_to_specialized_sweep(self):
        from repro.analysis import simulate_grid

        fs = (1, 2, 3, 4, 5)
        specialized = simulate_grid(8, fs, 20_000, np.random.default_rng(42))
        generic = simulate_topology_grid(
            dual_hub_cluster(8), fs, 20_000, np.random.default_rng(42)
        )
        assert specialized == generic  # same draws, same thresholds, exactly

    def test_generic_path_grid_agrees_statistically(self):
        # no fast path: same estimator, independent verification of the BFS
        fs = (2, 3, 4)
        cells = simulate_topology_grid(
            strip_fast_paths(dual_hub_cluster(6)),
            fs,
            40_000,
            np.random.default_rng(5),
            precision=True,
        )
        for f in fs:
            interval = wilson_interval(cells[f].successes, cells[f].trials, 0.999)
            assert interval.low <= success_probability(6, f) <= interval.high


class TestWilsonAgreementOnPaperGrid:
    """Generic MC vs Equation 1 on the Figure 2 grid, at 99.9% confidence.

    With 9 cells a false failure has probability ~0.9% even if every
    kernel is correct-by-construction; the fixed seeds pin the outcome.
    """

    GRID = [(n, f) for n in (4, 8, 16) for f in (2, 3, 4)]

    @pytest.mark.parametrize("n,f", GRID)
    def test_generic_estimate_covers_equation1(self, n, f):
        topology = strip_fast_paths(dual_hub_cluster(n))
        trials = 60_000
        p_hat = simulate_topology_success(topology, f, trials, seed=900 + 10 * n + f)
        interval = wilson_interval(round(p_hat * trials), trials, 0.999)
        assert interval.low <= success_probability(n, f) <= interval.high


class TestSharedValidation:
    """Satellite: the f-range contract is one ValueError across all layers."""

    def test_equation1_names_the_component_count(self):
        with pytest.raises(ValueError, match="10 failable components, got 11"):
            success_probability(4, 11)
        with pytest.raises(ValueError, match="f must be in"):
            success_probability(4, -1)

    def test_generic_kernels_share_the_contract(self):
        topology = dual_hub_cluster(4)  # width 10, same universe as N=4
        for call in (
            lambda: simulate_topology_success(topology, 11, 100, seed=1),
            lambda: simulate_topology_grid(topology, (2, 11), 100, seed=1),
            lambda: enumerate_topology_success(topology, 11),
            lambda: exact_topology_success(topology, 11),
        ):
            with pytest.raises(ValueError, match="10 failable components, got 11"):
                call()

    def test_dead_at_zero_failures_is_rejected_not_estimated(self):
        from repro.topology import PairConnected, Topology

        # two isolated vertices: the pair predicate fails before any failure
        dead = Topology(
            "split", "test", ("node", "node", "nic"), (), (2,), (0, 1),
            predicate=PairConnected(0, 1),
        )
        with pytest.raises(ValueError, match="zero failures"):
            simulate_topology_grid(dead, (1,), 100, seed=1)
        with pytest.raises(ValueError, match="zero failures"):
            simulate_topology_success(dead, 1, 100, seed=1)


# ------------------------------------------------------- batched enumeration
#: one small instance per catalog family (multicluster trimmed to two
#: clusters so every f stays cheap for the reference loop)
SMALL_CATALOG = {
    "dual-hub": {"size": 2},
    "khub": {"size": 2},
    "fattree2": {"size": 2},
    "fattree3": {"size": 2},
    "multicluster": {"size": 2, "clusters": 2},
}


def _small(family):
    params = dict(SMALL_CATALOG[family])
    return strip_fast_paths(TOPOLOGY_FAMILIES[family](**params))


def _reference_good(topology, f, predicate=None):
    """Surviving subsets counted one pure-Python BFS at a time."""
    return sum(
        topology.connected(subset, predicate)
        for subset in combinations(range(topology.width), f)
    )


@dataclass(frozen=True)
class TerminalReachesAPeer(ConnectivityPredicate):
    """Custom predicate: terminal 0 still reaches at least one other terminal.

    Its ``kind`` is none of the shipped ones, so the batched kernel has to
    take the row-wise reference fallback.
    """

    kind = "reaches-a-peer"

    def holds(self, topology, failed):
        failed = frozenset(failed)
        first = topology.terminals[0]
        reached = reachable_from(topology.adjacency_sets(), lambda v: v not in failed, first)
        return any(t in reached for t in topology.terminals[1:])


class TestBatchedEnumeration:
    """The batched oracle counts exactly what the reference BFS counts."""

    def test_catalog_covers_every_family(self):
        assert set(SMALL_CATALOG) == set(TOPOLOGY_FAMILIES)

    @pytest.mark.parametrize("family", sorted(SMALL_CATALOG))
    def test_count_matches_reference_at_every_f(self, family):
        topology = _small(family)
        for f in range(topology.width + 1):
            total = comb(topology.width, f)
            expected = _reference_good(topology, f) / total
            assert enumerate_topology_success(topology, f) == expected, (family, f)

    def test_counts_span_partial_and_multiple_batches(self):
        topology = _small("multicluster")  # width 14: C(14, 7) = 3432 subsets
        total = comb(topology.width, 7)
        assert total > topokernel.ENUMERATION_BATCH
        assert total % topokernel.ENUMERATION_BATCH != 0
        assert enumerate_topology_success(topology, 7) == _reference_good(topology, 7) / total

    @pytest.mark.parametrize(
        "predicate",
        [PairConnected(0, 1), AllTerminalsConnected(), TerminalQuorum(0.5), TerminalReachesAPeer()],
        ids=lambda p: p.describe(),
    )
    def test_every_predicate_kind_matches_reference(self, predicate):
        topology = strip_fast_paths(k_hub_cluster(3, hubs=2))
        for f in range(topology.width + 1):
            total = comb(topology.width, f)
            expected = _reference_good(topology, f, predicate) / total
            assert enumerate_topology_success(topology, f, predicate) == expected, f

    def test_no_batch_exceeds_the_batch_constant(self, monkeypatch):
        rows = []
        real = topokernel.topology_connected_vec

        def spy(topology, failed, predicate=None):
            rows.append(failed.shape[0])
            return real(topology, failed, predicate)

        monkeypatch.setattr(topokernel, "topology_connected_vec", spy)
        topology = _small("multicluster")
        enumerate_topology_success(topology, 7)
        assert max(rows) <= topokernel.ENUMERATION_BATCH
        assert sum(rows) == comb(topology.width, 7)

    def test_reference_bfs_is_not_called_per_subset(self, monkeypatch):
        calls = []
        real = Topology.connected

        def spy(self, failed, predicate=None):
            calls.append(failed)
            return real(self, failed, predicate)

        monkeypatch.setattr(Topology, "connected", spy)
        enumerate_topology_success(_small("khub"), 4)
        assert calls == []

    def test_size_guard_fires_before_the_first_batch(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            topokernel, "topology_connected_vec", lambda *args, **kwargs: calls.append(args)
        )
        topology = build_topology("khub:hubs=3", size=8)
        with pytest.raises(ValueError, match="exceeds max_combinations=100"):
            enumerate_topology_success(topology, 5, max_combinations=100)
        assert calls == []

    def test_weighted_topologies_are_refused(self):
        weighted = replace(k_hub_cluster(3, hubs=2), weights=(20.0,) + (1.0,) * 7)
        with pytest.raises(ValueError, match="requires uniform failure weights"):
            enumerate_topology_success(weighted, 2)
        with pytest.raises(ValueError, match="declares per-site weights"):
            exact_topology_success(weighted, 2)
        # the dual-hub closed form is a uniform-failure answer too
        dual = replace(dual_hub_cluster(3), weights=(3.0,) + (1.0,) * 7)
        with pytest.raises(ValueError, match="requires uniform failure weights"):
            exact_topology_success(dual, 2)


class TestAdjacencyViews:
    def test_views_are_built_once_per_instance(self):
        topology = k_hub_cluster(4, hubs=3)
        assert topology.adjacency_sets() is topology.adjacency_sets()
        assert topology.adjacency_matrix() is topology.adjacency_matrix()

    def test_cached_matrix_is_read_only(self):
        adj = k_hub_cluster(4, hubs=3).adjacency_matrix()
        assert not adj.flags.writeable
        with pytest.raises(ValueError):
            adj[0, 0] = 1

    def test_other_dtypes_are_converted_copies(self):
        topology = k_hub_cluster(4, hubs=3)
        as_int = topology.adjacency_matrix(dtype=np.int64)
        assert as_int.dtype == np.int64
        np.testing.assert_array_equal(as_int, topology.adjacency_matrix())

    def test_replace_starts_a_fresh_cache(self):
        topology = k_hub_cluster(3, hubs=2)
        first = topology.adjacency_matrix()
        trimmed = replace(topology, edges=topology.edges[1:])
        assert trimmed.adjacency_matrix().sum() == first.sum() - 2
