"""Tests for the simple structure generators and the SG contract."""

from __future__ import annotations

import numpy as np
import pytest

from repro.prng import RandomStream
from repro.stats import Categorical, Empirical
from repro.structure import (
    BarabasiAlbert,
    ConfigurationModel,
    ErdosRenyi,
    ErdosRenyiM,
    StructureGenerator,
    WattsStrogatz,
    pair_stubs,
    pair_stubs_with_repair,
)


class TestSgContract:
    def test_unknown_parameter_rejected(self):
        with pytest.raises(TypeError, match="unexpected parameter"):
            ErdosRenyi(seed=0, nonsense=1)

    def test_run_negative_rejected(self):
        with pytest.raises(ValueError):
            ErdosRenyiM(seed=0, m=5).run(-1)

    def test_get_num_nodes_inverts_edge_model(self):
        generator = ErdosRenyiM(seed=0, edges_per_node=8)
        n = generator.get_num_nodes(8_000)
        assert generator.expected_edges_for_nodes(n) >= 8_000
        assert generator.expected_edges_for_nodes(n - 1) < 8_000

    def test_get_num_nodes_zero(self):
        assert ErdosRenyiM(seed=0, m=0).get_num_nodes(0) == 0

    def test_base_generate_not_implemented(self):
        class Incomplete(StructureGenerator):
            name = "incomplete"

        with pytest.raises(NotImplementedError):
            Incomplete(seed=0).run(10)

    def test_determinism_same_seed(self):
        a = ErdosRenyiM(seed=5, m=200).run(100)
        b = ErdosRenyiM(seed=5, m=200).run(100)
        assert a == b

    def test_different_seeds_differ(self):
        a = ErdosRenyiM(seed=5, m=200).run(100)
        b = ErdosRenyiM(seed=6, m=200).run(100)
        assert a != b


class TestErdosRenyi:
    def test_edge_count_close_to_expectation(self):
        table = ErdosRenyi(seed=1, p=0.01).run(1000)
        expected = 1000 * 999 / 2 * 0.01
        assert abs(table.num_edges - expected) < 5 * np.sqrt(expected)

    def test_simple_graph(self):
        table = ErdosRenyi(seed=1, p=0.05).run(300)
        assert (table.tails != table.heads).all()
        keys = (np.minimum(table.tails, table.heads) * 300
                + np.maximum(table.tails, table.heads))
        assert np.unique(keys).size == len(table)

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            ErdosRenyi(seed=0, p=1.5)

    def test_gnm_exact_count(self):
        table = ErdosRenyiM(seed=2, m=500).run(200)
        assert table.num_edges == 500

    def test_gnm_cannot_exceed_complete(self):
        table = ErdosRenyiM(seed=2, m=10**9).run(30)
        assert table.num_edges == 30 * 29 // 2


class TestConfigurationModel:
    def test_pair_stubs_even_sum_required(self, stream):
        with pytest.raises(ValueError, match="even"):
            pair_stubs(np.array([1, 2]), stream)

    def test_pair_stubs_respects_degrees_loosely(self, stream):
        degrees = np.array([3, 3, 2, 2, 2])
        pairs = pair_stubs(degrees, stream, simplify=False)
        realised = np.bincount(pairs.ravel(), minlength=5)
        assert np.array_equal(realised, degrees)

    def test_pair_stubs_simplify_no_loops(self, stream):
        degrees = np.full(20, 6)
        pairs = pair_stubs(degrees, stream)
        assert (pairs[:, 0] != pairs[:, 1]).all()

    def test_repair_recovers_degree_mass(self, stream):
        # Dense community: plain erased pairing loses a lot; repair
        # rounds must recover most of it.
        degrees = np.full(30, 20)
        plain = pair_stubs(degrees, stream)
        repaired = pair_stubs_with_repair(
            degrees, stream.substream("r")
        )
        assert repaired.shape[0] > plain.shape[0]
        realised = np.bincount(repaired.ravel(), minlength=30)
        assert realised.mean() >= 0.85 * 20

    def test_repair_no_duplicate_edges(self, stream):
        degrees = np.full(25, 12)
        pairs = pair_stubs_with_repair(degrees, stream)
        keys = pairs[:, 0] * 25 + pairs[:, 1]
        assert np.unique(keys).size == pairs.shape[0]

    def test_segments_wire_like_separate_calls(self):
        """The segmented pass equals one pair_stubs_with_repair call per
        segment, shifted and concatenated in segment order -- including
        empty and one-node segments, odd sums and rounds that stop early
        in some segments while others go on."""
        from repro.structure.configuration import pair_stubs_segments

        rng = np.random.default_rng(5)
        sizes = [0, 1, 2, 5, 3, 40, 2, 9, 0, 25, 4]
        degrees = [
            rng.integers(0, max(size, 1), size=size) for size in sizes
        ]
        # Two-node segments: whether a round pairs nothing (all loops)
        # or nothing new depends on the seed, so some stop early.
        for _ in range(40):
            sizes.append(2)
            degrees.append(rng.integers(1, 4, size=2))
        degrees = np.concatenate(degrees).astype(np.int64)
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        seeds = rng.integers(0, 2**63, size=len(sizes)).astype(np.uint64)
        expected = [
            pair_stubs_with_repair(degrees[lo:hi], RandomStream(int(seed)))
            + lo
            for lo, hi, seed in zip(offsets[:-1], offsets[1:], seeds)
        ]
        got = pair_stubs_segments(degrees, offsets, seeds)
        assert np.array_equal(got, np.concatenate(expected, axis=0))

    def test_explicit_degrees(self):
        degrees = np.array([2, 2, 2, 2])
        table = ConfigurationModel(seed=3, degrees=degrees).run(4)
        assert table.num_nodes == 4
        assert (table.degrees() <= 3).all()

    def test_distribution_mode(self):
        dist = Categorical([0.0, 0.0, 1.0])  # everyone degree 2
        table = ConfigurationModel(seed=3, distribution=dist).run(500)
        realised = table.degrees()
        assert abs(realised.mean() - 2.0) < 0.2

    def test_wrong_length_degrees_raises(self):
        generator = ConfigurationModel(seed=0, degrees=[2, 2])
        with pytest.raises(ValueError, match="length"):
            generator.run(3)

    def test_expected_edges(self):
        generator = ConfigurationModel(seed=0, degrees=[3, 3, 2])
        assert generator.expected_edges_for_nodes(3) == 4


class TestBarabasiAlbert:
    def test_edge_count(self):
        table = BarabasiAlbert(seed=1, m=3).run(200)
        assert table.num_edges == 3 + (200 - 4) * 3

    def test_small_n_complete(self):
        table = BarabasiAlbert(seed=1, m=5).run(4)
        assert table.num_edges == 6

    def test_hub_formation(self):
        table = BarabasiAlbert(seed=2, m=2).run(1000)
        degrees = table.degrees()
        # Preferential attachment creates hubs well above the mean.
        assert degrees.max() > 5 * degrees.mean()

    def test_rejects_bad_m(self):
        with pytest.raises(ValueError):
            BarabasiAlbert(seed=0, m=0)


class TestWattsStrogatz:
    def test_ring_structure_no_rewiring(self):
        table = WattsStrogatz(seed=1, k=4, beta=0.0).run(50)
        degrees = table.degrees()
        assert (degrees == 4).all()

    def test_rewiring_perturbs(self):
        ring = WattsStrogatz(seed=1, k=4, beta=0.0).run(100)
        rewired = WattsStrogatz(seed=1, k=4, beta=0.5).run(100)
        assert ring != rewired

    def test_rejects_odd_k(self):
        with pytest.raises(ValueError, match="even"):
            WattsStrogatz(seed=0, k=3)

    def test_rejects_bad_beta(self):
        with pytest.raises(ValueError):
            WattsStrogatz(seed=0, k=4, beta=2.0)

    def test_high_clustering_low_beta(self):
        from repro.graphstats import average_clustering

        table = WattsStrogatz(seed=1, k=6, beta=0.05).run(200)
        assert average_clustering(table) > 0.3
