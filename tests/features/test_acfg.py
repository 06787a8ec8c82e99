"""Tests for the ACFG abstraction."""

import numpy as np
import pytest

from repro.cfg.builder import build_cfg_from_text
from repro.cfg.serialization import acfg_from_text
from repro.exceptions import FeatureExtractionError
from repro.features.acfg import ACFG

from tests.cfg.test_graph import diamond
from tests.conftest import SAMPLE_ASM


def simple_acfg():
    attributes = np.array([[1.0, 2.0], [3.0, 4.0]])
    return ACFG(edges=[(0, 1)], attributes=attributes, label=0, name="t")


class TestConstruction:
    def test_shapes_validated(self):
        with pytest.raises(FeatureExtractionError):
            ACFG(edges=np.zeros((2, 3), dtype=np.int64), attributes=np.zeros((2, 2)))
        with pytest.raises(FeatureExtractionError):
            ACFG(edges=[], attributes=np.zeros(3))

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(FeatureExtractionError):
            ACFG(edges=[(0, 2)], attributes=np.zeros((2, 2)))
        with pytest.raises(FeatureExtractionError):
            ACFG(edges=[(-1, 0)], attributes=np.zeros((2, 2)))

    def test_empty_graph_rejected(self):
        with pytest.raises(FeatureExtractionError):
            ACFG(edges=[], attributes=np.zeros((0, 2)))

    def test_non_finite_attributes_rejected(self):
        bad = np.array([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(FeatureExtractionError):
            ACFG(edges=[], attributes=bad)

    def test_non_finite_adjacency_rejected(self):
        """Edge endpoints are vertex indices: float (even inf) is refused."""
        bad = np.array([[0.0, np.inf]])
        with pytest.raises(FeatureExtractionError):
            ACFG(edges=bad, attributes=np.ones((2, 2)))

    def test_edges_canonicalized(self):
        acfg = ACFG(
            edges=np.array([[2, 0], [0, 1], [2, 0], [0, 0]], dtype=np.int32),
            attributes=np.ones((3, 1)),
        )
        assert acfg.edges.dtype == np.int64
        np.testing.assert_array_equal(acfg.edges, [[0, 0], [0, 1], [2, 0]])

    def test_properties(self):
        acfg = simple_acfg()
        assert acfg.num_vertices == 2
        assert acfg.num_attributes == 2
        assert acfg.num_edges == 1

    def test_out_degrees_count_self_loop_once(self):
        acfg = ACFG(edges=[(0, 0), (0, 1), (1, 0)], attributes=np.ones((3, 1)))
        np.testing.assert_array_equal(acfg.out_degrees(), [2, 1, 0])

    def test_from_cfg_matches_graph(self):
        cfg = build_cfg_from_text(SAMPLE_ASM, name="sample")
        acfg = ACFG.from_cfg(cfg, label=3)
        assert acfg.num_vertices == cfg.num_vertices
        assert acfg.label == 3
        assert acfg.name == "sample"
        np.testing.assert_array_equal(acfg.edges, cfg.edge_index())


class TestPropagationOperator:
    def test_augmented_adjacency_adds_self_loops(self):
        acfg = simple_acfg()
        np.testing.assert_array_equal(
            acfg.propagation_operator(normalized=False).toarray(),
            np.array([[1, 1], [0, 1]], dtype=float),
        )

    def test_augmented_adds_identity(self):
        graph, _ = diamond()
        acfg = ACFG(edges=graph.edge_index(), attributes=np.ones((4, 1)))
        adjacency = np.zeros((4, 4))
        adjacency[0, 1] = adjacency[0, 2] = adjacency[1, 3] = adjacency[2, 3] = 1
        np.testing.assert_array_equal(
            acfg.propagation_operator(normalized=False).toarray(),
            adjacency + np.eye(4),
        )

    def test_degree_matrix_row_sums(self):
        """``D̂[i, i]`` is the row sum of ``Â``: out-degree plus one."""
        graph, _ = diamond()
        acfg = ACFG(edges=graph.edge_index(), attributes=np.ones((4, 1)))
        augmented = acfg.propagation_operator(normalized=False).toarray()
        np.testing.assert_array_equal(
            augmented.sum(axis=1), acfg.out_degrees() + 1.0
        )
        np.testing.assert_array_equal(acfg.out_degrees(), [2, 1, 1, 0])

    def test_equation_one_bit_exact(self):
        """The CSR operator is exactly ``(A + I) / rowsum``, densely computed.

        The record has a self-loop on vertex 1 and repeats the edge
        ``0 -> 2``; the expected matrix is written by hand, not derived
        from the ACFG.
        """
        record = "3 1\n1.0\n2.0\n3.0\n0 2\n1 1\n0 2\n1 0\n2 1\n"
        edges, attributes, _ = acfg_from_text(record)
        acfg = ACFG(edges=edges, attributes=attributes)
        adjacency = np.array([
            [0.0, 0.0, 1.0],
            [1.0, 1.0, 0.0],
            [0.0, 1.0, 0.0],
        ])
        augmented = adjacency + np.eye(3)
        expected = augmented / augmented.sum(axis=1, keepdims=True)
        actual = acfg.propagation_operator().toarray()
        assert actual.tobytes() == expected.tobytes()
        raw = acfg.propagation_operator(normalized=False).toarray()
        assert raw.tobytes() == augmented.tobytes()

    def test_rows_sum_to_one(self):
        """D̂^-1 Â is a row-stochastic matrix by construction."""
        cfg = build_cfg_from_text(SAMPLE_ASM)
        acfg = ACFG.from_cfg(cfg)
        propagation = acfg.propagation_operator().toarray()
        np.testing.assert_allclose(propagation.sum(axis=1), np.ones(acfg.num_vertices))

    def test_matches_explicit_formula(self):
        acfg = simple_acfg()
        augmented = acfg.propagation_operator(normalized=False).toarray()
        degree_inverse = np.diag(1.0 / augmented.sum(axis=1))
        np.testing.assert_allclose(
            acfg.propagation_operator().toarray(), degree_inverse @ augmented
        )

    def test_cached(self):
        acfg = simple_acfg()
        assert acfg.propagation_operator() is acfg.propagation_operator()

    def test_isolated_vertex_still_normalizable(self):
        # A graph with no edges at all: self-loops make D̂ invertible.
        acfg = ACFG(edges=[], attributes=np.ones((3, 2)))
        np.testing.assert_allclose(acfg.propagation_operator().toarray(), np.eye(3))
