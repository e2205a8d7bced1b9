import os

import numpy as np
import pytest

from rlgl import matrix, models


def dense_ergodic_chain(n, seed, alpha=0.8):
    """Random chain with strictly positive rows (ergodic by construction)."""
    rng = np.random.default_rng(seed)
    rows = rng.dirichlet(np.full(n, alpha), size=n)
    rows = np.maximum(rows, 1e-9)
    rows /= rows.sum(axis=1, keepdims=True)
    edges = [(i, j, rows[i, j]) for i in range(n) for j in range(n)]
    return matrix.build_transition(edges, n)


def ring_random_chain(n, degree, seed):
    """A directed ring plus ``degree`` uniform out-arcs per node (irreducible)."""
    rng = np.random.default_rng(seed)
    nodes = np.arange(n)
    src = np.concatenate([nodes, np.repeat(nodes, degree)])
    dst = np.concatenate([(nodes + 1) % n, rng.integers(0, n, size=n * degree)])
    return matrix.build_transition(np.column_stack([src, dst]).astype(float), n)


# Clean, strongly connected draws of the 80-node block-model shape.
SBM80_SEEDS = (2, 3, 5, 6)


def sbm80_instance(seed=SBM80_SEEDS[0]):
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return models.random_sbm([40, 40], 0.1, 0.005, seed)


_CORPUS_CANDIDATES = (
    "data/harvard500.edges",
    "harvard500.edges",
)


def pagerank_graph_500():
    """The 500-node web crawl when present, else a seeded 500-node graph."""
    for path in _CORPUS_CANDIDATES:
        if os.path.exists(path):
            return models.parse_edge_file(path, one_based=True)
    return models.random_sbm([250, 250], 0.03, 0.004, seed=7)


@pytest.fixture
def four_state():
    return models.four_state_chain()
