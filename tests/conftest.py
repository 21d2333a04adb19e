"""Shared helpers for the test suite."""

import tracemalloc

import numpy as np
from hypothesis import strategies as st

from fracgcl.graphs import (
    build_graph,
    eigendecompose,
    laplacian_rows,
    normalized_laplacian,
)

from oracles import component_count, dense_adjacency


@st.composite
def integer_edge_lists(draw):
    """Valid (n, edges) with duplicates, self-loops, zero weights and, often,
    isolated nodes; integer degrees are exact in any summation order."""
    n = draw(st.integers(1, 7))
    node = st.integers(0, n - 1)
    weight = st.sampled_from([0.0, 1.0, 2.0, 3.0])
    return n, draw(st.lists(st.tuples(node, node, weight), max_size=30))


def cycle_graph(n):
    return build_graph(n, [(i, (i + 1) % n, 1.0) for i in range(n)])


def operator_of(g, form):
    """The filter operator of g's Laplacian: its eigenbasis ("basis") or its
    edge rows ("rows")."""
    if form == "rows":
        return laplacian_rows(g)
    assert form == "basis", form
    return eigendecompose(normalized_laplacian(g))


def random_connected_graph(n, p, seed):
    """Seeded Erdos-Renyi graph, resampled until connected."""
    rng = np.random.default_rng(seed)
    for _ in range(200):
        edges = [
            (i, j, 1.0) for i in range(n) for j in range(i + 1, n) if rng.random() < p
        ]
        g = build_graph(n, edges)
        if component_count(dense_adjacency(g)) == 1:
            return g
    raise RuntimeError("could not draw a connected graph; raise p")


def sbm_connected_graph(n, n_blocks, p_in, p_out, seed):
    """Two-parameter stochastic block model, resampled until connected.

    Independent of the production generator on purpose: tests that compare
    behaviour across block structure should not share its code path.
    """
    rng = np.random.default_rng(seed)
    size = n // n_blocks
    for _ in range(200):
        edges = []
        for i in range(n):
            for j in range(i + 1, n):
                p = p_in if i // size == j // size else p_out
                if rng.random() < p:
                    edges.append((i, j, 1.0))
        g = build_graph(n, edges)
        if component_count(dense_adjacency(g)) == 1:
            return g
    raise RuntimeError("could not draw a connected SBM; raise p_in/p_out")


def traced_peak(fn):
    """(fn(), peak bytes that tracemalloc saw allocated above the start)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
