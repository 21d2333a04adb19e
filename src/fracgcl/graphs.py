"""Graph construction, normalized Laplacian, spectral transforms, perturbation.

All graphs are undirected with nonnegative edge weights, stored densely.
The Laplacian uses symmetric normalization, which keeps the eigenbasis
orthonormal; isolated nodes get an identity row by convention (their signals
never diffuse).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Graph",
    "SpectralBasis",
    "build_graph",
    "normalized_laplacian",
    "eigendecompose",
    "gft",
    "igft",
    "perturb_graph",
    "n_components",
]

_SYM_TOL = 1e-10


@dataclass(frozen=True)
class Graph:
    """Undirected weighted graph with a dense symmetric adjacency matrix."""

    n_nodes: int  # node count, indices 0..n_nodes-1
    edges: tuple  # canonical (src, dst, weight) triples with src <= dst
    adjacency: np.ndarray  # symmetric nonnegative (n, n) matrix

    def degrees(self) -> np.ndarray:
        """Weighted degree of every node (row sums of the adjacency)."""
        return np.asarray(self.adjacency.sum(axis=1))


@dataclass(frozen=True)
class SpectralBasis:
    """Eigendecomposition of a normalized Laplacian.

    Eigenvalues are sorted ascending and column i of `eigenvectors` pairs
    with `eigenvalues[i]`.
    """

    eigenvalues: np.ndarray  # ascending, in [0, 2]
    eigenvectors: np.ndarray  # orthonormal columns

    @property
    def n(self) -> int:
        return len(self.eigenvalues)


def _edge_triples(adj: np.ndarray) -> tuple:
    """Canonical (src, dst, weight) triples of the upper triangle, row-major."""
    rows, cols = np.nonzero(np.triu(adj > 0.0))
    ids = list(range(adj.shape[0]))  # one int per node, shared by its edges
    return tuple((ids[i], ids[j], w) for i, j, w in zip(rows, cols, adj[rows, cols]))


def build_graph(n: int, edge_list) -> Graph:
    """Assemble a graph from a directed edge list.

    Duplicate (src, dst) entries collapse with the last occurrence winning;
    the adjacency is then symmetrized by taking the maximum of the two
    directions.

    Args:
        n: number of nodes.
        edge_list: iterable of (src, dst, weight) with 0 <= src, dst < n
            and weight >= 0.

    Returns:
        Graph with a symmetric adjacency matrix.
    """
    if n < 0:
        raise ValueError("node count must be nonnegative")
    directed: dict[tuple[int, int], float] = {}
    for k, (src, dst, w) in enumerate(edge_list):
        src, dst, w = int(src), int(dst), float(w)
        if not (0 <= src < n and 0 <= dst < n):
            raise ValueError(f"edge {k}: index ({src}, {dst}) out of range for n={n}")
        if w < 0.0 or not math.isfinite(w):
            raise ValueError(f"edge {k}: weight must be finite and >= 0, got {w}")
        directed[(src, dst)] = w  # last wins
    adj = np.zeros((n, n))
    for (src, dst), w in directed.items():
        adj[src, dst] = w
    adj = np.maximum(adj, adj.T)
    return Graph(n_nodes=n, edges=_edge_triples(adj), adjacency=adj)


def normalized_laplacian(g: Graph) -> np.ndarray:
    """Symmetrically normalized Laplacian I - D^(-1/2) A D^(-1/2).

    Rows and columns of degree-zero nodes reduce to the identity row.
    """
    deg = g.degrees()
    inv_sqrt = np.zeros_like(deg)
    nz = deg > 0.0
    inv_sqrt[nz] = 1.0 / np.sqrt(deg[nz])
    lap = -inv_sqrt[:, None] * g.adjacency * inv_sqrt[None, :]
    np.fill_diagonal(lap, np.where(nz, 1.0 + lap.diagonal(), 1.0))
    # self-loop weights appear in both A and D, so the diagonal needs the
    # combined term; enforce exact symmetry against rounding
    return (lap + lap.T) / 2.0


def eigendecompose(laplacian: np.ndarray) -> SpectralBasis:
    """Full eigendecomposition with a deterministic sign convention.

    Args:
        laplacian: symmetric positive semidefinite matrix.

    Returns:
        SpectralBasis with ascending eigenvalues; each eigenvector is flipped
        so that its largest-magnitude entry is positive (ties broken by the
        lowest index).
    """
    lap = np.asarray(laplacian, dtype=float)
    if lap.ndim != 2 or lap.shape[0] != lap.shape[1]:
        raise ValueError("laplacian must be a square matrix")
    if not np.allclose(lap, lap.T, atol=_SYM_TOL, rtol=0.0):
        raise ValueError("laplacian must be symmetric")
    vals, vecs = np.linalg.eigh(lap)
    vals = np.where(np.abs(vals) < 1e-12, 0.0, vals)  # scrub eigh noise at zero
    for i in range(vecs.shape[1]):
        col = vecs[:, i]
        lead = int(np.argmax(np.abs(col)))  # argmax takes the lowest tied index
        if col[lead] < 0.0:
            vecs[:, i] = -col
    return SpectralBasis(eigenvalues=vals, eigenvectors=vecs)


def gft(basis: SpectralBasis, x: np.ndarray) -> np.ndarray:
    """Graph Fourier transform: coefficients c_i = <x, u_i>."""
    x = np.asarray(x, dtype=float)
    if x.shape[0] != basis.n:
        raise ValueError(f"signal length {x.shape[0]} != basis size {basis.n}")
    return basis.eigenvectors.T @ x


def igft(basis: SpectralBasis, c: np.ndarray) -> np.ndarray:
    """Inverse graph Fourier transform."""
    c = np.asarray(c, dtype=float)
    if c.shape[0] != basis.n:
        raise ValueError(f"coefficient length {c.shape[0]} != basis size {basis.n}")
    return basis.eigenvectors @ c


def n_components(g: Graph) -> int:
    """Connected-component count by breadth-first search."""
    seen = np.zeros(g.n_nodes, dtype=bool)
    count = 0
    for root in range(g.n_nodes):
        if seen[root]:
            continue
        count += 1
        seen[root] = True
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v in np.flatnonzero(g.adjacency[u] > 0.0):
                if not seen[v]:
                    seen[v] = True
                    queue.append(int(v))
    return count


def perturb_graph(g: Graph, ratio: float, mode: str, seed: int) -> Graph:
    """Random structural perturbation, deterministic per seed.

    Modes:
        add: insert floor(ratio * |E|) unit-weight edges among previously
            non-adjacent pairs.
        remove: delete floor(ratio * |E|) existing edges.
        both: remove then add, both counts taken from the original edge set.

    Args:
        g: input graph.
        ratio: fraction of the current edge count to touch, in [0, 1].
        mode: "add", "remove" or "both".
        seed: RNG seed.

    Returns:
        New Graph; the input is never mutated.
    """
    if not (0.0 <= ratio <= 1.0):
        raise ValueError(f"ratio must lie in [0, 1], got {ratio}")
    if mode not in ("add", "remove", "both"):
        raise ValueError(f"unknown perturbation mode {mode!r}")
    if mode in ("remove", "both") and len(g.edges) == 0:
        raise ValueError("cannot remove edges from an empty graph")
    rng = np.random.default_rng(seed)
    n_touch = int(ratio * len(g.edges))
    adj = g.adjacency.copy()

    if mode in ("remove", "both") and n_touch > 0:
        existing = [(i, j) for (i, j, _) in g.edges]
        picks = rng.choice(len(existing), size=n_touch, replace=False)
        for k in picks:
            i, j = existing[k]
            adj[i, j] = 0.0
            adj[j, i] = 0.0

    if mode in ("add", "both") and n_touch > 0:
        n = g.n_nodes
        tri = np.triu_indices(n, k=1)
        free = np.flatnonzero(adj[tri] == 0.0)
        if n_touch > len(free):
            raise ValueError(
                f"requested {n_touch} additions but only {len(free)} non-edges exist"
            )
        picks = rng.choice(len(free), size=n_touch, replace=False)
        for k in free[picks]:
            i, j = tri[0][k], tri[1][k]
            adj[i, j] = 1.0
            adj[j, i] = 1.0

    return Graph(n_nodes=g.n_nodes, edges=_edge_triples(adj), adjacency=adj)
