"""Graph construction, normalized Laplacian, spectral transforms, perturbation.

All graphs are undirected with nonnegative edge weights, stored only as a
dense adjacency from which the edge list is derived.  The Laplacian uses
symmetric normalization, which keeps the eigenbasis orthonormal; isolated
nodes get an identity row by convention (their signals never diffuse).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

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
    """Undirected weighted graph, stored as its dense symmetric adjacency."""

    n_nodes: int  # node count, indices 0..n_nodes-1
    adjacency: np.ndarray  # symmetric nonnegative (n, n) matrix

    @property
    def edges(self) -> tuple:
        """Canonical (src, dst, weight) triples with src <= dst, row-major."""
        return tuple(zip(*(a.tolist() for a in _upper_triangle(self.adjacency))))

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


def _upper_triangle(adj: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows, columns and weights of the nonzero upper triangle, row-major."""
    rows, cols = np.nonzero(np.triu(adj > 0.0))
    return rows, cols, adj[rows, cols]


def _check_edges(n: int, src, dst, w, where) -> None:
    """Raise ValueError, prefixed by where(k), at the first invalid edge k."""
    outside = ~((src >= 0) & (src < n) & (dst >= 0) & (dst < n))
    bad = np.flatnonzero(outside | ~(np.isfinite(w) & (w >= 0.0)))
    if len(bad) == 0:
        return
    k = bad[0]
    if outside[k]:
        raise ValueError(
            f"{where(k)}: index ({src[k]:.17g}, {dst[k]:.17g}) exceeds node count {n}"
        )
    raise ValueError(f"{where(k)}: weight must be finite and >= 0, got {w[k]}")


def build_graph(n: int, edge_list) -> Graph:
    """Assemble a graph from a directed edge list.

    Duplicate (src, dst) entries collapse with the last occurrence winning;
    the adjacency is then symmetrized by taking the maximum of the two
    directions.

    Args:
        n: number of nodes.
        edge_list: sequence of (src, dst, weight) triples, or a (k, 3)
            array of them, with 0 <= src, dst < n and weight >= 0.

    Returns:
        Graph with a symmetric adjacency matrix.
    """
    if n < 0:
        raise ValueError("node count must be nonnegative")
    e = np.asarray(edge_list, dtype=float).reshape(-1, 3)
    _check_edges(n, e[:, 0], e[:, 1], e[:, 2], lambda k: f"edge {k}")
    src, dst = e[:, 0].astype(np.intp), e[:, 1].astype(np.intp)
    # fancy assignment is unspecified for repeats: keep each pair's last explicitly
    last = len(e) - 1 - np.unique((src * n + dst)[::-1], return_index=True)[1]
    adj = np.zeros((n, n))
    adj[src[last], dst[last]] = e[last, 2]
    return Graph(n_nodes=n, adjacency=np.maximum(adj, adj.T))


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
    if not np.abs(lap - lap.T).max() <= _SYM_TOL:  # also rejects NaN
        raise ValueError("laplacian must be symmetric")
    vals, vecs = np.linalg.eigh(lap)
    vals = np.where(np.abs(vals) < 1e-12, 0.0, vals)  # scrub eigh noise at zero
    # lowest index of each column's largest magnitude; argmax over the bool
    # mask is about 3x faster than over the magnitudes along axis 0
    mag = np.abs(vecs)
    lead = np.argmax(mag == mag.max(axis=0), axis=0)
    vecs *= np.where(vecs[lead, np.arange(vecs.shape[1])] < 0.0, -1.0, 1.0)
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
    rows, cols, _ = _upper_triangle(g.adjacency)
    if mode in ("remove", "both") and len(rows) == 0:
        raise ValueError("cannot remove edges from an empty graph")
    rng = np.random.default_rng(seed)
    n_touch = int(ratio * len(rows))
    adj = g.adjacency.copy()

    if mode in ("remove", "both") and n_touch > 0:
        picks = rng.choice(len(rows), size=n_touch, replace=False)
        adj[rows[picks], cols[picks]] = adj[cols[picks], rows[picks]] = 0.0

    if mode in ("add", "both") and n_touch > 0:
        # flat row-major indices list the free pairs in triu_indices order
        free = np.flatnonzero(np.triu(adj == 0.0, k=1))
        if n_touch > len(free):
            raise ValueError(
                f"requested {n_touch} additions but only {len(free)} non-edges exist"
            )
        picks = free[rng.choice(len(free), size=n_touch, replace=False)]
        src, dst = np.divmod(picks, g.n_nodes)
        adj[src, dst] = adj[dst, src] = 1.0

    return Graph(n_nodes=g.n_nodes, adjacency=adj)
