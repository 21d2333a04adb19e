"""Graph construction, normalized Laplacian, and eigendecomposition.

All graphs are undirected with positive edge weights, stored as arrays of
their canonical edges (the dense adjacency is derived on request).  The
Laplacian uses symmetric normalization, which keeps the eigenbasis
orthonormal; isolated nodes get an identity row (their signals never diffuse).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Graph",
    "SpectralBasis",
    "build_graph",
    "normalized_laplacian",
    "eigendecompose",
]

_SYM_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected weighted graph, stored as its canonical edge arrays.

    Edge k joins src[k] <= dst[k] with weight[k] > 0; the edges are the
    nonzero upper triangle of the symmetric adjacency in row-major order.
    Graphs compare by identity (an array field has no single truth value);
    compare `edges` for equal graphs.
    """

    n_nodes: int  # node count, indices 0..n_nodes-1
    src: np.ndarray  # (m,) intp
    dst: np.ndarray  # (m,) intp
    weight: np.ndarray  # (m,) float

    @property
    def adjacency(self) -> np.ndarray:
        """Dense symmetric (n, n) adjacency, built anew on every access."""
        adj = np.zeros((self.n_nodes, self.n_nodes))
        adj[self.src, self.dst] = adj[self.dst, self.src] = self.weight
        return adj

    @property
    def edges(self) -> tuple:
        """Canonical (src, dst, weight) triples with src <= dst, row-major."""
        return tuple(zip(self.src.tolist(), self.dst.tolist(), self.weight.tolist()))

    def degrees(self) -> np.ndarray:
        """Weighted degree of every node; a self-loop counts once."""
        off = self.src != self.dst
        return np.bincount(self.src, self.weight, self.n_nodes) + np.bincount(
            self.dst[off], self.weight[off], self.n_nodes
        )


@dataclass(frozen=True, eq=False)
class SpectralBasis:
    """Eigendecomposition of a normalized Laplacian.

    Eigenvalues are sorted ascending and column i of `eigenvectors` pairs
    with `eigenvalues[i]`.  Bases compare by identity, as graphs do.
    """

    eigenvalues: np.ndarray  # ascending, in [0, 2]
    eigenvectors: np.ndarray  # orthonormal columns

    @property
    def n(self) -> int:
        return len(self.eigenvalues)


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
    the graph is then symmetrized by taking the maximum of the two
    directions, and pairs left with weight zero are dropped.

    Args:
        n: number of nodes.
        edge_list: sequence of (src, dst, weight) triples, or a (k, 3)
            array of them, with 0 <= src, dst < n and weight >= 0.

    Returns:
        Graph holding the canonical edge arrays.
    """
    if n < 0:
        raise ValueError("node count must be nonnegative")
    e = np.asarray(edge_list, dtype=float).reshape(-1, 3)
    _check_edges(n, e[:, 0], e[:, 1], e[:, 2], lambda k: f"edge {k}")
    src, dst = e[:, 0].astype(np.intp), e[:, 1].astype(np.intp)
    # the last occurrence of each directed pair wins
    last = len(e) - 1 - np.unique((src * n + dst)[::-1], return_index=True)[1]
    key = np.minimum(src, dst)[last] * n + np.maximum(src, dst)[last]
    # sorted by pair, then weight: each pair's last entry is its larger direction
    order = np.lexsort((e[last, 2], key))
    key, w = key[order], e[last, 2][order]
    keep = w > 0.0
    keep[:-1] &= key[1:] != key[:-1]
    src, dst = np.divmod(key[keep], n)
    return Graph(n, src, dst, w[keep])


def normalized_laplacian(g: Graph) -> np.ndarray:
    """Symmetrically normalized Laplacian I - D^(-1/2) A D^(-1/2).

    Rows and columns of degree-zero nodes reduce to the identity row.  One
    n x n allocation holds -0.0 (that is -s_i 0 s_j) off the edges, and each
    edge gets the exactly symmetric (-s_i w s_j + -s_j w s_i) / 2.
    """
    deg = g.degrees()
    inv_sqrt = np.zeros_like(deg)
    nz = deg > 0.0
    inv_sqrt[nz] = 1.0 / np.sqrt(deg[nz])
    lap = np.full((g.n_nodes, g.n_nodes), -0.0)
    np.fill_diagonal(lap, 1.0)
    s_i, s_j, w = inv_sqrt[g.src], inv_sqrt[g.dst], g.weight
    term = (-s_i * w * s_j + -s_j * w * s_i) / 2.0
    # a self-loop's weight is in both A and D: its term joins the diagonal 1
    term = np.where(g.src == g.dst, 1.0 + term, term)
    lap[g.src, g.dst] = lap[g.dst, g.src] = term
    return lap


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

