"""Graph construction, normalized Laplacian, and eigendecomposition.

All graphs are undirected with positive edge weights, stored as arrays of
their canonical edges; an edge list already in that form is kept as it
stands.  The Laplacian uses symmetric normalization, which
keeps the eigenbasis orthonormal; isolated nodes get an identity row (their
signals never diffuse).  It comes in two forms with the same entries: the
dense n x n matrix that `eigendecompose` takes, and `LaplacianRows`, the
identity plus each node's edge entries sorted by column (CSR), whose `@`
costs O(edges) memory and time and serves the Krylov filter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Graph",
    "SpectralBasis",
    "LaplacianRows",
    "build_graph",
    "normalized_laplacian",
    "laplacian_rows",
    "eigendecompose",
]

_SYM_TOL = 1e-10
# rows per gather in LaplacianRows @ Y, which bounds its temporaries
_ROW_BLOCK = 128


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
    directions, and pairs left with weight zero are dropped.  A list that
    is already canonical (src <= dst, weight > 0, strictly row-major, as
    `data.save_dataset` writes it) becomes the graph without a re-sort.

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
    return _graph_of(n, src, dst, e[:, 2].copy())  # the graph may keep it as is


def _graph_of(n: int, src, dst, w) -> Graph:
    """`build_graph` of checked, contiguous intp/float64 edge columns;
    canonical ones are the graph as they stand."""
    key = src * n + dst
    if np.all(src <= dst) and np.all(w > 0.0) and np.all(key[1:] > key[:-1]):
        return Graph(n, src, dst, w)
    # the last occurrence of each directed pair wins
    last = len(key) - 1 - np.unique(key[::-1], return_index=True)[1]
    key = np.minimum(src, dst)[last] * n + np.maximum(src, dst)[last]
    # sorted by pair, then weight: each pair's last entry is its larger direction
    order = np.lexsort((w[last], key))
    key, w = key[order], w[last][order]
    keep = w > 0.0
    keep[:-1] &= key[1:] != key[:-1]
    src, dst = np.divmod(key[keep], n)
    return Graph(n, src, dst, w[keep])


def _edge_terms(g: Graph) -> np.ndarray:
    """Each edge's entry of L off the identity: (-s_i w s_j + -s_j w s_i) / 2
    with s = D^(-1/2), exactly symmetric in i and j."""
    deg = g.degrees()
    inv_sqrt = np.zeros_like(deg)
    nz = deg > 0.0
    inv_sqrt[nz] = 1.0 / np.sqrt(deg[nz])
    s_i, s_j, w = inv_sqrt[g.src], inv_sqrt[g.dst], g.weight
    return (-s_i * w * s_j + -s_j * w * s_i) / 2.0


def _rows(g: Graph, per_edge: np.ndarray):
    """Both directions of every edge, sorted by (row, column): each entry's
    column, its edge's value in `per_edge`, and the row pointers.  A
    self-loop appears once.

    The canonical edges are the upper entries, already row-major; a stable
    sort of the lower ones by row keeps their columns ascending, and each
    row holds its lower entries (columns below the row) before its upper ones.
    """
    n, m = g.n_nodes, len(g.src)
    off = np.flatnonzero(g.src != g.dst)
    # the smallest integer type that holds a node index sorts by radix
    lower = off[np.argsort(g.dst[off].astype(np.min_scalar_type(n)), kind="stable")]
    n_low = np.bincount(g.dst[off], minlength=n)
    n_up = np.bincount(g.src, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(n_low + n_up, out=indptr[1:])
    # an entry's slot is its row's start plus its rank among the row's lower
    # entries, or plus the row's lower count and its rank among the upper ones
    low_start = indptr[:-1] - np.cumsum(n_low) + n_low
    low_at = np.arange(len(lower)) + low_start[g.dst[lower]]
    up_at = np.arange(m) + (indptr[1:] - np.cumsum(n_up))[g.src]
    cols = np.empty(indptr[-1], dtype=np.intp)
    vals = np.empty(indptr[-1], dtype=per_edge.dtype)
    cols[low_at], cols[up_at] = g.src[lower], g.dst
    vals[low_at], vals[up_at] = per_edge[lower], per_edge
    return cols, vals, indptr


def normalized_laplacian(g: Graph) -> np.ndarray:
    """Symmetrically normalized Laplacian I - D^(-1/2) A D^(-1/2).

    Rows and columns of degree-zero nodes reduce to the identity row.  One
    n x n allocation holds -0.0 (that is -s_i 0 s_j) off the edges, and each
    edge gets its `_edge_terms` entry.
    """
    lap = np.full((g.n_nodes, g.n_nodes), -0.0)
    np.fill_diagonal(lap, 1.0)
    term = _edge_terms(g)
    # a self-loop's weight is in both A and D: its term joins the diagonal 1
    term = np.where(g.src == g.dst, 1.0 + term, term)
    lap[g.src, g.dst] = lap[g.dst, g.src] = term
    return lap


@dataclass(frozen=True, eq=False)
class LaplacianRows:
    """The normalized Laplacian as I plus its edge entries, row by row (CSR).

    Row i's entries off the identity are `vals[indptr[i]:indptr[i + 1]]` at
    columns `cols` of the same span, ascending: the `_edge_terms` of every
    edge at i, a self-loop's without its diagonal 1.  `L @ Y` is Y plus
    each row's sum of vals * Y[cols], gathered _ROW_BLOCK rows at a time,
    so no n x n array exists.  Compare by identity, as graphs do.
    """

    indptr: np.ndarray  # (n + 1,) intp
    cols: np.ndarray  # (nnz,) intp
    vals: np.ndarray  # (nnz,) float

    @property
    def shape(self) -> tuple[int, int]:
        n = len(self.indptr) - 1
        return n, n

    def __matmul__(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        n, ptr = self.shape[0], self.indptr
        if y.ndim == 0 or len(y) != n:
            raise ValueError(f"cannot multiply {self.shape} rows by shape {y.shape}")
        # one feature per row, so that the gather, the scaling and the row
        # sums run along contiguous memory
        yt = np.ascontiguousarray(y.reshape(n, -1).T)
        out = yt.copy()
        for r0 in range(0, n, _ROW_BLOCK):
            r1 = min(r0 + _ROW_BLOCK, n)
            # consecutive starts of the nonempty rows bound each row's span
            full = r0 + np.flatnonzero(ptr[r0 + 1 : r1 + 1] > ptr[r0:r1])
            if len(full):
                a, b = ptr[r0], ptr[r1]
                terms = np.take(yt, self.cols[a:b], axis=1)
                terms *= self.vals[a:b]
                out[:, full] += np.add.reduceat(terms, ptr[full] - a, axis=1)
        return out.T.reshape(y.shape)


def laplacian_rows(g: Graph) -> LaplacianRows:
    """`normalized_laplacian(g)` as `LaplacianRows`, in O(edges) memory."""
    cols, vals, indptr = _rows(g, _edge_terms(g))
    return LaplacianRows(indptr, cols, vals)


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

