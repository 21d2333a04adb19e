"""Independent high-precision reference implementations used only by tests.

Everything here is computed with mpmath arbitrary-precision arithmetic via
algorithms that differ from the production float64 paths: the kernel oracle
sums the Maclaurin series at 40+ digits (where cancellation is harmless) and
cross-checks against Talbot inversion of the Laplace transform; derivatives
come from mpmath's numerical differentiation of the series, or from Talbot
inversion of the transform's order derivative where the series converges
too slowly.  The graph oracles are plain Python loops over lists.
"""

from __future__ import annotations

import math
from collections import deque

import mpmath as mp


def ml_oracle(alpha: float, lam: float, t: float, dps: int = 40) -> float:
    """Mittag-Leffler kernel e_alpha(lam, t) summed in arbitrary precision."""
    with mp.workdps(dps):
        a, l, tt = mp.mpf(float(alpha)), mp.mpf(float(lam)), mp.mpf(float(t))
        if l == 0 or tt == 0:
            return 1.0
        val = mp.nsum(
            lambda n: (-l) ** n * tt ** (a * n) / mp.gamma(a * n + 1), [0, mp.inf]
        )
        return float(val)


def ml_oracle_laplace(alpha: float, lam: float, t: float, dps: int = 40) -> float:
    """Same kernel via Talbot inversion of s^(a-1)/(s^a + lam); oracle self-check."""
    with mp.workdps(dps):
        a, l = mp.mpf(float(alpha)), mp.mpf(float(lam))
        fp = lambda s: s ** (a - 1) / (s**a + l)
        return float(mp.invertlaplace(fp, float(t), method="talbot"))


def dml_oracle_laplace(alpha: float, lam: float, t: float, dps: int = 40) -> float:
    """Order derivative via Talbot inversion of lam ln(s) s^(a-1)/(s^a + lam)^2."""
    with mp.workdps(dps):
        a, l = mp.mpf(float(alpha)), mp.mpf(float(lam))
        fp = lambda s: l * mp.log(s) * s ** (a - 1) / (s**a + l) ** 2
        return float(mp.invertlaplace(fp, float(t), method="talbot"))


def dml_oracle(alpha: float, lam: float, t: float, dps: int = 40) -> float:
    """d/dalpha of the kernel by arbitrary-precision numerical differentiation."""
    with mp.workdps(dps):
        l, tt = mp.mpf(float(lam)), mp.mpf(float(t))
        if l == 0 or tt == 0:
            return 0.0

        def f(a):
            return mp.nsum(
                lambda n: (-l) ** n * tt ** (a * n) / mp.gamma(a * n + 1),
                [0, mp.inf],
            )

        return float(mp.diff(f, mp.mpf(float(alpha))))


def digamma_oracle(x: float, dps: int = 40) -> float:
    with mp.workdps(dps):
        return float(mp.digamma(mp.mpf(float(x))))


def gamma_oracle(x: float, dps: int = 40) -> float:
    with mp.workdps(dps):
        return float(mp.gamma(mp.mpf(float(x))))


def component_count(adjacency) -> int:
    """Number of connected components by plain BFS on the adjacency matrix."""
    n = len(adjacency)
    seen = [False] * n
    count = 0
    for root in range(n):
        if seen[root]:
            continue
        count += 1
        seen[root] = True
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v in range(n):
                if not seen[v] and adjacency[u][v] > 0.0:
                    seen[v] = True
                    queue.append(v)
    return count


def adjacency_oracle(n: int, edge_list) -> list[list[float]]:
    """Dense adjacency of a directed edge list by a per-edge dict loop.

    Per direction the last occurrence of a (src, dst) pair wins; the graph
    is then symmetrized by the larger of the two directions.  An invalid
    edge raises ValueError("edge k: ...") naming the first bad index k.
    """
    directed = {}
    for k, (src, dst, w) in enumerate(edge_list):
        src, dst, w = int(src), int(dst), float(w)
        if not (0 <= src < n and 0 <= dst < n):
            raise ValueError(f"edge {k}: index ({src}, {dst}) out of range for n={n}")
        if w < 0.0 or not math.isfinite(w):
            raise ValueError(f"edge {k}: weight must be finite and >= 0, got {w}")
        directed[(src, dst)] = w
    adj = [[0.0] * n for _ in range(n)]
    for (src, dst), w in directed.items():
        adj[src][dst] = max(w, directed.get((dst, src), 0.0))
        adj[dst][src] = adj[src][dst]
    return adj
