"""Evaluation probes, collapse diagnostics, theory checks, and walk simulation.

Everything here is read-only over trained artifacts: a linear probe for
label accuracy, geometry/spectrum summaries that quantify view collapse,
numerical verification of the asymptotic multiplier expansion, an
initial-state stability harness for the perturbation-decay bound, and a
heavy-tailed random-walk simulator whose occupancy statistics mirror the
fractional diffusion solution.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gamma

import numpy as np

from .data import _plain
from .graphs import Graph, SpectralBasis, _rows
from .solver import _diffusion_filter, skip_multiplier
from .special import _tail_coeffs, ml_spectrum, zeta

__all__ = [
    "ProbeConfig",
    "SpectralReport",
    "WalkConfig",
    "StabilityReport",
    "InitStatePerturbation",
    "linear_probe",
    "rc_ratio",
    "energy_spectrum",
    "effective_rank",
    "fourier_spread",
    "check_theorem_sgi",
    "random_walk_sim",
    "ctmc_walk_sim",
    "stability_harness",
]


@dataclass(frozen=True)
class ProbeConfig:
    """Linear-probe training knobs."""

    l2_weight: float = 1e-4
    epochs: int = 300
    lr: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        # the comparisons also reject NaN
        if not 0.0 <= self.l2_weight < np.inf:
            raise ValueError(
                f"l2_weight must be finite and nonnegative, got {self.l2_weight}"
            )
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if not 0.0 < self.lr < np.inf:
            raise ValueError(f"lr must be finite and positive, got {self.lr}")


def _as_matrix(y) -> np.ndarray:
    m = np.asarray(getattr(y, "matrix", y), dtype=float)
    if m.ndim == 1:
        m = m[:, None]
    if m.ndim != 2:
        raise ValueError("embedding must be a matrix")
    return m


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def linear_probe(y, labels, splits, cfg: ProbeConfig):
    """Accuracy of an L2-regularized softmax classifier on frozen features.

    Full-batch gradient descent from zero weights; the bias column is not
    regularized.  Features are centered and whitened against the training
    split first (directions with negligible variance are dropped), so the
    reported accuracies are exactly invariant to rotation, translation, and
    scaling of the embedding, and the optimizer's conditioning does not
    leak into the measurement.  Returns (train, val, test) accuracies; an
    empty split reports nan.  A split node labeled -1 (unlabeled) is an error.
    """
    m = _as_matrix(y)
    labels = np.asarray(labels)
    if len(m) != len(labels):
        raise ValueError(f"embedding has {len(m)} rows for {len(labels)} nodes")
    idx = {}
    for name in ("train", "val", "test"):
        part = np.asarray(splits.get(name, []), dtype=int)
        if part.size and (part.min() < 0 or part.max() >= m.shape[0]):
            raise ValueError(f"{name} split indexes outside the embedding")
        unlabeled = part[labels[part] < 0]
        if unlabeled.size:
            raise ValueError(f"{name} split node {unlabeled[0]} has no label")
        idx[name] = part
    for a, b in (("train", "val"), ("train", "test"), ("val", "test")):
        in_a = np.zeros(m.shape[0], dtype=bool)
        in_a[idx[a]] = True
        if in_a[idx[b]].any():
            raise ValueError(f"{a} and {b} splits overlap")
    train = idx["train"]
    # a plain np.unique would import numpy.ma (numpy 2.4); return_inverse does not
    classes, class_idx = np.unique(labels[train], return_inverse=True)
    if classes.size < 2:
        raise ValueError("training split must contain at least 2 classes")

    centered = m - m[train].mean(axis=0, keepdims=True)
    cov = centered[train].T @ centered[train] / max(train.size - 1, 1)
    evals, evecs = np.linalg.eigh(cov)
    keep = evals > 1e-10 * max(evals[-1], 0.0)
    transform = evecs[:, keep] / np.sqrt(evals[keep])
    feats = centered @ transform
    x = np.hstack([feats, np.ones((m.shape[0], 1))])

    onehot = np.zeros((train.size, classes.size))
    onehot[np.arange(train.size), class_idx] = 1.0
    xtr = x[train]
    w = np.zeros((x.shape[1], classes.size))
    reg_mask = np.ones_like(w)
    reg_mask[-1, :] = 0.0  # bias row unregularized
    for _ in range(cfg.epochs):
        p = _softmax(xtr @ w)
        grad = xtr.T @ (p - onehot) / train.size + cfg.l2_weight * (w * reg_mask)
        w -= cfg.lr * grad

    preds = classes[np.argmax(x @ w, axis=1)]

    def acc(part):
        if part.size == 0:
            return float("nan")
        return float(np.mean(preds[part] == labels[part]))

    return acc(train), acc(idx["val"]), acc(idx["test"])


def rc_ratio(y, labels) -> dict:
    """Per-class separation ratio: inter-class over intra-class mean distance.

    Classes with fewer than two members are skipped; a class whose members
    coincide has an undefined ratio.  Both conditions surface as flags
    rather than exceptions.  Unlabeled rows (negative labels) count as
    outside every class.  Each row's distances are summed per label as they
    are made, so memory is O(n (d + labels)), with no n x n matrix.
    """
    m = _as_matrix(y)
    labels = np.asarray(labels)
    if labels.shape[0] != m.shape[0]:
        raise ValueError("one label per row required")
    keys, slot = np.unique(labels, return_inverse=True)
    # sums[i, s]: total distance from row i to the rows labeled keys[s]
    sums = np.empty((len(m), len(keys)))
    diff = np.empty_like(m)  # reused: a fresh n x d temporary per row costs page faults
    for i, row in enumerate(m):
        np.square(np.subtract(m, row, out=diff), out=diff)
        sums[i] = np.bincount(slot, np.sqrt(diff.sum(axis=1)), len(keys))
    out = {}
    for s in np.flatnonzero(keys >= 0):
        c, inside = int(keys[s]), slot == s
        k = int(inside.sum())
        if k < 2:
            out[c] = {"ratio": None, "flag": "skipped"}
            continue
        if k == len(m):
            out[c] = {"ratio": None, "flag": "undefined"}
            continue
        per_label = sums[inside].sum(axis=0)
        d_intra = float(per_label[s]) / (k * (k - 1))
        d_inter = float(np.delete(per_label, s).sum()) / (k * (len(m) - k))
        if d_intra == 0.0:
            out[c] = {"ratio": None, "flag": "undefined"}
        else:
            out[c] = {"ratio": d_inter / d_intra, "flag": "ok"}
    return out


def energy_spectrum(y) -> np.ndarray:
    """Eigenvalues of the centered feature covariance, sorted descending."""
    m = _as_matrix(y)
    if m.shape[0] < 2:
        raise ValueError("need at least 2 rows")
    centered = m - m.mean(axis=0, keepdims=True)
    evals = np.linalg.eigvalsh(centered.T @ centered / (m.shape[0] - 1))
    return np.maximum(np.sort(evals)[::-1], 0.0)


def effective_rank(y, theta: float = 0.9) -> int:
    """Smallest number of top principal components capturing theta of the mass."""
    if not 0.0 < theta <= 1.0:
        raise ValueError("theta must lie in (0, 1]")
    spectrum = energy_spectrum(y)
    total = float(spectrum.sum())
    if total == 0.0:
        return 1
    running = 0.0
    for k, v in enumerate(spectrum, start=1):
        running += v
        if running >= theta * total:
            return k
    return len(spectrum)


def fourier_spread(basis: SpectralBasis, y) -> np.ndarray:
    """Aggregate magnitude of each graph frequency across feature columns."""
    m = _as_matrix(y)
    if m.shape[0] != basis.n:
        raise ValueError("row count must match the graph")
    return np.linalg.norm(basis.eigenvectors.T @ m, axis=1)


@dataclass(frozen=True)
class SpectralReport:
    """Numerical instantiation of the asymptotic multiplier expansion.

    `b_local`/`b_global` hold the expansion coefficients b[i][j-1] for each
    positive-frequency index i and power j = 1..n_s; frequency 0 carries the
    exact multiplier m+1 for every order and has no expansion.  Verdicts
    record which of the claimed coefficient properties actually hold on this
    graph, alongside the exact-vs-asymptotic agreement check.

    Each row factors as b[i][j-1] = c_j * lam_i^-j, with c_j set by the order
    and skip count alone.  So `positivity` and `decreasing_in_i` fail together
    whenever some c_j < 0 (at order 0.1, c_3 < 0); only the leading entry
    b[i][0] = 1/(lam_i Gamma(1-alpha)) is positive and non-increasing in i at
    every order.
    """

    eigenvalues: np.ndarray
    skip_count: int
    tau: float
    alpha_local: float
    alpha_global: float
    n_s_local: int
    n_s_global: int
    exact_local: np.ndarray
    exact_global: np.ndarray
    asym_local: np.ndarray
    asym_global: np.ndarray
    mags_local: np.ndarray
    mags_global: np.ndarray
    b_local: tuple
    b_global: tuple
    verdicts: dict

    def to_dict(self) -> dict:
        return _plain(self)


def _truncation_order(alpha: float) -> int:
    # largest n with n*alpha < 1
    n = int(np.ceil(1.0 / alpha)) - 1
    while (n + 1) * alpha < 1.0:
        n += 1
    while n >= 1 and n * alpha >= 1.0:
        n -= 1
    return n


def _geometric_coeffs(a: np.ndarray, skips: int) -> np.ndarray:
    """Expansion of sum_{k=0}^{skips} u^k where u has coefficients a, a[0]=0.

    Nested as 1 + u (1 + u (...)), truncated at the degree of a.  Summing
    the powers of u one by one cancels badly at small orders: at order 0.01
    with 30 skips its worst coefficient is off by 6e-5 relative, the nested
    form's by 6e-12.
    """
    total = np.zeros(len(a))
    for _ in range(min(skips, len(a) - 1) + 1):
        total = np.convolve(total, a)[: len(a)]
        total[0] += 1.0
    return total


def check_theorem_sgi(
    basis: SpectralBasis,
    signal: np.ndarray,
    alpha_local: float,
    alpha_global: float,
    tau: float,
    skip_count: int,
) -> SpectralReport:
    """Compare exact skip-composed multipliers with their long-time expansion.

    The exact per-frequency multiplier is the geometric sum of relaxation
    values over skip segments; the expansion rewrites it in powers of
    tau^-alpha with coefficients assembled from reciprocal-gamma terms.
    The report carries both, the per-frequency signal magnitudes under each
    order, and verdicts for coefficient positivity, monotonicity across
    frequencies, dominance of the smaller order, and 10% agreement.

    The coefficients are b_ij = c_j * lam_i^-j, with c computed once per
    order (at lam = 1), so a negative c_j makes its column negative and
    increasing across frequencies: `positivity` and `decreasing_in_i` are
    then both False.  Only the leading coefficient 1/(lam_i Gamma(1-alpha))
    is guaranteed positive.
    """
    if not 0.0 < alpha_local < alpha_global <= 1.0:
        raise ValueError("orders must satisfy 0 < alpha_local < alpha_global <= 1")
    if not 100.0 <= tau < np.inf:
        raise ValueError(f"tau must be finite and at least 100, got {tau}")
    if skip_count < 1:
        raise ValueError("skip_count must be at least 1")
    lam = basis.eigenvalues
    if int(np.sum(np.abs(lam) < 1e-9)) != 1:
        raise ValueError("graph must be connected (unique zero eigenvalue)")
    x = np.asarray(signal, dtype=float)
    if x.shape[0] != basis.n:
        raise ValueError("signal length must match the graph")
    spec_x = basis.eigenvectors.T @ x
    positive = lam >= 1e-9

    def expansion(alpha, n_s):
        """b on the positive frequencies, and the expansion at every frequency."""
        j = np.arange(1, n_s + 1)
        # a_j(lam) = a_j(1) lam^-j, and the geometric sum keeps that scaling
        c = _geometric_coeffs(np.append(0.0, _tail_coeffs(alpha, 1.0, n_s)), skip_count)
        b = c[1:] * lam[positive, None] ** -j
        # the constant frequency never decays: every segment contributes 1
        asym = np.full(len(lam), skip_count + 1.0)
        asym[positive] = 1.0 + b @ tau ** (-j * alpha)
        return b, asym

    def rows(b):
        """One tuple per frequency; () at frequency 0, which has no expansion."""
        it = iter(b.tolist())
        return tuple(tuple(next(it)) if p else () for p in positive)

    n_s_l = _truncation_order(alpha_local)
    n_s_g = _truncation_order(alpha_global)
    exact_l = skip_multiplier(alpha_local, lam, tau, skip_count)
    exact_g = skip_multiplier(alpha_global, lam, tau, skip_count)
    b_l, asym_l = expansion(alpha_local, n_s_l)
    b_g, asym_g = expansion(alpha_global, n_s_g)
    shared = min(n_s_l, n_s_g)
    rel = np.zeros(len(lam))
    for arr_exact, arr_asym in ((exact_l, asym_l), (exact_g, asym_g)):
        with np.errstate(divide="ignore", invalid="ignore"):
            r = np.abs(arr_exact - arr_asym) / np.abs(arr_exact)
        rel = np.maximum(rel, np.where(positive, r, 0.0))
    verdicts = {
        "positivity": bool(np.all(b_l > 0) and np.all(b_g > 0)),
        "decreasing_in_i": bool(
            np.all(np.diff(b_l, axis=0) <= 1e-12) and np.all(np.diff(b_g, axis=0) <= 1e-12)
        ),
        "local_dominates": bool(np.all(b_l[:, :shared] > b_g[:, :shared])),
        "agreement_10pct": bool(np.all(rel <= 0.10)),
    }
    return SpectralReport(
        eigenvalues=lam.copy(),
        skip_count=skip_count,
        tau=float(tau),
        alpha_local=alpha_local,
        alpha_global=alpha_global,
        n_s_local=n_s_l,
        n_s_global=n_s_g,
        exact_local=exact_l,
        exact_global=exact_g,
        asym_local=asym_l,
        asym_global=asym_g,
        mags_local=np.abs(exact_l * spec_x),
        mags_global=np.abs(exact_g * spec_x),
        b_local=rows(b_l),
        b_global=rows(b_g),
        verdicts=verdicts,
    )


@dataclass(frozen=True)
class WalkConfig:
    """Heavy-tailed walk settings; the stay probability must be a probability."""

    alpha: float
    t_end: float
    delta_tau: float
    n_walkers: int
    seed: int

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(
                "alpha must lie in (0, 1); use ctmc_walk_sim for the limit case"
            )
        # the comparisons also reject NaN
        if not 0.0 <= self.t_end < np.inf:
            raise ValueError(f"t_end must be finite and nonnegative, got {self.t_end}")
        if not 0.0 < self.delta_tau < np.inf:
            raise ValueError(
                f"delta_tau must be finite and positive, got {self.delta_tau}"
            )
        # up to 2^20 slots the wait guide stays under 32 MB, and float32 holds a wait
        if not self.t_end / self.delta_tau < 2**20:
            raise ValueError(
                f"t_end / delta_tau = {self.t_end / self.delta_tau:.4g} means a wait "
                "ladder above 2^20 slots; raise delta_tau or lower t_end"
            )
        if self.n_walkers < 1:
            raise ValueError("n_walkers must be at least 1")
        if not 0.0 <= self.move_probability() <= 1.0:
            raise ValueError(
                f"move probability {self.move_probability():.4f} outside [0, 1]; "
                "decrease delta_tau"
            )

    def tail_norm(self) -> float:
        # 1/zeta(1+alpha) normalizes the wait law P(n) = n^-(1+alpha) over n >= 1
        return 1.0 / zeta(1.0 + self.alpha)

    def move_probability(self) -> float:
        return (
            self.delta_tau**self.alpha
            * self.tail_norm()
            * abs(gamma(-self.alpha))
        )


def _neighbor_rows(g: Graph):
    """Pick table and key span, each entry's target node, and row pointers.

    Row v of the adjacency's nonzeros holds v plus its cumulative weights over
    v's degree, so v + u, u in [0, 1), rounds into [v, v + 1] < 2^bit_length(n).
    """
    dst, weight, indptr = _rows(g, g.weight)
    src = np.repeat(np.arange(g.n_nodes), np.diff(indptr))
    # each row's shares sum to 1, so a large row cannot swamp a later small one
    cum = np.cumsum(weight / g.degrees()[src])
    cum -= np.concatenate(([0.0], cum))[indptr[src]]
    # cum's rounding can end a row above a next row that starts with a tiny weight
    table = np.maximum.accumulate(src + cum)
    return table, float(1 << int(g.n_nodes).bit_length()), dst, indptr


def _lockstep_walk(
    g: Graph,
    start: int,
    n_walkers: int,
    seed: int,
    t_end: float,
    waits,
    move_p: float,
) -> np.ndarray:
    """Occupancy at t_end of walkers that all step together from one stream.

    ``waits(rng, out)`` draws len(out) waits through the buffer out; an
    infinite wait parks a walker for good.  After every wait that ends by
    t_end a walker moves, with probability move_p, to a neighbor that the
    guided `_neighbor_rows` table picks by weight.  Memory is O(n_walkers).
    """
    if not 0 <= start < g.n_nodes:
        raise ValueError(f"start node {start} out of range")
    table, span, dst, indptr = _neighbor_rows(g)
    occupancy = np.zeros(g.n_nodes)
    # the adjacency is symmetric, so only an isolated start can hold a
    # walker on a node without neighbors
    if t_end == 0.0 or indptr[start] == indptr[start + 1]:
        occupancy[start] = 1.0
        return occupancy
    pick_of = _bucket_search(table, span)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    node = np.full(n_walkers, start)
    live = np.arange(n_walkers)
    t = np.zeros(n_walkers)
    u = np.empty(n_walkers)
    while live.size:
        t += waits(rng, u[: live.size])
        keep = t <= t_end
        live, t = live[keep], t[keep]
        movers = live[rng.random(out=u[: live.size]) < move_p]
        v = node[movers]
        pick = pick_of(v + rng.random(out=u[: v.size]))
        # float rounding at a row edge can land in the adjacent row
        node[movers] = dst[np.clip(pick, indptr[v], indptr[v + 1] - 1)]
    return np.bincount(node, minlength=g.n_nodes) / n_walkers


def _bucket_search(table: np.ndarray, span: float = 1.0, values=None):
    """``u -> values[np.searchsorted(table, u, side="right")]``, u in [0, span).

    values: one nonnegative value per slot, len(table) + 1, by default the
    int32 slot.  A guide (Chen & Asau 1974; Devroye 1986, sec. III.2.4), the
    returned function's ``direct``, holds the value of each of G equal buckets
    of [0, span), G = max(2^16, 4 to 8 times len(table)).  With span and G
    powers of two, u's bucket floor(u G / span) is exact, and a sorted entry
    x is at or below bucket b's lower edge exactly when ceil(x G / span) <= b:
    the ceilings run-length encode the guide.  Buckets with an entry strictly
    inside hold -1; only their keys take the binary search.
    """
    values = np.arange(len(table) + 1, dtype=np.int32) if values is None else values
    n_buckets = max(1 << 16, 1 << (len(table).bit_length() + 2))
    scale = n_buckets / span
    cells = np.clip(table * scale, 0, n_buckets)
    up = np.ceil(cells).astype(np.intp)
    direct = np.repeat(values, np.diff(up, prepend=0, append=n_buckets))
    direct[up[cells != up] - 1] = -1

    def search(u: np.ndarray) -> np.ndarray:
        found = direct[(u * scale).astype(np.intp)]
        mixed = np.flatnonzero(found < 0)
        found[mixed] = values[np.searchsorted(table, u[mixed], side="right")]
        return found

    search.direct = direct
    return search


def random_walk_sim(g: Graph, cfg: WalkConfig, start: int) -> np.ndarray:
    """Occupancy distribution of heavy-tailed-waiting walkers at t_end.

    Waiting times are integer multiples n*delta_tau with P(n) proportional
    to n^-(1+alpha); after each wait the walker moves to a weighted random
    neighbor with the configured move probability, else stays.  Waits whose
    tail index exceeds the horizon park the walker for good, which is exact
    because such a walker cannot act again before t_end.  All walkers step
    in lockstep from one stream seeded by cfg.seed, so the result is
    deterministic per seed, and memory is O(n_walkers).

    A wait is the slot of a uniform u in the wait CDF, the count of CDF
    entries <= u.  `_bucket_search` maps u to the wait itself through a
    guide of O(ladder) memory, built once per call; it equals a binary
    search over the CDF for every key, so the occupancies are those of
    np.searchsorted draw for draw.
    """
    n_cap = int(np.floor(cfg.t_end / cfg.delta_tau)) + 1
    ladder = np.arange(1, n_cap + 1, dtype=float)
    wait_cdf = np.cumsum(ladder ** -(1.0 + cfg.alpha) * cfg.tail_norm())
    # slot n_cap is a wait past the ladder cap, which exceeds the whole horizon
    wait_of = _bucket_search(wait_cdf, values=np.append(ladder, np.inf).astype("f4"))

    def waits(rng, out):
        return wait_of(rng.random(out=out))

    # time counted in whole delta_tau steps, so the sums are exact integers
    return _lockstep_walk(
        g, start, cfg.n_walkers, cfg.seed, n_cap - 1, waits, cfg.move_probability()
    )


def ctmc_walk_sim(
    g: Graph, t_end: float, n_walkers: int, seed: int, start: int
) -> np.ndarray:
    """Occupancy of unit-rate continuous-time walkers (the alpha = 1 object).

    Exponential waits with rate one, every event moves to a weighted random
    neighbor.  Provided separately because the heavy-tailed transition rule
    degenerates at alpha = 1.  All walkers step in lockstep from one stream
    seeded by seed, so the result is deterministic per seed, and memory is
    O(n_walkers).
    """
    if not 0 <= t_end < np.inf:
        raise ValueError("t_end must be finite and nonnegative")
    if n_walkers < 1:
        raise ValueError("n_walkers must be at least 1")
    return _lockstep_walk(
        g, start, n_walkers, seed, t_end, lambda r, o: r.standard_exponential(out=o), 1
    )


@dataclass(frozen=True)
class InitStatePerturbation:
    """Additive initial-state offset of size eps along a fixed direction."""

    eps: float
    direction: np.ndarray


@dataclass(frozen=True)
class StabilityReport:
    """Discrepancy curve plus the fitted power-law decay envelope.

    The envelope C * eps * t^(alpha-1) is fitted, not proven: the kernel
    itself decays only as t^-alpha, so `holds` is False for alpha < 1/2 on
    a long enough time grid.
    """

    times: np.ndarray
    discrepancy: np.ndarray
    epsilon: float
    alpha_ref: float
    c_fit: float
    bound: np.ndarray
    holds: bool

    def to_dict(self) -> dict:
        return _plain(self)


def stability_harness(
    basis: SpectralBasis,
    y0: np.ndarray,
    alpha: float,
    t_grid,
    perturbation: InitStatePerturbation,
) -> StabilityReport:
    """Exact discrepancy between a diffusion of order alpha and its perturbed twin.

    The perturbation offsets the initial state by eps along a unit direction.
    The solve is linear, so the offset diffuses alone: y0 is checked for its
    shape only, and the discrepancy at t is the norm of the diffused offset.
    The envelope constant is fitted at the smallest time and `holds` says
    whether the whole curve stays under C * eps * t^(alpha-1).  The
    Mittag-Leffler kernel decays as t^-alpha, slower than that envelope when
    alpha < 1/2, so `holds` is False there once the grid reaches far enough
    past the fitting time.
    """
    times = np.asarray(t_grid, dtype=float)
    finite_positive = (times > 0) & (times < np.inf)  # False for NaN too
    if times.ndim != 1 or times.size == 0 or not finite_positive.all():
        raise ValueError(f"t_grid must be finite positive times, got {times.tolist()}")
    if np.any(np.diff(times) <= 0):
        raise ValueError("t_grid must be strictly increasing")
    if np.shape(y0)[:1] != (basis.n,):
        raise ValueError("y0 must have one row per node")
    alpha = float(alpha)
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    eps = perturbation.eps
    if not 0.0 < eps < np.inf:
        raise ValueError(f"eps must be finite and positive, got {eps}")
    direction = np.asarray(perturbation.direction, dtype=float)
    if direction.ndim == 1:
        direction = direction[:, None]
    norm = np.linalg.norm(direction)
    if norm == 0:
        raise ValueError("direction must be nonzero")

    filt = _diffusion_filter(basis, eps * direction / norm, times[-1])
    disc = np.array(
        [np.linalg.norm(filt.apply(ml_spectrum(alpha, filt.nodes, t)[0])) for t in times]
    )

    envelope = eps * times ** (alpha - 1.0)
    c_fit = float(disc[0] / envelope[0])
    bound = c_fit * envelope
    holds = bool(np.all(disc <= bound * (1.0 + 1e-12)))
    return StabilityReport(
        times=times,
        discrepancy=disc,
        epsilon=eps,
        alpha_ref=alpha,
        c_fit=c_fit,
        bound=bound,
        holds=holds,
    )
