"""Evaluation probes, collapse diagnostics, theory checks, and walk simulation.

Everything here is read-only over trained artifacts: a linear probe for
label accuracy, geometry/spectrum summaries that quantify view collapse,
numerical verification of the asymptotic multiplier expansion and of the
perturbation-decay bound, and a heavy-tailed random-walk simulator whose
occupancy statistics mirror the fractional diffusion solution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import _plain
from .encoder import EncoderBank
from .graphs import Graph, SpectralBasis, eigendecompose, normalized_laplacian, perturb_graph
from .solver import _diffusion_filter, skip_multiplier
from .special import _tail_coeffs, gamma, ml_spectrum, zeta

__all__ = [
    "ProbeConfig",
    "SpectralReport",
    "WalkConfig",
    "StabilityReport",
    "InitStatePerturbation",
    "WeightPerturbation",
    "TopologyPerturbation",
    "linear_probe",
    "rc_ratio",
    "energy_spectrum",
    "effective_rank",
    "fourier_spread",
    "check_theorem_sgi",
    "random_walk_sim",
    "ctmc_walk_sim",
    "stability_harness",
    "mean_pool_readout",
]


@dataclass(frozen=True)
class ProbeConfig:
    """Linear-probe training knobs."""

    l2_weight: float = 1e-4
    epochs: int = 300
    lr: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.l2_weight < 0:
            raise ValueError("l2_weight must be nonnegative")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.lr <= 0:
            raise ValueError("lr must be positive")


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
    rather than exceptions.
    """
    m = _as_matrix(y)
    labels = np.asarray(labels)
    if labels.shape[0] != m.shape[0]:
        raise ValueError("one label per row required")
    dist = np.empty((len(m), len(m)))
    for i, row in enumerate(m):  # a row at a time: memory O(n^2 + nd), not O(n^2 d)
        dist[i] = np.sqrt(np.sum((m - row) ** 2, axis=1))
    out = {}
    for c in np.unique(labels[labels >= 0]):
        inside = labels == c
        k = int(inside.sum())
        if k < 2:
            out[int(c)] = {"ratio": None, "flag": "skipped"}
            continue
        outside = ~inside
        if not outside.any():
            out[int(c)] = {"ratio": None, "flag": "undefined"}
            continue
        intra_sum = float(dist[np.ix_(inside, inside)].sum())
        d_intra = intra_sum / (k * (k - 1))
        d_inter = float(dist[np.ix_(inside, outside)].mean())
        if d_intra == 0.0:
            out[int(c)] = {"ratio": None, "flag": "undefined"}
        else:
            out[int(c)] = {"ratio": d_inter / d_intra, "flag": "ok"}
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
    """Expansion of sum_{k=0}^{skips} u^k where u has coefficients a, a[0]=0."""
    order = len(a) - 1
    total = np.zeros(order + 1)
    total[0] = 1.0
    power = np.zeros(order + 1)
    power[0] = 1.0
    for _ in range(min(skips, order)):
        power = np.convolve(power, a)[: order + 1]
        total += power
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

    The coefficients are b_ij = c_j * lam_i^-j, so a negative c_j makes its
    column negative and increasing across frequencies: `positivity` and
    `decreasing_in_i` are then both False.  Only the leading coefficient
    1/(lam_i Gamma(1-alpha)) is guaranteed positive.
    """
    if not 0.0 < alpha_local < alpha_global <= 1.0:
        raise ValueError("orders must satisfy 0 < alpha_local < alpha_global <= 1")
    if tau < 100.0:
        raise ValueError(f"tau must be at least 100, got {tau}")
    if skip_count < 1:
        raise ValueError("skip_count must be at least 1")
    lam = basis.eigenvalues
    if int(np.sum(np.abs(lam) < 1e-9)) != 1:
        raise ValueError("graph must be connected (unique zero eigenvalue)")
    x = np.asarray(signal, dtype=float)
    if x.shape[0] != basis.n:
        raise ValueError("signal length must match the graph")
    spec_x = basis.eigenvectors.T @ x

    def expansion(alpha, n_s):
        b_rows = []
        asym = np.zeros(len(lam))
        for i, lv in enumerate(lam):
            if lv < 1e-9:
                # constant frequency never decays: every segment contributes 1
                b_rows.append(())
                asym[i] = skip_count + 1
                continue
            coeffs = _geometric_coeffs(
                np.concatenate(([0.0], _tail_coeffs(alpha, lv, n_s))), skip_count
            )
            b_rows.append(tuple(coeffs[1:]))
            asym[i] = sum(
                coeffs[j] * tau ** (-j * alpha) for j in range(n_s + 1)
            )
        return tuple(b_rows), asym

    n_s_l = _truncation_order(alpha_local)
    n_s_g = _truncation_order(alpha_global)
    exact_l = skip_multiplier(alpha_local, lam, tau, skip_count)
    exact_g = skip_multiplier(alpha_global, lam, tau, skip_count)
    b_l, asym_l = expansion(alpha_local, n_s_l)
    b_g, asym_g = expansion(alpha_global, n_s_g)

    positive = lam >= 1e-9
    pos_l = [row for row, p in zip(b_l, positive) if p]
    pos_g = [row for row, p in zip(b_g, positive) if p]

    def all_positive(rows):
        return all(v > 0 for row in rows for v in row)

    def decreasing_in_i(rows):
        arr = np.array(rows)
        if arr.size == 0:
            return True
        return bool(np.all(np.diff(arr, axis=0) <= 1e-12))

    shared = min(n_s_l, n_s_g)
    local_dominates = all(
        rl[j] > rg[j]
        for rl, rg in zip(pos_l, pos_g)
        for j in range(shared)
    )
    rel = np.zeros(len(lam))
    for arr_exact, arr_asym in ((exact_l, asym_l), (exact_g, asym_g)):
        with np.errstate(divide="ignore", invalid="ignore"):
            r = np.abs(arr_exact - arr_asym) / np.abs(arr_exact)
        rel = np.maximum(rel, np.where(positive, r, 0.0))
    verdicts = {
        "positivity": all_positive(pos_l) and all_positive(pos_g),
        "decreasing_in_i": decreasing_in_i(pos_l) and decreasing_in_i(pos_g),
        "local_dominates": bool(local_dominates),
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
        b_local=b_l,
        b_global=b_g,
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
        if self.t_end < 0:
            raise ValueError("t_end must be nonnegative")
        if self.delta_tau <= 0:
            raise ValueError("delta_tau must be positive")
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

    ``waits(rng, k)`` draws k waiting times; an infinite wait parks a walker
    for good.  After every wait that ends by t_end a walker moves, with
    probability move_p, to a neighbor picked in proportion to edge weight.
    Memory is O(n_walkers): each round draws only for the walkers still live.
    """
    if not 0 <= start < g.n_nodes:
        raise ValueError(f"start node {start} out of range")
    # both directions of every edge in row-major order: the adjacency's nonzeros
    off = g.src != g.dst
    src, dst = np.concatenate((g.src, g.dst[off])), np.concatenate((g.dst, g.src[off]))
    order = np.argsort(src * g.n_nodes + dst)
    src, dst = src[order], dst[order]
    weight = np.concatenate((g.weight, g.weight[off]))[order]
    indptr = np.searchsorted(src, np.arange(g.n_nodes + 1))
    occupancy = np.zeros(g.n_nodes)
    # the adjacency is symmetric, so only an isolated start can hold a
    # walker on a node without neighbors
    if t_end == 0.0 or indptr[start] == indptr[start + 1]:
        occupancy[start] = 1.0
        return occupancy
    # one sorted table: node index plus that node's cumulative-weight CDF,
    # so node + u with u in [0, 1) falls inside the node's own row
    cum = np.cumsum(weight)
    cum -= np.concatenate(([0.0], cum))[indptr[src]]
    table = src + cum / g.degrees()[src]
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    node = np.full(n_walkers, start)
    live = np.arange(n_walkers)
    t = np.zeros(n_walkers)
    while live.size:
        t = t + waits(rng, live.size)
        keep = t <= t_end
        live, t = live[keep], t[keep]
        movers = live[rng.random(live.size) < move_p]
        v = node[movers]
        pick = np.searchsorted(table, v + rng.random(v.size), side="right")
        # float rounding at a row edge can land in the adjacent row
        node[movers] = dst[np.clip(pick, indptr[v], indptr[v + 1] - 1)]
    return np.bincount(node, minlength=g.n_nodes) / n_walkers


def _bucket_search(table: np.ndarray):
    """``u -> np.searchsorted(table, u, side="right")`` for keys u in [0, 1).

    A guide table over G = 2^k equal buckets of [0, 1), G between 4 and 8
    times len(table) (Chen & Asau 1974; Devroye 1986, sec. III.2.4).  G is
    a power of two, so b = floor(u G) and the edges b / G are exact, and
    every key of bucket b has a slot between the slots of its two edges.
    Where those agree the bucket holds no table entry and its slot is
    final; only keys in the other buckets take the binary search.
    """
    n_buckets = 1 << (len(table).bit_length() + 2)
    edges = np.searchsorted(table, np.arange(n_buckets + 1) / n_buckets, side="right")
    # -1 marks a bucket with a table entry inside
    direct = np.where(edges[:-1] == edges[1:], edges[:-1], -1)

    def search(u: np.ndarray) -> np.ndarray:
        slots = direct[(u * n_buckets).astype(np.intp)]
        mixed = np.flatnonzero(slots < 0)
        slots[mixed] = np.searchsorted(table, u[mixed], side="right")
        return slots

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
    entries <= u.  `_bucket_search` finds it through a bucket table of
    O(ladder) memory, built once per call; its slots equal a binary search
    over the CDF for every key, so the occupancies are those of
    np.searchsorted draw for draw.
    """
    n_cap = int(np.floor(cfg.t_end / cfg.delta_tau)) + 1
    ladder = np.arange(1, n_cap + 1, dtype=float)
    wait_cdf = np.cumsum(ladder ** -(1.0 + cfg.alpha) * cfg.tail_norm())
    slot_of = _bucket_search(wait_cdf)
    # slot n_cap is a wait past the ladder cap, which exceeds the whole horizon
    wait_of = np.append(ladder, np.inf)

    def waits(rng, k):
        return wait_of[slot_of(rng.random(k))]

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
    if t_end < 0:
        raise ValueError("t_end must be nonnegative")
    if n_walkers < 1:
        raise ValueError("n_walkers must be at least 1")
    return _lockstep_walk(
        g, start, n_walkers, seed, t_end, lambda rng, k: rng.exponential(size=k), 1.0
    )


@dataclass(frozen=True)
class InitStatePerturbation:
    """Additive initial-state offset of size eps along a fixed direction."""

    eps: float
    direction: np.ndarray


@dataclass(frozen=True)
class WeightPerturbation:
    """Offset applied to every encoder's projection weights (bank mode only)."""

    delta_w: np.ndarray


@dataclass(frozen=True)
class TopologyPerturbation:
    """Random edge edits applied to the source graph before re-decomposing."""

    graph: Graph
    ratio: float
    seed: int
    mode: str = "both"


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
    alpha_or_bank,
    t_grid,
    perturbation,
) -> StabilityReport:
    """Exact discrepancy between a diffusion and its perturbed twin.

    Initial-state mode offsets the start by eps along a unit direction;
    weight mode (bank only, y0 holding raw features) offsets every
    encoder's projection; topology mode rewires the graph and compares the
    two exactly-solved systems at matched times.  The envelope constant is
    fitted at the smallest time and `holds` says whether the whole curve
    stays under C * eps * t^(alpha-1); the reference order for a bank is
    its largest one.  The Mittag-Leffler kernel decays as t^-alpha, slower
    than that envelope when alpha < 1/2, so `holds` is False there once the
    grid reaches far enough past the fitting time.
    """
    times = np.asarray(t_grid, dtype=float)
    if times.ndim != 1 or times.size == 0 or np.any(times <= 0):
        raise ValueError("t_grid must be positive times")
    if np.any(np.diff(times) <= 0):
        raise ValueError("t_grid must be strictly increasing")
    state = np.asarray(y0, dtype=float)
    if state.ndim == 1:
        state = state[:, None]
    if state.shape[0] != basis.n:
        raise ValueError("y0 must have one row per node")

    if isinstance(alpha_or_bank, EncoderBank):
        bank = alpha_or_bank
        alphas = bank.alphas
        alpha_ref = max(alphas)
    else:
        bank = None
        alpha_ref = float(alpha_or_bank)
        if not 0.0 < alpha_ref <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")
        alphas = [alpha_ref]

    # the solve is linear, so an offset to the state or the projection diffuses alone
    if isinstance(perturbation, InitStatePerturbation):
        if perturbation.eps <= 0:
            raise ValueError("eps must be positive")
        direction = np.asarray(perturbation.direction, dtype=float)
        if direction.ndim == 1:
            direction = direction[:, None]
        norm = np.linalg.norm(direction)
        if norm == 0:
            raise ValueError("direction must be nonzero")
        eps = perturbation.eps
        pairs = [(basis, eps * direction / norm)]
    elif isinstance(perturbation, WeightPerturbation):
        if bank is None:
            raise ValueError("weight perturbation needs an encoder bank")
        delta = state @ np.asarray(perturbation.delta_w, dtype=float)
        eps = float(np.linalg.norm(delta))
        if eps == 0:
            raise ValueError("weight perturbation is zero")
        pairs = [(basis, delta)]
    elif isinstance(perturbation, TopologyPerturbation):
        twisted = perturb_graph(
            perturbation.graph, perturbation.ratio, perturbation.mode,
            perturbation.seed,
        )
        lap2 = normalized_laplacian(twisted)
        lap1 = normalized_laplacian(perturbation.graph)
        eps = float(np.linalg.norm(lap1 - lap2, ord=2))
        if eps == 0:
            raise ValueError("topology perturbation changed nothing")
        pairs = [(basis, state), (eigendecompose(lap2), state)]
    else:
        raise TypeError(f"unknown perturbation {type(perturbation).__name__}")

    filters = [_diffusion_filter(op, y, times[-1]) for op, y in pairs]

    def gap(a, t):
        """Perturbed minus unperturbed view of order a at time t."""
        views = [f.apply(ml_spectrum(a, f.nodes, t)[0]) for f in filters]
        return views[0] if len(views) == 1 else views[0] - views[1]

    disc = np.array(
        [np.sqrt(sum(np.linalg.norm(gap(a, t)) ** 2 for a in alphas)) for t in times]
    )

    envelope = eps * times ** (alpha_ref - 1.0)
    c_fit = float(disc[0] / envelope[0])
    bound = c_fit * envelope
    holds = bool(np.all(disc <= bound * (1.0 + 1e-12)))
    return StabilityReport(
        times=times,
        discrepancy=disc,
        epsilon=eps,
        alpha_ref=alpha_ref,
        c_fit=c_fit,
        bound=bound,
        holds=holds,
    )


def mean_pool_readout(y, graph_assignment) -> np.ndarray:
    """Average node rows per graph id; rows ordered by ascending id."""
    m = _as_matrix(y)
    ids = np.asarray(graph_assignment, dtype=int)
    if ids.shape[0] != m.shape[0]:
        raise ValueError("every node needs a graph id")
    present = np.unique(ids)
    expected = np.arange(present.min(), present.max() + 1)
    missing = np.setdiff1d(expected, present)
    if missing.size:
        raise ValueError(f"graph {missing[0]} has no nodes")
    return np.vstack([m[ids == gid].mean(axis=0) for gid in present])
