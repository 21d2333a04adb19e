"""Dataset containers, file formats, and synthetic generators.

File formats are deliberately small and explicit:

* edges: CSV with header ``src,dst,weight``, canonical edges in row-major order
* features: CSV with header ``f0,...,f{d-1}``, one row per node in index order
* labels: CSV with header ``node,label``; absent nodes are unlabeled (-1)
* splits: JSON object ``{"train": [...], "val": [...], "test": [...]}``
* matrices: CSV as above, or the FDMV binary layout: magic ``FDMV``,
  version u32, rows u64, cols u64, then row-major little-endian f64 payload

Every parse failure, and every invalid edge, names the offending line or bytes.
"""

from __future__ import annotations

import csv
import json
import os
import struct
from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np

from .graphs import Graph, _check_edges, build_graph

__all__ = [
    "Dataset",
    "SynthSpec",
    "load_dataset",
    "save_dataset",
    "synth_sbm",
    "synth_cycle",
    "synth_path",
    "synth_grid",
    "save_matrix",
    "load_matrix",
    "save_report",
]

_SPLIT_NAMES = ("train", "val", "test")
_MAGIC = b"FDMV"
_VERSION = 1
_EDGE_CSV = dict(dtype="i8,i8,f8", delimiter=",", comments=None, ndmin=1, unpack=True)
_MATRIX_CSV = dict(dtype=float, delimiter=",", comments=None, quotechar='"', ndmin=2)
# pairs per rng call in synth_sbm, and edges per chunk of an edges CSV
_SBM_DRAWS = 1 << 16
_EDGE_CHUNK = 1 << 13


@dataclass(frozen=True, eq=False)
class Dataset:
    """A graph with node features, integer labels (-1 = unlabeled), and splits.

    Datasets compare by identity, as graphs do.
    """

    graph: Graph
    features: np.ndarray
    labels: np.ndarray
    splits: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        feats = np.asarray(self.features, dtype=float)
        if feats.ndim != 2 or feats.shape[0] != self.graph.n_nodes:
            raise ValueError(
                f"features must be {self.graph.n_nodes} x d, got {feats.shape}"
            )
        if not np.all(np.isfinite(feats)):
            raise ValueError("features must be finite")
        labels = np.asarray(self.labels)
        if labels.shape != (self.graph.n_nodes,):
            raise ValueError("labels must have one entry per node")
        if not np.issubdtype(labels.dtype, np.integer):
            raise ValueError("labels must be integers")
        if set(self.splits) - set(_SPLIT_NAMES):
            extra = sorted(set(self.splits) - set(_SPLIT_NAMES))
            raise ValueError(f"unknown split name {extra[0]!r}")
        seen: set[int] = set()
        for name in _SPLIT_NAMES:
            part = list(self.splits.get(name, ()))
            for idx in part:
                if not 0 <= int(idx) < self.graph.n_nodes:
                    raise ValueError(f"{name} split index {idx} out of range")
                if int(idx) in seen:
                    raise ValueError(f"splits overlap at node {idx}")
                seen.add(int(idx))
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels.astype(int))
        object.__setattr__(
            self,
            "splits",
            {n: tuple(int(i) for i in self.splits.get(n, ())) for n in _SPLIT_NAMES},
        )


@dataclass(frozen=True)
class SynthSpec:
    """Stochastic-block-model generator settings."""

    n: int
    n_blocks: int
    p_in: float
    p_out: float
    feature_dim: int
    class_mean_separation: float
    noise_sigma: float
    seed: int

    def __post_init__(self) -> None:
        if self.n_blocks < 1 or self.n < self.n_blocks:
            raise ValueError("need at least one node per block")
        if self.n % self.n_blocks != 0:
            raise ValueError(
                f"n={self.n} is not divisible by n_blocks={self.n_blocks}"
            )
        for name in ("p_in", "p_out"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {p}")
        if self.feature_dim < self.n_blocks:
            raise ValueError(
                "feature_dim must be at least n_blocks so class means fit on "
                "the scaled simplex"
            )
        if self.class_mean_separation < 0 or self.noise_sigma < 0:
            raise ValueError("separation and noise must be nonnegative")


def synth_sbm(spec: SynthSpec) -> Dataset:
    """Block-model graph with class-conditional Gaussian features.

    Class means sit on the standard simplex vertices scaled by the
    configured separation; labels are block indices; splits are a 48/32/20
    shuffle of the nodes.  Bit-reproducible per seed.
    """
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    size = spec.n // spec.n_blocks
    labels = np.repeat(np.arange(spec.n_blocks), size)
    # the stream gives one draw per upper-triangle pair in row-major order,
    # taken a block of whole rows (about _SBM_DRAWS pairs) per call
    row_len = np.arange(spec.n - 1, 0, -1)
    row_start = np.concatenate(([0], np.cumsum(row_len)))
    pairs = [(np.zeros(0, np.intp),) * 2]  # keeps the concatenation valid at n=1
    lo = 0
    while lo < spec.n - 1:
        hi = min(np.searchsorted(row_start, row_start[lo] + _SBM_DRAWS), spec.n - 1)
        rows = np.repeat(np.arange(lo, hi), row_len[lo:hi])
        cols = np.arange(row_start[lo], row_start[hi]) - row_start[rows] + rows + 1
        p = np.where(labels[cols] == labels[rows], spec.p_in, spec.p_out)
        hit = rng.random(len(rows)) < p
        pairs.append((rows[hit], cols[hit]))
        lo = hi
    # drawn row-major with src < dst, each pair once: already canonical
    src, dst = (np.concatenate(side) for side in zip(*pairs))
    graph = Graph(spec.n, src, dst, np.ones(len(src)))
    means = np.zeros((spec.n_blocks, spec.feature_dim))
    for c in range(spec.n_blocks):
        means[c, c] = spec.class_mean_separation
    features = means[labels] + rng.normal(
        0.0, spec.noise_sigma, (spec.n, spec.feature_dim)
    )
    perm = rng.permutation(spec.n)
    n_train = int(0.48 * spec.n)
    n_val = int(0.32 * spec.n)
    splits = {
        "train": tuple(int(i) for i in perm[:n_train]),
        "val": tuple(int(i) for i in perm[n_train : n_train + n_val]),
        "test": tuple(int(i) for i in perm[n_train + n_val :]),
    }
    return Dataset(graph=graph, features=features, labels=labels, splits=splits)


def synth_cycle(n: int) -> Graph:
    """Cycle on n nodes, unit weights."""
    if n < 2:
        raise ValueError("cycle needs at least 2 nodes")
    return build_graph(n, [(i, (i + 1) % n, 1.0) for i in range(n)])


def synth_path(n: int) -> Graph:
    """Path on n nodes, unit weights."""
    if n < 2:
        raise ValueError("path needs at least 2 nodes")
    return build_graph(n, [(i, i + 1, 1.0) for i in range(n - 1)])


def synth_grid(rows: int, cols: int) -> Graph:
    """Rectangular grid, unit weights, row-major node numbering."""
    if rows < 2 or cols < 2:
        raise ValueError("grid needs at least 2 rows and 2 columns")
    node = np.arange(rows * cols).reshape(rows, cols)
    src = np.concatenate((node[:, :-1], node[:-1]), axis=None)
    dst = np.concatenate((node[:, 1:], node[1:]), axis=None)
    return build_graph(rows * cols, np.column_stack((src, dst, np.ones(len(src)))))


def _atomic_write(path: str, payload) -> None:
    """Write bytes, or an iterable of byte chunks, through a temp file and a rename."""
    tmp = f"{path}.tmp-{os.getpid()}"
    with open(tmp, "wb") as fh:
        fh.writelines([payload] if isinstance(payload, bytes) else payload)
    os.replace(tmp, path)


def _infer_format(path: str, fmt: str | None) -> str:
    if fmt is not None:
        if fmt not in ("binary", "csv"):
            raise ValueError(f"format must be 'binary' or 'csv', got {fmt!r}")
        return fmt
    if path.endswith((".fdmv", ".bin")):
        return "binary"
    if path.endswith(".csv"):
        return "csv"
    raise ValueError(f"cannot infer matrix format from {path!r}; pass fmt")


def save_matrix(m: np.ndarray, path: str, fmt: str | None = None) -> None:
    """Write a 2-D float matrix; format inferred from the extension unless given."""
    arr = np.asarray(m, dtype=float)
    if arr.ndim != 2:
        raise ValueError("only 2-D matrices are supported")
    if _infer_format(path, fmt) == "binary":
        header = struct.pack("<4sIQQ", _MAGIC, _VERSION, arr.shape[0], arr.shape[1])
        _atomic_write(path, header + arr.astype("<f8").tobytes(order="C"))
        return
    lines = [",".join(f"f{j}" for j in range(arr.shape[1]))]
    for row in arr:
        lines.append(",".join(f"{v:.17g}" for v in row))
    _atomic_write(path, ("\n".join(lines) + "\n").encode())


def load_matrix(path: str, fmt: str | None = None) -> np.ndarray:
    """Read a matrix written by save_matrix; errors locate the bad line/bytes."""
    if _infer_format(path, fmt) == "binary":
        with open(path, "rb") as fh:
            blob = fh.read()
        if len(blob) < 24:
            raise ValueError(f"{path}: truncated header ({len(blob)} bytes)")
        magic, version, rows, cols = struct.unpack("<4sIQQ", blob[:24])
        if magic != _MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}")
        if version != _VERSION:
            raise ValueError(f"{path}: unsupported version {version}")
        expected = rows * cols * 8
        if expected > len(blob) - 24:
            raise ValueError(
                f"{path}: header claims {rows}x{cols} but payload has "
                f"{len(blob) - 24} bytes"
            )
        if expected < len(blob) - 24:
            raise ValueError(f"{path}: {len(blob) - 24 - expected} trailing bytes")
        flat = np.frombuffer(blob[24:], dtype="<f8")
        return flat.reshape(int(rows), int(cols)).copy()
    with open(path) as fh:
        text = fh.read()
    if not text:
        raise ValueError(f"{path}: empty file")
    header, _, body = text.partition("\n")
    names = next(csv.reader([header]))
    width = 0 if names == [""] else len(names)

    def parse(rows: list[str]) -> np.ndarray:
        m = np.loadtxt(rows, **_MATRIX_CSV) if rows else np.zeros((0, width))
        if m.shape != (len(rows), width) or not np.isfinite(m).all():
            raise ValueError
        return m

    def explain(line: str) -> str:  # per-cell checks, on the first bad line only
        row = next(csv.reader([line]))
        if len(row) != width:
            return f"expected {width} columns, got {len(row)}"
        for col, cell in enumerate(row):
            try:
                value = float(cell)
            except ValueError:
                return f"column {col}: not a number: {cell!r}"
            if not np.isfinite(value):
                return f"column {col}: non-finite value {cell!r}"
        return f"malformed row {line!r}"

    return _parse_lines(path, body, parse, explain)[0]


def _plain(obj):
    """JSON-ready copy: dataclass -> dict of its fields, array/tuple/list -> list."""
    if is_dataclass(obj):
        return {f.name: _plain(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, dict):
        return {key: _plain(value) for key, value in obj.items()}
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    if isinstance(obj, (tuple, list)):
        return [_plain(v) for v in obj]
    return obj


def save_report(report, path: str) -> None:
    """Serialize a report (dict, dataclass or object with to_dict) as pretty JSON."""
    payload = _plain(report.to_dict() if hasattr(report, "to_dict") else report)
    _atomic_write(path, (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode())


def _parse_lines(path: str, body: str, parse, explain):
    """``parse`` of the nonempty lines after the header, and ``where``.

    ``parse`` raises ValueError if any line is bad; only then does bisection
    find the first bad line and raise ``file:line: explain(line)``.
    ``where(k)`` is the file:line of the k-th parsed line.
    """
    lines = body.split("\n")
    rows = list(filter(None, lines))  # loadtxt warns on an empty body

    def where(k: int) -> str:  # runs on errors only
        return f"{path}:{2 + np.flatnonzero(list(map(len, lines)))[k]}"

    try:
        return parse(rows), where
    except ValueError:
        lo, hi = 0, len(rows)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            try:
                parse(rows[lo:mid])
                lo = mid
            except ValueError:
                hi = mid
        raise ValueError(f"{where(lo)}: {explain(rows[lo])}") from None


def _read_edges(path: str, n: int) -> np.ndarray:
    """Checked (k, 3) edges of an edges CSV; errors name the first bad line."""
    with open(path) as fh:
        header, _, body = fh.read().partition("\n")
    if next(csv.reader([header]), None) != ["src", "dst", "weight"]:
        raise ValueError(f"{path}:1: expected header 'src,dst,weight'")

    def parse(rows: list[str]):
        return np.loadtxt(rows, **_EDGE_CSV) if rows else np.zeros((3, 0))

    (src, dst, w), where = _parse_lines(
        path, body, parse, lambda line: f"malformed edge {line!r}"
    )
    _check_edges(n, src, dst, w, where)
    return np.column_stack((src, dst, w))


def _read_labels(path: str, n: int) -> np.ndarray:
    labels = np.full(n, -1, dtype=int)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["node", "label"]:
            raise ValueError(f"{path}:1: expected header 'node,label'")
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise ValueError(f"{path}:{line_no}: expected 2 fields")
            try:
                node, label = int(row[0]), int(row[1])
            except ValueError:
                raise ValueError(f"{path}:{line_no}: malformed row {row!r}") from None
            if not 0 <= node < n:
                raise ValueError(
                    f"{path}:{line_no}: node {node} out of range for n={n}"
                )
            labels[node] = label
    return labels


def load_dataset(
    edge_path: str, feature_path: str, label_path: str, split_path: str
) -> Dataset:
    """Assemble a Dataset from the four on-disk pieces.

    The node count comes from the feature file; every other file is
    validated against it.  All failures carry the file and line.
    """
    features = load_matrix(feature_path, fmt="csv")
    n = features.shape[0]
    graph = build_graph(n, _read_edges(edge_path, n))
    labels = _read_labels(label_path, n)
    with open(split_path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{split_path}:{exc.lineno}: invalid JSON") from None
    if not isinstance(raw, dict):
        raise ValueError(f"{split_path}: top level must be an object")
    return Dataset(graph=graph, features=features, labels=labels, splits=raw)


def save_dataset(
    ds: Dataset,
    edge_path: str,
    feature_path: str,
    label_path: str,
    split_path: str,
) -> None:
    """Write the four-file representation read back by load_dataset."""
    g = ds.graph

    def edge_lines():  # _EDGE_CHUNK edges at a time, so memory stays flat
        yield b"src,dst,weight\n"
        for k in range(0, len(g.src), _EDGE_CHUNK):
            part = (a[k : k + _EDGE_CHUNK].tolist() for a in (g.src, g.dst, g.weight))
            yield "".join(map("{},{},{:.17g}\n".format, *part)).encode()

    _atomic_write(edge_path, edge_lines())
    save_matrix(ds.features, feature_path, fmt="csv")
    lab_lines = ["node,label"]
    for node, label in enumerate(ds.labels):
        lab_lines.append(f"{node},{int(label)}")
    _atomic_write(label_path, ("\n".join(lab_lines) + "\n").encode())
    payload = {name: list(ds.splits.get(name, ())) for name in _SPLIT_NAMES}
    _atomic_write(split_path, (json.dumps(payload, indent=2) + "\n").encode())
