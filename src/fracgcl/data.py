"""Dataset containers, file formats, and synthetic generators.

File formats are deliberately small and explicit:

* edges: CSV with header ``src,dst,weight``, canonical edges in row-major order
* features: CSV with header ``f0,...,f{d-1}``, one row per node in index order
* labels: CSV with header ``node,label``, both integers parsed like edge
  indices; absent nodes are unlabeled (-1), and the last row of a node wins
* splits: JSON object ``{"train": [...], "val": [...], "test": [...]}`` of
  distinct integral node indices (6.0 counts as 6; 6.9 and ``true`` do not)
* matrices: CSV as above, or the FDMV binary layout: magic ``FDMV``,
  version u32, rows u64, cols u64, then row-major little-endian f64 payload;
  rows without columns need FDMV, since CSV readers skip blank lines

CSV fields may be quoted.  Every parse failure, and every invalid edge or
label node, names the offending line or bytes.
"""

from __future__ import annotations

import csv
import json
import os
import struct
import warnings
from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np

from .graphs import Graph, _check_edges, _graph_of, build_graph

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
_CSV = dict(delimiter=",", comments=None, quotechar='"', ndmin=1)
# pairs per rng call in synth_sbm, and rows per chunk of a written CSV
_SBM_DRAWS = 1 << 16
_CSV_CHUNK = 1 << 13


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
        splits = _check_splits(self.splits, self.graph.n_nodes)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels.astype(int))
        object.__setattr__(self, "splits", splits)


def _as_int(value, name: str) -> int:
    """An integral value as an int; ValueError naming it otherwise.

    6.0 counts as 6; 6.9, strings and booleans (which Python counts as
    ints) are rejected.
    """
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _check_splits(splits: dict, n: int) -> dict:
    """Each split as a tuple of distinct node indices in [0, n)."""
    extra = sorted(set(splits) - set(_SPLIT_NAMES))
    if extra:
        raise ValueError(f"unknown split name {extra[0]!r}")
    out = {}
    seen: set[int] = set()
    for name in _SPLIT_NAMES:
        part = splits.get(name, ())
        if not isinstance(part, (list, tuple, range, np.ndarray)):
            raise ValueError(f"{name} split must be a list of node indices, got {part!r}")
        out[name] = tuple(_as_int(i, f"{name} split index") for i in part)
        for idx in out[name]:
            if not 0 <= idx < n:
                raise ValueError(f"{name} split index {idx} out of range")
            if idx in seen:
                raise ValueError(f"splits overlap at node {idx}")
            seen.add(idx)
    return out


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
        for name in ("class_mean_separation", "noise_sigma"):
            value = getattr(self, name)
            if not 0.0 <= value < np.inf:
                raise ValueError(f"{name} must be finite and nonnegative, got {value}")


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


def _csv_chunks(header: str, row: str, columns):
    """Byte chunks of a CSV file: the header line, then _CSV_CHUNK rows at a time.

    ``row.format`` writes one line from one value of each column, so memory
    stays flat however long the columns are.
    """
    yield f"{header}\n".encode()
    for k in range(0, len(columns[0]) if columns else 0, _CSV_CHUNK):
        part = (c[k : k + _CSV_CHUNK].tolist() for c in columns)
        yield "".join(map(row.format, *part)).encode()


def _infer_format(path: str, fmt: str | None) -> str:
    if fmt is not None:
        if fmt not in ("binary", "csv"):
            raise ValueError(f"format must be 'binary' or 'csv', got {fmt!r}")
        return fmt
    if path.endswith(".fdmv"):
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
    width = arr.shape[1]
    if width == 0 and len(arr):
        # the reader skips blank lines, so a CSV body has no rows without columns
        raise ValueError(
            f"{path}: a CSV cannot hold {len(arr)} rows of 0 columns; use .fdmv"
        )
    header = ",".join(f"f{j}" for j in range(width))
    row = ",".join(["{:.17g}"] * width) + "\n"
    _atomic_write(path, _csv_chunks(header, row, list(arr.T)))


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

    def explain(line: str, width: int) -> str:  # per-cell checks, first bad line only
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

    columns, _ = _read_csv(path, None, explain)
    return np.column_stack(columns) if columns else np.zeros((0, 0))


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


def _read_json_object(path: str) -> dict:
    """The JSON object in a file; errors name the file, and the line of bad JSON."""
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{exc.lineno}: invalid JSON") from None
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: top level must be an object")
    return obj


def _read_csv(path: str, header: dict | None, explain):
    """The columns of a CSV file's nonempty body records, and ``where``.

    ``header`` maps each name the first line must hold to its column's
    dtype; None takes any names, each a finite float column.  The body is
    parsed straight from the open file; only if that fails is it split into
    records, and bisection finds the first bad one to raise
    ``file:line: explain(record, width)``.  ``where(k)`` is the file:line
    of the k-th row's start; it reads the file again, so only errors pay.
    """
    with open(path) as fh:
        first = fh.readline()
        if not first:
            raise ValueError(f"{path}: empty file")
        names = next(csv.reader([first.rstrip("\n")]), [])
        if header is not None and names != list(header):
            raise ValueError(f"{path}:1: expected header {','.join(header)!r}")
        kinds = ["f8"] * len(names) if header is None else list(header.values())
        row = np.dtype([(f"c{j}", kind) for j, kind in enumerate(kinds)])

        def parse(part) -> list[np.ndarray]:
            with warnings.catch_warnings():  # an empty body is no rows
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                table = np.loadtxt(part, dtype=row, **_CSV)
            columns = [table[name] for name in row.names]
            if header is None and not all(np.isfinite(c).all() for c in columns):
                raise ValueError
            return columns

        try:
            return parse(fh), lambda k: f"{path}:{_body_lines(path)[0][k]}"
        except ValueError:
            pass
    lines, rows = _body_lines(path)
    lo, hi = 0, len(rows)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            parse(rows[lo:mid])
            lo = mid
        except ValueError:
            hi = mid
    raise ValueError(f"{path}:{lines[lo]}: {explain(rows[lo], len(kinds))}") from None


def _body_lines(path: str) -> tuple[np.ndarray, list[str]]:
    """The file line number of each nonempty body record of a CSV, and the records.

    A quoted field may span lines, as loadtxt reads it, so csv.reader marks
    where each record starts.  A quote left open past csv's field size limit
    makes each remaining line a record of its own.
    """
    with open(path) as fh:
        body = fh.read().split("\n")[1:]
    reader = csv.reader(body)
    spans, start = [], 0  # each record's first line and the line past it
    try:
        for record in reader:
            if record:
                spans.append((start, reader.line_num))
            start = reader.line_num
    except csv.Error:
        spans += [(i, i + 1) for i in range(start, len(body)) if body[i]]
    rows = ["\n".join(body[a:b]) for a, b in spans]
    return 2 + np.array([a for a, _ in spans], dtype=int), rows


def _read_edges(path: str, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Checked src, dst and weight columns of an edges CSV, each contiguous
    (int64, int64, float64); errors name the first bad line."""
    columns, where = _read_csv(
        path,
        {"src": "i8", "dst": "i8", "weight": "f8"},
        lambda line, _: f"malformed edge {line!r}",
    )
    _check_edges(n, *columns, where)
    return tuple(np.ascontiguousarray(c) for c in columns)


def _read_labels(path: str, n: int) -> np.ndarray:
    """Per-node labels of a labels CSV, -1 where no row names the node."""
    (node, label), where = _read_csv(
        path, {"node": "i8", "label": "i8"}, lambda line, _: f"malformed row {line!r}"
    )
    bad = np.flatnonzero((node < 0) | (node >= n))
    if bad.size:
        k = bad[0]
        raise ValueError(f"{where(k)}: node {node[k]} out of range for n={n}")
    # the last row of each node: its first in the reversed rows
    last = len(node) - 1 - np.unique(node[::-1], return_index=True)[1]
    labels = np.full(n, -1, dtype=int)
    labels[node[last]] = label[last]
    return labels


def load_dataset(
    edge_path: str, feature_path: str, label_path: str, split_path: str
) -> Dataset:
    """Assemble a Dataset from the four on-disk pieces.

    The node count comes from the feature file; every other file is
    validated against it.  All failures carry the file and line.  Edges in
    canonical order, as save_dataset writes them, become the graph without a re-sort.
    """
    features = load_matrix(feature_path, fmt="csv")
    n = features.shape[0]
    graph = _graph_of(n, *_read_edges(edge_path, n))
    labels = _read_labels(label_path, n)
    raw = _read_json_object(split_path)
    try:
        splits = _check_splits(raw, n)
    except ValueError as exc:
        raise ValueError(f"{split_path}: {exc}") from None
    return Dataset(graph=graph, features=features, labels=labels, splits=splits)


def save_dataset(
    ds: Dataset,
    edge_path: str,
    feature_path: str,
    label_path: str,
    split_path: str,
) -> None:
    """Write the four-file representation read back by load_dataset."""
    g = ds.graph
    edges = _csv_chunks("src,dst,weight", "{},{},{:.17g}\n", [g.src, g.dst, g.weight])
    _atomic_write(edge_path, edges)
    save_matrix(ds.features, feature_path, fmt="csv")
    nodes = np.arange(len(ds.labels))
    _atomic_write(label_path, _csv_chunks("node,label", "{},{}\n", [nodes, ds.labels]))
    payload = {name: list(ds.splits.get(name, ())) for name in _SPLIT_NAMES}
    _atomic_write(split_path, (json.dumps(payload, indent=2) + "\n").encode())
