"""Command-line front end.

One binary, seven subcommands::

    fracgcl synth      --out DIR              write a synthetic dataset
    fracgcl train      --config CFG --out DIR fit the encoder bank, save it
    fracgcl embed      --config CFG --out DIR embed a dataset with a saved bank
    fracgcl probe      --config CFG --out DIR linear-probe accuracies as JSON
    fracgcl diagnose   --which W   --out DIR  rc | pca | fourier | theorem
    fracgcl walk       --config CFG --out DIR walker occupancy vs closed form
    fracgcl stability  --config CFG --out DIR perturbation growth vs bound

The run configuration is one dict, built in layers: the defaults, then a
JSON file (``--config``), then each ``--set section.key=value`` in order,
then ``--seed``/``--out``/``--threads``.  Unknown keys are rejected by name.
The training and probe defaults are the field defaults of ``TrainConfig``
and ``ProbeConfig``.  Every run writes ``manifest.json`` with the sha256 of
the merged configuration minus ``output_dir`` and ``threads``, the seed,
library versions, wall time, and whether a ``--threads`` cap took effect.
``train`` and ``embed`` diffuse through the Krylov filter of the normalized
Laplacian's edge rows (``graphs.LaplacianRows``), with no eigendecomposition
and no n x n array, and free the graph once its rows exist (``train`` frees
the rows once the filter is built); ``train`` writes the losses, order
traces and merges to ``report.json``.  Sizes, counts and indices must be
integral (``6.0`` is 6; ``6.9`` and ``true`` are rejected, naming the key).
All files are written atomically and only inside the output directory.

Exit codes: 0 success, 1 validation problem, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import os
import sys
import time
from dataclasses import fields

import numpy as np

from . import __version__
from . import data as dio
from .diagnostics import (
    InitStatePerturbation,
    ProbeConfig,
    WalkConfig,
    check_theorem_sgi,
    ctmc_walk_sim,
    effective_rank,
    energy_spectrum,
    fourier_spread,
    linear_probe,
    random_walk_sim,
    rc_ratio,
    stability_harness,
)
from .encoder import (
    EncoderBank,
    EncoderParams,
    bank_forward,
    combine_views,
)
from .graphs import eigendecompose, laplacian_rows, normalized_laplacian
from .solver import _diffusion_filter, solve_linear_spectral
from .training import TrainConfig, _avla


def _field_defaults(cls) -> dict:
    """A config section from a dataclass: its field defaults, minus the seed."""
    return {f.name: f.default for f in fields(cls) if f.name != "seed"}


_DEFAULTS = {
    "seed": 0,
    "threads": None,
    "output_dir": "out",
    "dataset": {
        "edges": None,
        "features": None,
        "labels": None,
        "splits": None,
    },
    "synth": {
        "n": 60,
        "n_blocks": 3,
        "p_in": 0.5,
        "p_out": 0.1,
        "feature_dim": 4,
        "class_mean_separation": 2.0,
        "noise_sigma": 0.3,
    },
    "train": {
        **_field_defaults(TrainConfig),
        "horizon": 20.0,
        "d_hid": None,
        "activation": "relu",
    },
    "probe": {**_field_defaults(ProbeConfig), "embedding": None},
    "embed": {
        "bank_dir": None,
        "beta": None,
    },
    "diagnose": {
        "embedding": None,
        "theta": 0.9,
        "alpha_local": 0.1,
        "alpha_global": 0.9,
        "tau": 1000.0,
        "skip_count": 4,
        "signal_column": 0,
        "topology": None,
        "n": None,
        "rows": None,
        "cols": None,
    },
    "walk": {
        "alpha": 0.5,
        "t_end": 1.0,
        "delta_tau": 0.01,
        "n_walkers": 10000,
        "start": 0,
        "compare": True,
        "topology": None,
        "n": None,
        "rows": None,
        "cols": None,
    },
    "stability": {
        "alpha": 0.5,
        "eps": 0.05,
        "direction_index": 1,
        "t_grid": [1.0, 2.0, 5.0, 10.0],
        "topology": None,
        "n": None,
        "rows": None,
        "cols": None,
    },
}

_NON_SEMANTIC = ("output_dir", "threads")

_TOPOLOGIES = {
    "cycle": (dio.synth_cycle, ("n",)),
    "path": (dio.synth_path, ("n",)),
    "grid": (dio.synth_grid, ("rows", "cols")),
}


def _integer_keys() -> tuple[str, ...]:
    """Counts, sizes and indices: integral, or None where the default is None.

    They are the keys whose default is an int (not a bool), the two counts
    that default to None, and the size keys of each topology section.
    """
    sizes = {key for _, keys in _TOPOLOGIES.values() for key in keys}
    found = ["threads", "train.d_hid"]
    for name, value in _DEFAULTS.items():
        section = value if isinstance(value, dict) else {"": value}
        for key, default in section.items():
            if type(default) is int or ("topology" in section and key in sizes):
                found.append(f"{name}.{key}" if key else name)
    return tuple(found)


_INTEGER_KEYS = _integer_keys()


def _check_unknown_keys(user: dict) -> None:
    for key, value in user.items():
        if key not in _DEFAULTS:
            raise ValueError(f"unknown config key {key!r}")
        if isinstance(_DEFAULTS[key], dict):
            if not isinstance(value, dict):
                raise ValueError(f"config key {key!r} must be an object")
            for sub in value:
                if sub not in _DEFAULTS[key]:
                    raise ValueError(f"unknown config key '{key}.{sub}'")


def _parse_set_flag(item: str):
    if "=" not in item:
        raise ValueError(f"--set expects key=value, got {item!r}")
    path, raw = item.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    parts = path.split(".")
    if len(parts) == 1:
        return {parts[0]: value}
    if len(parts) == 2:
        return {parts[0]: {parts[1]: value}}
    raise ValueError(f"--set path {path!r} nests too deep")


def _load_config(args: argparse.Namespace) -> dict:
    """The run config: defaults, the --config file, each --set, then the flags."""
    cfg = copy.deepcopy(_DEFAULTS)

    def apply(layer: dict) -> None:
        _check_unknown_keys(layer)
        for key, value in layer.items():
            if isinstance(cfg[key], dict):
                cfg[key].update(value)
            else:
                cfg[key] = value

    if args.config is not None:
        apply(dio._read_json_object(args.config))
    for item in args.set or ():
        apply(_parse_set_flag(item))
    flags = {"seed": args.seed, "output_dir": args.out, "threads": args.threads}
    apply({key: value for key, value in flags.items() if value is not None})
    for path in _INTEGER_KEYS:
        holder, key = _at(cfg, path)
        if holder[key] is not None or _at(_DEFAULTS, path)[0][key] is not None:
            holder[key] = dio._as_int(holder[key], path)
    cfg["output_dir"] = str(cfg["output_dir"])
    return cfg


def _at(tree: dict, path: str) -> tuple[dict, str]:
    """The dict that holds the dotted config key path, and the key in it."""
    *section, key = path.split(".")
    return (tree[section[0]] if section else tree), key


def _config_hash(cfg: dict) -> str:
    body = {key: value for key, value in cfg.items() if key not in _NON_SEMANTIC}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


def _apply_thread_cap(threads: int | None) -> bool:
    """Cap BLAS threads through threadpoolctl; returns whether a cap took effect.

    Thread-count environment variables would come too late here: numpy has
    loaded BLAS by the time a subcommand runs.
    """
    if threads is None:
        return False
    if threads < 1:
        raise ValueError(f"threads must be positive, got {threads}")
    try:
        from threadpoolctl import threadpool_limits
    except ImportError:
        return False
    threadpool_limits(limits=threads)
    return True


def _out_path(cfg: dict, name: str) -> str:
    return os.path.join(cfg["output_dir"], name)


def _load_dataset(cfg: dict) -> dio.Dataset:
    paths = cfg["dataset"]
    missing = [k for k in ("edges", "features", "labels", "splits") if not paths.get(k)]
    if missing:
        raise ValueError(f"dataset config is missing path(s): {', '.join(missing)}")
    return dio.load_dataset(
        paths["edges"], paths["features"], paths["labels"], paths["splits"]
    )


def _resolve_graph(cfg: dict, name: str):
    """Graph from section ``name``'s inline topology, else from the dataset."""
    section = cfg[name]
    topology = section["topology"]
    if topology is None:
        return _load_dataset(cfg).graph
    if topology not in _TOPOLOGIES:
        raise ValueError(f"unknown topology {topology!r}")
    make, keys = _TOPOLOGIES[topology]
    for key in keys:
        if section[key] is None:
            raise ValueError(f"{name}.{key} is required for topology {topology!r}")
    return make(*(section[key] for key in keys))


def _nan_to_none(value: float):
    return None if isinstance(value, float) and np.isnan(value) else value


def cmd_synth(cfg: dict, args: argparse.Namespace) -> None:
    spec = dio.SynthSpec(seed=cfg["seed"], **cfg["synth"])
    ds = dio.synth_sbm(spec)
    dio.save_dataset(
        ds,
        _out_path(cfg, "edges.csv"),
        _out_path(cfg, "features.csv"),
        _out_path(cfg, "labels.csv"),
        _out_path(cfg, "splits.json"),
    )


def _rows_and_features(cfg: dict):
    """The dataset's Laplacian rows and features; the rest of it is freed."""
    ds = _load_dataset(cfg)
    return laplacian_rows(ds.graph), ds.features


def cmd_train(cfg: dict, args: argparse.Namespace) -> None:
    section = dict(cfg["train"])
    horizon = float(section.pop("horizon"))
    d_hid = section.pop("d_hid")
    if d_hid is not None and d_hid < 1:
        raise ValueError(f"train.d_hid must be positive, got {d_hid}")
    activation = section.pop("activation")
    train_cfg = TrainConfig(seed=cfg["seed"], **section)
    # all that training needs of the graph is the filter: the rows are a temporary
    filt = _diffusion_filter(*_rows_and_features(cfg), horizon)
    _, _, bank, report = _avla(filt, train_cfg, horizon, d_hid, activation=activation)
    dio.save_report(report, _out_path(cfg, "report.json"))
    meta = {
        "alphas": bank.alphas,
        "horizon": bank.encoders[0].horizon,
        "activation": activation,
        "weight_files": [f"w{k}.fdmv" for k in range(len(bank))],
    }
    dio.save_report(meta, _out_path(cfg, "bank.json"))
    for k, enc in enumerate(bank.encoders):
        dio.save_matrix(enc.weights, _out_path(cfg, f"w{k}.fdmv"))


def _is_number(value) -> bool:
    """Whether a JSON value is a number (Python counts booleans as ints)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _load_bank(bank_dir: str) -> tuple[EncoderBank, str]:
    meta_path = os.path.join(bank_dir, "bank.json")
    meta = dio._read_json_object(meta_path)
    for key in ("alphas", "weight_files", "horizon", "activation"):
        if key not in meta:
            raise ValueError(f"{meta_path}: missing key {key!r}")
    alphas, files, horizon = meta["alphas"], meta["weight_files"], meta["horizon"]
    checks = {
        "alphas": (
            isinstance(alphas, list)
            and all(_is_number(a) and 0.0 < a <= 1.0 for a in alphas)
            and alphas == sorted(alphas),
            "a list of ascending numbers in (0, 1]",
        ),
        "weight_files": (
            isinstance(files, list) and all(isinstance(f, str) for f in files),
            "a list of file names",
        ),
        "horizon": (
            _is_number(horizon) and 0.0 < horizon < np.inf,
            "a finite positive number",
        ),
        "activation": (isinstance(meta["activation"], str), "a string"),
    }
    for key, (ok, kind) in checks.items():
        if not ok:
            raise ValueError(f"{meta_path}: {key!r} must be {kind}, got {meta[key]!r}")
    if len(alphas) != len(files):
        raise ValueError(f"{meta_path}: alphas and weight_files differ in length")
    encoders = []
    for alpha, fname in zip(alphas, files):
        w = dio.load_matrix(os.path.join(bank_dir, fname))
        encoders.append(EncoderParams(weights=w, alpha=alpha, horizon=horizon))
    return EncoderBank(encoders=tuple(encoders)), meta["activation"]


def cmd_embed(cfg: dict, args: argparse.Namespace) -> None:
    bank_dir = cfg["embed"]["bank_dir"] or cfg["output_dir"]
    bank, activation = _load_bank(bank_dir)
    k, beta = len(bank), cfg["embed"]["beta"]
    beta = np.full(k, 1.0 / k) if beta is None else np.asarray(beta, dtype=float)
    if beta.shape != (k,):
        raise ValueError(
            f"embed.beta needs one weight per view: {k} views, got shape {beta.shape}"
        )
    views = bank_forward(*_rows_and_features(cfg), bank, activation=activation)
    combined = combine_views(views, beta)
    for k, view in enumerate(views):
        dio.save_matrix(view.matrix, _out_path(cfg, f"view{k}.fdmv"))
    dio.save_matrix(combined, _out_path(cfg, "combined.fdmv"))
    dio.save_report({"beta": beta, "views": len(views)}, _out_path(cfg, "embed.json"))


def _embedding_or_features(section: dict, ds: dio.Dataset):
    path = section["embedding"]
    return ds.features if path is None else dio.load_matrix(path)


def cmd_probe(cfg: dict, args: argparse.Namespace) -> None:
    ds = _load_dataset(cfg)
    section = cfg["probe"]
    y = _embedding_or_features(section, ds)
    if len(y) != len(ds.labels):  # only a loaded embedding can differ
        n, path = len(ds.labels), section["embedding"]
        raise ValueError(f"{path}: embedding has {len(y)} rows for {n} nodes")
    knobs = {key: value for key, value in section.items() if key != "embedding"}
    probe_cfg = ProbeConfig(**knobs)
    train_acc, val_acc, test_acc = linear_probe(y, ds.labels, ds.splits, probe_cfg)
    dio.save_report(
        {
            "train": _nan_to_none(train_acc),
            "val": _nan_to_none(val_acc),
            "test": _nan_to_none(test_acc),
        },
        _out_path(cfg, "accuracy.json"),
    )


def cmd_diagnose(cfg: dict, args: argparse.Namespace) -> None:
    section = cfg["diagnose"]
    which = args.which
    if which == "theorem":
        if section["topology"] is None:
            ds = _load_dataset(cfg)
            graph = ds.graph
            signal = ds.features[:, section["signal_column"]]
        else:
            graph = _resolve_graph(cfg, "diagnose")
            signal = np.ones(graph.n_nodes)
        spectral = check_theorem_sgi(
            eigendecompose(normalized_laplacian(graph)),
            signal,
            alpha_local=float(section["alpha_local"]),
            alpha_global=float(section["alpha_global"]),
            tau=float(section["tau"]),
            skip_count=section["skip_count"],
        )
        report = spectral.to_dict()
        for name, verdict in sorted(report["verdicts"].items()):
            print(f"{name}: {'PASS' if verdict else 'FAIL'}")
    else:
        ds = _load_dataset(cfg)
        y = _embedding_or_features(section, ds)
        if which == "rc":
            report = {str(c): v for c, v in rc_ratio(y, ds.labels).items()}
        elif which == "pca":
            theta = float(section["theta"])
            report = {
                "energy_spectrum": energy_spectrum(y),
                "effective_rank": effective_rank(y, theta=theta),
                "theta": theta,
            }
        else:
            basis = eigendecompose(normalized_laplacian(ds.graph))
            report = {
                "eigenvalues": basis.eigenvalues,
                "spread": fourier_spread(basis, y),
            }
    dio.save_report(report, _out_path(cfg, f"diagnose_{which}.json"))


def cmd_walk(cfg: dict, args: argparse.Namespace) -> None:
    section = cfg["walk"]
    graph = _resolve_graph(cfg, "walk")
    alpha = float(section["alpha"])
    t_end = float(section["t_end"])
    start = section["start"]
    n_walkers = section["n_walkers"]
    if alpha == 1.0:
        occupancy = ctmc_walk_sim(graph, t_end, n_walkers, cfg["seed"], start)
    else:
        walk_cfg = WalkConfig(
            alpha=alpha,
            t_end=t_end,
            delta_tau=float(section["delta_tau"]),
            n_walkers=n_walkers,
            seed=cfg["seed"],
        )
        occupancy = random_walk_sim(graph, walk_cfg, start)
    dio.save_matrix(occupancy.reshape(-1, 1), _out_path(cfg, "distribution.csv"))
    report = {
        "alpha": alpha,
        "t_end": t_end,
        "n_walkers": n_walkers,
        "start": start,
    }
    if section["compare"]:
        basis = eigendecompose(normalized_laplacian(graph))
        y0 = np.zeros((graph.n_nodes, 1))
        y0[start, 0] = 1.0
        closed = solve_linear_spectral(basis, y0, alpha, t_end).ravel()
        report["tv_vs_spectral"] = float(0.5 * np.abs(occupancy - closed).sum())
    dio.save_report(report, _out_path(cfg, "walk.json"))


def cmd_stability(cfg: dict, args: argparse.Namespace) -> None:
    section = cfg["stability"]
    graph = _resolve_graph(cfg, "stability")
    basis = eigendecompose(normalized_laplacian(graph))
    idx = section["direction_index"]
    if not 0 <= idx < graph.n_nodes:
        raise ValueError(f"direction_index {idx} out of range")
    perturbation = InitStatePerturbation(
        eps=float(section["eps"]),
        direction=basis.eigenvectors[:, idx],
    )
    t_grid = np.asarray(section["t_grid"], dtype=float)
    y0 = np.ones((graph.n_nodes, 1))
    report = stability_harness(
        basis, y0, float(section["alpha"]), t_grid, perturbation
    )
    table = np.column_stack([report.times, report.discrepancy])
    dio.save_matrix(table, _out_path(cfg, "discrepancy.csv"))
    dio.save_report(report, _out_path(cfg, "stability.json"))


_COMMANDS = {
    "synth": cmd_synth,
    "train": cmd_train,
    "embed": cmd_embed,
    "probe": cmd_probe,
    "diagnose": cmd_diagnose,
    "walk": cmd_walk,
    "stability": cmd_stability,
}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file")
    common.add_argument("--out", help="output directory (overrides config)")
    common.add_argument("--seed", type=int, help="root seed (overrides config)")
    common.add_argument("--threads", type=int, help="cap BLAS worker threads")
    common.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override one config key, e.g. --set train.lr_w=0.05",
    )
    parser = argparse.ArgumentParser(
        prog="fracgcl",
        description="fractional-diffusion graph embeddings and their checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name, parents=[common])
        if name == "diagnose":
            p.add_argument(
                "--which",
                required=True,
                choices=("rc", "pca", "fourier", "theorem"),
                help="which diagnostic to run",
            )
    return parser


def _write_manifest(cfg: dict, command: str, started: float, capped: bool) -> None:
    manifest = {
        "command": command,
        "config_hash": _config_hash(cfg),
        "seed": cfg["seed"],
        "threads_capped": capped,
        "versions": {
            "package": __version__,
            "python": sys.version.split()[0],
            "numpy": np.__version__,
        },
        "wall_time_s": round(time.perf_counter() - started, 6),
    }
    dio.save_report(manifest, _out_path(cfg, "manifest.json"))


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    started = time.perf_counter()
    try:
        cfg = _load_config(args)
        capped = _apply_thread_cap(cfg["threads"])
        os.makedirs(cfg["output_dir"], exist_ok=True)
        _COMMANDS[args.command](cfg, args)
        _write_manifest(cfg, args.command, started, capped)
    except (ValueError, TypeError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (FloatingPointError, np.linalg.LinAlgError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
