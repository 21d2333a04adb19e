"""Command-line front end.

One binary, eight subcommands::

    fracgcl synth      --out DIR              write a synthetic dataset
    fracgcl train      --config CFG --out DIR fit the encoder bank, save it
    fracgcl embed      --config CFG --out DIR embed a dataset with a saved bank
    fracgcl probe      --config CFG --out DIR linear-probe accuracies as JSON
    fracgcl avla-trace --config CFG --out DIR merge events and order traces
    fracgcl diagnose   --which W   --out DIR  rc | pca | fourier | theorem
    fracgcl walk       --config CFG --out DIR walker occupancy vs closed form
    fracgcl stability  --config CFG --out DIR perturbation growth vs bound

Configuration comes from a JSON file (``--config``); individual keys can be
overridden on the command line with repeated ``--set section.key=value``
flags, and ``--seed``/``--out`` always win over the file.  Unknown keys are
rejected by name.  Every run writes ``manifest.json`` with a hash of the
semantic configuration (everything except ``output_dir`` and ``threads``),
the seed, library versions, wall time, and whether a ``--threads`` cap
took effect.  All files are written atomically and only inside the output
directory.

Exit codes: 0 success, 1 validation problem, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

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
from .encoder import EncoderBank, EncoderParams, combine_views, encoder_forward
from .graphs import eigendecompose, normalized_laplacian
from .solver import solve_linear_spectral
from .training import TrainConfig, avla

_VERSION = "0.1.0"

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
        "k_init": 5,
        "lr_w": 0.01,
        "lr_alpha": 0.01,
        "epochs_n": 50,
        "clip_eps": 1e-4,
        "merge_delta": 1e-4,
        "eta": 1.0,
        "horizon": 20.0,
        "d_hid": None,
        "activation": "relu",
    },
    "probe": {
        "l2_weight": 1e-4,
        "epochs": 300,
        "lr": 0.5,
        "embedding": None,
    },
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


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, value in override.items():
        if isinstance(out.get(key), dict) and isinstance(value, dict):
            out[key] = {**out[key], **value}
        else:
            out[key] = value
    return out


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


@dataclass(frozen=True)
class RunConfig:
    """Effective configuration after merging defaults, file, and flags."""

    seed: int
    threads: int | None
    output_dir: str
    dataset: dict = field(default_factory=dict)
    synth: dict = field(default_factory=dict)
    train: dict = field(default_factory=dict)
    probe: dict = field(default_factory=dict)
    embed: dict = field(default_factory=dict)
    diagnose: dict = field(default_factory=dict)
    walk: dict = field(default_factory=dict)
    stability: dict = field(default_factory=dict)

    @classmethod
    def from_sources(cls, args: argparse.Namespace) -> "RunConfig":
        merged = dict(_DEFAULTS)
        if args.config is not None:
            with open(args.config) as fh:
                try:
                    file_cfg = json.load(fh)
                except json.JSONDecodeError as exc:
                    raise ValueError(
                        f"{args.config}:{exc.lineno}: invalid JSON"
                    ) from None
            if not isinstance(file_cfg, dict):
                raise ValueError(f"{args.config}: top level must be an object")
            _check_unknown_keys(file_cfg)
            merged = _merge(merged, file_cfg)
        for item in args.set or ():
            override = _parse_set_flag(item)
            _check_unknown_keys(override)
            merged = _merge(merged, override)
        if args.seed is not None:
            merged["seed"] = args.seed
        if args.out is not None:
            merged["output_dir"] = args.out
        if args.threads is not None:
            merged["threads"] = args.threads
        if not isinstance(merged["seed"], int):
            raise ValueError(f"seed must be an integer, got {merged['seed']!r}")
        return cls(
            seed=merged["seed"],
            threads=merged["threads"],
            output_dir=str(merged["output_dir"]),
            dataset=merged["dataset"],
            synth=merged["synth"],
            train=merged["train"],
            probe=merged["probe"],
            embed=merged["embed"],
            diagnose=merged["diagnose"],
            walk=merged["walk"],
            stability=merged["stability"],
        )

    def semantic_hash(self) -> str:
        body = {
            "seed": self.seed,
            "dataset": self.dataset,
            "synth": self.synth,
            "train": self.train,
            "probe": self.probe,
            "embed": self.embed,
            "diagnose": self.diagnose,
            "walk": self.walk,
            "stability": self.stability,
        }
        blob = json.dumps(body, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


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


def _out_path(cfg: RunConfig, name: str) -> str:
    return os.path.join(cfg.output_dir, name)


def _load_dataset(cfg: RunConfig) -> dio.Dataset:
    paths = cfg.dataset
    missing = [k for k in ("edges", "features", "labels", "splits") if not paths.get(k)]
    if missing:
        raise ValueError(f"dataset config is missing path(s): {', '.join(missing)}")
    return dio.load_dataset(
        paths["edges"], paths["features"], paths["labels"], paths["splits"]
    )


def _resolve_graph(cfg: RunConfig, section: dict):
    """Graph from an inline topology spec, else from the configured dataset."""
    topology = section.get("topology")
    if topology is None:
        return _load_dataset(cfg).graph
    if topology == "cycle":
        return dio.synth_cycle(int(section["n"]))
    if topology == "path":
        return dio.synth_path(int(section["n"]))
    if topology == "grid":
        return dio.synth_grid(int(section["rows"]), int(section["cols"]))
    raise ValueError(f"unknown topology {topology!r}")


def _nan_to_none(value: float):
    return None if isinstance(value, float) and np.isnan(value) else value


def cmd_synth(cfg: RunConfig, args: argparse.Namespace) -> None:
    spec = dio.SynthSpec(seed=cfg.seed, **cfg.synth)
    ds = dio.synth_sbm(spec)
    dio.save_dataset(
        ds,
        _out_path(cfg, "edges.csv"),
        _out_path(cfg, "features.csv"),
        _out_path(cfg, "labels.csv"),
        _out_path(cfg, "splits.json"),
    )


def _train_pieces(cfg: RunConfig):
    ds = _load_dataset(cfg)
    basis = eigendecompose(normalized_laplacian(ds.graph))
    section = dict(cfg.train)
    horizon = float(section.pop("horizon"))
    d_hid = section.pop("d_hid")
    activation = section.pop("activation")
    train_cfg = TrainConfig(seed=cfg.seed, **section)
    k, finals, bank, report = avla(
        basis,
        ds.features,
        train_cfg,
        horizon,
        d_hid=None if d_hid is None else int(d_hid),
        activation=activation,
    )
    return ds, basis, k, finals, bank, report, activation


def cmd_train(cfg: RunConfig, args: argparse.Namespace) -> None:
    _, _, _, _, bank, report, activation = _train_pieces(cfg)
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


def cmd_avla_trace(cfg: RunConfig, args: argparse.Namespace) -> None:
    _, _, k, finals, _, report, _ = _train_pieces(cfg)
    payload = report.to_dict()
    payload["k_final"] = k
    dio.save_report(payload, _out_path(cfg, "trace.json"))


def _load_bank(bank_dir: str) -> tuple[EncoderBank, str]:
    meta_path = os.path.join(bank_dir, "bank.json")
    with open(meta_path) as fh:
        meta = json.load(fh)
    encoders = []
    for alpha, fname in zip(meta["alphas"], meta["weight_files"]):
        w = dio.load_matrix(os.path.join(bank_dir, fname))
        encoders.append(
            EncoderParams(weights=w, alpha=alpha, horizon=meta["horizon"])
        )
    return EncoderBank(encoders=tuple(encoders)), meta["activation"]


def cmd_embed(cfg: RunConfig, args: argparse.Namespace) -> None:
    bank_dir = cfg.embed.get("bank_dir") or cfg.output_dir
    bank, activation = _load_bank(bank_dir)
    ds = _load_dataset(cfg)
    basis = eigendecompose(normalized_laplacian(ds.graph))
    views = [
        encoder_forward(basis, ds.features, enc, activation=activation)
        for enc in bank.encoders
    ]
    beta = cfg.embed.get("beta")
    if beta is None:
        beta = np.full(len(views), 1.0 / len(views))
    combined = combine_views(views, np.asarray(beta, dtype=float))
    for k, view in enumerate(views):
        dio.save_matrix(view.matrix, _out_path(cfg, f"view{k}.fdmv"))
    dio.save_matrix(combined, _out_path(cfg, "combined.fdmv"))
    dio.save_report(
        {"beta": [float(b) for b in beta], "views": len(views)},
        _out_path(cfg, "embed.json"),
    )


def _embedding_or_features(cfg: RunConfig, section: dict, ds: dio.Dataset):
    path = section.get("embedding")
    return ds.features if path is None else dio.load_matrix(path)


def cmd_probe(cfg: RunConfig, args: argparse.Namespace) -> None:
    ds = _load_dataset(cfg)
    y = _embedding_or_features(cfg, cfg.probe, ds)
    probe_cfg = ProbeConfig(
        l2_weight=cfg.probe["l2_weight"],
        epochs=cfg.probe["epochs"],
        lr=cfg.probe["lr"],
        seed=cfg.seed,
    )
    train_acc, val_acc, test_acc = linear_probe(y, ds.labels, ds.splits, probe_cfg)
    dio.save_report(
        {
            "train": _nan_to_none(train_acc),
            "val": _nan_to_none(val_acc),
            "test": _nan_to_none(test_acc),
        },
        _out_path(cfg, "accuracy.json"),
    )


def cmd_diagnose(cfg: RunConfig, args: argparse.Namespace) -> None:
    section = cfg.diagnose
    which = args.which
    if which == "rc":
        ds = _load_dataset(cfg)
        y = _embedding_or_features(cfg, section, ds)
        report = {str(c): v for c, v in rc_ratio(y, ds.labels).items()}
    elif which == "pca":
        ds = _load_dataset(cfg)
        y = _embedding_or_features(cfg, section, ds)
        report = {
            "energy_spectrum": [float(v) for v in energy_spectrum(y)],
            "effective_rank": effective_rank(y, theta=float(section["theta"])),
            "theta": float(section["theta"]),
        }
    elif which == "fourier":
        ds = _load_dataset(cfg)
        y = _embedding_or_features(cfg, section, ds)
        basis = eigendecompose(normalized_laplacian(ds.graph))
        report = {
            "eigenvalues": [float(v) for v in basis.eigenvalues],
            "spread": [float(v) for v in fourier_spread(basis, y)],
        }
    elif which == "theorem":
        graph = _resolve_graph(cfg, section)
        basis = eigendecompose(normalized_laplacian(graph))
        if section.get("topology") is None:
            ds = _load_dataset(cfg)
            signal = ds.features[:, int(section["signal_column"])]
        else:
            signal = np.ones(graph.n_nodes)
        spectral = check_theorem_sgi(
            basis,
            signal,
            alpha_local=float(section["alpha_local"]),
            alpha_global=float(section["alpha_global"]),
            tau=float(section["tau"]),
            skip_count=int(section["skip_count"]),
        )
        report = spectral.to_dict()
        for name, verdict in sorted(report["verdicts"].items()):
            print(f"{name}: {'PASS' if verdict else 'FAIL'}")
    else:
        raise ValueError(f"unknown diagnose target {which!r}")
    dio.save_report(report, _out_path(cfg, f"diagnose_{which}.json"))


def cmd_walk(cfg: RunConfig, args: argparse.Namespace) -> None:
    section = cfg.walk
    graph = _resolve_graph(cfg, section)
    alpha = float(section["alpha"])
    t_end = float(section["t_end"])
    start = int(section["start"])
    n_walkers = int(section["n_walkers"])
    if alpha == 1.0:
        occupancy = ctmc_walk_sim(graph, t_end, n_walkers, cfg.seed, start)
    else:
        walk_cfg = WalkConfig(
            alpha=alpha,
            t_end=t_end,
            delta_tau=float(section["delta_tau"]),
            n_walkers=n_walkers,
            seed=cfg.seed,
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


def cmd_stability(cfg: RunConfig, args: argparse.Namespace) -> None:
    section = cfg.stability
    graph = _resolve_graph(cfg, section)
    basis = eigendecompose(normalized_laplacian(graph))
    idx = int(section["direction_index"])
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
    "avla-trace": cmd_avla_trace,
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


def _write_manifest(cfg: RunConfig, command: str, started: float, capped: bool) -> None:
    manifest = {
        "command": command,
        "config_hash": cfg.semantic_hash(),
        "seed": cfg.seed,
        "threads_capped": capped,
        "versions": {
            "package": _VERSION,
            "python": sys.version.split()[0],
            "numpy": np.__version__,
        },
        "wall_time_s": round(time.perf_counter() - started, 6),
    }
    try:
        import scipy

        manifest["versions"]["scipy"] = scipy.__version__
    except ImportError:
        pass
    dio.save_report(manifest, _out_path(cfg, "manifest.json"))


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    started = time.perf_counter()
    try:
        cfg = RunConfig.from_sources(args)
        capped = _apply_thread_cap(cfg.threads)
        os.makedirs(cfg.output_dir, exist_ok=True)
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
