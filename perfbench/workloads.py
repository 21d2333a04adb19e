"""The three benchmark workloads: inputs, one operation, and its output check.

Every workload is a closed loop with one caller: the next operation starts
when the last one has finished.  Inputs come only from the benchmark seed.

``train-n200``
    ``avla`` on criterion 10's block model (n=200) with criterion 10's
    training settings.  The seed draws a node relabelling of that dataset,
    so every seed gives the program a different adjacency, feature matrix
    and eigenbasis, while training is equivariant under the relabelling:
    the final orders and loss must match the reference recorded for the
    unrelabelled dataset, and the cost of a run does not depend on the seed.
``pipeline-n2000``
    The README quickstart chain as four ``fracgcl`` processes at n=2000
    (``synth`` with the seed, ``train`` for one epoch, ``embed``, ``probe``).
    The training seed is fixed, so the initial orders, and with them the
    kernel's evaluation paths, are the same on every benchmark seed.
``walk-cycle``
    Criterion 6's heavy-tailed walk (cycle of 10, order 1/2, 100k walkers)
    and unit-rate walkers on the same cycle, seeded and started at a node
    drawn from the benchmark seed.  The cycle is regular, so the walkers'
    random-walk Laplacian equals the symmetric normalised one that the
    closed form uses.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import struct
import subprocess
import sys
from time import perf_counter

import numpy as np

# Calls go through the module attributes, so that the span wrappers
# installed into these modules see them.
from fracgcl import data, diagnostics, encoder, graphs, solver, training

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference.json")

# Relative tolerance of the train-n200 reference check: loose enough for a
# kernel that moves trajectories by about 1e-12, tight enough to catch a
# changed merge or a broken gradient.
REF_RTOL = 1e-6


def _criterion10_spec(n: int) -> data.SynthSpec:
    return data.SynthSpec(
        n=n,
        n_blocks=2,
        p_in=0.02,
        p_out=0.1,
        feature_dim=8,
        class_mean_separation=0.36,
        noise_sigma=1.0,
        seed=0,
    )


def relabel(ds: data.Dataset, perm: np.ndarray) -> data.Dataset:
    """The same dataset with new node k being old node ``perm[k]``."""
    new_of_old = np.argsort(perm)
    edges = [(int(new_of_old[i]), int(new_of_old[j]), w) for i, j, w in ds.graph.edges]
    return data.Dataset(
        graph=graphs.build_graph(len(perm), edges),
        features=ds.features[perm],
        labels=ds.labels[perm],
        splits={
            name: tuple(int(new_of_old[i]) for i in part)
            for name, part in ds.splits.items()
        },
    )


def tv_distance(p: np.ndarray, q: np.ndarray) -> float:
    return 0.5 * float(np.abs(np.asarray(p) - np.asarray(q)).sum())


class TrainN200:
    name = "train-n200"
    primary = "train_s"
    setup_batch = 5
    # one operation takes 12-28 s on a 2-core machine; the median of two
    # damps the machine's slow phases
    min_ops = 2

    def __init__(self, seed: int, toy: bool = False, reference: dict | None = None):
        self.seed = seed
        self.n, self.epochs = (40, 3) if toy else (200, 30)
        self.key = f"n={self.n},epochs={self.epochs}"
        if reference is None:
            with open(REFERENCE) as fh:
                reference = json.load(fh)[self.name][self.key]
        self.reference = reference

    def setup(self):
        return self.inputs(np.random.default_rng(self.seed).permutation(self.n))

    def inputs(self, perm: np.ndarray):
        ds = relabel(data.synth_sbm(_criterion10_spec(self.n)), perm)
        basis = graphs.eigendecompose(graphs.normalized_laplacian(ds.graph))
        return ds, basis

    def op(self, state, tracer=None) -> dict:
        ds, basis = state
        cfg = training.TrainConfig(
            k_init=5, lr_w=0.05, lr_alpha=0.05, epochs_n=self.epochs, eta=1.0, seed=0
        )
        t0 = perf_counter()
        _, finals, bank, report = training.avla(
            basis, ds.features, cfg, horizon=20.0, d_hid=8, activation="identity"
        )
        train_s = perf_counter() - t0
        views = [
            encoder.encoder_forward(basis, ds.features, enc, activation="identity").matrix
            for enc in bank.encoders
        ]
        acc = diagnostics.linear_probe(
            np.hstack(views), ds.labels, ds.splits, diagnostics.ProbeConfig(seed=0)
        )
        return {
            "times": {"train_s": train_s, "epochs_per_s": report.epochs / train_s},
            "epochs": report.epochs,
            "rounds": len(report.alpha_traces),
            "merges": len(report.merge_events),
            "final_round_epochs": len(report.alpha_traces[-1]) - 1,
            "final_alphas": [float(a) for a in finals],
            "final_loss": float(report.losses[-1]),
            "probe_test_acc": acc[2],
        }

    def check(self, state, out: dict) -> list[str]:
        ref = self.reference
        errors = []
        if len(out["final_alphas"]) != len(ref["final_alphas"]) or not np.allclose(
            out["final_alphas"], ref["final_alphas"], rtol=REF_RTOL, atol=0.0
        ):
            errors.append(
                f"final orders {out['final_alphas']} != reference {ref['final_alphas']}"
            )
        if not np.isclose(out["final_loss"], ref["final_loss"], rtol=REF_RTOL, atol=0.0):
            errors.append(
                f"final loss {out['final_loss']!r} != reference {ref['final_loss']!r}"
            )
        return errors


class PipelineN2000:
    name = "pipeline-n2000"
    primary = "chain_s"
    setup_batch = 1
    min_ops = 1
    train_seed = 7  # the README's; fixed so the initial orders never change

    def __init__(self, seed: int, toy: bool = False):
        self.seed = seed
        self.n = 60 if toy else 2000
        self.workdir = os.path.join(OUT, self.name)

    def _synth_sets(self) -> list[str]:
        values = {
            "n": self.n,
            "n_blocks": 2,
            "p_in": 0.02,
            "p_out": 0.1,
            "feature_dim": 8,
            "class_mean_separation": 0.36,
            "noise_sigma": 1.0,
        }
        sets = []
        for key, value in values.items():
            sets += ["--set", f"synth.{key}={value}"]
        return sets

    def setup(self):
        shutil.rmtree(self.workdir, ignore_errors=True)
        os.makedirs(self.workdir)
        config = {
            "dataset": {
                "edges": "data/edges.csv",
                "features": "data/features.csv",
                "labels": "data/labels.csv",
                "splits": "data/splits.json",
            },
            "train": {"k_init": 5, "epochs_n": 1, "horizon": 20.0},
            "output_dir": "run",
        }
        with open(os.path.join(self.workdir, "run.json"), "w") as fh:
            json.dump(config, fh, indent=2)
        # a warm import: the interpreter, numpy, scipy and fracgcl byte code
        # are in the page cache before the first timed command
        subprocess.run([sys.executable, "-c", "import fracgcl.cli"], check=True)
        return self.workdir

    def commands(self) -> list[tuple[str, list[str]]]:
        seed = str(self.seed % 2**32)
        train_seed = str(self.train_seed)
        return [
            ("synth", ["synth", "--out", "data", "--seed", seed, *self._synth_sets()]),
            ("train", ["train", "--config", "run.json", "--seed", train_seed]),
            ("embed", ["embed", "--config", "run.json", "--seed", train_seed]),
            (
                "probe",
                ["probe", "--config", "run.json", "--set", "probe.embedding=run/combined.fdmv"],
            ),
        ]

    def op(self, state, tracer=None) -> dict:
        workdir = state
        for sub in ("data", "run"):
            shutil.rmtree(os.path.join(workdir, sub), ignore_errors=True)
        times, codes, stderr, child_spans = {}, {}, {}, []
        chain_t0 = perf_counter()
        for cmd, args in self.commands():
            spans_path = "-"
            span = contextlib.nullcontext()
            if tracer is not None:
                # read after the run, so that parsing spans is not timed
                spans_path = os.path.join(OUT, f"child-spans-{len(tracer.spans)}.jsonl")
                span = tracer.span(f"bench.{cmd}.process")
            t0 = perf_counter()
            with span as span_id:
                proc = subprocess.run(
                    [sys.executable, os.path.join(HERE, "child.py"), spans_path, *args],
                    cwd=workdir,
                    capture_output=True,
                    text=True,
                )
            times[f"{cmd}_s"] = perf_counter() - t0
            if tracer is not None:
                child_spans.append((span_id, spans_path))
            codes[cmd] = proc.returncode
            stderr[cmd] = proc.stderr.strip()[-500:]
            if proc.returncode != 0:
                break
        times["chain_s"] = perf_counter() - chain_t0
        out = {"times": times, "codes": codes, "stderr": stderr, "child_spans": child_spans}
        report_path = os.path.join(workdir, "run", "report.json")
        if codes.get("train") == 0 and os.path.isfile(report_path):
            with open(report_path) as fh:
                report = json.load(fh)
            out["epochs"] = report["epochs"]
            out["rounds"] = len(report["alpha_traces"])
            out["merges"] = len(report["merge_events"])
            out["final_round_epochs"] = len(report["alpha_traces"][-1]) - 1
            times["epochs_per_s"] = report["epochs"] / times["train_s"]
        return out

    def check(self, state, out: dict) -> list[str]:
        workdir = state
        errors = [
            f"fracgcl {cmd} exited {code}: {out['stderr'][cmd]}"
            for cmd, code in out["codes"].items()
            if code != 0
        ]
        if len(out["codes"]) < 4:
            return errors or ["the chain stopped early"]
        path = os.path.join(workdir, "run", "combined.fdmv")
        try:
            with open(path, "rb") as fh:
                blob = fh.read()
        except OSError as exc:
            return errors + [f"combined embedding unreadable: {exc}"]
        if len(blob) < 24:
            return errors + [f"{path}: {len(blob)} bytes, no header"]
        magic, _, rows, cols = struct.unpack("<4sIQQ", blob[:24])
        if magic != b"FDMV" or (rows, cols) != (self.n, 8) or len(blob) != 24 + rows * cols * 8:
            errors.append(f"combined embedding is {magic!r} {rows}x{cols} in {len(blob)} bytes")
        elif not np.all(np.isfinite(np.frombuffer(blob[24:], dtype="<f8"))):
            errors.append("combined embedding has non-finite entries")
        acc_path = os.path.join(workdir, "run", "accuracy.json")
        if not os.path.isfile(acc_path):
            errors.append("accuracy.json is missing")
        else:
            with open(acc_path) as fh:
                acc = json.load(fh)
            out["probe_test_acc"] = acc.get("test")
        return errors


class WalkCycle:
    name = "walk-cycle"
    primary = "walk_s"
    setup_batch = 50
    min_ops = 1
    n = 10
    # criterion 6's bound for 100k walkers; statistical error grows as the
    # inverse square root of the walker count
    tv_limit_100k = 0.02

    def __init__(self, seed: int, toy: bool = False):
        self.seed = seed % 2**32
        self.walkers = 10_000 if toy else 100_000
        self.tv_limit = self.tv_limit_100k * (100_000 / self.walkers) ** 0.5

    def setup(self):
        g = data.synth_cycle(self.n)
        basis = graphs.eigendecompose(graphs.normalized_laplacian(g))
        start = self.seed % self.n
        y0 = np.zeros((self.n, 1))
        y0[start, 0] = 1.0
        closed = {
            "random": solver.solve_linear_spectral(basis, y0, 0.5, 1.0).ravel(),
            "ctmc": solver.solve_linear_spectral(basis, y0, 1.0, 1.0).ravel(),
        }
        cfg = diagnostics.WalkConfig(
            alpha=0.5, t_end=1.0, delta_tau=0.005, n_walkers=self.walkers, seed=self.seed
        )
        return g, cfg, start, closed

    def op(self, state, tracer=None) -> dict:
        g, cfg, start, _ = state
        t0 = perf_counter()
        random_occ = diagnostics.random_walk_sim(g, cfg, start)
        t1 = perf_counter()
        ctmc_occ = diagnostics.ctmc_walk_sim(g, 1.0, self.walkers, self.seed, start)
        t2 = perf_counter()
        return {
            "times": {"walk_s": t2 - t0, "random_s": t1 - t0, "ctmc_s": t2 - t1},
            "occupancy": {"random": random_occ, "ctmc": ctmc_occ},
        }

    def check(self, state, out: dict) -> list[str]:
        closed = state[3]
        errors = []
        for sim, occ in out["occupancy"].items():
            tv = tv_distance(occ, closed[sim])
            out.setdefault("tv", {})[sim] = tv
            if not tv < self.tv_limit:
                errors.append(f"{sim} walk: total variation {tv:.4f} >= {self.tv_limit:.4f}")
        return errors


WORKLOADS = {w.name: w for w in (TrainN200, PipelineN2000, WalkCycle)}
