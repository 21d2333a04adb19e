import copy
import importlib.util
import json
import os
import pkgutil
import re
import subprocess
import sys
import weakref

import numpy as np
import pytest
from conftest import traced_peak

import fracgcl.cli
import fracgcl.graphs
import fracgcl.solver
import fracgcl.training
from fracgcl.cli import _COMMANDS, _DEFAULTS, main
from fracgcl.data import (
    Dataset,
    SynthSpec,
    load_dataset,
    load_matrix,
    save_dataset,
    save_matrix,
    synth_cycle,
    synth_sbm,
)
from fracgcl.encoder import bank_forward, combine_views
from fracgcl.graphs import eigendecompose, laplacian_rows, normalized_laplacian
from fracgcl.training import TrainConfig, avla


@pytest.fixture()
def dataset_dir(tmp_path):
    ds = synth_sbm(
        SynthSpec(
            n=24,
            n_blocks=2,
            p_in=0.6,
            p_out=0.1,
            feature_dim=3,
            class_mean_separation=2.0,
            noise_sigma=0.4,
            seed=5,
        )
    )
    d = tmp_path / "data"
    d.mkdir()
    save_dataset(
        ds,
        str(d / "edges.csv"),
        str(d / "features.csv"),
        str(d / "labels.csv"),
        str(d / "splits.json"),
    )
    return d


def _read_json(path):
    """A JSON file written by a run, parsed strictly: NaN and Infinity fail."""

    def reject(token):
        raise ValueError(f"{path}: {token} is not JSON")

    return json.loads(path.read_text(), parse_constant=reject)


def _write_config(tmp_path, name, body):
    path = tmp_path / name
    path.write_text(json.dumps(body))
    return str(path)


def _dataset_section(dataset_dir):
    return {
        "edges": str(dataset_dir / "edges.csv"),
        "features": str(dataset_dir / "features.csv"),
        "labels": str(dataset_dir / "labels.csv"),
        "splits": str(dataset_dir / "splits.json"),
    }


def _train_config(tmp_path, dataset_dir, out_name="run", **train_overrides):
    train = {"k_init": 2, "epochs_n": 3, "d_hid": 4, "horizon": 2.0}
    train.update(train_overrides)
    return _write_config(
        tmp_path,
        f"cfg_{out_name}.json",
        {
            "dataset": _dataset_section(dataset_dir),
            "train": train,
            "output_dir": str(tmp_path / out_name),
        },
    )


class TestConfigHandling:
    def test_unknown_top_level_key_exits_1(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, "bad.json", {"trian": {}})
        rc = main(["probe", "--config", cfg])
        assert rc == 1
        assert "trian" in capsys.readouterr().err

    def test_unknown_section_key_exits_1(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, "bad.json", {"train": {"lr": 0.1}})
        rc = main(["train", "--config", cfg])
        assert rc == 1
        assert "train.lr" in capsys.readouterr().err

    def test_set_flag_with_unknown_key_exits_1(self, tmp_path, capsys):
        rc = main(
            ["walk", "--out", str(tmp_path / "o"), "--set", "walk.speed=3"]
        )
        assert rc == 1
        assert "walk.speed" in capsys.readouterr().err

    def test_missing_dataset_paths_exit_1(self, tmp_path, capsys):
        rc = main(["probe", "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "missing" in capsys.readouterr().err

    def test_missing_feature_file_exits_1(self, tmp_path, dataset_dir, capsys):
        section = _dataset_section(dataset_dir)
        section["features"] = str(dataset_dir / "nope.csv")
        cfg = _write_config(
            tmp_path,
            "cfg.json",
            {"dataset": section, "output_dir": str(tmp_path / "o")},
        )
        rc = main(["probe", "--config", cfg])
        assert rc == 1

    def test_invalid_config_json_exits_1(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        rc = main(["synth", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "JSON" in capsys.readouterr().err

    def test_bad_edge_exits_1_naming_the_line(self, tmp_path, dataset_dir, capsys):
        (dataset_dir / "edges.csv").write_text("src,dst,weight\n0,1,1.0\n0,99,1.0\n")
        cfg = _write_config(
            tmp_path,
            "cfg.json",
            {"dataset": _dataset_section(dataset_dir), "output_dir": str(tmp_path / "o")},
        )
        assert main(["probe", "--config", cfg]) == 1
        assert "edges.csv:3" in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        for name in _COMMANDS:
            assert name in out

    def test_bad_subcommand_exits_1(self, capsys):
        assert main(["frobnicate"]) == 1


class TestConfigLayers:
    def test_flags_beat_set_beats_file_beats_defaults(self, tmp_path):
        from_file = tmp_path / "from_file"
        cfg = _write_config(
            tmp_path,
            "c.json",
            {
                "seed": 3,
                "synth": {"n": 30, "n_blocks": 2},
                "output_dir": str(from_file),
            },
        )
        assert main(["synth", "--config", cfg]) == 0
        assert _read_json(from_file / "manifest.json")["seed"] == 3
        assert load_matrix(str(from_file / "features.csv")).shape[0] == 30
        out = tmp_path / "from_flag"
        argv = ["synth", "--config", cfg, "--set", "synth.n=40", "--set", "seed=4"]
        assert main([*argv, "--seed", "9", "--out", str(out)]) == 0
        assert _read_json(out / "manifest.json")["seed"] == 9
        assert load_matrix(str(out / "features.csv")).shape[0] == 40

    def test_layers_leave_the_defaults_alone(self, tmp_path):
        before = copy.deepcopy(_DEFAULTS)
        sets = ["--set", "synth.n=40", "--set", "synth.n_blocks=2"]
        assert main(["synth", *sets, "--out", str(tmp_path / "a")]) == 0
        assert main(["synth", "--out", str(tmp_path / "b")]) == 0
        assert load_matrix(str(tmp_path / "a" / "features.csv")).shape[0] == 40
        assert load_matrix(str(tmp_path / "b" / "features.csv")).shape[0] == 60
        assert _DEFAULTS == before

    @pytest.mark.parametrize(
        "set_flag, file_body, message",
        [
            ("seed=x", None, "seed must be an integer"),
            (None, {"train": 5}, "config key 'train' must be an object"),
            ("a.b.c=1", None, "nests too deep"),
        ],
        ids=["seed-not-int", "section-not-object", "path-too-deep"],
    )
    def test_bad_layer_exits_1(self, tmp_path, capsys, set_flag, file_body, message):
        argv = ["synth", "--out", str(tmp_path / "o")]
        if set_flag is not None:
            argv += ["--set", set_flag]
        if file_body is not None:
            argv += ["--config", _write_config(tmp_path, "c.json", file_body)]
        assert main(argv) == 1
        assert message in capsys.readouterr().err

    def test_boolean_seed_exits_1(self, tmp_path, capsys):
        # bool is a subclass of int, so an isinstance check alone lets it in
        out = tmp_path / "o"
        assert main(["synth", "--out", str(out), "--set", "seed=true"]) == 1
        assert "seed must be an integer, got True" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()


class TestSynth:
    def test_writes_dataset_and_manifest(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["synth", "--out", str(out), "--seed", "3"])
        assert rc == 0
        for name in (
            "edges.csv",
            "features.csv",
            "labels.csv",
            "splits.json",
            "manifest.json",
        ):
            assert (out / name).exists()
        manifest = _read_json(out / "manifest.json")
        assert manifest["command"] == "synth"
        assert manifest["seed"] == 3
        assert manifest["wall_time_s"] >= 0
        assert manifest["versions"]["package"] == fracgcl.__version__

    def test_same_seed_identical_files(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["synth", "--out", str(a), "--seed", "9"]) == 0
        assert main(["synth", "--out", str(b), "--seed", "9"]) == 0
        for name in ("edges.csv", "features.csv", "labels.csv", "splits.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_set_flag_overrides_block_count(self, tmp_path):
        out = tmp_path / "out"
        rc = main(
            [
                "synth",
                "--out",
                str(out),
                "--set",
                "synth.n=40",
                "--set",
                "synth.n_blocks=2",
            ]
        )
        assert rc == 0
        features = load_matrix(str(out / "features.csv"))
        assert features.shape[0] == 40

    def test_no_writes_outside_output_dir(self, tmp_path, monkeypatch):
        workdir = tmp_path / "cwd"
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        assert main(["synth", "--out", "result", "--seed", "1"]) == 0
        assert sorted(os.listdir(workdir)) == ["result"]


class TestTrainEmbedProbe:
    def test_train_twice_seed7_byte_identical_report(self, tmp_path, dataset_dir):
        cfg_a = _train_config(tmp_path, dataset_dir, "a")
        cfg_b = _train_config(tmp_path, dataset_dir, "b")
        assert main(["train", "--config", cfg_a, "--seed", "7"]) == 0
        assert main(["train", "--config", cfg_b, "--seed", "7"]) == 0
        rep_a = (tmp_path / "a" / "report.json").read_bytes()
        rep_b = (tmp_path / "b" / "report.json").read_bytes()
        assert rep_a == rep_b
        w_a = load_matrix(str(tmp_path / "a" / "w0.fdmv"))
        w_b = load_matrix(str(tmp_path / "b" / "w0.fdmv"))
        assert np.array_equal(w_a, w_b)

    def test_train_then_embed_then_probe(self, tmp_path, dataset_dir):
        cfg = _train_config(tmp_path, dataset_dir, "run")
        assert main(["train", "--config", cfg, "--seed", "2"]) == 0
        out = tmp_path / "run"
        bank = _read_json(out / "bank.json")
        assert len(bank["alphas"]) >= 2
        assert main(["embed", "--config", cfg, "--seed", "2"]) == 0
        combined = load_matrix(str(out / "combined.fdmv"))
        assert combined.shape[0] == 24
        assert (out / "view0.fdmv").exists()
        probe_cfg = _write_config(
            tmp_path,
            "probe.json",
            {
                "dataset": _dataset_section(dataset_dir),
                "probe": {"embedding": str(out / "combined.fdmv"), "epochs": 50},
                "output_dir": str(tmp_path / "probe_out"),
            },
        )
        assert main(["probe", "--config", probe_cfg]) == 0
        acc = _read_json(tmp_path / "probe_out" / "accuracy.json")
        assert set(acc) == {"train", "val", "test"}
        assert 0.0 <= acc["test"] <= 1.0

    def _embed_with_bank(self, tmp_path, dataset_dir, meta):
        bank_dir = tmp_path / "bank"
        bank_dir.mkdir()
        (bank_dir / "bank.json").write_text(json.dumps(meta))
        cfg = _train_config(tmp_path, dataset_dir, "emb")
        rc = main(["embed", "--config", cfg, "--set", f"embed.bank_dir={bank_dir}"])
        return rc, str(bank_dir / "bank.json")

    def test_embed_names_missing_bank_key(self, tmp_path, dataset_dir, capsys):
        meta = {"horizon": 2.0, "activation": "relu", "weight_files": ["w0.fdmv"]}
        rc, path = self._embed_with_bank(tmp_path, dataset_dir, meta)
        err = capsys.readouterr().err
        assert rc == 1
        assert path in err and "'alphas'" in err

    @pytest.mark.parametrize(
        "alphas", [[2.0, 3.0], [0.8, 0.2]], ids=["out-of-range", "descending"]
    )
    def test_embed_names_bank_orders_out_of_range_or_order(
        self, tmp_path, dataset_dir, capsys, alphas
    ):
        meta = {
            "alphas": alphas,
            "horizon": 2.0,
            "activation": "relu",
            "weight_files": ["w0.fdmv", "w1.fdmv"],
        }
        rc, path = self._embed_with_bank(tmp_path, dataset_dir, meta)
        err = capsys.readouterr().err
        assert rc == 1
        kind = "a list of ascending numbers in (0, 1]"
        assert f"error: {path}: 'alphas' must be {kind}" in err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("alphas", 0.5),
            ("alphas", [0.5, "x"]),
            ("weight_files", "w0.fdmv"),
            ("weight_files", ["w0.fdmv", 1]),
            ("horizon", "x"),
            ("horizon", True),
            ("horizon", -2.0),
            ("horizon", float("inf")),
            ("activation", 1),
        ],
    )
    def test_embed_names_bank_key_of_wrong_type(
        self, tmp_path, dataset_dir, capsys, key, value
    ):
        meta = {
            "alphas": [0.2, 0.8],
            "horizon": 2.0,
            "activation": "relu",
            "weight_files": ["w0.fdmv", "w1.fdmv"],
            key: value,
        }
        rc, path = self._embed_with_bank(tmp_path, dataset_dir, meta)
        err = capsys.readouterr().err
        assert rc == 1
        assert f"error: {path}: {key!r} must be " in err

    def test_embed_rejects_more_alphas_than_weight_files(
        self, tmp_path, dataset_dir, capsys
    ):
        meta = {
            "alphas": [0.1, 0.2, 0.3, 0.4, 0.5],
            "horizon": 2.0,
            "activation": "relu",
            "weight_files": ["w0.fdmv", "w1.fdmv"],
        }
        rc, path = self._embed_with_bank(tmp_path, dataset_dir, meta)
        err = capsys.readouterr().err
        assert rc == 1
        assert path in err and "weight_files" in err

    def test_embed_names_the_line_of_a_truncated_bank_file(
        self, tmp_path, dataset_dir, capsys
    ):
        cfg = _train_config(tmp_path, dataset_dir, "run")
        assert main(["train", "--config", cfg]) == 0
        bank = tmp_path / "run" / "bank.json"
        bank.write_text(bank.read_text()[:100])
        assert main(["embed", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert re.search(rf"{re.escape(str(bank))}:\d+: invalid JSON", err), err

    def test_probe_names_the_line_of_a_label_beyond_int64(
        self, tmp_path, dataset_dir, capsys
    ):
        # a label beyond int64 is a malformed row, not an uncaught OverflowError
        (dataset_dir / "labels.csv").write_text("node,label\n0,99999999999999999999\n")
        cfg = _train_config(tmp_path, dataset_dir, "o")
        assert main(["probe", "--config", cfg]) == 1
        assert f"{dataset_dir / 'labels.csv'}:2: " in capsys.readouterr().err

    def test_probe_on_raw_features(self, tmp_path, dataset_dir):
        cfg = _write_config(
            tmp_path,
            "probe.json",
            {
                "dataset": _dataset_section(dataset_dir),
                "probe": {"epochs": 50},
                "output_dir": str(tmp_path / "o"),
            },
        )
        assert main(["probe", "--config", cfg]) == 0
        acc = _read_json(tmp_path / "o" / "accuracy.json")
        assert acc["train"] > 0.5

    def _probe(self, tmp_path, dataset_dir, **probe):
        cfg = _write_config(
            tmp_path,
            "probe.json",
            {
                "dataset": _dataset_section(dataset_dir),
                "probe": {"epochs": 50, **probe},
                "output_dir": str(tmp_path / "o"),
            },
        )
        return main(["probe", "--config", cfg])

    def test_probe_rejects_embedding_of_other_row_count(
        self, tmp_path, dataset_dir, capsys
    ):
        path = str(tmp_path / "big.fdmv")
        save_matrix(np.random.default_rng(0).normal(size=(36, 3)), path)
        assert self._probe(tmp_path, dataset_dir, embedding=path) == 1
        assert "36 rows for 24 nodes" in capsys.readouterr().err
        assert not (tmp_path / "o" / "accuracy.json").exists()

    def test_probe_rejects_unlabeled_test_nodes(self, tmp_path, dataset_dir, capsys):
        test_nodes = set(_read_json(dataset_dir / "splits.json")["test"])
        lines = (dataset_dir / "labels.csv").read_text().splitlines()
        kept = [ln for ln in lines[1:] if int(ln.split(",")[0]) not in test_nodes]
        (dataset_dir / "labels.csv").write_text("\n".join(lines[:1] + kept) + "\n")
        assert self._probe(tmp_path, dataset_dir) == 1
        assert "test split node" in capsys.readouterr().err

    def test_probe_rejects_fractional_split_index_naming_the_file(
        self, tmp_path, dataset_dir, capsys
    ):
        path = dataset_dir / "splits.json"
        splits = _read_json(path)
        splits["test"][0] += 0.5
        path.write_text(json.dumps(splits))
        assert self._probe(tmp_path, dataset_dir) == 1
        err = capsys.readouterr().err
        assert f"{path}: test split index must be an integer" in err

    def test_train_reports_merges(self, tmp_path, dataset_dir):
        cfg = _train_config(tmp_path, dataset_dir, "trace", k_init=3)
        assert main(["train", "--config", cfg, "--seed", "4"]) == 0
        report = _read_json(tmp_path / "trace" / "report.json")
        assert "merge_events" in report and "alpha_traces" in report
        assert len(report["final_alphas"]) >= 2

    def test_forced_collapse_exits_2(self, tmp_path, dataset_dir, capsys):
        cfg = _train_config(tmp_path, dataset_dir, "bad", merge_delta=10.0)
        rc = main(["train", "--config", cfg, "--seed", "2"])
        assert rc == 2
        assert "merged" in capsys.readouterr().err

    def test_collapsed_view_exits_2_naming_it(self, tmp_path, capsys):
        # constant features on a regular graph: every view's rows are equal,
        # so no view has a principal direction
        ds = Dataset(
            graph=synth_cycle(10),
            features=np.ones((10, 3)),
            labels=np.arange(10) % 2,
            splits={"train": range(5), "val": range(5, 8), "test": range(8, 10)},
        )
        d = tmp_path / "flat"
        d.mkdir()
        save_dataset(
            ds,
            str(d / "edges.csv"),
            str(d / "features.csv"),
            str(d / "labels.csv"),
            str(d / "splits.json"),
        )
        cfg = _train_config(tmp_path, d, "flat_out")
        rc = main(["train", "--config", cfg, "--seed", "2"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "round 0, epoch 0: view 0 (alpha=" in err
        assert "identical" in err


class TestDiagnose:
    def test_pca_report(self, tmp_path, dataset_dir):
        cfg = _write_config(
            tmp_path,
            "d.json",
            {
                "dataset": _dataset_section(dataset_dir),
                "output_dir": str(tmp_path / "o"),
            },
        )
        assert main(["diagnose", "--config", cfg, "--which", "pca"]) == 0
        rep = _read_json(tmp_path / "o" / "diagnose_pca.json")
        assert rep["effective_rank"] >= 1
        assert len(rep["energy_spectrum"]) == 3

    def test_rc_report(self, tmp_path, dataset_dir):
        cfg = _write_config(
            tmp_path,
            "d.json",
            {
                "dataset": _dataset_section(dataset_dir),
                "output_dir": str(tmp_path / "o"),
            },
        )
        assert main(["diagnose", "--config", cfg, "--which", "rc"]) == 0
        rep = _read_json(tmp_path / "o" / "diagnose_rc.json")
        assert rep["0"]["flag"] == "ok"
        assert rep["0"]["ratio"] > 1.0

    def test_fourier_report(self, tmp_path, dataset_dir):
        cfg = _write_config(
            tmp_path,
            "d.json",
            {
                "dataset": _dataset_section(dataset_dir),
                "output_dir": str(tmp_path / "o"),
            },
        )
        assert main(["diagnose", "--config", cfg, "--which", "fourier"]) == 0
        rep = _read_json(tmp_path / "o" / "diagnose_fourier.json")
        assert len(rep["eigenvalues"]) == 24
        assert len(rep["spread"]) == 24

    def test_theorem_on_inline_cycle(self, tmp_path, capsys):
        cfg = _write_config(
            tmp_path,
            "d.json",
            {
                "diagnose": {"topology": "cycle", "n": 20},
                "output_dir": str(tmp_path / "o"),
            },
        )
        assert main(["diagnose", "--config", cfg, "--which", "theorem"]) == 0
        rep = _read_json(tmp_path / "o" / "diagnose_theorem.json")
        assert set(rep["verdicts"]) == {
            "positivity",
            "decreasing_in_i",
            "local_dominates",
            "agreement_10pct",
        }
        out = capsys.readouterr().out
        assert "positivity" in out and ("PASS" in out or "FAIL" in out)

    def test_diagnose_requires_which(self, tmp_path):
        assert main(["diagnose", "--out", str(tmp_path / "o")]) == 1


class TestWalkAndStability:
    def test_walk_inline_cycle(self, tmp_path):
        cfg = _write_config(
            tmp_path,
            "w.json",
            {
                "walk": {
                    "topology": "cycle",
                    "n": 6,
                    "alpha": 0.5,
                    "t_end": 0.5,
                    "delta_tau": 0.02,
                    "n_walkers": 2000,
                },
                "output_dir": str(tmp_path / "o"),
            },
        )
        assert main(["walk", "--config", cfg, "--seed", "1"]) == 0
        dist = load_matrix(str(tmp_path / "o" / "distribution.csv"))
        assert dist.shape == (6, 1)
        assert abs(dist.sum() - 1.0) < 1e-12
        rep = _read_json(tmp_path / "o" / "walk.json")
        assert 0.0 <= rep["tv_vs_spectral"] <= 1.0

    def test_walk_alpha_one_uses_markov_simulator(self, tmp_path):
        cfg = _write_config(
            tmp_path,
            "w.json",
            {
                "walk": {
                    "topology": "cycle",
                    "n": 6,
                    "alpha": 1.0,
                    "t_end": 0.5,
                    "n_walkers": 2000,
                },
                "output_dir": str(tmp_path / "o"),
            },
        )
        assert main(["walk", "--config", cfg, "--seed", "1"]) == 0
        rep = _read_json(tmp_path / "o" / "walk.json")
        assert rep["alpha"] == 1.0

    def test_walk_alpha_one_without_walkers_exits_1(self, tmp_path, capsys):
        cfg = _write_config(
            tmp_path,
            "w.json",
            {
                "walk": {"topology": "cycle", "n": 6, "alpha": 1.0, "n_walkers": 0},
                "output_dir": str(tmp_path / "o"),
            },
        )
        assert main(["walk", "--config", cfg, "--seed", "1"]) == 1
        assert "n_walkers" in capsys.readouterr().err
        assert not (tmp_path / "o" / "walk.json").exists()

    def test_stability_inline_cycle(self, tmp_path):
        cfg = _write_config(
            tmp_path,
            "s.json",
            {
                "stability": {
                    "topology": "cycle",
                    "n": 8,
                    "alpha": 0.8,
                    "direction_index": 7,
                    "t_grid": [1.0, 2.0, 5.0],
                },
                "output_dir": str(tmp_path / "o"),
            },
        )
        assert main(["stability", "--config", cfg]) == 0
        table = load_matrix(str(tmp_path / "o" / "discrepancy.csv"))
        assert table.shape == (3, 2)
        rep = _read_json(tmp_path / "o" / "stability.json")
        assert isinstance(rep["holds"], bool)
        assert rep["c_fit"] > 0

    @pytest.mark.parametrize(
        "command, sets, key",
        [
            (["walk"], ["walk.topology=cycle"], "walk.n"),
            (
                ["stability"],
                ["stability.topology=grid", "stability.rows=3"],
                "stability.cols",
            ),
            (["diagnose", "--which", "theorem"], ["diagnose.topology=path"], "diagnose.n"),
        ],
        ids=["walk", "stability", "diagnose"],
    )
    def test_inline_topology_names_missing_size_key(
        self, tmp_path, capsys, command, sets, key
    ):
        flags = [arg for item in sets for arg in ("--set", item)]
        assert main([*command, *flags, "--out", str(tmp_path / "o")]) == 1
        assert f"{key} is required for topology" in capsys.readouterr().err

    def test_oversized_wait_ladder_exits_1(self, tmp_path, capsys):
        # rejected before the 10^9-slot ladder is allocated
        sets = ["walk.topology=cycle", "walk.n=6", "walk.delta_tau=1e-9"]
        flags = [arg for item in sets for arg in ("--set", item)]
        assert main(["walk", *flags, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "delta_tau" in err and "t_end" in err


class TestIntegralKeys:
    @pytest.mark.parametrize(
        "command, sets, key",
        [
            (["walk"], ["walk.topology=cycle", "walk.n=6.9"], "walk.n"),
            (
                ["walk"],
                ["walk.topology=cycle", "walk.n=6", "walk.start=1.5"],
                "walk.start",
            ),
            (
                ["walk"],
                ["walk.topology=cycle", "walk.n=6", "walk.n_walkers=100.5"],
                "walk.n_walkers",
            ),
            (
                ["stability"],
                ["stability.topology=grid", "stability.rows=3", "stability.cols=2.5"],
                "stability.cols",
            ),
            (
                ["diagnose", "--which", "theorem"],
                ["diagnose.topology=path", "diagnose.n=true"],
                "diagnose.n",
            ),
            (["synth"], ["synth.feature_dim=4.5"], "synth.feature_dim"),
            # None stands only where the default is None
            (["synth"], ["synth.n=null"], "synth.n"),
        ],
        ids=[
            "walk.n",
            "walk.start",
            "walk.n_walkers",
            "stability.cols",
            "diagnose.n",
            "synth.feature_dim",
            "synth.n-null",
        ],
    )
    def test_non_integral_value_exits_1_naming_the_key(
        self, tmp_path, capsys, command, sets, key
    ):
        flags = [arg for item in sets for arg in ("--set", item)]
        out = tmp_path / "o"
        assert main([*command, *flags, "--out", str(out)]) == 1
        assert f"{key} must be an integer" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    def test_integral_float_is_accepted(self, tmp_path):
        sets = ["walk.topology=cycle", "walk.n=6.0", "walk.n_walkers=200.0"]
        flags = [arg for item in sets for arg in ("--set", item)]
        assert main(["walk", *flags, "--out", str(tmp_path / "o")]) == 0
        assert load_matrix(str(tmp_path / "o" / "distribution.csv")).shape == (6, 1)


# list-valued keys take the non-finite value as one entry
_NON_FINITE_FORMS = {"stability.t_grid": "[1, {0}]", "embed.beta": "[{0}, {0}]"}


class TestFiniteSettings:
    @pytest.mark.parametrize("value", ["NaN", "Infinity"])
    @pytest.mark.parametrize(
        "command, key",
        [
            ("train", "train.lr_w"),
            ("train", "train.lr_alpha"),
            ("train", "train.eta"),
            ("train", "train.merge_delta"),
            ("probe", "probe.lr"),
            ("probe", "probe.l2_weight"),
            ("stability", "stability.eps"),
            ("stability", "stability.t_grid"),
            ("diagnose", "diagnose.tau"),
            ("walk", "walk.delta_tau"),
            ("walk", "walk.t_end"),
            ("synth", "synth.class_mean_separation"),
            ("synth", "synth.noise_sigma"),
            ("embed", "embed.beta"),
        ],
    )
    def test_non_finite_value_exits_1_naming_the_key(
        self, tmp_path, dataset_dir, capsys, command, key, value
    ):
        # NaN slipped past each `x < 0` style check; Infinity passed as a value
        out = tmp_path / "o"
        cfg = _train_config(tmp_path, dataset_dir, "o")
        value = _NON_FINITE_FORMS.get(key, "{0}").format(value)
        sets = [f"{key}={value}", "stability.topology=cycle", "stability.n=6"]
        args = ["--which", "theorem"] if command == "diagnose" else []
        if command == "embed":  # a two-encoder bank from its own run
            bank = _train_config(tmp_path, dataset_dir, "bank")
            assert main(["train", "--config", bank]) == 0
            sets.append(f"embed.bank_dir={tmp_path / 'bank'}")
        flags = [arg for item in sets for arg in ("--set", item)]
        assert main([command, "--config", cfg, *args, *flags]) == 1
        assert f"{key.split('.')[1]} must be finite" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()


class TestChebyshevPath:
    def test_train_and_embed_never_eigendecompose(
        self, tmp_path, dataset_dir, monkeypatch
    ):
        def refuse(laplacian):
            raise AssertionError("eigendecompose called")

        cfg = _train_config(tmp_path, dataset_dir, "run")
        out = tmp_path / "run"
        with monkeypatch.context() as patch:
            patch.setattr(fracgcl.cli, "eigendecompose", refuse)
            patch.setattr(fracgcl.graphs, "eigendecompose", refuse)
            assert main(["train", "--config", cfg, "--seed", "2"]) == 0
            assert main(["embed", "--config", cfg, "--seed", "2"]) == 0

        # the same training and embedding through the eigenbasis
        section = _dataset_section(dataset_dir)
        ds = load_dataset(
            section["edges"], section["features"], section["labels"], section["splits"]
        )
        basis = eigendecompose(normalized_laplacian(ds.graph))
        train_cfg = TrainConfig(k_init=2, epochs_n=3, seed=2)
        _, alphas, bank, _ = avla(basis, ds.features, train_cfg, 2.0, d_hid=4)

        def rel(got, want):
            return np.linalg.norm(got - want) / np.linalg.norm(want)

        saved = _read_json(out / "bank.json")
        assert rel(np.array(saved["alphas"]), np.array(alphas)) < 1e-9
        for k, enc in enumerate(bank.encoders):
            assert rel(load_matrix(str(out / f"w{k}.fdmv")), enc.weights) < 1e-9
        views = bank_forward(basis, ds.features, bank)
        combined = combine_views(views, np.full(len(views), 1.0 / len(views)))
        assert rel(load_matrix(str(out / "combined.fdmv")), combined) < 1e-9


    def test_train_and_embed_allocate_no_n_by_n_array(self, tmp_path):
        # the benchmark pipeline's chain at n = 1500: through the dense
        # Laplacian train peaked above n x n x 8 bytes (42.3 MB at n = 2000)
        n = 1500
        synth = {"n": n, "n_blocks": 2, "p_in": 0.02, "p_out": 0.1, "feature_dim": 8}
        synth.update(class_mean_separation=0.36, noise_sigma=1.0)
        sets = [f"synth.{key}={value}" for key, value in synth.items()]
        argv = ["synth", "--out", str(tmp_path / "data"), "--seed", "1"]
        assert main([*argv, *[arg for s in sets for arg in ("--set", s)]]) == 0
        train = {"k_init": 5, "epochs_n": 1, "horizon": 20.0}
        cfg = _train_config(tmp_path, tmp_path / "data", "run", **train)
        for command in ("train", "embed"):
            rc, peak = traced_peak(lambda: main([command, "--config", cfg]))
            assert rc == 0 and peak < n * n * 8, (command, peak)


class TestGraphLifetimes:
    """train and embed hold one form of the graph at a time."""

    @staticmethod
    def _spy_rows(monkeypatch):
        refs = []

        def spy(g):
            rows = laplacian_rows(g)
            refs.extend((weakref.ref(g), weakref.ref(rows)))
            return rows

        monkeypatch.setattr(fracgcl.cli, "laplacian_rows", spy)
        return refs

    @staticmethod
    def _alive_at_first_call(monkeypatch, module, name, refs):
        alive = []
        real = getattr(module, name)

        def spy(*args, **kwargs):
            if not alive:
                alive.append([ref() is not None for ref in refs])
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)
        return alive

    def test_train_frees_the_graph_and_rows_before_the_epochs(
        self, tmp_path, dataset_dir, monkeypatch
    ):
        refs = self._spy_rows(monkeypatch)
        alive = self._alive_at_first_call(
            monkeypatch, fracgcl.training, "_loss_and_grads", refs
        )
        cfg = _train_config(tmp_path, dataset_dir, "run")
        assert main(["train", "--config", cfg, "--seed", "2"]) == 0
        assert len(refs) == 2 and alive == [[False, False]]  # graph, rows

    def test_embed_frees_the_graph_before_the_krylov_build(
        self, tmp_path, dataset_dir, monkeypatch
    ):
        cfg = _train_config(tmp_path, dataset_dir, "run")
        assert main(["train", "--config", cfg, "--seed", "2"]) == 0
        refs = self._spy_rows(monkeypatch)
        alive = self._alive_at_first_call(
            monkeypatch, fracgcl.solver, "_krylov_filter", refs
        )
        assert main(["embed", "--config", cfg, "--seed", "2"]) == 0
        assert len(refs) == 2 and alive == [[False, True]]  # graph, rows


class TestErrorsNameTheirSource:
    def test_nonpositive_d_hid_names_the_key(self, tmp_path, dataset_dir, capsys):
        cfg = _train_config(tmp_path, dataset_dir, "run")
        assert main(["train", "--config", cfg, "--set", "train.d_hid=0"]) == 1
        assert "error: train.d_hid must be positive, got 0" in capsys.readouterr().err

    def test_embedding_of_other_row_count_names_the_file(
        self, tmp_path, dataset_dir, capsys
    ):
        path = str(tmp_path / "w0.fdmv")
        save_matrix(np.ones((8, 3)), path)
        cfg = _write_config(
            tmp_path,
            "probe.json",
            {
                "dataset": _dataset_section(dataset_dir),
                "probe": {"embedding": path},
                "output_dir": str(tmp_path / "o"),
            },
        )
        assert main(["probe", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert f"error: {path}: embedding has 8 rows for 24 nodes" in err

    def test_beta_of_other_length_names_the_key(self, tmp_path, dataset_dir, capsys):
        cfg = _train_config(tmp_path, dataset_dir, "run")
        assert main(["train", "--config", cfg, "--seed", "2"]) == 0
        k = len(_read_json(tmp_path / "run" / "bank.json")["alphas"])
        beta = json.dumps([1.0 / (k + 1)] * (k + 1))
        assert main(["embed", "--config", cfg, "--set", f"embed.beta={beta}"]) == 1
        want = f"embed.beta needs one weight per view: {k} views, got shape ({k + 1},)"
        assert want in capsys.readouterr().err
        assert not (tmp_path / "run" / "combined.fdmv").exists()


class TestManifestHash:
    def _hash(self, tmp_path, name, extra_args=()):
        out = tmp_path / name
        rc = main(["synth", "--out", str(out), *extra_args])
        assert rc == 0
        return _read_json(out / "manifest.json")["config_hash"]

    def test_repeat_run_same_hash(self, tmp_path):
        h1 = self._hash(tmp_path, "r1", ("--seed", "5"))
        h2 = self._hash(tmp_path, "r2", ("--seed", "5"))
        assert h1 == h2

    def test_seed_changes_hash(self, tmp_path):
        h1 = self._hash(tmp_path, "r1", ("--seed", "5"))
        h2 = self._hash(tmp_path, "r2", ("--seed", "6"))
        assert h1 != h2

    def test_semantic_field_changes_hash(self, tmp_path):
        h1 = self._hash(tmp_path, "r1", ("--set", "synth.p_in=0.5"))
        h2 = self._hash(tmp_path, "r2", ("--set", "synth.p_in=0.6"))
        assert h1 != h2

    def test_manifest_records_whether_threads_were_capped(self, tmp_path):
        capped = importlib.util.find_spec("threadpoolctl") is not None
        for name, extra, expected in (
            ("plain", (), False),
            ("capped", ("--threads", "1"), capped),
        ):
            assert main(["synth", "--out", str(tmp_path / name), *extra]) == 0
            manifest = _read_json(tmp_path / name / "manifest.json")
            assert manifest["threads_capped"] is expected

    def test_output_dir_and_threads_do_not_change_hash(self, tmp_path):
        h1 = self._hash(tmp_path, "r1", ("--seed", "5", "--threads", "1"))
        h2 = self._hash(tmp_path, "r2", ("--seed", "5", "--threads", "2"))
        assert h1 == h2

    def test_hash_pinned(self, tmp_path):
        # sha256 of the merged config minus output_dir and threads, sorted keys
        h = self._hash(tmp_path, "r", ("--seed", "5", "--set", "synth.p_in=0.4"))
        assert h == "721107af2bd874e72086685606a1565a827265d2c96d6c8b089d85fd9ff5f80f"


_IMPORT_CHECK = """
import sys
import fracgcl.cli
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded
import fracgcl.special, scipy.integrate
assert fracgcl.special.quad is scipy.integrate.quad
"""


def test_cli_import_loads_no_scipy():
    # a fresh interpreter; the lazy `special.quad` still resolves by name
    src = os.path.dirname(os.path.dirname(fracgcl.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_CHECK], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


_RUN_CHECK = """
import json, sys
from fracgcl.cli import main
assert main(sys.argv[1:]) == 0
print(json.dumps([m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]))
"""


def _scipy_modules_of_run(argv):
    """Run the CLI in a fresh interpreter; return the scipy modules it loaded."""
    src = os.path.dirname(os.path.dirname(fracgcl.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_CHECK, *argv], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_train_and_walk_load_no_scipy(tmp_path, dataset_dir):
    # each run in a fresh interpreter; the walk's zeta(1 + alpha) is fracgcl's own
    cfg = _train_config(tmp_path, dataset_dir)
    for command in ("train", "embed"):
        assert _scipy_modules_of_run([command, "--config", cfg]) == []
        versions = _read_json(tmp_path / "run" / "manifest.json")["versions"]
        assert "scipy" not in versions
    walk = {"topology": "cycle", "n": 6, "alpha": 0.5, "t_end": 0.5}
    walk.update(delta_tau=0.02, n_walkers=200)
    cfg = _write_config(
        tmp_path, "w.json", {"walk": walk, "output_dir": str(tmp_path / "w")}
    )
    assert _scipy_modules_of_run(["walk", "--config", cfg]) == []
    versions = _read_json(tmp_path / "w" / "manifest.json")["versions"]
    assert "scipy" not in versions


_SUBMODULES = [f"fracgcl.{m.name}" for m in pkgutil.iter_modules(fracgcl.__path__)]


@pytest.mark.parametrize("name", ["fracgcl", *_SUBMODULES])
def test_every_exported_name_resolves(name):
    # `import *` and the benchmark's span tracer look up each `__all__` entry
    mod = importlib.import_module(name)
    missing = [attr for attr in getattr(mod, "__all__", ()) if not hasattr(mod, attr)]
    assert not missing
