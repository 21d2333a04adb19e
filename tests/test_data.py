import hashlib
import json
import pathlib
import tempfile

import numpy as np
import pytest
from conftest import integer_edge_lists, traced_peak
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import adjacency_oracle, component_count, dense_adjacency

from fracgcl.data import (
    Dataset,
    SynthSpec,
    load_dataset,
    load_matrix,
    save_dataset,
    save_matrix,
    save_report,
    synth_cycle,
    synth_grid,
    synth_path,
    synth_sbm,
)
from fracgcl.data import _read_edges
from fracgcl.graphs import build_graph, eigendecompose, normalized_laplacian


def _spec(**kw):
    base = dict(
        n=60,
        n_blocks=3,
        p_in=0.5,
        p_out=0.1,
        feature_dim=4,
        class_mean_separation=2.0,
        noise_sigma=0.3,
        seed=7,
    )
    base.update(kw)
    return SynthSpec(**base)


class TestDatasetInvariants:
    def test_minimal_two_node(self):
        g = synth_path(2)
        ds = Dataset(
            graph=g,
            features=np.eye(2),
            labels=np.array([0, 1]),
            splits={"train": (0,), "test": (1,)},
        )
        assert ds.splits["val"] == ()
        assert ds.labels.tolist() == [0, 1]

    def test_feature_row_mismatch(self):
        with pytest.raises(ValueError, match="features"):
            Dataset(synth_path(3), np.eye(2), np.zeros(3, dtype=int), {})

    def test_label_length_mismatch(self):
        with pytest.raises(ValueError, match="labels"):
            Dataset(synth_path(3), np.eye(3), np.zeros(2, dtype=int), {})

    def test_float_labels_rejected(self):
        with pytest.raises(ValueError, match="integers"):
            Dataset(synth_path(3), np.eye(3), np.zeros(3), {})

    def test_unknown_split_name(self):
        with pytest.raises(ValueError, match="holdout"):
            Dataset(
                synth_path(3),
                np.eye(3),
                np.zeros(3, dtype=int),
                {"holdout": (0,)},
            )

    def test_split_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Dataset(synth_path(3), np.eye(3), np.zeros(3, dtype=int), {"train": (5,)})

    @pytest.mark.parametrize(
        "part, message",
        [
            ("12", "must be a list"),
            (2, "must be a list"),
            ([2.7], "must be an integer, got 2.7"),
            ([True], "must be an integer, got True"),
            (["1"], "must be an integer, got '1'"),
        ],
        ids=["string", "number", "fraction", "bool", "numeral"],
    )
    def test_split_entries_must_be_integral(self, part, message):
        with pytest.raises(ValueError, match=message):
            Dataset(synth_path(3), np.eye(3), np.zeros(3, dtype=int), {"val": part})

    def test_integral_float_split_entry_is_an_index(self):
        ds = Dataset(synth_path(3), np.eye(3), np.zeros(3, dtype=int), {"val": [2.0]})
        assert ds.splits["val"] == (2,) and type(ds.splits["val"][0]) is int

    def test_overlapping_splits_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            Dataset(
                synth_path(3),
                np.eye(3),
                np.zeros(3, dtype=int),
                {"train": (0, 1), "val": (1,)},
            )

    def test_equality_is_identity(self):
        ds, copy = synth_sbm(_spec()), synth_sbm(_spec())
        assert ds == ds and not ds == copy and ds != copy

    def test_nan_features_rejected(self):
        feats = np.eye(3)
        feats[1, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            Dataset(synth_path(3), feats, np.zeros(3, dtype=int), {})


class TestSynthSpec:
    def test_indivisible_n_rejected(self):
        with pytest.raises(ValueError, match="divisible"):
            _spec(n=61)

    @pytest.mark.parametrize("field,value", [("p_in", 1.2), ("p_out", -0.1)])
    def test_probability_range(self, field, value):
        with pytest.raises(ValueError, match=field):
            _spec(**{field: value})

    def test_feature_dim_too_small(self):
        with pytest.raises(ValueError, match="feature_dim"):
            _spec(feature_dim=2)

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            _spec(noise_sigma=-1.0)


def _dataset_digest(ds):
    h = hashlib.sha256()
    for arr in (
        dense_adjacency(ds.graph),
        np.asarray(ds.graph.edges, dtype=float),
        ds.features,
        ds.labels.astype(np.int64),
    ):
        h.update(np.ascontiguousarray(arr).tobytes())
    h.update(json.dumps(ds.splits, sort_keys=True).encode())
    return h.hexdigest()


class TestSynthSbm:
    # recorded with the per-pair Python loop that drew one rng.random() per
    # upper-triangle pair; the vectorised draw must reproduce it bit for bit
    @pytest.mark.parametrize(
        "seed, digest",
        [
            (0, "a35421befb89387425778cae81b4f39412995bd725f45688ffbd86d29e907b4e"),
            (3, "1e81ebe0e881f739850d3b81a4a29d434bd00a16b87d0a1264b7f353c1dc7c06"),
        ],
    )
    def test_outputs_pinned(self, seed, digest):
        ds = synth_sbm(_spec(n=90, p_in=0.3, p_out=0.05, seed=seed))
        assert _dataset_digest(ds) == digest

    def test_outputs_pinned_across_draw_blocks(self):
        # 179,700 pairs, three rng calls; recorded with one call per row
        ds = synth_sbm(_spec(n=600, n_blocks=3, p_in=0.05, p_out=0.01, seed=2))
        digest = "3a5f3c9fd96f30dc7ac4be63329fb2627870217deee7131f61ff06c2dbc02c1b"
        assert _dataset_digest(ds) == digest

    def test_edge_file_bytes_pinned(self, tmp_path):
        ds = synth_sbm(_spec(n=90, p_in=0.3, p_out=0.05, seed=0))
        paths = [str(tmp_path / name) for name in ("e.csv", "f.csv", "l.csv", "s.json")]
        save_dataset(ds, *paths)
        with open(paths[0], "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        assert digest == "fdc4db2e01be5870f6c7eb57579e28d4d89e8bee9d8ed9c5030861cfa1d2fef0"

    def test_dataset_file_bytes_pinned_and_stable(self, tmp_path):
        # recorded with the per-row label and matrix writers
        expected = {
            "e.csv": "fdc4db2e01be5870f6c7eb57579e28d4d89e8bee9d8ed9c5030861cfa1d2fef0",
            "f.csv": "1f66a71a669b789f0a4ec8cf3cee45ee4d49f4e8e04bfa1f5930ed016129cf6e",
            "l.csv": "3922354182f07a1bbfb442ef8a1c44da27b22ddad961b8aeafef9b3a479772d3",
            "s.json": "bd11ae33670ed98be179497e78bcb5a6c1d07d47dd309c08d5ce09a8b6143e0c",
        }
        ds = synth_sbm(_spec(n=90, p_in=0.3, p_out=0.05, seed=0))
        first = [tmp_path / f"first_{name}" for name in expected]
        second = [tmp_path / f"second_{name}" for name in expected]
        save_dataset(ds, *map(str, first))
        save_dataset(load_dataset(*map(str, first)), *map(str, second))
        for a, b, digest in zip(first, second, expected.values()):
            blob = a.read_bytes()
            assert hashlib.sha256(blob).hexdigest() == digest, a.name
            assert b.read_bytes() == blob, b.name

    @pytest.mark.parametrize("n, n_blocks", [(1, 1), (3, 3), (90, 3), (600, 3)])
    def test_graph_is_canonical(self, n, n_blocks):
        # synth_sbm builds its Graph from the drawn arrays, not through build_graph
        g = synth_sbm(_spec(n=n, n_blocks=n_blocks, p_in=0.3, p_out=0.05, seed=1)).graph
        ref = build_graph(n, np.column_stack((g.src, g.dst, g.weight)))
        for name in ("src", "dst", "weight"):
            got, want = getattr(g, name), getattr(ref, name)
            assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_same_seed_bitwise_identical(self):
        a = synth_sbm(_spec())
        b = synth_sbm(_spec())
        assert np.array_equal(a.features, b.features)
        assert a.graph.edges == b.graph.edges
        assert a.splits == b.splits

    def test_seed_changes_output(self):
        a = synth_sbm(_spec())
        b = synth_sbm(_spec(seed=8))
        assert not np.array_equal(a.features, b.features)

    def test_split_fractions(self):
        ds = synth_sbm(_spec(n=120))
        assert len(ds.splits["train"]) == 57  # floor(0.48 * 120)
        assert len(ds.splits["val"]) == 38
        assert len(ds.splits["test"]) == 25
        covered = set(ds.splits["train"]) | set(ds.splits["val"]) | set(
            ds.splits["test"]
        )
        assert covered == set(range(120))

    def test_labels_are_blocks(self):
        ds = synth_sbm(_spec(n=60, n_blocks=3))
        assert ds.labels.tolist() == [0] * 20 + [1] * 20 + [2] * 20

    def test_disconnected_cliques(self):
        # p_in=1, p_out=0 gives one complete component per block, so the
        # normalized Laplacian has a zero eigenvalue per block.
        ds = synth_sbm(_spec(n=30, n_blocks=3, p_in=1.0, p_out=0.0))
        assert component_count(dense_adjacency(ds.graph)) == 3

    def test_noise_free_features_sit_on_means(self):
        ds = synth_sbm(_spec(noise_sigma=0.0, class_mean_separation=3.0))
        expected = np.zeros((60, 4))
        for i, lab in enumerate(ds.labels):
            expected[i, lab] = 3.0
        assert np.array_equal(ds.features, expected)

    def test_equal_probabilities_give_near_zero_modularity(self):
        ds = synth_sbm(_spec(n=120, n_blocks=3, p_in=0.15, p_out=0.15, seed=3))
        adj = dense_adjacency(ds.graph)
        deg = adj.sum(axis=1)
        two_m = deg.sum()
        same = ds.labels[:, None] == ds.labels[None, :]
        q = ((adj - np.outer(deg, deg) / two_m)[same]).sum() / two_m
        assert abs(q) < 0.05


class TestTopologyGenerators:
    def test_cycle4_spectrum(self):
        basis = eigendecompose(normalized_laplacian(synth_cycle(4)))
        assert np.allclose(sorted(basis.eigenvalues), [0.0, 1.0, 1.0, 2.0], atol=1e-12)

    def test_path2_is_single_edge(self):
        g = synth_path(2)
        assert g.n_nodes == 2 and g.edges == ((0, 1, 1.0),)

    def test_grid22_is_cycle4_up_to_relabeling(self):
        grid = synth_grid(2, 2)
        cyc = synth_cycle(4)
        perm = [0, 1, 3, 2]
        relabeled = dense_adjacency(grid)[np.ix_(perm, perm)]
        assert np.array_equal(relabeled, dense_adjacency(cyc))

    def test_grid_shape_and_degrees(self):
        g = synth_grid(3, 5)
        assert g.n_nodes == 15
        deg = dense_adjacency(g).sum(axis=1)
        assert deg.min() == 2 and deg.max() == 4

    @pytest.mark.parametrize("make", [synth_cycle, synth_path])
    def test_small_sizes_rejected(self, make):
        with pytest.raises(ValueError):
            make(1)

    def test_grid_needs_both_dims(self):
        with pytest.raises(ValueError):
            synth_grid(1, 5)


class TestMatrixIO:
    def test_binary_roundtrip_bitwise(self, tmp_path):
        rng = np.random.default_rng(0)
        m = rng.normal(size=(7, 3)) * np.array([1e-300, 1.0, 1e300])
        path = str(tmp_path / "m.fdmv")
        save_matrix(m, path)
        out = load_matrix(path)
        assert out.dtype == np.float64
        assert np.array_equal(out, m)

    def test_csv_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        m = rng.normal(size=(5, 4))
        path = str(tmp_path / "m.csv")
        save_matrix(m, path)
        assert np.array_equal(load_matrix(path), m)

    def test_csv_header_names(self, tmp_path):
        path = str(tmp_path / "m.csv")
        save_matrix(np.ones((1, 3)), path)
        with open(path) as fh:
            assert fh.readline().strip() == "f0,f1,f2"

    @pytest.mark.parametrize("ext", ["fdmv", "csv"])
    def test_empty_matrix_roundtrip(self, tmp_path, ext):
        path = str(tmp_path / f"empty.{ext}")
        save_matrix(np.zeros((0, 0)), path)
        out = load_matrix(path)
        assert out.shape == (0, 0)

    @pytest.mark.parametrize("ext", ["fdmv", "csv"])
    def test_zero_row_matrix_keeps_its_width(self, tmp_path, ext):
        path = str(tmp_path / f"empty.{ext}")
        save_matrix(np.zeros((0, 3)), path)
        assert load_matrix(path).shape == (0, 3)

    def test_zero_column_rows_need_the_binary_layout(self, tmp_path):
        # a CSV body of k empty rows reads as no rows, so the writer refuses
        path = str(tmp_path / "z.csv")
        with pytest.raises(ValueError, match=r"z\.csv: .*3 rows of 0 columns.*\.fdmv"):
            save_matrix(np.zeros((3, 0)), path)
        assert not (tmp_path / "z.csv").exists()
        save_matrix(np.zeros((3, 0)), str(tmp_path / "z.fdmv"))
        assert load_matrix(str(tmp_path / "z.fdmv")).shape == (3, 0)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.fdmv"
        save_matrix(np.ones((2, 2)), str(path))
        blob = bytearray(path.read_bytes())
        blob[0] = ord("X")
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="magic"):
            load_matrix(str(path))

    def test_bad_version(self, tmp_path):
        path = tmp_path / "m.fdmv"
        save_matrix(np.ones((2, 2)), str(path))
        blob = bytearray(path.read_bytes())
        blob[4] = 9
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="version"):
            load_matrix(str(path))

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "m.fdmv"
        save_matrix(np.ones((4, 4)), str(path))
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(ValueError, match="payload"):
            load_matrix(str(path))

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "m.fdmv"
        save_matrix(np.ones((2, 2)), str(path))
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ValueError, match="trailing"):
            load_matrix(str(path))

    def test_csv_nan_rejected_with_position(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("f0,f1\n1.0,2.0\n3.0,nan\n")
        with pytest.raises(ValueError, match=r"3: column 1"):
            load_matrix(str(path))

    def test_csv_garbage_cell_carries_position(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("f0,f1\n1.0,x\n")
        with pytest.raises(ValueError, match=r"2: column 1"):
            load_matrix(str(path))

    def test_csv_first_bad_line_among_many(self, tmp_path):
        lines = ["f0,f1"] + ["1.0,2.0"] * 2000
        lines[1499] = "1.0,x"  # file line 1500
        lines[1699] = "nan,2.0"  # a later non-finite cell
        path = tmp_path / "m.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as exc:
            load_matrix(str(path))
        assert str(exc.value) == f"{path}:1500: column 1: not a number: 'x'"

    def test_csv_ragged_row(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("f0,f1\n1.0\n")
        with pytest.raises(ValueError, match="columns"):
            load_matrix(str(path))

    def test_unknown_extension_needs_fmt(self, tmp_path):
        with pytest.raises(ValueError, match="infer"):
            save_matrix(np.ones((1, 1)), str(tmp_path / "m.dat"))
        save_matrix(np.ones((1, 1)), str(tmp_path / "m.dat"), fmt="binary")
        assert load_matrix(str(tmp_path / "m.dat"), fmt="binary").shape == (1, 1)

    def test_one_dimensional_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="2-D"):
            save_matrix(np.ones(3), str(tmp_path / "m.csv"))


class TestDatasetFiles:
    def _paths(self, tmp_path):
        return (
            str(tmp_path / "edges.csv"),
            str(tmp_path / "features.csv"),
            str(tmp_path / "labels.csv"),
            str(tmp_path / "splits.json"),
        )

    def test_no_dense_matrix_on_the_way_in_or_out(self, tmp_path):
        # synth, save and load hold the graph as edges: each peaks below one
        # n x n float array (the benchmark's block model, 6% dense)
        n = 1500
        spec = _spec(n=n, n_blocks=2, p_in=0.02, p_out=0.1, feature_dim=8)
        ds, synth_peak = traced_peak(lambda: synth_sbm(spec))
        paths = self._paths(tmp_path)
        _, save_peak = traced_peak(lambda: save_dataset(ds, *paths))
        back, load_peak = traced_peak(lambda: load_dataset(*paths))
        assert back.graph.edges == ds.graph.edges
        assert max(synth_peak, save_peak, load_peak) < n * n * 8

    def test_save_streams_the_edges(self, tmp_path):
        # 120k edges, many chunks: formatting the whole file at once peaked
        # at 20.7 MB, the chunks stay below 4 MB with the same bytes
        spec = _spec(n=2000, n_blocks=2, p_in=0.02, p_out=0.1, feature_dim=8, seed=0)
        ds = synth_sbm(spec)
        paths = self._paths(tmp_path)
        _, peak = traced_peak(lambda: save_dataset(ds, *paths))
        assert peak < 4 * 2**20
        g = ds.graph
        rows = zip(g.src.tolist(), g.dst.tolist(), g.weight.tolist())
        expected = "src,dst,weight\n" + "".join(f"{s},{d},{w:.17g}\n" for s, d, w in rows)
        with open(paths[0], "rb") as fh:
            assert fh.read() == expected.encode()

    def test_edges_parse_from_the_open_file(self, tmp_path):
        # 120k edges: parsing the file's split lines peaked at 5.1 times the
        # result (24 bytes an edge), parsing from the open file at 2.0 times
        spec = _spec(n=2000, n_blocks=2, p_in=0.02, p_out=0.1, feature_dim=8, seed=0)
        ds = synth_sbm(spec)
        paths = self._paths(tmp_path)
        save_dataset(ds, *paths)
        columns, peak = traced_peak(lambda: _read_edges(paths[0], 2000))
        g = ds.graph
        for got, want in zip(columns, (g.src, g.dst, g.weight)):
            assert np.array_equal(got, want) and got.flags.c_contiguous
        nbytes = sum(c.nbytes for c in columns)
        assert nbytes == 24 * g.src.size
        assert peak < 3 * nbytes

    @settings(max_examples=300, deadline=None)
    @given(case=integer_edge_lists(), data=st.data())
    def test_loaded_graph_is_the_built_graph(self, case, data):
        # canonical files take the fast path; every other form is deduped
        n, edges = case
        canon = list(build_graph(n, edges).edges)
        rows = data.draw(
            st.sampled_from(
                [
                    edges,  # as drawn: duplicates, zero weights, self-loops
                    canon,
                    data.draw(st.permutations(canon)),
                    [(d, s, w) for s, d, w in canon],  # the lower triangle
                ]
            )
        )
        if rows and data.draw(st.booleans()):  # repeat a row: the last one wins
            k = data.draw(st.integers(0, len(rows) - 1))
            repeat = (*rows[k][:2], data.draw(st.sampled_from([0.0, 5.0])))
            rows = [*rows[: k + 1], repeat, *rows[k + 1 :]]
        ref = build_graph(n, rows)
        expected = tuple(
            (i, j, w)
            for i, row in enumerate(adjacency_oracle(n, rows))
            for j, w in enumerate(row)
            if j >= i and w > 0.0
        )
        with tempfile.TemporaryDirectory() as tmp:
            paths = self._paths(pathlib.Path(tmp))
            body = "".join(f"{s},{d},{w!r}\n" for s, d, w in rows)
            pathlib.Path(paths[0]).write_text("src,dst,weight\n" + body)
            save_matrix(np.zeros((n, 1)), paths[1])
            pathlib.Path(paths[2]).write_text("node,label\n")
            pathlib.Path(paths[3]).write_text("{}")
            g = load_dataset(*paths).graph
        assert g.n_nodes == n and g.edges == ref.edges == expected
        for got, want in zip((g.src, g.dst, g.weight), (ref.src, ref.dst, ref.weight)):
            assert got.dtype == want.dtype and got.flags.c_contiguous
        assert g.src.dtype == g.dst.dtype == np.intp and g.weight.dtype == np.float64

    def test_canonical_file_loads_without_a_sort(self, tmp_path, monkeypatch):
        ds = synth_sbm(_spec())
        paths = self._paths(tmp_path)
        save_dataset(ds, *paths)

        def refuse(*args, **kwargs):
            raise AssertionError("lexsort called")

        monkeypatch.setattr(np, "lexsort", refuse)
        assert load_dataset(*paths).graph.edges == ds.graph.edges

    def test_roundtrip_equality(self, tmp_path):
        ds = synth_sbm(_spec())
        paths = self._paths(tmp_path)
        save_dataset(ds, *paths)
        back = load_dataset(*paths)
        assert back.graph.edges == ds.graph.edges
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.labels, ds.labels)
        assert back.splits == ds.splits

    def test_handwritten_fixture(self, tmp_path):
        e, f, l, s = self._paths(tmp_path)
        (tmp_path / "edges.csv").write_text("src,dst,weight\n0,1,2.5\n")
        (tmp_path / "features.csv").write_text("f0\n1.0\n-1.0\n")
        (tmp_path / "labels.csv").write_text("node,label\n0,1\n")
        (tmp_path / "splits.json").write_text('{"train": [0], "test": [1]}')
        ds = load_dataset(e, f, l, s)
        assert ds.graph.n_nodes == 2
        assert dense_adjacency(ds.graph)[0, 1] == 2.5
        assert ds.labels.tolist() == [1, -1]
        assert ds.splits == {"train": (0,), "val": (), "test": (1,)}

    def test_edge_line_number_in_error(self, tmp_path):
        e, f, l, s = self._paths(tmp_path)
        (tmp_path / "edges.csv").write_text("src,dst,weight\n0,1,1.0\n0,x,1.0\n")
        (tmp_path / "features.csv").write_text("f0\n1.0\n-1.0\n")
        (tmp_path / "labels.csv").write_text("node,label\n")
        (tmp_path / "splits.json").write_text("{}")
        with pytest.raises(ValueError, match=r"edges\.csv:3"):
            load_dataset(e, f, l, s)

    def test_edge_index_beyond_node_count(self, tmp_path):
        e, f, l, s = self._paths(tmp_path)
        (tmp_path / "edges.csv").write_text("src,dst,weight\n0,5,1.0\n")
        (tmp_path / "features.csv").write_text("f0\n1.0\n-1.0\n")
        (tmp_path / "labels.csv").write_text("node,label\n")
        (tmp_path / "splits.json").write_text("{}")
        with pytest.raises(ValueError, match="exceeds node count"):
            load_dataset(e, f, l, s)

    @pytest.mark.parametrize(
        "row, reason",
        [
            ("1,0,nan", "weight must be finite"),
            ("0,1,-2", "weight must be finite"),
            ("0,1,inf", "weight must be finite"),
            ("1,7,1", "exceeds node count 2"),
            ("-1,0,1", "exceeds node count 2"),
            ("1.5,0,1", "malformed edge"),
            ("1e0,0,1", "malformed edge"),
            ("0,1", "malformed edge"),
            ("0,1,1 # note", "malformed edge"),
        ],
    )
    def test_bad_edge_names_file_and_line(self, tmp_path, row, reason):
        e, f, l, s = self._paths(tmp_path)
        # a blank line and a later bad edge: the error names the first bad line
        (tmp_path / "edges.csv").write_text(f"src,dst,weight\n0,1,1.0\n\n{row}\n9,9,-1\n")
        (tmp_path / "features.csv").write_text("f0\n1.0\n-1.0\n")
        (tmp_path / "labels.csv").write_text("node,label\n")
        (tmp_path / "splits.json").write_text("{}")
        with pytest.raises(ValueError) as exc:
            load_dataset(e, f, l, s)
        assert str(exc.value).startswith(f"{e}:4: ")
        assert reason in str(exc.value)

    @pytest.mark.parametrize("bad_line", [2, 3, 600, 1001])
    def test_first_malformed_line_among_many(self, tmp_path, bad_line):
        e, f, l, s = self._paths(tmp_path)
        lines = ["0,1,1.0"] * 999 + ["0,1,1;0"]  # a later malformed line
        lines[bad_line - 2] = "0,x,1.0"
        lines.insert(400, "")  # line 402 is blank
        bad_line += bad_line >= 402
        (tmp_path / "edges.csv").write_text("src,dst,weight\n" + "\n".join(lines))
        (tmp_path / "features.csv").write_text("f0\n1.0\n-1.0\n")
        (tmp_path / "labels.csv").write_text("node,label\n")
        (tmp_path / "splits.json").write_text("{}")
        with pytest.raises(ValueError) as exc:
            load_dataset(e, f, l, s)
        assert str(exc.value).startswith(f"{e}:{bad_line}: malformed edge")

    @pytest.mark.parametrize(
        "file, body, reason",
        [
            ("edges.csv", "src,dst,weight\n{}5,1,1.0\n", "exceeds node count 3"),
            ("edges.csv", "src,dst,weight\n{}5,x,1.0\n", "malformed edge"),
            ("labels.csv", "node,label\n{}5,1\n", "node 5 out of range"),
        ],
        ids=["edge-range", "edge-malformed", "label-range"],
    )
    def test_quoted_line_break_keeps_line_numbers(self, tmp_path, file, body, reason):
        # loadtxt reads the quoted "0\n" as one field, so lines 2-3 hold one row
        # and the bad row, the third, is on line 5
        e, f, l, s = self._paths(tmp_path)
        rows = '"0\n",1,1.0\n1,2,1.0\n' if file == "edges.csv" else '"0\n",1\n1,2\n'
        (tmp_path / "edges.csv").write_text("src,dst,weight\n")
        (tmp_path / "features.csv").write_text("f0\n1.0\n-1.0\n0.5\n")
        (tmp_path / "labels.csv").write_text("node,label\n")
        (tmp_path / "splits.json").write_text("{}")
        (tmp_path / file).write_text(body.format(rows))
        with pytest.raises(ValueError) as exc:
            load_dataset(e, f, l, s)
        assert str(exc.value).startswith(f"{tmp_path / file}:5: ")
        assert reason in str(exc.value)

    def test_unclosed_quote_names_its_line(self, tmp_path):
        # the quote runs on past csv.reader's field size limit (131072 characters)
        e, f, l, s = self._paths(tmp_path)
        body = '0,1,1.0\n"0,1,1.0\n' + "0,1,1.0\n" * 20000
        (tmp_path / "edges.csv").write_text("src,dst,weight\n" + body)
        (tmp_path / "features.csv").write_text("f0\n1.0\n-1.0\n")
        (tmp_path / "labels.csv").write_text("node,label\n")
        (tmp_path / "splits.json").write_text("{}")
        with pytest.raises(ValueError) as exc:
            load_dataset(e, f, l, s)
        assert str(exc.value).startswith(f"{e}:3: malformed edge")

    def test_crlf_blank_lines_and_empty_body(self, tmp_path):
        e, f, l, s = self._paths(tmp_path)
        (tmp_path / "features.csv").write_text("f0\n1.0\n-1.0\n0.5\n")
        (tmp_path / "labels.csv").write_text("node,label\n")
        (tmp_path / "splits.json").write_text("{}")
        (tmp_path / "edges.csv").write_bytes(b"src,dst,weight\r\n\r\n 2 , 1 ,0.25\r\n")
        ds = load_dataset(e, f, l, s)
        assert ds.graph.edges == ((1, 2, 0.25),)
        (tmp_path / "edges.csv").write_text("src,dst,weight\n\n")
        assert load_dataset(e, f, l, s).graph.edges == ()

    def test_edge_file_bytes_for_fractional_weights(self, tmp_path):
        g = build_graph(3, [(1, 0, 0.1), (1, 2, 1 / 3), (2, 2, 2.5e-300)])
        ds = Dataset(g, np.eye(3), np.zeros(3, dtype=int))
        paths = self._paths(tmp_path)
        save_dataset(ds, *paths)
        assert (tmp_path / "edges.csv").read_text() == (
            "src,dst,weight\n0,1,0.10000000000000001\n"
            "1,2,0.33333333333333331\n2,2,2.5e-300\n"
        )
        assert load_dataset(*paths).graph.edges == g.edges

    def test_label_for_unknown_node(self, tmp_path):
        e, f, l, s = self._paths(tmp_path)
        (tmp_path / "edges.csv").write_text("src,dst,weight\n0,1,1.0\n")
        (tmp_path / "features.csv").write_text("f0\n1.0\n-1.0\n")
        (tmp_path / "labels.csv").write_text("node,label\n7,0\n")
        (tmp_path / "splits.json").write_text("{}")
        with pytest.raises(ValueError, match=r"labels\.csv:2"):
            load_dataset(e, f, l, s)

    @pytest.mark.parametrize(
        "body, labels",
        [
            ("0,1\n1,0\n0,2\n", [2, 0, -1]),  # the last row of a node wins
            ('"0","1"\n', [1, -1, -1]),  # quoted fields, as csv.reader read them
        ],
        ids=["repeated-node", "quoted"],
    )
    def test_label_rows(self, tmp_path, body, labels):
        e, f, l, s = self._paths(tmp_path)
        (tmp_path / "edges.csv").write_text("src,dst,weight\n0,1,1.0\n")
        (tmp_path / "features.csv").write_text("f0\n1.0\n-1.0\n0.5\n")
        (tmp_path / "labels.csv").write_text("node,label\n" + body)
        (tmp_path / "splits.json").write_text("{}")
        assert load_dataset(e, f, l, s).labels.tolist() == labels

    def test_labels_match_a_row_loop(self, tmp_path):
        # many repeated nodes in random order; a row loop is the reference
        rng = np.random.default_rng(3)
        rows = rng.integers([0, -5], [12, 5], size=(300, 2)).tolist()
        expected = [-1] * 15
        for node, label in rows:
            expected[node] = label
        e, f, l, s = self._paths(tmp_path)
        (tmp_path / "edges.csv").write_text("src,dst,weight\n")
        save_matrix(np.zeros((15, 1)), f)
        (tmp_path / "labels.csv").write_text(
            "node,label\n" + "".join(f"{a},{b}\n" for a, b in rows)
        )
        (tmp_path / "splits.json").write_text("{}")
        assert load_dataset(e, f, l, s).labels.tolist() == expected

    @pytest.mark.parametrize("row", ["0,99999999999999999999", "0,1,2", "0,1.5", "0"])
    def test_bad_label_row_names_file_and_line(self, tmp_path, row):
        e, f, l, s = self._paths(tmp_path)
        (tmp_path / "edges.csv").write_text("src,dst,weight\n0,1,1.0\n")
        (tmp_path / "features.csv").write_text("f0\n1.0\n-1.0\n")
        # a blank line and a later node out of range: the first bad line is named
        (tmp_path / "labels.csv").write_text(f"node,label\n0,1\n\n{row}\n7,0\n")
        (tmp_path / "splits.json").write_text("{}")
        with pytest.raises(ValueError) as exc:
            load_dataset(e, f, l, s)
        assert str(exc.value).startswith(f"{l}:4: malformed row")

    def test_overlapping_split_file(self, tmp_path):
        e, f, l, s = self._paths(tmp_path)
        (tmp_path / "edges.csv").write_text("src,dst,weight\n0,1,1.0\n")
        (tmp_path / "features.csv").write_text("f0\n1.0\n-1.0\n")
        (tmp_path / "labels.csv").write_text("node,label\n")
        (tmp_path / "splits.json").write_text('{"train": [0], "val": [0]}')
        with pytest.raises(ValueError, match="overlap"):
            load_dataset(e, f, l, s)

    def test_invalid_split_json(self, tmp_path):
        e, f, l, s = self._paths(tmp_path)
        (tmp_path / "edges.csv").write_text("src,dst,weight\n0,1,1.0\n")
        (tmp_path / "features.csv").write_text("f0\n1.0\n-1.0\n")
        (tmp_path / "labels.csv").write_text("node,label\n")
        (tmp_path / "splits.json").write_text("{not json")
        with pytest.raises(ValueError, match="JSON"):
            load_dataset(e, f, l, s)

    @pytest.mark.parametrize(
        "body, message",
        [
            ('{"val": "12"}', "val split must be a list"),
            ('{"train": [2.7]}', "train split index must be an integer"),
            ('{"train": [true]}', "train split index must be an integer"),
            ('{"train": ["x"]}', "train split index must be an integer"),
            ('{"train": [5000]}', "train split index 5000 out of range"),
            ('{"trian": [0]}', "unknown split name 'trian'"),
        ],
        ids=["string", "fraction", "bool", "word", "range", "name"],
    )
    def test_split_errors_name_the_file(self, tmp_path, body, message):
        e, f, l, s = self._paths(tmp_path)
        (tmp_path / "edges.csv").write_text("src,dst,weight\n0,1,1.0\n")
        (tmp_path / "features.csv").write_text("f0\n1.0\n-1.0\n")
        (tmp_path / "labels.csv").write_text("node,label\n")
        (tmp_path / "splits.json").write_text(body)
        with pytest.raises(ValueError) as exc:
            load_dataset(e, f, l, s)
        assert str(exc.value).startswith(f"{s}: ") and message in str(exc.value)

    def test_corruption_never_loads_silently_invalid(self, tmp_path):
        ds = synth_sbm(_spec(n=20, n_blocks=2, feature_dim=2))
        paths = self._paths(tmp_path)
        save_dataset(ds, *paths)
        originals = [open(p, "rb").read() for p in paths]
        rng = np.random.default_rng(42)
        for trial in range(40):
            which = trial % 4
            blob = bytearray(originals[which])
            pos = int(rng.integers(len(blob)))
            blob[pos] = int(rng.integers(256))
            with open(paths[which], "wb") as fh:
                fh.write(bytes(blob))
            try:
                loaded = load_dataset(*paths)
            except (ValueError, UnicodeDecodeError):
                pass  # located rejection is the expected path
            else:
                # If it still parses, the constructor invariants must hold.
                assert loaded.features.shape[0] == loaded.graph.n_nodes
                assert np.all(np.isfinite(loaded.features))
            with open(paths[which], "wb") as fh:
                fh.write(originals[which])


class TestSaveReport:
    def test_dict_payload(self, tmp_path):
        path = str(tmp_path / "report.json")
        save_report({"acc": 0.5, "name": "probe"}, path)
        with open(path) as fh:
            assert json.load(fh) == {"acc": 0.5, "name": "probe"}

    def test_object_with_to_dict(self, tmp_path):
        class R:
            def to_dict(self):
                return {"k": 1}

        path = str(tmp_path / "report.json")
        save_report(R(), path)
        with open(path) as fh:
            assert json.load(fh) == {"k": 1}
