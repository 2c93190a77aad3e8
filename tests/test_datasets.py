"""Tests for dataset containers, the svmlight reader/writer, and synthesis."""

import itertools
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srplearn import datasets, projection
from srplearn.datasets import (
    Dataset,
    read_svmlight,
    subsample,
    subsample_indices,
    synth_generate,
    write_svmlight,
)
from srplearn.exceptions import SvmlightParseError
from srplearn.projection import derive_seed, make_projection
from srplearn.sparse import SparseBinaryMatrix
from test_projection import _GAMMA, _MASK64, _mix


def _per_token_oracle(
    path: str,
    dense_feature_count: int = 0,
    index_base: int = 1,
    n_features: int | None = None,
) -> Dataset:
    """The per-token reader that the block parse replaced, kept as reference."""
    labels = []
    rows = []
    dense_rows = []
    max_sparse = -1
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            tokens = line.split()
            try:
                value = float(tokens[0])
            except ValueError:
                raise SvmlightParseError(
                    path, line_no, f"bad label {tokens[0]!r}"
                ) from None
            labels.append(1 if value > 0 else -1)
            dense = np.zeros(dense_feature_count, dtype=np.float64)
            sparse_idx = []
            seen = set()
            for token in tokens[1:]:
                try:
                    idx_str, val_str = token.split(":", 1)
                    idx = int(idx_str)
                    value = float(val_str)
                except ValueError:
                    raise SvmlightParseError(
                        path, line_no, f"bad feature token {token!r}"
                    ) from None
                idx -= index_base
                if idx < 0:
                    raise SvmlightParseError(
                        path, line_no, f"feature index below base: {token!r}"
                    )
                if idx in seen:
                    raise SvmlightParseError(
                        path, line_no, f"duplicate feature index {idx + index_base}"
                    )
                seen.add(idx)
                if not np.isfinite(value):
                    raise SvmlightParseError(
                        path, line_no, f"non-finite value {token!r}"
                    )
                if idx < dense_feature_count:
                    dense[idx] = value
                elif value != 0.0:
                    sparse_idx.append(idx - dense_feature_count)
            if sparse_idx:
                max_sparse = max(max_sparse, max(sparse_idx))
            rows.append(np.sort(np.asarray(sparse_idx, dtype=np.int64)))
            dense_rows.append(dense)
    if n_features is None:
        sparse_width = max_sparse + 1
    else:
        sparse_width = n_features - dense_feature_count
        if sparse_width < 0:
            raise ValueError("n_features smaller than dense_feature_count")
        if max_sparse >= sparse_width:
            raise SvmlightParseError(
                path,
                0,
                f"sparse index {max_sparse} exceeds width {sparse_width} "
                f"implied by n_features={n_features}",
            )
    sparse = SparseBinaryMatrix.from_rows(rows, sparse_width)
    dense = (
        np.vstack(dense_rows)
        if dense_feature_count > 0 and dense_rows
        else (np.zeros((len(rows), dense_feature_count)) if dense_feature_count else None)
    )
    name = os.path.splitext(os.path.basename(path))[0]
    return Dataset(sparse, dense, np.asarray(labels, dtype=np.int64), name)


def _per_entry_writer_oracle(ds: Dataset, path: str, index_base: int = 1) -> None:
    """The per-entry writer that the array-built file replaced, kept as reference."""
    n_dense = ds.n_dense_features
    with open(path, "w", encoding="utf-8") as handle:
        for i in range(ds.n_samples):
            parts = ["+1" if ds.labels[i] > 0 else "-1"]
            if ds.dense is not None:
                for j in np.flatnonzero(ds.dense[i]):
                    parts.append(f"{j + index_base}:{ds.dense[i, j]:.17g}")
            for j in ds.sparse.row(i):
                parts.append(f"{int(j) + n_dense + index_base}:1")
            handle.write(" ".join(parts) + "\n")


def _reference_positions(seed, row, width, rate):
    """Bernoulli(rate) positions in [0, width) of row ``row`` of the stream
    seeded ``seed``, from its definition with Python ints and ``math.log``."""
    key = _mix(_mix(seed & _MASK64) + (row + 1) * _GAMMA)
    cols, pos = [], -1
    if rate == 0.0 or width == 0:
        return cols
    for j in itertools.count():
        if rate == 1.0:
            pos = j
        else:
            u = ((_mix(key + (2 * j + 1) * _GAMMA) >> 11) + 1) / 2**53
            pos += math.floor(math.log(u) / math.log1p(-rate)) + 1
        if pos >= width:
            return cols
        cols.append(pos)


def _reference_synth(n, n_features, density, signal_features, flip_prob, seed):
    """(rows, labels) of synth_generate drawn one row at a time: signal
    segment on key 0, background on key 1, the flip on key 2."""
    data_seed = derive_seed(seed, datasets._DATA_STREAM)
    signal_key, background_key, flip_key = (derive_seed(data_seed, k) for k in range(3))
    rows, labels = [], []
    for i in range(n):
        label = 1 if i % 2 == 0 else -1
        rate = density * 4.0 if label > 0 else density * 0.25
        background = _reference_positions(
            background_key, i, n_features - signal_features, density
        )
        rows.append(
            _reference_positions(signal_key, i, signal_features, rate)
            + [signal_features + c for c in background]
        )
        flipped = _reference_positions(flip_key, i, 1, flip_prob) == [0]
        labels.append(-label if flipped else label)
    return SparseBinaryMatrix.from_rows(rows, n_features), np.array(labels)


def _outcome(read, path, **kwargs):
    """The dataset a reader returns, or the type, text and line of its error."""
    try:
        return read(path, **kwargs)
    except (SvmlightParseError, ValueError) as exc:
        return (type(exc), str(exc), getattr(exc, "line_no", None))


def _assert_reads_like_oracle(path, **kwargs):
    expected = _outcome(_per_token_oracle, path, **kwargs)
    got = _outcome(read_svmlight, path, **kwargs)
    if isinstance(expected, tuple):
        assert got == expected
        return
    assert not isinstance(got, tuple), got
    assert got.sparse == expected.sparse
    assert np.array_equal(got.labels, expected.labels)
    assert got.labels.dtype == expected.labels.dtype
    if expected.dense is None:
        assert got.dense is None
    else:
        # bit for bit, so a -0.0 dense value must stay -0.0
        assert got.dense.shape == expected.dense.shape
        assert got.dense.tobytes() == expected.dense.tobytes()
    assert got.name == expected.name


# malformed or rejected tokens, for index base 1 (base 0 shifts the below-base one)
_BAD_TOKENS = ["abc", "1:", ":1", "1:2:3", "1.5:1", "1e3:1", "0:1", "2:nan", "3:inf", "4:-Infinity"]
_VALUES = ["1", "0", "-0", "0.0", "0.5", "-2.25", "+4", "1e-3", "1E2", ".5", "5.", "7", "-1",
           "1e-400", "0.30000000000000004", "-1.2345678901234567e-05"]
_LABELS = ["+1", "-1", "1", "0", "2.5", "-3", "1e0", "nan", "abc", "1:1"]


@st.composite
def _svmlight_files(draw):
    """(text, index_base, dense_feature_count, n_features) of a small file."""
    base = draw(st.sampled_from([0, 1]))
    n_dense = draw(st.integers(0, 3))
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.integers(0, 9))
        if kind == 0:
            lines.append(draw(st.sampled_from(["", "   ", "\t", "# only a comment"])))
            continue
        label = draw(st.sampled_from(_LABELS[:7]) if kind > 1 else st.sampled_from(_LABELS))
        tokens = [label]
        for _ in range(draw(st.integers(0, 6))):
            pick = draw(st.integers(0, 59))
            if pick < 2:
                token = draw(st.sampled_from(_BAD_TOKENS))
                if token == "0:1":
                    token = f"{base - 1}:1"
            elif pick == 2 and len(tokens) > 1:
                token = draw(st.sampled_from(tokens[1:]))  # a duplicate, usually
            else:
                index = draw(st.integers(base, base + 40))
                written = draw(st.sampled_from([str(index), f"+{index}", f"0{index}"]))
                if pick < 12:
                    value = repr(draw(st.floats(allow_nan=False, allow_infinity=False)))
                else:
                    value = draw(st.sampled_from(_VALUES))
                token = f"{written}:{value}"
            tokens.append(token)
        line = draw(st.sampled_from([" ", "  ", "\t"])).join(tokens)
        if draw(st.booleans()):
            line += draw(st.sampled_from([" # trailing", "#x 1:1"]))
        lines.append(line)
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = newline.join(lines) + (newline if draw(st.booleans()) else "")
    n_features = draw(st.sampled_from([None, None, n_dense + 20, n_dense + 45]))
    return text, base, n_dense, n_features



class TestReadSvmlight:
    def test_basic_parse(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("+1 1:1 3:1 7:1\n-1 2:1 3:1\n")
        ds = read_svmlight(str(p))
        assert ds.n_samples == 2
        assert np.array_equal(ds.labels, [1, -1])
        # 1-based indices shift down by one
        assert np.array_equal(ds.sparse.row(0), [0, 2, 6])
        assert np.array_equal(ds.sparse.row(1), [1, 2])
        assert ds.n_sparse_features == 7
        assert ds.dense is None

    def test_dense_block_mapping(self, tmp_path):
        # the first dense_feature_count indices hold real values, the rest
        # become binary set members shifted down by the dense width
        p = tmp_path / "d.txt"
        p.write_text("+1 1:0.25 2:-3 4:1 6:1\n-1 2:1.5 5:1\n")
        ds = read_svmlight(str(p), dense_feature_count=2)
        assert ds.dense.shape == (2, 2)
        assert ds.dense[0, 0] == 0.25
        assert ds.dense[0, 1] == -3.0
        assert ds.dense[1, 0] == 0.0
        assert ds.dense[1, 1] == 1.5
        assert np.array_equal(ds.sparse.row(0), [1, 3])  # indices 4,6 -> 1,3
        assert np.array_equal(ds.sparse.row(1), [2])

    def test_binarizes_nonzero_sparse_values(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("+1 1:7 2:0 3:0.5\n")
        ds = read_svmlight(str(p))
        # zero-valued entries vanish, any other value becomes membership
        assert np.array_equal(ds.sparse.row(0), [0, 2])

    def test_comments_and_blank_lines(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("# header comment\n\n+1 1:1 # trailing\n\n-1 2:1\n")
        ds = read_svmlight(str(p))
        assert ds.n_samples == 2

    def test_label_conventions(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("2 1:1\n0 2:1\n-3 1:1\n1.0 2:1\n")
        ds = read_svmlight(str(p))
        assert np.array_equal(ds.labels, [1, -1, -1, 1])

    def test_out_of_order_indices_tolerated(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("+1 5:1 2:1 9:1\n")
        ds = read_svmlight(str(p))
        assert np.array_equal(ds.sparse.row(0), [1, 4, 8])

    def test_duplicate_index_rejected_with_line_number(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("+1 1:1\n-1 3:1 3:1\n")
        with pytest.raises(SvmlightParseError) as exc:
            read_svmlight(str(p))
        assert exc.value.line_no == 2

    def test_malformed_pair_rejected(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("+1 abc\n")
        with pytest.raises(SvmlightParseError):
            read_svmlight(str(p))

    def test_index_below_base_rejected(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("+1 0:1\n")
        with pytest.raises(SvmlightParseError):
            read_svmlight(str(p))

    def test_index_base_zero(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("+1 0:1 4:1\n")
        ds = read_svmlight(str(p), index_base=0)
        assert np.array_equal(ds.sparse.row(0), [0, 4])

    def test_explicit_n_features(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("+1 1:1\n")
        ds = read_svmlight(str(p), n_features=100)
        assert ds.n_sparse_features == 100

    def test_empty_file(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("")
        ds = read_svmlight(str(p))
        assert ds.n_samples == 0

    def test_non_finite_value_rejected(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("+1 1:nan\n")
        with pytest.raises(SvmlightParseError):
            read_svmlight(str(p), dense_feature_count=2)


class TestReadMatchesPerTokenOracle:
    """The block parse reads, and rejects, exactly what the per-token loop did."""

    @settings(max_examples=300, deadline=None)
    @given(spec=_svmlight_files(), block=st.integers(min_value=1, max_value=64))
    def test_property_small_blocks(self, spec, block):
        text, base, n_dense, n_features = spec
        old = datasets._BLOCK_BYTES
        datasets._BLOCK_BYTES = block  # rows cross block boundaries
        try:
            with tempfile.TemporaryDirectory() as tmp:
                path = os.path.join(tmp, "d.svm")
                with open(path, "wb") as handle:
                    handle.write(text.encode("utf-8"))
                _assert_reads_like_oracle(
                    path,
                    dense_feature_count=n_dense,
                    index_base=base,
                    n_features=n_features,
                )
        finally:
            datasets._BLOCK_BYTES = old

    @pytest.mark.parametrize("block", [3, 1 << 22])
    @pytest.mark.parametrize("bad", _BAD_TOKENS + ["1_0:1", "\u0661:1", "1:\u0661"])
    def test_each_bad_token(self, monkeypatch, tmp_path, block, bad):
        monkeypatch.setattr(datasets, "_BLOCK_BYTES", block)
        p = tmp_path / "d.svm"
        p.write_text(f"+1 1:1 2:0.5\n# c\n-1 5:1 3:2 {bad} 9:1\n+1 1:1\n")
        if bad in ("1_0:1", "\u0661:1", "1:\u0661"):
            # Python's int() and float() accept "_" separators and non-ASCII
            # digits; the block parse takes ASCII digits only
            with pytest.raises(SvmlightParseError) as exc:
                read_svmlight(str(p))
            assert (exc.value.line_no, str(exc.value)) == (
                3, f"{p}:3: bad feature token {bad!r}"
            )
        else:
            _assert_reads_like_oracle(str(p))

    @pytest.mark.parametrize(
        "text, line_no, reason",
        [
            ("+1 0:1 abc\n", 1, "feature index below base: '0:1'"),
            ("+1 abc 0:1\n", 1, "bad feature token 'abc'"),
            ("+1 3:1 3:nan\n", 1, "duplicate feature index 3"),
            ("+1 3:nan 3:1\n", 1, "non-finite value '3:nan'"),
            ("+1 2:1 02:1 3:1 3:1\n", 1, "duplicate feature index 2"),
            ("+1 1:1\nx 1:1\n+1 abc\n", 2, "bad label 'x'"),
            ("+1 abc\nx 1:1\n", 1, "bad feature token 'abc'"),
            ("+1 1:1\n\n\n-1 1:1 2:1 7:1e400\n", 4, "non-finite value '7:1e400'"),
            ("+1 1:1\r-1 1:", 2, "bad feature token '1:'"),
            ("\n\n# c\n\n+1 1:1\n\n\n-1 abc\n", 8, "bad feature token 'abc'"),
        ],
    )
    def test_first_error_in_file_order(self, monkeypatch, tmp_path, text, line_no, reason):
        p = tmp_path / "d.svm"
        p.write_bytes(text.encode("utf-8"))
        for block in (1, 5, 16, 1 << 22):
            monkeypatch.setattr(datasets, "_BLOCK_BYTES", block)
            with pytest.raises(SvmlightParseError) as exc:
                read_svmlight(str(p))
            assert (exc.value.path, exc.value.line_no) == (str(p), line_no)
            assert str(exc.value) == f"{p}:{line_no}: {reason}"
            _assert_reads_like_oracle(str(p))

    def test_batch_file_across_blocks(self, monkeypatch, tmp_path):
        ds = synth_generate(300, 2000, 0.02, 100, 0.1, seed=4)
        path = str(tmp_path / "batch.svm")
        write_svmlight(ds, path)
        for block in (1000, 1 << 22):
            monkeypatch.setattr(datasets, "_BLOCK_BYTES", block)
            _assert_reads_like_oracle(path, n_features=2000)
            _assert_reads_like_oracle(path, dense_feature_count=40, index_base=0)


class TestWriteSvmlight:
    def test_round_trip_sparse_only(self, tmp_path):
        rng = np.random.default_rng(0)
        rows = [np.flatnonzero(rng.random(50) < 0.2) for _ in range(20)]
        ds = Dataset(
            SparseBinaryMatrix.from_rows(rows, 50),
            None,
            np.where(rng.random(20) > 0.5, 1, -1).astype(np.int64),
            "t",
        )
        path = str(tmp_path / "out.txt")
        write_svmlight(ds, path)
        back = read_svmlight(path, n_features=50)
        assert back.sparse == ds.sparse
        assert np.array_equal(back.labels, ds.labels)

    def test_round_trip_with_dense_block(self, tmp_path):
        rng = np.random.default_rng(1)
        rows = [np.flatnonzero(rng.random(30) < 0.2) for _ in range(10)]
        dense = rng.standard_normal((10, 3))
        dense[2, 1] = 0.0  # zeros must survive the omit-zeros convention
        ds = Dataset(
            SparseBinaryMatrix.from_rows(rows, 30),
            dense,
            np.where(rng.random(10) > 0.5, 1, -1).astype(np.int64),
            "t",
        )
        path = str(tmp_path / "out.txt")
        write_svmlight(ds, path)
        back = read_svmlight(path, dense_feature_count=3, n_features=33)
        assert back.sparse == ds.sparse
        assert np.array_equal(back.dense, ds.dense)
        assert np.array_equal(back.labels, ds.labels)

    def test_round_trip_index_past_int32(self, tmp_path):
        # int32 storage, but the written index 2**31 + 1 does not fit int32
        width = 2**31 - 1
        sparse = SparseBinaryMatrix([0, 1], [width - 1], width)
        assert sparse.indices.dtype == np.int32
        ds = Dataset(sparse, np.array([[0.5, -1.25]]), np.array([1]), "t")
        path = tmp_path / "out.txt"
        write_svmlight(ds, str(path))
        assert path.read_text() == f"+1 1:0.5 2:-1.25 {2**31 + 1}:1\n"
        back = read_svmlight(str(path), dense_feature_count=2, n_features=width + 2)
        assert back.sparse == ds.sparse
        assert np.array_equal(back.dense, ds.dense)
        assert np.array_equal(back.labels, ds.labels)


    @pytest.mark.parametrize("index_base", [0, 1])
    @pytest.mark.parametrize("n_dense", [0, 3])
    def test_bytes_match_per_entry_oracle(self, tmp_path, index_base, n_dense):
        rng = np.random.default_rng(5)
        rows = [np.flatnonzero(rng.random(40) < 0.15) for _ in range(12)]
        rows[3] = np.empty(0, dtype=np.int64)  # a row with no sparse entry
        dense = None
        if n_dense:
            dense = rng.standard_normal((12, n_dense))
            dense[0, :] = 0.0  # a row with no dense entry
            dense[4, 1] = 0.0
            dense[5, 2] = -0.0  # omitted like 0.0
            dense[6, 0] = 1e-300
        labels = np.where(rng.random(12) > 0.5, 1, -1).astype(np.int64)
        for n in (12, 0):
            ds = Dataset(
                SparseBinaryMatrix.from_rows(rows[:n], 40),
                None if dense is None else dense[:n],
                labels[:n],
                "t",
            )
            new, old = tmp_path / "new.svm", tmp_path / "old.svm"
            write_svmlight(ds, str(new), index_base=index_base)
            _per_entry_writer_oracle(ds, str(old), index_base=index_base)
            assert new.read_bytes() == old.read_bytes()


class TestDataset:
    def test_take_preserves_alignment(self):
        rng = np.random.default_rng(2)
        rows = [np.flatnonzero(rng.random(20) < 0.3) for _ in range(8)]
        ds = Dataset(
            SparseBinaryMatrix.from_rows(rows, 20),
            rng.standard_normal((8, 2)),
            np.array([1, -1] * 4, dtype=np.int64),
            "t",
        )
        sub = ds.take(np.array([5, 1, 6]))
        assert np.array_equal(sub.labels, ds.labels[[5, 1, 6]])
        assert np.array_equal(sub.dense, ds.dense[[5, 1, 6]])
        assert np.array_equal(sub.sparse.row(0), ds.sparse.row(5))

    def test_label_values_validated(self):
        with pytest.raises(ValueError):
            Dataset(
                SparseBinaryMatrix.from_rows([[0]], 2),
                None,
                np.array([0], dtype=np.int64),
                "t",
            )

    def test_row_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Dataset(
                SparseBinaryMatrix.from_rows([[0], [1]], 2),
                np.zeros((3, 1)),
                np.array([1, -1], dtype=np.int64),
                "t",
            )


class TestSubsample:
    def test_indices_sorted_unique_and_deterministic(self):
        i1 = subsample_indices(100, 30, seed=4)
        i2 = subsample_indices(100, 30, seed=4)
        assert np.array_equal(i1, i2)
        assert np.all(np.diff(i1) > 0)
        assert i1.size == 30

    def test_different_seeds_differ(self):
        assert not np.array_equal(
            subsample_indices(1000, 100, seed=0), subsample_indices(1000, 100, seed=1)
        )

    def test_uniform_coverage(self):
        # each index selected with probability n/N; check a fixed index
        # across many seeds within 4 sigma
        hits = sum(
            0 in subsample_indices(50, 10, seed=s) for s in range(500)
        )
        p = 10 / 50
        sigma = np.sqrt(500 * p * (1 - p))
        assert abs(hits - 500 * p) < 4 * sigma

    def test_subsample_dataset(self):
        ds = synth_generate(40, 200, 0.05, 20, 0.0, seed=3)
        sub = subsample(ds, 15, seed=9)
        assert sub.n_samples == 15
        idx = subsample_indices(40, 15, seed=9)
        assert np.array_equal(sub.labels, ds.labels[idx])

    def test_oversampling_rejected(self):
        with pytest.raises(ValueError):
            subsample_indices(5, 6, seed=0)


class TestSynthGenerate:
    def test_shapes_and_alternating_labels(self):
        ds = synth_generate(10, 500, 0.01, 50, 0.0, seed=0)
        assert ds.n_samples == 10
        assert ds.n_sparse_features == 500
        assert np.array_equal(ds.labels, np.array([1, -1] * 5))

    def test_signal_rates_within_binomial_bounds(self):
        # positive rows hit signal features at 4x density, negatives at x/4
        n, D, density, S = 400, 2000, 0.01, 200
        ds = synth_generate(n, D, density, S, 0.0, seed=1)
        pos_rows = [ds.sparse.row(i) for i in range(n) if ds.labels[i] > 0]
        neg_rows = [ds.sparse.row(i) for i in range(n) if ds.labels[i] < 0]
        pos_signal = sum(int(np.sum(r < S)) for r in pos_rows)
        neg_signal = sum(int(np.sum(r < S)) for r in neg_rows)
        n_pos, n_neg = len(pos_rows), len(neg_rows)
        exp_pos = n_pos * S * density * 4
        exp_neg = n_neg * S * density / 4
        assert abs(pos_signal - exp_pos) < 4 * np.sqrt(exp_pos)
        assert abs(neg_signal - exp_neg) < 4 * np.sqrt(exp_neg)
        # background features stay at the base rate for both classes
        bg_pos = sum(int(np.sum(r >= S)) for r in pos_rows)
        exp_bg = n_pos * (D - S) * density
        assert abs(bg_pos - exp_bg) < 4 * np.sqrt(exp_bg)

    def test_flip_probability_applied(self):
        n = 2000
        ds_clean = synth_generate(n, 100, 0.05, 10, 0.0, seed=2)
        ds_flip = synth_generate(n, 100, 0.05, 10, 0.3, seed=2)
        # rows are generated from the true labels, so the feature matrix
        # is unchanged and only labels move
        assert ds_clean.sparse == ds_flip.sparse
        flipped = int(np.sum(ds_clean.labels != ds_flip.labels))
        sigma = np.sqrt(n * 0.3 * 0.7)
        assert abs(flipped - n * 0.3) < 4 * sigma

    @pytest.mark.parametrize("block", [1, 7, 64, 1 << 18])
    @pytest.mark.parametrize(
        "n, n_features, density, signal, flip",
        [
            (23, 5, 0.2, 2, 0.3),  # several rows per block, last block partial
            (4, 40, 0.1, 10, 0.0),  # a row wider than a small block
            (9, 3, 0.25, 3, 0.1),  # all signal; positive rows at rate 1
            (1, 1, 1.0, 0, 0.0),
            (301, 1000, 0.02, 100, 0.05),
        ],
    )
    def test_blocks_match_per_row_oracle(
        self, monkeypatch, block, n, n_features, density, signal, flip
    ):
        for seed in (0, 3):
            expected = synth_generate(n, n_features, density, signal, flip, seed)
            monkeypatch.setattr(projection, "_BLOCK_DRAWS", block)
            ds = synth_generate(n, n_features, density, signal, flip, seed)
            monkeypatch.undo()
            for name in ("indptr", "indices"):
                a, b = getattr(ds.sparse, name), getattr(expected.sparse, name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
            assert ds.labels.tobytes() == expected.labels.tobytes()
            rows, labels = _reference_synth(n, n_features, density, signal, flip, seed)
            assert ds.sparse == rows
            assert np.array_equal(ds.labels, labels)

    def test_rows_independent_of_row_count(self):
        # row i depends only on (seed, i), so a shorter run is a prefix
        full = synth_generate(500, 800, 0.03, 80, 0.2, seed=6)
        for m in (1, 137, 499):
            prefix = synth_generate(m, 800, 0.03, 80, 0.2, seed=6)
            assert full.sparse.take_rows(np.arange(m)) == prefix.sparse
            assert np.array_equal(full.labels[:m], prefix.labels)

    def test_rows_not_shared_with_model_streams(self):
        # a model fitted with the data's seed derives its projections from
        # that seed (elm's streams 1-3, e.g. rvfl's linear branch on
        # derive_seed(seed, 1)); none of them may repeat the data's rows
        n, D, density, seed = 30, 400, 0.05, 5
        ds = synth_generate(n, D, density, 0, 0.0, seed)
        for stream_seed in [seed] + [derive_seed(seed, k) for k in range(4)]:
            pattern = make_projection(n, D, density, stream_seed).pattern
            shared = [np.array_equal(pattern.row(i), ds.sparse.row(i)) for i in range(n)]
            assert not any(shared)

    def test_rates_pooled_over_seeds(self):
        # every count is binomial; each class's signal and background
        # totals must lie within 4 sigma of their means
        n, D, density, S, seeds = 40, 400, 0.05, 100, range(100)
        totals = np.zeros((2, 2))  # [class +1, class -1] x [signal, background]
        for seed in seeds:
            ds = synth_generate(n, D, density, S, 0.0, seed)
            counts = np.diff(ds.sparse.indptr)
            signal = np.add.reduceat(ds.sparse.indices < S, ds.sparse.indptr[:-1])
            signal[counts == 0] = 0  # reduceat yields the next entry for empty rows
            for c, label in enumerate((1, -1)):
                rows = ds.labels == label
                totals[c] += signal[rows].sum(), (counts - signal)[rows].sum()
        rows_per_class = n // 2 * len(seeds)
        for c, factor in enumerate((4.0, 0.25)):
            for k, (width, rate) in enumerate(((S, density * factor), (D - S, density))):
                trials = rows_per_class * width
                sigma = np.sqrt(trials * rate * (1 - rate))
                assert abs(totals[c, k] - trials * rate) < 4 * sigma

    def test_rate_one_rows_hold_every_signal_column(self):
        # density 0.25 puts the positive rows' signal segment at rate 1
        ds = synth_generate(50, 200, 0.25, 40, 0.0, seed=2)
        for i in range(0, 50, 2):
            row = ds.sparse.row(i)
            assert row[row < 40].tolist() == list(range(40))
        negative_signal = [np.sum(ds.sparse.row(i) < 40) for i in range(1, 50, 2)]
        assert max(negative_signal) < 40

    def test_deterministic(self):
        a = synth_generate(30, 300, 0.02, 30, 0.1, seed=7)
        b = synth_generate(30, 300, 0.02, 30, 0.1, seed=7)
        assert a.sparse == b.sparse
        assert np.array_equal(a.labels, b.labels)

    def test_density_cap_validated(self):
        with pytest.raises(ValueError):
            synth_generate(10, 100, 0.3, 10, 0.0, seed=0)  # 4x > 1

    def test_signal_zero_gives_chance_auc(self):
        # no informative features: any classifier should hover at 0.5;
        # check the labels are independent of the rows via a direct probe
        from srplearn.kernel import KERNEL_JACCARD, kernel_matrix, krr_fit, krr_predict
        from srplearn.metrics import roc_auc

        aucs = []
        for seed in range(5):
            ds = synth_generate(300, 400, 0.05, 0, 0.0, seed=seed)
            train = ds.take(np.arange(200))
            test = ds.take(np.arange(200, 300))
            K = kernel_matrix(KERNEL_JACCARD, train.sparse, train.sparse)
            model = krr_fit(
                K, train.labels.astype(float), np.array([1.0]), KERNEL_JACCARD,
                train.sparse,
            )
            aucs.append(roc_auc(krr_predict(model, test.sparse), test.labels))
        assert abs(np.mean(aucs) - 0.5) < 0.1
