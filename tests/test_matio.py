"""Tests for CSV and key=value file round-trips."""

import numpy as np
import pytest

from srplearn.matio import (
    format_float,
    read_keyvalues,
    read_matrix_csv,
    read_table_csv,
    write_keyvalues,
    write_matrix_csv,
    write_table_csv,
)


class TestMatrixCsv:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        M = rng.standard_normal((13, 7)) * 10.0 ** rng.integers(-8, 8, size=(13, 7))
        path = str(tmp_path / "m.csv")
        write_matrix_csv(path, M)
        back = read_matrix_csv(path)
        assert back.shape == M.shape
        assert np.array_equal(back, M)  # 17 significant digits round-trip

    def test_one_dimensional_written_as_row(self, tmp_path):
        path = str(tmp_path / "v.csv")
        write_matrix_csv(path, np.array([1.5, -2.25, 3.0]))
        back = read_matrix_csv(path)
        assert back.shape == (1, 3)

    def test_empty_file_reads_empty(self, tmp_path):
        path = str(tmp_path / "e.csv")
        with open(path, "w", encoding="utf-8"):
            pass
        assert read_matrix_csv(path).shape == (0, 0)

    def test_ragged_rows_rejected(self, tmp_path):
        path = str(tmp_path / "r.csv")
        with open(path, "w", encoding="utf-8") as f:
            f.write("1,2,3\n4,5\n")
        with pytest.raises(ValueError):
            read_matrix_csv(path)

    def test_special_values(self, tmp_path):
        M = np.array([[0.0, -0.0, 1e-300, 1e300]])
        path = str(tmp_path / "s.csv")
        write_matrix_csv(path, M)
        assert np.array_equal(read_matrix_csv(path), M)

    @pytest.mark.parametrize("shape", [(40, 9), (1, 5), (7,), (0, 3), (1, 0)])
    def test_bytes_match_per_value_oracle(self, tmp_path, shape):
        rng = np.random.default_rng(2)
        M = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, size=shape)
        special = [-0.0, 5e-324, 1e300, np.inf, -np.inf, np.nan, 2.0, -15.0]
        M.reshape(-1)[: len(special)] = special[: M.size]
        path = tmp_path / "m.csv"
        write_matrix_csv(str(path), M)
        rows = M[None, :] if M.ndim == 1 else M
        expected = "".join(",".join(format_float(v) for v in row) + "\n" for row in rows)
        assert path.read_bytes() == expected.encode("ascii")
        back = read_matrix_csv(str(path))
        if M.size:
            assert np.array_equal(back.view(np.uint64), rows.view(np.uint64))
        else:
            assert back.shape == (0, 0)

    @pytest.mark.parametrize("text", ["1,2,3\n4,5\n", "1,x\n", "1,,2\n"])
    def test_malformed_rejected_naming_path(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match="bad.csv"):
            read_matrix_csv(str(path))


class TestFormatFloat:
    def test_round_trips_float64(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            x = float(rng.standard_normal() * 10.0 ** rng.integers(-20, 20))
            assert float(format_float(x)) == x

    def test_integers_stay_compact(self):
        assert format_float(2.0) == "2"
        assert format_float(-15.0) == "-15"


class TestTableCsv:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "t.csv")
        header = ["name", "value", "note"]
        rows = [["a", 0.5, ""], ["b", 1.25, "x y"]]
        write_table_csv(path, header, rows)
        h, r = read_table_csv(path)
        assert h == header
        assert r[0] == ["a", "0.5", ""]
        assert r[1] == ["b", "1.25", "x y"]

    def test_floats_use_full_precision(self, tmp_path):
        path = str(tmp_path / "t.csv")
        value = 0.1 + 0.2  # not representable as "0.3"
        write_table_csv(path, ["v"], [[value]])
        _, rows = read_table_csv(path)
        assert float(rows[0][0]) == value

    def test_deterministic_bytes(self, tmp_path):
        p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        rows = [["m", 1, 0.125], ["n", 2, 0.25]]
        write_table_csv(p1, ["a", "b", "c"], rows)
        write_table_csv(p2, ["a", "b", "c"], rows)
        assert open(p1, "rb").read() == open(p2, "rb").read()


class TestKeyValues:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "kv.txt")
        write_keyvalues(path, {"alpha": 0.5, "name": "run-1", "count": 7})
        back = read_keyvalues(path)
        assert back == {"alpha": "0.5", "name": "run-1", "count": "7"}

    def test_comments_ignored(self, tmp_path):
        path = str(tmp_path / "kv.txt")
        path_obj = tmp_path / "kv.txt"
        path_obj.write_text("# comment\nkey = value\n\nother=2\n")
        back = read_keyvalues(path)
        assert back == {"key": "value", "other": "2"}

    def test_missing_equals_rejected(self, tmp_path):
        (tmp_path / "kv.txt").write_text("justakey\n")
        with pytest.raises(ValueError):
            read_keyvalues(str(tmp_path / "kv.txt"))

    def test_duplicate_key_rejected(self, tmp_path):
        # a repeated key used to override the first value silently
        (tmp_path / "kv.txt").write_text("n_runs = 100\n# note\nn_runs = 2\n")
        with pytest.raises(ValueError, match=r"kv.txt:3: duplicate key 'n_runs'"):
            read_keyvalues(str(tmp_path / "kv.txt"))
