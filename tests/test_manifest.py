import numpy as np
import pytest

from nilwalk.manifest import CSV_SLICE_ROWS, FLOAT_FMT, write_csv


def csv_rows(n, cols):
    rows = np.random.default_rng(n).standard_normal((n, cols)) * 1e3
    specials = [-0.0, 5e-324, 1e308, 3.0, -7.0, 0.1]
    rows.flat[:len(specials)] = specials[:rows.size]
    rows[n // 2:, 0] = np.arange(n - n // 2)  # integer-valued floats
    return rows


@pytest.mark.parametrize("n, cols", [(1, 4), (CSV_SLICE_ROWS, 3), (CSV_SLICE_ROWS + 1, 5),
                                     (CSV_SLICE_ROWS + 1, 1), (2, 1)])
@pytest.mark.parametrize("meta", [{}, {"preset": "x", "seed": 3}], ids=["no-meta", "meta"])
def test_write_csv_bytes_equal_savetxt(tmp_path, n, cols, meta):
    rows = csv_rows(n, cols)
    columns = [f"c{i}" for i in range(cols)]
    write_csv(tmp_path / "fast.csv", "tail", meta, columns, rows)
    header = ["nilwalk-tail-csv 1", *(f"{k}: {v}" for k, v in meta.items()),
              "columns: " + " ".join(columns)]
    np.savetxt(tmp_path / "ref.csv", rows, fmt=FLOAT_FMT, delimiter=",",
               header="\n".join(header), comments="# ")
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

