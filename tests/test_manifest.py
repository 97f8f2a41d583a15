import hashlib
import json

import numpy as np
import pytest

from nilwalk.manifest import CSV_SLICE_ROWS, FLOAT_FMT, gauge_hash, jsonify, write_csv
from nilwalk.norms import gauge_descriptor
from nilwalk.presets import build_walk_setup

from schema_defaults import with_defaults


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



def per_element(obj):
    """JSON-ready values one element at a time: the route every array took
    before finite float arrays became one tolist() call."""
    if isinstance(obj, dict):
        return {str(k): per_element(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [per_element(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [per_element(v) for v in obj.tolist()]
    if isinstance(obj, (float, np.floating)):
        return float(obj) if np.isfinite(obj) else None
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


@pytest.mark.parametrize("array, text", [
    (np.array([1.5, -0.0, 0.1, 5e-324, 1e308]), "[1.5,-0.0,0.1,5e-324,1e+308]"),
    (np.array([[np.nan, -0.0], [np.inf, -np.inf]]), "[[null,-0.0],[null,null]]"),
    (np.array([[3, -4]], dtype=np.int64), "[[3,-4]]"),
    (np.array([0.5, 2.0], dtype=np.float32), "[0.5,2.0]"),
    (np.zeros((2, 0)), "[[],[]]"),
], ids=["finite", "not-finite", "int", "float32", "empty"])
def test_jsonify_arrays_keep_their_json(array, text):
    for obj in (array, {"a": [array]}):
        got = json.dumps(jsonify(obj), separators=(",", ":"), allow_nan=False)
        assert got == json.dumps(per_element(obj), separators=(",", ":"), allow_nan=False)
    assert json.dumps(jsonify(array), separators=(",", ":")) == text


@pytest.mark.parametrize("preset", ["heisenberg-srw", "filiform4-srw", "engel5-srw"])
@pytest.mark.parametrize("mode", ["bracket_hull", "scaled_euclidean"])
def test_gauge_hash_is_the_hash_of_per_element_json(preset, mode):
    norm = with_defaults(build_walk_setup, preset, gauge_mode=mode).norm
    body = json.dumps(per_element(gauge_descriptor(norm)), sort_keys=True, separators=(",", ":"))
    assert gauge_hash(norm) == hashlib.sha256(body.encode()).hexdigest()
