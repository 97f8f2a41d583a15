import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from nilwalk.manifest import (CSV_SLICE_ROWS, FLOAT_FMT, HASH_BLOCK, gauge_hash, jsonify,
                              sha256_file, write_csv, write_walk_csv)
from nilwalk.norms import gauge_descriptor
from nilwalk.presets import build_walk_setup
from nilwalk.walker import SampleMatrix

from oracles import walk_csv_full_table
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
    write_csv(tmp_path / "fast.csv", "tail", meta, columns, [rows])
    header = ["nilwalk-tail-csv 1", *(f"{k}: {v}" for k, v in meta.items()),
              "columns: " + " ".join(columns)]
    np.savetxt(tmp_path / "ref.csv", rows, fmt=FLOAT_FMT, delimiter=",",
               header="\n".join(header), comments="# ")
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def sample_matrix(r, k, nl):
    """A SampleMatrix of r replicates at k checkpoints with nl layers, with
    -0.0 and integral values in every column, and the derived constants
    the walk.csv header formats."""
    rng = np.random.default_rng([r, k, nl])
    running_max = np.abs(rng.standard_normal((r, k))) * 1e3
    running_max[r // 2:, 0] = np.arange(r - r // 2)
    y_norm = rng.standard_normal((r, k))
    y_norm[:, -1] = np.floor(y_norm[:, -1] * 50)
    layer_euclid = rng.standard_normal((r, k, nl)) * 1e-3
    layer_euclid[..., 0] = np.round(layer_euclid[..., 0] * 4e3)
    for column in (running_max, y_norm, layer_euclid):
        column.flat[0] = -0.0
    result = SampleMatrix(checkpoints=tuple(range(3, 3 + 7 * k, 7)),
                          running_max=running_max, y_norm=y_norm, layer_euclid=layer_euclid,
                          q_index=rng.integers(0, 4, (r, k)),
                          final_y=np.zeros((r, 3)), cross_residual=None)
    derived = {"R_mu": 2.0 ** 0.5, "kappa_mu": "none" if nl == 1 else 0.1,
               "v_mu": np.array([0.0, -0.0, 1e-3]), "centering": np.array([1.0, 0.5, -2.0]),
               "conjugated": nl == 1, "scaling_exponent": 0.5 if nl == 1 else 1 / 3,
               "gauge": {"mode": "bracket_hull", "sha256": "ab" * 32}}
    return result, derived


@pytest.mark.parametrize("nl", [1, 3])
@pytest.mark.parametrize("r, k", [(1, 1), (1, 5), (1, 1100), (203, 1), (203, 5), (203, 1100),
                                  (1025, 1), (1025, 5)])
def test_walk_csv_bytes_equal_the_full_table(tmp_path, r, k, nl):
    """Blocks of whole replicates write the bytes of one (R*K, 6+L) table
    through np.savetxt, across slices (K = 1100 > CSV_SLICE_ROWS) and
    blocks (R*K = 5125 rows)."""
    result, derived = sample_matrix(r, k, nl)
    write_walk_csv(tmp_path / "fast.csv", result, "x", 3, derived)
    walk_csv_full_table(tmp_path / "ref.csv", result, "x", 3, derived)
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_walk_csv_memory_does_not_grow_with_the_replicates(tmp_path):
    """Ten times the replicates raise write_walk_csv's traced peak by less
    than 64 KiB: it holds one CSV slice, not the whole table (5.4 MiB more
    at 20 000 replicates of 5 checkpoints)."""
    peaks = []
    for r in (2000, 20000):
        result, derived = sample_matrix(r, 5, 1)
        tracemalloc.start()
        try:
            write_walk_csv(tmp_path / "w.csv", result, "x", 0, derived)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < peaks[0] + (64 << 10), peaks


@pytest.mark.parametrize("size", [0, HASH_BLOCK - 1, HASH_BLOCK, HASH_BLOCK + 1,
                                  3 * HASH_BLOCK + 7])
def test_sha256_file_is_the_digest_of_the_bytes(tmp_path, size):
    data = np.random.default_rng(size).integers(0, 256, size, dtype=np.uint8).tobytes()
    (tmp_path / "f").write_bytes(data)
    assert sha256_file(str(tmp_path / "f")) == hashlib.sha256(data).hexdigest()


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
