"""Deterministic artifact emission: CSV matrices, manifest JSON, hashing.

Every file written here is a pure function of the resolved configuration
and the seed: floats are emitted at 17 significant digits, JSON keys are
sorted, and nothing records wall-clock time or host identity.  The
manifest carries a sha256 per emitted file so a rerun can be checked
byte for byte.

Memory stays at one slice of output: walk.csv is formatted a block of
whole replicates at a time, read straight from the sample matrix, and
files are hashed through one reused buffer.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

from .norms import HomogeneousNorm, gauge_descriptor
from .splitting import ScanResult
from .walker import SampleMatrix

MANIFEST_SCHEMA_VERSION = 1
FLOAT_FMT = "%.17g"
# rows write_csv formats per %; one % for a whole wide walk would hold its
# every float in one tuple, tens of MiB
CSV_SLICE_ROWS = 1024
# bytes sha256_file reads into its one buffer per call
HASH_BLOCK = 1 << 16


def jsonify(obj):
    """Recursively convert numpy containers into plain JSON-ready values.

    NaN and infinite floats become null, which JSON can represent.
    """
    if isinstance(obj, dict):
        return {str(k): jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind == "f" and np.isfinite(obj).all():
            return obj.tolist()  # already plain finite floats
        return [jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (float, np.floating)):
        return float(obj) if math.isfinite(obj) else None
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def gauge_hash(norm: HomogeneousNorm) -> str:
    body = json.dumps(jsonify(gauge_descriptor(norm)), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(body.encode()).hexdigest()


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    buf = bytearray(HASH_BLOCK)
    view = memoryview(buf)
    with open(path, "rb", buffering=0) as fh:
        while size := fh.readinto(buf):
            h.update(view[:size])
    return h.hexdigest()


def _fmt(x) -> str:
    return FLOAT_FMT % float(x)


def _vector(v) -> str:
    return " ".join(_fmt(x) for x in np.asarray(v, dtype=float).ravel())


def write_csv(path: str, kind: str, meta: dict, columns, blocks) -> None:
    """A nilwalk CSV: '# nilwalk-<kind>-csv 1', one '# key: value' line per
    meta entry, '# columns: ...', then the rows of each 2-D block in blocks,
    one column per name, at FLOAT_FMT.  The bytes are np.savetxt's for the
    blocks stacked (fmt=FLOAT_FMT, delimiter=","); each block is formatted
    CSV_SLICE_ROWS rows at a time, so blocks may come from a generator."""
    header = [f"nilwalk-{kind}-csv 1", *(f"{k}: {v}" for k, v in meta.items()),
              "columns: " + " ".join(columns)]
    line = ",".join([FLOAT_FMT] * len(columns)) + "\n"
    with open(path, "w") as fh:
        fh.write("# " + "\n".join(header).replace("\n", "\n# ") + "\n")
        for rows in blocks:
            for lo in range(0, len(rows), CSV_SLICE_ROWS):
                part = rows[lo:lo + CSV_SLICE_ROWS]
                fh.write((line * len(part)) % tuple(part.ravel().tolist()))


def write_walk_csv(path: str, result: SampleMatrix, preset: str, seed: int,
                   derived: dict) -> None:
    """One row per replicate and checkpoint; M_scaled is M / n^scaling_exponent.
    The header formats derived, the constants the walk's manifest records."""
    nl = result.layer_euclid.shape[2]
    exponent, kappa = derived["scaling_exponent"], derived["kappa_mu"]
    meta = {
        "preset": preset,
        "seed": seed,
        "R_mu": _fmt(derived["R_mu"]),
        "kappa_mu": kappa if isinstance(kappa, str) else _fmt(kappa),
        "v_mu": _vector(derived["v_mu"]),
        "centering": _vector(derived["centering"]),
        "conjugated": str(derived["conjugated"]).lower(),
        "scaling_exponent": _fmt(exponent),
        "gauge": f"{derived['gauge']['mode']} sha256:{derived['gauge']['sha256']}",
    }
    columns = ["replicate", "n", "M", "M_scaled", "y_norm", "q_index"] + \
        [f"layer_{i+1}" for i in range(nl)]
    write_csv(path, "walk", meta, columns, _walk_blocks(result, exponent))


def _walk_blocks(result: SampleMatrix, exponent: float):
    """walk.csv's rows, a block of whole replicates (about CSV_SLICE_ROWS
    rows) at a time."""
    r, k = result.running_max.shape
    nl = result.layer_euclid.shape[2]
    ns = np.asarray(result.checkpoints, dtype=float)
    scale = ns ** exponent
    step = max(1, CSV_SLICE_ROWS // k)
    for lo in range(0, r, step):
        hi = min(r, lo + step)
        m = result.running_max[lo:hi]
        rows = np.empty(((hi - lo) * k, 6 + nl))
        rows[:, 0] = np.repeat(np.arange(lo, hi, dtype=float), k)
        rows[:, 1] = np.tile(ns, hi - lo)
        rows[:, 2] = m.ravel()
        rows[:, 3] = (m / scale).ravel()
        rows[:, 4] = result.y_norm[lo:hi].ravel()
        rows[:, 5] = result.q_index[lo:hi].ravel()
        rows[:, 6:] = result.layer_euclid[lo:hi].reshape((hi - lo) * k, nl)
        yield rows


def write_scan_csv(path: str, scan: ScanResult, preset: str, seed: int,
                   group_order: int) -> None:
    write_csv(path, "scan", {"preset": preset, "seed": seed, "group_order": group_order},
              ["replicate", "delta_raw", "Delta", "ratio"], [scan.rows])


def write_manifest(path: str, doc: dict) -> None:
    body = json.dumps(jsonify(doc), sort_keys=True, indent=2, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(body)
        fh.write("\n")


def attach_file_hashes(doc: dict, out_dir: str, names) -> dict:
    doc = dict(doc)
    doc["files"] = {name: sha256_file(os.path.join(out_dir, name))
                    for name in names}
    return doc


def read_csv_columns(path: str):
    """(data array, column names) from a header-commented CSV of finite numbers."""
    names, has_rows = None, False
    with open(path) as fh:
        for line in fh:
            if line.strip() and not line.startswith("#"):
                has_rows = True
                break
            text = line[1:].strip()
            if text.startswith("columns:"):
                names = text.split(":", 1)[1].split()
    if names is None:
        raise ValueError(f"{path} has no '# columns:' header line")
    if not has_rows:
        raise ValueError(f"{path} has no data rows")
    data = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
    if data.shape[1] != len(names):
        raise ValueError(f"{path}: {data.shape[1]} columns, header names {len(names)}")
    if not np.all(np.isfinite(data)):
        raise ValueError(f"{path}: non-finite value in the data")
    return data, names
