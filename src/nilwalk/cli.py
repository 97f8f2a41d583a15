"""Batch experiment runner: presets, config validation, deterministic artifacts.

Subcommands:

  algebra-check   validate a structure tensor and report its filtrations
  walk            Monte Carlo walk -> walk.csv + manifest.json
  fit             concentration fits over a walk CSV -> report + plots
  split-scan      isometry-lift defect scan -> scan.csv + best lift
  replay          rerun a manifest and verify every artifact byte for byte

All randomness flows from --seed; reruns of the same resolved config
produce byte-identical files.  Exit codes:
2 config/schema, 3 resource ceiling, 4 numerical validation or replay
mismatch, 5 file I/O.
"""

from __future__ import annotations

import argparse
import json
import operator
import os
import sys

# nilwalk's linear algebra is at most 64 x 64, so a BLAS thread pool only
# costs start-up time and a worker that spins on the CPU.  OpenBLAS reads
# this once, when numpy loads: a process that imported numpy before this
# module keeps numpy's pool, and no output byte depends on the pool size.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np

from .algebra import algebra_from_json, validate_algebra, weighted_filtration
from .bch import TABLE_CAP
from .errors import NumericalValidationError, ResourceCeilingError, SchemaError
from .manifest import (MANIFEST_SCHEMA_VERSION, attach_file_hashes, gauge_hash,
                       read_csv_columns, sha256_file, write_csv, write_manifest,
                       write_scan_csv, write_walk_csv)
from .presets import (ALGEBRA_PRESETS, SPLIT_PRESETS, WALK_PRESETS, build_walk_setup,
                      stay_diagnostic)
from .semidirect import distribution_from_json
from .splitting import delta_ratio_scan
from .stats import (distinct, fit_alpha, lil_diagnostic, quantiles, render_histogram_svg,
                    render_tail_svg, tail_curve)
from .walker import WalkConfig, monte_carlo

INDEX = {"type": "integer", "minimum": 1}
NUMBER = {"type": "number"}

CONFIG_SCHEMA = {
    "type": "object",
    "properties": {
        "schema_version": {"const": 1},
        "kind": {"enum": ["algebra-check", "walk", "fit", "split-scan"]},
        "preset": {"type": "string", "description": "named setup to run"},
        "algebra": {
            "type": "object", "description": "JSON file with a structure-tensor payload",
            "required": ["dim", "step"], "additionalProperties": False,
            "properties": {
                "dim": INDEX, "step": INDEX,
                "labels": {"type": "array", "items": {"type": "string"}},
                # [i, j, [[k, c], ...]]: [e_i, e_j] = sum of c e_k
                "brackets": {"type": "array", "items": {
                    "type": "array", "minItems": 3, "maxItems": 3, "prefixItems": [
                        INDEX, INDEX, {"type": "array", "items": {
                            "type": "array", "minItems": 2, "maxItems": 2,
                            "prefixItems": [INDEX, NUMBER]}}]}}}},
        "distribution": {
            "type": "object", "required": ["atoms", "Q"], "additionalProperties": False,
            "properties": {
                "atoms": {"type": "array", "minItems": 1, "items": {
                    "type": "object", "required": ["p", "xi", "kappa"],
                    "additionalProperties": False,
                    "properties": {"p": NUMBER, "xi": {"type": "array", "items": NUMBER},
                                   "kappa": {"type": "integer", "minimum": 0}}}},
                "Q": {"type": "object", "required": ["matrices"], "additionalProperties": False,
                      "properties": {"matrices": {"type": "array", "minItems": 1, "items": {
                          "type": "array", "items": {"type": "array", "items": NUMBER}}}}}}},
        "v": {"type": "array", "items": NUMBER,
              "description": "comma-separated drift vector"},
        "eps": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1,
                "description": "flip probability for r1-flip-eps"},
        "n": {"type": "integer", "minimum": 1, "default": 1024, "description": "number of steps"},
        "reps": {"type": "integer", "minimum": 1, "default": 1000,
                 "description": "number of replicates"},
        "seed": {"type": "integer", "minimum": 0, "default": 0},
        "checkpoints": {"type": "array", "items": INDEX,
                        "minItems": 1, "description": "comma-separated times, sorted "
                        "and de-duplicated; the largest must be n"},
        "gauge": {"enum": ["bracket_hull", "scaled_euclidean"], "default": "bracket_hull"},
        "filtration": {"enum": ["auto", "standard"], "default": "auto"},
        "conjugate": {"enum": ["auto", "never"], "default": "auto"},
        "cross_check": {"type": "boolean", "default": False, "description":
                        "verify the incremental recursion against direct recentring"},
        "max_work": {"type": "integer", "minimum": 1, "description": "ceiling on steps x reps"},
        "csv": {"type": "string", "description": "walk CSV to read"},
        "column": {"enum": ["M", "M_scaled", "y_norm"], "default": "M_scaled"},
        "lil_alpha": {"type": "number", "exclusiveMinimum": 0, "description":
                      "also run the dyadic growth diagnostic at this exponent"},
        "bootstrap": {"type": "integer", "minimum": 0, "default": 1000},
        "svg": {"type": "boolean", "default": False, "description": "also write an SVG plot"},
    },
    "required": ["schema_version", "kind"],
    "additionalProperties": False,
}

DEFAULTS = {k: p["default"] for k, p in CONFIG_SCHEMA["properties"].items() if "default" in p}

# The preset table each kind's "preset" key names.
PRESETS = {"walk": WALK_PRESETS, "split-scan": SPLIT_PRESETS,
           "algebra-check": ALGEBRA_PRESETS}

# The inputs each kind needs: every key of one alternative, each non-empty.
NEEDS = {"walk": (("preset",), ("algebra", "distribution")), "split-scan": (("preset",),),
         "fit": (("csv",),), "algebra-check": (("preset",), ("algebra",))}


# Config keys recorded in each kind's manifest, so a replay can rerun it.
MANIFEST_CONFIG_KEYS = {
    "walk": ("schema_version", "kind", "preset", "algebra", "distribution",
             "eps", "n", "reps", "seed", "checkpoints", "gauge", "filtration",
             "conjugate", "cross_check", "max_work"),
    "split-scan": ("schema_version", "kind", "preset", "reps", "seed", "svg"),
    "fit": ("schema_version", "kind", "csv", "column", "lil_alpha",
            "bootstrap", "seed", "svg"),
    "algebra-check": ("schema_version", "kind", "preset", "algebra", "v"),
}


# The Python types each JSON type name accepts; a flag's text converts to the
# last.  A bool is a JSON boolean only: never an integer or a number.
JSON_TYPES = {"object": (dict,), "array": (list,), "string": (str,), "boolean": (bool,),
              "integer": (int,), "number": (int, float)}
# Each bound keyword: the test a value must pass against it, and its wording.
BOUNDS = {"minimum": (operator.ge, "at least"), "exclusiveMinimum": (operator.gt, "above"),
          "exclusiveMaximum": (operator.lt, "below")}


def _check(value, schema: dict, where: str) -> None:
    """Raise SchemaError at the first keyword of schema that value breaks.

    Covers the keywords CONFIG_SCHEMA uses, each with its JSON Schema
    2020-12 meaning, except that const and enum compare the type as well
    as the value, so 1.0 is not schema version 1, and a number must be
    finite, as JSON has no NaN or infinity.
    """
    def fail(why):
        raise SchemaError(f"config rejected: {where} {why}")
    kind = schema.get("type")
    if kind and (not isinstance(value, JSON_TYPES[kind])
                 or isinstance(value, bool) != (kind == "boolean")):
        fail(f"must be a JSON {kind}, got {value!r}")
    # NaN, the infinities and integers past the largest double all fail
    if kind == "number" and not abs(value) <= sys.float_info.max:
        fail(f"must be a finite number, got {value!r}")
    allowed = schema.get("enum", [schema["const"]] if "const" in schema else None)
    if allowed is not None and not any(type(value) is type(a) and value == a for a in allowed):
        fail(f"must be one of {allowed}, got {value!r}")
    for key, (ok, word) in BOUNDS.items():
        if key in schema and not ok(value, schema[key]):
            fail(f"must be {word} {schema[key]}, got {value!r}")
    if "minItems" in schema and len(value) < schema["minItems"]:
        fail(f"needs at least {schema['minItems']} items")
    if "maxItems" in schema and len(value) > schema["maxItems"]:
        fail(f"needs at most {schema['maxItems']} items")
    prefix = schema.get("prefixItems", [])
    for i, item in enumerate(value if "items" in schema or prefix else ()):
        _check(item, prefix[i] if i < len(prefix) else schema.get("items", {}), f"{where}[{i}]")
    props = schema.get("properties", {})
    missing = [key for key in schema.get("required", ()) if key not in value]
    unknown = [key for key in value if key not in props] \
        if schema.get("additionalProperties") is False else []
    if missing or unknown:
        fail(f"lacks {missing}" if missing else f"has unknown keys {unknown}")
    for key in props:
        if key in value:
            _check(value[key], props[key], f"{where}.{key}")


def validate_config(cfg: dict) -> dict:
    """cfg checked against the schema, its kind's keys, presets and NEEDS, with DEFAULTS in."""
    _check(cfg, CONFIG_SCHEMA, "config")
    unread = sorted(set(cfg) - set(MANIFEST_CONFIG_KEYS[cfg["kind"]]) - {"seed"})
    if unread:
        raise SchemaError(f"config rejected: {cfg['kind']} does not read {unread}")
    if "preset" in cfg and cfg["preset"] not in PRESETS[cfg["kind"]]:
        raise SchemaError(f"unknown {cfg['kind']} preset {cfg['preset']!r}; "
                          f"choose from {sorted(PRESETS[cfg['kind']])}")
    needs = NEEDS[cfg["kind"]]
    if not any(all(cfg.get(key) for key in keys) for keys in needs):
        raise SchemaError(f"config rejected: {cfg['kind']} needs "
                          + " or ".join(" + ".join(keys) for keys in needs))
    inline = sorted({"algebra", "distribution"} & set(cfg))
    if "preset" in cfg and inline:
        raise SchemaError(f"config rejected: preset {cfg['preset']!r} ignores {inline}")
    if "eps" in cfg and cfg.get("preset") != "r1-flip-eps":
        raise SchemaError("config rejected: only preset r1-flip-eps reads eps")
    out = dict(DEFAULTS)
    out.update(cfg)
    return out


def default_checkpoints(n: int) -> tuple[int, ...]:
    cps = [1 << j for j in range(2, n.bit_length() + 1) if (1 << j) <= n]
    if not cps or cps[-1] != n:
        cps.append(n)
    return tuple(cps)


def _walk_setup_from_config(cfg: dict):
    """The walk setup for a preset, or for an inline algebra + distribution."""
    if "preset" in cfg:
        name, law = cfg["preset"], None
    else:
        alg, _ = _load_algebra(cfg)
        if alg.step > TABLE_CAP:
            raise SchemaError(f"walk needs an algebra of step at most {TABLE_CAP} "
                              f"(the BCH table cap), got step {alg.step}")
        try:
            law = distribution_from_json(alg, cfg["distribution"])
        except ValueError as exc:
            raise SchemaError(f"bad distribution payload: {exc}") from exc
        name = "custom"
    return build_walk_setup(name, law, eps=cfg.get("eps"), seed=cfg["seed"],
                            gauge_mode=cfg["gauge"],
                            filtration_choice=cfg["filtration"],
                            conjugate=cfg["conjugate"])


def _load_algebra(cfg: dict):
    """(algebra, validate_algebra's residuals) from cfg's preset or inline payload.

    A malformed payload is a schema error (exit 2); a tensor that is not a
    nilpotent Lie bracket of the declared step fails validation (exit 4).
    """
    if "preset" in cfg:
        alg = ALGEBRA_PRESETS[cfg["preset"]]()
    else:
        try:
            alg = algebra_from_json(cfg["algebra"])
        except ValueError as exc:
            raise SchemaError(f"bad algebra payload: {exc}") from exc
    return alg, validate_algebra(alg)


def _emit(cfg: dict, out_dir: str, written: list[str], derived: dict,
          summary: str, documents: dict, **extra) -> list[str]:
    """Write the documents and manifest.json, then report every artifact.

    written names the artifacts the command wrote itself, documents maps
    the rest to their bodies: text as it stands, others as JSON with sorted
    keys.  The manifest records this kind's MANIFEST_CONFIG_KEYS, the seed,
    the derived values, any extra top-level fields and a sha256 per
    artifact.  Returns every artifact, in the order reported.
    """
    for name, body in documents.items():
        path = os.path.join(out_dir, name)
        if isinstance(body, str):
            with open(path, "w") as fh:
                fh.write(body)
        else:
            write_manifest(path, body)
    files = written + list(documents)
    config = {k: cfg[k] for k in MANIFEST_CONFIG_KEYS[cfg["kind"]]
              if k in cfg and cfg[k] is not None}
    doc = dict(extra, schema_version=MANIFEST_SCHEMA_VERSION, kind=cfg["kind"],
               config=config, seed=cfg["seed"], derived=derived)
    doc = attach_file_hashes(doc, out_dir, files)
    write_manifest(os.path.join(out_dir, "manifest.json"), doc)
    files.append("manifest.json")
    print(summary)
    for name in files:
        print(f"wrote {os.path.join(out_dir, name)}")
    return files


def _filtration_doc(filt) -> dict:
    return {"kind": filt.kind, "depth": filt.depth, "weights": filt.weights,
            "layer_dims": filt.layer_dims()}


def cmd_walk(cfg: dict, out_dir: str) -> list[str]:
    """run a Monte Carlo walk"""
    setup = _walk_setup_from_config(cfg)
    n = cfg["n"]
    cps = tuple(cfg["checkpoints"]) if cfg.get("checkpoints") else default_checkpoints(n)
    try:
        wcfg = WalkConfig(dist=setup.dist, norm=setup.norm, n_steps=n,
                          checkpoints=cps, replications=cfg["reps"],
                          seed=cfg["seed"], cross_check=cfg["cross_check"],
                          **({"max_work": cfg["max_work"]} if cfg.get("max_work") else {}))
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
    result = monte_carlo(wcfg)
    finite = np.isfinite(result.running_max) & np.isfinite(result.layer_euclid).all(axis=2)
    if not finite.all():  # a non-finite |y_n| reaches the running max
        rep, col = np.argwhere(~finite)[0]
        raise NumericalValidationError(f"walk left the floating-point range: replicate "
                                       f"{rep} is not finite at n={result.checkpoints[col]}")

    base, run, filt = setup.base_dist, setup.dist, setup.norm.filtration
    derived = {
        "R_mu": run.radius,
        "R_mu_base": base.radius,
        "kappa_mu": "none" if base.kappa_mu is None else base.kappa_mu,
        "v_mu": run.v_mu,
        "centering": base.centering,
        "conjugated": setup.conjugated,
        "abelianized_mean": run.abelianized_mean,
        "scaling_exponent": setup.scaling_exponent,
        "algebra": {"dim": run.alg.dim, "step": run.alg.step},
        "filtration": _filtration_doc(filt),
        "gauge": {"mode": setup.norm.mode, "sha256": gauge_hash(setup.norm),
                  "bilinearity_bound": setup.norm.bilinearity_bound},
        "notes": setup.notes,
    }
    if result.cross_residual is not None:
        derived["cross_check_residual"] = result.cross_residual
    if setup.preset == "r1-flip-eps":
        derived["stay_probability"] = stay_diagnostic(result, run)
    write_walk_csv(os.path.join(out_dir, "walk.csv"), result, setup.preset, cfg["seed"], derived)

    kappa = derived["kappa_mu"]
    kappa_txt = kappa if isinstance(kappa, str) else "%.6g" % kappa
    return _emit(dict(cfg, checkpoints=list(wcfg.checkpoints)), out_dir, ["walk.csv"], derived,
                 f"walk: {result.replications} replicates, n={n}, "
                 f"kappa_mu={kappa_txt}, conjugated={setup.conjugated}", {})


def cmd_split_scan(cfg: dict, out_dir: str) -> list[str]:
    """scan isometry lifts for defect ratios"""
    preset = cfg["preset"]
    group = SPLIT_PRESETS[preset][0]()
    scan = delta_ratio_scan(group, cfg["reps"], cfg["seed"])

    write_scan_csv(os.path.join(out_dir, "scan.csv"), scan, preset,
                   cfg["seed"], group.order)
    documents = {"best-lift.json": scan.argmin_lift.to_json()}
    if cfg["svg"]:
        counts, edges = scan.histogram
        documents["scan-hist.svg"] = render_histogram_svg(
            counts, edges, title=f"{preset}: relator defect at unit dispersion",
            mark=scan.c_hat)

    derived = {
        "c_hat": scan.c_hat,
        "kept": scan.kept,
        "skipped_near_sections": scan.skipped,
        "group_order": group.order,
        "description": SPLIT_PRESETS[preset][1],
        "estimate_note": "empirical upper estimate of the infimum from finite "
                         "sampling, not a certified bound",
    }
    return _emit(cfg, out_dir, ["scan.csv"], derived,
                 f"split-scan: c_hat={scan.c_hat:.6g} over {scan.kept} lifts "
                 f"({scan.skipped} near-sections skipped)", documents)


def _fit_inputs(path: str, col: str, with_lil: bool):
    """(samples, lil) from a walk CSV: col's values by checkpoint n and, when
    with_lil, (dyadic n, y_norm per replicate at each), else None.  Both are gathered
    into new arrays, so the parsed table and the scratch of the gathering are
    freed on return."""
    try:
        data, names = read_csv_columns(path)
    except ValueError as exc:
        raise SchemaError(f"malformed walk CSV: {exc}") from exc
    need = [col, "n"] + (["y_norm", "replicate"] if with_lil else [])
    missing = [name for name in need if name not in names]
    if missing:
        raise SchemaError(f"columns {missing} not in {path} (has {names})")
    ci, ni = names.index(col), names.index("n")
    steps = data[:, ni]
    if np.any((steps < 1) | (steps > 2.0 ** 53) | (steps != np.floor(steps))):
        raise SchemaError(f"{path}: n must be a positive integer at most 2^53")
    ns = distinct(steps).astype(int)
    samples = {int(nv): data[steps == nv, ci] for nv in ns}
    if not with_lil:
        return samples, None
    # y_norm per replicate at each dyadic n >= 4, checked before any output
    yi, ri = names.index("y_norm"), names.index("replicate")
    dyadic = np.array([nv for nv in ns if nv >= 4 and (nv & (nv - 1)) == 0])
    if dyadic.size == 0:
        raise SchemaError(f"{path}: --lil-alpha needs a checkpoint n >= 4 "
                          "that is a power of two")
    reps = distinct(data[:, ri])
    mat = np.empty((reps.size, dyadic.size))
    for j, nv in enumerate(dyadic):
        at = steps == nv
        rep_col = data[at, ri]
        order = np.argsort(rep_col)
        if not np.array_equal(rep_col[order], reps):
            raise SchemaError(f"{path}: n={int(nv)} does not have one row per replicate")
        mat[:, j] = data[at, yi][order]
    return samples, (dyadic, mat)


def cmd_fit(cfg: dict, out_dir: str) -> list[str]:
    """concentration fits over a walk CSV"""
    path, col = cfg["csv"], cfg["column"]
    # the parsed table is gone before the bootstrap: only its gathered
    # columns reach fit_alpha
    samples, lil = _fit_inputs(path, col, cfg.get("lil_alpha") is not None)
    fit = fit_alpha(samples, seed=cfg["seed"], n_bootstrap=cfg["bootstrap"])
    report = {"column": col,
              "groups": {str(int(nv)): int(v.size) for nv, v in samples.items()}, **fit}

    final = samples[max(samples)]
    pos = np.abs(final[np.abs(final) > 0])
    if pos.size:
        # the top is clamped to the largest double (a Python float product
        # overflows to inf without a warning); 10 ** log10(top) may overflow
        # inside geomspace, which then writes its endpoint as given
        top = min(float(pos.max()) * 1.05, sys.float_info.max)
        with np.errstate(over="ignore"):
            t_grid = np.geomspace(quantiles(pos, 0.5), top, 33)
    else:
        t_grid = np.linspace(0.0, 1.0, 5)
    p_hat, lo, hi = tail_curve(final, t_grid)
    write_csv(os.path.join(out_dir, "fit-tail.csv"), "tail", {}, ["t", "p", "lo", "hi"],
              [np.column_stack([t_grid, p_hat, lo, hi])])

    if lil is not None:
        report["lil"] = lil_diagnostic(*lil, alpha=cfg["lil_alpha"])

    documents = {"fit-report.json": report}
    if cfg["svg"]:
        fitted = None
        if np.isfinite(fit["alpha_tail"]) and np.isfinite(fit["c1"]):
            fitted = (fit["c1"], fit["c2"], fit["alpha_tail"])
        documents["tail.svg"] = render_tail_svg(t_grid, p_hat, lo, hi, fitted=fitted,
                                                title=f"tail of {col} (largest n)")

    derived = {key: fit[key] for key in ("alpha_moments", "alpha_tail", "flags")}
    return _emit(cfg, out_dir, ["fit-tail.csv"], derived,
                 "fit: alpha_moments={alpha_moments:.4g} alpha_tail={alpha_tail:.4g} "
                 "flags={flags}".format(**derived), documents,
                 inputs={os.path.basename(path): sha256_file(path)})


def cmd_algebra_check(cfg: dict, out_dir: str) -> list[str]:
    """validate an algebra and its filtrations"""
    alg, (anti, jacobi) = _load_algebra(cfg)
    v = np.asarray(cfg.get("v", [0.0] * alg.dim), float)
    if v.size != alg.dim:
        raise SchemaError(f"v has {v.size} entries, algebra dimension is {alg.dim}")
    filt = weighted_filtration(alg, v)

    report = {
        "dim": alg.dim,
        "step": alg.step,
        "antisymmetry_residual": anti,
        "jacobi_residual": jacobi,
        "v": v,
        "filtration": _filtration_doc(filt),
    }
    return _emit(cfg, out_dir, [], report,
                 f"algebra-check: dim={alg.dim} step={alg.step} "
                 f"filtration depth={filt.depth} layer_dims={filt.layer_dims()}",
                 {"algebra-report.json": report})


DISPATCH = {
    "walk": cmd_walk,
    "fit": cmd_fit,
    "split-scan": cmd_split_scan,
    "algebra-check": cmd_algebra_check,
}


def cmd_replay(manifest_path: str, out_dir: str) -> int:
    """rerun a manifest and verify artifacts"""
    if os.path.realpath(out_dir) == os.path.dirname(os.path.realpath(manifest_path)):
        raise SchemaError("replay --out is the manifest's own directory, "
                          "so the rerun would overwrite the run it checks")
    original = _read_json_object(manifest_path, "manifest")
    expected = original.get("files") or {}
    if not isinstance(expected, dict):
        raise SchemaError("manifest 'files' is not a map of artifact hashes")
    if not expected:
        raise NumericalValidationError("manifest lists no artifacts; replay checks nothing")
    cfg = validate_config(original.get("config", {}))
    os.makedirs(out_dir, exist_ok=True)
    written = DISPATCH[cfg["kind"]](cfg, out_dir)
    unwritten = [name for name in expected if name not in written]
    if unwritten:
        raise NumericalValidationError(
            f"manifest lists {', '.join(unwritten)}, which the rerun does not write")
    mismatches = []
    for name, digest in expected.items():
        fresh = sha256_file(os.path.join(out_dir, name))
        status = "ok" if fresh == digest else "MISMATCH"
        if fresh != digest:
            mismatches.append(name)
        print(f"replay {name}: {status}")
    if mismatches:
        raise NumericalValidationError(
            f"replay diverged on {', '.join(mismatches)}")
    print("replay: all artifacts reproduced byte for byte")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nilwalk",
        description="random walks on nilpotent groups with finite twists")
    sub = parser.add_subparsers(dest="command", required=True)
    for kind, command in DISPATCH.items():
        p = sub.add_parser(kind, help=command.__doc__)
        p.add_argument("--config", help="JSON config file; flags override its fields")
        p.add_argument("--out", default=".", help="output directory")
        # a flag per key the kind reads; the version, kind and a walk's inline law: --config only
        for key in dict.fromkeys(("seed",) + MANIFEST_CONFIG_KEYS[kind]):
            if key in ("schema_version", "kind", "distribution") or \
                    (kind, key) == ("walk", "algebra"):
                continue
            prop = CONFIG_SCHEMA["properties"][key]
            values = sorted(PRESETS[kind]) if key == "preset" else prop.get("enum")
            shape = ({"action": "store_true", "default": None} if prop.get("type") == "boolean"
                     else {"metavar": "{%s}" % ",".join(values)} if values else {})
            p.add_argument("--" + key.replace("_", "-"), help=prop.get("description"), **shape)
    p = sub.add_parser("replay", help=cmd_replay.__doc__)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", default=".")
    return parser


def _read_json_object(path: str, what: str) -> dict:
    """A JSON object from a file; anything else is a schema error."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise SchemaError(f"{what} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError(f"{what} must be a JSON object, got {type(doc).__name__}")
    return doc


def _flag_value(key: str, text):
    """A flag's text as its schema type: a number, a comma-split list or a JSON file's object."""
    prop = CONFIG_SCHEMA["properties"][key]
    if prop.get("type") == "object":
        return _read_json_object(text, f"{key} payload")
    kind = prop.get("items", prop).get("type")
    if kind not in ("integer", "number"):
        return text  # a string, an enum value, or True from a store_true flag
    convert = JSON_TYPES[kind][-1]
    try:
        return [convert(tok) for tok in text.split(",")] if "items" in prop else convert(text)
    except ValueError as exc:
        raise SchemaError(f"bad --{key.replace('_', '-')} value {text!r}: {exc}") from exc


def _config_from_args(args: argparse.Namespace) -> dict:
    cfg = _read_json_object(args.config, "config") if args.config else {}
    cfg.setdefault("schema_version", 1)
    if cfg.setdefault("kind", args.command) != args.command:
        raise SchemaError(f"config kind {cfg['kind']!r} does not match the "
                          f"{args.command} command")
    for key, val in vars(args).items():
        if key not in ("command", "config", "out") and val is not None:
            cfg[key] = _flag_value(key, val)
    return cfg


EXIT_CODES = {SchemaError: 2, ResourceCeilingError: 3, NumericalValidationError: 4, OSError: 5}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "replay":
            return cmd_replay(args.manifest, args.out)
        cfg = validate_config(_config_from_args(args))
        os.makedirs(args.out, exist_ok=True)
        DISPATCH[cfg["kind"]](cfg, args.out)
        return 0
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES.items() if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
