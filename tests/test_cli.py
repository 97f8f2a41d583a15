import ast
import copy
import inspect
import itertools
import json
import warnings

import numpy as np
import pytest

from nilwalk import norms, walker
from nilwalk.cli import BOUNDS, CONFIG_SCHEMA, _check, default_checkpoints, main, validate_config
from nilwalk.errors import SchemaError
from nilwalk.manifest import read_csv_columns, sha256_file
from nilwalk.semidirect import finite_group
from nilwalk.splitting import Lift, delta

from test_algebra import ENGEL5_JSON, free_step2_json


def run(args):
    return main([str(a) for a in args])


def _reject_constant(token):
    raise ValueError(f"{token} is not valid JSON")


def read_json(path):
    """The JSON document at path; NaN or Infinity tokens fail the test."""
    with open(path) as fh:
        return json.load(fh, parse_constant=_reject_constant)


def test_default_checkpoints_are_dyadic_plus_endpoint():
    assert default_checkpoints(64) == (4, 8, 16, 32, 64)
    assert default_checkpoints(100) == (4, 8, 16, 32, 64, 100)
    assert default_checkpoints(4) == (4,)
    assert default_checkpoints(3) == (3,)


def test_validate_config_fills_defaults():
    cfg = validate_config({"schema_version": 1, "kind": "walk", "preset": "heisenberg-srw"})
    assert cfg["seed"] == 0 and cfg["gauge"] == "bracket_hull"
    with pytest.raises(SchemaError):
        validate_config({"schema_version": 2, "kind": "walk"})
    with pytest.raises(SchemaError):
        validate_config({"schema_version": 1, "kind": "walk", "step_count": 5})


def test_walk_writes_artifacts_with_matching_hashes(tmp_path):
    out = tmp_path / "run"
    code = run(["walk", "--preset", "heisenberg-srw", "--n", 64,
                "--reps", 50, "--out", out])
    assert code == 0
    csv_path = out / "walk.csv"
    man = read_json(out / "manifest.json")
    assert man["files"]["walk.csv"] == sha256_file(str(csv_path))
    assert man["config"]["preset"] == "heisenberg-srw"
    assert man["config"]["checkpoints"] == [4, 8, 16, 32, 64]
    assert man["derived"]["scaling_exponent"] == 0.5
    head = csv_path.read_text().splitlines()[0]
    assert head.startswith("# nilwalk-walk-csv 1")
    data, names = read_csv_columns(str(csv_path))
    assert data.shape == (50 * 5, len(names))
    for want in ("replicate", "n", "M", "M_scaled", "y_norm", "q_index"):
        assert want in names
    col = {name: data[:, i] for i, name in enumerate(names)}
    exponent = man["derived"]["scaling_exponent"]
    assert np.array_equal(col["M_scaled"], col["M"] / col["n"] ** exponent)


def test_walk_byte_identical_across_chunk_sizes(tmp_path, monkeypatch):
    outs = []
    for chunk, sub in ((walker.REPLICATE_CHUNK, "a"), (7, "b")):
        monkeypatch.setattr(walker, "REPLICATE_CHUNK", chunk)
        out = tmp_path / sub
        assert run(["walk", "--preset", "r2-c4", "--n", 32, "--reps", 600,
                    "--out", out]) == 0
        outs.append(out)
    for name in ("walk.csv", "manifest.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_config_file_with_flag_override(tmp_path):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({
        "schema_version": 1, "kind": "walk", "preset": "heisenberg-srw",
        "n": 32, "reps": 40, "seed": 3}))
    out = tmp_path / "out"
    assert run(["walk", "--config", cfgp, "--reps", 60, "--out", out]) == 0
    man = read_json(out / "manifest.json")
    assert man["config"]["reps"] == 60       # flag wins
    assert man["config"]["seed"] == 3        # file value kept
    assert man["seed"] == 3


def test_walk_checkpoint_flag_parsing(tmp_path):
    out = tmp_path / "out"
    assert run(["walk", "--preset", "heisenberg-srw", "--n", 64,
                "--reps", 10, "--checkpoints", "8,32,64", "--out", out]) == 0
    man = read_json(out / "manifest.json")
    assert man["config"]["checkpoints"] == [8, 32, 64]
    data, _ = read_csv_columns(str(out / "walk.csv"))
    assert data.shape[0] == 30
    bad = run(["walk", "--preset", "heisenberg-srw", "--n", 64,
               "--reps", 10, "--checkpoints", "8,banana", "--out", out])
    assert bad == 2


@pytest.mark.parametrize("given", ["8,4", "4,4,8"])
def test_walk_records_the_checkpoints_it_ran(tmp_path, given):
    out = tmp_path / "out"
    assert run(["walk", "--preset", "heisenberg-srw", "--n", 8, "--reps", 2,
                "--checkpoints", given, "--out", out]) == 0
    assert read_json(out / "manifest.json")["config"]["checkpoints"] == [4, 8]
    assert run(["replay", "--manifest", out / "manifest.json",
                "--out", tmp_path / "again"]) == 0


def test_walk_rejects_unknown_preset_from_config(tmp_path):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({
        "schema_version": 1, "kind": "walk", "preset": "brownian"}))
    assert run(["walk", "--config", cfgp, "--out", tmp_path / "o"]) == 2


def test_walk_work_ceiling_exit_code(tmp_path):
    assert run(["walk", "--preset", "heisenberg-srw", "--n", 4096,
                "--reps", 4096, "--max-work", 2 ** 20,
                "--out", tmp_path / "o"]) == 3


def test_flip_walk_reports_stay_probability(tmp_path):
    out = tmp_path / "o"
    assert run(["walk", "--preset", "r1-flip-eps", "--eps", "0.05",
                "--n", 32, "--reps", 500, "--out", out]) == 0
    man = read_json(out / "manifest.json")
    stay = man["derived"]["stay_probability"]
    assert stay["exact"] == pytest.approx(0.95 ** 32)
    assert man["derived"]["kappa_mu"] == pytest.approx(0.1)
    assert man["derived"]["conjugated"] is True


def test_walk_cross_check_records_its_residual(tmp_path):
    args = ["walk", "--preset", "heisenberg-drift", "--n", 64, "--reps", 32]
    assert run(args + ["--cross-check", "--out", tmp_path / "c"]) == 0
    man = read_json(tmp_path / "c" / "manifest.json")
    assert man["config"]["cross_check"] is True
    assert 0.0 <= man["derived"]["cross_check_residual"] <= 1e-9
    assert run(["replay", "--manifest", tmp_path / "c" / "manifest.json",
                "--out", tmp_path / "again"]) == 0
    assert run(args + ["--out", tmp_path / "plain"]) == 0
    assert "cross_check_residual" not in read_json(tmp_path / "plain" / "manifest.json")["derived"]


def test_fit_pipeline_over_walk_csv(tmp_path):
    wout = tmp_path / "w"
    assert run(["walk", "--preset", "heisenberg-srw", "--n", 256,
                "--reps", 300, "--out", wout]) == 0
    fout = tmp_path / "f"
    assert run(["fit", "--csv", wout / "walk.csv", "--column", "M_scaled",
                "--bootstrap", 20, "--lil-alpha", "0.5", "--svg",
                "--out", fout]) == 0
    report = read_json(fout / "fit-report.json")
    assert 0 < report["alpha_tail"] < 6
    assert report["groups"] == {"4": 300, "8": 300, "16": 300, "32": 300,
                                "64": 300, "128": 300, "256": 300}
    assert "lil" in report and report["lil"]["dyadic_n"][0] == 4
    assert (fout / "fit-tail.csv").exists()
    assert (fout / "tail.svg").read_text().startswith("<svg")
    man = read_json(fout / "manifest.json")
    assert man["inputs"]["walk.csv"] == sha256_file(str(wout / "walk.csv"))


def test_fit_refuses_header_only_csv_without_a_warning(tmp_path, capsys):
    csv_path = tmp_path / "w.csv"
    csv_path.write_text("# nilwalk-walk-csv 1\n" + WALK_CSV_COLUMNS)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["fit", "--csv", csv_path, "--out", tmp_path / "o"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "has no data rows" in err[0]


def test_fit_on_all_zero_samples_warns_nothing(tmp_path, capsys):
    """log of a zero family norm is -inf: alpha_moments is null, with no
    warning, and the tail plot has no point."""
    csv_path = tmp_path / "w.csv"
    csv_path.write_text(WALK_CSV_COLUMNS + "0,4,0,0,0,0,0\n1,4,0,0,0,0,0\n"
                        "0,8,0,0,0,0,0\n1,8,0,0,0,0,0\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["fit", "--csv", csv_path, "--svg", "--out", tmp_path / "o"]) == 0
    assert capsys.readouterr().err == ""
    report = read_json(tmp_path / "o" / "fit-report.json")
    assert report["alpha_moments"] is None
    assert report["flags"] == ["degenerate-samples", "tail-window-too-narrow"]
    # no positive tail point to plot: the SVG is the bare frame
    assert (tmp_path / "o" / "tail.svg").read_text() == (
        '<svg xmlns="http://www.w3.org/2000/svg" width="640" height="420"/>')


def test_fit_flags_moment_and_tail_overflow_and_warns_nothing(tmp_path, capsys):
    """On samples near 1e30, g ** 16 overflows (moment-overflow), and so does
    the sum of squares of t ** alpha_tail that the tail-constant fit scales
    by (tail-overflow, c1 and c2 null); no numpy warning is printed."""
    rows = "".join(f"{r},{n},{v},{v},{v},0,{v}\n" for n in (4, 8)
                   for r, v in enumerate(np.linspace(1e30, 3e30, 40)))
    csv_path = tmp_path / "w.csv"
    csv_path.write_text(WALK_CSV_COLUMNS + rows)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["fit", "--csv", csv_path, "--bootstrap", "20",
                    "--out", tmp_path / "o"]) == 0
    assert capsys.readouterr().err == ""
    report = read_json(tmp_path / "o" / "fit-report.json")
    assert report["family_norms"][-1] is None
    assert report["c1"] is None and report["c2"] is None
    assert report["flags"] == ["moment-overflow", "tail-overflow"]


def test_fit_missing_csv_is_io_error(tmp_path):
    assert run(["fit", "--csv", tmp_path / "nope.csv",
                "--out", tmp_path / "o"]) == 5


def test_fit_wrong_columns_is_schema_error(tmp_path):
    wout = tmp_path / "w"
    assert run(["walk", "--preset", "heisenberg-srw", "--n", 32,
                "--reps", 40, "--out", wout]) == 0
    fout = tmp_path / "f"
    assert run(["fit", "--csv", wout / "walk.csv", "--bootstrap", 5,
                "--out", fout]) == 0
    # tail CSV has t/p/lo/hi columns, not walk columns
    assert run(["fit", "--csv", fout / "fit-tail.csv",
                "--out", tmp_path / "g"]) == 2


def lift_from_doc(doc):
    return Lift(finite_group(doc["representation"]), doc["translations"])


def test_split_scan_artifacts(tmp_path):
    out = tmp_path / "s"
    assert run(["split-scan", "--preset", "d4-r2", "--reps", 128,
                "--svg", "--out", out]) == 0
    man = read_json(out / "manifest.json")
    assert man["derived"]["c_hat"] > 0
    assert man["derived"]["group_order"] == 8
    assert set(man["files"]) == {"scan.csv", "best-lift.json", "scan-hist.svg"}
    best = lift_from_doc(read_json(out / "best-lift.json"))
    val, _ = delta(best)
    assert val == pytest.approx(1.0, rel=1e-9)
    head = (out / "scan.csv").read_text().splitlines()
    assert head[0].startswith("# nilwalk-scan-csv 1")


def test_split_scan_requires_known_preset(tmp_path):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"schema_version": 1, "kind": "split-scan"}))
    assert run(["split-scan", "--config", cfgp, "--out", tmp_path / "o"]) == 2


def test_algebra_check_preset_and_drift(tmp_path):
    out = tmp_path / "a"
    assert run(["algebra-check", "--preset", "heisenberg", "--v", "1,0,0",
                "--out", out]) == 0
    report = read_json(out / "algebra-report.json")
    assert report["step"] == 2
    assert report["filtration"]["depth"] == 3
    assert report["filtration"]["layer_dims"] == [2, 0, 1]
    assert run(["algebra-check", "--preset", "heisenberg", "--v", "1,0",
                "--out", tmp_path / "b"]) == 2


@pytest.mark.parametrize("v", ["1e200,0,0", "1e-200,0,0"], ids=["huge", "tiny"])
def test_algebra_check_reads_only_the_direction_of_v(tmp_path, v):
    """|v|^2 overflows or underflows; the filtration is still the one for e1."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["algebra-check", "--preset", "heisenberg", "--v", v,
                    "--out", tmp_path / "a"]) == 0
    filt = read_json(tmp_path / "a" / "algebra-report.json")["filtration"]
    assert filt["depth"] == 3 and filt["layer_dims"] == [2, 0, 1]


def test_algebra_check_accepts_seed(tmp_path):
    assert run(["algebra-check", "--preset", "heisenberg", "--seed", 1,
                "--out", tmp_path / "a"]) == 0
    assert read_json(tmp_path / "a" / "manifest.json")["seed"] == 1


def test_algebra_check_inline_payload(tmp_path):
    payload = tmp_path / "alg.json"
    payload.write_text(json.dumps(ENGEL5_JSON))
    out = tmp_path / "a"
    assert run(["algebra-check", "--algebra", payload, "--out", out]) == 0
    assert read_json(out / "algebra-report.json")["dim"] == 5


def test_algebra_check_accepts_step_above_bch_cap(tmp_path):
    payload = tmp_path / "alg.json"
    payload.write_text(json.dumps(FILIFORM8))
    out = tmp_path / "a"
    assert run(["algebra-check", "--algebra", payload, "--out", out]) == 0
    assert read_json(out / "algebra-report.json")["step"] == 7


def test_algebra_check_rejects_non_jacobi_tensor(tmp_path, capsys):
    # [e1,e2] = e3 and [e1,e3] = e1 violate the Jacobi identity:
    # [e1,[e2,e3]] + [e2,[e3,e1]] + [e3,[e1,e2]] = e3
    payload = tmp_path / "alg.json"
    payload.write_text(json.dumps({"dim": 3, "step": 2, "brackets": [
        [1, 2, [[3, 1.0]]], [1, 3, [[1, 1.0]]]]}))
    assert run(["algebra-check", "--algebra", payload,
                "--out", tmp_path / "o"]) == 4
    assert "jacobi residual" in capsys.readouterr().err


def test_replay_reproduces_and_detects_tampering(tmp_path):
    src = tmp_path / "src"
    assert run(["walk", "--preset", "heisenberg-srw", "--n", 32,
                "--reps", 80, "--out", src]) == 0
    assert run(["replay", "--manifest", src / "manifest.json",
                "--out", tmp_path / "fresh"]) == 0

    man = read_json(src / "manifest.json")
    man["files"]["walk.csv"] = "0" * 64
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(man))
    assert run(["replay", "--manifest", tampered,
                "--out", tmp_path / "fresh2"]) == 4


def test_replay_split_scan(tmp_path):
    src = tmp_path / "src"
    assert run(["split-scan", "--preset", "s3-r2", "--reps", 96,
                "--out", src]) == 0
    assert run(["replay", "--manifest", src / "manifest.json",
                "--out", tmp_path / "again"]) == 0


@pytest.mark.parametrize("argv, files", [
    (["fit", "--svg", "--lil-alpha", "0.5", "--bootstrap", 20],
     {"fit-tail.csv", "fit-report.json", "tail.svg"}),
    (["split-scan", "--preset", "d4-r2", "--reps", 64, "--svg"],
     {"scan.csv", "best-lift.json", "scan-hist.svg"}),
    (["algebra-check", "--preset", "heisenberg", "--v", "1,0,0"], {"algebra-report.json"}),
], ids=["fit-svg-lil", "split-scan-svg", "algebra-check-v"])
def test_replay_reruns_each_kind_and_writes_only_its_files(tmp_path, argv, files):
    """Each output directory, the first run's and the replay's, holds
    exactly the manifest's files and the manifest."""
    if argv[0] == "fit":
        assert run(["walk", "--preset", "heisenberg-srw", "--n", 64, "--reps", 60,
                    "--out", tmp_path / "w"]) == 0
        argv = argv + ["--csv", tmp_path / "w" / "walk.csv"]
    src, again = tmp_path / "src", tmp_path / "again"
    assert run(argv + ["--out", src]) == 0
    assert run(["replay", "--manifest", src / "manifest.json", "--out", again]) == 0
    assert set(read_json(src / "manifest.json")["files"]) == files
    for out in (src, again):
        assert {path.name for path in out.iterdir()} == files | {"manifest.json"}


@pytest.mark.parametrize("cwd_is_run", [True, False], ids=["default-out", "out-flag"])
def test_replay_refuses_to_rerun_into_the_manifest_directory(tmp_path, monkeypatch, capsys,
                                                             cwd_is_run):
    """A rerun that diverges (another seed) would overwrite the run it checks."""
    src = tmp_path / "src"
    assert run(["walk", "--preset", "heisenberg-srw", "--n", 16, "--reps", 8, "--out", src]) == 0
    man = read_json(src / "manifest.json")
    man["config"]["seed"] = 1
    (src / "manifest.json").write_text(json.dumps(man))
    before = {path.name: path.read_bytes() for path in src.iterdir()}
    capsys.readouterr()
    if cwd_is_run:
        monkeypatch.chdir(src)
        argv = ["replay", "--manifest", "manifest.json"]
    else:
        argv = ["replay", "--manifest", src / "manifest.json", "--out", src / ".." / "src"]
    assert run(argv) == 2
    assert {path.name: path.read_bytes() for path in src.iterdir()} == before
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "manifest's own directory" in err[0]


@pytest.mark.parametrize("name", ["../c.json", "ghost.csv"])
def test_replay_refuses_a_file_the_rerun_does_not_write(tmp_path, capsys, name):
    """A listed file outside what the rerun writes is a mismatch (4), whether
    it exists with a matching hash (../c.json) or not at all (ghost.csv)."""
    src = tmp_path / "src"
    assert run(["split-scan", "--preset", "d4-r2", "--reps", 16, "--out", src]) == 0
    (tmp_path / "c.json").write_text("{}")
    man = read_json(src / "manifest.json")
    man["files"][name] = sha256_file(str(tmp_path / "c.json"))
    (src / "manifest.json").write_text(json.dumps(man))
    capsys.readouterr()
    assert run(["replay", "--manifest", src / "manifest.json", "--out", tmp_path / "again"]) == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and name in err[0]


HEIS = {"dim": 3, "step": 2, "brackets": [[1, 2, [[3, 1.0]]]]}
# identity and the half turn in the (e1, e2) plane, an automorphism of HEIS
C2 = {"matrices": [[[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                   [[-1, 0, 0], [0, -1, 0], [0, 0, 1]]]}
INLINE_WALK = {
    "schema_version": 1, "kind": "walk", "n": 4, "reps": 3,
    "algebra": HEIS,
    "distribution": {"atoms": [{"p": 0.5, "xi": [1, 0, 0], "kappa": 0},
                               {"p": 0.5, "xi": [0, 1, 0], "kappa": 1}],
                     "Q": C2},
}


def inline_walk(**patch):
    return dict(copy.deepcopy(INLINE_WALK), **patch)


def dist_with(**atom0):
    dist = copy.deepcopy(INLINE_WALK["distribution"])
    dist["atoms"][0].update(atom0)
    return dist


# [e1, e_i] = e_(i+1): dimension 8, step 7, one above the BCH table cap
FILIFORM8 = {"dim": 8, "step": 7, "brackets": [[1, i, [[i + 1, 1.0]]] for i in range(2, 8)]}
FILIFORM8_WALK = inline_walk(algebra=FILIFORM8, distribution={
    "atoms": [{"p": 0.5, "xi": [s] + [0] * 7, "kappa": 0} for s in (1, -1)],
    "Q": {"matrices": [[[float(r == c) for c in range(8)] for r in range(8)]]}})

NO_FILES_MANIFEST = {"schema_version": 1, "kind": "algebra-check",
               "config": {"schema_version": 1, "kind": "algebra-check",
                          "preset": "heisenberg"}, "seed": 0}


def manifest_lacking_input(kind, artifact, **config):
    """A manifest of kind whose config lacks the input kind needs."""
    return json.dumps({"schema_version": 1, "kind": kind, "seed": 0,
                       "config": dict(config, schema_version=1, kind=kind),
                       "files": {artifact: "0" * 64}})


# (id, file name -> file text, argv before --out): a required input missing
MISSING_INPUT = [
    ("walk-no-preset-or-law", {}, ["walk", "--n", "4", "--reps", "2"]),
    ("walk-algebra-without-distribution", {"c.json": json.dumps(
        {"schema_version": 1, "kind": "walk", "algebra": HEIS})},
     ["walk", "--config", "c.json"]),
    ("split-scan-no-preset", {}, ["split-scan", "--reps", "8"]),
    ("fit-no-csv", {}, ["fit", "--bootstrap", "5"]),
    ("algebra-check-no-preset-or-algebra", {}, ["algebra-check", "--v", "1,0,0"]),
    ("manifest-walk-no-preset", {"m.json": manifest_lacking_input(
        "walk", "walk.csv", n=4, reps=2)}, ["replay", "--manifest", "m.json"]),
    ("manifest-split-scan-no-preset", {"m.json": manifest_lacking_input(
        "split-scan", "scan.csv", reps=8)}, ["replay", "--manifest", "m.json"]),
    ("manifest-fit-no-csv", {"m.json": manifest_lacking_input(
        "fit", "fit-tail.csv", bootstrap=5)}, ["replay", "--manifest", "m.json"]),
    ("manifest-algebra-check-no-preset", {"m.json": manifest_lacking_input(
        "algebra-check", "algebra-report.json", v=[1, 0, 0])},
     ["replay", "--manifest", "m.json"]),
]

WALK_CSV_COLUMNS = "# columns: replicate n M M_scaled y_norm q_index layer_1\n"
WALK_CSV_ROWS = "0,4,1,1,1,0,1\n1,4,2,2,2,0,2\n0,8,3,1.5,3,0,3\n1,8,1,0.5,1,0,1\n"

# (id, file name -> file text, argv before --out, exit code)
MALFORMED = [
    ("walk-no-dim", {"c.json": json.dumps(inline_walk(
        algebra={"step": 2, "brackets": []}))},
     ["walk", "--config", "c.json"], 2),
    ("walk-not-nilpotent", {"c.json": json.dumps(inline_walk(
        algebra={"dim": 2, "step": 2, "brackets": [[1, 2, [[1, 1.0]]]]},
        distribution={"atoms": [{"p": 1.0, "xi": [1, 0], "kappa": 0}],
                      "Q": {"matrices": [[[1, 0], [0, 1]]]}}))},
     ["walk", "--config", "c.json"], 4),
    ("walk-ragged-xi", {"c.json": json.dumps(inline_walk(
        distribution=dist_with(xi=[1, 0])))},
     ["walk", "--config", "c.json"], 2),
    ("walk-kappa-out-of-range", {"c.json": json.dumps(inline_walk(
        distribution=dist_with(kappa=3)))},
     ["walk", "--config", "c.json"], 2),
    ("walk-bracket-index-out-of-range", {"c.json": json.dumps(inline_walk(
        algebra=dict(HEIS, brackets=[[1, 2, [[7, 1.0]]]])))},
     ["walk", "--config", "c.json"], 2),
    ("walk-null-probability", {"c.json": json.dumps(inline_walk(
        distribution=dist_with(p=None)))},
     ["walk", "--config", "c.json"], 2),
    ("walk-null-twist-entry", {"c.json": json.dumps(inline_walk(
        distribution=dict(INLINE_WALK["distribution"],
                          Q={"matrices": [[[None, 0, 0], [0, 1, 0], [0, 0, 1]],
                                          C2["matrices"][1]]})))},
     ["walk", "--config", "c.json"], 2),
    ("config-is-list", {"c.json": "[1, 2]"},
     ["walk", "--config", "c.json"], 2),
    ("algebra-file-invalid-json", {"a.json": "{not json"},
     ["algebra-check", "--algebra", "a.json"], 2),
    ("manifest-invalid-json", {"m.json": "{not json"},
     ["replay", "--manifest", "m.json"], 2),
    ("manifest-is-list", {"m.json": "[]"},
     ["replay", "--manifest", "m.json"], 2),
    ("manifest-without-files", {"m.json": json.dumps(NO_FILES_MANIFEST)},
     ["replay", "--manifest", "m.json"], 4),
    ("manifest-with-empty-files", {"m.json": json.dumps(dict(NO_FILES_MANIFEST, files={}))},
     ["replay", "--manifest", "m.json"], 4),
    ("fit-csv-without-columns-line", {"w.csv": WALK_CSV_ROWS},
     ["fit", "--csv", "w.csv"], 2),
    ("fit-csv-ragged-row", {"w.csv": WALK_CSV_COLUMNS + WALK_CSV_ROWS + "2,8,1\n"},
     ["fit", "--csv", "w.csv"], 2),
    ("fit-csv-without-n", {"w.csv": "# columns: replicate M_scaled\n0,1\n1,2\n"},
     ["fit", "--csv", "w.csv"], 2),
    ("fit-lil-without-y-norm", {"w.csv": "# columns: n M_scaled\n4,1\n4,2\n8,1\n8,3\n"},
     ["fit", "--csv", "w.csv", "--lil-alpha", "0.5"], 2),
    ("fit-lil-missing-replicate", {"w.csv": WALK_CSV_COLUMNS + WALK_CSV_ROWS
                                   + "2,8,1,0.5,1,0,1\n"},
     ["fit", "--csv", "w.csv", "--lil-alpha", "0.5"], 2),
    ("fit-csv-nan-cell", {"w.csv": WALK_CSV_COLUMNS + "0,4,1,nan,1,0,1\n" + WALK_CSV_ROWS},
     ["fit", "--csv", "w.csv"], 2),
    ("fit-csv-inf-cell", {"w.csv": WALK_CSV_COLUMNS + WALK_CSV_ROWS + "2,8,1,0.5,inf,0,1\n"},
     ["fit", "--csv", "w.csv"], 2),
    ("fit-csv-fractional-n", {"w.csv": WALK_CSV_COLUMNS + "0,4.5,1,1,1,0,1\n" + WALK_CSV_ROWS},
     ["fit", "--csv", "w.csv"], 2),
    ("fit-csv-zero-n", {"w.csv": WALK_CSV_COLUMNS + "0,0,1,1,1,0,1\n" + WALK_CSV_ROWS},
     ["fit", "--csv", "w.csv"], 2),
    ("fit-csv-n-beyond-int64", {"w.csv": WALK_CSV_COLUMNS + "0,1e19,1,1,1,0,1\n" + WALK_CSV_ROWS},
     ["fit", "--csv", "w.csv"], 2),
    ("walk-nan-eps", {}, ["walk", "--preset", "r1-flip-eps", "--eps", "nan"], 2),
    ("algebra-check-nan-drift", {},
     ["algebra-check", "--preset", "heisenberg", "--v", "nan,0,0"], 2),
    ("fit-nan-lil-alpha", {"w.csv": WALK_CSV_COLUMNS + WALK_CSV_ROWS},
     ["fit", "--csv", "w.csv", "--lil-alpha", "nan"], 2),
    ("config-file-nan-eps", {"c.json": '{"schema_version": 1, "kind": "walk", '
                                       '"preset": "r1-flip-eps", "eps": NaN}'},
     ["walk", "--config", "c.json"], 2),
    ("fit-lil-without-dyadic-n", {"w.csv": WALK_CSV_COLUMNS + WALK_CSV_ROWS.replace(
        ",4,", ",3,").replace(",8,", ",6,")},
     ["fit", "--csv", "w.csv", "--lil-alpha", "0.5"], 2),
    ("walk-config-key-v", {"c.json": json.dumps(
        {"schema_version": 1, "kind": "walk", "preset": "heisenberg-srw",
         "n": 4, "reps": 2, "v": [1, 0, 0]})},
     ["walk", "--config", "c.json"], 2),
    ("fit-config-key-gauge", {"w.csv": WALK_CSV_COLUMNS + WALK_CSV_ROWS,
                              "c.json": json.dumps({"schema_version": 1, "kind": "fit",
                                                    "gauge": "bracket_hull"})},
     ["fit", "--config", "c.json", "--csv", "w.csv"], 2),
    ("split-scan-config-key-n", {"c.json": json.dumps(
        {"schema_version": 1, "kind": "split-scan", "preset": "d4-r2",
         "reps": 8, "n": 16})},
     ["split-scan", "--config", "c.json"], 2),
    ("algebra-check-unknown-algebra-key", {"a.json": json.dumps(
        {"dim": 3, "step": 1, "bracket": [[1, 2, [[3, 1.0]]]]})},
     ["algebra-check", "--algebra", "a.json"], 2),
    ("walk-unknown-algebra-key", {"c.json": json.dumps(inline_walk(
        algebra={"dim": 3, "step": 1, "bracket": HEIS["brackets"]}))},
     ["walk", "--config", "c.json"], 2),
    ("algebra-labels-too-short", {"a.json": json.dumps(dict(HEIS, labels=["x"]))},
     ["algebra-check", "--algebra", "a.json"], 2),
    ("algebra-labels-string", {"a.json": json.dumps(dict(HEIS, labels="xyz"))},
     ["algebra-check", "--algebra", "a.json"], 2),
    ("algebra-dim-zero", {"a.json": json.dumps({"dim": 0, "step": 1, "brackets": []})},
     ["algebra-check", "--algebra", "a.json"], 2),
    ("algebra-dim-float", {"a.json": json.dumps(dict(HEIS, dim=3.7))},
     ["algebra-check", "--algebra", "a.json"], 2),
    ("algebra-dim-string", {"a.json": json.dumps(dict(HEIS, dim="3"))},
     ["algebra-check", "--algebra", "a.json"], 2),
    ("algebra-step-bool", {"a.json": json.dumps({"dim": 2, "step": True, "brackets": []})},
     ["algebra-check", "--algebra", "a.json"], 2),
    ("algebra-pair-given-twice", {"a.json": json.dumps(dict(HEIS, brackets=[
        [1, 2, [[3, 1.0]]], [2, 1, [[3, 1.0]]]]))},
     ["algebra-check", "--algebra", "a.json"], 2),
    ("walk-twist-matrices-not-dim", {"c.json": json.dumps(inline_walk(distribution={
        "atoms": [dict(atom, kappa=0) for atom in INLINE_WALK["distribution"]["atoms"]],
        "Q": {"matrices": [[[1, 0], [0, 1]], [[-1, 0], [0, -1]]]}}))},
     ["walk", "--config", "c.json"], 2),
    ("walk-xi-wrong-length", {"c.json": json.dumps(inline_walk(distribution=dict(
        INLINE_WALK["distribution"], atoms=[{"p": 0.5, "xi": [1, 0], "kappa": 0},
                                            {"p": 0.5, "xi": [0, 1], "kappa": 1}])))},
     ["walk", "--config", "c.json"], 2),
    ("walk-kappa-not-integer", {"c.json": json.dumps(inline_walk(
        distribution=dist_with(kappa=0.7)))},
     ["walk", "--config", "c.json"], 2),
    ("walk-unknown-atom-key", {"c.json": json.dumps(inline_walk(
        distribution=dist_with(kapa=1)))},
     ["walk", "--config", "c.json"], 2),
    ("walk-unknown-twist-key", {"c.json": json.dumps(inline_walk(distribution=dict(
        INLINE_WALK["distribution"], Q=dict(C2, order=2))))},
     ["walk", "--config", "c.json"], 2),
    ("walk-unknown-distribution-key", {"c.json": json.dumps(inline_walk(distribution=dict(
        INLINE_WALK["distribution"], seed=1)))},
     ["walk", "--config", "c.json"], 2),
    ("algebra-dim-above-ceiling", {"a.json": json.dumps(
        {"dim": 1_000_000, "step": 1, "brackets": []})},
     ["algebra-check", "--algebra", "a.json"], 3),
    ("algebra-bracket-with-itself", {"a.json": json.dumps(
        {"dim": 2, "step": 1, "brackets": [[1, 1, [[2, 1.0]]]]})},
     ["algebra-check", "--algebra", "a.json"], 2),
    ("walk-step-above-bch-cap", {"c.json": json.dumps(FILIFORM8_WALK)},
     ["walk", "--config", "c.json"], 2),
    ("split-scan-unknown-preset", {"c.json": json.dumps(
        {"schema_version": 1, "kind": "split-scan", "preset": "z9-r2"})},
     ["split-scan", "--config", "c.json"], 2),
    ("algebra-check-unknown-preset", {"c.json": json.dumps(
        {"schema_version": 1, "kind": "algebra-check", "preset": "sl2"})},
     ["algebra-check", "--config", "c.json"], 2),
    ("manifest-unknown-preset", {"m.json": json.dumps(dict(
        NO_FILES_MANIFEST, config={"schema_version": 1, "kind": "walk",
                                   "preset": "brownian", "n": 4, "reps": 2},
        files={"walk.csv": "0" * 64}))},
     ["replay", "--manifest", "m.json"], 2),
    # a flag value that does not parse or is not allowed
    ("walk-n-not-integer", {}, ["walk", "--preset", "heisenberg-srw", "--n", "abc"], 2),
    ("walk-unknown-gauge", {}, ["walk", "--preset", "heisenberg-srw", "--gauge", "foo"], 2),
    ("walk-unknown-preset-flag", {}, ["walk", "--preset", "nope"], 2),
    ("walk-checkpoint-not-integer", {},
     ["walk", "--preset", "heisenberg-srw", "--checkpoints", "4,x"], 2),
    # a config file holds JSON types, not the text a flag would carry
    ("walk-config-checkpoints-string", {"c.json": json.dumps(
        {"schema_version": 1, "kind": "walk", "preset": "heisenberg-srw",
         "n": 8, "reps": 2, "checkpoints": "4,8"})},
     ["walk", "--config", "c.json"], 2),
    ("algebra-check-config-algebra-path", {"a.json": json.dumps(HEIS), "c.json": json.dumps(
        {"schema_version": 1, "kind": "algebra-check", "algebra": "a.json"})},
     ["algebra-check", "--config", "c.json"], 2),
    # inputs the run would not read
    ("walk-eps-without-flip-preset", {},
     ["walk", "--preset", "heisenberg-srw", "--n", 4, "--reps", 2, "--eps", "0.5"], 2),
    ("algebra-check-preset-and-algebra", {"a.json": json.dumps(HEIS)},
     ["algebra-check", "--preset", "heisenberg", "--algebra", "a.json"], 2),
    ("walk-config-kind-split-scan", {"c.json": json.dumps(
        {"schema_version": 1, "kind": "split-scan", "reps": 8})},
     ["walk", "--config", "c.json", "--preset", "heisenberg-srw", "--n", 4], 2),
    # an integer setting given as an integral float
    ("walk-config-n-float", {"c.json": json.dumps(
        {"schema_version": 1, "kind": "walk", "preset": "heisenberg-srw", "n": 8.0, "reps": 2})},
     ["walk", "--config", "c.json"], 2),
    ("split-scan-config-seed-float", {"c.json": json.dumps(
        {"schema_version": 1, "kind": "split-scan", "preset": "d4-r2", "reps": 8, "seed": 0.0})},
     ["split-scan", "--config", "c.json"], 2),
    ("config-schema-version-float", {"c.json": json.dumps(
        {"schema_version": 1.0, "kind": "split-scan", "preset": "d4-r2", "reps": 8})},
     ["split-scan", "--config", "c.json"], 2),
    # a boolean where an inline payload needs a number
    ("walk-probability-bool", {"c.json": json.dumps(inline_walk(distribution=dict(
        INLINE_WALK["distribution"], atoms=[{"p": True, "xi": [1, 0, 0], "kappa": 1}])))},
     ["walk", "--config", "c.json"], 2),
    ("walk-xi-entry-bool", {"c.json": json.dumps(inline_walk(
        distribution=dist_with(xi=[True, 0, 0])))},
     ["walk", "--config", "c.json"], 2),
    ("walk-twist-entry-bool", {"c.json": json.dumps(inline_walk(
        distribution=dict(INLINE_WALK["distribution"],
                          Q={"matrices": [[[True, 0, 0], [0, 1, 0], [0, 0, 1]],
                                          C2["matrices"][1]]})))},
     ["walk", "--config", "c.json"], 2),
    ("algebra-coefficient-bool", {"a.json": json.dumps(dict(HEIS, brackets=[[1, 2, [[3, True]]]]))},
     ["algebra-check", "--algebra", "a.json"], 2),
    # an integer too large for a double where the payload needs a number
    ("algebra-coefficient-beyond-double", {"a.json": json.dumps(dict(
        HEIS, brackets=[[1, 2, [[3, 10 ** 400]]]]))},
     ["algebra-check", "--algebra", "a.json"], 2),
    ("walk-xi-entry-beyond-double", {"c.json": json.dumps(inline_walk(
        distribution=dist_with(xi=[10 ** 400, 0, 0])))},
     ["walk", "--config", "c.json"], 2),
    # an object where the payload needs a list
    ("algebra-brackets-object", {"a.json": json.dumps({"dim": 2, "step": 1, "brackets": {}})},
     ["algebra-check", "--algebra", "a.json"], 2),
    ("algebra-coefficients-object", {"a.json": json.dumps(
        {"dim": 3, "step": 1, "brackets": [[1, 2, {}]]})},
     ["algebra-check", "--algebra", "a.json"], 2),
    ("walk-preset-and-inline-law", {"c.json": json.dumps(inline_walk(
        preset="heisenberg-srw", algebra={"dim": 1, "step": 1, "brackets": []},
        distribution={"atoms": [{"p": 1.0, "xi": [1], "kappa": 0}],
                      "Q": {"matrices": [[[1]]]}}))},
     ["walk", "--config", "c.json"], 2),
    # a law with no atoms or no twist group
    ("walk-no-atoms", {"c.json": json.dumps(inline_walk(distribution=dict(
        INLINE_WALK["distribution"], atoms=[])))},
     ["walk", "--config", "c.json"], 2),
    ("walk-no-twist-matrices", {"c.json": json.dumps(inline_walk(distribution=dict(
        INLINE_WALK["distribution"], Q={"matrices": []})))},
     ["walk", "--config", "c.json"], 2),
    # settings the schema bounds, and the library no longer re-checks
    ("walk-eps-zero", {}, ["walk", "--preset", "r1-flip-eps", "--eps", "0"], 2),
    ("walk-eps-one", {}, ["walk", "--preset", "r1-flip-eps", "--eps", "1"], 2),
    ("walk-unknown-filtration", {},
     ["walk", "--preset", "heisenberg-srw", "--filtration", "upper"], 2),
    ("walk-unknown-conjugate", {},
     ["walk", "--preset", "heisenberg-srw", "--conjugate", "sometimes"], 2),
    ("walk-checkpoints-not-ending-at-n", {},
     ["walk", "--preset", "heisenberg-srw", "--n", "8", "--checkpoints", "4"], 2),
    # values that leave the double range: in the gauge calibration, or in the walk
    ("walk-gauge-calibration-not-finite", {"c.json": json.dumps(inline_walk(
        algebra=dict(HEIS, brackets=[[1, 2, [[3, 1e300]]]])))},
     ["walk", "--config", "c.json", "--gauge", "scaled_euclidean"], 4),
    ("walk-values-not-finite", {"c.json": json.dumps(inline_walk(n=16, reps=8, distribution={
        "atoms": [{"p": 0.5, "xi": [s, 1e300, 0], "kappa": 0} for s in (1e300, -1e300)],
        "Q": {"matrices": [C2["matrices"][0]]}}))},
     ["walk", "--config", "c.json"], 4),
    # finite atoms whose Euclidean length (the law's radius) is past the double range
    ("walk-atom-length-not-finite", {"c.json": json.dumps(inline_walk(n=16, reps=8, distribution={
        "atoms": [{"p": 0.5, "xi": [s, 1.7e308, 0], "kappa": 0} for s in (1.7e308, -1.7e308)],
        "Q": {"matrices": [C2["matrices"][0]]}}))},
     ["walk", "--config", "c.json"], 4),
]


def run_malformed(tmp_path, capsys, files, argv):
    """(exit code, stderr lines) of argv run over files written into tmp_path."""
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    code = run(argv + ["--out", tmp_path / "o"])
    return code, capsys.readouterr().err.splitlines()


@pytest.mark.parametrize("files, argv, code", [case[1:] for case in MALFORMED],
                         ids=[case[0] for case in MALFORMED])
def test_malformed_input_exits_cleanly(tmp_path, capsys, files, argv, code):
    got, err = run_malformed(tmp_path, capsys, files, argv)
    assert got == code
    assert len(err) == 1 and err[0].startswith("error: ")


@pytest.mark.parametrize("files, argv", [case[1:] for case in MISSING_INPUT],
                         ids=[case[0] for case in MISSING_INPUT])
def test_missing_input_is_refused_before_out_is_made(tmp_path, capsys, files, argv):
    got, err = run_malformed(tmp_path, capsys, files, argv)
    assert got == 2
    assert len(err) == 1 and err[0].startswith("error: config rejected: ") and " needs " in err[0]
    assert not (tmp_path / "o").exists()


def test_walk_errors_name_where_a_value_left_the_double_range(tmp_path, capsys):
    """The gauge calibration names its weight, the walk its replicate and n,
    with no warning before; a walk whose values left the range writes no
    walk.csv."""
    for case, line in [("walk-gauge-calibration-not-finite",
                        "error: gauge calibration is not finite at weight 2: "
                        "constant inf, scale 1.131e+301"),
                       ("walk-values-not-finite", "error: walk left the floating-point "
                        "range: replicate 0 is not finite at n=4"),
                       ("walk-atom-length-not-finite", "error: walk left the floating-point "
                        "range: replicate 0 is not finite at n=4")]:
        files, argv, _ = next(row[1:] for row in MALFORMED if row[0] == case)
        (tmp_path / case).mkdir()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_malformed(tmp_path / case, capsys, files, argv) == (4, [line])
        assert not (tmp_path / case / "o" / "walk.csv").exists()


def test_a_polygon_gauged_walk_that_leaves_the_double_range_exits_4(tmp_path, capsys,
                                                                   monkeypatch):
    """engel5's hull gauge bounds its weight-3 polygon before gauging it; a
    NaN position has a NaN bound, which is gauged, so the walk still ends
    in exit 4 and writes no walk.csv."""
    seen = []
    real = norms._polygon_gauge
    monkeypatch.setattr(norms, "_polygon_gauge", lambda angles, facets, coords:
                        seen.append(np.isnan(coords).any()) or real(angles, facets, coords))
    eye = [[float(r == c) for c in range(5)] for r in range(5)]
    law = inline_walk(algebra=ENGEL5_JSON, n=16, reps=8, distribution={
        "atoms": [{"p": 0.25, "xi": [s * 1e300, t * 1e300, 0, 0, 0], "kappa": 0}
                  for s in (1, -1) for t in (1, -1)],
        "Q": {"matrices": [eye]}})
    (tmp_path / "c.json").write_text(json.dumps(law))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the step-3 BCH product overflows on the way
        code = run(["walk", "--config", tmp_path / "c.json", "--out", tmp_path / "o"])
    assert code == 4 and any(seen)
    assert capsys.readouterr().err.splitlines() == [
        "error: walk left the floating-point range: replicate 0 is not finite at n=4"]
    assert not (tmp_path / "o" / "walk.csv").exists()


def test_brackets_near_the_top_of_the_double_range(tmp_path, capsys):
    """[e1, e2] = 1.7e308 e3 is a step-2 algebra, with no warning; its
    scaled gauge's calibration is not finite, and the walk names that.  The
    hull's products overflow too, so that gauge falls back to the same
    calibration and error, with no warning on the way."""
    big = dict(HEIS, brackets=[[1, 2, [[3, 1.7e308]]]])
    (tmp_path / "a.json").write_text(json.dumps(big))
    (tmp_path / "c.json").write_text(json.dumps(inline_walk(algebra=big)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["algebra-check", "--algebra", tmp_path / "a.json",
                    "--out", tmp_path / "a"]) == 0
        for gauge in ("scaled_euclidean", "bracket_hull"):
            assert run(["walk", "--config", tmp_path / "c.json", "--gauge", gauge,
                        "--out", tmp_path / gauge]) == 4
    report = read_json(tmp_path / "a" / "algebra-report.json")
    assert report["step"] == 2 and report["filtration"]["layer_dims"] == [2, 1]
    assert capsys.readouterr().err.splitlines() == 2 * [
        "error: gauge calibration is not finite at weight 2: constant nan, scale inf"]


def test_walk_records_a_radius_whose_square_overflows(tmp_path, capsys):
    """Atoms +/- 2^600 square past the double range, their radius does not:
    R_mu is 2^600 in the manifest and the walk.csv header, and no warning
    is raised.  The conjugated 1e300 law still ends in its one error line."""
    big, small = 2.0 ** -40, 0.5 - 2.0 ** -40
    law = inline_walk(algebra={"dim": 1, "step": 1, "brackets": []}, distribution={
        "atoms": [{"p": p, "xi": [x], "kappa": 0}
                  for p, x in ((big, 2.0 ** 600), (big, -2.0 ** 600), (small, 1.0), (small, -1.0))],
        "Q": {"matrices": [[[1.0]]]}})
    (tmp_path / "c.json").write_text(json.dumps(law))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["walk", "--config", tmp_path / "c.json", "--out", tmp_path / "o"]) == 0
        derived = read_json(tmp_path / "o" / "manifest.json")["derived"]
        assert derived["R_mu"] == derived["R_mu_base"] == 2.0 ** 600
        assert "\n# R_mu: 4.149515568880993e+180\n" in (tmp_path / "o" / "walk.csv").read_text()
        files, argv, _ = next(row[1:] for row in MALFORMED
                              if row[0] == "walk-gauge-calibration-not-finite")
        (tmp_path / "calibration").mkdir()
        code, err = run_malformed(tmp_path / "calibration", capsys, files, argv)
    assert code == 4 and len(err) == 1 and err[0].startswith("error: gauge calibration")


def test_walk_twist_group_error_names_its_residual(tmp_path, capsys):
    """Negating e1 alone negates [e1, e2] = e3 but fixes e3: residual 2."""
    flip_e1 = [[[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[-1, 0, 0], [0, 1, 0], [0, 0, 1]]]
    cfgp = tmp_path / "c.json"
    cfgp.write_text(json.dumps(inline_walk(distribution=dict(
        INLINE_WALK["distribution"], Q={"matrices": flip_e1}))))
    assert run(["walk", "--config", cfgp, "--out", tmp_path / "o"]) == 4
    assert capsys.readouterr().err.splitlines() == [
        "error: twist group fails validation: automorphism residual 2.000e+00"]


@pytest.mark.parametrize("case, key", [("walk-no-atoms", "config.distribution.atoms"),
                                       ("walk-no-twist-matrices",
                                        "config.distribution.Q.matrices")])
def test_empty_law_list_error_names_its_key(tmp_path, capsys, case, key):
    files, argv, _ = next(row[1:] for row in MALFORMED if row[0] == case)
    _, err = run_malformed(tmp_path, capsys, files, argv)
    assert f"{key} needs at least 1 items" in err[0]


@pytest.mark.parametrize("command, listed", [
    ("walk", ["{engel5-srw,filiform4-srw,heisenberg-drift,heisenberg-srw,r1-flip-eps,r2-c4}",
              "{bracket_hull,scaled_euclidean}", "{auto,standard}", "{auto,never}"]),
    ("fit", ["{M,M_scaled,y_norm}"]),
    ("split-scan", ["{d4-r2,s3-r2}"]),
    ("algebra-check", ["{abelian1,abelian2,engel5,filiform4,heisenberg}"]),
])
def test_help_lists_presets_and_enum_values(capsys, command, listed):
    with pytest.raises(SystemExit) as exit_info:
        run([command, "--help"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    for values in listed:
        assert values in out


def test_nearly_centred_law_gets_the_centred_filtration(tmp_path):
    """One threshold (CENTERING_TOL) decides centring: a drift of 2e-13 is
    below it, so the filtration is the lower central one the note names."""
    eye = [[float(r == c) for c in range(3)] for r in range(3)]
    cfg = inline_walk(distribution={
        "atoms": [{"p": 0.25, "xi": xi, "kappa": 0} for xi in
                  ([1 + 8e-13, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0])],
        "Q": {"matrices": [eye]}})
    cfgp = tmp_path / "c.json"
    cfgp.write_text(json.dumps(cfg))
    assert run(["walk", "--config", cfgp, "--out", tmp_path / "o"]) == 0
    derived = read_json(tmp_path / "o" / "manifest.json")["derived"]
    assert 0 < derived["v_mu"][0] < 1e-12
    assert any("centred law" in note for note in derived["notes"])
    assert derived["filtration"]["layer_dims"] == [2, 1]
    assert derived["scaling_exponent"] == 0.5


def test_inline_walk_config_runs(tmp_path):
    cfgp = tmp_path / "c.json"
    cfgp.write_text(json.dumps(INLINE_WALK))
    assert run(["walk", "--config", cfgp, "--out", tmp_path / "o"]) == 0


def test_walk_on_a_six_dimensional_layer_falls_back(tmp_path):
    """The free 2-step algebra on 4 generators has a 6-D weight-2 layer, whose
    hull could have ~N^3 facets: the gauge falls back there and says so."""
    alg = free_step2_json(4)
    dim = alg["dim"]
    atoms = [{"p": 0.125, "xi": [s * float(c == g) for c in range(dim)], "kappa": 0}
             for g in range(4) for s in (1.0, -1.0)]
    eye = [[float(r == c) for c in range(dim)] for r in range(dim)]
    cfgp = tmp_path / "c.json"
    cfgp.write_text(json.dumps(inline_walk(algebra=alg, distribution={
        "atoms": atoms, "Q": {"matrices": [eye]}}, n=8, reps=16)))
    assert run(["walk", "--config", cfgp, "--out", tmp_path / "o"]) == 0
    notes = read_json(tmp_path / "o" / "manifest.json")["derived"]["notes"]
    assert "hull construction degenerate on weights (2,); scaled gauge used there" in notes


@pytest.mark.parametrize("rows, flag", [
    (WALK_CSV_ROWS, "tail-window-too-narrow"),
    ("0,4,1,1,1,0,1\n1,4,1,1,1,0,1\n0,8,1,1,1,0,1\n1,8,1,1,1,0,1\n",
     "degenerate-samples"),
], ids=["four-rows", "constant"])
def test_fit_writes_non_finite_values_as_null(tmp_path, rows, flag):
    """Finite CSVs whose fit has no tail window or no moment slope still give valid JSON."""
    csv_path = tmp_path / "w.csv"
    csv_path.write_text(WALK_CSV_COLUMNS + rows)
    out = tmp_path / "f"
    assert run(["fit", "--csv", csv_path, "--bootstrap", 20, "--out", out]) == 0
    report = read_json(out / "fit-report.json")
    man = read_json(out / "manifest.json")
    assert flag in report["flags"] and report["flags"] == man["derived"]["flags"]
    assert report["alpha_tail"] is None and report["alpha_tail_ci"] == [None, None]
    assert report["c1"] is None and report["c2"] is None
    assert man["derived"]["alpha_tail"] is None


def test_fit_without_bootstrap_writes_null_intervals(tmp_path):
    wout = tmp_path / "w"
    assert run(["walk", "--preset", "heisenberg-drift", "--n", 64,
                "--reps", 200, "--out", wout]) == 0
    fout = tmp_path / "f"
    assert run(["fit", "--csv", wout / "walk.csv", "--bootstrap", 0,
                "--out", fout]) == 0
    report = read_json(fout / "fit-report.json")
    assert report["alpha_moments_ci"] == [None, None]
    assert report["alpha_tail_ci"] == [None, None]
    assert report["alpha_moments"] > 0 and report["alpha_tail"] > 0
    read_json(fout / "manifest.json")


def _paths(node, prefix=()):
    """Every path into a JSON document, the root included."""
    yield prefix
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, prefix + (key,))


INLINE_PATHS = list(_paths(INLINE_WALK))
# (kind, value): "set" covers wrong types and out-of-range numbers
MUTATIONS = [("drop", None), ("ragged", None)] + [
    ("set", v) for v in (None, "x", True, 1.5, 2.0, [], {}, [[1]], -1, 0, 7,
                         float("nan"), float("inf"))]


def _mutate(doc, path, kind, value):
    """doc with one structural change at path; at the root, non-object JSON."""
    if not path:
        return value if kind == "set" else [doc]
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if kind == "drop":
        del parent[key]
    elif kind == "ragged":
        node = parent[key]
        parent[key] = node + node[-1:] if isinstance(node, list) else [node]
    else:
        parent[key] = value
    return doc


def test_inline_walk_mutations_keep_exit_code_contract(tmp_path):
    """No single structural change to a valid inline walk ends in a traceback."""
    failed = []
    for path, mutation in itertools.product(INLINE_PATHS, MUTATIONS):
        cfgp = tmp_path / "c.json"
        cfgp.write_text(json.dumps(_mutate(INLINE_WALK, path, *mutation)))
        try:
            code = run(["walk", "--config", cfgp, "--out", tmp_path / "o"])
        except Exception as exc:  # a traceback: named below with the pair
            code = repr(exc)
        if code not in {0, 2, 3, 4, 5}:
            failed.append(f"{path} {mutation}: {code}")
    assert not failed, f"{len(failed)} mutations break the exit-code contract: {failed}"


def _keywords(schema):
    """Every keyword in schema and in the subschemas it holds."""
    yield from schema
    subs = list(schema.get("properties", {}).values()) + schema.get("prefixItems", []) + \
        ([schema["items"]] if "items" in schema else [])
    for sub in subs:
        yield from _keywords(sub)


def test_config_schema_uses_only_keywords_the_checker_reads():
    """_check skips a keyword it does not read, so such a keyword would check nothing."""
    read = {node.value for node in ast.walk(ast.parse(inspect.getsource(_check)))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    known = read | set(BOUNDS) | {"default", "description"}
    unread = set(_keywords(CONFIG_SCHEMA)) - known
    assert not unread, f"CONFIG_SCHEMA uses keywords _check does not implement: {unread}"
