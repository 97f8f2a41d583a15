"""The nilwalk benchmark: CLI workloads, end-to-end and per-layer metrics.

    python3 benchmarks/run.py --workload drift-heisenberg --seed 1 \\
        --seconds 30 --trace 0

Run from the root of a source checkout.  Each iteration runs the
workload's CLI commands one after another, each in a fresh child process
(``benchmarks/shim.py``) with ``NILWALK_THREADS`` unset, so the shipped
default thread count applies.  Iterations repeat until the next one would
end past ``--seconds``; every figure is the median over iterations.  After
every command the artifacts are checked (see ``check_command``); a command
whose exit code or checks fail counts as a failed operation.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced iterations and reports the per-layer metrics, built
from the spans the shim records in traced iterations, plus the tracing
overhead (traced minus untraced wall time).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  README.md in this directory lists the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SHIM = os.path.join(HERE, "shim.py")
REFERENCE = os.path.join(HERE, "reference.json")
WORK_DIR = os.path.join(ROOT, ".bench_work")
COMMAND_TIMEOUT_S = 120.0
# Relative tolerance for summary values against the recorded reference:
# wide enough for last-digit float drift, far below any real change.
SUMMARY_RTOL = 1e-6
# The span names that start each command's main phase; setup ends there.
MAIN_PHASES = ("walker.monte_carlo", "manifest.read_csv_columns",
               "splitting.delta_ratio_scan")


# ---------------------------------------------------------------------------
# workloads

@dataclass(frozen=True)
class Command:
    kind: str          # walk | fit | split-scan
    out: str           # output directory, relative to the iteration directory
    args: tuple[str, ...]
    n: int = 0
    reps: int = 0

    def argv(self, seed: int) -> list[str]:
        return [self.kind, *self.args, "--seed", str(seed), "--out", self.out]


def _walk(preset: str, n: int, reps: int, *extra: str) -> Command:
    return Command("walk", "walk", ("--preset", preset, "--n", str(n),
                                    "--reps", str(reps), *extra), n, reps)


def _fit(bootstrap: int) -> Command:
    return Command("fit", "fit", ("--csv", "walk/walk.csv", "--lil-alpha", "0.5",
                                  "--bootstrap", str(bootstrap)))


def _scan(reps: int) -> Command:
    return Command("split-scan", "scan", ("--preset", "d4-r2", "--reps", str(reps)),
                   reps=reps)


# name -> (full-size commands, tiny commands for the self-tests).
WORKLOADS = {
    # Drift recentring at criterion-5 scale: long and narrow, two
    # 512-replicate chunks.  Brackets inside BCH dominate the walk.
    "drift-heisenberg": ([_walk("heisenberg-drift", 4096, 1024, "--gauge", "bracket_hull")],
                         [_walk("heisenberg-drift", 64, 16, "--gauge", "bracket_hull")]),
    # Bracket-hull gauge on the free step-3 algebra: a heavy gauge build
    # in setup and the 4 100-facet weight-3 polygon on every step.
    "hull-engel5": ([_walk("engel5-srw", 64, 1024, "--gauge", "bracket_hull")],
                    [_walk("engel5-srw", 8, 16, "--gauge", "bracket_hull")]),
    # Wide and short abelian walk with a rare flip, then the fit: one
    # substream per replicate, the twist path, CSV write and read, bootstrap.
    "flip-fit": ([_walk("r1-flip-eps", 50, 20000, "--eps", "0.01"), _fit(200)],
                 [_walk("r1-flip-eps", 50, 64, "--eps", "0.01"), _fit(10)]),
    # Isometry-lift scan on the dihedral group: no walker, BCH or gauge code.
    "scan-d4": ([_scan(1024)], [_scan(32)]),
}


def default_checkpoints(n: int) -> list[int]:
    """Dyadic times from 4 up to n, then n: the CLI's documented default."""
    cps = [1 << j for j in range(2, n.bit_length() + 1) if (1 << j) <= n]
    if not cps or cps[-1] != n:
        cps.append(n)
    return cps


# ---------------------------------------------------------------------------
# running commands

@dataclass
class CommandRun:
    command: Command
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    spawn: float                  # parent perf_counter just before the fork
    spans: list = field(default_factory=list)
    env: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    hashes: dict = field(default_factory=dict)
    summary: dict = field(default_factory=dict)


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("NILWALK_THREADS", None)
    return env


def run_command(cmd: Command, seed: int, trace: bool, it_dir: str, k: int) -> CommandRun:
    spans_path = os.path.join(it_dir, f"spans-{k}.json")
    argv = [sys.executable, SHIM, spans_path, "1" if trace else "0", "--",
            *cmd.argv(seed)]
    with open(os.path.join(it_dir, f"cmd-{k}.log"), "wb") as log:
        spawn = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=it_dir, env=child_env(),
                                stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(COMMAND_TIMEOUT_S, os.kill, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - spawn
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    run = CommandRun(cmd, proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                     usage.ru_maxrss / 1024.0, spawn)
    if os.path.exists(spans_path):
        with open(spans_path) as fh:
            doc = json.load(fh)
        run.spans, run.env = doc["spans"], doc["env"]
    return run


def run_iteration(commands, seed: int, trace: bool, it_dir: str) -> list[CommandRun]:
    shutil.rmtree(it_dir, ignore_errors=True)
    os.makedirs(it_dir)
    runs = []
    for k, cmd in enumerate(commands):
        run = run_command(cmd, seed, trace, it_dir, k)
        run.failures = check_command(run, it_dir)
        if run.code != 0:
            with open(os.path.join(it_dir, f"cmd-{k}.log"), errors="replace") as fh:
                run.failures.insert(0, f"exit code {run.code}: {fh.read()[-400:]!r}")
        runs.append(run)
    return runs


# ---------------------------------------------------------------------------
# output checks

def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def read_csv(path: str) -> tuple[np.ndarray, list[str]]:
    names = None
    with open(path) as fh:
        for line in fh:
            if not line.startswith("#"):
                break
            if line[1:].strip().startswith("columns:"):
                names = line.split(":", 1)[1].split()
    if names is None:
        raise ValueError(f"{path}: no columns header")
    data = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
    if data.size and data.shape[1] != len(names):
        raise ValueError(f"{path}: {data.shape[1]} columns for {len(names)} names")
    return data, names


def check_command(run: CommandRun, it_dir: str) -> list[str]:
    """Deterministic checks on one command's artifacts; returns the failures.

    Fills run.hashes (artifact -> sha256) and run.summary (the values the
    reference file records) as a side effect.
    """
    cmd = run.command
    out = os.path.join(it_dir, cmd.out)
    try:
        with open(os.path.join(out, "manifest.json")) as fh:
            manifest = json.load(fh)
        failures = []
        for name, digest in sorted(manifest["files"].items()):
            run.hashes[f"{cmd.out}/{name}"] = sha256_file(os.path.join(out, name))
            if run.hashes[f"{cmd.out}/{name}"] != digest:
                failures.append(f"{cmd.out}/{name}: sha256 differs from the manifest")
        run.hashes[f"{cmd.out}/manifest.json"] = sha256_file(os.path.join(out, "manifest.json"))
        check = {"walk": _check_walk, "fit": _check_fit, "split-scan": _check_scan}
        failures += check[cmd.kind](run, out, manifest, it_dir)
        return failures
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"{cmd.out}: unreadable artifacts ({type(exc).__name__}: {exc})"]


def _check_walk(run: CommandRun, out: str, manifest: dict, it_dir: str) -> list[str]:
    cmd = run.command
    data, names = read_csv(os.path.join(out, "walk.csv"))
    cps = default_checkpoints(cmd.n)
    failures = []
    if data.shape[0] != cmd.reps * len(cps):
        return [f"walk.csv has {data.shape[0]} rows, expected {cmd.reps} x {len(cps)}"]
    if not np.all(np.isfinite(data)):
        failures.append("walk.csv has non-finite values")
    col = {name: data[:, i] for i, name in enumerate(names)}
    if not np.array_equal(col["n"], np.tile(np.asarray(cps, dtype=float), cmd.reps)):
        failures.append("walk.csv rows are not replicate-major over the checkpoints")
    if not np.all(col["M"] >= col["y_norm"]):
        failures.append("running max M below the current norm y_norm")
    m = col["M"].reshape(cmd.reps, len(cps))
    if not np.all(np.diff(m, axis=1) >= 0):
        failures.append("running max M decreases as n grows")
    run.summary = {"median_final_M": float(np.median(m[:, -1]))}
    return failures


def _check_fit(run: CommandRun, out: str, manifest: dict, it_dir: str) -> list[str]:
    failures = []
    csv_path = os.path.join(it_dir, "walk", "walk.csv")
    if manifest["inputs"].get("walk.csv") != sha256_file(csv_path):
        failures.append("fit manifest input hash differs from walk.csv")
    tail = np.loadtxt(os.path.join(out, "fit-tail.csv"), delimiter=",", ndmin=2)
    if tail.size == 0 or not np.all(np.isfinite(tail)):
        failures.append("fit-tail.csv is empty or has non-finite values")
    with open(os.path.join(out, "fit-report.json")) as fh:
        report = json.load(fh)
    alpha = report["alpha_moments"]
    if not (isinstance(alpha, float) and math.isfinite(alpha)):
        failures.append(f"alpha_moments is {alpha!r}")
    run.summary = {"alpha_moments": alpha}
    return failures


def _check_scan(run: CommandRun, out: str, manifest: dict, it_dir: str) -> list[str]:
    cmd = run.command
    derived = manifest["derived"]
    data, names = read_csv(os.path.join(out, "scan.csv"))
    failures = []
    kept, skipped, c_hat = derived["kept"], derived["skipped_near_sections"], derived["c_hat"]
    if kept + skipped != cmd.reps:
        failures.append(f"kept {kept} + skipped {skipped} != reps {cmd.reps}")
    if data.shape[0] != kept:
        failures.append(f"scan.csv has {data.shape[0]} rows, manifest kept {kept}")
    if not np.all(np.isfinite(data)):
        failures.append("scan.csv has non-finite values")
    if data.size and c_hat != float(np.min(data[:, names.index("ratio")])):
        failures.append("c_hat is not the smallest ratio in scan.csv")
    with open(os.path.join(out, "best-lift.json")) as fh:
        lift = json.load(fh)
    d_val, big = rescore_lift(np.asarray(lift["representation"], dtype=float),
                              np.asarray(lift["translations"], dtype=float))
    if abs(d_val - 1.0) > 1e-6:
        failures.append(f"best lift re-scores to delta {d_val!r}, not 1")
    if abs(big - c_hat) > 1e-6 * max(1.0, abs(c_hat)):
        failures.append(f"best lift re-scores to Delta {big!r}, c_hat is {c_hat!r}")
    run.summary = {"c_hat": c_hat}
    return failures


def rescore_lift(mats: np.ndarray, trans: np.ndarray) -> tuple[float, float]:
    """(delta, Delta) of a lift x -> A_f x + u_f, computed from scratch.

    The distance from x to Fix(A, u) is |pinv(A - I) ((A - I) x + u)|, so
    delta is one least-squares problem.  Delta is the worst squared
    translation of lift(f1) lift(f2) lift((f1 f2)^-1).
    """
    order, d = trans.shape
    eye = np.eye(d)
    rows, rhs = [], []
    for a, u in zip(mats, trans):
        p = np.linalg.pinv(a - eye)
        rows.append(p @ (a - eye))
        rhs.append(-p @ u)
    lhs, b = np.vstack(rows), np.concatenate(rhs)
    x = np.linalg.lstsq(lhs, b, rcond=None)[0]
    delta = float(np.sum((lhs @ x - b) ** 2))

    def index(m):
        hits = [i for i in range(order) if np.allclose(mats[i], m, atol=1e-9)]
        if len(hits) != 1:
            raise ValueError("best-lift.json representation is not a group")
        return hits[0]

    worst = 0.0
    for f1 in range(order):
        for f2 in range(order):
            a12 = mats[f1] @ mats[f2]
            k = index(a12.T)
            defect = trans[f1] + mats[f1] @ trans[f2] + a12 @ trans[k]
            worst = max(worst, float(defect @ defect))
    return delta, worst


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def compare_reference(runs: list[CommandRun], ref: dict | None) -> tuple[list[str], int, int]:
    """Summary failures, then (artifacts identical, artifacts compared)."""
    if ref is None:
        return [], 0, 0
    failures, identical, compared = [], 0, 0
    for run in runs:
        for key, value in run.summary.items():
            want = ref["summary"].get(f"{run.command.out}.{key}")
            if want is not None and not math.isclose(value, want, rel_tol=SUMMARY_RTOL):
                failures.append(f"{run.command.out}.{key} = {value!r}, reference {want!r}")
        for name, digest in run.hashes.items():
            if name in ref["sha256"]:
                compared += 1
                identical += digest == ref["sha256"][name]
    return failures, identical, compared


# ---------------------------------------------------------------------------
# metrics from one iteration

def _union_length(intervals) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class SpanTable:
    """Totals, self times and work per span name for one command's spans."""

    def __init__(self, spans):
        self.spans = spans
        self.by_name: dict = {}
        children: dict = {}
        for i, (name, start, end, parent, _, _) in enumerate(spans):
            self.by_name.setdefault(name, []).append(i)
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        # children always lie inside their parent: the walker and scan pools
        # are joined before the call that started them returns
        self.self_time = [s[2] - s[1] - _union_length(children.get(i, []))
                          for i, s in enumerate(spans)]

    def named(self, name):
        return [self.spans[i] for i in self.by_name.get(name, [])]

    def total(self, name) -> float:
        return sum(s[2] - s[1] for s in self.named(name))

    def count(self, name) -> int:
        return len(self.by_name.get(name, []))

    def work(self, name) -> float:
        return sum(s[5] or 0 for s in self.named(name))

    def self_sum(self, *names) -> float:
        return sum(self.self_time[i] for n in names for i in self.by_name.get(n, []))

    def first_start(self, names):
        starts = [s[1] for n in names for s in self.named(n)]
        return min(starts) if starts else None

    def roots_covered(self) -> float:
        return _union_length([(s[1], s[2]) for s in self.spans if s[3] is None])


def end_to_end(runs: list[CommandRun]) -> dict:
    setup = 0.0
    for run in runs:
        start = SpanTable(run.spans).first_start(MAIN_PHASES)
        setup += (start if start is not None else run.spawn + run.wall_s) - run.spawn
    return {
        "wall_s": sum(r.wall_s for r in runs),
        "setup_s": setup,
        "cpu_s": sum(r.cpu_s for r in runs),
        "peak_rss_mb": max(r.rss_mb for r in runs),
    }


def phase_rates(runs: list[CommandRun]) -> dict:
    tables = [SpanTable(r.spans) for r in runs]
    walk_s = sum(t.total("walker.monte_carlo") for t in tables)
    rsteps = sum(t.work("walker.monte_carlo") for t in tables)
    scan_s = sum(t.total("splitting.delta_ratio_scan") for t in tables)
    lifts = sum(r.command.reps for r in runs if r.command.kind == "split-scan")
    return {
        "walk_rsteps_per_s": rsteps / walk_s if walk_s else 0.0,
        "fit_s": sum(t.total(n) for t in tables for n in
                     ("stats.fit_alpha", "stats.tail_curve", "stats.lil_diagnostic")),
        "scan_lifts_per_s": lifts / scan_s if scan_s else 0.0,
    }


def layer_metrics(runs: list[CommandRun], it_dir: str) -> dict:
    m = {"norms.hull_facets_w2": 0, "norms.hull_facets_w3": 0, "walker.workers": 0}

    def add(key, value):
        m[key] = m.get(key, 0) + value

    for run in runs:
        t = SpanTable(run.spans)
        add("rng.substream_calls", t.count("rng.substream"))
        add("rng.substream_s", t.total("rng.substream"))
        add("rng.sample_s", t.total("rng.sample"))
        add("algebra.bracket_calls", t.count("algebra.bracket"))
        add("algebra.bracket_rows", t.work("algebra.bracket"))
        add("algebra.bracket_s", t.total("algebra.bracket"))
        add("algebra.layer_components_s", t.total("algebra.layer_components"))
        add("bch.calls", t.count("bch.bch"))
        add("bch.rows", t.work("bch.bch"))
        add("bch.self_s", t.self_sum("bch.bch"))
        hom = [s for s in t.named("norms.hom_norm") if s[5]]
        add("norms.hom_norm_calls", t.count("norms.hom_norm"))
        add("norms.hom_norm_rows", sum(s[5][0] for s in hom))
        add("norms.hom_norm_s", t.total("norms.hom_norm"))
        add("norms.facet_evals", sum(s[5][0] * s[5][1] for s in hom))
        for facets in (s[5] for s in t.named("norms.build_gauge") if s[5]):
            for w in (2, 3):
                key = f"norms.hull_facets_w{w}"
                m[key] = max(m[key], facets[w - 1] if len(facets) >= w else 0)
        add("norms.build_gauge_s", t.total("norms.build_gauge"))
        add("norms.bilinearity_constant_s", t.total("norms.bilinearity_constant"))
        add("presets.build_walk_setup_s", t.total("presets.build_walk_setup"))
        add("presets.self_s", t.self_sum("presets.build_walk_setup"))
        add("walker.monte_carlo_s", t.total("walker.monte_carlo"))
        add("walker.self_s", t.self_sum("walker.monte_carlo", "walker.chunk"))
        add("walker.replicate_steps", t.work("walker.monte_carlo"))
        m["walker.workers"] = max(m["walker.workers"],
                                  len({s[4] for s in t.named("walker.chunk")}))
        add("manifest.write_walk_csv_s", t.total("manifest.write_walk_csv"))
        add("manifest.read_csv_columns_s", t.total("manifest.read_csv_columns"))
        add("manifest.hash_s", t.total("manifest.hash"))
        add("stats.fit_alpha_s", t.total("stats.fit_alpha"))
        add("stats.bootstrap_resamples", t.work("stats.fit_alpha"))
        add("stats.tail_curve_s", t.total("stats.tail_curve"))
        add("stats.lil_diagnostic_s", t.total("stats.lil_diagnostic"))
        add("splitting.fix_set_calls", t.count("splitting.fix_set"))
        add("splitting.fix_set_s", t.total("splitting.fix_set"))
        add("splitting.delta_s", t.total("splitting.delta"))
        add("splitting.big_delta_s", t.total("splitting.big_delta"))
        add("splitting.self_s", t.self_sum("splitting.delta_ratio_scan", "splitting.chunk"))
        add("cli.import_s", t.total("cli.import"))
        add("cli.validate_config_s", t.total("cli.validate_config"))
        add("cli.self_s", run.wall_s - t.roots_covered())
    csv_bytes = 0
    for run in runs:
        out = os.path.join(it_dir, run.command.out)
        csv_bytes += sum(os.path.getsize(os.path.join(out, f))
                         for f in os.listdir(out) if f.endswith(".csv"))
    m["manifest.csv_bytes"] = csv_bytes
    lifts = kept = 0
    for run in runs:
        if run.command.kind == "split-scan":
            with open(os.path.join(it_dir, run.command.out, "manifest.json")) as fh:
                kept += json.load(fh)["derived"]["kept"]
            lifts += run.command.reps
    m["splitting.lifts_attempted"] = lifts
    m["splitting.lifts_kept"] = kept
    m["splitting.kept_ratio"] = kept / lifts if lifts else 0.0
    return m


def walk_shares(runs: list[CommandRun]) -> dict:
    """Share of walk thread time per layer, from spans under the walk."""
    out: dict = {}
    for run in runs:
        spans = run.spans
        t = SpanTable(spans)
        roots = {i for i, s in enumerate(spans) if s[0] == "walker.monte_carlo"}
        inside = set()
        for i, s in enumerate(spans):
            p = s[3]
            while p is not None and p not in roots and p not in inside:
                p = spans[p][3]
            if p is not None:
                inside.add(i)
        for i in inside:
            name = spans[i][0]
            leaf = name in ("rng.substream", "rng.sample", "algebra.bracket",
                            "algebra.layer_components")
            key = {"walker.chunk": "walker.self"}.get(name, name + ("" if leaf else ".self"))
            out[key] = out.get(key, 0.0) + t.self_time[i]
    total = sum(out.values())
    return {k: v / total for k, v in out.items()} if total else {}


# ---------------------------------------------------------------------------
# the run

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def environment(runs: list[CommandRun]) -> str:
    env = next((r.env for r in runs if r.env), {})
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return (f"env: python={env.get('python')} numpy={env.get('numpy')} "
            f"scipy={env.get('scipy')} nproc={env.get('nproc')} "
            f"threads={env.get('threads')} (NILWALK_THREADS unset) commit={commit}")


END_TO_END = ("wall_s", "setup_s", "cpu_s", "peak_rss_mb")
PHASE_RATES = ("walk_rsteps_per_s", "fit_s", "scan_lifts_per_s")
UNITS = {
    "wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB",
    "walk_rsteps_per_s": "rsteps/s", "fit_s": "s", "scan_lifts_per_s": "lifts/s",
    "trace.overhead_s": "s", "failed_frac": "ratio",
    "splitting.kept_ratio": "ratio", "manifest.csv_bytes": "bytes",
    "walker.workers": "threads", "algebra.bracket_rows": "rows",
    "bch.rows": "rows", "norms.hom_norm_rows": "rows",
}


def unit(name: str) -> str:
    return UNITS.get(name, "s" if name.endswith("_s") else "count")


def summarize(samples: list[dict]) -> dict:
    out = {}
    for key in samples[0]:
        vals = [s[key] for s in samples]
        q1, q3 = quartiles(vals)
        out[key] = (statistics.median(vals), q1, q3, len(vals))
    return out


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="shrink every command (self-tests only; no reference check)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "nilwalk", "cli.py")):
        print(f"benchmark: no nilwalk sources under {ROOT}/src", file=sys.stderr)
        return 2
    full, tiny = WORKLOADS[args.workload]
    commands = tiny if args.tiny else full
    ref = None if args.tiny else load_reference().get(args.workload, {}).get(str(args.seed))

    os.makedirs(WORK_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR)
    try:
        # compile and cache the package's bytecode before timing anything
        subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]);"
                        " import nilwalk.cli", os.path.join(ROOT, "src")],
                       env=child_env(), check=True, timeout=COMMAND_TIMEOUT_S)
        result = measure(args, commands, ref, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


def measure(args, commands, ref, work: str) -> dict:
    modes = [False, True] if args.trace else [False]
    iterations = {False: [], True: []}
    durations = {False: [], True: []}
    first_hashes = None
    attempted = failed = 0
    identical = compared = 0
    start = time.perf_counter()
    deadline = start + args.seconds
    k = 0
    while True:
        traced = modes[k % len(modes)]
        t0 = time.perf_counter()
        it_dir = os.path.join(work, "it")
        runs = run_iteration(commands, args.seed, traced, it_dir)
        hashes = {name: h for r in runs for name, h in r.hashes.items()}
        if first_hashes is None:
            first_hashes = hashes
            ref_fail, identical, compared = compare_reference(runs, ref)
            if ref_fail:
                runs[0].failures += ref_fail
        elif hashes != first_hashes:
            runs[-1].failures.append("artifacts differ from the first iteration")
        for r in runs:
            attempted += 1
            if r.failures:
                failed += 1
                print(f"FAILED {' '.join(r.command.argv(args.seed))}: "
                      + "; ".join(r.failures), file=sys.stderr)
        sample = end_to_end(runs)
        sample.update(phase_rates(runs))
        if traced:
            sample.update(layer_metrics(runs, it_dir))
        iterations[traced].append((sample, runs))
        durations[traced].append(time.perf_counter() - t0)
        k += 1
        nxt = modes[k % len(modes)]
        done = all(iterations[mode] for mode in modes)
        budget = max(durations[nxt]) if durations[nxt] else max(durations[not nxt])
        if done and time.perf_counter() + budget > deadline:
            break

    print(environment([r for _, runs in iterations[False] for r in runs]))
    print(f"workload {args.workload} seed {args.seed}: "
          f"{len(iterations[False])} untraced and {len(iterations[True])} traced "
          f"iterations in {time.perf_counter() - start:.1f} s")
    plain = summarize([s for s, _ in iterations[False]])
    print("untraced, median (q1, q3) over iterations:")
    for key, (med, q1, q3, n) in plain.items():
        print(f"  {key:20s} {med:.6g} {unit(key)}  ({q1:.6g}, {q3:.6g}; {n} samples)")
    print(f"  {'failed_frac':20s} {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} operations)")
    metrics = {key: plain[key][0] for key in END_TO_END}
    if args.trace:
        traced = summarize([s for s, _ in iterations[True]])
        metrics = {key: traced[key][0] for key in traced if key not in plain}
        metrics.update({key: plain[key][0] for key in PHASE_RATES})
        metrics["trace.overhead_s"] = traced["wall_s"][0] - plain["wall_s"][0]
        metrics["manifest.artifacts_identical"] = identical
        metrics["manifest.artifacts_compared"] = compared
        print("traced, per layer (median over traced iterations):")
        for key in sorted(metrics):
            print(f"  {key:32s} {metrics[key]:.6g} {unit(key)}")
        shares = [walk_shares(runs) for _, runs in iterations[True]]
        if shares[0]:
            print("  walk shares of thread time: " + ", ".join(
                f"{key} {statistics.median(sh[key] for sh in shares):.3f}"
                for key in sorted(shares[0], key=lambda key: -shares[0][key])))
        if plain["scan_lifts_per_s"][0]:
            scan = [SpanTable(r.spans).total("splitting.delta_ratio_scan") / (
                r.wall_s - SpanTable(r.spans).total("cli.import"))
                for _, runs in iterations[False] for r in runs]
            print(f"  splitting share of wall outside import: {statistics.median(scan):.3f}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {key: {"value": value, "unit": unit(key)}
                        for key, value in metrics.items()}}


if __name__ == "__main__":
    sys.exit(main())
