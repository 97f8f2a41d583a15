"""The library is what the package itself uses.

Every module-level function or class under src/nilwalk, and every public
method, must be referenced from src/nilwalk outside its own definition,
by code that is itself in use.  KEEP lists the names whose only callers
live outside the package: the acceptance criteria and the benchmark shim.
Every name the benchmark shim must wrap resolves to a callable.
Every dataclass field must be read as an attribute somewhere in
src/nilwalk, with no exceptions.
The number of settable values is held at or below SETTABLE_CEILING.
The third-party modules the package imports are exactly its declared
runtime dependencies, numpy alone; scipy is a test-only reference.  No
module imports scipy.spatial, the package root loads no module, importing
the CLI loads no schema library or scipy module, a preset hull walk or
split scan loads neither scipy.spatial nor scipy.linalg, and fit loads no
scipy module at all and not numpy.ma.  Importing the CLI leaves one OS
thread, and no output byte depends on the size of numpy's BLAS pool.
"""

import ast
import importlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

import nilwalk

SRC = Path(nilwalk.__file__).parent
KEEP = {"dilate", "delta", "big_delta", "thread_cap"}
SETTABLE_CEILING = 4
RUNTIME_DEPENDENCIES = {"numpy"}


class Definition(NamedTuple):
    module: str
    qualname: str
    first: int
    last: int

    def holds(self, module, line):
        return module == self.module and self.first <= line <= self.last


def _definitions(module, tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield Definition(module, node.name, node.lineno, node.end_lineno)
            for sub in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                    yield Definition(module, f"{node.name}.{sub.name}",
                                     sub.lineno, sub.end_lineno)


def unused_names():
    """Qualified names of definitions that no code in use refers to."""
    defs, uses = [], {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        found = list(_definitions(path.stem, tree))
        defs += found
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)):
                # a use belongs to the innermost definition around it, if any
                owner = min((d for d in found if d.holds(path.stem, node.lineno)),
                            key=lambda d: d.last - d.first, default=None)
                name = node.id if isinstance(node, ast.Name) else node.attr
                uses.setdefault(name, []).append((path.stem, node.lineno, owner))
    live = {d for d in defs if d.qualname.split(".")[-1] in KEEP}
    grown = True
    while grown:
        grown = False
        for d in set(defs) - live:
            if any(not d.holds(module, line) and (owner is None or owner in live)
                   for module, line, owner in uses.get(d.qualname.split(".")[-1], ())):
                live.add(d)
                grown = True
    return sorted(f"{d.module}.{d.qualname}" for d in set(defs) - live)


def test_every_definition_is_used_inside_the_package():
    unused = unused_names()
    assert not unused, f"no code in src/nilwalk uses {unused}"


def _is_dataclass(decorator):
    call = decorator.func if isinstance(decorator, ast.Call) else decorator
    return isinstance(call, ast.Name) and call.id == "dataclass"


def _init_default(stmt):
    """Whether a dataclass class-body statement is an init field with a default."""
    if not isinstance(stmt, ast.AnnAssign) or stmt.value is None:
        return False
    value = stmt.value
    if not (isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field"):
        return True
    kw = {k.arg: k.value for k in value.keywords}
    init = kw.get("init")
    if isinstance(init, ast.Constant) and init.value is False:
        return False
    return "default" in kw or "default_factory" in kw


def unread_fields():
    """Class.field for each dataclass field no attribute read in src/nilwalk names."""
    fields, reads = [], set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and any(map(_is_dataclass,
                                                          node.decorator_list)):
                fields += [(node.name, stmt.target.id) for stmt in node.body
                           if isinstance(stmt, ast.AnnAssign)]
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
    return sorted(f"{cls}.{name}" for cls, name in fields if name not in reads)


def test_every_dataclass_field_is_read():
    unread = unread_fields()
    assert not unread, f"no code in src/nilwalk reads the fields {unread}"


def settable_values():
    """Defaulted def parameters plus defaulted dataclass init fields in src/nilwalk."""
    count = 0
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.Lambda)):
                args = node.args
                count += len(args.defaults) + sum(d is not None for d in args.kw_defaults)
            elif isinstance(node, ast.ClassDef) and any(map(_is_dataclass,
                                                            node.decorator_list)):
                count += sum(map(_init_default, node.body))
    return count


def test_settable_values_stay_at_or_below_ceiling():
    count = settable_values()
    assert count <= SETTABLE_CEILING, (
        f"{count} defaulted parameters and dataclass fields in src/nilwalk, "
        f"ceiling {SETTABLE_CEILING}: give a new setting a caller that sets it, "
        "or make it a constant")


def imported_names():
    """Dotted names of the absolute imports in src/nilwalk, at any depth:
    each module, and each name imported from one (from a import b gives
    a and a.b)."""
    names = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module)
                names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


def third_party_imports():
    """Top-level names of the modules outside the standard library that src/nilwalk imports."""
    return {name.split(".")[0] for name in imported_names()} - set(sys.stdlib_module_names)


def test_imports_are_the_declared_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((SRC.parent.parent / "pyproject.toml").read_text())["project"]
    declared = {re.split(r"[<>=!~;\[ ]", dep)[0] for dep in project["dependencies"]}
    assert third_party_imports() == declared == RUNTIME_DEPENDENCIES


def test_no_module_imports_scipy_spatial():
    """Hull layers are segments or polygons, built in numpy; a layer of
    dimension >= 3 falls back to the scaled gauge, so nothing needs Qhull."""
    spatial = sorted(name for name in imported_names()
                     if name == "scipy.spatial" or name.startswith("scipy.spatial."))
    assert not spatial, f"src/nilwalk imports {spatial}"


def fresh_python(args: list[str], **environ: str) -> str:
    """stdout of a fresh interpreter run with args, nilwalk on its path and
    environ added to this process's environment."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])), **environ)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, check=True).stdout


def loaded_modules(code: str) -> set[str]:
    """The modules sys.modules holds after a fresh interpreter runs code."""
    out = fresh_python(["-c", f"{code}\nimport sys; print(*sys.modules)"])
    return set(out.splitlines()[-1].split())


def test_cli_import_leaves_one_thread():
    """The CLI pins OpenBLAS to one thread before numpy loads, whatever pool
    size the environment asks for, so a CLI process runs on one OS thread."""
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("/proc/self/task lists a process's threads on Linux only")
    out = fresh_python(["-c", "import os, nilwalk.cli; print(len(os.listdir('/proc/self/task')))"],
                       OPENBLAS_NUM_THREADS="2")
    assert out.split() == ["1"]


def test_no_output_byte_depends_on_the_blas_pool(tmp_path):
    """A caller that imports numpy before nilwalk.cli keeps numpy's BLAS pool;
    each command's files from main() in such a process equal those of the
    CLI, which runs on one thread."""
    walk = tmp_path / "cli" / "engel5" / "walk.csv"
    commands = {
        "engel5": ["walk", "--preset", "engel5-srw", "--gauge", "bracket_hull",
                   "--n", "32", "--reps", "64", "--seed", "3"],
        "drift": ["walk", "--preset", "heisenberg-drift", "--gauge", "bracket_hull",
                  "--n", "32", "--reps", "64", "--seed", "3"],
        "fit": ["fit", "--csv", str(walk), "--bootstrap", "20", "--lil-alpha", "0.5", "--svg"],
        "scan": ["split-scan", "--preset", "d4-r2", "--reps", "64", "--svg"],
        "check": ["algebra-check", "--preset", "engel5", "--v", "1,0.5,0,0,0"],
    }
    for name, argv in commands.items():
        fresh_python(["-m", "nilwalk.cli", *argv, "--out", str(tmp_path / "cli" / name)])
    runs = {name: argv + ["--out", str(tmp_path / "pool" / name)]
            for name, argv in commands.items()}
    code = ("import os, numpy\n"
            "threads = len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') "
            "else 0\n"
            "from nilwalk.cli import main\n"
            f"assert all(main(argv) == 0 for argv in {list(runs.values())!r})\n"
            "print(threads)")
    threads = int(fresh_python(["-c", code], OPENBLAS_NUM_THREADS="2").split()[-1])
    if threads and len(os.sched_getaffinity(0)) >= 2:  # Linux, two CPUs or more
        assert threads == 2, "numpy loaded first should keep a pool of two threads"
    for name in commands:
        cli_dir, pool_dir = tmp_path / "cli" / name, tmp_path / "pool" / name
        files = sorted(p.name for p in cli_dir.iterdir())
        assert files == sorted(p.name for p in pool_dir.iterdir()) and files, name
        for file in files:
            assert (cli_dir / file).read_bytes() == (pool_dir / file).read_bytes(), (name, file)


def test_package_root_loads_no_other_module():
    """Names are imported from their modules: the package root re-exports
    nothing, so importing nilwalk.rng loads no other nilwalk module."""
    ours = {name for name in loaded_modules("import nilwalk.rng") if name.startswith("nilwalk")}
    assert ours == {"nilwalk", "nilwalk.rng"}


def test_cli_import_loads_no_schema_library_or_scipy_submodule():
    """Config schemas are checked in nilwalk itself, and no nilwalk module
    imports scipy."""
    heavy = {"jsonschema", "scipy.stats", "scipy.special", "scipy.linalg", "scipy.spatial"}
    assert not heavy & loaded_modules("import nilwalk.cli")


@pytest.mark.parametrize("argv", [
    ["walk", "--preset", "engel5-srw", "--gauge", "bracket_hull", "--n", "8", "--reps", "16"],
    ["split-scan", "--preset", "d4-r2", "--reps", "32"],
], ids=["engel5-hull-walk", "d4-split-scan"])
def test_preset_commands_load_no_hull_or_linalg_module(argv, tmp_path):
    """Hull layers and block-diagonal lift maps are built in numpy."""
    loaded = loaded_modules("from nilwalk.cli import main\n"
                            f"assert main({argv + ['--out', str(tmp_path)]!r}) == 0")
    assert not {"scipy.spatial", "scipy.linalg"} & loaded


@pytest.fixture(scope="module")
def fit_modules(tmp_path_factory):
    """The modules a fresh interpreter holds after a fit with every output on."""
    from nilwalk.cli import main
    tmp_path = tmp_path_factory.mktemp("fit")
    assert main(["walk", "--preset", "heisenberg-srw", "--n", "16", "--reps", "40",
                 "--out", str(tmp_path / "w")]) == 0
    argv = ["fit", "--csv", str(tmp_path / "w" / "walk.csv"), "--bootstrap", "5",
            "--lil-alpha", "0.5", "--svg", "--out", str(tmp_path / "f")]
    loaded = loaded_modules(f"from nilwalk.cli import main\nassert main({argv!r}) == 0")
    assert (tmp_path / "f" / "fit-tail.csv").exists()
    return loaded


def test_fit_loads_no_scipy(fit_modules):
    """The Clopper-Pearson band is inverted in numpy, so fit runs without scipy."""
    assert not {name for name in fit_modules if name == "scipy" or name.startswith("scipy.")}


def test_fit_loads_no_numpy_ma(fit_modules):
    """np.unique, np.quantile, np.percentile and np.median import numpy.ma
    on every call; fit takes its distinct values, quantiles and medians from
    stats instead."""
    assert "numpy.ma" not in fit_modules


def test_benchmark_shim_names_resolve():
    """benchmarks/shim.py wraps PHASE_HOOKS with required=True and reads
    nilwalk.walker.thread_cap after every command: a missing name fails
    every benchmark run."""
    path = SRC.parent.parent / "benchmarks" / "shim.py"
    spec = importlib.util.spec_from_file_location("nilwalk_benchmark_shim", path)
    shim = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(shim)
    required = [(owner, attr) for owner, attr, _, _ in shim.PHASE_HOOKS]
    required.append(("nilwalk.walker", "thread_cap"))
    for owner, _ in required:
        importlib.import_module(owner)
    missing = [f"{owner}.{attr}" for owner, attr in required
               if not callable(getattr(shim._resolve(owner), attr, None))]
    assert not missing, f"the benchmark shim needs {missing}"
