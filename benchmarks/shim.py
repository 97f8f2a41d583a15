"""Run one nilwalk CLI command with timing wrappers around its layers.

    python3 benchmarks/shim.py SPANS_JSON TRACE -- CLI_ARGS...

The shim imports ``nilwalk`` from the checkout's ``src/``, replaces the
names that callers look up with wrappers that record spans, calls
``nilwalk.cli.main(CLI_ARGS)`` and exits with its return code.  Spans are
kept in memory and written to SPANS_JSON when the command ends; nothing
the program writes changes.

With TRACE 0 only the phase names the CLI module calls are wrapped (a few
calls per command).  With TRACE 1 the per-layer names are wrapped as well:
BCH, brackets, gauge evaluation, random streams, alias sampling, the
walker and scan chunks, fixed-set solves and the defect functionals.

A span is ``[name, start, end, parent, thread, work]``: times come from
``time.perf_counter`` (CLOCK_MONOTONIC on Linux, so they compare with the
parent's clock), ``parent`` is the index of the enclosing span (for the
first span of a worker thread, the innermost open span of the main
thread), and ``work`` is a count the wrapper read off the call, such as
the rows of a batched bracket.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.get_ident()

    def _stack(self) -> list[int]:
        return self._stacks.setdefault(threading.get_ident(), [])

    def open(self, name: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            main = self._stacks.get(self._main)
            parent = main[-1] if main else None
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent,
                               threading.get_ident(), None])
        stack.append(idx)
        return idx

    def close(self, idx: int, work=None) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        span[5] = work
        self._stack().pop()

    def wrap(self, name: str, fn, work=None):
        """fn with a span around each call; work(args, result) sizes the call."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(idx)
                raise
            self.close(idx, None if work is None else work(args, kwargs, result))
            return result
        return traced


def _rows(*arrays) -> int:
    """Rows of a batched call: the larger batch of its (broadcast) operands."""
    return max(math.prod(getattr(a, "shape", (0,))[:-1]) for a in arrays)


def _facets(norm) -> int:
    return sum(f.shape[0] for f in norm.hull_facets if f is not None)


def _facets_by_weight(args, kwargs, norm) -> list[int]:
    return [0 if f is None else int(f.shape[0]) for f in norm.hull_facets]


# (module, attribute, span name, work) wrapped in every run.  These are the
# names nilwalk.cli calls for each phase of a command.
PHASE_HOOKS = [
    ("nilwalk.cli", "validate_config", "cli.validate_config", None),
    ("nilwalk.cli", "build_walk_setup", "presets.build_walk_setup", None),
    ("nilwalk.cli", "monte_carlo", "walker.monte_carlo",
     lambda a, kw, r: a[0].n_steps * a[0].replications),
    ("nilwalk.cli", "gauge_hash", "manifest.hash", None),
    ("nilwalk.cli", "write_walk_csv", "manifest.write_walk_csv", None),
    ("nilwalk.cli", "read_csv_columns", "manifest.read_csv_columns", None),
    ("nilwalk.cli", "fit_alpha", "stats.fit_alpha",
     lambda a, kw, r: kw.get("n_bootstrap", 0)),
    ("nilwalk.cli", "tail_curve", "stats.tail_curve", None),
    ("nilwalk.cli", "lil_diagnostic", "stats.lil_diagnostic", None),
    ("nilwalk.cli", "delta_ratio_scan", "splitting.delta_ratio_scan", None),
    ("nilwalk.cli", "write_scan_csv", "manifest.write_scan_csv", None),
    ("nilwalk.cli", "sha256_file", "manifest.hash", None),
    ("nilwalk.cli", "attach_file_hashes", "manifest.hash", None),
    ("nilwalk.cli", "write_manifest", "manifest.write_manifest", None),
]

# Wrapped only in traced runs.  A name imported into several modules is
# wrapped in each module that calls it.
LAYER_HOOKS = [
    ("nilwalk.walker", "_run_chunk", "walker.chunk", None),
    ("nilwalk.walker", "substream", "rng.substream", None),
    ("nilwalk.splitting", "substream", "rng.substream", None),
    ("nilwalk.stats", "substream", "rng.substream", None),
    ("nilwalk.norms", "substream", "rng.substream", None),
    ("nilwalk.rng.AliasSampler", "sample", "rng.sample",
     lambda a, kw, r: _rows(a[1])),
    ("nilwalk.algebra.NilpotentAlgebra", "bracket", "algebra.bracket",
     lambda a, kw, r: _rows(a[1], a[2])),
    ("nilwalk.walker", "layer_components", "algebra.layer_components", None),
    ("nilwalk.norms", "layer_components", "algebra.layer_components", None),
    ("nilwalk.walker", "bch", "bch.bch", lambda a, kw, r: _rows(a[1], a[2])),
    ("nilwalk.semidirect", "bch", "bch.bch", lambda a, kw, r: _rows(a[1], a[2])),
    ("nilwalk.walker", "hom_norm", "norms.hom_norm",
     lambda a, kw, r: [_rows(a[1]), _facets(a[0])]),
    ("nilwalk.norms", "hom_norm", "norms.hom_norm",
     lambda a, kw, r: [_rows(a[1]), _facets(a[0])]),
    ("nilwalk.presets", "build_gauge", "norms.build_gauge", _facets_by_weight),
    ("nilwalk.norms", "bilinearity_constant", "norms.bilinearity_constant", None),
    ("nilwalk.splitting", "_scan_chunk", "splitting.chunk", None),
    ("nilwalk.splitting", "fix_set", "splitting.fix_set", None),
    ("nilwalk.splitting", "delta", "splitting.delta", None),
    ("nilwalk.splitting", "big_delta", "splitting.big_delta", None),
]


def _resolve(path: str):
    """The object at a dotted path under the imported nilwalk package."""
    return functools.reduce(getattr, path.split(".")[1:], sys.modules["nilwalk"])


def install(tracer: Tracer, hooks, required: bool) -> None:
    """Wrap every hooked name; a missing optional hook is reported, not fatal."""
    wrapped: dict[int, object] = {}
    for owner_path, attr, name, work in hooks:
        owner = _resolve(owner_path)
        fn = getattr(owner, attr, None)
        if fn is None:
            if required:
                raise AttributeError(f"{owner_path}.{attr} is gone")
            print(f"shim: no {owner_path}.{attr}; span {name} not recorded",
                  file=sys.stderr)
            continue
        key = id(fn)
        if key not in wrapped:
            wrapped[key] = tracer.wrap(name, fn, work)
        setattr(owner, attr, wrapped[key])


def main(argv: list[str]) -> int:
    out_path, trace = argv[0], argv[1] == "1"
    cli_args = argv[argv.index("--") + 1:]
    tracer = Tracer()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    idx = tracer.open("cli.import")
    import nilwalk.cli
    tracer.close(idx)
    install(tracer, PHASE_HOOKS, required=True)
    if trace:
        install(tracer, LAYER_HOOKS, required=False)
    code = 1
    try:
        code = nilwalk.cli.main(cli_args)
    finally:
        import numpy
        import scipy
        from nilwalk.walker import thread_cap
        env = {"python": sys.version.split()[0], "numpy": numpy.__version__,
               "scipy": scipy.__version__, "nproc": os.cpu_count(),
               "threads": thread_cap()}
        with open(out_path, "w") as fh:
            json.dump({"env": env, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
