"""Call a library entry point with the CLI's value for each setting a test leaves out.

Library entry points take every setting as a required argument; the
defaults live in CONFIG_SCHEMA alone, read here through nilwalk.cli.DEFAULTS,
so a test that does not care about a setting runs what the CLI runs.
"""

import inspect

from nilwalk.cli import DEFAULTS

# library argument -> its value in a run that does not set it: the CONFIG_SCHEMA
# default, or None for a walk preset's own law and flip probability
OMITTED = {
    "law": None,
    "eps": None,
    "seed": DEFAULTS["seed"],
    "gauge_mode": DEFAULTS["gauge"],
    "filtration_choice": DEFAULTS["filtration"],
    "conjugate": DEFAULTS["conjugate"],
    "cross_check": DEFAULTS["cross_check"],
    "n_bootstrap": DEFAULTS["bootstrap"],
}


def with_defaults(fn, *args, **given):
    """fn(*args, **given), with each argument of OMITTED that neither names at its CLI value."""
    signature = inspect.signature(fn)
    bound = signature.bind_partial(*args, **given)
    for name in signature.parameters:
        if name in OMITTED and name not in bound.arguments:
            bound.arguments[name] = OMITTED[name]
    return fn(*bound.args, **bound.kwargs)
