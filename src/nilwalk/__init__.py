"""Random walks on nilpotent Lie groups with finite isometric twists.

The package is organized around a handful of small, composable pieces:

- :mod:`nilwalk.algebra` -- structure tensors, filtrations, validation
- :mod:`nilwalk.bch` -- exact Baker-Campbell-Hausdorff products up to step 6
- :mod:`nilwalk.norms` -- homogeneous gauges adapted to a filtration
- :mod:`nilwalk.groups` -- finite orthogonal matrix groups and Cayley tables
- :mod:`nilwalk.semidirect` -- step distributions twisted by a finite group
- :mod:`nilwalk.rng` -- counter-based Philox substreams and alias sampling
- :mod:`nilwalk.walker` -- deterministic single-threaded Monte Carlo driver
- :mod:`nilwalk.stats` -- concentration exponents, tail fits, growth checks
- :mod:`nilwalk.splitting` -- affine isometry splittings and defect scans
- :mod:`nilwalk.presets` -- named algebras, walk laws and scan groups
- :mod:`nilwalk.manifest` -- deterministic CSV and manifest artifacts
- :mod:`nilwalk.errors` -- the exceptions behind the exit codes
- :mod:`nilwalk.cli` -- the ``nilwalk`` command line front end

Each name lives in its module only: the package root re-exports nothing,
so loading one module loads only what that module needs.
"""

__version__ = "0.1.0"
