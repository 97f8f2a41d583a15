"""Truncated Baker-Campbell-Hausdorff products via the Dynkin series.

log(exp x exp y) is a sum over bracket words in x and y.  We enumerate the
Dynkin terms

    sum_{n>=1} (-1)^(n-1)/n  sum  [x^r1 y^s1 ... x^rn y^sn]
                                  / ((sum_j r_j+s_j) * prod_i r_i! s_i!)

with right-nested brackets, merge coefficients exactly over the rationals,
and only then convert to floats.  On a step-s nilpotent algebra every word
of length > s vanishes, so the series truncated at degree s is exact.

Words share right-nested suffixes, so one bch call brackets each distinct
suffix once (29 brackets at degree 6, not 105) and sums in table order.

Tables are built once per degree and cached.  Degrees above TABLE_CAP are
refused: the term count grows fast and nothing in this package needs more.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import factorial

import numpy as np

from .algebra import NilpotentAlgebra

TABLE_CAP = 6

_X, _Y = 0, 1


def _compositions(total: int, parts: int):
    """Ordered tuples of `parts` positive integers summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _raw_terms(degree: int):
    """Unmerged (word, Fraction) Dynkin terms of exactly this degree."""
    for n in range(1, degree + 1):
        sign = Fraction((-1) ** (n - 1), n * degree)
        for comp in _compositions(degree, n):
            # split each block p into r x's followed by s y's, r + s = p
            for splits in product(*[range(p + 1) for p in comp]):
                word = []
                denom = 1
                for p, r in zip(comp, splits):
                    s = p - r
                    word.extend([_X] * r + [_Y] * s)
                    denom *= factorial(r) * factorial(s)
                yield tuple(word), sign / denom


def _canonical(word: tuple[int, ...], coeff: Fraction):
    """Normalize the innermost bracket; return None for vanishing words."""
    if len(word) >= 2:
        if word[-1] == word[-2]:
            return None
        if word[-2] == _Y:  # [..., y, x] -> -[..., x, y]
            word = word[:-2] + (_X, _Y)
            coeff = -coeff
    return word, coeff


@dataclass(frozen=True)
class DynkinTable:
    """Merged bracket words with float coefficients, grouped by degree."""

    terms: tuple[tuple[tuple[tuple[int, ...], float], ...], ...]  # [degree-1][...]
    abs_mass: tuple[float, ...]   # sum of |coefficients| per degree
    word_count: tuple[int, ...]   # surviving words per degree


@lru_cache(maxsize=None)
def dynkin_table(max_degree: int) -> DynkinTable:
    if not 1 <= max_degree <= TABLE_CAP:
        raise ValueError(f"BCH table degree must be in [1, {TABLE_CAP}], got {max_degree}")
    per_degree = []
    masses = []
    counts = []
    for m in range(1, max_degree + 1):
        merged: dict[tuple[int, ...], Fraction] = {}
        for word, coeff in _raw_terms(m):
            canon = _canonical(word, coeff)
            if canon is None:
                continue
            w, c = canon
            merged[w] = merged.get(w, Fraction(0)) + c
        kept = tuple(sorted(((w, float(c)) for w, c in merged.items() if c != 0),
                            key=lambda item: item[0]))
        per_degree.append(kept)
        masses.append(float(sum(abs(c) for _, c in
                                ((w, merged[w]) for w, _ in kept))))
        counts.append(len(kept))
    return DynkinTable(terms=tuple(per_degree),
                       abs_mass=tuple(masses), word_count=tuple(counts))


def bch(alg: NilpotentAlgebra, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """log(exp x exp y) on the algebra, exact for its nilpotency step.

    Works on single vectors or batches of shape (..., d).
    """
    table = dynkin_table(alg.step)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    # right-nested word -> its value: word[i:] is [word[i], word[i+1:]]
    values = {(_X,): x, (_Y,): y}
    out = np.zeros(np.broadcast_shapes(x.shape, y.shape))
    for terms in table.terms:
        for word, coeff in terms:
            for i in range(len(word) - 2, -1, -1):
                if word[i:] not in values:
                    values[word[i:]] = alg.bracket(values[word[i:i + 1]], values[word[i + 1:]])
            out = out + coeff * values[word]
    return out

