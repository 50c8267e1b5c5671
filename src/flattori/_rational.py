"""Scalar rationals: the :class:`fractions.Fraction` the layers compute with.

A matrix of :mod:`flattori.exactlinear` is int rows over one denominator
and needs no Fraction, and neither does a file rational on its way into
one (:mod:`flattori.jsonio`).  The layers that compute with single
rationals (the exterior algebra, cohomology classes, branes and the
B-field report) import this module, and with it :mod:`fractions`, which
also loads :mod:`decimal` and :mod:`numbers`; the oscillators import
:mod:`fractions` itself for their levels and modes, and check their
brackets on ints.  The start-up core, the search, the zero-mode spectrum,
the mirror construction and the Hodge and Lefschetz ranks import neither,
so ``validate``, every refutation, ``spectrum``, ``mirror``, ``hodge`` and
``lefschetz`` run without them.  :mod:`flattori.exactlinear` imports this
module inside the methods that build a Fraction (the entries, a kernel
basis, a solution, a non-integral determinant), and does not re-export
these names.
"""

from __future__ import annotations

from fractions import Fraction

Q = Fraction

QZERO = Fraction(0)
QONE = Fraction(1)


def rat(x) -> Fraction:
    """Coerce an int, string like ``"3/4"``, or Fraction to a Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as a rational number")
