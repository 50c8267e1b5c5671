"""Gaussian-rational scalars and the exterior algebra, exactly.

:class:`GaussRational` (a pair of fractions representing ``re + im*i``) is a
scalar only: an exterior-algebra coefficient or a reported value, never a
matrix entry.  Exterior-algebra elements store their coefficients on
strictly increasing index tuples; the functors :func:`induced_map` and
:func:`derivation_map` give rational matrices.  Only the cohomology and
brane layers and :func:`flattori.jsonio.class_from_json` use this module,
so the commands that reach none of them never load it.

Conventions fixed here and relied on everywhere else:

* exterior basis monomials are indexed by strictly increasing tuples of
  0-based generator indices, ordered lexicographically;
* ``interior(e_i^e_j, e_i^e_j) == +1`` for ``i < j`` (contract ``e_i``
  first, then ``e_j``, each as a left derivation of degree -1).
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

from .errors import DimensionError, GradeError
from .exactlinear import QONE, QZERO, RatMatrix, rat, rat_str


class GaussRational:
    """A Gaussian rational ``re + im*i`` with exact field operations.

    A scalar only: exterior-algebra coefficients such as the holomorphic
    volume's, and report values.  :class:`RatMatrix` rejects it as an entry.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", rat(re))
        object.__setattr__(self, "im", rat(im))

    def __setattr__(self, *a):
        raise AttributeError("GaussRational is immutable")

    @staticmethod
    def coerce(x) -> "GaussRational":
        if isinstance(x, GaussRational):
            return x
        return GaussRational(rat(x))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = GaussRational(other)
        if not isinstance(other, GaussRational):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        # equal to its real part when im == 0, so it must hash like it
        return hash(self.re) if self.im == 0 else hash((self.re, self.im))

    def __add__(self, other):
        other = GaussRational.coerce(other)
        return GaussRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussRational(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-GaussRational.coerce(other))

    def __rsub__(self, other):
        return GaussRational.coerce(other) + (-self)

    def __mul__(self, other):
        other = GaussRational.coerce(other)
        return GaussRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = GaussRational.coerce(other)
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return self * GaussRational(other.re / n, -other.im / n)

    def __rtruediv__(self, other):
        return GaussRational.coerce(other) / self

    def __repr__(self):
        if self.im == 0:
            return rat_str(self.re)
        return f"({rat_str(self.re)}+{rat_str(self.im)}i)"


GAUSS_I = GaussRational(0, 1)


class ExtElement:
    """Element of the exterior algebra on a based vector space.

    ``terms`` maps strictly increasing tuples of generator indices to
    nonzero coefficients; the empty tuple indexes the scalar part.
    Coefficients may be Fractions or Gaussian rationals.
    """

    __slots__ = ("base_rank", "terms")

    def __init__(self, base_rank: int, terms=None):
        clean = {}
        for idx, c in (terms or {}).items():
            idx = tuple(idx)
            if any(idx[i] >= idx[i + 1] for i in range(len(idx) - 1)):
                raise ValueError(f"index tuple {idx} is not strictly increasing")
            if idx and (idx[0] < 0 or idx[-1] >= base_rank):
                raise DimensionError(f"index tuple {idx} out of range for rank {base_rank}")
            if not isinstance(c, GaussRational):
                c = rat(c)
            if c:
                clean[idx] = c
        object.__setattr__(self, "base_rank", base_rank)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):
        raise AttributeError("ExtElement is immutable")

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero(base_rank: int) -> "ExtElement":
        return ExtElement(base_rank, {})

    @staticmethod
    def scalar(base_rank: int, c) -> "ExtElement":
        return ExtElement(base_rank, {(): c})

    @staticmethod
    def generator(base_rank: int, i: int) -> "ExtElement":
        return ExtElement(base_rank, {(i,): QONE})

    @staticmethod
    def monomial(base_rank: int, indices, c=QONE) -> "ExtElement":
        return ExtElement(base_rank, {tuple(indices): c})

    @staticmethod
    def two_form(mat: RatMatrix) -> "ExtElement":
        """The 2-form sum of ``mat[i][j] e_i^e_j`` over ``i < j`` (mat skew)."""
        n = mat.rows
        return ExtElement(n, {(i, j): mat.entries[i][j] for i in range(n) for j in range(i + 1, n)})

    # -- structure -------------------------------------------------------

    def is_homogeneous(self, k: int) -> bool:
        return all(len(i) == k for i in self.terms)

    def coefficient(self, indices):
        return self.terms.get(tuple(indices), QZERO)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, ExtElement):
            return NotImplemented
        return self.base_rank == other.base_rank and self.terms == other.terms

    def __hash__(self):
        return hash((self.base_rank, tuple(sorted(self.terms.items()))))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for idx in sorted(self.terms, key=lambda t: (len(t), t)):
            c = self.terms[idx]
            mono = "^".join(f"e{i}" for i in idx) if idx else "1"
            bits.append(f"{c}*{mono}")
        return " + ".join(bits)

    # -- linear operations -------------------------------------------------

    def __add__(self, other):
        self._check_rank(other)
        terms = dict(self.terms)
        for idx, c in other.terms.items():
            terms[idx] = terms.get(idx, QZERO) + c
        return ExtElement(self.base_rank, terms)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return ExtElement(self.base_rank, {i: -c for i, c in self.terms.items()})

    def scale(self, c) -> "ExtElement":
        return ExtElement(self.base_rank, {i: c * v for i, v in self.terms.items()})

    def _check_rank(self, other):
        if not isinstance(other, ExtElement):
            raise TypeError("expected an ExtElement")
        if self.base_rank != other.base_rank:
            raise DimensionError("base ranks differ")


def merge_sign(a, b):
    """Concatenate two strictly increasing tuples; Koszul sign or None if they clash."""
    out = []
    sign = 1
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i] == b[j]:
            return None, 0
        if a[i] < b[j]:
            out.append(a[i])
            i += 1
        else:
            # b[j] jumps over the remaining len(a)-i factors of a
            if (len(a) - i) % 2:
                sign = -sign
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out), sign


def wedge(a: ExtElement, b: ExtElement) -> ExtElement:
    """Exterior product; bilinear, associative, graded-anticommutative."""
    a._check_rank(b)
    terms = {}
    for ia, ca in a.terms.items():
        for ib, cb in b.terms.items():
            idx, sign = merge_sign(ia, ib)
            if idx is None:
                continue
            c = terms.get(idx, QZERO) + (ca * cb if sign > 0 else -(ca * cb))
            if c:
                terms[idx] = c
            else:
                terms.pop(idx, None)
    return ExtElement(a.base_rank, terms)


def interior(bivector: ExtElement, a: ExtElement) -> ExtElement:
    """Contraction with a grade-2 element of the dual space.

    Convention: ``interior(e_i^e_j, .)`` contracts ``e_i`` first, then
    ``e_j``, each as a left derivation; on ``e_i^e_j`` itself this gives +1.
    Terms of ``a`` with grade below 2 contract to zero.
    """
    bivector._check_rank(a)
    if not bivector.is_homogeneous(2):
        raise GradeError("contraction bivector must be of pure grade 2")
    terms = {}
    for (i, j), cb in bivector.terms.items():
        for idx, ca in a.terms.items():
            if len(idx) < 2 or i not in idx or j not in idx:
                continue
            pos_i = idx.index(i)
            rest = idx[:pos_i] + idx[pos_i + 1:]
            sign = -1 if pos_i % 2 else 1
            pos_j = rest.index(j)
            if pos_j % 2:
                sign = -sign
            out = rest[:pos_j] + rest[pos_j + 1:]
            c = terms.get(out, QZERO) + (cb * ca if sign > 0 else -(cb * ca))
            if c:
                terms[out] = c
            else:
                terms.pop(out, None)
    return ExtElement(a.base_rank, terms)


def exp_grade2(a: ExtElement) -> ExtElement:
    """Exponential ``sum a^k / k!`` of a pure grade-2 element (finite sum)."""
    if a.terms and not a.is_homogeneous(2):
        raise GradeError("exponential argument must be of pure grade 2")
    total = ExtElement.scalar(a.base_rank, QONE)
    power = ExtElement.scalar(a.base_rank, QONE)
    k = 0
    while True:
        power = wedge(power, a)
        k += 1
        if not power:
            return total
        total = total + power.scale(Fraction(1, math.factorial(k)))


def induced_map(m: RatMatrix, grade: int) -> RatMatrix:
    """Matrix of the functorial action of ``m`` on the grade component.

    Basis of the grade component: strictly increasing index tuples in
    lexicographic order.  Entry ``[T, S]`` is the ``T x S`` minor of ``m``.
    """
    if not m.is_square():
        raise DimensionError("induced_map requires a square matrix")
    n = m.rows
    if grade < 0 or grade > n:
        raise GradeError(f"grade {grade} out of range for rank {n}")
    basis = list(combinations(range(n), grade))
    if grade == 0:
        return RatMatrix.identity(1)
    rows = []
    for t in basis:
        row = []
        for s in basis:
            row.append(RatMatrix([[m.entries[i][j] for j in s] for i in t]).det())
        rows.append(row)
    return RatMatrix(rows)


def derivation_map(m: RatMatrix, grade: int) -> RatMatrix:
    """Matrix of the degree-0 derivation extending ``m`` to the grade component.

    Sends ``e_S`` to ``sum_t e_{s_1}^..^(m e_{s_t})^..^e_{s_k}``; this is the
    infinitesimal (Lie-algebra) counterpart of :func:`induced_map`.
    """
    if not m.is_square():
        raise DimensionError("derivation_map requires a square matrix")
    n = m.rows
    basis = list(combinations(range(n), grade))
    pos = {s: a for a, s in enumerate(basis)}
    cols = []
    for s in basis:
        col = {}
        for t, gen in enumerate(s):
            for i in range(n):
                c = m.entries[i][gen]
                if not c:
                    continue
                if i in s and i != gen:
                    continue
                replaced = s[:t] + (i,) + s[t + 1:]
                srt = tuple(sorted(replaced))
                inv = sum(1 for x in replaced[:t] if x > i) + sum(1 for x in replaced[t + 1:] if x < i)
                key = pos[srt]
                col[key] = col.get(key, QZERO) + (c if inv % 2 == 0 else -c)
        cols.append(col)
    dim = len(basis)
    return RatMatrix([[cols[j].get(i, QZERO) for j in range(dim)] for i in range(dim)])


def apply_linear(element: ExtElement, m: RatMatrix) -> ExtElement:
    """Push an element through the algebra map sending ``e_i`` to column i of ``m``.

    ``m`` may be rectangular; the result lives on a base of rank
    ``m.rows``.  Used for basis changes and for restricting forms to
    subspaces.
    """
    if m.cols != element.base_rank:
        raise DimensionError("matrix column count must equal the element's base rank")
    out_rank = m.rows
    images = [
        ExtElement(out_rank, {(i,): m.entries[i][j] for i in range(out_rank) if m.entries[i][j]})
        for j in range(element.base_rank)
    ]
    one = QONE
    total = ExtElement.zero(out_rank)
    for idx, c in element.terms.items():
        term = ExtElement.scalar(out_rank, one)
        for g in idx:
            term = wedge(term, images[g])
            if not term:
                break
        total = total + term.scale(c)
    return total
