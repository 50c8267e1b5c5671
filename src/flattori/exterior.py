"""The exterior algebra over Q, exactly.

Exterior-algebra elements store Fraction coefficients on strictly
increasing index tuples; the functor :func:`induced_map` gives rational
matrices.  A Q(i)-valued form, such as the holomorphic volume, is carried
by its callers as a ``(re, im)`` pair of elements.  Only the class layer
and an accepted brane's reports load this module; ``hodge``, ``lefschetz``
and ``beta`` read int-row operators on the same basis
(:mod:`flattori.hodge`).  :func:`class_from_json` reads the class files of
``fm`` and ``check-mirror-class``.

Conventions fixed here and relied on everywhere else:

* exterior basis monomials are indexed by strictly increasing tuples of
  0-based generator indices, ordered lexicographically;
* ``interior(e_i^e_j, e_i^e_j) == +1`` for ``i < j`` (contract ``e_i``
  first, then ``e_j``, each as a left derivation of degree -1).
"""

from __future__ import annotations

from itertools import combinations

from ._rational import QONE, QZERO, rat
from .errors import DimensionError, GradeError, SchemaError
from .exactlinear import RatMatrix
from .jsonio import is_json_int, rat_from_json


class ExtElement:
    """Element of the exterior algebra on a based vector space.

    ``terms`` maps strictly increasing tuples of generator indices to
    nonzero Fraction coefficients; the empty tuple indexes the scalar part.
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


def _contract(j, terms: dict) -> dict:
    """Left contraction of ``terms`` with the dual of ``e_j``: sign (-1)^(position of j)."""
    out = {}
    for idx, c in terms.items():
        if j in idx:
            pos = idx.index(j)
            out[idx[:pos] + idx[pos + 1:]] = -c if pos % 2 else c
    return out


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
        for idx, c in _contract(j, _contract(i, a.terms)).items():
            terms[idx] = terms.get(idx, QZERO) + cb * c
    return ExtElement(a.base_rank, terms)


def induced_map(m: RatMatrix, grade: int) -> RatMatrix:
    """Matrix of the functorial action of ``m`` on the grade component.

    Basis of the grade component: strictly increasing index tuples in
    lexicographic order.  Column ``S`` is :func:`apply_linear` of ``e_S``, so
    entry ``[T, S]`` is the ``T x S`` minor of ``m``.
    """
    if not m.is_square():
        raise DimensionError("induced_map requires a square matrix")
    n = m.rows
    if grade < 0 or grade > n:
        raise GradeError(f"grade {grade} out of range for rank {n}")
    basis = list(combinations(range(n), grade))
    cols = [apply_linear(ExtElement(n, {s: QONE}), m) for s in basis]
    return RatMatrix([[col.coefficient(t) for col in cols] for t in basis])


def apply_linear(element: ExtElement, m: RatMatrix) -> ExtElement:
    """Push an element through the algebra map sending ``e_i`` to column i of ``m``.

    ``m`` may be rectangular; the result lives on a base of rank
    ``m.rows``.  Used for basis changes and for restricting forms to
    subspaces.  The image of a monomial is that of its longest prefix
    already seen, wedged with the images of the remaining factors, and every
    prefix's image is kept: one wedge per distinct prefix.
    """
    if m.cols != element.base_rank:
        raise DimensionError("matrix column count must equal the element's base rank")
    out_rank = m.rows
    images = [
        ExtElement(out_rank, {(i,): m.entries[i][j] for i in range(out_rank) if m.entries[i][j]})
        for j in range(element.base_rank)
    ]
    prefixes = {(): ExtElement.scalar(out_rank, QONE)}
    terms = {}
    for idx, c in element.terms.items():
        t = len(idx)
        while idx[:t] not in prefixes:
            t -= 1
        image = prefixes[idx[:t]]
        for t in range(t, len(idx)):
            if image:
                image = wedge(image, images[idx[t]])
            prefixes[idx[:t + 1]] = image
        for key, v in image.terms.items():
            terms[key] = terms.get(key, QZERO) + c * v
    return ExtElement(out_rank, terms)


def class_from_json(data, base_rank, pointer="class") -> ExtElement:
    """A class file's element of rank ``base_rank``; a schema violation raises
    :class:`SchemaError` naming the field under ``pointer``."""
    if not isinstance(data, dict) or "grade_terms" not in data:
        raise SchemaError("expected an object with grade_terms", pointer)
    declared = data.get("base_rank", base_rank)
    if not is_json_int(declared):
        raise SchemaError(f"base_rank must be an integer, got {declared!r}",
                          f"{pointer}.base_rank")
    if declared != base_rank:
        raise SchemaError(f"class base_rank {declared} does not match the torus rank {base_rank}",
                          f"{pointer}.base_rank")
    if not isinstance(data["grade_terms"], list):
        raise SchemaError("grade_terms must be a list", f"{pointer}.grade_terms")
    terms = {}
    for k, item in enumerate(data["grade_terms"]):
        where = f"{pointer}.grade_terms[{k}]"
        if not isinstance(item, dict) or "indices" not in item or "coeff" not in item:
            raise SchemaError("expected an object with indices and coeff", where)
        idx = item["indices"]
        if (not isinstance(idx, list) or any(not is_json_int(i) for i in idx)
                or any(idx[i] >= idx[i + 1] for i in range(len(idx) - 1))
                or (idx and (idx[0] < 0 or idx[-1] >= base_rank))):
            raise SchemaError("indices must be a strictly increasing list within range",
                              f"{where}.indices")
        coeff = rat_from_json(item["coeff"], f"{where}.coeff")
        terms[tuple(idx)] = terms.get(tuple(idx), QZERO) + coeff
    return ExtElement(base_rank, terms)
