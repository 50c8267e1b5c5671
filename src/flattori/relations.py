"""Relation certificates: the lattice maps between doubled lattices and their check.

A relation is certified by an integral unimodular map ``g`` on the doubled
lattices that preserves the split pairing q and intertwines the doubled
structures in the pattern belonging to the relation kind:

* ``iso``:        g calI_1 = calI_2 g   and   g calJ_1 = calJ_2 g
* ``mirror``:     g calI_1 = calJ_2 g   and   g calJ_1 = calI_2 g
* ``derived_eq``: g calItilde_1 = calItilde_2 g

:func:`verify_map` checks those equalities exactly, and :func:`certified`
is the one check of every certificate a search produces, where a failure is
an internal error.  The searches that find certificates live in
:mod:`flattori.isometry` (``iso`` and ``mirror``) and
:mod:`flattori.equivalence` (``derived_eq``, and ``search_relation`` for
all three), which re-exports this module's names; the mirror construction
of :mod:`flattori.tduality` reads this module alone, so ``mirror`` and
``fm`` do not compile a search.
"""

from __future__ import annotations

from ._record import Check, Record
from .errors import DimensionError, InconsistencyError, ValidationError
from .exactlinear import RatMatrix
from .torus import TorusData, doubled

# kind -> the structure equalities ``g S_1 = T_2 g`` of a certificate, in
# check order, as (check name, source structure S, target structure T).
RELATIONS = {
    "iso": (("intertwines_calI", "calI", "calI"), ("intertwines_calJ", "calJ", "calJ")),
    "mirror": (("swaps_calI_to_calJ", "calI", "calJ"), ("swaps_calJ_to_calI", "calJ", "calI")),
    "derived_eq": (("intertwines_calItilde", "calItilde", "calItilde"),),
}

KINDS = tuple(RELATIONS)


class LatticeMap(Record):
    """An integral map between doubled lattices with a declared relation kind."""

    g: RatMatrix
    source: TorusData
    target: TorusData
    kind: str

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}")
        n = 4 * self.source.d
        if self.g.rows != n or self.g.cols != n:
            raise DimensionError(f"map must be {n}x{n}")
        if self.source.d != self.target.d:
            raise DimensionError("source and target dimensions differ")
        if not self.g.is_integral():
            raise ValidationError("lattice map must have integer entries")
        if abs(self.g.det()) != 1:  # an int, from the int rows' Bareiss pivots
            raise ValidationError("lattice map is not unimodular")


class Certificate(Record):
    """Outcome of verify_map: named exact matrix equalities, all or nothing."""

    map: LatticeMap
    checks: tuple

    @property
    def valid(self) -> bool:
        return all(c.ok for c in self.checks)


def verify_map(m: LatticeMap) -> Certificate:
    """Check every defining equality of the declared kind, exactly.

    The checks run in the contract order (q-congruence first, then the
    structure intertwinings); the first failed check names the refuting equality.
    Non-unimodular maps cannot be constructed in the first place, so a
    precondition violation surfaces before any check runs.
    """
    d1 = doubled(m.source)
    d2 = doubled(m.target)
    checks = [Check("preserves_q", m.g.transpose() * d2.q * m.g == d1.q)]
    for name, src_attr, tgt_attr in RELATIONS[m.kind]:
        lhs = m.g * getattr(d1, src_attr)
        rhs = getattr(d2, tgt_attr) * m.g
        checks.append(Check(name, lhs == rhs))
    return Certificate(m, tuple(checks))


def certified(m: LatticeMap) -> Certificate:
    """The certificate of a map a search produced, checked once by
    :func:`verify_map`; a map that fails is a bug, an ``InconsistencyError``."""
    cert = verify_map(m)
    if not cert.valid:
        raise InconsistencyError("search produced a non-verifying candidate (internal error)")
    return cert
