"""Level-truncated oscillator algebras and their (anti)commutation sweeps.

The truncated space is spanned by monomials in even creator variables (one
per lattice index and positive integer level, separately for left and right
movers) and odd creator variables (half-odd levels), with total level at
most a cap.  Annihilators act by the metric-contracted derivative rule, so
the canonical (anti)commutation relations hold exactly on every subspace
whose level keeps both operator orders inside the truncation; the verifiers
report "inconclusive" outside that guarded subspace rather than pretending.
Operator columns hold integers: annihilator entries are scaled by the lcm D
of the denominators of G^-1, and each bracket is compared with its expected
value scaled the same way.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import cached_property

from ._record import Record
from .errors import TruncationError, ValidationError
from .exactlinear import QZERO, RatMatrix, cleared

HALF = Fraction(1, 2)

EVEN_FAMILIES = ("a", "abar")
ODD_FAMILIES = ("th", "thbar")

# a generator is (family, level, index); monomials sort these tuples


def _sorted_vars(families, twice_levels, n):
    """Creator variables in tuple order, and the twice-level of each as an int."""
    keyed = sorted(((fam, Fraction(t, 2), i), t)
                   for fam in families for t in twice_levels for i in range(n))
    return [var for var, _ in keyed], [t for _, t in keyed]


class TruncatedFock(Record):
    """Deterministic monomial basis of the truncated oscillator space.

    Levels are counted in halves, as ints: a monomial fits when twice its
    level is at most ``floor(2 cap)``.  Besides its variable tuples, each
    basis monomial is kept as its key: the tuples of the ranks of its even
    and of its odd variables, each family of variables taken in sorted
    order.  The oscillator columns are built on these keys.
    """

    d: int
    level_cap: Fraction
    G: RatMatrix

    def __post_init__(self):
        n = 2 * self.d
        if self.G.rows != n or self.G.cols != n:
            raise ValidationError("metric must be 2d x 2d")
        if not self.G.is_symmetric() or not self.G.is_positive_definite():
            raise ValidationError("metric must be symmetric positive definite")
        cap = Fraction(self.level_cap)
        object.__setattr__(self, "level_cap", cap)
        cap2 = math.floor(2 * cap)
        even_vars, even_twice = _sorted_vars(EVEN_FAMILIES, range(2, cap2 + 1, 2), n)
        odd_vars, odd_twice = _sorted_vars(ODD_FAMILIES, range(1, cap2 + 1, 2), n)
        found = []

        def extend_odd(pos, even, odd, twice):
            found.append((twice, even, odd))
            for r in range(pos, len(odd_vars)):
                if twice + odd_twice[r] <= cap2:
                    extend_odd(r + 1, even, odd + (r,), twice + odd_twice[r])

        def extend_even(pos, even, twice):
            extend_odd(0, even, (), twice)
            for r in range(pos, len(even_vars)):
                if twice + even_twice[r] <= cap2:
                    extend_even(r, even + (r,), twice + even_twice[r])  # repetition allowed

        extend_even(0, (), 0)
        # ranks order like the variable tuples, so this is the (level, monomial) order
        found.sort()
        keys = tuple((even, odd) for _, even, odd in found)
        basis = tuple((tuple(even_vars[r] for r in even), tuple(odd_vars[r] for r in odd))
                      for even, odd in keys)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "_levels", tuple(twice for twice, _, _ in found))
        object.__setattr__(self, "_cap2", cap2)
        object.__setattr__(self, "_keys", keys)
        object.__setattr__(self, "_key_index", {k: i for i, k in enumerate(keys)})
        object.__setattr__(self, "_var_rank", {v: r for family in (even_vars, odd_vars)
                                               for r, v in enumerate(family)})
        object.__setattr__(self, "_op_cache", {})

    @property
    def rank(self) -> int:
        return 2 * self.d

    @cached_property
    def ginv(self) -> RatMatrix:
        return self.G.inverse()

    @cached_property
    def _scaled_ginv(self):
        """``(D, D G^-1)``: D is the lcm of the denominators of G^-1, the rows are ints."""
        return cleared(self.ginv)


_KIND_FAMILY = {"alpha": "a", "alphabar": "abar", "psi": "th", "psibar": "thbar"}


class OscillatorOp(Record):
    """Exact sparse matrix of one oscillator on the truncated basis.

    Columns are computed on demand (the verifiers only ever touch low-level
    columns) as ``(row_index, a)`` pairs with integer ``a``; the matrix
    entry is ``a / scale``.  Creators have scale 1, annihilators the lcm D
    of the denominators of G^-1.  Creator images that exceed the level cap
    are silently dropped (the corestriction to the truncated space), which
    is why verifications guard their subspaces.  The column function and the
    columns computed so far are not compared.
    """

    space: TruncatedFock
    kind: str
    index: int
    mode: Fraction
    scale: int
    _column_fn: object

    def __post_init__(self):
        object.__setattr__(self, "_cols", {})

    def int_column(self, col: int):
        got = self._cols.get(col)
        if got is None:
            got = self._cols[col] = self._column_fn(col)
        return got


def build_oscillator(space: TruncatedFock, kind: str, i: int, s) -> OscillatorOp:
    """The oscillator with the given flavor, lattice index, and mode.

    Negative modes are creators (multiplication), positive modes act by the
    metric-contracted derivative; bosonic modes must be integers and
    fermionic modes half-odd.  Modes beyond the cap cannot act at all.
    """
    if kind not in _KIND_FAMILY:
        raise ValueError(f"unknown oscillator kind {kind!r}")
    s = Fraction(s)
    if s == 0:
        raise ValueError("zero modes are not oscillators")
    n = space.rank
    if not 0 <= i < n:
        raise ValueError(f"index must lie in 0..{n - 1}")
    bosonic = kind in ("alpha", "alphabar")
    if bosonic and s.denominator != 1:
        raise ValidationError("bosonic modes are integers")
    if not bosonic and (s.denominator != 2):
        raise ValidationError("fermionic modes are half-odd integers")
    if abs(s) > space.level_cap:
        raise TruncationError(f"mode {s} exceeds the level cap {space.level_cap}")
    cache_key = (kind, i, s)
    cache = space._op_cache
    if cache_key in cache:
        return cache[cache_key]
    keys, key_index = space._keys, space._key_index
    # the variables (family, |s|, j) for j = 0..n-1 hold consecutive ranks
    first = space._var_rank[(_KIND_FAMILY[kind], abs(s), 0)]
    if s < 0:
        scale = 1
        r = first + i
        levels, room = space._levels, space._cap2 - int(-2 * s)
        if bosonic:
            def column_fn(col):
                if levels[col] > room:
                    return ()
                even, odd = keys[col]
                pos = bisect_right(even, r)
                return ((key_index[(even[:pos] + (r,) + even[pos:], odd)], 1),)
        else:
            def column_fn(col):
                if levels[col] > room:
                    return ()
                even, odd = keys[col]
                pos = bisect_left(odd, r)
                if odd[pos:pos + 1] == (r,):  # an odd variable squares to zero
                    return ()
                # moving the new variable past pos odd ones gives (-1)^pos
                return ((key_index[(even, odd[:pos] + (r,) + odd[pos:])], -1 if pos % 2 else 1),)
    else:
        scale, scaled = space._scaled_ginv
        if bosonic:
            coeffs = tuple(int(s) * c for c in scaled[i])  # D s G^-1_ij

            def column_fn(col):
                even, odd = keys[col]
                entries = []
                for t, r in enumerate(even):
                    j = r - first
                    if 0 <= j < n and coeffs[j] and (t == 0 or even[t - 1] != r):
                        mult = even.count(r)
                        entries.append((key_index[(even[:t] + even[t + 1:], odd)],
                                        coeffs[j] * mult))
                return tuple(entries)
        else:
            coeffs = scaled[i]  # D G^-1_ij

            def column_fn(col):
                even, odd = keys[col]
                entries = []
                for t, r in enumerate(odd):
                    j = r - first
                    if 0 <= j < n and coeffs[j]:
                        c = -coeffs[j] if t % 2 else coeffs[j]
                        entries.append((key_index[(even, odd[:t] + odd[t + 1:])], c))
                return tuple(entries)

    op = OscillatorOp(space=space, kind=kind, index=i, mode=s, scale=scale,
                      _column_fn=column_fn)
    cache[cache_key] = op
    return op


# ---------------------------------------------------------------------------
# algebra verification
# ---------------------------------------------------------------------------


class CheckOutcome(Record):
    status: str  # "pass", "fail", or "inconclusive"
    tested_dimension: int
    expected: Fraction


def _bracket_is(op1, op2, sign, testable, expected):
    """Whether ``op1 op2 + sign op2 op1`` is ``expected`` times the identity.

    Only the testable columns are checked.  Both products have integer entries at scale ``op1.scale * op2.scale``,
    so they are compared with ``expected`` at that scale: multiplying by a
    nonzero integer is injective on Q, and a target that is not an integer
    cannot be met.
    """
    target = expected * op1.scale * op2.scale
    if target.denominator != 1:
        return False
    target = target.numerator
    for col in testable:
        acc = {}
        for mid, c1 in op2.int_column(col):       # op1 after op2
            for row, c2 in op1.int_column(mid):
                acc[row] = acc.get(row, 0) + c1 * c2
        for mid, c1 in op1.int_column(col):       # sign * op2 after op1
            for row, c2 in op2.int_column(mid):
                acc[row] = acc.get(row, 0) + sign * c1 * c2
        if acc.pop(col, 0) != target or any(acc.values()):
            return False
    return True


def _verify_pairs(space, i, j, s, p, flavors, sign, expected_same_flavor):
    # basis is level-sorted, so the guarded subspace is a prefix
    room = space._cap2 - int(2 * abs(s)) - int(2 * abs(p))
    testable = range(bisect_right(space._levels, room))
    if not testable:
        return CheckOutcome("inconclusive", 0, expected_same_flavor)
    left, right = flavors
    checks = (
        (left, left, expected_same_flavor),
        (right, right, expected_same_flavor),
        (left, right, QZERO),
    )
    for kind1, kind2, expected in checks:
        op1 = build_oscillator(space, kind1, i, s)
        op2 = build_oscillator(space, kind2, j, p)
        if not _bracket_is(op1, op2, sign, testable, expected):
            return CheckOutcome("fail", len(testable), expected_same_flavor)
    return CheckOutcome("pass", len(testable), expected_same_flavor)


def verify_ccr(space: TruncatedFock, i: int, j: int, s, p) -> CheckOutcome:
    """Commutators of the bosonic oscillators on the guarded subspace.

    Checks ``[alpha^i_s, alpha^j_p]`` and its right-moving twin against
    ``s (G^-1)^{ij} delta_{s,-p}``, and the mixed commutator against zero.
    """
    s = Fraction(s)
    p = Fraction(p)
    expected = s * space.ginv.entries[i][j] if s == -p else QZERO
    return _verify_pairs(space, i, j, s, p, ("alpha", "alphabar"), -1, expected)


def verify_car(space: TruncatedFock, i: int, j: int, s, p) -> CheckOutcome:
    """Anticommutators of the fermionic oscillators on the guarded subspace."""
    s = Fraction(s)
    p = Fraction(p)
    expected = space.ginv.entries[i][j] if s == -p else QZERO
    return _verify_pairs(space, i, j, s, p, ("psi", "psibar"), +1, expected)


def ccr_car_sweep(space: TruncatedFock):
    """All index/mode pairs testable at the cap; rows for reports and the CLI."""
    cap = space.level_cap
    n = space.rank
    rows = []
    boson_modes = [Fraction(s) for a in range(1, int(cap) + 1) for s in (a, -a)]
    fermi_modes = []
    s = HALF
    while s <= cap:
        fermi_modes.extend((s, -s))
        s += 1
    for algebra, modes, verify in (("ccr", boson_modes, verify_ccr),
                                   ("car", fermi_modes, verify_car)):
        for i in range(n):
            for j in range(n):
                for s in modes:
                    for p in modes:
                        out = verify(space, i, j, s, p)
                        rows.append({
                            "algebra": algebra, "i": i, "j": j,
                            "s": str(s), "p": str(p),
                            "status": out.status,
                            "tested_dimension": out.tested_dimension,
                        })
    return rows
