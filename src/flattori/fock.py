"""Level-truncated oscillator algebras and their (anti)commutation sweeps.

The truncated space is spanned by monomials in even creator variables (one
per lattice index and positive integer level, separately for left and right
movers) and odd creator variables (half-odd levels), with total level at
most a cap.  One rule serves both statistics: an even variable may repeat
and is removed with its multiplicity; an odd one squares to zero and takes
the sign of the odd variables before it.  Annihilators act by the
metric-contracted derivative rule, so the canonical (anti)commutation
relations hold exactly on every subspace whose level keeps both operator
orders inside the truncation; the verifiers report "inconclusive" outside
that guarded subspace rather than pretending.  Operator columns hold
integers: annihilator entries are scaled by the lcm D of the denominators of
G^-1, and each bracket is compared with its expected value scaled alike.

The ``fock-verify`` command lives at the end of the module.  It counts the
truncated space level by level before building it, and a space past
:data:`MAX_BASIS_DIMENSION` monomials is an input error.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import cached_property
from itertools import count

from . import jsonio
from ._record import Record
from .errors import SchemaError, TruncationError, ValidationError
from .exactlinear import QZERO, RatMatrix, cleared
from .torus import require_valid

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
    level is at most ``floor(2 cap)``.  The variables are ranked in tuple
    order, the even ones first, and each basis monomial is kept as its key:
    the sorted tuple of the ranks of its variables.  The oscillator columns
    are built on these keys; the variable tuples of :attr:`basis` are built
    from them only when read.  The space holds no operators.
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
        variables, twice_levels = _sorted_vars(EVEN_FAMILIES, range(2, cap2 + 1, 2), n)
        n_even = len(variables)
        odd_vars, odd_twice = _sorted_vars(ODD_FAMILIES, range(1, cap2 + 1, 2), n)
        variables += odd_vars
        twice_levels += odd_twice
        found = []

        def extend(pos, key, k, twice):
            # key holds k even ranks, then odd ones: an even variable may repeat
            found.append((twice, key[:k], key[k:]))
            for r in range(pos, len(variables)):
                if twice + twice_levels[r] <= cap2:
                    even = r < n_even
                    extend(r if even else r + 1, key + (r,), k + even, twice + twice_levels[r])

        extend(0, (), 0, 0)
        # ranks order like the variable tuples, so this is the (level, monomial) order
        found.sort()
        keys = tuple(even + odd for _, even, odd in found)
        object.__setattr__(self, "_levels", tuple(twice for twice, _, _ in found))
        object.__setattr__(self, "_cap2", cap2)
        object.__setattr__(self, "_keys", keys)
        object.__setattr__(self, "_key_index", {k: i for i, k in enumerate(keys)})
        object.__setattr__(self, "_variables", variables)
        object.__setattr__(self, "_n_even", n_even)

    @cached_property
    def basis(self):
        """Each monomial as ``(even variables, odd variables)``, variables ``(family, level, index)``."""
        variables, n_even = self._variables, self._n_even
        return tuple((tuple(variables[r] for r in key if r < n_even),
                      tuple(variables[r] for r in key if r >= n_even))
                     for key in self._keys)

    @property
    def basis_dimension(self) -> int:
        return len(self._keys)

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

    Columns are ``(row_index, a)`` pairs with integer ``a``; the matrix
    entry is ``a / scale``.  Creators have scale 1, annihilators the lcm D
    of the denominators of G^-1.  Creator images that exceed the level cap
    are silently dropped (the corestriction to the truncated space), which
    is why verifications guard their subspaces.  The columns whose level
    leaves room for the mode, a prefix of the basis and the only ones a
    guarded bracket reads, are computed when the operator is built and live
    as long as it; any other column is computed when asked for.  Neither is
    compared.
    """

    space: TruncatedFock
    kind: str
    index: int
    mode: Fraction
    scale: int
    _cols: tuple
    _column_fn: object

    def int_column(self, col: int):
        cols = self._cols
        return cols[col] if col < len(cols) else self._column_fn(col)


def build_oscillator(space: TruncatedFock, kind: str, i: int, s) -> OscillatorOp:
    """The oscillator with the given flavor, lattice index, and mode.

    Negative modes are creators (multiplication), positive modes act by the
    metric-contracted derivative; bosonic modes must be integers and
    fermionic modes half-odd.  Modes beyond the cap cannot act at all.  An
    even variable may repeat and is removed with its multiplicity; an odd
    one squares to zero and takes the sign of the odd variables before it.
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
    if s.denominator != (1 if bosonic else 2):
        raise ValidationError("bosonic modes are integers" if bosonic
                              else "fermionic modes are half-odd integers")
    if abs(s) > space.level_cap:
        raise TruncationError(f"mode {s} exceeds the level cap {space.level_cap}")
    keys, key_index, levels, n_even = space._keys, space._key_index, space._levels, space._n_even
    room = space._cap2 - int(2 * abs(s))
    # the variables (family, |s|, j) for j = 0..n-1 hold consecutive ranks
    first = space._variables.index((_KIND_FAMILY[kind], abs(s), 0))
    if s < 0:
        scale = 1
        r = first + i

        def column_fn(col):
            if levels[col] > room:
                return ()
            key = keys[col]
            pos = bisect_left(key, r)
            if not bosonic and key[pos:pos + 1] == (r,):  # an odd variable squares to zero
                return ()
            # moving the new variable past the odd ones before it gives a sign
            sign = -1 if (pos - bisect_left(key, n_even, 0, pos)) % 2 else 1
            return ((key_index[key[:pos] + (r,) + key[pos:]], sign),)
    else:
        scale, scaled = space._scaled_ginv
        coeffs = tuple(int(s) * c for c in scaled[i]) if bosonic else scaled[i]  # D s G^-1, D G^-1

        def column_fn(col):
            key = keys[col]
            lo, hi = bisect_left(key, first), bisect_left(key, first + n)
            odd_start = bisect_left(key, n_even)
            entries = []
            for t in range(lo, hi):
                r = key[t]
                c = coeffs[r - first]
                if c and (t == lo or key[t - 1] != r):
                    # times its multiplicity and (-1)^max(t - odd_start, 0), the odd ones before it
                    c *= bisect_right(key, r, t) - t
                    if t > odd_start and (t - odd_start) % 2:
                        c = -c
                    entries.append((key_index[key[:t] + key[t + 1:]], c))
            return tuple(entries)

    # the basis is level-sorted, so the columns with room for the mode are a prefix
    cols = tuple(map(column_fn, range(bisect_right(levels, room))))
    return OscillatorOp(space=space, kind=kind, index=i, mode=s, scale=scale,
                        _cols=cols, _column_fn=column_fn)


# ---------------------------------------------------------------------------
# algebra verification
# ---------------------------------------------------------------------------


class CheckOutcome(Record):
    status: str  # "pass", "fail", or "inconclusive"
    tested_dimension: int
    expected: Fraction


def _bracket_is(op1, op2, sign, testable, expected):
    """Whether ``op1 op2 + sign op2 op1`` is ``expected`` times the identity.

    Only the testable columns are checked; their level leaves room for both
    modes, so every column read lies in each operator's computed prefix.
    Both products have integer entries at scale ``op1.scale * op2.scale``,
    so they are compared with ``expected`` at that scale: multiplying by a
    nonzero integer is injective on Q, and a target that is not an integer
    cannot be met.
    """
    target = expected * op1.scale * op2.scale
    if target.denominator != 1:
        return False
    target = target.numerator
    cols1, cols2 = op1._cols, op2._cols
    for col in testable:
        acc = {}
        for mid, c1 in cols2[col]:       # op1 after op2
            for row, c2 in cols1[mid]:
                acc[row] = acc.get(row, 0) + c1 * c2
        for mid, c1 in cols1[col]:       # sign * op2 after op1
            for row, c2 in cols2[mid]:
                acc[row] = acc.get(row, 0) + sign * c1 * c2
        if acc.pop(col, 0) != target or any(acc.values()):
            return False
    return True


def _verify_pairs(space, i, j, s, p, flavors, sign, expected_same_flavor, ops=None):
    """The three brackets of one index/mode pair; ``ops`` keeps the operators
    built, by ``(kind, index, mode)``, for the calls that share it."""
    # basis is level-sorted, so the guarded subspace is a prefix
    room = space._cap2 - int(2 * abs(s)) - int(2 * abs(p))
    testable = range(bisect_right(space._levels, room))
    if not testable:
        return CheckOutcome("inconclusive", 0, expected_same_flavor)
    if ops is None:
        ops = {}

    def oscillator(kind, index, mode):
        op = ops.get((kind, index, mode))
        if op is None:
            op = ops[kind, index, mode] = build_oscillator(space, kind, index, mode)
        return op

    left, right = flavors
    checks = (
        (left, left, expected_same_flavor),
        (right, right, expected_same_flavor),
        (left, right, QZERO),
    )
    for kind1, kind2, expected in checks:
        if not _bracket_is(oscillator(kind1, i, s), oscillator(kind2, j, p), sign, testable,
                           expected):
            return CheckOutcome("fail", len(testable), expected_same_flavor)
    return CheckOutcome("pass", len(testable), expected_same_flavor)


def verify_ccr(space: TruncatedFock, i: int, j: int, s, p, ops=None) -> CheckOutcome:
    """Commutators of the bosonic oscillators on the guarded subspace.

    Checks ``[alpha^i_s, alpha^j_p]`` and its right-moving twin against
    ``s (G^-1)^{ij} delta_{s,-p}``, and the mixed commutator against zero.
    Calls that pass one dict as ``ops`` share the operators they build.
    """
    s = Fraction(s)
    p = Fraction(p)
    expected = s * space.ginv.entries[i][j] if s == -p else QZERO
    return _verify_pairs(space, i, j, s, p, ("alpha", "alphabar"), -1, expected, ops)


def verify_car(space: TruncatedFock, i: int, j: int, s, p, ops=None) -> CheckOutcome:
    """Anticommutators of the fermionic oscillators on the guarded subspace."""
    s = Fraction(s)
    p = Fraction(p)
    expected = space.ginv.entries[i][j] if s == -p else QZERO
    return _verify_pairs(space, i, j, s, p, ("psi", "psibar"), +1, expected, ops)


def ccr_car_sweep(space: TruncatedFock):
    """All index/mode pairs testable at the cap; rows for reports and the CLI.

    Each algebra's pass owns the operators it builds, with their column
    caches: the CCR operators are released before the CAR pass starts, and
    the space keeps none of them.
    """
    n = space.rank
    rows = []
    for algebra, start, verify in (("ccr", 2, verify_ccr), ("car", 1, verify_car)):
        # modes 1, -1, 2, -2, ... for the CCR and 1/2, -1/2, 3/2, ... for the CAR
        modes = [Fraction(e * t, 2) for t in range(start, space._cap2 + 1, 2) for e in (1, -1)]
        ops = {}
        for i in range(n):
            for j in range(n):
                for s in modes:
                    for p in modes:
                        out = verify(space, i, j, s, p, ops)
                        rows.append({
                            "algebra": algebra, "i": i, "j": j,
                            "s": str(s), "p": str(p),
                            "status": out.status,
                            "tested_dimension": out.tested_dimension,
                        })
    return rows


# ---------------------------------------------------------------------------
# the fock-verify command
# ---------------------------------------------------------------------------

# fock-verify spends 28-40 us per basis monomial as a fresh process (d = 1 to
# 6, CPython 3.11.7 on a 2-core VM), so the largest space the limit admits,
# d = 3 at cap 4 (236,886 monomials), takes about 9 s; at d = 1 the first cap
# past it is 9 (350,974 monomials).
MAX_BASIS_DIMENSION = 250_000


def _level_counts(n):
    """The number of basis monomials at twice-level 0, 1, 2, ..., without end.

    Each twice-level t holds 2n creator variables, even for even t and odd
    for odd t, so the counts are the coefficients c_k of the product of
    ``(1 - x^t)^(-2n)`` over even t and ``(1 + x^t)^(2n)`` over odd t.  Its
    logarithmic derivative gives ``k c_k = sum_j s_j c_(k-j)``, where s_j
    sums 2n t over the divisors t of j, negated for an odd t with j / t even.
    """
    counts, sums = [1], [0]
    yield 1
    for k in count(1):
        sums.append(2 * n * sum(t if t % 2 == 0 or (k // t) % 2 else -t
                                for t in range(1, k + 1) if k % t == 0))
        counts.append(sum(sums[j] * counts[k - j] for j in range(1, k + 1)) // k)
        yield counts[k]


def cmd_fock_verify(args):
    """``fock-verify``: every testable bracket of the truncated space."""
    inputs = {}
    if args.torus:
        if args.d is not None:
            raise SchemaError("give --d or --torus, not both", "--d")
        t = jsonio.load_torus(args.torus)
        require_valid(t)
        inputs["torus"] = jsonio.torus_to_json(t)
        d = t.d
    else:
        d = args.d
        if d is None:
            raise SchemaError("need --d or --torus", "--d")
        if d < 1:
            raise SchemaError(f"d must be at least 1, got {d}")
    try:
        cap = Fraction(args.cap)
    except (ValueError, ZeroDivisionError):
        raise SchemaError(f"cap must be a rational number, got {args.cap!r}", "--cap")
    if cap < HALF:
        # the text as given: a Fraction past the int-to-string digit limit cannot be printed
        raise SchemaError(f"cap must be at least 1/2, got {args.cap}", "--cap")
    size = 0
    for twice, level_size in zip(range(math.floor(2 * cap) + 1), _level_counts(2 * d)):
        size += level_size
        if size > MAX_BASIS_DIMENSION:
            raise SchemaError(f"cap {args.cap} spans more than {MAX_BASIS_DIMENSION} basis "
                              f"monomials at d = {d}: {size} up to level {Fraction(twice, 2)}",
                              "--cap")
    space = TruncatedFock(d, cap, t.G if args.torus else RatMatrix.identity(2 * d))
    rows = ccr_car_sweep(space)
    fails = sum(1 for r in rows if r["status"] == "fail")
    passes = sum(1 for r in rows if r["status"] == "pass")
    inconclusive = sum(1 for r in rows if r["status"] == "inconclusive")
    result = {"d": d, "cap": str(cap), "basis_dimension": space.basis_dimension,
              "pass": passes, "fail": fails, "inconclusive": inconclusive,
              "checks": rows}
    inputs.update(d=d, cap=str(cap))
    return inputs, result, 0 if fails == 0 else 1
