"""Level-truncated oscillator algebras and their (anti)commutation sweeps.

The truncated space is spanned by monomials in even creator variables (one
per lattice index and positive integer level, separately for left and right
movers) and odd creator variables (half-odd levels), with total level at
most a cap.  One rule serves both statistics: an even variable may repeat
and is removed with its multiplicity; an odd one squares to zero and takes
the sign of the odd variables before it.  Annihilators act by the
metric-contracted derivative rule, so the canonical (anti)commutation
relations hold exactly on every subspace whose level keeps both operator
orders inside the truncation; the sweep reports "inconclusive" outside
that guarded subspace rather than pretending.  Operator columns hold
integers: annihilator entries are scaled by the lcm D of the denominators of
G^-1, and an operator holds only the columns of that guarded prefix.

Each algebra's pass over the space removes every variable of its parity
from every monomial once; its creators share those columns, its
annihilators scatter theirs from them, and every operator owns the pass it
was built from, so the operators alive at once share one.  The sweep keeps
each mode as twice its value, an int, and decides each row with one integer
check: a nonzero expected bracket pairs a creator with an annihilator, so
at scale D its target is the integer ``s (D G^-1)^{ij}`` (CCR) or
``(D G^-1)^{ij}`` (CAR).  A same-flavour bracket is computed once for an
index/mode pair and its swap, which reads it times the bracket's sign.

The ``fock-verify`` command lives at the end of the module.  It counts the
truncated space level by level, and its check rows, before building it: a
space past :data:`MAX_BASIS_DIMENSION` monomials, or a report past
:data:`MAX_CHECK_ROWS` rows, is an input error.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import cached_property
from itertools import count
from weakref import WeakValueDictionary

from . import jsonio
from ._record import Record
from .errors import SchemaError, TruncationError, ValidationError
from .exactlinear import RatMatrix, ratio_str
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


def _monomials(ranks, twice_levels, cap2, repeat):
    """The ascending tuples of ``ranks`` within twice-level ``cap2``, in tuple
    order, each with its twice-level; a rank may repeat only if ``repeat``."""
    # fits[b]: the ranks whose twice-level is at most b, ascending
    fits = [[r for r in ranks if twice_levels[r] <= b] for b in range(cap2 + 1)]
    found = []

    def extend(key, pos, twice):
        found.append((key, twice))
        fit = fits[cap2 - twice]
        for r in fit[bisect_left(fit, pos):]:
            extend(key + (r,), r if repeat else r + 1, twice + twice_levels[r])

    extend((), ranks.start, 0)
    return found


class TruncatedFock(Record):
    """Deterministic monomial basis of the truncated oscillator space.

    Levels are counted in halves, as ints: a monomial fits when twice its
    level is at most ``floor(2 cap)``.  The variables are ranked in tuple
    order, the even ones first, and each basis monomial is kept as its key:
    the sorted tuple of the ranks of its variables, its even part (a
    multiset of even ranks) then its odd part (a set of odd ranks).  The
    basis is ordered by level, then even part, then odd part, so a monomial's
    index follows from its level and its two parts; the removal passes the
    oscillators are built from place their monomials that way.  The variable
    tuples of :attr:`basis` are built only when read.  The space holds no
    operators, and its removal passes only while an operator does.
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
        evens = _monomials(range(n_even), twice_levels, cap2, True)
        odds = _monomials(range(n_even, len(variables)), twice_levels, cap2, False)
        # odd_at[t]: the odd parts of twice-level t; odd_pos[o]: the place of o there
        odd_at = [[] for _ in range(cap2 + 1)]
        odd_pos = []
        for o, (_, twice) in enumerate(odds):
            odd_pos.append(len(odd_at[twice]))
            odd_at[twice].append(o)
        object.__setattr__(self, "_cap2", cap2)
        object.__setattr__(self, "_evens", evens)
        object.__setattr__(self, "_odds", odds)
        object.__setattr__(self, "_odd_at", odd_at)
        object.__setattr__(self, "_odd_pos", odd_pos)
        # first[e][level]: the index of the first monomial of that level with even part e
        first = [[None] * (cap2 + 1) for _ in evens]
        keys, levels = [], []
        for level, e, block in self._walk():
            first[e][level] = len(keys)
            even = evens[e][0]
            keys += [even + odds[o][0] for o in block]
            levels += [level] * len(block)
        object.__setattr__(self, "_first", first)
        object.__setattr__(self, "_keys", tuple(keys))
        object.__setattr__(self, "_levels", tuple(levels))
        object.__setattr__(self, "_variables", variables)
        object.__setattr__(self, "_twice_levels", twice_levels)
        object.__setattr__(self, "_n_even", n_even)
        object.__setattr__(self, "_removal_passes", WeakValueDictionary())

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

    def _walk(self):
        """The basis in order, in blocks: ``(level, even part, odd parts)``, the
        monomials of that level with that even part, in order of odd part."""
        evens, odd_at = self._evens, self._odd_at
        for level in range(self._cap2 + 1):
            for e, (_, twice) in enumerate(evens):
                if twice <= level:
                    yield level, e, odd_at[level - twice]

    @property
    def rank(self) -> int:
        return 2 * self.d

    @cached_property
    def ginv(self) -> RatMatrix:
        return self.G.inverse()

    def _removals(self, odd):
        """The removal pass of one parity, shared by the operators built on it.

        Each operator holds the pass it scattered from; the space holds it
        only weakly, so it is released with the last such operator.
        """
        removals = self._removal_passes.get(odd)
        if removals is None:
            removals = self._removal_passes[odd] = _RemovalPass(self, odd)
        return removals


_KIND_FAMILY = {"alpha": "a", "alphabar": "abar", "psi": "th", "psibar": "thbar"}


class OscillatorOp(Record):
    """Exact sparse matrix of one oscillator on the truncated basis.

    Columns are ``(row_index, a)`` pairs with integer ``a``; the matrix
    entry is ``a / scale``.  Creators have scale 1, annihilators the lcm D
    of the denominators of G^-1.  Creator images that exceed the level cap
    are silently dropped (the corestriction to the truncated space), which
    is why the sweep guards its subspaces.  ``_cols`` holds the columns
    whose level leaves room for the mode, a prefix of the basis and the only
    ones a guarded bracket reads; past it a creator's columns are empty.
    ``_removals`` is the removal pass the columns came from, which the
    operator keeps alive for the next operator of its parity.  Neither is
    compared.
    """

    space: TruncatedFock
    kind: str
    index: int
    mode: Fraction
    scale: int
    _cols: tuple
    _removals: object


class _RemovalPass:
    """One scan of the basis for the variables of one parity.

    For each pair of a basis monomial and a variable of that parity in it,
    the scan finds the same monomial with one copy of the variable removed.
    A removal changes one part of the monomial, so it is worked out once
    per even or odd part, and placed by the level and the other part.  The
    scan keeps these pairs as the creators' columns: ``up[r]`` holds, for
    each monomial whose level leaves room for the variable of rank r, the
    column ``((monomial with r added, sign),)``, or ``()`` where an odd r
    is already present.  The sign is ``(-1)^k`` for the k odd variables
    before r, and 1 for an even r.  The creators of a pass share these
    columns, and its annihilators scatter theirs from them.  Within one
    monomial the columns of equal sign are one tuple.
    """

    __slots__ = ("odd", "space", "up", "__weakref__")

    def __init__(self, space, odd):
        levels, twice_levels, first, odd_pos = (space._levels, space._twice_levels,
                                                space._first, space._odd_pos)
        n_even = space._n_even
        ranks = range(n_even, len(twice_levels)) if odd else range(n_even)
        cols = {r: [()] * bisect_right(levels, space._cap2 - twice_levels[r]) for r in ranks}
        parts = space._odds if odd else space._evens
        index = {key: k for k, (key, _) in enumerate(parts)}
        place = odd_pos if odd else range(len(parts))
        # removals[k]: for each variable r of part k (once, if it repeats), the
        # creator column list of r, the part less one copy of r (an odd part as
        # its place in its level), the twice-level of r and, in an odd part,
        # whether an odd number of variables comes before r
        removals = [[(cols[r], place[index[key[:t] + key[t + 1:]]], twice_levels[r], t % 2)
                     for t, r in enumerate(key) if t == 0 or key[t - 1] != r]
                    for key, _ in parts]
        # a removal lies one level of r lower and keeps the other part
        for level, e, block in space._walk():
            start = first[e][level]
            if odd:
                below = first[e]
                for big, o in enumerate(block, start):
                    part = removals[o]
                    if part:
                        columns = ((big, 1),), ((big, -1),)
                        for up, pos, twice, negative in part:
                            up[below[level - twice] + pos] = columns[negative]
            elif removals[e]:
                for big, o in enumerate(block, start):
                    pos, column = odd_pos[o], ((big, 1),)
                    for up, rest, twice, _ in removals[e]:
                        up[first[rest][level - twice] + pos] = column
        self.odd = odd
        self.space = space
        self.up = {r: tuple(c) for r, c in cols.items()}


def _annihilator_columns(removals, first, coeffs, hi):
    """Columns ``0 .. hi - 1`` of the sum over j of ``coeffs[j]`` times the
    derivative in the variable of rank ``first + j``.

    The derivative maps a monomial to the one with a copy of the variable
    removed, times the multiplicity of an even variable, or the sign of the
    odd variables before an odd one: the transpose of the creator, up to
    the multiplicity.
    """
    space = removals.space
    levels = space._levels
    cols = [()] * hi
    if not hi:
        return cols
    for j, c in enumerate(coeffs):
        if not c:
            continue
        r = first + j
        # the monomials that r lifts into 0 .. hi - 1 lie one level of r below them
        twice = space._twice_levels[r]
        up = removals.up[r]
        for small in range(bisect_right(levels, levels[hi - 1] - twice)):
            for big, sign in up[small]:
                if big < hi:
                    weight = sign if removals.odd else space._keys[big].count(r)
                    cols[big] += ((small, c * weight),)
    return cols


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
    # the variables (family, |s|, j) for j = 0..n-1 hold consecutive ranks
    first = space._variables.index((_KIND_FAMILY[kind], abs(s), 0))
    removals = space._removals(not bosonic)
    if s < 0:
        # the pass's columns for the variable: those of the monomials with room for it
        scale, cols = 1, removals.up[first + i]
    else:
        scale, scaled = space.ginv.den, space.ginv.num  # D and the int rows D G^-1
        coeffs = [int(s) * c for c in scaled[i]] if bosonic else scaled[i]  # D s G^-1, D G^-1
        # the basis is level-sorted, so the columns with room for the mode are a prefix
        room = space._cap2 - int(2 * s)
        cols = tuple(_annihilator_columns(removals, first, coeffs,
                                          bisect_right(space._levels, room)))
    return OscillatorOp(space=space, kind=kind, index=i, mode=s, scale=scale,
                        _cols=cols, _removals=removals)


# ---------------------------------------------------------------------------
# algebra verification
# ---------------------------------------------------------------------------


def _bracket_scalar(op1, op2, sign, tested):
    """The c with ``op1 op2 + sign op2 op1 = c`` times the identity on the
    first ``tested`` columns, as an int at scale ``op1.scale * op2.scale``,
    or None.

    The level of a tested column leaves room for both modes, so every
    column read lies in each operator's computed prefix.
    """
    cols1, cols2 = op1._cols, op2._cols
    value = None
    for col in range(tested):
        acc = None                       # most columns reach no row at all
        for mid, c1 in cols2[col]:       # op1 after op2
            for row, c2 in cols1[mid]:
                if acc is None:
                    acc = {}
                acc[row] = acc.get(row, 0) + c1 * c2
        for mid, c1 in cols1[col]:       # sign * op2 after op1
            c1 *= sign
            for row, c2 in cols2[mid]:
                if acc is None:
                    acc = {}
                acc[row] = acc.get(row, 0) + c1 * c2
        if acc is None:
            diagonal = 0
        else:
            diagonal = acc.pop(col, 0)
            if acc and any(acc.values()):
                return None
        if diagonal != value:
            if value is not None:
                return None
            value = diagonal
    return value


def ccr_car_sweep(space: TruncatedFock):
    """All index/mode pairs testable at the cap; rows for reports and the CLI.

    The CCR rows check ``[alpha^i_s, alpha^j_p]`` and its right-moving twin
    against ``s (G^-1)^{ij} delta_{s,-p}``, the CAR rows the anticommutators
    of ``psi`` and ``psibar`` against ``(G^-1)^{ij} delta_{s,-p}``, and each
    the mixed bracket against zero.  Each algebra's pass owns the operators
    it builds, with the removal pass they share: the CCR operators are
    released before the CAR pass starts, and the space keeps none of them.
    """
    return (_sweep_pass(space, "ccr", 2, ("alpha", "alphabar"), -1)
            + _sweep_pass(space, "car", 1, ("psi", "psibar"), +1))


def _sweep_pass(space, algebra, start, flavors, sign):
    """The rows of one algebra; its operators are released when it returns.

    Modes are kept as twice their value.  The modes, their names and the
    tested dimension of each mode pair are computed once; a pair with no
    tested column is inconclusive and builds no operator.  A nonzero target
    pairs a creator (scale 1) with an annihilator (scale D), so at scale D
    it is the integer ``(s / 2) (D G^-1)^{ij}`` (CCR) or ``(D G^-1)^{ij}``
    (CAR).  ``brackets`` keeps each same-flavour scalar for the swapped pair
    ``(j, i, p, s)``, which reads it times ``sign``.
    """
    n, levels, cap2 = space.rank, space._levels, space._cap2
    # twice the modes: 2, -2, 4, -4, ... for the CCR and 1, -1, 3, -3, ... for the CAR
    modes = [e * t for t in range(start, cap2 + 1, 2) for e in (1, -1)]
    pairs = [(s, p, ratio_str(s, 2), ratio_str(p, 2),
              bisect_right(levels, cap2 - abs(s) - abs(p))) for s in modes for p in modes]
    ginv = space.ginv.num
    left, right = flavors
    ops, brackets = {}, {}

    def oscillator(kind, index, mode):
        op = ops.get((kind, index, mode))
        if op is None:
            op = ops[kind, index, mode] = build_oscillator(space, kind, index, Fraction(mode, 2))
        return op

    def same_flavor(kind, i, j, s, p, tested):
        swapped = (kind, j, i, p, s)
        if swapped in brackets:
            c = brackets.pop(swapped)
            return None if c is None else sign * c
        c = _bracket_scalar(oscillator(kind, i, s), oscillator(kind, j, p), sign, tested)
        if (i, s) != (j, p):
            brackets[kind, i, j, s, p] = c
        return c

    rows = []
    for i in range(n):
        for j in range(n):
            for s, p, s_name, p_name, tested in pairs:
                if not tested:
                    status = "inconclusive"
                else:
                    target = 0 if s != -p else (s // 2 if algebra == "ccr" else 1) * ginv[i][j]
                    ok = (same_flavor(left, i, j, s, p, tested) == target
                          and same_flavor(right, i, j, s, p, tested) == target
                          and _bracket_scalar(oscillator(left, i, s), oscillator(right, j, p),
                                              sign, tested) == 0)
                    status = "pass" if ok else "fail"
                rows.append({"algebra": algebra, "i": i, "j": j, "s": s_name, "p": p_name,
                             "status": status, "tested_dimension": tested})
    return rows


# ---------------------------------------------------------------------------
# the fock-verify command
# ---------------------------------------------------------------------------

# fock-verify spends 15-25 us per basis monomial as a fresh process at the
# largest cap admitted for each d = 1 to 6 (CPython 3.11.7 on a 2-core VM), so
# the largest space the limit admits, d = 3 at cap 4 (236,886 monomials),
# takes about 5-6 s with a peak RSS of 150 MiB; at d = 1 the first cap past it
# is 9 (350,974 monomials).
MAX_BASIS_DIMENSION = 250_000

# The largest number of check rows fock-verify reports.  Beside its sweep, a
# report costs about 23 us and 2 KiB of peak RSS per row: d = 79 at cap 1/2
# (99,856 rows, all inconclusive, over 401 monomials) takes 2.3 s with a peak
# RSS of 190 MiB; a report of 10 s would need about 0.8 GiB.  Every cap the
# basis limit admits at d <= 3 is admitted here: the most rows among them are
# 4,608, at d = 3 and cap 4.
MAX_CHECK_ROWS = 10 ** 5


def _row_count(d, cap2):
    """The rows ``ccr_car_sweep`` writes at twice-level cap ``cap2``: every
    index pair times every pair of CCR modes and every pair of CAR modes."""
    ccr_modes, car_modes = 2 * (cap2 // 2), 2 * ((cap2 + 1) // 2)
    return (2 * d) ** 2 * (ccr_modes ** 2 + car_modes ** 2)


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
            raise SchemaError(f"d must be at least 1, got {jsonio.echo(d)}")
    try:
        cap = Fraction(args.cap)
    except (ValueError, ZeroDivisionError):
        raise SchemaError(f"cap must be a rational number, got {jsonio.echo(args.cap)}", "--cap")
    # the text as given: a Fraction past the int-to-string digit limit cannot be printed
    shown = jsonio.echo(args.cap, quoted=False)
    if cap < HALF:
        raise SchemaError(f"cap must be at least 1/2, got {shown}", "--cap")
    size = 0
    for twice, level_size in zip(range(math.floor(2 * cap) + 1), _level_counts(2 * d)):
        size += level_size
        if size > MAX_BASIS_DIMENSION:
            # a d too long to echo whole has a size as long: only d is echoed
            counted = f": {size}" if size < 10 ** jsonio.ECHO_LIMIT else ""
            raise SchemaError(f"cap {shown} spans more than {MAX_BASIS_DIMENSION} basis "
                              f"monomials at d = {jsonio.echo(d)}{counted} up to level "
                              f"{Fraction(twice, 2)}", "--cap")
    rows = _row_count(d, math.floor(2 * cap))
    if rows > MAX_CHECK_ROWS:
        raise SchemaError(f"cap {shown} at d = {d} gives {rows} check rows, more than "
                          f"the limit {MAX_CHECK_ROWS}", "--cap")
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
