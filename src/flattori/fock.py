"""Level-truncated oscillator algebras and the superconformal state vectors.

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

Scalars for the superconformal vectors live in Q(i) extended by a formal
sqrt(2) tag, keeping the supercharge normalization exact.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .errors import TruncationError, ValidationError
from .exactlinear import GaussRational, Q, QZERO, RatMatrix, cleared
from .torus import TorusData, omega, require_valid, zero_mode_momenta

HALF = Fraction(1, 2)

EVEN_FAMILIES = ("a", "abar")
ODD_FAMILIES = ("th", "thbar")

# a generator is (family, level, index); monomials sort these tuples


class RootTwoScalar:
    """Exact scalar ``value = coeff * sqrt(2)^tag`` with tag in {0, 1}."""

    __slots__ = ("coeff", "tag")

    def __init__(self, coeff, tag=0):
        coeff = GaussRational.coerce(coeff)
        tag = int(tag) % 2
        if not coeff:
            tag = 0
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "tag", tag)

    def __setattr__(self, *a):
        raise AttributeError("RootTwoScalar is immutable")

    def __bool__(self):
        return bool(self.coeff)

    def __eq__(self, other):
        if not isinstance(other, RootTwoScalar):
            other = RootTwoScalar(other)
        return self.coeff == other.coeff and self.tag == other.tag

    def __hash__(self):
        return hash((self.coeff, self.tag))

    def __add__(self, other):
        if not isinstance(other, RootTwoScalar):
            other = RootTwoScalar(other)
        if not self:
            return other
        if not other:
            return self
        if self.tag != other.tag:
            raise ValueError("cannot add scalars of different sqrt(2) parity")
        return RootTwoScalar(self.coeff + other.coeff, self.tag)

    def __neg__(self):
        return RootTwoScalar(-self.coeff, self.tag)

    def __sub__(self, other):
        return self + (-other if isinstance(other, RootTwoScalar) else RootTwoScalar(-other))

    def __mul__(self, other):
        if not isinstance(other, RootTwoScalar):
            other = RootTwoScalar(other)
        t = self.tag + other.tag
        c = self.coeff * other.coeff
        if t == 2:
            c = c * 2
            t = 0
        return RootTwoScalar(c, t)

    __rmul__ = __mul__

    def __repr__(self):
        if self.tag:
            return f"({self.coeff})*sqrt2"
        return f"{self.coeff}"


SQRT2 = RootTwoScalar(1, 1)
INV_SQRT2 = RootTwoScalar(Fraction(1, 2), 1)  # sqrt2 / 2


def _monomial_level(mono):
    even, odd = mono
    return sum(g[1] for g in even) + sum(g[1] for g in odd)


def _monomial_parity(mono):
    return len(mono[1]) % 2


def _sorted_vars(families, twice_levels, n):
    """Creator variables in tuple order, and the twice-level of each as an int."""
    keyed = sorted(((fam, Fraction(t, 2), i), t)
                   for fam in families for t in twice_levels for i in range(n))
    return [var for var, _ in keyed], [t for _, t in keyed]


@dataclass(frozen=True)
class TruncatedFock:
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
    def index(self) -> dict:
        """Each basis monomial's position; only ``OscillatorOp.apply_*`` read it."""
        return {m: i for i, m in enumerate(self.basis)}

    @cached_property
    def ginv(self) -> RatMatrix:
        return self.G.inverse()

    @cached_property
    def _scaled_ginv(self):
        """``(D, D G^-1)``: D is the lcm of the denominators of G^-1, the rows are ints."""
        return cleared(self.ginv)

    def vacuum(self):
        return ((), ())


_KIND_FAMILY = {"alpha": "a", "alphabar": "abar", "psi": "th", "psibar": "thbar"}


@dataclass(frozen=True)
class OscillatorOp:
    """Exact sparse matrix of one oscillator on the truncated basis.

    Columns are computed on demand (the verifiers only ever touch low-level
    columns) as ``(row_index, a)`` pairs with integer ``a``; the matrix
    entry is ``a / scale``.  Creators have scale 1, annihilators the lcm D
    of the denominators of G^-1.  Creator images that exceed the level cap
    are silently dropped (the corestriction to the truncated space), which
    is why verifications guard their subspaces.
    """

    space: TruncatedFock
    kind: str
    index: int
    mode: Fraction
    scale: int
    _column_fn: object = field(compare=False, repr=False)
    _cols: dict = field(compare=False, repr=False, default_factory=dict)

    def int_column(self, col: int):
        got = self._cols.get(col)
        if got is None:
            got = self._cols[col] = self._column_fn(col)
        return got

    def column(self, col: int):
        """The exact entries ``(row_index, Fraction)`` of one column."""
        return tuple((row, Fraction(a, self.scale)) for row, a in self.int_column(col))

    def apply_monomial(self, mono):
        return self.column(self.space.index[mono])

    def apply_state(self, state):
        """Apply to a dict monomial -> scalar (any scalar supporting + and *)."""
        out = {}
        for mono, c in state.items():
            for row, a in self.column(self.space.index[mono]):
                key = self.space.basis[row]
                acc = out.get(key)
                term = c * a
                out[key] = term if acc is None else acc + term
        return {m: c for m, c in out.items() if c}


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
        raise ValueError("zero modes are not oscillators; see field_modes")
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


@dataclass(frozen=True)
class CheckOutcome:
    status: str  # "pass", "fail", or "inconclusive"
    tested_dimension: int
    expected: Fraction

    def __bool__(self):
        return self.status == "pass"


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


# ---------------------------------------------------------------------------
# superconformal vectors
# ---------------------------------------------------------------------------


def _state_add(target, mono, scalar):
    if not scalar:
        return
    acc = target.get(mono)
    target[mono] = scalar if acc is None else acc + scalar
    if not target[mono]:
        del target[mono]


def superconformal_states(space: TruncatedFock, t: TorusData):
    """The eight generator states, as exact tagged-scalar vectors.

    Left movers:

    * ``L = G(a_-1, a_-1)/2 - G(theta_-1/2, theta_-3/2)/2``
    * ``Qpm = (-i/(4 sqrt 2)) (G -+ i omega)(theta_-1/2, a_-1)``
    * ``J = (-i/2) omega(theta_-1/2, theta_-1/2)``

    and the right movers with the barred variables.  The bilinear forms are
    expanded literally over all index pairs; no symmetrization beyond what
    the variables themselves impose is applied.
    """
    require_valid(t)
    if space.rank != t.rank:
        raise ValidationError("space and torus dimensions differ")
    if space.level_cap < 2:
        raise TruncationError("superconformal vectors need level cap >= 2")
    G = t.G
    w = omega(t)
    n = space.rank
    minus_i_over_8 = GaussRational(0, Fraction(-1, 8))
    states = {}
    for side, afam, thfam in (("", "a", "th"), ("bar", "abar", "thbar")):
        L = {}
        for a in range(n):
            for b in range(n):
                g = G.entries[a][b]
                if not g:
                    continue
                mono = (tuple(sorted(((afam, Q(1), a), (afam, Q(1), b)))), ())
                _state_add(L, mono, RootTwoScalar(Fraction(g, 2)))
                mono_f = ((), ((thfam, HALF, a), (thfam, Fraction(3, 2), b)))
                _state_add(L, mono_f, RootTwoScalar(Fraction(-g, 2)))
        states["L" + side] = L
        for name, sgn in (("Qplus", -1), ("Qminus", 1)):
            state = {}
            for a in range(n):
                for b in range(n):
                    coeff = GaussRational(G.entries[a][b], sgn * w.entries[a][b])
                    if not coeff:
                        continue
                    mono = (((afam, Q(1), b),), ((thfam, HALF, a),))
                    _state_add(state, mono, RootTwoScalar(minus_i_over_8 * coeff, 1))
            states[name + side] = state
        J = {}
        for a in range(n):
            for b in range(a + 1, n):
                wc = w.entries[a][b]
                if not wc:
                    continue
                mono = ((), ((thfam, HALF, a), (thfam, HALF, b)))
                _state_add(J, mono, RootTwoScalar(GaussRational(0, -wc)))
            # omega(theta, theta) doubles the strictly-upper coefficients;
            # with the -i/2 prefactor this leaves -i * w_ab per monomial
        states["J" + side] = J
    return states


def state_level(state):
    levels = {_monomial_level(m) for m in state}
    if len(levels) != 1:
        raise ValueError("state is not level-homogeneous")
    return levels.pop()


def state_parity(state):
    parities = {_monomial_parity(m) for m in state}
    if len(parities) != 1:
        raise ValueError("state is not parity-homogeneous")
    return parities.pop()


# ---------------------------------------------------------------------------
# field modes and the monomial pairing oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ZeroModeDescriptor:
    """The s = 0 mode of a bosonic current: diagonal on charge sectors.

    Acts on the sector ``(w, m)`` by the number ``(G^-1 p)_j`` (left) or
    ``(G^-1 pbar)_j`` (right), in the sqrt(2)-rescaled normalization used
    for all zero-mode quantities.
    """

    torus: TorusData
    index: int
    chirality: str  # "left" or "right"

    def apply_charge(self, charge):
        z = zero_mode_momenta(self.torus, charge)
        vec = z.p if self.chirality == "left" else z.pbar
        return sum(a * b for a, b in zip(self.torus.ginv.entries[self.index], vec))


_FIELD_TABLE = {
    "dX": ("alpha", "left"),
    "dXbar": ("alphabar", "right"),
    "psi": ("psi", None),
    "psibar": ("psibar", None),
}


def field_modes(space: TruncatedFock, t: TorusData, fld: str, j: int, s):
    """Mode content of the basic currents.

    For nonzero modes this is the corresponding oscillator; the bosonic
    zero mode is a :class:`ZeroModeDescriptor` delegating to the charge
    sector data (the currents themselves have no zero-mode oscillator).
    """
    if fld not in _FIELD_TABLE:
        raise ValueError(f"unknown field {fld!r}; expected one of {sorted(_FIELD_TABLE)}")
    kind, chirality = _FIELD_TABLE[fld]
    s = Fraction(s)
    if s == 0:
        if chirality is None:
            raise ValidationError("fermionic currents have no zero mode")
        return ZeroModeDescriptor(torus=t, index=j, chirality=chirality)
    return build_oscillator(space, kind, j, s)


def monomial_pairing(space: TruncatedFock, m1, m2):
    """Wick pairing of two basis monomials (the creator-adjointness oracle).

    Independent of the operator implementation: a permanent over bosonic
    contractions times a determinant over fermionic contractions, each
    single contraction pairing equal levels and families through
    ``level * G^-1`` (bosons) or ``G^-1`` (fermions).
    """
    from itertools import permutations
    even1, odd1 = m1
    even2, odd2 = m2
    if len(even1) != len(even2) or len(odd1) != len(odd2):
        return QZERO
    ginv = space.ginv

    def single_even(g1, g2):
        if g1[0] != g2[0] or g1[1] != g2[1]:
            return QZERO
        return g1[1] * ginv.entries[g1[2]][g2[2]]

    def single_odd(g1, g2):
        if g1[0] != g2[0] or g1[1] != g2[1]:
            return QZERO
        return ginv.entries[g1[2]][g2[2]]

    even_total = QZERO
    if even1:
        for perm in permutations(range(len(even2))):
            term = Q(1)
            for a, b in enumerate(perm):
                term *= single_even(even1[a], even2[b])
                if not term:
                    break
            even_total += term
    else:
        even_total = Q(1)
    odd_total = QZERO
    if odd1:
        for perm in permutations(range(len(odd2))):
            sign = _perm_sign(perm)
            term = Q(sign)
            for a, b in enumerate(perm):
                term *= single_odd(odd1[a], odd2[b])
                if not term:
                    break
            odd_total += term
    else:
        odd_total = Q(1)
    return even_total * odd_total


def _perm_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        t = start
        while not seen[t]:
            seen[t] = True
            t = perm[t]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign
