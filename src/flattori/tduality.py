"""Mirror construction by dualizing a Lagrangian factor.

Given a splitting ``T = A x B`` into omega-isotropic halves, the doubled
lattice admits the obvious pairing-preserving isomorphism that exchanges
the A-windings with the A-momenta.  Transporting the torus's own calJ to the
calI slot and calI to the calJ slot along this map and then solving the
block formulas backwards yields the mirror data ``(I', G', B')``.

Every recovered matrix is re-substituted into the forward block formulas;
any mismatch raises :class:`RecoveryError` naming the offending block, so a
wrong inversion branch cannot survive silently.

The ``mirror`` command lives at the end of the module, with the ``--split``
parser and the splitting echo that ``fm`` shares.
"""

from __future__ import annotations

import json
import os
from itertools import combinations
from operator import mul

from . import jsonio
from ._intkernel import column_pivots, integer_kernel, spans_direct_summand
from ._record import Check, Record, failures
from .errors import RecoveryError, SchemaError, ValidationError
from .exactlinear import RatMatrix, bareiss
from .relations import Certificate, LatticeMap, verify_map
from .torus import TorusData, doubled, omega, require_valid


class LagrangianSplitting(Record):
    """An integral splitting of the winding lattice into isotropic halves.

    ``change_of_basis`` has the A vectors as its first d columns and the B
    vectors as its last d columns, expressed in the torus basis.
    """

    a_basis: tuple
    b_basis: tuple
    change_of_basis: RatMatrix

    @staticmethod
    def from_vectors(a_vectors, b_vectors) -> "LagrangianSplitting":
        a = tuple(tuple(int(x) for x in v) for v in a_vectors)
        b = tuple(tuple(int(x) for x in v) for v in b_vectors)
        cols = list(a) + list(b)
        mat = RatMatrix([[col[i] for col in cols] for i in range(len(cols[0]))])
        return LagrangianSplitting(a, b, mat)


def splitting_report(t: TorusData, s: LagrangianSplitting):
    """Validity checks of a splitting for a given torus, one :class:`Check` each."""
    n = t.rank
    checks = []
    shape_ok = (len(s.a_basis) == t.d and len(s.b_basis) == t.d
                and all(len(v) == n for v in s.a_basis + s.b_basis))
    checks.append(Check("shape", shape_ok))
    if not shape_ok:
        return checks
    checks.append(Check("unimodular", spans_direct_summand(s.a_basis + s.b_basis)))
    w = omega(t).num  # a positive multiple keeps every isotropy question

    def isotropic(vectors):
        return all(sum(map(mul, u, _image(w, v))) == 0
                   for i, u in enumerate(vectors) for v in vectors[i + 1:])

    checks.append(Check("A_isotropic", isotropic(s.a_basis)))
    checks.append(Check("B_isotropic", isotropic(s.b_basis)))
    return checks


def _image(w, v):
    """``w v`` for integer rows ``w`` and an integer vector ``v``."""
    return tuple(sum(map(mul, row, v)) for row in w)


def require_splitting(t: TorusData, s: LagrangianSplitting):
    bad = failures(splitting_report(t, s))
    if bad:
        raise ValidationError(f"invalid Lagrangian splitting: {', '.join(bad)}")


# ---------------------------------------------------------------------------
# splitting construction
# ---------------------------------------------------------------------------


def _krylov_lagrangian(w, s, v):
    """A Lagrangian subspace of ``w`` through v on which B vanishes too, for
    ``s`` a positive multiple of ``S = omega^-1 B``.

    ``B(x, y) = omega(Sx, y)`` and S is omega-self-adjoint, so each Krylov
    space ``Q[S]v`` is isotropic for both forms.  For such an S-invariant A,
    ``A^perp`` is S-invariant, so ``A + Q[S]x`` is one too for x in
    ``A^perp``: add the first integer-kernel x outside A, then its S-images.
    """
    a = []
    while True:
        while len(bareiss(a + [v])[0]) > len(a):
            a.append(v)
            v = _image(s, v)
        if 2 * len(a) == len(w):
            return a
        v = next(x for x in integer_kernel([_image(w, u) for u in a])
                 if len(bareiss(a + [x])[0]) > len(a))


def _isotropic_complement(w, a):
    """A w-isotropic completion of the primitive Lagrangian ``a`` to a basis
    of ``Z^n``, or None if there is none.

    For the transform U of a column reduction of ``a``, the last d rows of
    ``U^-1`` complete it, and so does each ``c_i + sum_k phi_ik a_k``.  Those
    are isotropic when phi solves linear equations; the integer kernel of
    the equations, constants as the last column, holds an integral phi iff
    its last coordinates have gcd 1, and one more reduction combines them.
    """
    n, d = len(w), len(a)
    trans = [[int(i == j) for j in range(n)] for i in range(n)]
    column_pivots([list(v) for v in a], trans)
    c = list(RatMatrix.over(1, trans).inverse().num[d:])  # U is unimodular: den 1
    pair = [[sum(map(mul, u, _image(w, v))) for v in a + c] for u in c]
    rows = [[pair[i][k] * (r == j) - pair[j][k] * (r == i) for r in range(d) for k in range(d)]
            + [pair[i][d + j]] for i, j in combinations(range(d), 2)]
    *phi, last = map(list, zip(*integer_kernel(rows or [[0] * (d * d + 1)])))
    pivots = column_pivots([last], phi)
    if pivots not in ([1], [-1]):
        return None
    return [tuple(x + pivots[0] * sum(phi[i * d + k][0] * v[m] for k, v in enumerate(a))
                  for m, x in enumerate(c[i])) for i in range(d)]


def find_lagrangian_splitting(t: TorusData) -> LagrangianSplitting:
    """A splitting into omega-isotropic halves, the first one B-isotropic too.

    The dualized half A is the saturation (integer kernel of the integer
    kernel) of :func:`_krylov_lagrangian` from the first unit vector whose A
    :func:`_isotropic_complement` completes; both halves in descending order.
    """
    w = omega(t).num
    s = (omega(t).inverse() * t.B).num
    for k in range(t.rank):
        start = tuple(int(i == k) for i in range(t.rank))
        a = integer_kernel(integer_kernel(_krylov_lagrangian(w, s, start)))
        a = sorted(map(tuple, a), reverse=True)
        c = _isotropic_complement(w, a)
        if c is not None:
            return LagrangianSplitting.from_vectors(a, sorted(c, reverse=True))
    raise RecoveryError("no unit start vector gives an omega-isotropic complement",
                        block="lagrangian_splitting")


# ---------------------------------------------------------------------------
# the duality itself
# ---------------------------------------------------------------------------


class MirrorResult(Record):
    mirror: TorusData
    duality_certificate: Certificate
    recovery_report: tuple


def _swap_matrix(d: int) -> RatMatrix:
    """Exchange A-windings with A-momenta on the doubled split basis."""
    n4 = 4 * d
    n = 2 * d
    rows = [[0] * n4 for _ in range(n4)]
    for i in range(d):
        rows[i][n + i] = 1       # new winding along dual A = old A momentum
        rows[n + i][i] = 1       # new A momentum = old A winding
    for i in range(d, n):
        rows[i][i] = 1           # B windings unchanged
        rows[n + i][n + i] = 1   # B momenta unchanged
    return RatMatrix.over(1, rows)


def mirror_via_tduality(t: TorusData, s: LagrangianSplitting) -> MirrorResult:
    """Construct the mirror torus and its certified duality map.

    The mirror is presented in the splitting-adapted basis: the first d
    coordinates are the duals of the A vectors, the last d are the B
    vectors.  Its calI and calJ are the torus's own calJ and calI carried
    along the duality map, so no intermediate torus is built.
    """
    require_valid(t)
    require_splitting(t, s)
    d, n = t.d, t.rank
    p = s.change_of_basis
    p_inv = p.inverse()
    z = RatMatrix.zero(n, n)
    sw = _swap_matrix(d)
    g = sw * RatMatrix.from_blocks([[p_inv, z], [z, p.transpose()]])
    g_inv = RatMatrix.from_blocks([[p, z], [z, p_inv.transpose()]]) * sw
    ds = doubled(t)
    cal_i_new = g * ds.calJ * g_inv
    cal_j_new = g * ds.calI * g_inv

    report = []

    def check(name, ok):
        report.append(Check(name, ok))
        if not ok:
            raise RecoveryError(f"mirror recovery failed at {name}", block=name)

    i_new = cal_i_new.block(0, n, 0, n)
    check("calI_upper_right_vanishes", cal_i_new.block(0, n, n, 2 * n) == z)
    check("I_squares_to_minus_id", i_new * i_new == -RatMatrix.identity(n))
    ur = cal_j_new.block(0, n, n, 2 * n)
    try:
        ur_inv = ur.inverse()
    except ZeroDivisionError:
        check("calJ_upper_right_invertible", False)
    g_new = ur_inv * i_new
    check("G_symmetric", g_new.is_symmetric())
    check("G_positive_definite", g_new.is_positive_definite())
    w_new = g_new * i_new
    b_new = w_new * cal_j_new.block(0, n, 0, n)
    check("B_skew", b_new.is_skew())
    mirror = TorusData(d=d, I=i_new, G=g_new, B=b_new,
                       label=f"{t.label}|mirror" if t.label else "mirror")
    check("mirror_validates", not failures(mirror.validation))
    ds_mirror = doubled(mirror)
    check("calI_resubstitutes", ds_mirror.calI == cal_i_new)
    check("calJ_resubstitutes", ds_mirror.calJ == cal_j_new)

    cert = verify_map(LatticeMap(g=g, source=t, target=mirror, kind="mirror"))
    check("duality_map_verifies", cert.valid)
    return MirrorResult(mirror=mirror, duality_certificate=cert, recovery_report=tuple(report))



# ---------------------------------------------------------------------------
# the mirror command, and the splitting text it shares with fm
# ---------------------------------------------------------------------------


def parse_splitting(text, n):
    """Parse ``"1,0;0,1|0,1;1,0"``-style A|B vector lists."""
    try:
        a_part, b_part = text.split("|")
        a_vecs = [[int(x) for x in v.split(",")] for v in a_part.split(";") if v]
        b_vecs = [[int(x) for x in v.split(",")] for v in b_part.split(";") if v]
    except ValueError:
        raise SchemaError("splitting must look like 'a1;a2|b1;b2' with comma-separated "
                          "integer entries", "--split")
    if not a_vecs or not b_vecs:
        raise SchemaError("each half of a splitting needs at least one vector", "--split")
    if any(len(v) != n for v in a_vecs + b_vecs):
        raise SchemaError(f"splitting vectors must have length {n}", "--split")
    return LagrangianSplitting.from_vectors(a_vecs, b_vecs)


def split_json(s):
    """A splitting as a report echoes it, parsed or found: its two halves' vectors."""
    return {"A": [list(v) for v in s.a_basis], "B": [list(v) for v in s.b_basis]}


def recovery_failed(inputs, exc):
    """The report of a mirror whose recovery failed at ``exc.block``; exit 1."""
    return inputs, {"found": False, "verdict": "recovery failed", "block": exc.block}, 1


def _write_json_files(outputs):
    """Write each ``(path, data, flag)``, opening every path before writing any.

    An unwritable path is an input error that leaves no output behind: the
    files opened so far are removed if this call created them, and a file
    that existed is truncated only once every path is open.
    """
    opened = []
    try:
        for path, _, flag in outputs:
            existed = os.path.exists(path)
            try:
                opened.append((open(path, "a"), existed))
            except OSError as exc:
                raise SchemaError(f"cannot write {path}: {exc.strerror}", flag)
    except SchemaError:
        for (fh, existed), (path, _, _) in zip(opened, outputs):
            fh.close()
            if not existed:
                os.remove(path)
        raise
    for (fh, _), (_, data, _) in zip(opened, outputs):
        with fh:
            fh.truncate(0)
            json.dump(data, fh, sort_keys=True, indent=2)
            fh.write("\n")


def cmd_mirror(args):
    """``mirror``: the mirror along the given or the found splitting, and its certificate."""
    if args.out_torus and args.out_cert and (
            os.path.realpath(args.out_torus) == os.path.realpath(args.out_cert)):
        raise SchemaError(f"--out-torus and --out-cert name the same file {args.out_cert}",
                          "--out-cert")
    t = jsonio.load_torus(args.torus)
    inputs = {"torus": jsonio.torus_to_json(t)}
    try:
        s = (parse_splitting(args.split, t.rank) if args.split
             else find_lagrangian_splitting(t))
        inputs["split"] = split_json(s)
        mr = mirror_via_tduality(t, s)
    except RecoveryError as exc:
        return recovery_failed(inputs, exc)
    result = {
        "found": True,
        "mirror": jsonio.torus_to_json(mr.mirror),
        "certificate": jsonio.certificate_to_json(mr.duality_certificate),
        "recovery_report": jsonio.checks_to_json(mr.recovery_report),
    }
    _write_json_files([(path, data, flag) for path, data, flag in (
        (args.out_torus, result["mirror"], "--out-torus"),
        (args.out_cert, result["certificate"], "--out-cert")) if path])
    return inputs, result, 0
