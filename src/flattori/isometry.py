"""The ``iso`` and ``mirror`` search: one isometry search of the Narain lattices.

:func:`isometry` decides both relations at every d, and :func:`cmd_search`
is the handler of ``check-iso`` and ``check-mirror``.  The Narain ball it
reads is listed by :func:`short_vectors`: integral LLL
(:func:`flattori._lll.lll`), then a Fincke-Pohst walk
(:func:`fincke_pohst`) whose every pruning decision is an integer
comparison; ``spectrum`` lists the ball with the same enumerator, up to the
same :data:`SPECTRUM_LIMIT`.  A found g comes from the one exact inverse,
:meth:`flattori.exactlinear.RatMatrix.inverse`, and is checked by
:func:`flattori.relations.certified`, as every search's certificate is.
This module imports neither :mod:`flattori.equivalence` nor the integer
kernels of :mod:`flattori._intlat` and :mod:`flattori._intkernel`, so an
``iso`` or ``mirror`` search compiles none of the ``derived_eq`` path, and
:func:`flattori.equivalence.search_relation` imports it only when it runs
it.
"""

from __future__ import annotations

import os
import sys
from math import inf, isqrt
from operator import mul

from . import jsonio
from ._lll import lll
from .errors import SchemaError
from .exactlinear import RatMatrix, bareiss, cleared, ratio_str
from .relations import RELATIONS, LatticeMap, certified
from .torus import doubled, narain_form

# The most charges, up to sign, that ``spectrum`` lists, and that the isometry
# search lists on each side (past it the pair is undecided).  A ball just under it
# takes 1.8-2.8 s and 125 MiB at d = 1, 3.1-4.8 s and 140 MiB at d = 3, as a
# fresh process (CPython 3.11.7, 2-core VM): less than the 8.8 s and 188 MiB
# of the old charge box's largest window.  Past it the walk stops, in 0.2-0.6 s.
SPECTRUM_LIMIT = 2 * 10 ** 5

NARAIN_ISOMETRY = "no Narain isometry g^t N2 g = N1 preserves q and carries N1 S1 to N2 S2"


def short_vectors(gram, bound, cap=inf):
    """``(basis, vectors, nodes)``: the LLL-reduced basis of :func:`~flattori._lll.lll`
    and :func:`fincke_pohst` on it, the vectors of norm at most ``bound``."""
    reduced = lll(gram)
    return (reduced[0], *fincke_pohst(reduced, bound, cap))


def fincke_pohst(reduced, bound, cap=inf):
    """``(vectors, nodes)``: the short vectors over the basis of ``reduced = lll(gram)``.

    ``vectors`` lists ``(x, x^t A x)`` for every nonzero x, in coordinates
    over the reduced basis, with ``x^t A x <= bound``, one of each pair +-x
    (the one whose last nonzero coordinate is positive), in the walk's
    order; ``nodes`` counts the coordinate values the walk tried.  The walk
    stops once it has listed ``cap + 1`` vectors.

    Fincke-Pohst (Math. Comp. 44, 1985): with B_i = d_i / d_(i-1) and
    mu_ji = lam_ji / d_i, ``x^t A x = sum_i B_i (x_i + sum_(j>i) mu_ji x_j)^2``,
    fixed from the last coordinate down.  ``N_i = d_(i-1) T_i``, T_i the sum
    from i on, is an integer: it is the Gram determinant of b_1..b_(i-1) and
    ``sum_(j>=i) x_j b_j``.  With ``s = sum_(j>i) lam_ji x_j`` and
    ``y = d_i x_i + s``, ``N_i = (d_(i-1) N_(i+1) + y^2) / d_i`` exactly, and
    ``T_i <= bound`` reads ``y^2 <= d_(i-1) (bound d_i - N_(i+1))``: each
    level's range of x_i comes from one integer square root.
    """
    basis, d, lam = reduced
    m = len(basis)
    x = [0] * (m + 1)
    vectors = []
    nodes = 0

    def walk(i, rest, top):
        """Coordinate x_i, given x_(i+1)..x_m and ``rest`` = N_(i+1); ``top``
        while they are all zero, when x_i may not be negative; True past ``cap``."""
        nonlocal nodes
        s = sum(lam[j][i] * x[j] for j in range(i + 1, m + 1) if x[j])
        di, dp = d[i], d[i - 1]
        r = isqrt(dp * (bound * di - rest))
        lo = 0 if top else -((r + s) // di)
        for v in range(lo, (r - s) // di + 1):
            nodes += 1
            x[i] = v
            y = di * v + s
            norm = (dp * rest + y * y) // di
            if i > 1:
                if walk(i - 1, norm, top and not v):
                    return True
            elif v or not top:
                vectors.append((tuple(x[1:]), norm))
                if len(vectors) > cap:
                    return True
        x[i] = 0

    if m and bound >= 0:
        walk(m, 0, True)
    return vectors, nodes


def isometry(t1, t2, kind):
    """``(certificate, nodes, refuted_by)``: ``iso`` or ``mirror`` decided by an
    isometry search of the Narain lattices.

    As ``N = -q calI calJ``, the certificates are the g that carry N, q and
    each ``N1 S1`` to ``N2 S2`` (Plesken and Souvignier, J. Symb. Comput. 24,
    1997), and such a g carries ``S1 v`` to ``S2 g v``: the images of a few
    generators fix it.  They are the LLL-reduced source vectors, shortest
    first, whose rows ``v^t A`` under these forms raise the rank.  Both
    lattices' vectors up to the generators' largest N-norm are listed: norms
    that differ refute, and past :data:`SPECTRUM_LIMIT` the pair is
    undecided (certificate and ``refuted_by`` both None).  Each generator
    goes to a listed vector of its N- and q-norms whose products with the
    images before it match (the first up to sign, as -g is a certificate
    when g is).  The generators' rows R1 and their images' rows R2 give
    ``g^-1 = R1^-1 R2`` and ``g = q g^-t q``, with R1 inverted once by
    :meth:`~flattori.exactlinear.RatMatrix.inverse`; the first integral g is
    checked once by :func:`~flattori.relations.certified`, and running out
    refutes.  ``nodes`` counts the walks' nodes and the candidates tried.
    """
    n, half = 4 * t1.d, 2 * t1.d
    (d1, n1), (d2, n2) = ((doubled(t), narain_form(t)) for t in (t1, t2))
    den, *narain = cleared(n1, n2)
    # the int forms N, q and each N S (scaled by a common D), per side, by columns
    sides = zip(narain, (d1.q.num, d2.q.num), *(
        cleared(n1 * getattr(d1, src), n2 * getattr(d2, tgt))[1:]
        for _, src, tgt in RELATIONS[kind]))
    columns = [[list(zip(*form)) for form in side] for side in sides]

    def images(v, side):  # the rows v^t A of the forms of one side
        return [[sum(map(mul, v, col)) for col in form] for form in columns[side]]

    reduced = lll(narain[0])
    gens, rows, picked = [], [], []  # picked: (generator, form) of each row of R1
    # shortest first, ties last first (so the square self-mirror is the swap on e1)
    for b in sorted(reduced[0][::-1], key=lambda b: sum(map(mul, images(b, 0)[0], b))):
        for f, r in enumerate(images(b, 0)):
            if len(bareiss([*rows, r])[0]) > len(rows):
                rows.append(r)
                picked.append((len(gens), f))
        if picked and picked[-1][0] == len(gens):
            gens.append(b)
        if len(rows) == n:
            break
    k = len(gens)
    gram = [[tuple(sum(map(mul, r, b)) for r in images(u, 0)) for b in gens] for u in gens]
    bound = max(gram[j][j][0] for j in range(k))
    source, nodes = fincke_pohst(reduced, bound, SPECTRUM_LIMIT)
    target_basis, target, walked = short_vectors(narain[1], bound, SPECTRUM_LIMIT)
    nodes += walked
    if max(len(source), len(target)) > SPECTRUM_LIMIT:
        return None, nodes, None
    listed = f"vectors up to sign of N-norm at most {ratio_str(bound, den)}"
    if sorted(s for _, s in source) != sorted(s for _, s in target):
        why = f"the N-norms of their {len(source)} and {len(target)} {listed} differ"
    else:
        keys = [gram[j][j][:2] for j in range(k)]
        norms, by_norms = {key[0] for key in keys}, {}
        for x, s in reversed(target):
            if s in norms:
                v = [sum(c * row[t] for c, row in zip(x, target_basis) if c) for t in range(n)]
                by_norms.setdefault((s, 2 * sum(map(mul, v[:half], v[half:]))), []).append(v)
        # one signed list per norm pair, shared by the generators that need it
        signed = {key: [*by_norms.get(key, ()), *([-x for x in v] for v in by_norms.get(key, ()))]
                  for key in keys[1:]}
        candidates = [by_norms.get(keys[0], []), *map(signed.get, keys[1:])]
        inverse = RatMatrix.over(1, rows).inverse()  # num R1 = den times the identity
        placed = []  # (image, its rows v^t A)

        def place(j):
            nonlocal nodes
            if j == k:
                # g^-1 = R1^-1 R2, integral exactly when g is
                cols, h = list(zip(*(placed[i][1][f] for i, f in picked))), []
                for p in inverse.num:
                    h.append([sum(map(mul, p, col)) for col in cols])
                    if any(x % inverse.den for x in h[-1]):
                        return None
                return [[h[(c + half) % n][(r + half) % n] // inverse.den for c in range(n)]
                        for r in range(n)]
            for v in candidates[j]:
                nodes += 1
                if all(sum(map(mul, r, v)) == want for i, (_, rows_i) in enumerate(placed)
                       for r, want in zip(rows_i, gram[i][j])):
                    placed.append((v, images(v, 1)))
                    g = place(j + 1)
                    if g:
                        return g
                    placed.pop()
            return None

        g = place(0)
        if g:
            cert = certified(LatticeMap(g=RatMatrix(g), source=t1, target=t2, kind=kind))
            return cert, nodes, None
        why = f"{len(target)} {listed}"
    return None, nodes, f"{NARAIN_ISOMETRY}: {why}, {nodes} nodes"


COMMAND_KINDS = {"check-iso": "iso", "check-mirror": "mirror"}


def cmd_search(args):
    """``check-iso`` and ``check-mirror``: :func:`isometry`, which reads neither
    ``--bound`` nor ``--budget``; both are checked and ``bound`` echoed as for
    ``check-derived-eq``."""
    t1 = jsonio.load_torus(args.source)
    t2 = jsonio.load_torus(args.target)
    if t2.d != t1.d:
        raise SchemaError(f"tori must have the same dimension, got {t1.d} and {t2.d}",
                          f"{os.path.basename(args.target)}.d")
    for name, value in (("bound", args.bound), ("budget", args.budget)):
        if value < 1:
            raise SchemaError(f"{name} must be at least 1, got {jsonio.echo(value)}")
    inputs = {"source": jsonio.torus_to_json(t1), "target": jsonio.torus_to_json(t2),
              "bound": args.bound}
    cert, nodes, refuted_by = isometry(t1, t2, COMMAND_KINDS[args.command])
    if cert:
        return inputs, {"found": True, "certificate": jsonio.certificate_to_json(cert),
                        "nodes": nodes}, 0
    if refuted_by:
        return inputs, {"found": False, "verdict": "refuted", "nodes": nodes,
                        "refuted_by": refuted_by}, 1
    print(f"limit exceeded: a Narain ball of the isometry search holds more than "
          f"{SPECTRUM_LIMIT} vectors up to sign, the limit", file=sys.stderr)
    return inputs, {"found": False, "verdict": "undecided", "nodes": nodes,
                    "limit": SPECTRUM_LIMIT}, 1
