"""Seeded benchmark inputs, built in exact Fraction arithmetic.

Nothing here imports flattori: the inputs depend on the seed alone, so a
change to the program cannot change what it is asked.

A change of lattice basis by an integer unimodular S (new basis vectors
are the columns of S) turns torus data (I, G, B) into
(S^-1 I S, S^t G S, S^t B S); the result is isomorphic to the original by
construction, which is what makes the `certify` pairs certifiable.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def zeros(n):
    return [[Fraction(0)] * n for _ in range(n)]


def matmul(a, b):
    bt = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in bt] for row in a]


def transpose(a):
    return [list(r) for r in zip(*a)]


def inverse(a):
    """Gauss-Jordan inverse of an invertible square Fraction matrix."""
    n = len(a)
    m = [list(map(Fraction, row)) + e for row, e in zip(a, identity(n))]
    for c in range(n):
        p = next(i for i in range(c, n) if m[i][c])
        m[c], m[p] = m[p], m[c]
        piv = m[c][c]
        m[c] = [x / piv for x in m[c]]
        for i in range(n):
            if i != c and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return [row[n:] for row in m]


def block_diag(a, b):
    n, m = len(a), len(b)
    return ([list(r) + [Fraction(0)] * m for r in a]
            + [[Fraction(0)] * n + list(r) for r in b])


def standard_i(d):
    """Rotation by +90 degrees on each coordinate pair: the square torus I."""
    m = zeros(2 * d)
    for k in range(d):
        m[2 * k][2 * k + 1] = Fraction(-1)
        m[2 * k + 1][2 * k] = Fraction(1)
    return m


def torus(d, i, g, b, label):
    return {"d": d, "I": i, "G": g, "B": b, "label": label}


def square(d):
    return torus(d, standard_i(d), identity(2 * d), zeros(2 * d), f"square{d}")


def stretched(d):
    """G = diag(1, 4) on the first pair, square on the rest (d = 1 or 2)."""
    i = [[Fraction(0), Fraction(-2)], [Fraction(1, 2), Fraction(0)]]
    g = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(4)]]
    if d == 2:
        i, g = block_diag(i, standard_i(1)), block_diag(g, identity(2))
    return torus(d, i, g, zeros(2 * d), f"stretched{d}")


def unimodular(rng, n, steps):
    """Product of `steps` elementary shears row_i += +-row_j, never the identity."""
    s = identity(n)
    done = 0
    while done < steps:
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.choice((-1, 1))
        s[i] = [x + c * y for x, y in zip(s[i], s[j])]
        done += 1
    return s


def conjugate(t, s, label):
    st = transpose(s)
    return torus(t["d"], matmul(matmul(inverse(s), t["I"]), s),
                 matmul(matmul(st, t["G"]), s), matmul(matmul(st, t["B"]), s), label)


def random_torus(rng, d, steps):
    """Seeded pair scales, B a seeded rational multiple of omega, a seeded conjugation.

    B = b * omega (omega = G I) keeps both Lagrangian halves of every
    splitting isotropic for B as well, which T-duality needs to recover a
    geometric mirror; a generic skew B makes `mirror` report "recovery
    failed" at d >= 2.
    """
    n = 2 * d
    g = zeros(n)
    for k in range(d):
        c = Fraction(rng.randint(1, 3), rng.randint(1, 3))
        g[2 * k][2 * k] = g[2 * k + 1][2 * k + 1] = c
    i = standard_i(d)
    b = Fraction(rng.choice((-2, -1, 1, 2)), rng.randint(1, 3))
    base = torus(d, i, g, [[b * x for x in row] for row in matmul(g, i)], f"rnd{d}")
    return conjugate(base, unimodular(rng, n, steps), f"rnd{d}")


def _t4():
    """The T4 of the brane acceptance example: I rotates by -90 degrees."""
    i = [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]
    return torus(2, [[Fraction(x) for x in r] for r in i], identity(4), zeros(4), "T4")


def _unit(k):
    return [int(a == k) for a in range(4)]


def branes(rng):
    """Three T4 branes: one accepted, one per rejection reason.

    Returns ``{name: (brane_json, expected_rejection_or_None)}``.  The
    curved Lagrangian spans two unit directions on which omega = G I
    vanishes; the subtorus is any coordinate 3-plane.
    """
    lagrangians = [(0, 2), (0, 3), (1, 2), (1, 3)]
    pair = rng.choice(lagrangians)
    triple = sorted(rng.sample(range(4), 3))
    f_good = [[0, 0, 1, 0], [0, 0, 0, -1], [-1, 0, 0, 0], [0, 1, 0, 0]]

    def brane(vecs, f):
        return {"torus_ref": "T4.json", "Y_basis": vecs,
                "translation": ["0"] * 4, "F": [[str(x) for x in r] for r in f]}

    return {
        "space_filling": (brane([_unit(k) for k in range(4)], f_good), None),
        "lagrangian": (brane([_unit(k) for k in pair], [[0, 1], [-1, 0]]),
                       "curvature_annihilates_foliation"),
        "subtorus3": (brane([_unit(k) for k in triple], [[0] * 3] * 3), "dimension_law"),
    }


def _to_json(t):
    def mat(m):
        return [[str(Fraction(x)) for x in row] for row in m]
    return {"d": t["d"], "I": mat(t["I"]), "G": mat(t["G"]), "B": mat(t["B"]),
            "label": t["label"]}


def generate(seed, out_dir):
    """Write every input torus and brane file for `seed`; return the tori by name."""
    rng = random.Random(seed)
    tori = {}
    for d in (1, 2, 3):
        tori[f"square{d}"] = square(d)
        tori[f"sheared{d}"] = conjugate(square(d), unimodular(rng, 2 * d, d), f"sheared{d}")
    for d in (1, 2):
        tori[f"stretched{d}"] = stretched(d)
    for d in (1, 2, 3):
        rnd = random_torus(rng, d, d)
        tori[f"rnd{d}"] = rnd
        tori[f"basis_rnd{d}"] = conjugate(rnd, unimodular(rng, 2 * d, 1), f"basis_rnd{d}")
    tori["T4"] = _t4()
    for name, t in tori.items():
        with open(os.path.join(out_dir, name + ".json"), "w") as fh:
            json.dump(_to_json(t), fh)
    expected_rejection = {}
    for name, (data, rejection) in branes(rng).items():
        with open(os.path.join(out_dir, f"brane_{name}.json"), "w") as fh:
            json.dump(data, fh)
        expected_rejection[name] = rejection
    return tori, expected_rejection
