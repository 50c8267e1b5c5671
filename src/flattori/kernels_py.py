"""The certificate-search inner loop, in Python integers.

Candidates are integer coordinate vectors over a basis of integral
intertwiner matrices.  The canonical enumeration order is:

    for height h = 1..bound            (exact max-norm shells)
      for support size s = 1..K
        for index combinations in lexicographic order
          for digit tuples in (1, -1, 2, -2, ..., h, -h)^s lex order,
              keeping only tuples whose maximum magnitude equals h

Each enumerated candidate ``g = sum c_i M_i`` is checked for the exact
congruence ``g^t q g = q`` with the split pairing q (which forces
``det g = +-1``); survivors are returned in order.  Arithmetic is in
Python integers, so large basis entries cannot overflow.
"""

from __future__ import annotations

from itertools import combinations, product


def _digit_values(height):
    vals = []
    for a in range(1, height + 1):
        vals.extend((a, -a))
    return vals


def congruence_ok(gflat, n):
    """Exact check of ``g^t q g == q`` for the split pairing on Z^n (n = 4d)."""
    half = n // 2
    for a in range(n):
        for b in range(a, n):
            s = 0
            for i in range(half):
                s += gflat[i * n + a] * gflat[(i + half) * n + b]
                s += gflat[(i + half) * n + a] * gflat[i * n + b]
            want = 1 if abs(a - b) == half else 0
            if s != want:
                return False
    return True


def run_filter(basis_flat, n, bound, budget, max_hits=1):
    """Enumerate candidates in canonical order and keep congruence survivors.

    Returns ``(hits, nodes, exhausted)`` where hits is a list of coordinate
    tuples (length K) in candidate order, nodes the number of candidates
    evaluated, and exhausted is True when the whole grid of max-norm <= bound
    was covered (False when the budget or the hit cap stopped the scan).
    """
    k = len(basis_flat)
    size = n * n
    nodes = 0
    hits = []
    if k == 0:
        return hits, nodes, True
    for h in range(1, bound + 1):
        digits = _digit_values(h)
        for s in range(1, k + 1):
            for pos in combinations(range(k), s):
                mats = [basis_flat[p] for p in pos]
                for dig in product(digits, repeat=s):
                    if max(abs(x) for x in dig) != h:
                        continue
                    if nodes >= budget:
                        return hits, nodes, False
                    nodes += 1
                    g = [0] * size
                    for c, mat in zip(dig, mats):
                        for t in range(size):
                            g[t] += c * mat[t]
                    if congruence_ok(g, n):
                        coords = [0] * k
                        for p, c in zip(pos, dig):
                            coords[p] = c
                        hits.append(tuple(coords))
                        if len(hits) >= max_hits:
                            return hits, nodes, False
    return hits, nodes, True
