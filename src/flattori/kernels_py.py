"""The certificate-search inner loop, in Python integers.

Candidates are integer coordinate vectors over a basis of integral
intertwiner matrices.  The canonical enumeration order is:

    for height h = 1..bound            (exact max-norm shells)
      for support size s = 1..K
        for index combinations in lexicographic order
          for digit tuples in (1, -1, 2, -2, ..., h, -h)^s lex order,
              keeping only tuples whose maximum magnitude equals h

so shells 1..h hold ``(2h+1)^K - 1`` candidates.  A candidate
``g = sum c_i M_i`` survives when it satisfies the exact congruence
``g^t q g = q`` with the split pairing q (which forces ``det g = +-1``);
survivors are returned in order.

The congruence is ``n(n+1)/2`` integer quadratic forms in c, one per entry
``a <= b`` of ``g^t q g``.  They are packed into one integer form by
Kronecker substitution, ``F(c) = sum_{a<=b} W^e(a,b) (g^t q g)_ab``, with
``W > 2 (bound^2 max_{a<=b} sum_r (A_ra A_r+h,b + A_r+h,a A_rb) + 1)``, where
``A = sum |M_i|`` entrywise and h = n/2.  Every entry of ``g^t q g - q`` then
has magnitude below W/2, so ``F(c) = F_q`` (the packed q) holds exactly when
every entry matches.  ``F`` is a K x K integer form built once per search;
the scan walks the digits of each support depth first, carrying the prefix
value and the linear terms of the positions still to come, so a candidate
costs ``value + x*(lin + x*D)``: O(1) amortised integer work.  A hit is
kept as its coordinates; the caller checks the map they give once, with
:func:`flattori.equivalence.verify_map`.  Arithmetic is in Python integers,
so large basis entries cannot overflow.
"""

from __future__ import annotations

from itertools import combinations


def _digit_values(height):
    vals = []
    for a in range(1, height + 1):
        vals.extend((a, -a))
    return vals


def completed_height(k, nodes):
    """The last height whose whole shell lies in the first ``nodes`` candidates (0 if none)."""
    h = 0
    while (2 * h + 3) ** k - 1 <= nodes:
        h += 1
    return h


def split_pairing(n):
    """The split pairing q on Z^n as sparse rows: row c is ``e_{c + n/2 mod n}``."""
    return [[((c + n // 2) % n, 1)] for c in range(n)]


def frobenius_gram(basis_flat, n, right):
    """The integer K x K matrix ``X_ij = <M_i, q M_j R>`` (Frobenius product).

    ``basis_flat`` holds the M_i flattened row-major and ``right`` the rows of
    a symmetric R as ``(column, value)`` pairs of its nonzero entries; X is
    then symmetric, and only ``i <= j`` is summed.  Row s of M_j is row s + h
    (mod n, h = n/2) of ``q M_j``, so the sums run over the nonzero entries of
    the basis and of each row of R only.
    """
    half = n // 2
    sparse = [[(t, v) for t, v in enumerate(m) if v] for m in basis_flat]
    k = len(basis_flat)
    gram = [[0] * k for _ in range(k)]
    for j, mj in enumerate(sparse):
        y = [0] * (n * n)
        for t, v in mj:
            base = (t // n + half) % n * n
            for x, w in right[t % n]:
                y[base + x] += v * w
        for i in range(j + 1):
            gram[i][j] = gram[j][i] = sum(v * y[t] for t, v in sparse[i])
    return gram


def packed_form(basis_flat, n, bound):
    """``(X, target)`` with ``F(c) = sum_i X_ii/2 c_i^2 + sum_{i<j} X_ij c_i c_j``.

    X is :func:`frobenius_gram` with R symmetric, ``R_ab = W^e(a,b)`` off the
    diagonal and ``2 W^e(a,a)`` on it; ``target`` is F at any c with
    ``g^t q g = q``.  Valid for candidates of max-norm at most ``bound``.
    """
    half = n // 2
    size = n * n
    a = [sum(abs(m[t]) for m in basis_flat) for t in range(size)]
    worst = max(sum(a[r * n + x] * a[(r + half) * n + y] + a[(r + half) * n + x] * a[r * n + y]
                    for r in range(half))
                for x in range(n) for y in range(x, n))
    w = 1 << (2 * (bound * bound * worst + 1)).bit_length()
    weight = [[0] * n for _ in range(n)]
    power = 1
    target = 0
    for x in range(n):
        for y in range(x, n):
            weight[x][y] = weight[y][x] = power
            if y - x == half:
                target += power
            power *= w
        weight[x][x] *= 2
    return frobenius_gram(basis_flat, n, [list(enumerate(row)) for row in weight]), target


def run_filter(basis_flat, n, bound, budget, max_hits=1):
    """Enumerate candidates in canonical order and keep congruence survivors.

    Returns ``(hits, nodes, exhausted)`` where hits is a list of coordinate
    tuples (length K) in candidate order, nodes the number of candidates
    evaluated, and exhausted is True when the whole grid of max-norm <= bound
    was covered (False when the budget or the hit cap stopped the scan).
    """
    k = len(basis_flat)
    nodes = 0
    hits = []
    if k == 0 or bound < 1:
        return hits, nodes, True
    form, target = packed_form(basis_flat, n, bound)
    diag = [form[i][i] // 2 for i in range(k)]
    digits = [0] * k  # digits[t] is the digit at pos[t] on the current path

    def hit(pos):
        coords = [0] * k
        for p, c in zip(pos, digits):
            coords[p] = c
        hits.append(tuple(coords))
        return len(hits) >= max_hits

    # The walk reads the current height's h, every (all its digits) and tops
    # (+-h) from the loop below; it returns True when the scan must stop.

    def leaves(pos, c, lin, dq, block):
        """The last digit x, over ``block``: ``F - target = c + x*(lin + x*dq)``."""
        nonlocal nodes
        room = budget - nodes
        cut = room < len(block)
        if cut:
            block = block[:max(room, 0)]
        for i, x in enumerate(block):
            if c + x * (lin + x * dq) == 0:
                digits[len(pos) - 1] = x
                if hit(pos):
                    nodes += i + 1
                    return True
        nodes += len(block)
        return cut

    def walk(pos, t, value, lin, full):
        """Digits of ``pos[t:]`` below a fixed prefix (t < len(pos) - 1).

        ``value`` is F on the prefix, ``lin[u]`` the coefficient the prefix
        gives the digit at ``pos[t + u]``, ``full`` whether it holds a +-h;
        without one, the last digit can only be +-h.
        """
        p = pos[t]
        dp = diag[p]
        row = form[p]
        lp = lin[0]
        if t == len(pos) - 2:
            q = pos[-1]
            dq, lq, rq = diag[q], lin[1], row[q]
            for x in every:
                digits[t] = x
                if leaves(pos, value + x * (lp + x * dp) - target, lq + x * rq, dq,
                          every if full or x == h or x == -h else tops):
                    return True
            return False
        rest = pos[t + 1:]
        tail = lin[1:]
        for x in every:
            digits[t] = x
            if walk(pos, t + 1, value + x * (lp + x * dp),
                    [l + x * row[u] for l, u in zip(tail, rest)], full or x == h or x == -h):
                return True
        return False

    for h in range(1, bound + 1):
        every = _digit_values(h)
        tops = [h, -h]
        for s in range(1, k + 1):
            zeros = [0] * s
            for pos in combinations(range(k), s):
                if (walk(pos, 0, 0, zeros, False) if s > 1
                        else leaves(pos, -target, 0, diag[pos[0]], tops)):
                    return hits, nodes, False
    return hits, nodes, True
