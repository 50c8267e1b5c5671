import json
import random
from types import SimpleNamespace

import pytest

from flattori import jsonio
from flattori.exactlinear import Q, RatMatrix
from flattori.exterior import GaussRational
from flattori.torus import TorusData, square_torus


@pytest.fixture
def square1():
    return square_torus(1, "square")


@pytest.fixture
def square2():
    return square_torus(2, "square2")


@pytest.fixture
def stretched1():
    # G = diag(1,4) with the compatible rational complex structure
    return TorusData(
        d=1,
        I=RatMatrix([[0, -2], [Q(1, 2), 0]]),
        G=RatMatrix.diag([1, 4]),
        B=RatMatrix.zero(2, 2),
        label="stretched",
    )


@pytest.fixture
def rng():
    return random.Random(20240817)


def _gauss_eigenvectors(rows, lam):
    """Echelon kernel basis of ``M - lam 1`` over Q(i): the reference oracle.

    Plain Gauss-Jordan elimination on GaussRational scalars, independent of
    RatMatrix, which holds rationals only.  Each basis vector is 1 at its own
    free column and 0 at the other free columns.
    """
    m = [[GaussRational.coerce(x) - (lam if a == b else 0) for b, x in enumerate(row)]
         for a, row in enumerate(rows)]
    ncols = len(m[0])
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i, row in enumerate(m):
            f = row[c]
            if i != r and f:
                m[i] = [a - f * b for a, b in zip(row, m[r])]
        pivots.append(c)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [GaussRational(int(c == fc)) for c in range(ncols)]
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][fc]
        basis.append(tuple(v))
    return basis


@pytest.fixture(scope="session")
def gauss_eigenvectors():
    return _gauss_eigenvectors


@pytest.fixture
def torus_file(tmp_path):
    def write(t, name):
        path = tmp_path / name
        path.write_text(json.dumps(jsonio.torus_to_json(t)))
        return str(path)

    return write


@pytest.fixture
def torus_work(monkeypatch):
    """Record the work each torus costs: validations (by label), doubled builds
    and matrix inversions (the inverted matrices)."""
    from flattori import torus
    work = SimpleNamespace(validated=[], built=0, inverted=[])
    validate, structure, inverse = torus.validate, torus.DoubledStructure, RatMatrix.inverse

    def counted_validate(t):
        work.validated.append(t.label)
        return validate(t)

    def counted_structure(*args):
        work.built += 1
        return structure(*args)

    def counted_inverse(m):
        work.inverted.append(m)
        return inverse(m)

    monkeypatch.setattr(torus, "validate", counted_validate)
    monkeypatch.setattr(torus, "DoubledStructure", counted_structure)
    monkeypatch.setattr(RatMatrix, "inverse", counted_inverse)
    return work
