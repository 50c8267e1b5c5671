import json
import random
from types import SimpleNamespace

import pytest

from flattori import jsonio
from flattori.exactlinear import Q, RatMatrix
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
