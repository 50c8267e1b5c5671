"""The immutable record base, on the package's own record classes."""

from fractions import Fraction

import pytest

from flattori import torus
from flattori.equivalence import MapCheck, SearchOutcome
from flattori.errors import DimensionError
from flattori.exactlinear import RatMatrix
from flattori.fock import TruncatedFock, build_oscillator
from flattori.torus import TorusData, ValidationCheck, square_torus


@pytest.fixture
def space():
    return TruncatedFock(1, Fraction(1), RatMatrix.identity(2))


class TestImmutable:
    @pytest.mark.parametrize("name", ["d", "label", "validation", "new_attribute"])
    def test_assignment_and_deletion_raise(self, name):
        t = square_torus(1)
        with pytest.raises(AttributeError):
            setattr(t, name, 2)
        with pytest.raises(AttributeError):
            delattr(t, name)

    def test_oscillator_fields_are_immutable(self, space):
        op = build_oscillator(space, "alpha", 0, -1)
        with pytest.raises(AttributeError):
            op.scale = 2
        with pytest.raises(AttributeError):
            del op._column_fn


class TestEqualityAndHash:
    def test_equal_fields_are_equal_and_hash_alike(self):
        a = SearchOutcome("refuted", 0, refuted_by="x")
        b = SearchOutcome(verdict="refuted", nodes_used=0, refuted_by="x")
        assert a == b and hash(a) == hash(b)
        assert a != SearchOutcome("refuted", 1, refuted_by="x")
        assert len({MapCheck("q", True), MapCheck("q", True), MapCheck("q", False)}) == 2

    def test_other_types_are_not_compared(self):
        check = MapCheck("q", True)
        assert check.__eq__(ValidationCheck("q", True)) is NotImplemented
        assert check != ValidationCheck("q", True)
        assert check.__eq__(("q", True)) is NotImplemented

    def test_oscillator_column_function_is_not_compared(self, space):
        op = build_oscillator(space, "alpha", 0, -1)
        twin = type(op)(op.space, op.kind, op.index, op.mode, op.scale, _column_fn=None)
        assert op == twin and hash(op) == hash(twin)
        assert op.int_column(0) == op.int_column(0)
        assert twin._cols == {}
        assert op != build_oscillator(space, "alpha", 1, -1)


class TestRepr:
    def test_fields_in_order(self):
        assert repr(MapCheck("preserves_q", True)) == "MapCheck(name='preserves_q', ok=True)"
        assert repr(SearchOutcome("undecided", 5, last_complete_height=1)) == (
            "SearchOutcome(verdict='undecided', nodes_used=5, certificate=None, "
            "last_complete_height=1, refuted_by=None)")
        assert repr(square_torus(1, "sq")) == (
            "TorusData(d=1, I=RatMatrix[0 -1; 1 0], G=RatMatrix[1 0; 0 1], "
            "B=RatMatrix[0 0; 0 0], label='sq')")

    def test_underscored_fields_are_hidden(self, space):
        op = build_oscillator(space, "psi", 1, Fraction(-1, 2))
        assert repr(op) == (
            f"OscillatorOp(space={space!r}, kind='psi', index=1, mode=Fraction(-1, 2), "
            "scale=1)")


class TestConstruction:
    def test_defaults_apply(self):
        out = SearchOutcome("none within bound", 9)
        assert (out.certificate, out.last_complete_height, out.refuted_by) == (None, None, None)
        s = square_torus(1)
        assert TorusData(1, s.I, s.G, s.B).label == ""

    @pytest.mark.parametrize("args, kwargs", [
        (("q",), {}),
        (("q", True), {"extra": 1}),
        (("q", True, 3), {}),
        (("q",), {"name": "r"}),
        ((), {"ok": True}),
    ])
    def test_missing_unknown_or_repeated_fields_raise(self, args, kwargs):
        with pytest.raises(TypeError):
            MapCheck(*args, **kwargs)

    def test_post_init_still_checks(self):
        t = square_torus(1)
        with pytest.raises(DimensionError):
            TorusData(2, t.I, t.G, t.B)


def test_validation_is_computed_once(monkeypatch):
    calls = []
    real = torus.validate
    monkeypatch.setattr(torus, "validate", lambda t: calls.append(t) or real(t))
    t = square_torus(1)
    first = t.validation
    assert t.validation is first and t.ginv is t.ginv
    torus.require_valid(t)
    assert calls == [t]
