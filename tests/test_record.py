"""The immutable record base, on the package's own record classes."""

import importlib
import inspect
import pkgutil
import typing
from fractions import Fraction

import pytest

import flattori
from flattori import torus
from flattori._record import Check, Record, failures
from flattori.equivalence import SearchOutcome
from flattori.errors import DimensionError
from flattori.exactlinear import RatMatrix
from flattori.fock import TruncatedFock, build_oscillator
from flattori.torus import TorusData, square_torus


class _Twin(Record):
    # the fields of Check under another class
    name: str
    ok: bool
    detail: str = ""


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
        assert len({Check("q", True), Check("q", True), Check("q", False)}) == 2

    def test_other_types_are_not_compared(self):
        check = Check("q", True)
        assert check.__eq__(_Twin("q", True)) is NotImplemented
        assert check != _Twin("q", True)
        assert check.__eq__(("q", True)) is NotImplemented

    def test_oscillator_column_function_is_not_compared(self, space):
        op = build_oscillator(space, "alpha", 0, -1)
        twin = type(op)(op.space, op.kind, op.index, op.mode, op.scale, _cols=(),
                        _column_fn=None)
        assert op == twin and hash(op) == hash(twin)
        assert op.int_column(0) == op.int_column(0)
        assert op._cols and twin._cols == ()
        assert op != build_oscillator(space, "alpha", 1, -1)


class TestRepr:
    def test_fields_in_order(self):
        assert repr(Check("preserves_q", True)) == (
            "Check(name='preserves_q', ok=True, detail='')")
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
        (("q", True, "", 3), {}),
        (("q",), {"name": "r"}),
        ((), {"ok": True}),
    ])
    def test_missing_unknown_or_repeated_fields_raise(self, args, kwargs):
        with pytest.raises(TypeError):
            Check(*args, **kwargs)

    def test_post_init_still_checks(self):
        t = square_torus(1)
        with pytest.raises(DimensionError):
            TorusData(2, t.I, t.G, t.B)


def test_failures_are_named_in_order():
    checks = (Check("a", True), Check("b", False, "why"), Check("c", True), Check("d", False))
    assert failures(checks) == ["b", "d"]
    assert failures(checks[:1]) == [] and failures(()) == []


def test_validation_is_computed_once(monkeypatch):
    calls = []
    real = torus.validate
    monkeypatch.setattr(torus, "validate", lambda t: calls.append(t) or real(t))
    t = square_torus(1)
    first = t.validation
    assert t.validation is first and t.ginv is t.ginv
    torus.require_valid(t)
    assert calls == [t]


def _annotated(module):
    """Every function, method and class (for its record fields) that the module defines."""
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield obj
        elif inspect.isclass(obj):
            yield obj
            for attr in vars(obj).values():
                # plain, static and class methods, properties and cached properties
                for func in (attr, getattr(attr, "__func__", None), getattr(attr, "fget", None),
                             getattr(attr, "func", None)):
                    if inspect.isfunction(func):
                        yield func


# an annotation naming a class its module does not import stays a string
# that nothing resolves; the layers cli keeps lazy must stay unimported
@pytest.mark.parametrize("name", sorted(m.name for m in pkgutil.iter_modules(flattori.__path__)))
def test_every_annotation_resolves(name):
    module = importlib.import_module(f"flattori.{name}")
    objs = list(_annotated(module))
    assert objs
    for obj in objs:
        typing.get_type_hints(obj)
