"""The value classes behave as frozen records: equal only to an object of
their own class with equal fields (``SlotTable`` only to itself), hashed on
the field tuple, printed ``Name(field=value, ...)``, closed to setting and
deleting attributes, pickled without the cached hash, and validated by
``__post_init__`` on construction.  ``qcb.cli`` loads none of ``dataclasses``,
``inspect`` or ``typing`` in a bare interpreter."""

import os
import pickle
import subprocess
import sys
import types

import pytest

from qcb.canonical import APath, CanonicalMatrix, canonical_matrix
from qcb.checks import CheckResult
from qcb.crystal import SpinColumn, Word
from qcb.rootdata import AlgebraKind, letters_hash_key
from qcb.shapes import Column, Shape, SlotTable, highest_tabloid, shape_for_lambda

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

B3 = AlgebraKind("B", 3)
D4 = AlgebraKind("D", 4)
TOP = highest_tabloid(shape_for_lambda((1, 0, 1), B3))
M = canonical_matrix((1, 0), AlgebraKind("B", 2), weight2=(0, 0))


def _key(**fields):
    return tuple(fields.values())


def _letters_key(kind, letters, **rest):
    return (kind, letters_hash_key(letters), *rest.values())


# (class, its fields by name, one field changed, the tuple its hash is taken over)
VALUES = [
    (AlgebraKind, dict(family="D", rank=4, experimental=False), dict(rank=5), _key),
    (SpinColumn, dict(kind=B3, barred=frozenset({2})), dict(barred=frozenset({1})), _key),
    (Word, dict(kind=B3, letters=(1, -2), spin=SpinColumn(B3, frozenset())), dict(letters=(1, 2)), _letters_key),
    (Column, dict(kind=B3, letters=(1, -1)), dict(letters=(1, 2)), _letters_key),
    (Shape, dict(kind=D4, heights=(4, 2), spin_class="D-", d_sign="+"), dict(d_sign="-"), _key),
    (APath, dict(steps=((3, 1), (2, 1)), direct=False, base=TOP, intermediates=(TOP,)), dict(direct=True), _key),
    (CanonicalMatrix, {f: getattr(M, f) for f in ("kind", "lam", "weight2", "rows", "cols", "entries", "gamma")}, dict(weight2=None), _key),
    (CheckResult, dict(name="laurent.bar_involution", ok=True), dict(ok=False), _key),
]
SLOT = dict(fillings=(Column(B3, (1,)),), index={Column(B3, (1,)): 0}, weights=((2, 0, 0),), texts=("1",), powers={1: [None]})
ALL = [(cls, fields) for cls, fields, _, _ in VALUES] + [(SlotTable, SLOT)]
IDS = [cls.__name__ for cls, _ in ALL]


def _hash_or_error(x):
    try:
        return hash(x)
    except TypeError as exc:  # a field holds a dict
        return str(exc)


@pytest.mark.parametrize("cls,fields,changed,key", VALUES, ids=IDS[:-1])
def test_equal_only_to_its_own_class_with_equal_fields(cls, fields, changed, key):
    a, b = cls(**fields), cls(*fields.values())
    assert a is not b and a == b and not a != b
    assert _hash_or_error(a) == _hash_or_error(b) == _hash_or_error(key(**fields))
    assert a != types.SimpleNamespace(**fields) and a != tuple(fields.values())
    assert a != cls(**{**fields, **changed})


def test_slot_table_is_equal_only_to_itself():
    a, b = SlotTable(**SLOT), SlotTable(**SLOT)
    assert a == a and a != b and hash(a) == object.__hash__(a)


@pytest.mark.parametrize("cls,fields", ALL, ids=IDS)
def test_repr_names_each_field(cls, fields):
    want = f"{cls.__name__}(" + ", ".join(f"{k}={v!r}" for k, v in fields.items()) + ")"
    assert repr(cls(**fields)) == want


def test_repr_text():
    assert repr(Column(B3, (1, 0))) == "Column(kind=AlgebraKind(family='B', rank=3, experimental=False), letters=(1, 0))"
    assert repr(CheckResult("crystal.edge_symmetry", False)) == "CheckResult(name='crystal.edge_symmetry', ok=False)"


@pytest.mark.parametrize("cls,fields", ALL, ids=IDS)
def test_attributes_cannot_be_set_or_deleted(cls, fields):
    value = cls(**fields)
    name = next(iter(fields))
    for attempt in (lambda: setattr(value, name, None), lambda: delattr(value, name), lambda: setattr(value, "extra", 1)):
        with pytest.raises(AttributeError):
            attempt()
    assert getattr(value, name) is fields[name]


@pytest.mark.parametrize("cls,fields", ALL, ids=IDS)
def test_pickle_round_trip_leaves_the_cached_hash_behind(cls, fields):
    value = cls(**fields)
    _hash_or_error(value)
    back = pickle.loads(pickle.dumps(value))
    assert type(back) is cls and repr(back) == repr(value) and "_hash" not in vars(back)
    if cls is not SlotTable:
        assert back == value and _hash_or_error(back) == _hash_or_error(value)


@pytest.mark.parametrize("cls,fields", ALL, ids=IDS)
def test_post_init_runs_on_construction(cls, fields, monkeypatch):
    seen = []
    post_init = cls.__post_init__
    monkeypatch.setattr(cls, "__post_init__", lambda self: seen.append(vars(self).copy()) or post_init(self))
    cls(**fields)
    assert [{k: v for k, v in s.items() if k in fields} for s in seen] == [fields]


def test_bare_interpreter_loads_no_dataclass_machinery():
    """``python -S``: with no ``site``, importing the CLI loads only what qcb itself needs."""
    code = "import sys, qcb.cli; print(*sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-S", "-c", code], env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, check=True)
    assert out.stdout.split() == []
