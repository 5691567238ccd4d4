"""Constructor-level interning of logical types.

The contract: interning is a pure optimisation.  ``__eq__``/``__hash__``
semantics are untouched, and -- critically -- the *strict equality* rules
of :mod:`repro.spec.compat` are preserved: anonymous structural twins must
remain distinct objects, because ``strictly_equal`` distinguishes them.
"""

from __future__ import annotations

import pickle

import pytest

from repro.spec import logical_types
from repro.spec.compat import strictly_equal, structurally_equal
from repro.spec.logical_types import (
    Bit,
    Group,
    Null,
    Stream,
    Union,
    _InternedTypeMeta,
    clear_intern_table,
    intern_table_size,
    rendered_tydi,
)


@pytest.fixture(autouse=True)
def _fresh_table():
    clear_intern_table()
    yield
    clear_intern_table()


class TestInterning:
    def test_primitives_are_interned(self):
        assert Bit(8) is Bit(8)
        assert Null() is Null()
        assert Bit(8) is not Bit(16)

    def test_named_compounds_are_interned(self):
        a = Group.of("pair", x=Bit(8), y=Bit(8))
        b = Group.of("pair", x=Bit(8), y=Bit(8))
        assert a is b
        u1 = Union.of("either", l=Bit(8), r=Bit(4))
        u2 = Union.of("either", l=Bit(8), r=Bit(4))
        assert u1 is u2

    def test_streams_of_primitives_are_interned(self):
        assert Stream(Bit(8), dimension=1) is Stream(Bit(8), dimension=1)
        assert Stream(Bit(8), dimension=1) is not Stream(Bit(8), dimension=2)

    def test_anonymous_compounds_are_not_interned(self):
        a = Group.of(None, x=Bit(8))
        b = Group.of(None, x=Bit(8))
        assert a is not b
        assert a == b  # structural dataclass equality is untouched
        u1 = Union.of(None, l=Bit(8))
        u2 = Union.of(None, l=Bit(8))
        assert u1 is not u2

    def test_streams_of_anonymous_compounds_are_not_interned(self):
        s1 = Stream(Group.of(None, x=Bit(8)))
        s2 = Stream(Group.of(None, x=Bit(8)))
        assert s1 is not s2
        assert s1 == s2

    def test_invalid_constructions_never_intern(self):
        from repro.errors import TydiTypeError

        size = intern_table_size()
        with pytest.raises(TydiTypeError):
            Bit(0)
        assert intern_table_size() == size


class TestStrictEqualitySemanticsPreserved:
    def test_anonymous_structural_twins_stay_strictly_unequal(self):
        a = Group.of(None, x=Bit(8))
        b = Group.of(None, x=Bit(8))
        assert structurally_equal(a, b)
        assert not strictly_equal(a, b)

    def test_streams_around_anonymous_twins_stay_strictly_unequal(self):
        s1 = Stream(Group.of(None, x=Bit(8)), dimension=1)
        s2 = Stream(Group.of(None, x=Bit(8)), dimension=1)
        assert structurally_equal(s1, s2)
        assert not strictly_equal(s1, s2)

    def test_named_twins_are_strictly_equal_and_shared(self):
        a = Group.of("t", x=Bit(8))
        b = Group.of("t", x=Bit(8))
        assert strictly_equal(a, b)
        assert a is b

    def test_identity_fast_path_matches_deep_comparison(self):
        s = Stream(Bit(8), dimension=1)
        assert structurally_equal(s, Stream(Bit(8), dimension=1))
        assert strictly_equal(s, Stream(Bit(8), dimension=1))


class TestTableManagement:
    def test_capacity_overflow_clears_table(self):
        capacity = _InternedTypeMeta._INTERN_CAPACITY
        try:
            _InternedTypeMeta._INTERN_CAPACITY = 4
            clear_intern_table()
            for width in range(1, 10):
                Bit(width)
            assert intern_table_size() <= 5  # cleared at least once
            # Interning still works after a clear.
            assert Bit(123) is Bit(123)
        finally:
            _InternedTypeMeta._INTERN_CAPACITY = capacity

    def test_clear_intern_table(self):
        Bit(8)
        assert intern_table_size() > 0
        clear_intern_table()
        assert intern_table_size() == 0


class TestRenderedTydi:
    """``rendered_tydi`` memoises ``to_tydi()`` per type object."""

    def test_matches_to_tydi_and_repr_is_unchanged(self):
        anonymous = Stream(Group.of(None, x=Bit(8), y=Bit(4)), dimension=2)
        for logical_type in (Bit(8), Null(), anonymous, Union.of("u", a=Bit(2), b=Bit(3))):
            assert rendered_tydi(logical_type) == logical_type.to_tydi()
            assert str(logical_type) == logical_type.to_tydi()
            assert repr(logical_type) == f"{type(logical_type).__name__}({logical_type.to_tydi()})"

    def test_table_is_bounded(self, monkeypatch):
        monkeypatch.setattr(logical_types, "_RENDERED_CAPACITY", 4)
        logical_types._rendered.clear()
        for width in range(1, 10):
            assert rendered_tydi(Bit(width)) == f"Bit({width})"
        assert len(logical_types._rendered) <= 4

    def test_memo_stays_out_of_pickles(self):
        logical_type = Stream(Group.of(None, x=Bit(8)), dimension=1)
        before = pickle.dumps(logical_type)
        rendered_tydi(logical_type)
        repr(logical_type)
        assert pickle.dumps(logical_type) == before


class TestPickle:
    def test_round_trip_preserves_equality(self):
        original = Stream(Group.of("g", x=Bit(8), y=Bit(4)), dimension=2)
        clone = pickle.loads(pickle.dumps(original))
        assert clone == original
        assert structurally_equal(clone, original)
        assert strictly_equal(clone, original)

    def test_sharing_within_one_payload_survives(self):
        shared = Group.of("g", x=Bit(8))
        payload = pickle.loads(pickle.dumps((shared, shared)))
        assert payload[0] is payload[1]
