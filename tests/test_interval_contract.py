"""The domain's slotted `Interval` against its frozen-dataclass reference,
`interval_reference.py`: equal `==`, `hash`, `repr` and `str`, equal
results (operand identity and the shared Top and bottom included) from
every lattice and arithmetic operation, the same `ValueError` for bounds
out of order, and the same `AttributeError` on a write.  Also: the
constants of `Interval.const` in its table are shared objects."""
from __future__ import annotations

import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import interval_reference as ref
from relaxcheck import domain
from relaxcheck.domain import NEG_INF, POS_INF, Interval

MANY = settings(max_examples=300, deadline=None)

_bounds = st.one_of(st.integers(-300, 300),
                    st.sampled_from([NEG_INF, POS_INF]))


@st.composite
def fields(draw) -> tuple:
    """(lo, hi, is_bottom) of a valid interval: ordered bounds, or bottom
    with any bounds."""
    lo, hi = draw(_bounds), draw(_bounds)
    if draw(st.integers(0, 7)) == 0:
        return lo, hi, True
    return min(lo, hi), max(lo, hi), False


@st.composite
def pairs(draw):
    """Two intervals built from the same fields on both sides, ((a, b),
    (ref_a, ref_b)); b is sometimes a itself."""
    fa = draw(fields())
    fb = fa if draw(st.booleans()) else draw(fields())
    a, ra = Interval(*fa), ref.Interval(*fa)
    if draw(st.integers(0, 4)) == 0:
        return (a, a), (ra, ra)
    return (a, Interval(*fb)), (ra, ref.Interval(*fb))


def outcome(f, *args):
    """What a call gives: its result's repr, or the exception it raises."""
    try:
        return repr(f(*args))
    except Exception as e:  # compared, not handled
        return type(e).__name__, str(e)


@MANY
@given(pairs(), st.integers(-310, 310))
def test_equality_hash_repr_and_str_equal_the_reference(pair, v):
    (a, b), (ra, rb) = pair
    assert (a == b) == (ra == rb)
    assert (a != b) == (ra != rb)
    assert hash(a) == hash(ra) == hash((a.lo, a.hi, a.is_bottom))
    assert repr(a) == repr(ra)
    assert str(a) == str(ra)
    assert a.is_top() == ra.is_top()


@MANY
@given(pairs())
def test_operations_equal_the_reference(pair):
    (a, b), (ra, rb) = pair
    assert a.leq(b) == ra.leq(rb)
    for name in ("join", "meet", "widen", "add", "sub", "mul"):
        r, rr = getattr(a, name)(b), getattr(ra, name)(rb)
        assert repr(r) == repr(rr), name
        # an operand or a shared value comes back on both sides alike
        assert (r is a, r is b, r is domain._TOP, r is domain._BOTTOM) == (
            rr is ra, rr is rb, rr is ref._TOP, rr is ref._BOTTOM), name


def test_bottom_is_not_the_zero_interval():
    for m in (domain, ref):
        assert m.Interval.bottom() != m.Interval(0, 0)
        assert m.Interval.bottom() == m.Interval(0, 0, is_bottom=True)
        assert m.Interval.bottom().is_bottom


_out_of_order = st.one_of(
    st.tuples(st.integers(-300, 300), st.integers(1, 3)).map(
        lambda t: (t[0] + t[1], t[0])),
    st.tuples(_bounds, _bounds).filter(lambda t: t[0] > t[1]))


@MANY
@given(_out_of_order)
def test_bounds_out_of_order_raise_value_error(bounds):
    lo, hi = bounds
    assert outcome(Interval, lo, hi) == outcome(ref.Interval, lo, hi)
    with pytest.raises(ValueError):
        Interval(lo, hi)


@MANY
@given(fields())
def test_writes_and_deletes_raise_attribute_error(f):
    for x in (Interval(*f), ref.Interval(*f)):
        for name in ("lo", "hi", "is_bottom", "other"):
            with pytest.raises(AttributeError):
                setattr(x, name, 1)
            with pytest.raises(AttributeError):
                delattr(x, name)
        assert (x.lo, x.hi, x.is_bottom) == f


@MANY
@given(fields())
def test_pickle_and_copy_keep_the_value(f):
    x = Interval(*f)
    for y in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
        assert y == x and repr(y) == repr(x)


def test_const_in_the_table_is_one_shared_object():
    table = range(domain._CONST_MIN, domain._CONST_MAX + 1)
    assert -1 in table and 0 in table and 255 in table
    for v in table:
        assert Interval.const(v) is Interval.const(v)
        assert repr(Interval.const(v)) == repr(ref.Interval.const(v))
    # outside the table: equal values, a new object each time, so the
    # table does not grow with the input
    for v in (domain._CONST_MIN - 1, domain._CONST_MAX + 1, 10**9):
        assert Interval.const(v) == Interval(v, v)
        assert repr(Interval.const(v)) == repr(ref.Interval.const(v))
        assert Interval.const(v) is not Interval.const(v)
