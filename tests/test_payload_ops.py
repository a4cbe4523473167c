"""Payload copying/sizing and reduction operators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpi import LAND, LOR, MAX, MAXLOC, MIN, MINLOC, PROD, SUM
from repro.mpi.payload import copy_payload, payload_nbytes


class TestCopyPayload:
    def test_scalars_pass_through(self):
        for v in (None, True, 3, 2.5, "s", b"b", np.int64(7)):
            assert copy_payload(v) is v or copy_payload(v) == v

    def test_ndarray_copied(self):
        a = np.arange(3)
        b = copy_payload(a)
        b[0] = 99
        assert a[0] == 0

    def test_nested_containers(self):
        src = {"k": [np.zeros(2), (1, np.ones(1))]}
        dst = copy_payload(src)
        dst["k"][0][0] = 5
        assert src["k"][0][0] == 0

    def test_tuple_stays_tuple(self):
        assert isinstance(copy_payload((1, 2)), tuple)


class TestPayloadNbytes:
    def test_ndarray_exact(self):
        assert payload_nbytes(np.zeros(10, dtype=np.float64)) == 80

    def test_bytes_and_str(self):
        assert payload_nbytes(b"abcd") == 4
        assert payload_nbytes("abcd") == 4

    def test_none_is_zero(self):
        assert payload_nbytes(None) == 0

    def test_numbers(self):
        assert payload_nbytes(3) == 8
        assert payload_nbytes(2.5) == 8
        assert payload_nbytes(True) == 1

    def test_containers_sum(self):
        assert payload_nbytes([np.zeros(2), np.zeros(3)]) == 40 + 8

    def test_unknown_object_default(self):
        class Thing:
            pass

        assert payload_nbytes(Thing()) == 64


def _nbytes_reference(obj):
    """The recursive definition of a payload's wire size."""
    if obj is None:
        return 0
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, np.generic):
        return obj.itemsize
    if isinstance(obj, bool):
        return 1
    if isinstance(obj, str):
        return len(obj.encode("utf-8", errors="replace"))
    if isinstance(obj, (int, float)):
        return 8
    return sum(_nbytes_reference(x) for x in obj) + 8


def _equal(a, b):
    """Same type and value, element by element (arrays by dtype and bytes)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_equal(x, y) for x, y in zip(a, b))
    return a == b


def _mutables(obj):
    """Every list and array reachable in ``obj``, the object itself included."""
    if isinstance(obj, (list, np.ndarray)):
        yield obj
    if isinstance(obj, (list, tuple)):
        for x in obj:
            yield from _mutables(x)


_SCALARS = st.one_of(
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=False),
    st.booleans(),
    st.none(),
    st.text(max_size=4),
    st.integers(-(2**31), 2**31 - 1).map(np.int32),
    st.floats(allow_nan=False, width=32).map(np.float32),
    st.integers(0, 2**64 - 1).map(np.uint64),
)
_ARRAYS = st.lists(st.integers(-1000, 1000), max_size=5).map(np.array)


def _rows(element):
    return st.one_of(st.lists(element, max_size=8), st.lists(element, max_size=8).map(tuple))


#: rows of scalars only (where a fast path may wrongly take a bool or a
#: NumPy scalar for a Python number), and nested rows with arrays
_PAYLOADS = st.one_of(
    _rows(_SCALARS),
    st.recursive(st.one_of(_SCALARS, _ARRAYS), _rows, max_leaves=24).filter(
        lambda x: isinstance(x, (list, tuple))),
)


class TestPayloadProperties:
    """Rows of mixed scalars, nested rows and arrays: the flat int/float
    fast paths must agree with the recursive definitions."""

    @given(_PAYLOADS)
    @settings(max_examples=100, deadline=None)
    def test_nbytes_is_the_recursive_definition(self, row):
        assert payload_nbytes(row) == _nbytes_reference(row)

    @given(_PAYLOADS)
    @settings(max_examples=100, deadline=None)
    def test_copy_is_equal_and_shares_nothing_mutable(self, row):
        dup = copy_payload(row)
        assert _equal(dup, row)
        ours = list(_mutables(row))
        for obj in _mutables(dup):
            assert all(obj is not o for o in ours)
            if isinstance(obj, np.ndarray):
                assert not any(np.shares_memory(obj, o) for o in ours
                               if isinstance(o, np.ndarray))


class TestReduceOps:
    def test_sum_prod_minmax_scalars(self):
        assert SUM(2, 3) == 5
        assert PROD(2, 3) == 6
        assert MIN(2, 3) == 2
        assert MAX(2, 3) == 3

    def test_logical(self):
        assert LAND(True, False) is False
        assert LOR(True, False) is True

    def test_arrays_elementwise(self):
        a, b = np.array([1, 5]), np.array([4, 2])
        assert np.array_equal(MIN(a, b), [1, 2])
        assert np.array_equal(MAX(a, b), [4, 5])
        assert np.array_equal(SUM(a, b), [5, 7])

    def test_tuples_recursive(self):
        assert SUM((1, (2, 3)), (10, (20, 30))) == (11, (22, 33))

    def test_tuple_length_mismatch(self):
        with pytest.raises(ValueError):
            SUM((1, 2), (1,))

    def test_minloc_maxloc(self):
        assert MINLOC((3, 0), (1, 2)) == (1, 2)
        assert MINLOC((1, 0), (1, 2)) == (1, 0)  # tie -> lower loc
        assert MAXLOC((3, 0), (5, 2)) == (5, 2)
        assert MAXLOC((5, 0), (5, 2)) == (5, 0)

    @given(st.lists(st.integers(-100, 100), min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_fold_matches_python(self, xs):
        import functools

        assert functools.reduce(SUM, xs) == sum(xs)
        assert functools.reduce(MIN, xs) == min(xs)
        assert functools.reduce(MAX, xs) == max(xs)
