"""Width-packed ALL-TO-ALLV: each destination's keys in the bytes its bucket needs.

Under ``"squeeze"`` with integer keys, destination ``d`` of the exchange
receives only the low ``widths[d]`` bytes of each key and restores it from
its bucket's low end (:meth:`repro.core.multiselect._ProbeArithmetic.packing`,
:func:`repro.core.exchange.exchange`).  Every case here checks the output
byte for byte against ``np.sort(..., kind="stable")`` and the exchange's
wire bytes against the widths the splitters published: ``sum(received[d] *
widths[d])``, less than the raw ``N * itemsize`` wherever a packed bucket
receives a key.  Floats, and groups on one node, keep the raw exchange.
"""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.core import SortConfig, build_exchange_plan, exchange, find_splitters, histogram_sort
from repro.machine import abstract_cluster
from repro.mpi import run_spmd

INTS = [np.int8, np.uint8, np.int16, np.uint16, np.int32, np.uint32, np.int64, np.uint64]

#: two nodes on a network slow enough that every width below a key's
#: itemsize pays, down to a zero-width int8 bucket
SLOW = abstract_cluster(2, cores_per_node=4, net_bandwidth=1e8)


def sort(parts, machine=SLOW, eps=0.0, caps=None):
    """``(outputs, rank 0's splitters, exchange wire bytes)``; the ranks fill
    two nodes (one if ``machine`` has one)."""
    p = len(parts)

    def prog(comm):
        res = histogram_sort(comm, parts[comm.rank], SortConfig(eps=eps), capacities=caps)
        return res.output, res.splitters

    out, rt = run_spmd(p, prog, machine=machine, ranks_per_node=-(-p // machine.nodes),
                       return_runtime=True)
    wire = sum(v[1] for k, v in rt.stats.snapshot().collectives.items() if k.endswith("alltoallv"))
    return [o for o, _ in out], out[0][1], wire


def check(parts, eps=0.0, caps=None, machine=SLOW):
    """Sort ``parts``, assert the output, the wire bytes and (``eps == 0``)
    the exact output sizes; returns the splitters."""
    out, splitters, wire = sort(parts, machine, eps, caps)
    want = np.sort(np.concatenate(parts), kind="stable")
    got = np.concatenate(out)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    size, received = want.dtype.itemsize, np.array([o.size for o in out])
    if splitters.widths is None:
        assert wire == want.size * size
    else:
        assert wire == float((received * splitters.widths).sum())
        assert (wire < want.size * size) == bool(received[splitters.widths < size].any())
    if eps == 0:
        assert received.tolist() == ([q.size for q in parts] if caps is None else caps)
    return splitters


@st.composite
def cases(draw):
    """``(parts, eps, caps)``: integer keys clustered round a few bases so
    that buckets come in every width — duplicates, narrow ranges, the
    dtype's extremes — on empty ranks and fewer keys than ranks, with a
    tolerance or custom capacities."""
    dtype = np.dtype(draw(st.sampled_from(INTS)))
    info = np.iinfo(dtype)
    p = draw(st.integers(2, 8))
    spread = draw(st.sampled_from([0, 1 << 4, 1 << 8, 1 << 16, 1 << 32]))
    bases = draw(st.lists(st.integers(int(info.min), int(info.max)), min_size=1, max_size=2))
    bases += draw(st.lists(st.sampled_from([int(info.min), int(info.max)]), max_size=2))
    parts = []
    for _ in range(p):
        n = draw(st.integers(0, 12))
        keys = [min(max(draw(st.sampled_from(bases)) + draw(st.integers(-spread, spread)),
                        int(info.min)), int(info.max)) for _ in range(n)]
        parts.append(np.array(keys, dtype=dtype))
    eps, caps = draw(st.sampled_from([0.0, 0.2])), None
    if not eps and draw(st.booleans()):
        total = sum(q.size for q in parts)
        cuts = sorted(draw(st.lists(st.integers(0, total), min_size=p - 1, max_size=p - 1)))
        caps = np.diff([0, *cuts, total]).tolist()
    return parts, eps, caps


class TestPackedExchange:
    @given(case=cases())
    @example(case=([np.full(5, 7, np.int8)] * 4, 0.0, None))
    @example(case=([np.array([], np.uint64), np.array([3], np.uint64)] * 2, 0.0, None))
    @example(case=([np.array([5, -3, 5], np.int16)], 0.0, None))
    def test_sorted_bytes_and_packed_wire(self, case):
        parts, eps, caps = case
        check(parts, eps, caps)

    @pytest.mark.parametrize("dtype", INTS)
    def test_equal_keys_ship_no_byte(self, dtype):
        """Every bucket is zero-width: the count ALL-TO-ALL sizes them all."""
        parts = [np.full(n, np.iinfo(dtype).max, dtype) for n in (3, 0, 5, 1)]
        splitters = check(parts)
        assert splitters.widths.tolist() == [0] * 4
        assert sort(parts)[2] == 0

    @pytest.mark.parametrize("dtype, span, width", [
        (dtype, span, width) for dtype in INTS for span, width in (
            (1, 1), ((1 << 8) - 1, 1), (1 << 8, 2), ((1 << 16) - 1, 2), (1 << 16, 4),
            ((1 << 32) - 1, 4), (1 << 32, 8))
        if span < 1 << 8 * np.dtype(dtype).itemsize
    ])
    @pytest.mark.parametrize("end", ["min", "max"])
    def test_a_bucket_span_at_each_width_limit(self, dtype, span, width, end):
        """Rank 0 holds the low end four times, so the one splitter is it and
        the second bucket spans exactly ``span`` — at the dtype's minimum
        (negative for signed keys) or up to its maximum."""
        info = np.iinfo(dtype)
        lo = int(info.min) if end == "min" else int(info.max) - span
        parts = [np.full(4, lo, dtype),
                 np.array([lo + span, lo + span - 1, lo + 1, lo + span // 2], dtype)]
        splitters = check(parts)
        size = np.dtype(dtype).itemsize
        assert splitters.widths.tolist() == [0, min(width, size)]

    @pytest.mark.parametrize("span, widths", [((1 << 16) - 1, [0, 2]), (1 << 16, [0, 8])])
    def test_the_abstract_cluster_packs_below_four_bytes(self, span, widths):
        """At the default network price 8-byte keys pack into 0, 1 or 2
        bytes, not into 4: the bytes saved would not pay the two passes."""
        parts = [np.full(4, 10, np.uint64), np.array([10 + span, 11], np.uint64)]
        machine = abstract_cluster(2, cores_per_node=4)
        assert check(parts, machine=machine).widths.tolist() == widths

    @pytest.mark.parametrize("dtype", [">u8", ">i4", ">i2"])
    def test_big_endian_keys_ship_their_low_bytes(self, dtype):
        """The mask words mark a big-endian key's last bytes."""
        rng = np.random.default_rng(3)
        parts = [(rng.integers(-300, 300, 9) // 40 * 40 + 1000 * (r > 2)).astype(dtype)
                 for r in range(6)]
        assert check(parts).widths is not None

    @pytest.mark.parametrize("nan", [
        False,
        pytest.param(True, marks=pytest.mark.xfail(strict=True, reason=(
            "NaN keys break perfect partitioning (sizes 26 and 54 of 40 at ranks 5 and 7), "
            "with the raw exchange too: check() asserts the sizes last"))),
    ])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_floats_travel_raw(self, dtype, nan):
        """-0.0 / +0.0 and NaN payloads would not survive byte identity."""
        rng = np.random.default_rng(5)
        parts = [rng.integers(0, 3, 40).astype(dtype) for _ in range(8)]
        parts[1][:4] = -0.0
        if nan:
            parts[6][:2] = np.nan
        _, splitters, wire = sort(parts)
        assert splitters.widths is None and wire == 320 * np.dtype(dtype).itemsize
        check(parts)

    def test_one_node_ships_the_raw_exchange(self):
        """The same duplicate-heavy keys that pack on two nodes move whole
        on one: the wire bytes are the raw exchange's, and no width is set."""
        parts = [np.full(6, r // 4, np.uint64) for r in range(8)]
        assert check(parts).widths is not None
        splitters = check(parts, machine=abstract_cluster(1, cores_per_node=8))
        assert splitters.widths is None

    def test_received_keys_are_fresh_arrays(self):
        """No rank's received keys share memory with what any rank sorted
        or received — zero-width, packed and raw buckets alike.  Views of a
        peer's packed deposit are the sanitizer's RECV-ALIAS, which CI runs
        this module under."""
        parts = [np.arange(r, r + 6, dtype=np.int64) << (40 * (r == 7)) for r in range(8)]
        parts[0][:] = 0

        def prog(comm):
            work = np.sort(parts[comm.rank])
            plan = build_exchange_plan(comm, work, find_splitters(comm, work))
            return work, exchange(comm, work, plan)[0], plan.widths

        out = run_spmd(8, prog, machine=SLOW, ranks_per_node=4)
        assert sorted(set(out[0][2].tolist())) == [0, 1, 8]  # every kind of bucket
        arrays = [a for work, got, _ in out for a in (work, got)]
        for i, a in enumerate(arrays):
            assert not any(np.shares_memory(a, b) for b in arrays[i + 1:])
