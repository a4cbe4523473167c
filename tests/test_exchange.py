"""Exchange plan (Algorithm 4) + ALL-TO-ALLV tests."""

import numpy as np

from repro.core import build_exchange_plan, exchange, find_splitters


def _plan_and_exchange(run, parts, caps=None, eps=0.0):
    p = len(parts)

    def prog(comm):
        work = np.sort(parts[comm.rank])
        splitters = find_splitters(comm, work, capacities=caps, eps=eps)
        plan = build_exchange_plan(comm, work, splitters)
        received = exchange(comm, work, plan)
        return plan, received

    return run(p, prog)


class TestExchangePlan:
    def test_counts_conserve_elements(self, run, rng):
        parts = [rng.integers(0, 10**6, 1000).astype(np.int64) for _ in range(4)]
        out = _plan_and_exchange(run, parts)
        send_total = sum(p.elements_sent for p, _ in out)
        recv_total = sum(p.elements_received for p, _ in out)
        assert send_total == recv_total == 4000

    def test_send_recv_matrices_transpose(self, run, rng):
        parts = [rng.integers(0, 10**6, 500).astype(np.int64) for _ in range(4)]
        out = _plan_and_exchange(run, parts)
        send = np.stack([p.send_counts for p, _ in out])   # [src, dst]
        recv = np.stack([p.recv_counts for p, _ in out])   # [dst, src]
        assert np.array_equal(send.T, recv)

    def test_perfect_partitioning_sizes(self, run, rng):
        parts = [rng.integers(0, 10**6, n).astype(np.int64) for n in (700, 0, 1300, 400)]
        out = _plan_and_exchange(run, parts)
        for (plan, _), part in zip(out, parts):
            assert plan.elements_received == part.size

    def test_cuts_monotone_and_cover(self, run, rng):
        parts = [rng.integers(0, 50, 800).astype(np.int64) for _ in range(5)]
        out = _plan_and_exchange(run, parts)
        for (plan, _), part in zip(out, parts):
            assert plan.cuts[0] == 0
            assert plan.cuts[-1] == part.size
            assert np.all(np.diff(plan.cuts) >= 0)

    def test_received_chunks_sorted(self, run, rng):
        parts = [rng.normal(size=600) for _ in range(4)]
        out = _plan_and_exchange(run, parts)
        for plan, (buf, counts) in out:
            assert counts.tolist() == plan.recv_counts.tolist()
            for chunk in np.split(buf, np.cumsum(counts)[:-1]):
                assert np.all(chunk[:-1] <= chunk[1:])

    def test_chunk_ranges_respect_splitters(self, run, rng):
        """Everything received by rank i is <= everything received by i+1."""
        parts = [rng.integers(0, 10**6, 900).astype(np.int64) for _ in range(4)]
        out = _plan_and_exchange(run, parts)
        maxima, minima = [], []
        for _, (allv, _) in out:
            maxima.append(allv.max())
            minima.append(allv.min())
        for i in range(3):
            assert maxima[i] <= minima[i + 1]

    def test_duplicate_run_split_by_rank_order(self, run):
        """A duplicate run straddling a boundary is split exactly."""
        parts = [np.full(100, 5, dtype=np.int64), np.full(100, 5, dtype=np.int64)]
        out = _plan_and_exchange(run, parts)
        assert out[0][0].elements_received == 100
        assert out[1][0].elements_received == 100

    def test_single_rank_plan(self, run, rng):
        parts = [rng.normal(size=50)]
        out = _plan_and_exchange(run, parts)
        plan, (buf, counts) = out[0]
        assert plan.send_counts.tolist() == [50]
        assert buf.size == 50 and counts.tolist() == [50]

    def test_custom_capacities_move_everything(self, run, rng):
        parts = [rng.integers(0, 100, 500).astype(np.int64) for _ in range(4)]
        caps = [2000, 0, 0, 0]
        out = _plan_and_exchange(run, parts, caps=caps)
        sizes = [p.elements_received for p, _ in out]
        assert sizes == [2000, 0, 0, 0]

    def test_eps_relaxed_sizes_within_slack(self, run, rng):
        parts = [rng.integers(0, 10**9, 4000).astype(np.uint64) for _ in range(4)]
        eps = 0.05
        out = _plan_and_exchange(run, parts, eps=eps)
        tol = 2 * int(np.floor(eps * 16000 / 8))
        for plan, _ in out:
            assert abs(plan.elements_received - 4000) <= tol
