"""Runtime sanitizer: one fixture per detector, composition, non-perturbation."""

import numpy as np
import pytest

from repro.data import make_partition
from repro.core import histogram_sort
from repro.mpi import run_spmd
from repro.sanitize import (
    HB_RACE,
    RECV_ALIAS,
    WRITE_AFTER_ISEND,
    SanitizerError,
)


def kinds(err: SanitizerError) -> set[str]:
    return {f.kind for f in err.findings}


class _SelfBox:
    """Payload that defeats the runtime's eager copy: deepcopy returns self,
    so sender and receiver end up holding the *same* array."""

    def __init__(self, arr):
        self.arr = arr

    def __deepcopy__(self, memo):
        return self


# ------------------------------------------------------ WRITE-AFTER-ISEND


class TestWriteAfterIsend:
    def test_mutation_before_wait_is_flagged(self):
        def prog(comm):
            if comm.rank == 0:
                buf = np.arange(64, dtype=np.float64)
                req = comm.isend(buf, 1)
                buf[3] = -1.0  # torn write on real MPI  # spmd: ignore[BUFFER-REUSE]
                req.wait()
            elif comm.rank == 1:
                comm.recv(0)

        with pytest.raises(SanitizerError) as ei:
            run_spmd(2, prog, sanitize=True)
        assert kinds(ei.value) == {WRITE_AFTER_ISEND}
        (finding,) = ei.value.findings
        assert finding.world_rank == 0
        assert "isend" in finding.format()

    def test_mutation_after_wait_is_clean(self):
        def prog(comm):
            if comm.rank == 0:
                buf = np.arange(64, dtype=np.float64)
                req = comm.isend(buf, 1)
                req.wait()
                buf[3] = -1.0
            elif comm.rank == 1:
                comm.recv(0)

        run_spmd(2, prog, sanitize=True)

    def test_untouched_buffer_is_clean(self):
        def prog(comm):
            if comm.rank == 0:
                buf = np.arange(64, dtype=np.float64)
                comm.isend(buf, 1).wait()
            elif comm.rank == 1:
                comm.recv(0)

        run_spmd(2, prog, sanitize=True)

    def test_check_runs_once_per_request(self):
        # wait() after test() must not re-fingerprint (completion is one
        # event); mutating after completion stays clean.
        def prog(comm):
            if comm.rank == 0:
                buf = np.zeros(8)
                req = comm.isend(buf, 1)
                req.test()
                buf[0] = 1.0
                req.wait()
            elif comm.rank == 1:
                comm.recv(0)

        run_spmd(2, prog, sanitize=True)


# ------------------------------------------------------------- RECV-ALIAS


class TestRecvAlias:
    def test_deepcopy_defeating_payload_is_flagged(self):
        def prog(comm):
            if comm.rank == 0:
                box = _SelfBox(np.ones(32))
                comm.send(box, 1)
                comm.recv(1)  # keep `box` alive until delivery
            elif comm.rank == 1:
                comm.recv(0)
                comm.send(0, 0)

        with pytest.raises(SanitizerError) as ei:
            run_spmd(2, prog, sanitize=True)
        assert RECV_ALIAS in kinds(ei.value)
        assert any(f.world_rank == 1 for f in ei.value.findings)

    def test_collective_result_aliasing_a_peer_deposit_is_flagged(self):
        def prog(comm):
            box = _SelfBox(np.ones(32)) if comm.rank == 0 else None
            got = comm.bcast(box)
            comm.barrier()  # the root's deposit outlives the next generation
            return got

        with pytest.raises(SanitizerError) as ei:
            run_spmd(4, prog, sanitize=True)
        assert kinds(ei.value) == {RECV_ALIAS}
        assert {f.world_rank for f in ei.value.findings} == {1, 2, 3}

    def test_normal_payloads_are_copied(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send({"a": np.ones(32), "b": [np.zeros(4)]}, 1)
            elif comm.rank == 1:
                comm.recv(0)

        run_spmd(2, prog, sanitize=True)


# ---------------------------------------------------------------- HB-RACE


class TestHbRace:
    def test_unordered_write_read_is_flagged(self):
        shared = {"slot": 0}

        def prog(comm):
            if comm.rank == 0:
                comm.mark_write(shared)
                shared["slot"] = 1
            else:
                comm.mark_read(shared)
                _ = shared["slot"]

        with pytest.raises(SanitizerError) as ei:
            run_spmd(2, prog, sanitize=True)
        assert kinds(ei.value) == {HB_RACE}

    def test_message_ordered_accesses_are_clean(self):
        shared = {"slot": 0}

        def prog(comm):
            if comm.rank == 0:
                comm.mark_write(shared)
                shared["slot"] = 1
                comm.send(None, 1)  # happens-before edge
            else:
                comm.recv(0)
                comm.mark_read(shared)
                _ = shared["slot"]

        run_spmd(2, prog, sanitize=True)

    def test_barrier_ordered_accesses_are_clean(self):
        shared = {"slot": 0}

        def prog(comm):
            if comm.rank == 0:
                comm.mark_write(shared)
                shared["slot"] = 1
            comm.barrier()
            if comm.rank == 1:
                comm.mark_read(shared)
                _ = shared["slot"]

        run_spmd(4, prog, sanitize=True)

    def test_write_write_race(self):
        shared = np.zeros(8)

        def prog(comm):
            comm.mark_write(shared)
            shared[comm.rank] = comm.rank

        with pytest.raises(SanitizerError) as ei:
            run_spmd(2, prog, sanitize=True)
        assert kinds(ei.value) == {HB_RACE}

    def test_marks_are_noops_when_off(self):
        shared = {"slot": 0}

        def prog(comm):
            comm.mark_write(shared)
            shared["slot"] = comm.rank

        run_spmd(2, prog, sanitize=False)  # marks must not raise or track


# --------------------------------------------------------- configuration


class TestConfiguration:
    def test_env_var_enables(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")

        def prog(comm):
            if comm.rank == 0:
                buf = np.zeros(8)
                req = comm.isend(buf, 1)
                buf[0] = 1.0  # spmd: ignore[BUFFER-REUSE]
                req.wait()
            elif comm.rank == 1:
                comm.recv(0)

        with pytest.raises(SanitizerError):
            run_spmd(2, prog)

    def test_explicit_flag_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")

        def prog(comm):
            if comm.rank == 0:
                buf = np.zeros(8)
                req = comm.isend(buf, 1)
                buf[0] = 1.0  # spmd: ignore[BUFFER-REUSE]
                req.wait()
            elif comm.rank == 1:
                comm.recv(0)

        run_spmd(2, prog, sanitize=False)

    def test_composes_with_check_and_trace(self):
        def prog(comm):
            local = make_partition("uniform_u64", 512, rank=comm.rank, seed=7)
            return histogram_sort(comm, local).output

        results, rt = run_spmd(
            4, prog, sanitize=True, trace=True, return_runtime=True
        )
        assert rt.sanitizer is not None
        assert rt.sanitizer.findings == []
        assert rt.trace is not None
        merged = np.sort(np.concatenate(results))
        assert np.all(np.diff(merged.astype(np.int64)) >= 0)

    def test_findings_format_mentions_rank_op_vc(self):
        def prog(comm):
            if comm.rank == 0:
                buf = np.zeros(8)
                req = comm.isend(buf, 1)
                buf[0] = 1.0  # spmd: ignore[BUFFER-REUSE]
                req.wait()
            elif comm.rank == 1:
                comm.recv(0)

        with pytest.raises(SanitizerError) as ei:
            run_spmd(2, prog, sanitize=True)
        text = ei.value.findings[0].format()
        assert "rank 0" in text
        assert "vc=" in text


# ------------------------------------------------------- non-perturbation


class TestNonPerturbation:
    def test_16_rank_histsort_clocks_bit_identical(self):
        def prog(comm):
            local = make_partition("uniform_u64", 2000, rank=comm.rank, seed=3)
            return histogram_sort(comm, local).output

        res_off, rt_off = run_spmd(16, prog, return_runtime=True, sanitize=False)
        res_on, rt_on = run_spmd(16, prog, return_runtime=True, sanitize=True)
        assert rt_on.sanitizer is not None
        assert rt_on.sanitizer.findings == []
        # Virtual clocks must be *bit-identical*: the sanitizer observes,
        # it never advances modelled time.
        assert np.array_equal(rt_off.clocks, rt_on.clocks)
        assert rt_off.elapsed() == rt_on.elapsed()
        for a, b in zip(res_off, res_on):
            assert np.array_equal(a, b)

    def test_p2p_pattern_clocks_identical(self):
        def prog(comm):
            if comm.rank % 2 == 0 and comm.rank + 1 < comm.size:
                comm.send(np.arange(100) + comm.rank, comm.rank + 1)
                return comm.recv(comm.rank + 1)
            if comm.rank % 2 == 1:
                got = comm.recv(comm.rank - 1)
                comm.send(got.sum(), comm.rank - 1)
                return None

        _, rt_off = run_spmd(8, prog, return_runtime=True, sanitize=False)
        _, rt_on = run_spmd(8, prog, return_runtime=True, sanitize=True)
        assert np.array_equal(rt_off.clocks, rt_on.clocks)
