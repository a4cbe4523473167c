"""Point-to-point semantics of the SPMD runtime."""

import numpy as np
import pytest

from repro.mpi import ANY_SOURCE, ANY_TAG, SPMDError, waitall


class TestSendRecv:
    def test_basic_roundtrip(self, run):
        def prog(comm):
            if comm.rank == 0:
                comm.send({"x": 1}, dest=1)
                return None
            if comm.rank == 1:
                return comm.recv(source=0)
            return None

        out = run(2, prog)
        assert out[1] == {"x": 1}

    def test_numpy_payload_is_copied(self, run):
        def prog(comm):
            if comm.rank == 0:
                arr = np.arange(4)
                comm.send(arr, dest=1)
                arr[:] = -1  # mutation after send must not be visible
                return None
            return comm.recv(source=0)

        out = run(2, prog)
        assert np.array_equal(out[1], [0, 1, 2, 3])

    def test_tag_matching(self, run):
        def prog(comm):
            if comm.rank == 0:
                comm.send("a", dest=1, tag=1)  # spmd: ignore[TAG-COLLISION]
                comm.send("b", dest=1, tag=2)  # spmd: ignore[TAG-COLLISION]
                return None
            first = comm.recv(source=0, tag=2)  # spmd: ignore[TAG-COLLISION]
            second = comm.recv(source=0, tag=1)  # spmd: ignore[TAG-COLLISION]
            return first, second

        assert run(2, prog)[1] == ("b", "a")

    def test_fifo_order_same_tag(self, run):
        def prog(comm):
            if comm.rank == 0:
                for i in range(5):
                    comm.send(i, dest=1, tag=9)  # spmd: ignore[TAG-COLLISION]
                return None
            return [comm.recv(source=0, tag=9) for _ in range(5)]  # spmd: ignore[TAG-COLLISION]

        assert run(2, prog)[1] == [0, 1, 2, 3, 4]

    def test_any_source_any_tag(self, run):
        def prog(comm):
            if comm.rank != 0:
                comm.send(comm.rank, dest=0, tag=comm.rank)
                return None
            got = sorted(comm.recv(ANY_SOURCE, ANY_TAG) for _ in range(3))
            return got

        assert run(4, prog)[0] == [1, 2, 3]

    def test_return_status(self, run):
        def prog(comm):
            if comm.rank == 0:
                comm.send("hi", dest=1, tag=42)
                return None
            return comm.recv(return_status=True)

        payload, (src, tag) = run(2, prog)[1]
        assert payload == "hi" and src == 0 and tag == 42

    def test_sendrecv_exchange(self, run):
        def prog(comm):
            partner = comm.size - 1 - comm.rank
            return comm.sendrecv(comm.rank, dest=partner)

        assert run(4, prog) == [3, 2, 1, 0]

    def test_bad_peer_rejected(self, run):
        def prog(comm):
            comm.send(1, dest=5)

        with pytest.raises(SPMDError):
            run(2, prog)

    def test_recv_advances_clock(self, run):
        def prog(comm):
            if comm.rank == 0:
                comm.send(np.zeros(1 << 16), dest=1)
            if comm.rank == 1:
                comm.recv(source=0)
            return comm.clock

        clocks = run(2, prog)
        assert clocks[1] > 0
        assert clocks[1] > clocks[0]  # transfer time charged to the receiver


class TestNonBlocking:
    def test_isend_completes_immediately(self, run):
        def prog(comm):
            if comm.rank == 0:
                req = comm.isend("x", dest=1)
                done, _ = req.test()
                assert done
                req.wait()
                return None
            return comm.recv(source=0)

        assert run(2, prog)[1] == "x"

    def test_irecv_wait(self, run):
        def prog(comm):
            if comm.rank == 0:
                comm.send(123, dest=1)
                return None
            req = comm.irecv(source=0)
            return req.wait()

        assert run(2, prog)[1] == 123

    def test_irecv_test_before_arrival(self, run):
        def prog(comm):
            if comm.rank == 1:
                req = comm.irecv(source=0, tag=7)  # spmd: ignore[TAG-COLLISION]
                done, _ = req.test()  # nothing sent yet on tag 7
                comm.send("ready", dest=0)
                val = req.wait()
                return done, val
            comm.recv(source=1)  # wait until rank 1 has tested
            comm.send("late", dest=1, tag=7)  # spmd: ignore[TAG-COLLISION]
            return None

        done, val = run(2, prog)[1]
        assert done is False and val == "late"

    def test_waitall(self, run):
        def prog(comm):
            if comm.rank == 0:
                reqs = [comm.isend(i, dest=1, tag=i) for i in range(3)]
                waitall(reqs)
                return None
            reqs = [comm.irecv(source=0, tag=i) for i in range(3)]
            return waitall(reqs)

        assert run(2, prog)[1] == [0, 1, 2]

    def test_iprobe(self, run):
        def prog(comm):
            if comm.rank == 0:
                comm.send("m", dest=1)
                return None
            while not comm.iprobe(source=0):
                pass
            return comm.recv(source=0)

        assert run(2, prog)[1] == "m"
