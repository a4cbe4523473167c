"""CFG/dataflow lint rules: fixtures per rule, path sensitivity, repo hygiene."""

import textwrap

from repro.analyze import analyze_source
from repro.analyze.astlint import module_from_source
from repro.analyze.dataflow import build_cfg


def findings_for(src, rule=None):
    out = analyze_source(textwrap.dedent(src), path="fixture.py", modname="fixture")
    if rule is None:
        return out
    return [f for f in out if f.rule == rule]


class TestCfg:
    def _cfg(self, src):
        mod = module_from_source(textwrap.dedent(src), "fixture.py")
        fn = mod.tree.body[0]
        return build_cfg(fn)

    def test_straightline_is_one_block(self):
        cfg = self._cfg(
            """
            def f(comm):
                a = 1
                b = a + 1
                return b
            """
        )
        assert len(cfg.blocks[0].stmts) >= 2
        assert not cfg.blocks[0].succ or all(
            not cfg.blocks[s].stmts for s in cfg.blocks[0].succ
        )

    def test_if_produces_diamond(self):
        cfg = self._cfg(
            """
            def f(comm):
                if comm.rank == 0:
                    a = 1
                else:
                    a = 2
                return a
            """
        )
        entry = cfg.blocks[0]
        assert len(entry.succ) == 2  # then / else
        joins = {s2 for s in entry.succ for s2 in cfg.blocks[s].succ}
        assert len(joins) == 1  # both branches meet again

    def test_while_has_back_edge(self):
        cfg = self._cfg(
            """
            def f(comm):
                i = 0
                while i < 3:
                    i += 1
                return i
            """
        )
        back = any(
            s <= i for i, b in enumerate(cfg.blocks) for s in b.succ if b.stmts
        )
        assert back


class TestBufferReuse:
    RULE = "SPMD-BUFFER-REUSE"

    def test_write_before_wait(self):
        hits = findings_for(
            """
            import numpy as np
            def f(comm):
                buf = np.zeros(8)
                req = comm.isend(buf, dest=1)
                buf[0] = 1.0
                req.wait()
            """,
            self.RULE,
        )
        assert len(hits) == 1
        assert "'buf'" in hits[0].message
        assert "line 5" in hits[0].message  # the isend site

    def test_write_after_wait_is_clean(self):
        assert not findings_for(
            """
            import numpy as np
            def f(comm):
                buf = np.zeros(8)
                req = comm.isend(buf, dest=1)
                req.wait()
                buf[0] = 1.0
            """,
            self.RULE,
        )

    def test_wait_on_one_path_only(self):
        # wait() happens only on the rank-0 path; the write is reachable
        # with the request still live.
        hits = findings_for(
            """
            import numpy as np
            def f(comm):
                buf = np.zeros(8)
                req = comm.isend(buf, dest=1)
                if comm.rank == 0:
                    req.wait()
                buf.fill(0.0)
                req.wait()
            """,
            self.RULE,
        )
        assert len(hits) == 1

    def test_wait_on_both_paths_is_clean(self):
        assert not findings_for(
            """
            import numpy as np
            def f(comm):
                buf = np.zeros(8)
                req = comm.isend(buf, dest=1)
                if comm.rank == 0:
                    req.wait()
                else:
                    req.wait()
                buf.fill(0.0)
            """,
            self.RULE,
        )

    def test_request_list_drained_by_loop(self):
        assert not findings_for(
            """
            import numpy as np
            def f(comm):
                reqs = []
                buf = np.zeros(8)
                reqs.append(comm.isend(buf, dest=1))
                for r in reqs:
                    r.wait()
                buf[1] = 2.0
            """,
            self.RULE,
        )

    def test_request_list_write_before_drain(self):
        hits = findings_for(
            """
            import numpy as np
            def f(comm):
                reqs = []
                buf = np.zeros(8)
                reqs.append(comm.isend(buf, dest=1))
                buf[1] = 2.0
                for r in reqs:
                    r.wait()
            """,
            self.RULE,
        )
        assert len(hits) == 1

    def test_waitall_kills(self):
        assert not findings_for(
            """
            import numpy as np
            from repro.mpi import waitall
            def f(comm):
                reqs = []
                buf = np.zeros(8)
                reqs.append(comm.isend(buf, dest=1))
                waitall(reqs)
                buf[0] = 9.0
            """,
            self.RULE,
        )

    def test_augassign_and_np_copyto(self):
        hits = findings_for(
            """
            import numpy as np
            def f(comm):
                a = np.zeros(8)
                b = np.zeros(8)
                ra = comm.isend(a, dest=1)
                rb = comm.isend(b, dest=1)
                a += 1
                np.copyto(b, a)
                ra.wait()
                rb.wait()
            """,
            self.RULE,
        )
        assert len(hits) == 2

    def test_rebinding_is_not_mutation(self):
        # `buf = ...` binds the name to a new object; the sent buffer is
        # untouched.
        assert not findings_for(
            """
            import numpy as np
            def f(comm):
                buf = np.zeros(8)
                req = comm.isend(buf, dest=1)
                buf = np.ones(8)
                buf[0] = 5.0
                req.wait()
            """,
            self.RULE,
        )

    def test_temporary_payload_is_clean(self):
        # `buf + 1` materializes a temporary; writing buf afterwards is fine.
        assert not findings_for(
            """
            import numpy as np
            def f(comm):
                buf = np.zeros(8)
                req = comm.isend(buf + 1, dest=1)
                buf[0] = 1.0
                req.wait()
            """,
            self.RULE,
        )

    def test_loop_carried_request(self):
        # The write at the top of iteration 2 races the isend of iteration 1
        # (the wait is at the bottom, but the back edge carries the fact).
        hits = findings_for(
            """
            import numpy as np
            def f(comm):
                buf = np.zeros(8)
                req = None
                for i in range(4):
                    buf[0] = i
                    if req is not None:
                        req.wait()
                    req = comm.isend(buf, dest=1)
                req.wait()
            """,
            self.RULE,
        )
        assert len(hits) == 1

    def test_suppression_shorthand(self):
        assert not findings_for(
            """
            import numpy as np
            def f(comm):
                buf = np.zeros(8)
                req = comm.isend(buf, dest=1)
                buf[0] = 1.0  # spmd: ignore[BUFFER-REUSE]
                req.wait()
            """,
            self.RULE,
        )


class TestShapeMismatch:
    RULE = "SPMD-SHAPE-MISMATCH"

    def test_rank_sized_allreduce(self):
        hits = findings_for(
            """
            import numpy as np
            def f(comm):
                n = comm.rank + 1
                local = np.zeros(n)
                return comm.allreduce(local)
            """,
            self.RULE,
        )
        assert len(hits) == 1
        assert "'local'" in hits[0].message

    def test_rank_sized_list_alltoall(self):
        hits = findings_for(
            """
            def f(comm):
                n = comm.rank
                return comm.alltoall([0] * n)
            """,
            self.RULE,
        )
        assert len(hits) == 1

    def test_rank_sized_slice(self):
        hits = findings_for(
            """
            import numpy as np
            def f(comm, data):
                k = comm.rank * 2
                return comm.allreduce(data[:k])
            """,
            self.RULE,
        )
        assert len(hits) == 1

    def test_uniform_size_is_clean(self):
        assert not findings_for(
            """
            import numpy as np
            def f(comm):
                a = np.zeros(comm.size)
                b = comm.allreduce(a)
                c = comm.allreduce(np.zeros(16))
                return b, c
            """,
            self.RULE,
        )

    def test_scalar_payload_is_clean(self):
        # Rank-dependent *values* are the whole point of a reduction;
        # only rank-dependent *lengths* break congruence.
        assert not findings_for(
            """
            def f(comm):
                n = comm.rank + 1
                return comm.allreduce(n)
            """,
            self.RULE,
        )

    def test_gather_is_exempt(self):
        # gather/allgather/alltoallv accept rank-dependent shapes by design.
        assert not findings_for(
            """
            import numpy as np
            def f(comm):
                n = comm.rank + 1
                return comm.allgather(np.zeros(n))
            """,
            self.RULE,
        )


class TestRepoIsCleanUnderDataflowRules:
    def test_src_repro_has_no_findings(self, repo_sweep):
        findings = [
            f
            for f in repo_sweep("src/repro")
            if f.rule
            in ("SPMD-BUFFER-REUSE", "SPMD-SHAPE-MISMATCH")
        ]
        assert findings == [], [f.format() for f in findings]
