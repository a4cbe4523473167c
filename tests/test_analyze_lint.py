"""Static SPMD lint: one fixture per rule, suppression, CLI, repo hygiene."""

import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analyze import RULES, analyze_source
from repro.analyze.astlint import _derive_modname
from repro.analyze.engine import analyze_program, analyze_records, build_record
from repro.analyze.lower import LOCALS_SEP, SCOPES, lower, lower_module

ROOT = Path(__file__).resolve().parents[1]


def findings_for(src, rule=None, modname="fixture"):
    out = analyze_source(textwrap.dedent(src), path="fixture.py", modname=modname)
    if rule is None:
        return out
    return [f for f in out if f.rule == rule]


class TestDivergentCollective:
    RULE = "SPMD-DIV-COLLECTIVE"

    def test_collective_under_rank_branch(self):
        hits = findings_for(
            """
            def f(comm, x):
                if comm.rank == 0:
                    comm.barrier()
            """,
            self.RULE,
        )
        assert len(hits) == 1
        assert "comm.barrier()" in hits[0].message
        assert hits[0].format().startswith("fixture.py:4: SPMD-DIV-COLLECTIVE")

    def test_early_exit_divergence(self):
        # The collective is *after* the if, but only non-zero ranks return
        # early — rank 0 alone reaches the allreduce.
        hits = findings_for(
            """
            def f(comm, x):
                if comm.rank > 0:
                    return None
                comm.allreduce(x)
            """,
            self.RULE,
        )
        assert len(hits) == 1

    def test_taint_through_assignment(self):
        hits = findings_for(
            """
            def f(comm, x):
                me = comm.rank
                odd = me % 2
                for i in range(odd):
                    comm.bcast(x, root=0)
            """,
            self.RULE,
        )
        assert len(hits) == 1

    def test_uniform_condition_is_clean(self):
        assert not findings_for(
            """
            def f(comm, x):
                if x > 3:
                    comm.barrier()
                return comm.allreduce(x)
            """,
            self.RULE,
        )

    def test_split_loop_is_clean(self):
        # The canonical recursive-subcommunicator pattern (hyksort,
        # hyperquicksort): the handle is rank-dependent but collectives on
        # it are congruent within each subcommunicator.
        assert not findings_for(
            """
            def f(comm, x):
                sub = comm
                while sub.size > 1:
                    sub = sub.split(sub.rank % 2, sub.rank)
                    x = sub.allreduce(x)
                return x
            """,
            self.RULE,
        )

    def test_non_comm_function_ignored(self):
        assert not findings_for(
            """
            def helper(rank, x):
                if rank == 0:
                    return x
                return None
            """,
            self.RULE,
        )


class TestUnwaitedRequest:
    RULE = "SPMD-UNWAITED-REQUEST"

    def test_discarded_request(self):
        hits = findings_for(
            """
            def f(comm, x):
                comm.isend(x, 0, tag=5)
            """,
            self.RULE,
        )
        assert len(hits) == 1
        assert "discarded" in hits[0].message

    def test_never_used_request(self):
        hits = findings_for(
            """
            def f(comm, x):
                req = comm.irecv(source=0, tag=5)
                return x
            """,
            self.RULE,
        )
        assert len(hits) == 1
        assert "'req'" in hits[0].message

    def test_waited_request_is_clean(self):
        assert not findings_for(
            """
            def f(comm, x):
                req = comm.irecv(source=0, tag=5)
                comm.send(x, 0, 5)
                return req.wait()
            """,
            self.RULE,
        )

    def test_request_kept_in_list_is_clean(self):
        assert not findings_for(
            """
            def f(comm, x):
                reqs = []
                r = comm.isend(x, 0, tag=5)
                reqs.append(r)
                for r in reqs:
                    r.wait()
            """,
            self.RULE,
        )


class TestBlockingCycle:
    RULE = "SPMD-BLOCKING-CYCLE"

    def test_recv_recv(self):
        hits = findings_for(
            """
            def f(comm, x):
                if comm.rank == 0:
                    y = comm.recv(1)
                    comm.send(x, 1)
                else:
                    y = comm.recv(0)
                    comm.send(x, 0)
                return y
            """,
            self.RULE,
        )
        assert len(hits) == 1
        assert "'recv()'" in hits[0].message

    def test_send_send(self):
        hits = findings_for(
            """
            def f(comm, x):
                if comm.rank % 2 == 0:
                    comm.send(x, comm.rank + 1)
                    y = comm.recv(comm.rank + 1)
                else:
                    comm.send(x, comm.rank - 1)
                    y = comm.recv(comm.rank - 1)
                return y
            """,
            self.RULE,
        )
        assert len(hits) == 1
        assert "rendezvous" in hits[0].message

    def test_ordered_pair_is_clean(self):
        assert not findings_for(
            """
            def f(comm, x):
                if comm.rank == 0:
                    comm.send(x, 1)
                    y = comm.recv(1)
                else:
                    y = comm.recv(0)
                    comm.send(x, 0)
                return y
            """,
            self.RULE,
        )


class TestTagCollision:
    RULE = "SPMD-TAG-COLLISION"

    def test_literal_inside_foreign_namespace(self):
        hits = findings_for(
            """
            def f(comm, x):
                comm.send(x, 0, tag=1000005)
            """,
            self.RULE,
            modname="repro.other.module",
        )
        assert len(hits) == 1
        assert "overlap_round" in hits[0].message

    def test_borrowed_namespace_constant(self):
        hits = findings_for(
            """
            from repro.mpi.tags import OVERLAP_ROUND_BASE

            def f(comm, x):
                comm.send(x, 0, tag=OVERLAP_ROUND_BASE + 3)
            """,
            self.RULE,
            modname="repro.other.module",
        )
        assert len(hits) == 1
        assert "repro.core.overlap" in hits[0].message

    def test_owner_may_use_its_namespace(self):
        assert not findings_for(
            """
            from ..mpi.tags import OVERLAP_ROUND_BASE

            def f(comm, x):
                comm.send(x, 0, tag=OVERLAP_ROUND_BASE + 3)
            """,
            self.RULE,
            modname="repro.core.overlap",
        )

    def test_duplicate_literal_across_modules(self):
        a = build_record(
            "def f(comm, x):\n    comm.send(x, 0, tag=42)\n", "a.py", "repro.a"
        )
        b = build_record(
            "def g(comm):\n    return comm.recv(0, tag=42)\n", "b.py", "repro.b"
        )
        hits = [f for f in analyze_records([a, b]) if f.rule == self.RULE]
        assert len(hits) == 2
        assert {f.path for f in hits} == {"a.py", "b.py"}

    def test_same_literal_within_one_module_is_clean(self):
        assert not findings_for(
            """
            def f(comm, x):
                comm.send(x, 0, tag=42)
                return comm.recv(0, tag=42)
            """,
            self.RULE,
        )


class TestWallclock:
    RULE = "SPMD-WALLCLOCK"

    @pytest.mark.parametrize(
        "call",
        [
            "time.time()",
            "time.perf_counter()",
            "random.random()",
            "np.random.rand(4)",
            "np.random.default_rng()",
        ],
    )
    def test_nondeterministic_sources(self, call):
        hits = findings_for(
            f"""
            import time, random
            import numpy as np

            def f(comm, x):
                y = {call}
                return y
            """,
            self.RULE,
        )
        assert len(hits) == 1

    def test_seeded_rng_is_clean(self):
        assert not findings_for(
            """
            import numpy as np

            def f(comm, x, seed):
                rng = np.random.default_rng(seed)
                g = np.random.Generator(np.random.MT19937([seed, comm.rank]))
                return rng.random() + g.random()
            """,
            self.RULE,
        )

    def test_outside_rank_function_ignored(self):
        assert not findings_for(
            """
            import time

            def bench(fn):
                t0 = time.perf_counter()
                fn()
                return time.perf_counter() - t0
            """,
            self.RULE,
        )


def _own_statement_oracle(fn):
    """Own statements by brute force: everything below ``fn`` that is a
    statement and not inside a nested def/class, in source order."""
    out = []

    def rec(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, SCOPES):
                continue
            if isinstance(child, ast.stmt):
                out.append(child)
            rec(child)

    rec(fn)
    return sorted(out, key=lambda st: (st.lineno, st.col_offset))


def _module_oracle(tree, modname):
    """``lower_module``'s answer by brute force: every node from
    ``ast.walk``, placed by climbing a parent map."""
    up = {}
    for parent in ast.walk(tree):
        for name, value in ast.iter_fields(parent):
            for child in value if isinstance(value, list) else [value]:
                if isinstance(child, ast.AST):
                    up[child] = (parent, name)

    def place(node):
        """(dotted scope, direct class, owning sync def) of a node."""
        scope, cls, owner, direct = [], None, None, True
        while node in up:
            node, via = up[node]
            if isinstance(node, ast.ClassDef):
                scope[:0] = [node.name]
                cls, direct = (node.name if direct else cls), False
            elif isinstance(node, SCOPES) and via == "body":
                scope[:0] = [node.name, LOCALS_SEP]
                if direct and isinstance(node, ast.FunctionDef):
                    owner = node
                direct = False
        return ".".join(scope), cls, owner

    functions, calls, modules, symbols = [], [], {}, {}
    for node in ast.walk(tree):
        scope, cls, owner = place(node)
        if isinstance(node, ast.FunctionDef):
            functions.append((f"{scope}.{node.name}".lstrip("."), cls, node))
        elif isinstance(node, ast.Call):
            calls.append((scope, owner, node))
        elif isinstance(node, ast.Import):
            for a in node.names:
                modules.setdefault(a.asname or a.name, set()).add(a.name)
        elif isinstance(node, ast.ImportFrom):
            base = modname.split(".")[: -node.level] if node.level else []
            target = ".".join(base + ([node.module] if node.module else []))
            for a in node.names:
                symbols.setdefault(a.asname or a.name, set()).add((target, a.name))
    functions.sort(key=lambda f: (f[2].lineno, f[2].col_offset))
    return functions, calls, modules, symbols


class TestLowering:
    def test_module_walk_equals_the_brute_force_oracle(self):
        checked = 0
        for file in sorted((ROOT / "src").rglob("*.py")):
            tree = ast.parse(file.read_text(encoding="utf-8"))
            modname = _derive_modname(file)
            low = lower_module(tree, modname)
            functions, calls, modules, symbols = _module_oracle(tree, modname)
            assert [(d.dotted, d.cls, d.ctx.node) for d in low.functions] == functions, file
            # every call exactly once: owned by one function's lowering, or
            # unowned with the scope it is evaluated in
            owned = {
                id(c.node): d.ctx.node for d in low.functions for c in d.ctx.calls
            }
            unowned = {id(call): scope for scope, call in low.calls}
            assert len(owned) + len(unowned) == len(calls) == len(list(low.all_calls()))
            for scope, owner, call in calls:
                if owner is not None:
                    assert owned[id(call)] is owner, (file, call.lineno)
                else:
                    assert unowned[id(call)] == scope, (file, call.lineno)
            assert low.import_modules.keys() == modules.keys(), file
            assert all(v in modules[k] for k, v in low.import_modules.items()), file
            assert low.import_symbols.keys() == symbols.keys(), file
            assert all(v in symbols[k] for k, v in low.import_symbols.items()), file
            checked += len(functions)
        assert checked > 800  # not vacuous: src/ holds ~850 definitions

    def test_decorators_and_defaults_belong_to_the_enclosing_scope(self):
        src = """
        class C:
            @deco(1)
            def m(self, x=make()):
                inner()
                async def a(y=late()):
                    await go()
                    def nested(): pass
        """
        low = lower_module(ast.parse(textwrap.dedent(src)))
        assert [(d.dotted, d.cls) for d in low.functions] == [
            ("C.m", "C"),
            (f"C.m.{LOCALS_SEP}.a.{LOCALS_SEP}.nested", None),
        ]
        assert [(scope, call.func.id) for scope, call in low.calls] == [
            ("C", "deco"),
            ("C", "make"),
            (f"C.m.{LOCALS_SEP}", "late"),
            (f"C.m.{LOCALS_SEP}.a.{LOCALS_SEP}", "go"),
        ]

    def test_every_src_function_is_walked_once_in_order(self):
        root = ROOT / "src"
        checked = 0
        for file in sorted(root.rglob("*.py")):
            tree = ast.parse(file.read_text(encoding="utf-8"))
            for fn in ast.walk(tree):
                if not isinstance(fn, ast.FunctionDef):
                    continue
                stmts = lower(fn).stmts
                where = f"{file}:{fn.lineno} {fn.name}"
                assert len({id(st) for st in stmts}) == len(stmts), where
                assert [id(st) for st in stmts] == [
                    id(st) for st in _own_statement_oracle(fn)
                ], where
                checked += 1
        assert checked > 800  # not vacuous: src/ holds ~850 definitions

    def test_every_statement_container_is_covered(self):
        src = """
        def f(comm, xs):
            try:
                a = 1
            except ValueError:
                if xs:
                    return 2
            except OSError:
                b = 3
            else:
                c = 4
            finally:
                d = 5
            with open(xs) as fh:
                e = 6
            match xs:
                case [x]:
                    g = 7
                case _ if comm.rank:
                    h = 8
            for x in xs:
                i = 9
            else:
                j = 10
            while xs:
                k = 11
            else:
                m = 12
            def nested():
                hidden = 13
            class Local:
                also_hidden = 14
            return 15
        """
        fn = ast.parse(textwrap.dedent(src)).body[0]
        ctx = lower(fn)
        assert ctx.stmts == _own_statement_oracle(fn)
        bound = {b.name for b in ctx.bindings}
        assert bound == set("abcdeghijkm")
        assert [ast.literal_eval(r) for r in ctx.returns] == [2, 15]


class TestSuppression:
    def test_inline_ignore_specific_rule(self):
        assert not findings_for(
            """
            def f(comm, x):
                if comm.rank == 0:
                    comm.barrier()  # spmd: ignore[SPMD-DIV-COLLECTIVE]
            """
        )

    def test_ignore_wrong_rule_does_not_suppress(self):
        hits = findings_for(
            """
            def f(comm, x):
                if comm.rank == 0:
                    comm.barrier()  # spmd: ignore[SPMD-WALLCLOCK]
            """
        )
        assert [(f.rule, f.line) for f in hits] == [
            ("SPMD-DIV-COLLECTIVE", 4),
            ("SPMD-STALE-SUPPRESSION", 4),
        ]

    def test_bare_ignore_suppresses_all(self):
        assert not findings_for(
            """
            def f(comm, x):
                if comm.rank == 0:
                    comm.barrier()  # spmd: ignore
            """
        )

    def test_prefixless_shorthand_suppresses(self):
        # `spmd:` already names the namespace, so the SPMD- prefix is
        # optional inside the brackets.
        assert not findings_for(
            """
            def f(comm, x):
                if comm.rank == 0:
                    comm.barrier()  # spmd: ignore[DIV-COLLECTIVE]
            """
        )

    def test_prefixless_wrong_rule_does_not_suppress(self):
        hits = findings_for(
            """
            def f(comm, x):
                if comm.rank == 0:
                    comm.barrier()  # spmd: ignore[WALLCLOCK]
            """
        )
        assert [(f.rule, f.line) for f in hits] == [
            ("SPMD-DIV-COLLECTIVE", 4),
            ("SPMD-STALE-SUPPRESSION", 4),
        ]

    def test_shorthand_in_comma_list(self):
        assert not findings_for(
            """
            def f(comm, x):
                if comm.rank == 0:
                    comm.barrier()  # spmd: ignore[WALLCLOCK, DIV-COLLECTIVE]
            """
        )

    def test_stale_suppression_reported(self):
        (f,) = findings_for(
            """
            def f(comm, x):
                return comm.allreduce(x)  # spmd: ignore[DIV-COLLECTIVE]
            """
        )
        assert (f.rule, f.line) == ("SPMD-STALE-SUPPRESSION", 3)
        assert "suppresses nothing" in f.message

    def test_stale_suppression_not_self_suppressible(self):
        (f,) = findings_for(
            """
            def f(comm, x):
                return comm.allreduce(x)  # spmd: ignore[DIV-COLLECTIVE, STALE-SUPPRESSION]
            """
        )
        assert (f.rule, f.line) == ("SPMD-STALE-SUPPRESSION", 3)

    def test_marker_inside_a_string_literal_suppresses_nothing(self):
        hits = findings_for(
            """
            def f(comm, x):
                "# spmd: ignore is the marker; in a docstring it is never stale"
                if comm.rank == 0:
                    note = "# spmd: ignore"; comm.barrier()
            """
        )
        assert [(f.rule, f.line) for f in hits] == [("SPMD-DIV-COLLECTIVE", 5)]

    def test_program_finding_suppressible(self, tmp_path):
        # A finding of the whole-program phase obeys the marker at its line
        # just as a per-file finding does.
        prog = tmp_path / "prog.py"
        src = """
            def sync(comm):
                comm.barrier()

            def step(comm):
                if comm.rank == 0:
                    sync(comm){}
            """
        prog.write_text(textwrap.dedent(src.format("")), encoding="utf-8")
        hits = analyze_program([tmp_path])
        assert [(f.rule, f.line) for f in hits] == [("SPMD-INTERPROC-DIV-COLLECTIVE", 7)]
        marker = "  # spmd: ignore[INTERPROC-DIV-COLLECTIVE]"
        prog.write_text(textwrap.dedent(src.format(marker)), encoding="utf-8")
        assert analyze_program([tmp_path]) == []


def _seed(rel, anchor, replacement):
    """A real source file with one seeded regression: ``(path, text)``."""
    path = ROOT / "src" / "repro" / rel
    text = path.read_text(encoding="utf-8")
    assert text.count(anchor) == 1, f"{rel} drifted: anchor {anchor!r} not found once"
    return path, text.replace(anchor, replacement)


_BITONIC_RECV_RECV = """\
            if comm.rank < partner:
                other = comm.recv(partner, tag=BITONIC_STAGE_BASE + stages)
                comm.send(work, partner, tag=BITONIC_STAGE_BASE + stages)
            else:
                other = comm.recv(partner, tag=BITONIC_STAGE_BASE + stages)
                comm.send(work, partner, tag=BITONIC_STAGE_BASE + stages)
"""

class TestSeededRegressions:
    """The rule-catalogue audit as fixtures: one realistic regression seeded
    into real library source per rule that no file of the repository has
    ever tripped.  Traffic regressions (a whole-partition gather, an O(p²)
    allgather) are caught by measurement: ``tests/test_phase_traffic.py``."""

    @pytest.mark.parametrize(
        "rel, anchor, replacement, needle, rule",
        [
            (
                "core/multiselect.py",
                "    comm.compute(compute.call_overhead)\n",
                "    comm.compute(compute.call_overhead + time.perf_counter())\n",
                "time.perf_counter()",
                "SPMD-WALLCLOCK",
            ),
            (
                "baselines/bitonic.py",
                "            other = comm.sendrecv("
                "work, partner, tag=BITONIC_STAGE_BASE + stages)\n",
                _BITONIC_RECV_RECV,
                "if comm.rank < partner:",
                "SPMD-BLOCKING-CYCLE",
            ),
            (
                "core/exchange.py",
                "comm.alltoall([int(c) for c in send_counts])",
                "comm.alltoall(send_counts[: p - comm.rank])",
                "send_counts[: p - comm.rank]",
                "SPMD-SHAPE-MISMATCH",
            ),
            (
                "baselines/samplesort.py",
                "    splitters = _select_splitters(comm, gathered, local.dtype)\n",
                "    if comm.rank == 0:\n"
                "        splitters = _select_splitters(comm, gathered, local.dtype)\n",
                "splitters = _select_splitters(",
                "SPMD-INTERPROC-DIV-COLLECTIVE",
            ),
        ],
    )
    def test_seed_is_reported_at_the_mutated_line(
        self, rel, anchor, replacement, needle, rule
    ):
        path, text = _seed(rel, anchor, replacement)
        line = text[: text.index(needle)].count("\n") + 1
        hits = analyze_records([build_record(text, str(path))])
        assert [(f.rule, f.line) for f in hits] == [(rule, line)]


class TestCatalogue:
    def test_every_rule_has_its_design_md_anchor(self):
        # SARIF ``helpUri`` is DESIGN.md#<rule id, lower case>
        headings = {
            line.removeprefix("#### ").strip()
            for line in (ROOT / "DESIGN.md").read_text(encoding="utf-8").splitlines()
            if line.startswith("#### ")
        }
        ids = [r.id for r in RULES] + ["SPMD-PARSE-ERROR", "SPMD-STALE-SUPPRESSION"]
        assert [i for i in ids if i not in headings] == []


class TestSarifCatalogue:
    def test_all_rules_have_help_and_docs(self):
        from repro.analyze.sarif import to_sarif

        rules = to_sarif([])["runs"][0]["tool"]["driver"]["rules"]
        assert len(rules) == 13  # 11 catalogue + parse error + stale
        for r in rules:
            assert r["helpUri"].startswith("DESIGN.md#spmd-"), r["id"]
            assert r["fullDescription"]["markdown"], r["id"]
        ids = {r["id"] for r in rules}
        assert {"SPMD-PARSE-ERROR", "SPMD-STALE-SUPPRESSION"} <= ids


class TestCli:
    def _run(self, *args, cwd):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.run(
            [sys.executable, "-m", "repro.analyze", *args],
            capture_output=True,
            text=True,
            cwd=cwd,
            env=env,
        )

    def test_exit_zero_on_clean_tree(self, tmp_path):
        (tmp_path / "ok.py").write_text("def f(comm, x):\n    return comm.allreduce(x)\n")
        proc = self._run(str(tmp_path), cwd=Path(__file__).resolve().parents[1])
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stdout == ""

    def test_exit_one_with_findings(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def f(comm, x):\n    if comm.rank == 0:\n        comm.barrier()\n")
        proc = self._run(str(bad), cwd=Path(__file__).resolve().parents[1])
        assert proc.returncode == 1
        assert "SPMD-DIV-COLLECTIVE" in proc.stdout
        assert f"{bad}:3:" in proc.stdout

    def test_exit_two_on_syntax_error(self, tmp_path):
        (tmp_path / "broken.py").write_text("def f(:\n")
        proc = self._run(str(tmp_path), cwd=Path(__file__).resolve().parents[1])
        assert proc.returncode == 2
        assert "SPMD-PARSE-ERROR" in proc.stdout

    def test_list_rules(self):
        proc = self._run("--list-rules", cwd=Path(__file__).resolve().parents[1])
        assert proc.returncode == 0
        for rule in (
            "SPMD-DIV-COLLECTIVE",
            "SPMD-UNWAITED-REQUEST",
            "SPMD-BLOCKING-CYCLE",
            "SPMD-TAG-COLLISION",
            "SPMD-WALLCLOCK",
            "SPMD-BUFFER-REUSE",
            "SPMD-SHAPE-MISMATCH",
        ):
            assert rule in proc.stdout

    def test_sarif_output(self, tmp_path):
        import json

        bad = tmp_path / "bad.py"
        bad.write_text("def f(comm, x):\n    if comm.rank == 0:\n        comm.barrier()\n")
        out = tmp_path / "lint.sarif"
        proc = self._run(
            str(bad),
            "--format",
            "sarif",
            "--output",
            str(out),
            cwd=Path(__file__).resolve().parents[1],
        )
        assert proc.returncode == 1  # findings still drive the exit code
        doc = json.loads(out.read_text())
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro.analyze"
        (result,) = run["results"]
        assert result["ruleId"] == "SPMD-DIV-COLLECTIVE"
        assert result["level"] == "warning"
        loc = result["locations"][0]["physicalLocation"]
        assert loc["region"]["startLine"] == 3
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert "SPMD-BUFFER-REUSE" in rule_ids

    def test_sarif_clean_tree_is_valid_empty_log(self, tmp_path):
        import json

        (tmp_path / "ok.py").write_text("def f(comm, x):\n    return comm.allreduce(x)\n")
        proc = self._run(
            str(tmp_path), "--format", "sarif", cwd=Path(__file__).resolve().parents[1]
        )
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["runs"][0]["results"] == []


class TestRepoIsClean:
    def test_src_and_examples_lint_clean(self, repo_sweep):
        findings = repo_sweep("src", "examples")
        assert findings == [], "\n".join(f.format() for f in findings)
