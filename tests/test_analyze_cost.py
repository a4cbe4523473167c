"""Cost lint: symbolic sizes, the four scalability rules, model conformance."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analyze import symbolic as sym
from repro.analyze.astlint import module_from_source
from repro.analyze.costlint import (
    RULE_HANDROLLED,
    RULE_OVERSIZED_REDUCE,
    RULE_P2_TRAFFIC,
    RULE_ROOT_BOTTLENECK,
    CostProgram,
)
from repro.analyze.conformance import (
    check_conformance,
    main_cost,
    model_traffic,
    static_traffic,
)
from repro.analyze.engine import analyze_program
from repro.analyze.interproc import Program, summarize_module

ROOT = Path(__file__).resolve().parents[1]


def cost_findings(*mods, rule=None):
    """Cost-rule findings over (src, path, modname) triples.

    A single flattened ``(src, path, modname)`` call is accepted too.
    """
    if mods and isinstance(mods[0], str):
        mods = (tuple(mods),)
    summaries = [
        summarize_module(module_from_source(textwrap.dedent(src), path, modname))
        for src, path, modname in mods
    ]
    out = CostProgram(Program(summaries)).findings()
    if rule is None:
        return out
    return [f for f in out if f.rule == rule]


# A run_spmd reference marks `prog` as an entry point, which grounds its
# data parameter at the conventional n/p rank share.
ENTRY = """
import numpy as np
from repro.mpi import run_spmd


def prog(comm, local):
%s

def main():
    return run_spmd(4, prog)
"""


def entry_fixture(body):
    return ENTRY % textwrap.indent(textwrap.dedent(body), "    ")


# ------------------------------------------------------------ symbolic sizes


class TestSymbolic:
    def test_smax_is_upper_bound_not_sum(self):
        a = sym.add(sym.atom("p"), sym.const(-1))  # p - 1
        m = sym.smax(a, a)
        assert m == a  # idempotent: max(x, x) = x, not 2x

    def test_smax_takes_coefficient_max(self):
        a = sym.scale(sym.atom("p"), 2)
        b = sym.add(sym.scale(sym.atom("p"), 3), sym.ONE)
        assert sym.smax(a, b) == b

    def test_smax_unknown_poisons(self):
        assert sym.smax(sym.UNKNOWN, sym.atom("p")) is sym.UNKNOWN

    def test_branch_join_keeps_larger_arm(self):
        # The else-arm `sample = work[:0]` must not zero out the payload
        # inferred on the then-arm (flow-insensitive last-write would).
        hits = cost_findings(
            entry_fixture(
                """
                work = np.sort(local)
                if comm.size > 1 and work.size:
                    sample = work[np.arange(1, comm.size)]
                else:
                    sample = work[:0]
                return comm.allgather(sample)
                """
            ),
            "j.py",
            "j",
            rule=RULE_P2_TRAFFIC,
        )
        assert len(hits) == 1
        assert "p" in hits[0].message

    def test_pad_to_length_concatenate(self):
        # concatenate([flat, np.full(K - flat.size, ...)]) totals K, not
        # |flat| + K — the samplesort/PSRS degenerate-sample idiom.
        hits = cost_findings(
            entry_fixture(
                """
                flat = np.sort(local)
                b = comm.size - 1
                splitters = np.concatenate(
                    [flat, np.full(b - flat.size, 0, dtype=flat.dtype)]
                )
                return comm.allgather(splitters)
                """
            ),
            "pad.py",
            "pad",
            rule=RULE_P2_TRAFFIC,
        )
        # payload is p-1, not n/p: fires the p-growth arm, not the n one
        assert len(hits) == 1
        assert "grows with p" in hits[0].message

    def test_return_nested_in_except_handler_is_priced_once(self):
        # two levels below an `except`, the statement used to be walked
        # twice and the return size summed twice (2·$data)
        src = """
        def f(comm, data, c):
            try:
                comm.barrier()
            except ValueError:
                if c:
                    return data
        """
        mod = module_from_source(textwrap.dedent(src), "ret.py", "ret")
        cost = summarize_module(mod).functions["f"].cost
        assert cost.returns == sym.atom("$data")


# ------------------------------------------------- the four cost rules


class TestRootBottleneck:
    def test_gather_of_local_share_fires(self):
        hits = cost_findings(
            entry_fixture("return comm.gather(np.sort(local), root=0)"),
            "a.py",
            "a",
            rule=RULE_ROOT_BOTTLENECK,
        )
        assert len(hits) == 1
        assert "n/p" in hits[0].message  # the inferred symbolic term
        assert "Θ(n)" in hits[0].message  # the root's materialized volume

    def test_gather_of_scalar_is_near_miss(self):
        assert not cost_findings(
            entry_fixture("return comm.gather(local.size, root=0)"),
            "a.py",
            "a",
            rule=RULE_ROOT_BOTTLENECK,
        )

    def test_gather_of_p_counts_is_clean(self):
        assert not cost_findings(
            entry_fixture(
                """
                counts = np.zeros(comm.size)
                return comm.gather(counts, root=0)
                """
            ),
            "a.py",
            "a",
            rule=RULE_ROOT_BOTTLENECK,
        )

    def test_interprocedural_via_chain(self):
        hits = cost_findings(
            (
                """
                import numpy as np
                from repro.mpi import run_spmd

                def sorted_copy(x):
                    return np.sort(x)

                def prog(comm, local):
                    return comm.gather(sorted_copy(local), root=0)

                def main():
                    return run_spmd(4, prog)
                """,
                "via.py",
                "via",
            ),
            rule=RULE_ROOT_BOTTLENECK,
        )
        assert len(hits) == 1
        assert "via sorted_copy()" in hits[0].message
        assert hits[0].related  # secondary location points at the callee


class TestP2Traffic:
    def test_allgather_of_p_sized_buffer_fires(self):
        hits = cost_findings(
            entry_fixture(
                """
                row = np.zeros(comm.size)
                return comm.allgather(row)
                """
            ),
            "b.py",
            "b",
            rule=RULE_P2_TRAFFIC,
        )
        assert len(hits) == 1
        assert "Θ(p^2)" in hits[0].message

    def test_allgather_of_scalar_is_near_miss(self):
        assert not cost_findings(
            entry_fixture("return comm.allgather(local.size)"),
            "b.py",
            "b",
            rule=RULE_P2_TRAFFIC,
        )

    def test_seeded_p2_handrolled_exchange_regression(self):
        # The acceptance fixture: an alltoall whose rows grow with p —
        # Ω(p²) wire bytes — must be caught with the right symbolic term.
        hits = cost_findings(
            entry_fixture(
                """
                chunks = [np.zeros(comm.size) for _ in range(comm.size)]
                return comm.alltoall(chunks)
                """
            ),
            "c.py",
            "c",
        )
        rules = {f.rule for f in hits}
        assert RULE_P2_TRAFFIC in rules
        (hit,) = [f for f in hits if f.rule == RULE_P2_TRAFFIC]
        assert "p^2" in hit.message  # per-rank row total
        assert "p^3" in hit.message  # total wire volume across ranks


class TestHandrolledCollective:
    def test_blocking_send_loop_fires(self):
        hits = cost_findings(
            entry_fixture(
                """
                for peer in range(comm.size):
                    comm.send(local, dest=peer)
                """
            ),
            "d.py",
            "d",
            rule=RULE_HANDROLLED,
        )
        assert len(hits) == 1
        assert "n/p" in hits[0].message  # elements moved per round

    def test_nonblocking_small_payload_loop_is_near_miss(self):
        # isend of O(1) counts + waitall is latency-bound bookkeeping,
        # not a re-implemented data collective.
        assert not cost_findings(
            entry_fixture(
                """
                reqs = []
                for peer in range(comm.size):
                    reqs.append(comm.isend(local.size, dest=peer))
                for r in reqs:
                    r.wait()
                """
            ),
            "d.py",
            "d",
            rule=RULE_HANDROLLED,
        )

    def test_nonblocking_big_payload_loop_fires(self):
        hits = cost_findings(
            entry_fixture(
                """
                reqs = []
                for peer in range(comm.size):
                    reqs.append(comm.isend(local, dest=peer))
                for r in reqs:
                    r.wait()
                """
            ),
            "d.py",
            "d",
            rule=RULE_HANDROLLED,
        )
        assert len(hits) == 1
        assert "in-flight volume" in hits[0].message

    def test_constant_peer_loop_is_clean(self):
        assert not cost_findings(
            entry_fixture(
                """
                for peer in range(2):
                    comm.send(local, dest=peer)
                """
            ),
            "d.py",
            "d",
            rule=RULE_HANDROLLED,
        )


class TestOversizedReduce:
    def test_allreduce_of_data_fires(self):
        hits = cost_findings(
            entry_fixture("return comm.allreduce(local)"),
            "e.py",
            "e",
            rule=RULE_OVERSIZED_REDUCE,
        )
        assert len(hits) == 1
        assert "n/p" in hits[0].message

    def test_allreduce_of_histogram_is_near_miss(self):
        assert not cost_findings(
            entry_fixture(
                """
                hist = np.zeros(2 * (comm.size - 1))
                return comm.allreduce(hist)
                """
            ),
            "e.py",
            "e",
            rule=RULE_OVERSIZED_REDUCE,
        )


# ------------------------------------------------------------- suppression


class TestSuppressionAndStore:
    def fixture(self, tmp_path, body):
        f = tmp_path / "prog.py"
        f.write_text(entry_fixture(body), encoding="utf-8")
        return f

    def test_cost_finding_suppressible(self, tmp_path):
        self.fixture(
            tmp_path,
            """
            row = np.zeros(comm.size)
            return comm.allgather(row)  # spmd: ignore[P2-TRAFFIC]
            """,
        )
        assert analyze_program([tmp_path]) == []

    def test_stale_suppression_reported(self, tmp_path):
        self.fixture(
            tmp_path,
            "return comm.allgather(local.size)  # spmd: ignore[P2-TRAFFIC]",
        )
        (f,) = analyze_program([tmp_path])
        assert f.rule == "SPMD-STALE-SUPPRESSION"
        assert "suppresses nothing" in f.message

    def test_stale_suppression_not_self_suppressible(self, tmp_path):
        self.fixture(
            tmp_path,
            "return comm.allgather(local.size)"
            "  # spmd: ignore[P2-TRAFFIC, STALE-SUPPRESSION]",
        )
        (f,) = analyze_program([tmp_path])
        assert f.rule == "SPMD-STALE-SUPPRESSION"


# ---------------------------------------------------------- conformance


class TestConformance:
    def test_histsort_three_way_agreement(self):
        report = check_conformance("histsort", p=4, n=4096)
        assert report.ok
        phases = {c.phase for c in report.comparisons}
        assert {"splitting", "exchange"} <= phases

    def test_samplesort_three_way_agreement(self):
        report = check_conformance("samplesort", p=4, n=4096)
        assert report.ok

    def test_exchange_volume_is_exact(self):
        report = check_conformance("psrs", p=4, n=4096)
        (ex,) = [c for c in report.comparisons if c.phase == "exchange"]
        assert ex.static == ex.modelled == ex.measured == 4096 * 8

    def test_disagreement_fails_with_attribution(self):
        # An absurdly tight tolerance turns the static/measured slack of
        # real phases into a reported disagreement with static-term blame.
        report = check_conformance("histsort", p=8, n=8192, tolerance=1.01)
        assert not report.ok
        bad = [c for c in report.comparisons if not c.ok and not c.skipped]
        assert bad and any(c.attribution for c in bad)

    def test_static_matches_predict_histsort_asymptotics(self):
        # predict_histsort prices `rounds` allreduces of 2(p-1)*8 bytes in
        # the splitting phase; the statically derived splitting traffic
        # must scale the same way: linear in rounds, ~quadratic in p once
        # the per-round term dominates.
        def split(p, rounds):
            phase_bytes, _, _ = static_traffic("histsort", p, 1 << 16, rounds)
            return phase_bytes["splitting"]

        assert split(8, 40) / split(8, 20) == pytest.approx(2.0, rel=0.15)
        # model side: the same doubling, by construction of the formula
        assert model_traffic("histsort", 8, 1 << 16, 40)["splitting"] / (
            model_traffic("histsort", 8, 1 << 16, 20)["splitting"]
        ) == pytest.approx(2.0, rel=0.05)
        # rounds fixed, p doubled: the p * rounds * 2(p-1) * 8 term
        # dominates, so traffic grows ~4x on both sides
        assert split(32, 20) / split(16, 20) == pytest.approx(4.0, rel=0.25)

    def test_static_matches_predict_samplesort_asymptotics(self):
        # predict_samplesort gathers `oversample` keys per rank and
        # broadcasts p-1 splitters: sampling traffic is linear in p,
        # exchange is linear in n, independent of the other.
        def phases(p, n):
            phase_bytes, _, _ = static_traffic("samplesort", p, n, 1)
            return phase_bytes

        a, b = phases(8, 1 << 14), phases(16, 1 << 14)
        assert b["sampling"] / a["sampling"] == pytest.approx(2.0, rel=0.05)
        assert b["exchange"] == a["exchange"]
        c = phases(8, 1 << 15)
        assert c["exchange"] / a["exchange"] == pytest.approx(2.0, rel=0.01)
        assert c["sampling"] == a["sampling"]


# ------------------------------------------------------------------- CLI


def run_cli(*args, cwd=ROOT):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro.analyze", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )


class TestCostCli:
    def test_cost_subcommand_exits_clean(self):
        out = run_cli("cost", "--algo", "samplesort", "--p", "4", "--n", "2048")
        assert out.returncode == 0, out.stdout + out.stderr
        assert "samplesort" in out.stdout
        assert "exchange" in out.stdout

    def test_cost_help_documents_exit_codes(self):
        out = run_cli("cost", "--help")
        assert out.returncode == 0
        assert "Exit codes" in out.stdout

    def test_main_help_mentions_cost_and_exit_codes(self):
        out = run_cli("--help")
        assert out.returncode == 0
        assert "cost" in out.stdout
        assert "Exit codes" in out.stdout

    def test_cost_rejects_unknown_algo(self):
        out = run_cli("cost", "--algo", "nope")
        assert out.returncode == 2

    def test_main_cost_callable_directly(self):
        assert main_cost(["--algo", "psrs", "--p", "4", "--n", "2048"]) == 0


# -------------------------------------------------------------- catalogue


class TestSarifCatalogue:
    def test_all_rules_have_help_and_docs(self):
        from repro.analyze.sarif import to_sarif

        rules = to_sarif([])["runs"][0]["tool"]["driver"]["rules"]
        assert len(rules) == 17  # 15 catalogue + parse error + stale
        for r in rules:
            assert r["helpUri"].startswith("DESIGN.md#spmd-"), r["id"]
            assert r["fullDescription"]["markdown"], r["id"]
        ids = {r["id"] for r in rules}
        assert {
            RULE_ROOT_BOTTLENECK,
            RULE_P2_TRAFFIC,
            RULE_HANDROLLED,
            RULE_OVERSIZED_REDUCE,
            "SPMD-PARSE-ERROR",
            "SPMD-STALE-SUPPRESSION",
        } <= ids
