"""Phase timers."""

import pytest

from repro.trace import PhaseTimer, combine_phases


class TestPhaseTimer:
    def test_marks_split_timeline(self, run):
        def prog(comm):
            timer = PhaseTimer(comm)
            comm.compute(1.0)
            timer.mark("a")
            comm.compute(2.0)
            timer.mark("b")
            return timer.phases, timer.total

        phases, total = run(1, prog)[0]
        assert phases["a"] == pytest.approx(1.0)
        assert phases["b"] == pytest.approx(2.0)
        assert total == pytest.approx(3.0)

    def test_repeated_mark_accumulates(self, run):
        def prog(comm):
            timer = PhaseTimer(comm)
            comm.compute(1.0)
            timer.mark("x")
            comm.compute(1.0)
            timer.mark("x")
            return timer.phases["x"]

        assert run(1, prog)[0] == pytest.approx(2.0)

    def test_mark_returns_delta(self, run):
        def prog(comm):
            timer = PhaseTimer(comm)
            comm.compute(0.5)
            return timer.mark("p")

        assert run(1, prog)[0] == pytest.approx(0.5)


class TestCombine:
    def test_max_and_mean(self):
        per_rank = [{"a": 1.0, "b": 0.0}, {"a": 3.0, "b": 2.0}]
        assert combine_phases(per_rank, "max") == {"a": 3.0, "b": 2.0}
        assert combine_phases(per_rank, "mean") == {"a": 2.0, "b": 1.0}

    def test_missing_keys_default_zero(self):
        out = combine_phases([{"a": 1.0}, {"b": 2.0}], "max")
        assert out == {"a": 1.0, "b": 2.0}

    def test_empty(self):
        assert combine_phases([]) == {}
