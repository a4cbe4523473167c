"""The candidate planner: model-score the knob space, dry-run the top-k.

Planning is two-staged, cheap-to-expensive:

1. **Closed-form scoring** — every enumerated candidate (algorithm +
   :class:`~repro.core.config.SortConfig`) is priced in microseconds with
   the analytic phase models of :mod:`repro.model.phases` at the
   fingerprint's full ``(N, P)``.
2. **Virtual-clock dry runs** — the top-k by model score (the paper-default
   configuration is always kept in the refinement set) are executed through
   the real SPMD runtime on a *reduced* problem: synthetic partitions
   matched to the fingerprint's distribution character, at most
   :data:`DRY_RUN_MAX_RANKS` ranks and :data:`DRY_RUN_MAX_N` elements per
   rank.  Dry runs advance only virtual clocks — tuning never reads the
   host's wall clock — and their measured/modelled ratio re-scales the
   full-size prediction, which is what the final selection minimizes.

The output is a :class:`SortPlan`: a frozen value object carrying the
chosen algorithm + config, the refined makespan prediction, and full
provenance (per-candidate scores, dry-run shape, versions, seed).  Planning
is a pure function of ``(fingerprint, machine, seed)``: the same inputs
always produce the identical plan.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

from ..algorithms import ALGORITHMS
from ..core.config import SortConfig, SplitterConfig
from ..machine.spec import MachineSpec
from ..model.phases import MODEL_VERSION
from ..mpi import run_spmd
from .fingerprint import WorkloadFingerprint

__all__ = ["Candidate", "SortPlan", "enumerate_candidates", "model_score", "plan_sort"]

#: bump when enumeration/scoring/dry-run logic changes; part of every plan id
PLANNER_VERSION = 1

#: dry runs never use more ranks / more elements per rank than this
DRY_RUN_MAX_RANKS = 16
DRY_RUN_MAX_N = 2048

#: total virtual-clock dry runs executed by this process (cache-hit tests
#: assert it stays put; reset is never needed — only deltas are meaningful)
_DRY_RUN_COUNT = 0


def dry_run_count() -> int:
    """Process-lifetime count of planner dry runs (monotonic)."""
    return _DRY_RUN_COUNT


@dataclass(frozen=True)
class Candidate:
    """One point of the knob space: an algorithm plus its configuration."""

    label: str
    algo: str  # "dash" | "hss" | "sample_sort"
    config: SortConfig


@dataclass(frozen=True)
class SortPlan:
    """A tuning decision: what to run, what it should cost, and why.

    ``provenance`` carries the full audit trail — per-candidate model and
    dry-run scores, the dry-run problem shape, planner/model versions, and
    the planning seed — so ``python -m repro.tune explain`` can replay the
    decision.  Plans are deterministic values: equal inputs give plans that
    compare equal field-for-field.
    """

    plan_id: str
    algo: str
    label: str
    config: SortConfig
    predicted_s: float
    key: str
    provenance: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "plan_id": self.plan_id,
            "algo": self.algo,
            "label": self.label,
            "config": self.config.to_dict(),
            "predicted_s": self.predicted_s,
            "key": self.key,
            "provenance": self.provenance,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SortPlan":
        extra = set(data) - {"plan_id", "algo", "label", "config", "predicted_s", "key", "provenance"}
        if extra:
            raise ValueError(f"unknown SortPlan field(s): {sorted(extra)}")
        return cls(
            plan_id=str(data["plan_id"]),
            algo=str(data["algo"]),
            label=str(data["label"]),
            config=SortConfig.from_dict(data["config"]),
            predicted_s=float(data["predicted_s"]),
            key=str(data["key"]),
            provenance=dict(data.get("provenance", {})),
        )


# --------------------------------------------------------------- enumeration


def enumerate_candidates(fp: WorkloadFingerprint, *, eps: float = 0.0) -> list[Candidate]:
    """The knob space the tuner searches, paper default first.

    Only ``dash`` candidates honour exact (``eps``-bounded) partition
    capacities; the one-shot ``sample_sort`` baseline is enumerated only
    when the caller tolerates real imbalance (``eps >= 0.1``).
    """
    base = SortConfig(eps=eps)
    sample_splitter = SplitterConfig(initial_guess="sample")
    out = [
        Candidate("dash/paper-default", "dash", base),
        Candidate("dash/adaptive-merge", "dash", base.with_(merge_strategy="adaptive")),
        Candidate("dash/sample-guess", "dash", base.with_(splitter=sample_splitter)),
        Candidate(
            "dash/sample-guess+adaptive-merge",
            "dash",
            base.with_(splitter=sample_splitter, merge_strategy="adaptive"),
        ),
        Candidate(
            "dash/overlap-exchange",
            "dash",
            base.with_(overlap_exchange=True, merge_strategy="binary_tree"),
        ),
        Candidate("hss/interval-sampling", "hss", base),
    ]
    if eps >= 0.1:
        out.append(Candidate("sample_sort/one-shot", "sample_sort", base))
    return out


# ------------------------------------------------------------- model scoring


def _resolve_merge(fp: WorkloadFingerprint, strategy: str) -> str:
    """Map ``adaptive`` onto what :func:`local_merge` would pick at size."""
    if strategy != "adaptive":
        return strategy
    chunk = fp.n_per_rank / max(fp.p, 1)
    return "sort" if (chunk < (1 << 14) and fp.p > 4) else "binary_tree"


def model_score(cand: Candidate, fp: WorkloadFingerprint, machine: MachineSpec) -> float:
    """Closed-form predicted makespan of ``cand`` at the fingerprint's scale."""
    algo = ALGORITHMS[cand.algo]
    pred = algo.predict(
        machine,
        fp.n_total,
        fp.p,
        rounds=algo.prior_rounds(fp, cand.config),
        merge_strategy=_resolve_merge(fp, cand.config.merge_strategy),
        ranks_per_node=fp.ranks_per_node,
        itemsize=fp.itemsize,
    )
    if cand.config.overlap_exchange:
        # 1-factor overlap hides merge work behind transfers (§VI-E.1);
        # credit the overlap conservatively rather than fully.
        return pred.total - 0.5 * min(pred.exchange, pred.merge)
    return pred.total


# ------------------------------------------------------------------ dry runs


def _dry_shape(fp: WorkloadFingerprint) -> tuple[int, int, int]:
    """(p, n_per_rank, ranks_per_node) of the reduced dry-run problem."""
    p = min(fp.p, DRY_RUN_MAX_RANKS)
    n_per_rank = max(min(fp.n_per_rank, DRY_RUN_MAX_N), 2)
    rpn = min(fp.ranks_per_node, p)
    return p, n_per_rank, rpn


def synth_partition(fp: WorkloadFingerprint, n: int, rank: int, seed: int) -> np.ndarray:
    """A synthetic partition with the fingerprint's statistical character.

    Deterministic in ``(fingerprint bucket, seed, rank)``: duplicates are
    matched by drawing from a reduced distinct pool, skew by an exponential
    value transform, sortedness by pre-sorting rank-contiguous ranges.
    """
    digest = hashlib.sha256(fp.bucket_key().encode()).digest()
    rng = np.random.Generator(
        np.random.MT19937([seed, rank, int.from_bytes(digest[:4], "big")])
    )
    if fp.dup_ratio > 0.05:
        distinct = max(int(n * (1.0 - fp.dup_ratio)), 1)
        vals = rng.integers(0, distinct, size=n).astype(np.float64)
    elif fp.skew > 0.5:
        vals = rng.exponential(1.0, size=n)
    else:
        vals = rng.random(size=n)
    span = float(2 ** min(fp.key_bits, 62) - 1)
    if fp.dtype_kind == "f":
        data = vals.astype(np.float64 if fp.itemsize == 8 else np.float32)
    else:
        scaled = vals / max(vals.max(), 1e-30) * span
        dtype = np.dtype(f"{fp.dtype_kind}{fp.itemsize}")
        data = scaled.astype(dtype)
    if fp.sortedness > 0.9:
        # globally nearly sorted: rank r holds the r-th slice of the range
        data = np.sort(data)
        if fp.dtype_kind != "f":
            width = span / max(fp.p, 1)
            data = (data / max(fp.p, 1) + rank * width).astype(data.dtype)
        else:
            data = data + rank * 4.0
    return data


def _dry_run_program(comm, cand_algo: str, config_dict: dict, fp_dict: dict, n: int, seed: int):
    fp = WorkloadFingerprint.from_dict(fp_dict)
    local = synth_partition(fp, n, comm.rank, seed)
    ALGORITHMS[cand_algo].run(comm, local, SortConfig.from_dict(config_dict), seed)


def _dry_run_candidate(
    cand: Candidate,
    fp: WorkloadFingerprint,
    machine: MachineSpec,
    *,
    seed: int,
) -> float:
    """Virtual-clock makespan of one candidate on the reduced problem."""
    global _DRY_RUN_COUNT
    _DRY_RUN_COUNT += 1
    p, n_per_rank, rpn = _dry_shape(fp)
    _, rt = run_spmd(
        p,
        _dry_run_program,
        cand.algo,
        cand.config.to_dict(),
        fp.to_dict(),
        n_per_rank,
        seed,
        machine=machine,
        ranks_per_node=rpn,
        return_runtime=True,
    )
    return rt.elapsed()


# ------------------------------------------------------------------ planning


def plan_sort(
    fp: WorkloadFingerprint,
    machine: MachineSpec,
    *,
    eps: float = 0.0,
    seed: int = 0,
    top_k: int = 3,
    dry_runs: bool = True,
) -> SortPlan:
    """Plan the sort for ``fp`` on ``machine``; deterministic in the inputs.

    Stage 1 model-scores every candidate; stage 2 dry-runs the ``top_k``
    cheapest (the paper default always rides along as the control) and
    re-scales each full-size prediction by its measured/modelled dry-run
    ratio.  ``dry_runs=False`` plans from the closed forms alone.
    """
    if fp.machine != machine.signature():
        raise ValueError(
            "fingerprint was taken on a different machine "
            f"({fp.machine} != {machine.signature()})"
        )
    cands = enumerate_candidates(fp, eps=eps)
    scored = [(model_score(c, fp, machine), i, c) for i, c in enumerate(cands)]
    refine_idx = {i for _, i, _ in sorted(scored)[: max(top_k, 1)]}
    refine_idx.add(0)  # the paper default is always measured as the control

    p_dry, n_dry, rpn_dry = _dry_shape(fp)
    audit: list[dict[str, Any]] = []
    best: tuple[float, int] | None = None
    for model_s, i, cand in scored:
        dry_s = refined = None
        if dry_runs and i in refine_idx:
            fp_dry = WorkloadFingerprint(
                n_total=p_dry * n_dry,
                p=p_dry,
                ranks_per_node=rpn_dry,
                itemsize=fp.itemsize,
                dtype_kind=fp.dtype_kind,
                key_bits=fp.key_bits,
                dup_ratio=fp.dup_ratio,
                sortedness=fp.sortedness,
                skew=fp.skew,
                machine=fp.machine,
            )
            dry_s = _dry_run_candidate(cand, fp, machine, seed=seed)
            dry_model_s = model_score(cand, fp_dry, machine)
            refined = model_s * (dry_s / dry_model_s) if dry_model_s > 0 else dry_s
        score = refined if refined is not None else model_s
        audit.append(
            {
                "label": cand.label,
                "algo": cand.algo,
                "model_s": model_s,
                "dry_s": dry_s,
                "refined_s": refined,
            }
        )
        # strict <: at a tie the earlier (more paper-faithful) candidate wins
        if best is None or score < best[0]:
            best = (score, i)

    assert best is not None
    predicted_s, winner_idx = best
    winner = cands[winner_idx]
    key = fp.bucket_key()
    plan_id = hashlib.sha256(
        f"{key}|{winner.label}|seed={seed}|planner={PLANNER_VERSION}|model={MODEL_VERSION}".encode()
    ).hexdigest()[:12]
    return SortPlan(
        plan_id=plan_id,
        algo=winner.algo,
        label=winner.label,
        config=winner.config,
        predicted_s=float(predicted_s),
        key=key,
        provenance={
            "planner_version": PLANNER_VERSION,
            "model_version": MODEL_VERSION,
            "seed": seed,
            "dry_runs": bool(dry_runs),
            "dry_shape": {"p": p_dry, "n_per_rank": n_dry, "ranks_per_node": rpn_dry},
            "fingerprint": fp.to_dict(),
            "candidates": audit,
        },
    )
