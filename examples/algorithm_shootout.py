"""Compare the histogram sort against every baseline on one workload.

Runs the paper's algorithm and all §III related-work baselines on the same
distributed input (uniform uint64, the §VI-B workload) on a simulated
2-node SuperMUC slice, and prints modelled times, exchange volumes, and
balance quality — a small-scale echo of the Fig. 2/3 comparisons.

Run:  python examples/algorithm_shootout.py
"""

from __future__ import annotations

import numpy as np

from repro.baselines import BASELINES
from repro.core import histogram_sort
from repro.data import uniform_u64
from repro.machine import supermuc_phase2
from repro.mpi import run_spmd
from repro.seq import is_globally_sorted, is_permutation

P = 16                # power of two so hypercube baselines can play
N_PER_RANK = 30_000
MACHINE = supermuc_phase2(nodes=2)


def run_algo(name):
    def program(comm):
        local = uniform_u64(N_PER_RANK, rank=comm.rank, seed=7)
        if name == "histogram_sort":
            res = histogram_sort(comm, local)
            return local, res.output, res.phases
        res = BASELINES[name](comm, local)
        return local, res.output, res.phases

    out, rt = run_spmd(
        P, program, machine=MACHINE, ranks_per_node=8, return_runtime=True
    )
    ins = [o[0] for o in out]
    outs = [o[1] for o in out]
    assert is_globally_sorted(outs) and is_permutation(ins, outs), name
    sizes = np.array([o.size for o in outs])
    imbalance = float(sizes.max() / (N_PER_RANK))
    return rt.elapsed(), imbalance, int(rt.stats.snapshot().collectives.get("alltoallv", (0, 0))[1])


def main() -> None:
    names = ["histogram_sort", *sorted(BASELINES)]
    print(f"{P} ranks x {N_PER_RANK:,} uniform uint64 keys, 2 simulated nodes\n")
    print(f"{'algorithm':<16} {'virtual time':>13} {'max load':>9} {'alltoallv bytes':>16}")
    rows = []
    for name in names:
        seconds, imbalance, volume = run_algo(name)
        rows.append((name, seconds, imbalance, volume))
    for name, seconds, imbalance, volume in sorted(rows, key=lambda r: r[1]):
        print(f"{name:<16} {seconds * 1e3:>10.2f} ms {imbalance:>8.2f}x {volume:>16,}")
    print(
        "\nnotes: histogram_sort and bitonic guarantee perfect partitioning"
        " (max load 1.0x);\nsampling-based algorithms trade balance for fewer"
        " splitter rounds; hypercube\nalgorithms move data log(P) times."
        "  At this tiny N/P the splitter rounds dominate\nhistogram_sort"
        " - the paper's own 'N/P very small' caveat; the scaling benches\n"
        "show where it wins."
    )


if __name__ == "__main__":
    main()
