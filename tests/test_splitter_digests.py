"""The splitter search computes what it always computed: a same-program guard.

Each digest below is a SHA-1 over one run of :func:`find_splitters` — the
result's ``values``, ``realized_ranks``, ``lower``, ``upper``, ``rounds``,
``probes_total`` and ``gathered_keys``, and every rank's virtual clock —
recorded before the search state moved into the collectives' ``then=``
step.  A refactor of the search that changes a probe, a round, a charge or
a price changes a digest; re-record only for a change meant to do that.
"""

import hashlib
import sys

import numpy as np
import pytest

from repro.core import SplitterConfig, find_splitters
from repro.data import make_partition

from .conftest import spmd

SCHEDULES = ("squeeze", "shared", "midpoint")
GUESSES = ("minmax", "sample")
INPUTS = ("uniform_u64", "zipf_u64", "normal_f64_inf", "duplicates_i64")
SIZES = (3, 8, 16)  # p = 16 runs on two nodes of eight (``spmd``'s machine)


def _parts(name: str, p: int) -> list[np.ndarray]:
    dist = "normal_f64" if name == "normal_f64_inf" else name
    parts = [np.sort(make_partition(dist, 300, rank=r, seed=11)) for r in range(p)]
    if name == "normal_f64_inf":
        parts[0][:2] = -np.inf
        parts[-1][-3:] = np.inf
    return parts


def splitter_digest(schedule: str, guess: str, name: str, p: int) -> str:
    parts = _parts(name, p)
    config = SplitterConfig(probe_schedule=schedule, initial_guess=guess)

    def prog(comm):
        return find_splitters(comm, parts[comm.rank], config=config)

    out, rt = spmd(p, prog, return_runtime=True, timeout=120)
    res = out[0]
    h = hashlib.sha1()
    for a in (res.values, res.realized_ranks, res.lower, res.upper):
        h.update(np.ascontiguousarray(a).tobytes())
    h.update(repr((res.rounds, res.probes_total, res.gathered_keys)).encode())
    h.update(rt.clocks.tobytes())
    return h.hexdigest()


DIGESTS = {
    "squeeze/minmax/uniform_u64/3": "0cb8d3692c7a05882c887f0c43da83d5f90a89a7",
    "squeeze/minmax/uniform_u64/8": "c9aa4c9e09526cbf5a5b351eaae799308ef9e54a",
    "squeeze/minmax/uniform_u64/16": "2260264b16c38b6c2a55b827f572cf9fa23cd548",
    "squeeze/minmax/zipf_u64/3": "772ee896cd3bdd46bd5e4265bb7e3a8354692e9d",
    "squeeze/minmax/zipf_u64/8": "50b8c8204c94786463d4fafb2cee9da225c6c0a1",
    "squeeze/minmax/zipf_u64/16": "b49a81bde510a87c5d5caf62b234c6e850b020f3",
    "squeeze/minmax/normal_f64_inf/3": "fc3dcc8375ab610aeb966c90db5e34a7bf01a083",
    "squeeze/minmax/normal_f64_inf/8": "577e6b5ea5b4557e3a610c9bd52950218a1996ba",
    "squeeze/minmax/normal_f64_inf/16": "14b6ebebe77a0bbfa982b6f4c67ab8da4b008fb5",
    "squeeze/minmax/duplicates_i64/3": "4cce4e3bd2f2af7adf6c17fbc0c7531a3705224a",
    "squeeze/minmax/duplicates_i64/8": "6f7589797aa4e3ff321aad9414b04a6efec9d8f4",
    "squeeze/minmax/duplicates_i64/16": "2ab3981ef8dc34d7518f00e057aeec8ba3758a15",
    "squeeze/sample/uniform_u64/3": "91458b29f946046af03ec0b491d8db5084236753",
    "squeeze/sample/uniform_u64/8": "edcc64639be8b4a741bfc121c3a5fb84de3a0dbd",
    "squeeze/sample/uniform_u64/16": "0eb347cedc73b0dd264d1be9de25a68cefe96428",
    "squeeze/sample/zipf_u64/3": "c39b27ac26ad65073ada1ead86fcc4f19cd5fa58",
    "squeeze/sample/zipf_u64/8": "a2ef2f58db5756111d1385e3adceb4f2fe78acf3",
    "squeeze/sample/zipf_u64/16": "f714c262f753443d3dfecb56911e818bee3adc4a",
    "squeeze/sample/normal_f64_inf/3": "5ba62b98095b02640f723d99d42b82a39f3ea4ce",
    "squeeze/sample/normal_f64_inf/8": "0e9d4672865f96a1dfc290b8bfd2df13ee46dd4d",
    "squeeze/sample/normal_f64_inf/16": "11b6bc87b1f004ab2e7ef95428a288010f7fd51e",
    "squeeze/sample/duplicates_i64/3": "32c83ecc57a2693815d8dc7bf93b5e2a3b0b81c6",
    "squeeze/sample/duplicates_i64/8": "eaf57af6f4675c34a9ed03ad9b0a7a3dd0b6810f",
    "squeeze/sample/duplicates_i64/16": "7314381188faa1ccb681f6b761b24b68d17288c9",
    "shared/minmax/uniform_u64/3": "b189e511085c75ee2f1305a04862b04f43fdb35e",
    "shared/minmax/uniform_u64/8": "d3f5f70142dde3a74833bd8f220360a47dd8e715",
    "shared/minmax/uniform_u64/16": "8e97b152e3a65969ac0814b4e2b585eb3377f097",
    "shared/minmax/zipf_u64/3": "e9a8271d978ae7789d87511fdb4002c2db6ce69d",
    "shared/minmax/zipf_u64/8": "425d67a23ce183e6646601daadb4d80ebb3903a2",
    "shared/minmax/zipf_u64/16": "6f9ec374d201bc48a60c4bfd78aeccf5349ca474",
    "shared/minmax/normal_f64_inf/3": "b4b6650b6901ad5dfff380558b758f780b768298",
    "shared/minmax/normal_f64_inf/8": "ee56f7099ea78cce893a037a8bd463bd5d35940e",
    "shared/minmax/normal_f64_inf/16": "e4a0b1abefedff8d11555275e02b0ee207e09ba3",
    "shared/minmax/duplicates_i64/3": "4cce4e3bd2f2af7adf6c17fbc0c7531a3705224a",
    "shared/minmax/duplicates_i64/8": "6f7589797aa4e3ff321aad9414b04a6efec9d8f4",
    "shared/minmax/duplicates_i64/16": "3b410f927d60027fda2454982bd1e739baab68c7",
    "shared/sample/uniform_u64/3": "78ec347400f0972d4598ed53e0d251384dabc8f7",
    "shared/sample/uniform_u64/8": "6f645fafe0e9b277a51944eb6f6d8e750f962b24",
    "shared/sample/uniform_u64/16": "fc4fb5668e88c4a4000ab3b54a3943549746929e",
    "shared/sample/zipf_u64/3": "bef13b0133c6687cc1270b658385b75c9294ab27",
    "shared/sample/zipf_u64/8": "a2ef2f58db5756111d1385e3adceb4f2fe78acf3",
    "shared/sample/zipf_u64/16": "2b34d8463bcac8ac087ed4db1871f5caf478c0c9",
    "shared/sample/normal_f64_inf/3": "63eb077a67c1456699bd1352d76069043fd811e4",
    "shared/sample/normal_f64_inf/8": "75e44ca05016f4096087fdace3d6bbeb4788c968",
    "shared/sample/normal_f64_inf/16": "fd436cb6be4bb93c0fe15875753e2018c83664fa",
    "shared/sample/duplicates_i64/3": "32c83ecc57a2693815d8dc7bf93b5e2a3b0b81c6",
    "shared/sample/duplicates_i64/8": "eaf57af6f4675c34a9ed03ad9b0a7a3dd0b6810f",
    "shared/sample/duplicates_i64/16": "84d1ec63be896237a2053510e4c339b7bf5e551a",
    "midpoint/minmax/uniform_u64/3": "397418f74438a89abb9241718e755fe979f4a526",
    "midpoint/minmax/uniform_u64/8": "3b457bab458e7f0f62183472a596138cfeeb93a3",
    "midpoint/minmax/uniform_u64/16": "bd6f76e35e8874e7d9014060fa0b8e776cb1b59c",
    "midpoint/minmax/zipf_u64/3": "e9a8271d978ae7789d87511fdb4002c2db6ce69d",
    "midpoint/minmax/zipf_u64/8": "553cc0b46ab577b610a78af622a055e6e80438ae",
    "midpoint/minmax/zipf_u64/16": "626c6f65b321f582016fafceb794beff9051ef0e",
    "midpoint/minmax/normal_f64_inf/3": "49e9f2c2e8ff4104933d49368a2b279df0e72e98",
    "midpoint/minmax/normal_f64_inf/8": "e506d091d04cb224c32144a7be4d750ea84b68f1",
    "midpoint/minmax/normal_f64_inf/16": "3295263a7a307e734a1f91dac3459298fc3d38eb",
    "midpoint/minmax/duplicates_i64/3": "34538740722ac85d6369aa631441ef39c1d8b1b2",
    "midpoint/minmax/duplicates_i64/8": "3323687df5562aead28d0a221703105801906955",
    "midpoint/minmax/duplicates_i64/16": "11ea74b444915888cb044b30cab88f875820929c",
    "midpoint/sample/uniform_u64/3": "f76fb87d90c612af4673d4cb572f4118ac70cfe1",
    "midpoint/sample/uniform_u64/8": "6dc682b963fa290a800343cb1867d07c48a630a1",
    "midpoint/sample/uniform_u64/16": "d07c29b69a58ebb574861926adeb4784b88018c0",
    "midpoint/sample/zipf_u64/3": "bef13b0133c6687cc1270b658385b75c9294ab27",
    "midpoint/sample/zipf_u64/8": "a2ef2f58db5756111d1385e3adceb4f2fe78acf3",
    "midpoint/sample/zipf_u64/16": "a59b7bcc53583c9467bf4e875d75b3cfa137aa4a",
    "midpoint/sample/normal_f64_inf/3": "98000352f8f9af909cb911772f6573280eadce8c",
    "midpoint/sample/normal_f64_inf/8": "c593fa526761a3a9d7cd7ab233abc25070da8b5f",
    "midpoint/sample/normal_f64_inf/16": "b42e73b758b3806e0ee6a974bd8c5161e2a6ec87",
    "midpoint/sample/duplicates_i64/3": "32c83ecc57a2693815d8dc7bf93b5e2a3b0b81c6",
    "midpoint/sample/duplicates_i64/8": "eaf57af6f4675c34a9ed03ad9b0a7a3dd0b6810f",
    "midpoint/sample/duplicates_i64/16": "8da7a53f3d635cef6f532fc48b3381c84dbb5b48",
}


@pytest.mark.parametrize("case", sorted(DIGESTS))
def test_search_is_the_same_program(case):
    schedule, guess, name, p = case.split("/")
    assert splitter_digest(schedule, guess, name, int(p)) == DIGESTS[case]


def test_every_combination_is_recorded():
    want = {f"{s}/{g}/{n}/{p}" for s in SCHEDULES for g in GUESSES for n in INPUTS for p in SIZES}
    assert set(DIGESTS) == want


def test_the_shared_search_holds_under_thread_switches():
    """Every rank reads the one search object its collectives' last
    arrivers advance: a rank reading it while another steps it would change
    a digest.  Sixteen rank threads, switching as often as CPython lets."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for case in ("squeeze/minmax/zipf_u64/16", "shared/sample/normal_f64_inf/16"):
            schedule, guess, name, p = case.split("/")
            assert splitter_digest(schedule, guess, name, int(p)) == DIGESTS[case]
    finally:
        sys.setswitchinterval(interval)
