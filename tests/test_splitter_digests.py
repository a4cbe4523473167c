"""The splitter search computes what it always computed: a same-program guard.

Two SHA-1s per run of :func:`find_splitters`.  The *result* digest covers
the result's ``values``, ``realized_ranks``, ``lower``, ``upper``,
``rounds``, ``probes_total`` and ``gathered_keys``; it was recorded before
the search state moved into the collectives' ``then=`` step, and a change
of a probe or a round changes it.  The *clock* digest covers every rank's
virtual clock, so a change of a charge or a price changes it too.  The
``"squeeze"`` clocks were re-recorded when its three setup collectives
became one allgather, and the p = 16 ones when its allgathers composed by
node; the pinned schedules' clocks were not.  Re-record either only for a
change meant to move it.
"""

import functools
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


def splitter_digests(case: str) -> tuple[str, str]:
    """``(result, clocks)`` digests of one run of ``case``."""
    schedule, guess, name, p = case.split("/")
    parts = _parts(name, int(p))
    config = SplitterConfig(probe_schedule=schedule, initial_guess=guess)

    def prog(comm):
        return find_splitters(comm, parts[comm.rank], config=config)

    out, rt = spmd(int(p), prog, return_runtime=True, timeout=120)
    res = out[0]
    h = hashlib.sha1()
    for a in (res.values, res.realized_ranks, res.lower, res.upper):
        h.update(np.ascontiguousarray(a).tobytes())
    h.update(repr((res.rounds, res.probes_total, res.gathered_keys)).encode())
    return h.hexdigest(), hashlib.sha1(rt.clocks.tobytes()).hexdigest()


_recorded_run = functools.lru_cache(maxsize=None)(splitter_digests)


DIGESTS = {
    "squeeze/minmax/uniform_u64/3": "4e9ab195e199dbf92181f8f06409d4bdbc54555c",
    "squeeze/minmax/uniform_u64/8": "081df6a203d59165f184da7a1ec9dbacce8d4636",
    "squeeze/minmax/uniform_u64/16": "2a26fc451dfd9b40fef71be17cf2dc076f3f00b1",
    "squeeze/minmax/zipf_u64/3": "f1fd0761045fe7675ce9b2ef15b57abe2405ff88",
    "squeeze/minmax/zipf_u64/8": "a3d7aac9bc5d5a096745a16faca3c96c9b365d4f",
    "squeeze/minmax/zipf_u64/16": "ba3727b034293647a29b04abcbee47f8f2a19f30",
    "squeeze/minmax/normal_f64_inf/3": "cb3de9918016d05899adc5e44b85193fab3b3e16",
    "squeeze/minmax/normal_f64_inf/8": "4858af27269f3360219150704091be63c6f9ffe9",
    "squeeze/minmax/normal_f64_inf/16": "2f1843cddce7cd81263b84cf8fdba8cebaf14c85",
    "squeeze/minmax/duplicates_i64/3": "4c89a0ea389485274b6861efcd18f884ba3681cc",
    "squeeze/minmax/duplicates_i64/8": "bc0d44a0c288d6756f375c7e171cb053520dab73",
    "squeeze/minmax/duplicates_i64/16": "7254b662befbc511759aa40c0e933e54a9c0bb10",
    "squeeze/sample/uniform_u64/3": "bb0dd08c71ea05da5bfac70e5c3d407cfcc5d384",
    "squeeze/sample/uniform_u64/8": "016f31ffc6c2478f0f6009608a56f1483ab6831f",
    "squeeze/sample/uniform_u64/16": "a38e7968d48464f7908eb0ed0500818cbc74ae8f",
    "squeeze/sample/zipf_u64/3": "e1cbd64f64d7be286b34df6686481b5c9e99a1fd",
    "squeeze/sample/zipf_u64/8": "94480d40dae20f9515661a7de6d5503e57c492ef",
    "squeeze/sample/zipf_u64/16": "324574ab0ad0a351c7a1811bde09a57638121dc8",
    "squeeze/sample/normal_f64_inf/3": "a18c1711a6bb1dd4b0ed1f87dca5d613e2bb33d6",
    "squeeze/sample/normal_f64_inf/8": "6e2f28a5a71a153b842d90f43ff71a98eac44c67",
    "squeeze/sample/normal_f64_inf/16": "c08b1e7ab15c1ebda901611e2dd26456d2fd59c3",
    "squeeze/sample/duplicates_i64/3": "4c89a0ea389485274b6861efcd18f884ba3681cc",
    "squeeze/sample/duplicates_i64/8": "bc0d44a0c288d6756f375c7e171cb053520dab73",
    "squeeze/sample/duplicates_i64/16": "7254b662befbc511759aa40c0e933e54a9c0bb10",
    "shared/minmax/uniform_u64/3": "e2a2588eb7c88a7897884922c2a090522bef376e",
    "shared/minmax/uniform_u64/8": "6e5b56d1d17819e6f636cc96c69977c07a66cc24",
    "shared/minmax/uniform_u64/16": "55352d22f62451dd75d86a3806a9cac9b9d8deb3",
    "shared/minmax/zipf_u64/3": "a37871b76d52a8b991a6986ed25c7b9e5d335d9d",
    "shared/minmax/zipf_u64/8": "7d3ee68e754d2e81cff84ab0e459c223fe4a2eb9",
    "shared/minmax/zipf_u64/16": "41683030acd6b1daf6247863e1e250a3debf2c50",
    "shared/minmax/normal_f64_inf/3": "9d8359b746433776137415adfcc32803eaa4eade",
    "shared/minmax/normal_f64_inf/8": "a7faf68c0515b16aa6e4a51188f76a13c9d0caa0",
    "shared/minmax/normal_f64_inf/16": "291de60d8f95ae91b90c21c9f64db3ddb14c078a",
    "shared/minmax/duplicates_i64/3": "4c89a0ea389485274b6861efcd18f884ba3681cc",
    "shared/minmax/duplicates_i64/8": "bc0d44a0c288d6756f375c7e171cb053520dab73",
    "shared/minmax/duplicates_i64/16": "a11f93f1626f349c3e39f3fa20ba4ccb6599bb9d",
    "shared/sample/uniform_u64/3": "fda07a483480bf8c2bf3bfb0fa60d709431fbc15",
    "shared/sample/uniform_u64/8": "377577fb0dd630f00ad6f3ad5aa2b4b94292112d",
    "shared/sample/uniform_u64/16": "df79886f9fd3f72c5ec2f8fb9b435009767d6a49",
    "shared/sample/zipf_u64/3": "d90e90dab89cd62f2ce88f7a14b7d6b6105b1a2c",
    "shared/sample/zipf_u64/8": "94480d40dae20f9515661a7de6d5503e57c492ef",
    "shared/sample/zipf_u64/16": "60ec2ce9cf772e0dbe3157ceaac99c21d4646027",
    "shared/sample/normal_f64_inf/3": "302f47afd7fba7141b140e500a00458aef4dce9b",
    "shared/sample/normal_f64_inf/8": "c257b350f5d0f20b4468604804d58ed300390135",
    "shared/sample/normal_f64_inf/16": "8a242613a0756e6569617e327ae320e4009aef64",
    "shared/sample/duplicates_i64/3": "4c89a0ea389485274b6861efcd18f884ba3681cc",
    "shared/sample/duplicates_i64/8": "bc0d44a0c288d6756f375c7e171cb053520dab73",
    "shared/sample/duplicates_i64/16": "a11f93f1626f349c3e39f3fa20ba4ccb6599bb9d",
    "midpoint/minmax/uniform_u64/3": "fcc5be1e800336569a7f4f402e979944a7b3efcc",
    "midpoint/minmax/uniform_u64/8": "3ab75d17dff9d4a8498ffb0057a437b9600eed6f",
    "midpoint/minmax/uniform_u64/16": "ff8127410cc529d1841e42b87e60a55c03c2eda3",
    "midpoint/minmax/zipf_u64/3": "a37871b76d52a8b991a6986ed25c7b9e5d335d9d",
    "midpoint/minmax/zipf_u64/8": "21ac144e171bd3ece4a469e1efeff6ebbc9146dc",
    "midpoint/minmax/zipf_u64/16": "1091b0c9429f8e902060b173dc189efffec36bb4",
    "midpoint/minmax/normal_f64_inf/3": "77bba5d71b0c97ddd5487979722179be2744cde3",
    "midpoint/minmax/normal_f64_inf/8": "1a56f1a4a3f94a5e0f364e4c64cf9187c85486ea",
    "midpoint/minmax/normal_f64_inf/16": "4f3da45f35e6246af115a8f65f1779cd00a4dbfb",
    "midpoint/minmax/duplicates_i64/3": "3f6144c078631b09ceeeac204ea1226a8b79fe73",
    "midpoint/minmax/duplicates_i64/8": "34f95889142be914f7e321c2596acdc6023c59db",
    "midpoint/minmax/duplicates_i64/16": "f37139bc2b98e5c3a96f60ba68925e60f8687c09",
    "midpoint/sample/uniform_u64/3": "20aa320de4075892c0981b268ce19a5f2a859fa4",
    "midpoint/sample/uniform_u64/8": "204ff04755ac66c9356fbd567af2ea073467beb7",
    "midpoint/sample/uniform_u64/16": "9c910ec5e2ecd45fe33806b15dcda57235ff4d55",
    "midpoint/sample/zipf_u64/3": "d90e90dab89cd62f2ce88f7a14b7d6b6105b1a2c",
    "midpoint/sample/zipf_u64/8": "94480d40dae20f9515661a7de6d5503e57c492ef",
    "midpoint/sample/zipf_u64/16": "593727f8ed486e08034eb03d514f0a246f4316e8",
    "midpoint/sample/normal_f64_inf/3": "fa1cd94f3f5af18f7f52ec23445bfc7ede850816",
    "midpoint/sample/normal_f64_inf/8": "188d85a182a4ceae70bb98b108ba9583fa39e7e5",
    "midpoint/sample/normal_f64_inf/16": "c8260886ea3eeeae55fb57e9e7802dff1a8d97d4",
    "midpoint/sample/duplicates_i64/3": "4c89a0ea389485274b6861efcd18f884ba3681cc",
    "midpoint/sample/duplicates_i64/8": "bc0d44a0c288d6756f375c7e171cb053520dab73",
    "midpoint/sample/duplicates_i64/16": "867916ec95a5d337581662ba7c9722176da84188",
}

CLOCKS = {
    "squeeze/minmax/uniform_u64/3": "d9b94b5411950d666f84dfe72c973ee543616d22",
    "squeeze/minmax/uniform_u64/8": "3771094851a65d177278eb1f18e4c206831efd04",
    "squeeze/minmax/uniform_u64/16": "fb99f60cd389e5253e8c1e05ed16339958efad67",
    "squeeze/minmax/zipf_u64/3": "681c56ca082ce0b1025b9e195a15662110416c0e",
    "squeeze/minmax/zipf_u64/8": "fb0225fb48b02d71375db1b01860db905c23d994",
    "squeeze/minmax/zipf_u64/16": "18799b9e7481a0ae06b73c0c2954f08b022f6ccf",
    "squeeze/minmax/normal_f64_inf/3": "9162227a01bb7b7f8b750c3a68f939d5a822d53f",
    "squeeze/minmax/normal_f64_inf/8": "2006ab5c4923618b1a4bad3a66dae544a0aac975",
    "squeeze/minmax/normal_f64_inf/16": "58e071a6f636cd1b927c4e4f2dfd0888111007e1",
    "squeeze/minmax/duplicates_i64/3": "0173c1baf83a02d67aa62e290ab853b7116d1c9a",
    "squeeze/minmax/duplicates_i64/8": "14e92193b09034c93ae5bde13e4e2539d65b99d7",
    "squeeze/minmax/duplicates_i64/16": "f61fcf6d40d8e04cd1c2954c34277a799368d6d8",
    "squeeze/sample/uniform_u64/3": "46271fb6d41b814d700d2531039e8d0d2f7ebf74",
    "squeeze/sample/uniform_u64/8": "58588c7b5566100c1a9b6190c47adf4aafb347df",
    "squeeze/sample/uniform_u64/16": "eb5944e1e29273f14dd52a5372f94aad76c2c62a",
    "squeeze/sample/zipf_u64/3": "f2ea5ede29531cda10f3655c20f96999b4b3e4da",
    "squeeze/sample/zipf_u64/8": "8cd8c4ffa7607e36cb36818d3657c12734db8f96",
    "squeeze/sample/zipf_u64/16": "59fa6559177d3d25d689e44a18d57af69c2e57fe",
    "squeeze/sample/normal_f64_inf/3": "0b3198cbc7acf4711d89c239372d4c5928c4a741",
    "squeeze/sample/normal_f64_inf/8": "4bf24990ebb8f4bd7af0bf5dfc50a18e41fc7259",
    "squeeze/sample/normal_f64_inf/16": "d79be4b5c8fe86f04b35c2f9b015ea48a5cd1718",
    "squeeze/sample/duplicates_i64/3": "2a8771b8e40ae2f47a60fc43bb4c673e01a0b8e1",
    "squeeze/sample/duplicates_i64/8": "e59fa654f0a342c0c131cdd9a5f4cde33103f426",
    "squeeze/sample/duplicates_i64/16": "3d69d26ec685037ff58664d1169f226591d7588b",
    "shared/minmax/uniform_u64/3": "0ca9894f50bd88de7dafcdd5b94180fe5f3afca7",
    "shared/minmax/uniform_u64/8": "2766fe462d27e183144299f0f097b35913934054",
    "shared/minmax/uniform_u64/16": "489abb57bd40b29620d55ea4cd9c03145bde8d58",
    "shared/minmax/zipf_u64/3": "7f29a82f13f52b227bbff520208a0911f8e97bad",
    "shared/minmax/zipf_u64/8": "33cc90a07a1b7168b532e4f36ac553cec038dc38",
    "shared/minmax/zipf_u64/16": "f7d1733c040d5180666da0a2e9f05cf881a9e46f",
    "shared/minmax/normal_f64_inf/3": "ce0b7e9abc00177e795a4e4af99aa5e92d850881",
    "shared/minmax/normal_f64_inf/8": "f243c5dd8ad0c522e4eaa6e17fe041d2bfa72a9f",
    "shared/minmax/normal_f64_inf/16": "9481abcfd65d88e79feee0b2f560e507bf9b4d84",
    "shared/minmax/duplicates_i64/3": "4bd56ed60a45c2e2bda3fa17c25e4fdc07bc41aa",
    "shared/minmax/duplicates_i64/8": "bfb744291f9e4dd313593eadacb2a049b5700a0f",
    "shared/minmax/duplicates_i64/16": "21af24a9fe78a77ba01cd670bd0ee02c9231f0a6",
    "shared/sample/uniform_u64/3": "ff4e026996d9b11c299c32e02b38416a03a0f0f6",
    "shared/sample/uniform_u64/8": "41fb9c2f6fa7d5fd45403ea4fcff1dc628f55bff",
    "shared/sample/uniform_u64/16": "e9480dcea41fec7aae2ea04915d9e056b6c94009",
    "shared/sample/zipf_u64/3": "ea5dd5a6d6d4a6fe7957f2f6c5986d89ed813fb7",
    "shared/sample/zipf_u64/8": "a08033f8a26430ec5aa93eec43fae5ee43993019",
    "shared/sample/zipf_u64/16": "be5702faefbf465e11de580da4cd494e68304e0f",
    "shared/sample/normal_f64_inf/3": "1be7234a702a9912d7a4fd727d4600f88438deb6",
    "shared/sample/normal_f64_inf/8": "546e2b31b67456c414ef27c28ad26804e1c8eb14",
    "shared/sample/normal_f64_inf/16": "74934ca3470d836b16826d624881a029b2030a5c",
    "shared/sample/duplicates_i64/3": "453d71e62f768f8ee37d14f21e823e590589b77b",
    "shared/sample/duplicates_i64/8": "8460e7f735633c976f834f1218f38ebccb4cc81d",
    "shared/sample/duplicates_i64/16": "9629000e4c97da32fe8cada90fb1e1419e72b056",
    "midpoint/minmax/uniform_u64/3": "89943d143886d56dd57f43c21584e1f21d0c3df3",
    "midpoint/minmax/uniform_u64/8": "2b7c27cf54152bcd82b8970e5fa82869d5dc5fa5",
    "midpoint/minmax/uniform_u64/16": "c7db414770db023e7c1564d797cce370cecfad9f",
    "midpoint/minmax/zipf_u64/3": "7f29a82f13f52b227bbff520208a0911f8e97bad",
    "midpoint/minmax/zipf_u64/8": "5fe7c496634dcf225311e037ba91ab1691997166",
    "midpoint/minmax/zipf_u64/16": "e4c286a86f2c49249fd212aae3032d83f42f8edd",
    "midpoint/minmax/normal_f64_inf/3": "fa6bd34f370b7db00fcfb116dd95f5a48b1a4928",
    "midpoint/minmax/normal_f64_inf/8": "ea9ecfe7454e42ee0d3532e4f02db04af1fb6051",
    "midpoint/minmax/normal_f64_inf/16": "2190a1f4790cbc73aac3ae8ca643e58a1bc31a64",
    "midpoint/minmax/duplicates_i64/3": "960d2a4f6815c22d59849e906a37731a3e720a2c",
    "midpoint/minmax/duplicates_i64/8": "45b8a7146be17df34cf794f9185863180fb700de",
    "midpoint/minmax/duplicates_i64/16": "c6ea7d95d1bd1ae3c5dd9aa1ca2a199142051899",
    "midpoint/sample/uniform_u64/3": "4e93cb6fa7b85d49bb35d9dad0ce4c692d5a4206",
    "midpoint/sample/uniform_u64/8": "627e63dd8d57778c8bde9d1f29ad32ca0cd84382",
    "midpoint/sample/uniform_u64/16": "37011ee15608b121f1830d77c708216418d1f99b",
    "midpoint/sample/zipf_u64/3": "ea5dd5a6d6d4a6fe7957f2f6c5986d89ed813fb7",
    "midpoint/sample/zipf_u64/8": "a08033f8a26430ec5aa93eec43fae5ee43993019",
    "midpoint/sample/zipf_u64/16": "33217c904d86b95bc7b576a7b3061f96ccd8d30e",
    "midpoint/sample/normal_f64_inf/3": "2585d03a2055b0b2ff05a7b18efdedfbbc47da93",
    "midpoint/sample/normal_f64_inf/8": "e2b392101db17c77ad76ceda6f38891d281caa21",
    "midpoint/sample/normal_f64_inf/16": "74934ca3470d836b16826d624881a029b2030a5c",
    "midpoint/sample/duplicates_i64/3": "453d71e62f768f8ee37d14f21e823e590589b77b",
    "midpoint/sample/duplicates_i64/8": "8460e7f735633c976f834f1218f38ebccb4cc81d",
    "midpoint/sample/duplicates_i64/16": "85beecff288e5fa664c4c1252e4b0d3f9a8114ed",
}


@pytest.mark.parametrize("case", sorted(DIGESTS))
def test_search_is_the_same_program(case):
    assert _recorded_run(case)[0] == DIGESTS[case]


@pytest.mark.parametrize("case", sorted(CLOCKS))
def test_search_charges_the_same_clocks(case):
    assert _recorded_run(case)[1] == CLOCKS[case]


def test_every_combination_is_recorded():
    want = {f"{s}/{g}/{n}/{p}" for s in SCHEDULES for g in GUESSES for n in INPUTS for p in SIZES}
    assert set(DIGESTS) == set(CLOCKS) == want


def test_the_shared_search_holds_under_thread_switches():
    """Every rank reads the one search object its collectives' last
    arrivers advance: a rank reading it while another steps it would change
    a digest.  Sixteen rank threads, switching as often as CPython lets."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for case in ("squeeze/minmax/zipf_u64/16", "shared/sample/normal_f64_inf/16"):
            assert splitter_digests(case) == (DIGESTS[case], CLOCKS[case])
    finally:
        sys.setswitchinterval(interval)
