"""Fixed reference work that tracks how fast the host runs this process.

The CPU time of an op moves with the host as well as with the program:
on a shared host, neighbours' load changes how much work a CPU second
buys. Over ten runs of the same code on a 2-core shared VM, raw ops per
CPU second spread by 15% (fairlet_n400) and 34% (pivot_n800) of their
median between the quartiles, and ops per reference second by 5% and 6%.
The benchmark therefore interleaves ``chunk`` with its ops, SHARE of the op
CPU time, and states op time in reference seconds: one reference second
is the CPU time of CHUNKS_PER_REF_S chunks measured in the same run, about
1 s on that VM.

``chunk`` runs a pure-Python Dijkstra with heapq on a fixed random graph
and one numpy boolean reduction, the two kinds of work the package's
solvers do, and never touches the package.
"""

from __future__ import annotations

import heapq
import time

import numpy as np

SHARE = 0.15
CHUNKS_PER_REF_S = 400
WARM_UP_CHUNKS = 20

_rng = np.random.default_rng(20020308)
_N = 400
_ADJ = [
    list(zip(_rng.integers(0, _N, 12).tolist(), _rng.integers(1, 100, 12).tolist()))
    for _ in range(_N)
]
_BITS = _rng.random((60, 400)) < 0.5


def chunk():
    dist = {0: 0}
    heap = [(0, 0)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, w in _ADJ[u]:
            if d + w < dist.get(v, 1 << 60):
                dist[v] = d + w
                heapq.heappush(heap, (d + w, v))
    return int((_BITS[:, None, :] & _BITS[None, :, :]).sum())


def timed_chunk():
    """CPU seconds of one chunk."""
    start = time.process_time()
    chunk()
    return time.process_time() - start


def warm_up():
    for _ in range(WARM_UP_CHUNKS):
        chunk()
