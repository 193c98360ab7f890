"""The host's current speed, from a fixed reference job timed next to the work.

The machine the benchmark was written on shares its cores with other
tenants.  A fixed job runs at two speeds about 1.6x apart there, switching
in stretches from under a second to minutes, and wall-clock times of whole
25-60 s runs spread by 10-30% of their median for that reason alone (see
README.md, Noise).  A fixed mix of the kinds of work fockdyn does (LAPACK on
a small complex matrix, a pure-Python integer loop, a product of sparse
polynomials held as dicts of complex numbers, Fractions, JSON rendering)
slows by nearly the same factor in either state.  So the benchmark times
this job just before and just after each round and reports the round's
time scaled to the speed at which the job takes REFERENCE_S:

    normalized = measured * REFERENCE_S / mean of the two job times

A change that makes fockdyn k times slower makes the normalized figure k
times larger, as it does the measured one; the host's drift cancels.
"""

from __future__ import annotations

import json
import statistics
import time
from fractions import Fraction

import numpy as np

# Time of one job in the fast state of the reference machine (2 vCPU Intel
# Xeon at 2.1 GHz, Python 3.11.7, numpy 2.4.6, one BLAS thread): over 900
# calls its tenth percentile was 4.8-4.9 ms and its median 5.2-5.5 ms, and
# in the slow state it takes 7-8 ms.  So normalized figures read as that
# machine's in its fast state.
REFERENCE_S = 0.005

_RNG = np.random.default_rng(20220522)
_MATRIX = _RNG.normal(size=(40, 40)) + 1j * _RNG.normal(size=(40, 40))


def _job() -> None:
    np.linalg.eigvals(_MATRIX)
    np.linalg.svd(_MATRIX, compute_uv=False)
    total = 0
    for i in range(16000):
        total += (i * i) % 7
    # a product of two sparse polynomials stored as {exponent tuple: complex}
    f = {(i % 5, i % 7, i % 3): complex(i, 1) for i in range(48)}
    out = {}
    for a, ca in f.items():
        for b, cb in f.items():
            key = tuple(x + y for x, y in zip(a, b))
            out[key] = out.get(key, 0j) + ca * cb
    json.dumps([[list(k), v.real, v.imag] for k, v in out.items()])
    sum(Fraction(1, k) for k in range(1, 80))


def measure(repeats: int = 1) -> float:
    """Median wall time of `repeats` runs of the reference job."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        _job()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


_job()  # warm: the first LAPACK call of a process pays for its set-up
