"""A fixed reference kernel that measures how fast the host runs right now.

On a shared host the same pass of the same input can take 2.0 s in one
minute and 3.4 s in the next, with CPU time equal to wall time: the cores
themselves run slower, and a slow spell can last a whole run, so no median
over one run's passes removes it. The benchmark times this kernel around
every timed pass and set-up spawn and scales its times by ``REF_S`` over
the kernel's seconds, so they read as seconds on a host where the kernel
takes ``REF_S``.

The kernel uses only numpy and scipy, never the package, so a change to the
package cannot move it. Its parts follow the kinds of work the workloads
spend their time in: a loop of small numpy calls (the kappa sampler),
sparse LU solves (shift-invert eigensolves), a dense symmetric eigensolve
(the coarse companions), Dijkstra on a grid graph (systoles), vectorized
array work (sections, cutoffs, the elliptic audit) and plain Python.

The scaling removes much of the drift between runs, not all of it: kinds of
code slow by different amounts in one slow spell, and the kernel is too
short to follow second-to-second changes, which the median over a run's
passes has to absorb.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as sla

# About the kernel's time on the 2-core Xeon host the benchmark was written on.
REF_S = 0.15

_N = 48
_T = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(_N, _N))
_LAPLACIAN = (sp.kron(_T, sp.eye(_N)) + sp.kron(sp.eye(_N), _T)).tocsc()
_rng = np.random.default_rng(0)
_SMALL = _rng.standard_normal((8, 4))
_LARGE = _rng.standard_normal(200_000)
_DENSE = _rng.standard_normal((400, 400))
_DENSE = _DENSE + _DENSE.T
# A 64 x 64 grid graph with random positive edge weights.
_PATH = sp.diags([1.0, 1.0], [-1, 1], shape=(64, 64))
_GRAPH = (sp.kron(_PATH, sp.eye(64)) + sp.kron(sp.eye(64), _PATH)).tocsr()
_GRAPH.data = 0.5 + _rng.random(_GRAPH.nnz)


def _small_calls():
    for _ in range(1500):
        q, r = np.linalg.qr(_SMALL)
        (q * np.sign(np.diag(r))) @ q.T


def _sparse_solve():
    for _ in range(6):
        sla.splu(_LAPLACIAN).solve(np.ones(_N * _N))


def _dense_eigh():
    np.linalg.eigh(_DENSE)


def _dijkstra():
    csgraph.dijkstra(_GRAPH, indices=range(0, 4096, 256), directed=False)


def _vectorized():
    # Small arrays, many times, so that the kernel adds little to peak RSS.
    for _ in range(5):
        np.sort(_LARGE)
        np.exp(_LARGE).sum()
        np.cumsum(_LARGE)


def _python():
    s = 0
    for i in range(300_000):
        s += i % 7


def kernel_s() -> float:
    """Seconds the kernel takes now: each part's best of two, summed."""
    total = 0.0
    for part in (_small_calls, _sparse_solve, _dense_eigh, _dijkstra,
                 _vectorized, _python):
        best = float("inf")
        for _ in range(2):
            t0 = time.perf_counter()
            part()
            best = min(best, time.perf_counter() - t0)
        total += best
    return total


def scale(times: list[float], kernels: list[float]) -> list[float]:
    """Each time scaled by the kernel timed just before and after it
    (``kernels`` has one more entry than ``times``)."""
    return [t * REF_S / ((a + b) / 2)
            for t, a, b in zip(times, kernels, kernels[1:])]
