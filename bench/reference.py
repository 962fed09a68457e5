"""A fixed reference computation that times how fast this host is right now.

The benchmark shares a few cores of a host with other tenants, whose load
changes how fast the same code runs by up to half, over minutes.  The
worker runs this kernel between operations and reports each operation's
time as a multiple of the kernel's time next to it, which cancels most of
that drift.  The kernel calls numpy and scipy's HiGHS only, never
`edgeplan`, so a change to the package cannot move it: 16 dense transport
LPs whose constraint matrices are built in Python, like a recourse replay,
and one capacitated facility-location MILP solved by branch and bound,
like a CCG master.  Its inputs are fixed, so its work is the same on every
run.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

_AREAS, _NODES, _LPS, _SITES = 20, 20, 16, 16


def _inputs():
    rng = np.random.default_rng(20240601)
    lp = (rng.uniform(1.0, 10.0, (_AREAS, _NODES)), rng.uniform(5.0, 15.0, _NODES),
          rng.uniform(20.0, 40.0, _AREAS), rng.uniform(2.0, 12.0, (_LPS, _AREAS)))
    rng = np.random.default_rng(7)
    fixed = rng.uniform(5.0, 15.0, _SITES)
    distance = rng.uniform(1.0, 10.0, (_SITES, _SITES))
    demand = rng.uniform(1.0, 5.0, _SITES)
    return lp, (fixed, distance, demand)


_LP, _MILP = _inputs()


def _transport(demand: np.ndarray) -> float:
    delay, capacity, penalty, _ = _LP
    ni, nj = _AREAS, _NODES
    c = np.concatenate([0.1 * delay.ravel(), penalty])
    a = np.zeros((nj + ni, ni * nj + ni))
    for j in range(nj):
        a[j, j:ni * nj:nj] = 1.0
    for i in range(ni):
        a[nj + i, i * nj:(i + 1) * nj] = -1.0
        a[nj + i, ni * nj + i] = -1.0
    res = linprog(c, A_ub=a, b_ub=np.concatenate([capacity, -demand]), bounds=(0, None),
                  method="highs")
    return float(res.fun)


def _facility() -> float:
    fixed, distance, demand = _MILP
    n = _SITES
    c = np.concatenate([fixed, (distance * demand[:, None]).ravel()])
    a = np.zeros((2 * n, n + n * n))
    for i in range(n):  # every client served by one site
        a[i, n + i * n:n + (i + 1) * n] = 1.0
    for j in range(n):  # load of an open site within its capacity
        a[n + j, n + j:n + n * n:n] = demand
        a[n + j, j] = -7.0
    lower = np.concatenate([np.ones(n), np.full(n, -np.inf)])
    upper = np.concatenate([np.ones(n), np.zeros(n)])
    res = milp(c, constraints=LinearConstraint(a, lower, upper),
               integrality=np.ones(n + n * n), bounds=Bounds(0, 1))
    return float(res.fun)


def kernel() -> float:
    """Run the reference computation once; returns its objective total."""
    return sum(_transport(d) for d in _LP[3]) + _facility()
