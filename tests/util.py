"""Independent reference computations shared by the tests.

Everything here enumerates or integrates directly, without touching the
package's solver code paths, so it can serve as an oracle for them. The
one exception, ``decision_of``, builds solver input.
"""

import itertools

import numpy as np
from scipy import stats

from sidesched.sideinfo import (QuantizerSpec, RateMatrix, build_rate_matrices,
                                quantize, rate_from_sinr)


def decision_of(sinr_db, q, b_hz):
    """Decision rates of an SINR matrix in dB at quantizer ``q``, or at
    ideal feedback when ``q`` is None, from the truth rates and the uint8
    8-bit index, as a draw holds them (``pipeline.draw_cluster``)."""
    truth = RateMatrix(0, rate_from_sinr(b_hz, sinr_db))
    fine = None if q is None else quantize(
        QuantizerSpec(8, q.lo_db, q.hi_db), sinr_db)[0].astype(np.uint8)
    return build_rate_matrices(truth, q, b_hz, fine)


def brute_max_matching(d):
    """Optimal square matching by permutation enumeration.

    Strict improvement keeps the lexicographically first optimum, returned
    as the column of each row and the total.
    """
    d = np.asarray(d, dtype=float)
    n = d.shape[0]
    best_val = -np.inf
    best = None
    for perm in itertools.permutations(range(n)):
        val = sum(d[i, perm[i]] for i in range(n))
        if val > best_val:
            best_val, best = val, perm
    return np.array(best), best_val


def brute_full_optimum(values, k, l):
    """Exhaustive optimum over the entire feasible set, slot tuples included.

    values: (n, k*l) rate matrix. Every subframe injection is combined
    with every per-vehicle slot tuple; use only on tiny instances. Returns
    the subchannel of each vehicle and the total.
    """
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    best_val = -np.inf
    best = None
    for inj in itertools.permutations(range(l), n):
        for slots in itertools.product(range(k), repeat=n):
            val = sum(values[i, inj[i] * k + slots[i]] for i in range(n))
            if val > best_val:
                best_val = val
                best = [inj[i] * k + slots[i] for i in range(n)]
    return best, best_val


def greedy_full_matrix(values, k, l):
    """First-come first-served greedy scanning the full N x K*L rate matrix.

    Vehicles in ascending index take the best subchannel among subframes
    nobody claimed yet; ties go to the lowest subchannel index. Returns
    the subchannel of each vehicle.
    """
    vals = np.asarray(values, dtype=float)
    free = np.ones(l, dtype=bool)
    picks = []
    for i in range(vals.shape[0]):
        masked = np.where(np.repeat(free, k), vals[i], -np.inf)
        sc = int(np.argmax(masked))  # first hit = lowest index on ties
        picks.append(sc)
        free[sc // k] = False
    return picks


def build_constraint_matrix(k, l):
    """Tensor expansion of the one-per-vehicle / one-per-subframe rows.

    Rows 0..L-1 tie each vehicle to exactly one of its K*L entries; rows
    L..2L-1 tie each subframe to exactly one vehicle. Every column holds
    exactly two ones, one from each family. Columns are vehicle-major,
    as in ``assignment_to_x``.
    """
    eye = np.eye(l, dtype=np.int8)
    per_vehicle = np.kron(eye, np.ones((1, k * l), dtype=np.int8))
    per_subframe = np.kron(np.ones((1, l), dtype=np.int8),
                           np.kron(eye, np.ones((1, k), dtype=np.int8)))
    return np.vstack([per_vehicle, per_subframe])


def assignment_to_x(subchannel, k, l):
    """Vehicle-major indicator vector of the subchannel of each vehicle."""
    x = np.zeros(k * l * l, dtype=np.int64)
    for i, sc in enumerate(subchannel):
        x[i * k * l + sc] = 1
    return x


def clamped_normal_mean(mu, sigma, lo, hi):
    """E[clip(X, lo, hi)] for X ~ N(mu, sigma), by the censored-moment formula."""
    a = (lo - mu) / sigma
    b = (hi - mu) / sigma
    phi = stats.norm.pdf
    Phi = stats.norm.cdf
    return (lo * Phi(a)
            + hi * (1.0 - Phi(b))
            + mu * (Phi(b) - Phi(a))
            - sigma * (phi(b) - phi(a)))



def hopcroft_karp_first_phase(tight):
    """One Hopcroft-Karp phase from the empty matching on a boolean m x n
    ``tight``, as the kernel ran it before its row scan: breadth-first
    layers from the free rows, then a depth-first search for a shortest
    augmenting path from each free row in ascending order, each row trying
    its tight columns in ascending order. Returns ``(row_col, col_row)``
    lists, -1 for free entries.
    """
    tight = np.asarray(tight, dtype=bool)
    m, n = tight.shape
    adj = [np.flatnonzero(tight[i]).tolist() for i in range(m)]
    row_col, col_row = [-1] * m, [-1] * n
    dist = [m] * m  # m marks a row not reached in this phase

    def layer_rows():
        queue = [i for i in range(m) if row_col[i] < 0]
        for i in queue:
            dist[i] = 0
        for i in queue:
            for j in adj[i]:
                r = col_row[j]
                if r < 0:
                    return dist[i]
                if dist[r] == m:
                    dist[r] = dist[i] + 1
                    queue.append(r)
        return None

    def augment_from(root):
        rows, cols = [root], []
        while rows:
            i = rows[-1]
            a = adj[i]
            while nxt[i] < len(a):
                j = a[nxt[i]]
                nxt[i] += 1
                r = col_row[j]
                if r < 0:
                    cols.append(j)
                    for row, col in zip(rows, cols):
                        row_col[row] = col
                        col_row[col] = row
                    return
                if dist[i] < shortest and dist[r] == dist[i] + 1:
                    rows.append(r)
                    cols.append(j)
                    break
            else:
                dist[i] = -1
                rows.pop()
                if cols:
                    cols.pop()

    shortest = layer_rows()
    if shortest is not None:
        nxt = [0] * m
        for root in range(m):
            if row_col[root] < 0:
                augment_from(root)
    return row_col, col_row
