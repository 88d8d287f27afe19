"""Independent reference computations shared by the tests.

Everything here enumerates or integrates directly, without touching the
package's solver code paths, so it can serve as an oracle for them. The
two exceptions build solver input or read solver output: ``decision_of``
and ``slot_table``.
"""

import itertools

import numpy as np
from scipy import stats

from sidesched.sideinfo import FineRates, build_rate_matrices, level_rates


def decision_of(sinr_db, q, b_hz):
    """Decision rates of an SINR matrix in dB at quantizer ``q``, or at
    ideal feedback when ``q`` is None, as a draw's width builds them
    (``pipeline.draw_rates``)."""
    truth = FineRates(np.asarray(sinr_db, dtype=float), b_hz)
    return build_rate_matrices(truth, q, level_rates(q, b_hz) if q else None)


def slot_table(reduced):
    """The (N, L) table of ``reduced.slots`` at every (vehicle, subframe)."""
    n = len(reduced.keys)
    return np.stack([reduced.slots(np.full(n, f)) for f in range(reduced.l)],
                    axis=1)


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



def bit_rows(tight):
    """The True columns of each row of a boolean table as one int per
    row, bit j set for column j: the kernel's form of its tight edges."""
    return [sum(1 << j for j in np.flatnonzero(row).tolist())
            for row in np.asarray(tight, dtype=bool)]


def hopcroft_karp(tight, row_col, col_row, phases=None):
    """Hopcroft-Karp on a boolean m x n ``tight``, as the kernel ran it on
    per-row column lists before it held them as bit sets.

    Each phase layers the rows breadth-first from the free rows, then
    runs a depth-first search for a shortest augmenting path from each
    free row in ascending order, each row trying its tight columns in
    ascending order. ``row_col`` and ``col_row`` hold the matching to
    start from, -1 for free entries, and are updated in place. Runs
    ``phases`` phases, or until no augmenting path is left when None.
    """
    tight = np.asarray(tight, dtype=bool)
    m = tight.shape[0]
    adj = [np.flatnonzero(tight[i]).tolist() for i in range(m)]

    def layer_rows(dist):
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

    def augment_from(root, dist, shortest, nxt):
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

    done = 0
    while phases is None or done < phases:
        dist = [m] * m  # m marks a row not reached in this phase
        shortest = layer_rows(dist)
        if shortest is None:
            return
        nxt = [0] * m  # next position in adj[i] to try during this phase
        for root in range(m):
            if row_col[root] < 0:
                augment_from(root, dist, shortest, nxt)
        done += 1


def hopcroft_karp_first_phase(tight):
    """One ``hopcroft_karp`` phase from the empty matching on a boolean
    m x n ``tight``, as the kernel ran it before its row scan. Returns
    ``(row_col, col_row)`` lists, -1 for free entries.
    """
    m, n = np.shape(tight)
    row_col, col_row = [-1] * m, [-1] * n
    hopcroft_karp(tight, row_col, col_row, phases=1)
    return row_col, col_row
