"""Maximum-weight perfect matching on a square matrix.

The weights are scaled by a power of two that puts the largest magnitude
in [2**47, 2**48] and rounded to integers, so every value the steps
below form is held exactly (``max_weight_assignment``) and the tie rule
holds as written. Maximization is then a non-negative minimization: each
weight is subtracted from the matrix maximum, an offset that never
changes which matching is optimal.

The kernel exploits ties, which quantized weights have in abundance, and
falls back on Jonker-Volgenant initialisation (Computing 38, 1987; Crouse,
IEEE TAES 2016) where they run out, as with ideal feedback:

0. Every row that is constant across all columns is set aside: it adds
   the same weight to every perfect matching, so it cannot change which
   one is optimal. The zero rows that pad the table of a cluster with
   fewer vehicles than subframes (``scenario.pad_to_square``) are such
   rows, and so is a vehicle whose row is constant. The m <= n rows
   left are solved as a rectangular problem (Crouse, §IV) by the steps
   below. Its duals must keep v_j <= 0 on every column and v_j = 0 on
   every column left unmatched; v starts at 0, and steps 3 and 4 only
   lower v_j, and only on a column they match.
1. Duals start at u_i = min_j cost[i, j] and v = 0. Every reduced cost
   cost[i, j] - u_i - v_j is then non-negative, and the tight (zero)
   edges are exactly the row-maximum entries of the weights. They are
   held as one Python int per row, bit j set for tight column j, so a
   set operation on a row's columns is one integer operation.
   Hopcroft-Karp (SIAM J. Comput. 1973) finds a maximum-cardinality
   matching on the tight edges. Its first phase, from the empty
   matching, finds only paths of one edge, so it runs as a row scan:
   each row in ascending order takes its lowest-index free tight
   column. The later phases run only while rows are still free. When
   the matching covers every row it is optimal outright, because the
   sum of row maxima bounds every matching from above, and steps 2-4
   never run.
2. Column reduction, only when no row was set aside (m = n), because
   it raises v: v_j = min_i (cost[i, j] - u_i). This is 0 for every
   column with a tight edge already, and every other column gains one.
   Hopcroft-Karp continues from the step-1 matching on the larger tight
   set.
3. Augmenting row reduction: each free row takes the column of its lowest
   cost[i, j] - v_j and lowers that column's v_j by the gap to its
   second-lowest, displacing the column's row. At most n rows are
   visited, n being the column count. Then u_i = min_j (cost[i, j] - v_j),
   so every matched row sits on a minimum of its row and every reduced
   cost is non-negative.
4. Each row still free is inserted by a shortest augmenting path, in
   the augmenting-path form of Jonker and Volgenant: Dijkstra on the
   reduced costs of the duals as they stand, warm-started from that
   matching. Distances are measured from the inserted row, and each
   column is scanned at most once; a scanned column is excluded from
   later relaxation by an exact mask, not by comparing distances. The
   duals are settled once per insertion, when a free column is reached
   at distance mu: the inserted row's u gains mu, and each scanned
   column j, reached at distance d_j, moves mu - d_j from v_j to the u
   of its row. Matched edges stay tight and reduced costs non-negative,
   so the final matching of the m rows is optimal by complementary
   slackness.
5. The set-aside rows take the columns left unmatched.

Tie rule. Among optimal matchings the kernel returns the one these steps
reach with every scan in ascending index order:

- each Hopcroft-Karp phase grows its search from the free rows in
  ascending index; a row tries its tight columns in ascending index and
  follows the first one that continues a shortest augmenting path;
- row reduction starts from the free rows in ascending index. A row's
  lowest and second-lowest columns are each the lowest index among
  equals. When the two values are equal and the lowest column is
  matched, the row takes the second column instead. A row displaced
  across a positive gap is visited next; one displaced across a zero gap
  goes to the back of the queue;
- the rows left free are then inserted in ascending index; among equally
  near columns the lowest index is scanned first, and a column reached
  at equal distance from two scanned rows keeps the earlier predecessor;
- the set-aside rows, in ascending index, take the unmatched columns in
  ascending index.

The result depends on the cost matrix alone (no randomness, hashing or
clock), so equal input gives an equal matching. When the row maxima admit
a perfect matching, as they usually do for quantized feedback, every row
receives one of its row-maximum columns.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from .errors import finite_sum


def max_weight_assignment(weights):
    """Best column per row under the one-to-one constraint.

    Returns ``(col_of_row, total)`` where ``col_of_row[i]`` is the column
    matched to row ``i`` and ``total`` is numpy's pairwise sum of the
    matched weights, taken in row order.

    Raises a ValueError unless every weight and the total are finite.
    The kernel solves on the weights in units of 2**-48 of the power of
    two above their largest magnitude, rounded half to even: a weight
    below 2**-49 of the largest magnitude rounds to 0 and ties with 0.

    Exactness: the costs are integers in [0, C], C <= 2**49. Between
    insertions every dual lies in [-C, C]: a matched row's u is at most its
    cost to a free column, whose v is never lowered, so >= 0, and its
    column's v is its cost less that u. Row reduction lowers no v below -2C;
    an insertion's distances are at most 2C and its reduced costs 5C. So
    every value is an integer of magnitude at most 10 * 2**48 < 2**53.
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {w.shape}")
    if w.size == 0:
        raise ValueError("matrix must be non-empty")
    n = w.shape[0]
    row_min, row_max = w.min(axis=1), w.max(axis=1)
    lo, hi = float(row_min.min()), float(row_max.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("weights must be finite")
    # ldexp: 2.0**scale overflows where the largest magnitude is subnormal
    scale = 48 - math.frexp(max(-lo, hi))[1]
    top = np.rint(np.ldexp(row_max, scale))

    # step 0: a constant row weighs the same on every column
    constant = np.rint(np.ldexp(row_min, scale)) == top
    varied = np.flatnonzero(~constant)
    cost = np.ldexp(w if varied.size == n else w[varied], scale)
    peak = round(math.ldexp(hi, scale))  # the largest of top
    cost = np.subtract(peak, np.rint(cost, out=cost), out=cost)
    col_of_row = np.empty(n, dtype=np.int64)
    col_of_row[varied] = _solve(cost, peak - top[varied])
    left = np.ones(n, dtype=bool)
    left[col_of_row[varied]] = False
    col_of_row[constant] = np.flatnonzero(left)  # step 5
    return col_of_row, finite_sum(w[np.arange(n), col_of_row],
                                  "the matching's total weight")


def _solve(cost, u):
    """Minimum-cost column per row of an m x n ``cost``, m <= n (steps 1-4).

    ``u`` holds the row minima. Returns ``col_of_row``, an int64 array of
    length m. Column reduction raises v, so it runs only when m == n.
    """
    m, n = cost.shape
    v = np.zeros(n)  # column potentials
    tight = _row_bits(cost == u[:, None])
    row_col, col_row = _scan_rows(tight, n)
    if -1 in row_col:
        _tight_matching(tight, row_col, col_row)
    if m == n and -1 in row_col:
        # column reduction: 0 where a column has a tight edge already,
        # and every other column gains one
        reduced = cost - u[:, None]
        v = reduced.min(axis=0)
        _tight_matching(_row_bits(reduced == v), row_col, col_row)
    if -1 in row_col:
        _reduce_rows(cost, v, row_col, col_row)
        u = (cost - v).min(axis=1)
    # col_row[j]: row matched to column j, -1 while free; column n is the
    # virtual root holding the row currently being inserted.
    col_row = np.array(col_row + [-1], dtype=np.int64)
    for i in range(m):
        if row_col[i] < 0:
            _insert_row(i, cost, u, v, col_row)

    matched = np.flatnonzero(col_row[:n] >= 0)
    col_of_row = np.empty(m, dtype=np.int64)
    col_of_row[col_row[matched]] = matched
    return col_of_row


def _row_bits(mask):
    """The True columns of each row of a boolean ``mask`` as one int per
    row, bit j set for column j."""
    packed = np.packbits(mask, axis=1, bitorder="little")
    width, raw = packed.shape[1], packed.tobytes()
    return [int.from_bytes(raw[k:k + width], "little")
            for k in range(0, len(raw), width)]


def _scan_rows(bits, n):
    """Hopcroft-Karp's first phase from the empty matching, as a row scan.

    ``bits[i]`` holds the tight columns of row ``i`` (``_row_bits``) among
    ``n``. Every augmenting path of that phase has one edge, and the
    phase tries the rows in ascending order, so each row takes its
    lowest-index free tight column: the lowest set bit of its tight
    columns and the free ones. Returns ``(row_col, col_row)`` lists, -1
    for free entries.
    """
    row_col, col_row = [-1] * len(bits), [-1] * n
    free = (1 << n) - 1
    for i, row in enumerate(bits):
        hit = row & free
        if hit:
            low = hit & -hit
            j = low.bit_length() - 1
            row_col[i], col_row[j] = j, i
            free ^= low
    return row_col, col_row


def _tight_matching(bits, row_col, col_row):
    """Grow a matching to maximum cardinality on the tight edges (Hopcroft-Karp).

    ``bits[i]`` holds the tight columns of row ``i``, bit j for column j
    (``_row_bits``). ``row_col`` and ``col_row`` hold the matching to
    start from, with -1 for free entries, and are updated in place.
    """
    m = len(bits)
    matched = 0  # the matched columns as bits
    for j in row_col:
        if j >= 0:
            matched |= 1 << j
    while True:
        dist = [m] * m  # m marks a row not reached in this phase
        shortest = _layer_rows(bits, matched, row_col, col_row, dist)
        if shortest is None:
            return
        untried = bits.copy()  # the columns each row has yet to try
        for root in range(m):
            if row_col[root] < 0:
                matched |= _augment_from(root, untried, dist, shortest,
                                         row_col, col_row)


def _layer_rows(bits, matched, row_col, col_row, dist):
    """Breadth-first layers from the free rows along alternating paths.

    ``matched`` holds the matched columns as bits. Fills ``dist`` with
    each reached row's layer and returns the layer of the first row with
    an edge to a free column, or None when no augmenting path exists.
    Every row up to that layer is labelled by then. A row reaches the
    owners of its tight columns in ascending order, up to its first free
    one; ``unreached`` holds the matched columns whose owner has no layer
    yet.
    """
    m = len(bits)
    unreached = matched
    free = ((1 << len(col_row)) - 1) ^ matched
    queue = [i for i in range(m) if row_col[i] < 0]
    for i in queue:
        dist[i] = 0
    for i in queue:
        row = bits[i]
        hit = row & free
        if hit:
            row &= (hit & -hit) - 1  # the columns below the first free one
        reach = row & unreached
        if reach:
            unreached ^= reach
            layer = dist[i] + 1
            while reach:
                low = reach & -reach
                r = col_row[low.bit_length() - 1]
                dist[r] = layer
                queue.append(r)
                reach ^= low
        if hit:
            return dist[i]
    return None


def _augment_from(root, untried, dist, shortest, row_col, col_row):
    """Depth-first search for one shortest augmenting path, then flip it.

    Each row tries its ``untried`` columns lowest first and clears each
    one it tries, for the rest of the phase. Iterative, because the path
    length is bounded only by the matrix size. Rows found to be dead ends
    are dropped from the phase's layering. Returns the bit of the free
    column the path ends on, or 0 when there is no path.
    """
    rows, cols = [root], []
    while rows:
        i = rows[-1]
        left = untried[i]
        while left:
            low = left & -left
            left ^= low
            j = low.bit_length() - 1
            r = col_row[j]
            if r < 0:
                untried[i] = left
                cols.append(j)
                for row, col in zip(rows, cols):
                    row_col[row] = col
                    col_row[col] = row
                return low
            if dist[i] < shortest and dist[r] == dist[i] + 1:
                untried[i] = left
                rows.append(r)
                cols.append(j)
                break
        else:
            untried[i] = 0
            dist[i] = -1
            rows.pop()
            if cols:
                cols.pop()
    return 0


def _reduce_rows(cost, v, row_col, col_row):
    """Augmenting row reduction (Jonker and Volgenant) on the free rows.

    Step 3 of the module docstring, capped at n row visits. Lowering
    ``v[j1]`` by the gap keeps the row on a minimum of ``cost[i] - v``
    once it holds ``j1``. Updates ``row_col``, ``col_row`` and ``v`` in
    place.
    """
    m, n = cost.shape
    free = deque(i for i in range(m) if row_col[i] < 0)
    for _ in range(n):
        if not free:
            return
        i = free.popleft()
        row = cost[i] - v
        j1 = int(row.argmin())
        u1 = float(row[j1])
        row[j1] = np.inf
        j2 = int(row.argmin())
        u2 = float(row[j2])
        i0 = col_row[j1]
        if u1 < u2:
            v[j1] -= u2 - u1
        elif i0 >= 0:
            # equal minima: prefer the second column, which may be free
            j1, i0 = j2, col_row[j2]
        row_col[i], col_row[j1] = j1, i
        if i0 >= 0:
            row_col[i0] = -1
            if u1 < u2:
                free.appendleft(i0)
            else:
                free.append(i0)


def _insert_row(i, cost, u, v, col_row):
    """Match free row ``i`` along a shortest augmenting path on reduced costs.

    Distances are measured from row ``i`` on the reduced costs of the
    duals as they stand; the duals are settled once, when a free column
    is reached. Updates ``u``, ``v`` and the column owners ``col_row`` in
    place; every other row stays matched.
    """
    n = cost.shape[1]
    col_row[n] = i
    open_d = np.full(n, np.inf)          # tentative distance; inf once scanned
    dist = np.empty(n)                   # distance at which a column was scanned
    way = np.full(n, n, dtype=np.int64)  # predecessor column in the tree
    unscanned = np.ones(n, dtype=bool)
    j0, i0, mu = n, i, 0.0
    while True:
        r = cost[i0] - v
        r -= u[i0] - mu
        # a scanned column holds inf, so only the mask keeps its predecessor
        better = r < open_d
        better &= unscanned
        way[better] = j0
        np.copyto(open_d, r, where=better)
        j0 = int(open_d.argmin())  # lowest index among equals
        mu = open_d[j0]
        i0 = col_row[j0]
        if i0 < 0:
            break
        dist[j0] = mu
        open_d[j0] = np.inf
        unscanned[j0] = False
    # settle the duals: every tree edge tight, every reduced cost >= 0
    u[i] += mu
    scanned = np.flatnonzero(~unscanned)
    gain = mu - dist[scanned]
    u[col_row[scanned]] += gain
    v[scanned] -= gain
    # augment: pull matches back along the alternating path
    while j0 != n:
        j1 = way[j0]
        col_row[j0] = col_row[j1]
        j0 = int(j1)
