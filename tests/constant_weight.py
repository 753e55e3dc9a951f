"""The tests' exact reference for constant-weight maxima A(n, d, w).

``johnson_upper`` in the library bounds A(n, d, w), and
``proposition4_check`` reads that bound alone; the tests hold it to the
exact maxima computed here, next to a clique search of the layer graph.
The packing solve needs scipy, which comes with the ``test`` extra.
"""

import itertools
import math

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from bscbounds.core import DomainError
from bscbounds.oracle import SizeBudgetError

CLIQUE_CAP = 10  # longest weight layer the packing solve takes


def exhaustive_max_constant_weight(n: int, d: int, w: int) -> int:
    """True maximum size of a weight-w code with pairwise distance >= d.

    Two equal-weight words are always an even distance apart, so they are
    too close exactly when they share at least s = w - (d-1)//2 positions,
    and a valid code picks at most one word containing any given s-subset.
    At s = 1 that leaves words with disjoint supports, so the maximum is
    n // w.  For s >= 2 those clique constraints describe the feasible sets
    completely, and the resulting 0/1 packing program is dispatched to an
    exact MILP solve.  (A branch-and-bound clique search over the weight-w
    layer is correct too, but needs minutes on the dense w = 3 layer at
    n = 10; the packing program closes (10, 4, 3) in about 0.2 s and the
    densest n = 10 layers, (10, 5, 5) and (10, 6, 5), in about 3.7 s each,
    on a 2-core machine.)
    """
    if n > CLIQUE_CAP:
        raise SizeBudgetError(
            f"exhaustive weight-layer search exceeds the n <= {CLIQUE_CAP} budget")
    if not (0 <= w <= n):
        raise DomainError(f"need 0 <= w <= n, got w={w!r}")
    if w in (0, n):
        return 1
    if d <= 2:
        return math.comb(n, w)  # distinct equal-weight words differ in >= 2 places
    s = w - (d - 1) // 2
    if s <= 0:
        return 1  # d exceeds the layer diameter 2w: no two words fit
    if s == 1:
        return n // w  # no shared coordinate: words with disjoint supports
    words = np.arange(1 << n)
    layer = words[np.bitwise_count(words) == w]
    masks = np.array([sum(1 << c for c in combo)
                      for combo in itertools.combinations(range(n), s)])
    # one row per s-subset: the C(n-s, w-s) >= 2 layer words that contain it
    rows = (layer & masks[:, None]) == masks[:, None]
    res = milp(c=-np.ones(layer.size),
               constraints=LinearConstraint(rows.astype(float), -np.inf, 1.0),
               integrality=np.ones(layer.size),
               bounds=Bounds(0.0, 1.0))
    if not res.success:
        raise RuntimeError(f"packing solve failed for {(n, d, w)!r}: {res.message}")
    return round(-res.fun)
