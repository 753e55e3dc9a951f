"""Exhaustive ground truth on explicit small binary codes.

Everything in this module is exact: maximum-likelihood error probabilities
come from enumerating all 2^n channel outputs, and covering multiplicities
from counting.  These values anchor the asymptotic bounds elsewhere in the
package — every analytic lower bound must sit below the enumerated error
probability on every code it is tested against, with no tolerance.

Words are stored as integer bitmasks.  Every enumeration passes in chunks
under a fixed byte budget over the 2^(n-1) outputs with the top bit clear;
each complement y ^ 1^n is mirrored from y (radius t -> n - t, d_min ->
n - d_max), never enumerated.  A chunk's distances are word-major,
D[j, y] = d(y, x_j), so d_min and d_max reduce across its rows and a
group's words are whole rows.  The error probability and cover reports
read one census per code.  The covering maxima X_max(t, d) are counted
only at the rows d and radii t a reader asks for, group by group, a group
being the words at one distance from one reference word; ``_x_max`` states
the five ways a group is counted, their prices and their byte budgets.
``BinaryCode`` itself refuses a length over 24 or a census work M^2 2^n
over that of the n = 24, M = 32 shape, so no code the census cannot take
is ever built.
``proposition3_terms`` scans the spectrum-based lower bound term by term, the
reference route of ``proposition3_best``; its covering count
``restricted_cover_max`` reads X_max, which the verify suite checks against
a direct count of the union-cover inequality.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Dict, Iterator

import numpy as np

from .core import ChannelParam, DomainError, equidistant_radius

__all__ = [
    "BinaryCode",
    "CoverReport",
    "SizeBudgetError",
    "CodeFormatError",
    "repetition_code",
    "parity_code",
    "hamming74",
    "random_code",
    "parse_code",
    "load_code",
    "distance_distribution",
    "exact_pe_ml",
    "lower_bound_21",
    "sphere_packing_rhs_23",
    "z_pair_count",
    "cover_report",
    "restricted_cover_max",
    "proposition3_rhs",
    "proposition3_terms",
    "proposition3_best",
    "DOMINANCE_SLACK",
    "dominates",
    "johnson_upper",
    "proposition4_check",
]

_ENUM_CAP = 24          # 2^n output enumeration budget
_WORK_CAP = 1 << 34     # census work M^2 2^n: the n = 24, M = 32 shape
_BLOCK_BYTES = 1 << 20  # byte budget of one block of outputs or pair rows
_CLASS_COST = 1 << 17   # fixed cost of enumerating one group by its column
                        # classes, in census keys and bins
# The product route's prices, in the same unit.  Timed with each route
# forced, single-threaded OpenBLAS on a 2-core x86-64 host: a census key or
# bin took 2.3-3.9 ns (more in larger blocks), a one-hot entry 1.6 ns and a
# multiply-add 0.018 ns.  This pair picked the faster route for 147 of 155
# blocks of 15 random codes, losing 29 ms of 10.2 s.
_ONEHOT_COST = 2 / 3    # one one-hot distance entry
_MAC_COST = 1 / 256     # one float32 multiply-add
_SPHERE_COST = 5        # one sphere offset key, sorted
_SPHERE_PASS = 1 << 14  # fixed cost of one offset pass over one radius
DOMINANCE_SLACK = 1e-15  # round-off allowed when a lower bound meets P_e


class SizeBudgetError(RuntimeError):
    """The requested enumeration exceeds the exhaustive size budget."""


class CodeFormatError(ValueError):
    """A code description failed validation."""


@dataclass(frozen=True)
class BinaryCode:
    """An explicit code: length n plus a tuple of distinct word bitmasks."""

    n: int
    words: tuple

    def __post_init__(self) -> None:
        if not 1 <= self.n:
            raise CodeFormatError(f"length must be positive, got {self.n!r}")
        _check_size(self.n, len(self.words))
        if len(set(self.words)) != len(self.words):
            raise CodeFormatError("codewords must be pairwise distinct")
        if any(not 0 <= x < (1 << self.n) for x in self.words):
            raise CodeFormatError(f"word out of range for length {self.n}")
        if not self.words:
            raise CodeFormatError("a code needs at least one word")

    @property
    def M(self) -> int:
        return len(self.words)

    def word_strings(self) -> list:
        return [format(x, f"0{self.n}b") for x in self.words]


def _check_size(n: int, m: int) -> None:
    """Refuse m words of length n >= 1 that the census cannot take: a length
    over _ENUM_CAP, or census work M^2 2^n over _WORK_CAP."""
    if n > _ENUM_CAP:
        raise SizeBudgetError(f"code length {n} exceeds the n <= {_ENUM_CAP} budget")
    if m * m << n > _WORK_CAP:
        raise SizeBudgetError(
            f"output census work M^2 2^n = {m}^2 2^{n} exceeds the "
            f"2^{_WORK_CAP.bit_length() - 1} budget")


def repetition_code(n: int) -> BinaryCode:
    """The two-word code {00...0, 11...1}."""
    if n < 1:
        raise CodeFormatError("repetition code needs n >= 1")
    _check_size(n, 2)
    return BinaryCode(n, (0, (1 << n) - 1))


def parity_code(n: int) -> BinaryCode:
    """All even-weight words of length n (a single parity check)."""
    if n < 2:
        raise CodeFormatError("parity code needs n >= 2")
    _check_size(n, 1 << (min(n, _ENUM_CAP + 1) - 1))   # M = 2^(n-1), unformed past the cap
    all_words = np.arange(1 << n, dtype=np.uint32)
    even = all_words[np.bitwise_count(all_words) % 2 == 0]
    return BinaryCode(n, tuple(int(x) for x in even))


def hamming74() -> BinaryCode:
    """The [7,4] Hamming code, systematic form, 16 words."""
    rows = (0b1000101, 0b0100110, 0b0010011, 0b0001111)
    words = []
    for m in range(16):
        x = 0
        for b in range(4):
            if (m >> b) & 1:
                x ^= rows[b]
        words.append(x)
    return BinaryCode(7, tuple(words))


def random_code(n: int, m: int, seed: int) -> BinaryCode:
    """m distinct uniformly random words of length n, reproducible from seed."""
    if n < 1:
        raise CodeFormatError("random code needs n >= 1")
    _check_size(n, m)
    if seed < 0:
        raise CodeFormatError(f"random code needs seed >= 0, got {seed}")
    if not 1 <= m <= 1 << n:
        raise CodeFormatError(f"cannot place {m} distinct words in length {n}")
    rng = np.random.default_rng(seed)
    chosen: dict = {}
    while len(chosen) < m:
        for x in rng.integers(0, 1 << n, size=4 * (m - len(chosen)), dtype=np.uint64):
            chosen.setdefault(int(x), None)
            if len(chosen) == m:
                break
    return BinaryCode(n, tuple(chosen))


def parse_code(text: str) -> BinaryCode:
    """One binary word per line; equal lengths, distinct words, 0/1 only."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise CodeFormatError("no codewords found")
    n = len(lines[0])
    words = []
    for ln in lines:
        if len(ln) != n:
            raise CodeFormatError(f"word {ln!r} has length {len(ln)}, expected {n}")
        if set(ln) - {"0", "1"}:
            raise CodeFormatError(f"word {ln!r} contains characters other than 0/1")
        words.append(int(ln, 2))
    return BinaryCode(n, tuple(words))


def load_code(path: str) -> BinaryCode:
    try:
        with open(path, "r", encoding="ascii") as fh:
            return parse_code(fh.read())
    except UnicodeDecodeError as exc:
        raise CodeFormatError(f"{path!r} is not ASCII text (byte {exc.start})") from None


def _word_array(code: BinaryCode) -> np.ndarray:
    return np.asarray(code.words, dtype=np.uint32)


def _pair_distance_rows(words: np.ndarray, refs=None) -> Iterator[np.ndarray]:
    """Pair distances popcount(x_i ^ x_j), x_i all words or those at indices
    refs, in row blocks under the byte budget."""
    ref = words if refs is None else words[list(refs)]
    rows = max(1, _BLOCK_BYTES // (8 * words.size))
    for start in range(0, ref.size, rows):
        yield np.bitwise_count(ref[start:start + rows, None] ^ words[None, :])


def _distance_counts(pair: np.ndarray, width: int) -> np.ndarray:
    """k[i, d]: the words at distance d from reference word i of a pair block."""
    return np.bincount((np.arange(pair.shape[0])[:, None] * width + pair).ravel(),
                       minlength=pair.shape[0] * width).reshape(-1, width)


@functools.lru_cache(maxsize=8)
def _pair_counts(code: BinaryCode) -> tuple[int, ...]:
    """Ordered word pairs at each distance 0..n, the diagonal included."""
    counts = np.zeros(code.n + 1, dtype=np.int64)
    for block in _pair_distance_rows(_word_array(code)):
        counts += np.bincount(block.ravel(), minlength=code.n + 1)
    return tuple(counts.tolist())


def distance_distribution(code: BinaryCode) -> list:
    """Ordered-pair distance spectrum B_0..B_n, normalised by M.

    Includes the diagonal, so B_0 = 1 and sum(B) = M; off-diagonal entries
    times M are even integers (each unordered pair counted twice).
    """
    return [c / code.M for c in _pair_counts(code)]


@dataclass(frozen=True)
class _Census:
    """Integer summaries of all 2^n outputs y of one code."""

    dmin_hist: np.ndarray   # [d]: outputs whose nearest codeword is at distance d
    cover: np.ndarray       # [t, k]: outputs with exactly k codewords at distance t


def _chunk_len(n: int, m: int) -> int:
    """Outputs per census chunk; one output's int64 keys and counts take
    8 (M + (n+1)^2) bytes at most."""
    return max(1, _BLOCK_BYTES // (8 * (m + (n + 1) ** 2)))


def _group_x_max(n: int, keys: np.ndarray, sizes: np.ndarray,
                 k: int) -> np.ndarray:
    """max over the outputs y of #{x in S : d(x, y) = t} for one group S of
    k words, from its column classes alone.

    Class P holds sizes[P] coordinates on which bit j of keys[P] is the bit
    of word j of S relative to its word 0.  An output that flips f_P
    coordinates of class P, relative to word 0, lies at distance
    sum_P (f_P or sizes[P] - f_P) from word j, as bit j of keys[P] is 0 or 1.
    Only f <= sizes / 2 is taken on the largest class: the complement of a
    skipped output is taken, and the census mirrors t -> n - t.  The flip
    vectors, numbered in mixed radix, go in blocks under the byte budget: the
    leading classes as one table, the rest per block.
    """
    width = n + 1
    bits = (keys[:, None] >> np.arange(k, dtype=np.uint64) & 1).astype(np.int64)
    steps = 1 - 2 * bits
    bases = sizes + 1
    big = np.argmax(sizes)
    bases[big] = sizes[big] // 2 + 1
    cum = np.cumprod(bases)
    total, strides = int(cum[-1]), cum // bases
    cap = max(1, _BLOCK_BYTES // (8 * (k + width)))
    table = (sizes @ bits)[None, :]
    for base, step in zip(bases[cum <= cap], steps):
        table = (np.arange(base)[:, None, None] * step + table).reshape(-1, k)
    rows = min(cap, total) // len(table) * len(table)
    table = table * rows + np.arange(len(table))[:, None]
    best = np.zeros(width, dtype=np.int64)
    for start in range(0, total, rows):
        hi = np.arange(start, min(start + rows, total), len(table))
        shift = (hi[:, None] // strides % bases) @ steps * rows + (hi - start)[:, None]
        index = (shift[:, None, :] + table).ravel()
        best = np.maximum(best, np.bincount(index, minlength=width * rows)
                          .reshape(width, rows).max(axis=1))
    return best


@functools.lru_cache(maxsize=64)
def _sphere(n: int, t: int) -> np.ndarray:
    """The C(n, t) masks of weight t below 2^n: each mask of weight t - 1
    with one bit added above its top bit."""
    if t == 0:
        return np.zeros(1, dtype=np.uint32)
    stems = _sphere(n, t - 1)
    top = np.frexp(stems)[1]                # bit length, 0 for the mask 0
    fan = n - top
    bit = np.arange(fan.sum()) - np.repeat(np.cumsum(fan) - fan - top, fan)
    return np.repeat(stems, fan) | (1 << bit).astype(np.uint32)


def _sphere_x_max(n: int, t: int, members: np.ndarray, group: np.ndarray,
                  g: int) -> np.ndarray:
    """max over the outputs y of #{x in S_c : d(x, y) = t} for each of g
    groups S_c, the words members[group == c], group ascending: the top
    multiplicity of the multiset {x ^ e : x in S_c, wt(e) = t}, counted on
    sorted uint32 keys (c, y) by their runs.  The groups are halved until
    their |members| C(n, t) keys fit the byte budget or one group is left.
    That group's outputs go in buckets by their top b bits, the fewest that
    leave each bucket half the budget: y takes from word x the offsets e
    whose top bits u are those of y ^ x, u above each low mask of weight
    t - wt(u), so a bucket counts whole multiplicities and no offset set
    larger than a bucket is formed; runs of buckets are counted together
    within the budget."""
    cap = _BLOCK_BYTES // 32        # a key with its gather index and temporaries
    if g > 1 and (members.size * math.comb(n, t) > cap or g << n > 1 << 32):
        cut = np.searchsorted(group, g // 2)
        return np.concatenate((_sphere_x_max(n, t, members[:cut], group[:cut], g // 2),
                               _sphere_x_max(n, t, members[cut:], group[cut:] - g // 2,
                                             g - g // 2)))
    b = 0
    while True:
        low = n - b
        part = np.arange(1 << b, dtype=np.uint32)[:, None] ^ members >> low   # [bucket, word]
        rest = t - np.bitwise_count(part).astype(np.int64)       # weight below the top bits
        rest[(rest < 0) | (rest > low)] = low + 1
        comb = np.array([math.comb(low, j) for j in range(low + 1)] + [0])
        load = comb[rest].sum(axis=1)
        if b == n or load.max() <= (cap if b == 0 else cap // 2):
            break
        b += 1
    used = np.zeros(low + 2, dtype=np.int64)
    weights = list(range(max(0, t - b), min(t, low) + 1))
    used[weights] = comb[weights]
    table = np.concatenate([_sphere(low, j) for j in weights])
    first, size = (np.cumsum(used) - used)[rest], comb[rest]
    base = (members | group.astype(np.uint32) << np.uint32(n)) ^ part << np.uint32(low)
    run = (np.cumsum(load) - load) // (cap // 2)
    edges = np.searchsorted(run, np.arange(run[-1] + 2))
    best = np.ones(g, dtype=np.int64)
    for lo, hi in zip(edges[:-1], edges[1:]):
        cut = size[lo:hi].ravel()
        index = np.arange(cut.sum()) + np.repeat(first[lo:hi].ravel() - np.cumsum(cut) + cut, cut)
        keys = np.sort(table[index] ^ np.repeat(base[lo:hi].ravel(), cut))
        rep = np.flatnonzero(keys[1:] == keys[:-1])     # keys[i + 1] repeats keys[i]
        if rep.size:
            head = np.flatnonzero(np.diff(rep, prepend=-2) != 1)
            np.maximum.at(best, keys[rep[head]] >> n, np.diff(head, append=rep.size) + 1)
    return best


@functools.lru_cache(maxsize=32)
def _pair_x_max(n: int) -> np.ndarray:
    """[delta, t]: the most of two words delta apart at distance t from one
    output, 2 where some output lies at distance t from both (Z(t, delta) >
    0) and 1 elsewhere."""
    return np.array([[1 + (z_pair_count(n, delta, t) > 0) for t in range(n + 1)]
                     for delta in range(n + 1)])


def _folded(n: int, radii) -> tuple:
    """The radii t <= n / 2 that stand for the named radii: X_max[d, n - t]
    equals X_max[d, t], the complement of y at distance n - t from every
    word at distance t from y."""
    return tuple(sorted({min(t, n - t) for t in radii}))


def _batch(parts: list, width: int) -> tuple:
    """(columns, bin offsets, distances) of census groups of some reference
    words, given as (columns, group of each column, group distances), for
    one bincount; int32 halves what a block of batches holds."""
    base = np.cumsum([0] + [dist.size for _, _, dist in parts])
    cols = np.concatenate([keep for keep, _, _ in parts], dtype=np.int32)
    offs = np.concatenate([(b + group) * width for b, (_, group, _) in zip(base, parts)],
                          dtype=np.int32)
    return cols, offs, np.concatenate([dist for _, _, dist in parts])


def _output_chunks(code: BinaryCode, step: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(y offsets, D) per chunk of step outputs y, of the 2^(n-1) with the top
    bit clear: D[j, y] = d(y, x_j), formed once per chunk.  D is word-major,
    so a reduction over the words runs across its rows and a group's words
    are whole rows."""
    words, half = _word_array(code), 1 << (code.n - 1)
    for start in range(0, half, step):
        ys = np.arange(start, min(start + step, half), dtype=np.uint32)
        yield np.arange(ys.size), np.bitwise_count(words[:, None] ^ ys[None, :])


@functools.lru_cache(maxsize=8)
def _census(code: BinaryCode) -> _Census:
    """One pass over half the outputs; the d_min and cover reports read it.

    Only the 2^(n-1) outputs y with the top bit clear are enumerated; each
    complement y ^ 1^n lies at distance n - d(y, x) from every codeword x, so
    its summaries are those of y mirrored: t -> n - t, d_min -> n - d_max.
    One bincount on y (n+1) + D gives cnt[y, t], the number of codewords at
    distance t from y, and the cover histogram counts it once per chunk;
    the complements' cover, #{y : cnt[y, n - t] = k}, is that histogram
    reversed in t, added after the loop.  d_min and d_max are reductions
    over the words, across the rows of the word-major D.  The code's size
    was checked when it was built.
    """
    n, m = code.n, code.M
    width = n + 1
    dmin_hist = np.zeros(width, dtype=np.int64)
    cover = np.zeros(width * (m + 1), dtype=np.int64)
    t_off = np.arange(width) * (m + 1)
    for y_off, dist in _output_chunks(code, _chunk_len(n, m)):
        cnt = np.bincount((y_off * width + dist).ravel(),
                          minlength=y_off.size * width).reshape(-1, width)
        dmin_hist += np.bincount(dist.min(axis=0), minlength=width)
        dmin_hist += np.bincount(n - dist.max(axis=0), minlength=width)
        cover += np.bincount((cnt + t_off).ravel(), minlength=cover.size)
    cover = cover.reshape(width, m + 1)
    return _Census(dmin_hist, cover + cover[::-1])


def _slab_len(m: int) -> int:
    """Groups per membership slab of the product: a slab x M float32 matrix
    takes half the byte budget at most."""
    return max(1, _BLOCK_BYTES // (8 * m))


@functools.lru_cache(maxsize=16)
def _x_max(code: BinaryCode, rows, refs, radii) -> np.ndarray:
    """x_max[d, t], the max over (reference word, output y) of the codewords
    at distance d from the reference and t from y, for every d in rows (the
    other rows hold zeros), over every reference word or the indices refs,
    whose maxima are lower bounds, at the radii t in radii, which hold
    n - t with each t; x_max at a radius not named is a lower bound too,
    and no reader reads it.  ``restricted_cover_max`` reads one parity of d
    at every radius, ``proposition3_best`` the even rows and the radii of
    the cells where a term counts.

    x_max[d, t] is a max over groups S, the k words at distance d from one
    reference word, d in rows.  The pair distances come in blocks of
    reference words under the byte budget, and each block's groups are
    counted where their route is picked, in this order.

    Closed forms: one word lies at every distance t from some output, so a
    group of one adds exactly 1 to every x_max[d, t]; two words delta apart
    add _pair_x_max[delta].

    Column classes: bit j of a column's key is its bit in word j of S
    relative to word 0, equal keys make a class, and ``_group_x_max``
    enumerates the reps representative outputs by their flip counts per
    class.  They cost reps (k + n + 1) + _CLASS_COST against the
    2^(n-1) (k + n + 1) keys and bins S takes in the census; a group is
    priced once, and only if it could pay even with a single class.  Groups
    of more than 64 words stay: their keys would not fit 64 bits.

    The g groups left are priced once, over j = 0..g, the number that go to
    the sphere offsets, smallest first.  The offsets cost _SPHERE_COST per
    key, k sum_t C(n, t) keys over the folded radii t <= n / 2, plus
    _SPHERE_PASS per folded radius.  The rest go to the cheaper census
    route, priced per output times 2^(n-1): by bincount c + g' (n + 1) keys
    and bins for g' groups of c words, by the product r M one-hot entries
    per membership slab (the 0/1 rows [D = t] of the r radii) plus r M g'
    multiply-adds, at _ONEHOT_COST and _MAC_COST each.  The j of the least
    total is taken, 0 on a tie, and the product only where it is cheaper.

    Sphere offsets (``_sphere_x_max``): an output y at distance t from c
    words of S is x ^ e with wt(e) = t for exactly those c words x, so
    X(S, t) is the top multiplicity of {x ^ e}, at each folded radius alone
    (X(S, n - t) = X(S, t), by complementing y), with no pass over the
    outputs.

    Product (``_product_pass``), per membership slab of _slab_len groups, a
    (g, M) float32 matrix G with G[c, j] = [word j is in group c]: per
    chunk of outputs and named radius t, (G @ [D = t])[c, y] counts the
    words of group c at distance t from y.  Every count is an integer below
    2^24, so float32 sums it exactly in any order.  A chunk holds D, one
    radius's float32 rows and the (g, chunk) product within the budget.

    Bincount (``_bincount_pass``), per block: the groups go in batches of
    (columns, bin offsets, distances) whose keys and bins per output stay
    within the M + (n+1)^2 of _chunk_len, each counted on (y, group, D)
    keys, its columns whole rows of the word-major D.  A chunk holds D (M
    bytes per output) and the largest batch's keys and bins, 8 bytes each.

    The closed forms, the classes and bincount write every radius (their
    bins cost less than mapping D to the named ones), the product the named
    radii, the offsets the folded ones; the complements' maxima
    x_max[d, n - t] are taken once at the end.
    """
    n, m, words = code.n, code.M, _word_array(code)
    width, half, r = n + 1, 1 << (n - 1), len(radii)
    folded = _folded(n, radii)
    per_word = sum(math.comb(n, t) for t in folded) * _SPHERE_COST
    wanted = np.zeros(width, dtype=bool)
    wanted[list(rows)] = True
    x_max = np.zeros((width, width), dtype=np.int64)
    for pair in _pair_distance_rows(words, refs):
        k = _distance_counts(pair, width)
        left = wanted & (k > 0)
        if (left & (k <= 2)).any():
            one = (left & (k == 1)).any(axis=0)
            x_max[one] = np.maximum(x_max[one], 1)
            ref, ds = np.nonzero(left & (k == 2))
            ends = words[np.nonzero(pair[ref] == ds[:, None].astype(pair.dtype))[1]]
            np.maximum.at(x_max, ds, _pair_x_max(n)[np.bitwise_count(ends[::2] ^ ends[1::2])])
            left &= k > 2
        could = left & (k <= 64) & ((half - n // 2 - 1) * (k + width) > _CLASS_COST)
        for i, d in zip(*np.nonzero(could)):
            members = np.flatnonzero(pair[i] == d)
            shifts = np.arange(members.size, dtype=np.uint64)[:, None]
            bits = (words[members] ^ words[members[0]])[:, None] >> np.arange(n, dtype=np.uint32)
            keys = np.bitwise_or.reduce((bits & 1).astype(np.uint64) << shifts, axis=0)
            keys, sizes = np.unique(keys, return_counts=True)
            big, per_output = sizes.max(), members.size + width
            reps = np.prod(sizes + 1) // (big + 1) * (big // 2 + 1)
            if reps * per_output + _CLASS_COST < half * per_output:
                left[i, d] = False
                x_max[d] = np.maximum(x_max[d], _group_x_max(n, keys, sizes, members.size))
        ref, ds, size = *np.nonzero(left), k[left]
        order = np.argsort(size, kind="stable")
        taken = np.cumsum(np.append(0, size[order]))      # words of the first j groups
        g = np.arange(ds.size, 0, -1)                      # groups they leave, j < all
        product = np.append(-(-g // _slab_len(m)) * r * m * _ONEHOT_COST
                            + g * r * m * _MAC_COST, 0)
        bincount = np.append(taken[-1] - taken[:-1] + g * width, 0)
        total = half * np.minimum(product, bincount)
        total[1:] = total[1:] + taken[1:] * per_word + _SPHERE_PASS * len(folded)
        j = int(np.argmin(total))
        if j:
            take = order[:j]
            group, cols = np.nonzero(pair[ref[take]] == ds[take, None].astype(pair.dtype))
            for t in folded:
                np.maximum.at(x_max, (ds[take], t), _sphere_x_max(n, t, words[cols], group, j))
            left[ref[take], ds[take]] = False
            ref, ds = np.nonzero(left)
        if product[j] < bincount[j]:
            for start in range(0, ds.size, _slab_len(m)):
                cut = slice(start, start + _slab_len(m))
                # compared in the pair rows' own uint8, not copied to int64
                member = (pair[ref[cut]] == ds[cut, None].astype(pair.dtype)).astype(np.float32)
                _product_pass(code, member, ds[cut], radii, x_max)
        elif ds.size:
            batches, parts, cost = [], [], 0
            for i in np.flatnonzero(left.any(axis=1)):
                cols = np.flatnonzero(left[i, pair[i]])
                dist, group = np.unique(pair[i, cols], return_inverse=True)
                if parts and cost + cols.size + dist.size * width > m + width * width:
                    batches.append(_batch(parts, width))
                    parts, cost = [], 0
                parts.append((cols, group, dist))
                cost += cols.size + dist.size * width
            batches.append(_batch(parts, width))
            _bincount_pass(code, batches, x_max)
    return np.maximum(x_max, x_max[:, ::-1])


def _product_pass(code: BinaryCode, member: np.ndarray, ds: np.ndarray, radii,
                  x_max: np.ndarray) -> None:
    """Count one membership slab's groups, at distances ds, into x_max at
    the radii (``_x_max`` states the route)."""
    step = max(1, _BLOCK_BYTES // (5 * code.M + 4 * ds.size))
    for _, dist in _output_chunks(code, step):
        for t in radii:
            best = (member @ (dist == t).astype(np.float32)).max(axis=1)
            np.maximum.at(x_max, (ds, t), best.astype(np.int64))


def _bincount_pass(code: BinaryCode, batches: list, x_max: np.ndarray) -> None:
    """Count one block's bincount batches into x_max at every radius
    (``_x_max`` states the route)."""
    width = code.n + 1
    step = max(1, _BLOCK_BYTES // (code.M + 8 * max(cols.size + ds.size * width
                                                     for cols, _, ds in batches)))
    for y_off, dist in _output_chunks(code, step):
        for cols, offs, ds in batches:
            g = ds.size * width
            best = np.bincount((y_off * g + offs[:, None] + dist[cols]).ravel(),
                               minlength=y_off.size * g).reshape(-1, g).max(axis=0)
            np.maximum.at(x_max, ds, best.reshape(-1, width))


def exact_pe_ml(code: BinaryCode, ch: ChannelParam) -> float:
    """Exact ML decoding error probability over all 2^n outputs.

    The decoder picks the minimum-distance codeword, lowest index on ties;
    the error probability only depends on the minimum distance profile:
    P_e = 1 - (1/M) sum_y p^{d_min(y)} q^{n - d_min(y)}.
    """
    if code.M < 2:
        return 0.0
    p, q = ch.p, ch.q
    pow_table = np.array([p ** d * q ** (code.n - d) for d in range(code.n + 1)])
    return 1.0 - float(pow_table @ _census(code).dmin_hist) / code.M


def lower_bound_21(code: BinaryCode, ch: ChannelParam) -> float:
    """Equidistance lower bound on P_e from multiply-covered outputs.

    (q^n / 2M) sum_t (p/q)^t N_t, where N_t counts output-codeword
    incidences at distance t restricted to outputs covered by at least two
    codewords at that radius.
    """
    if code.M < 2:
        return 0.0
    n = code.n
    shared = _census(code).cover[:, 2:] @ np.arange(2, code.M + 1)
    ratio = ch.p / ch.q
    total = sum(ratio ** t * int(shared[t]) for t in range(n + 1) if shared[t])
    return ch.q ** n / (2.0 * code.M) * total


def sphere_packing_rhs_23(code: BinaryCode, ch: ChannelParam) -> float:
    """Counting-only relaxation: (q^n/2M) max_t (p/q)^t [M binom(n,t) - 2^n],
    clamped at zero.  Needs no enumeration, only (n, M)."""
    n, M = code.n, code.M
    ratio = ch.p / ch.q
    best = 0.0
    for t in range(n + 1):
        surplus = M * math.comb(n, t) - (1 << n)
        if surplus > 0:
            best = max(best, ratio ** t * surplus)
    return ch.q ** n / (2.0 * M) * best


def dominates(pe: float, bound: float) -> bool:
    """Whether exact ML error pe meets a lower bound, up to DOMINANCE_SLACK."""
    return pe >= bound - DOMINANCE_SLACK


def z_pair_count(n: int, d: int, t: int) -> int:
    """|{y : d(x,y) = d(x',y) = t}| for any fixed pair at distance d.

    Exactly binom(n-d, t-d/2) binom(d, d/2); zero whenever d is odd or the
    radii are combinatorially impossible.
    """
    if d < 0 or d > n or d % 2 != 0:
        return 0
    half = d // 2
    if t < half or t - half > n - d:
        return 0
    return math.comb(n - d, t - half) * math.comb(d, half)


@dataclass(frozen=True)
class CoverReport:
    """Covering multiplicities of radius-t spheres around the codewords."""

    t: int
    histogram: Dict[int, int]     # multiplicity -> number of outputs
    x_max: int
    y_t_size: int                 # outputs covered exactly once

    def double_count(self) -> int:
        return sum(mult * cnt for mult, cnt in self.histogram.items())


def cover_report(code: BinaryCode, t: int) -> CoverReport:
    """Histogram of |{codewords at distance t from y}| over all outputs y."""
    if not 0 <= t <= code.n:
        raise DomainError(f"radius must lie in [0, n], got {t!r}")
    row = _census(code).cover[t].tolist()
    hist = {k: c for k, c in enumerate(row) if k and c}
    return CoverReport(t=t, histogram=hist,
                       x_max=max(hist, default=0),
                       y_t_size=hist.get(1, 0))


def restricted_cover_max(code: BinaryCode, t: int, omega_dist: int) -> int:
    """max over (reference word, output) of the number of codewords at
    distance t from the output AND at distance omega_dist from the reference."""
    if not (0 <= t <= code.n and 0 <= omega_dist <= code.n):
        return 0
    return int(_x_max(code, range(omega_dist % 2, code.n + 1, 2), None,
                      range(code.n + 1))[omega_dist, t])


def proposition3_rhs(code: BinaryCode, ch: ChannelParam, t: int,
                     omega_dist: int) -> float:
    """One (t, omega) term of the spectrum-based lower bound:
    (q^n/2) (p/q)^t B_omega Z(t, omega) / X_max(t, omega)."""
    if not 0 <= omega_dist <= code.n:
        raise DomainError(f"distance must lie in [0, n], got {omega_dist!r}")
    b = _pair_counts(code)[omega_dist] / code.M
    if b == 0.0:
        return 0.0
    z = z_pair_count(code.n, omega_dist, t)
    if z == 0:
        return 0.0
    return _numerator(code.n, ch, t, b, z) / restricted_cover_max(code, t, omega_dist)


def _numerator(n: int, ch: ChannelParam, t: int, b: float, z: int) -> float:
    """A proposition3_rhs term before its division by X_max."""
    return ch.q ** n / 2.0 * (ch.p / ch.q) ** t * b * z


def proposition3_terms(code: BinaryCode,
                       ch: ChannelParam) -> Iterator[tuple[int, int, float]]:
    """Every (t, omega_dist, proposition3_rhs) term of the spectrum bound
    whose distance occurs in the code and whose radius is reachable (Z > 0),
    distances outermost and both in increasing order."""
    counts = _pair_counts(code)
    for om_d in range(1, code.n + 1):
        for t in range(code.n + 1):
            if counts[om_d] and z_pair_count(code.n, om_d, t):
                yield t, om_d, proposition3_rhs(code, ch, t, om_d)


def proposition3_best(code: BinaryCode, ch: ChannelParam,
                      pe: float) -> tuple[dict, bool]:
    """The first largest ``proposition3_terms`` term as {t, omega_dist,
    value} ({None, None, 0.0} if none is positive), and whether pe dominates
    every term.

    A term is num / X_max[d, t] at a cell (d, t); rounded division is
    monotone in the divisor, so a bound on X_max bounds the term.  Two bounds
    are free: 1 <= X_max[d, t] <= k_max[d], the most words at distance d from
    one word, since a group lies at every radius t from some output and holds
    at most k_max[d] words.  So num bounds its term from above, and the
    largest num / k_max[d] is a floor that the best term reaches.  A cell
    stays open while a bound of its term is positive and not below the
    floor, or not dominated by pe; a closed cell's term lies strictly below
    the best and is dominated, as in the loop over every term, and its X_max
    is never read.  The open cells go to X_max at their rows and radii alone
    (t with n - t): first over the words with the most words at an open
    row's distance, ties kept by their whole distance profile, so the plan
    depends on distances alone (over every word, as for a linear code, this
    pass is exact); then exactly, the row of the largest bound first, which
    raises the floor, and every cell still open in one more pass.  The exact
    cells are read in (d, t) order, as the loop reads them.
    """
    counts, n = _pair_counts(code), code.n
    width = n + 1
    nums = {(d, t): _numerator(n, ch, t, counts[d] / code.M, z)
            for d in range(2, width, 2) if counts[d]      # Z(t, d) = 0 at odd d
            for t in range(width) if (z := z_pair_count(n, d, t))}
    best, dominated = {"t": None, "omega_dist": None, "value": 0.0}, True
    if not nums:
        return best, dominated
    k = np.concatenate([_distance_counts(pair, width)
                        for pair in _pair_distance_rows(_word_array(code))])
    k_max = k.max(axis=0)
    floor = max(num / int(k_max[d]) for (d, _), num in nums.items())

    def still_open(bounds):
        return {c: b for c, b in bounds.items()
                if not dominates(pe, b) or 0.0 < b >= floor}

    def x_over(cells, refs=None):
        rows = tuple(sorted({d for d, _ in cells}))
        radii = tuple(sorted({t for _, t in cells} | {n - t for _, t in cells}))
        return _x_max(code, rows, refs, radii)

    cells = still_open(nums)
    if not cells:
        return best, dominated
    profiles, refs = k.tolist(), set()
    for d in {d for d, _ in cells}:
        top = max(row for row in profiles if row[d] == k_max[d])
        refs |= {i for i, row in enumerate(profiles) if row == top}
    refs = tuple(sorted(refs)) if len(refs) < code.M else None
    x = x_over(cells, refs)
    if refs is not None:
        cells = still_open({c: nums[c] / int(x[c]) for c in cells})
        if not cells:
            return best, dominated
        first = max(cells, key=cells.get)[0]
        head = [c for c in cells if c[0] == first]
        x = x_over(head)
        floor = max(floor, *(nums[c] / int(x[c]) for c in head))
        rest = still_open({c: b for c, b in cells.items() if c[0] != first})
        if rest:
            x = np.maximum(x, x_over(rest))
        cells = head + list(rest)
    for c in sorted(cells):
        value = nums[c] / int(x[c])
        dominated = dominated and dominates(pe, value)
        if value > best["value"]:
            best = {"t": c[1], "omega_dist": c[0], "value": value}
    return best, dominated


def _johnson_once(n: int, d: int, w: int) -> float:
    if w == 0:
        return 1.0
    den = 2 * w * w - 2 * w * n + d * n
    return d * n / den if den > 0 else math.inf


def johnson_upper(n: int, d: int, w: int) -> float:
    """Upper bound on the size of a constant-weight-w, distance->=d code.

    Takes the tighter of the direct quadratic bound and one weight-reduction
    step followed by the quadratic bound; math.inf when both denominators
    clamp (the method then says nothing).
    """
    if not (0 < w <= n and 0 < d <= n):
        raise DomainError(f"need 0 < w <= n and 0 < d <= n, got {(n, d, w)!r}")
    direct = _johnson_once(n, d, w)
    reduced = n / w * _johnson_once(n - 1, d, w - 1)
    return min(direct, reduced)


def proposition4_check(n: int, omega: float, ch: ChannelParam) -> bool:
    """Johnson bound stays below n^2 at distance omega*n, weight t(omega)*n.

    Rounds both products half-up to integers and re-derives the Johnson
    arithmetic from the integers, which alone decide: the true maximum
    A(n, d, w) never exceeds the Johnson bound, so it cannot change the answer.
    """
    if not 0.0 < omega <= 0.5:
        raise DomainError(f"normalised distance must lie in (0, 1/2], got {omega!r}")
    d = math.floor(omega * n + 0.5)
    w = math.floor(equidistant_radius(omega, ch) * n + 0.5)
    if d == 0 or w == 0:
        return True  # degenerate rounding: at most one word in the layer
    return johnson_upper(n, d, w) < n * n
