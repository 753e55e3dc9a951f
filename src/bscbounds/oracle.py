"""Exhaustive ground truth on explicit small binary codes.

Everything in this module is exact: maximum-likelihood error probabilities
come from enumerating all 2^n channel outputs, covering multiplicities from
counting, and the small constant-weight maxima from an exact 0/1 packing
solve.  These values anchor the asymptotic bounds elsewhere in the
package — every analytic lower bound must sit below the enumerated error
probability on every code it is tested against, with no tolerance.

Words are stored as integer bitmasks.  The enumerated reports all read one
census per code, a single pass in chunks under a fixed byte budget over the
2^(n-1) outputs with the top bit clear; each complement y ^ 1^n is mirrored
from y (radius t -> n - t, d_min -> n - d_max), never enumerated.  The
covering maxima X_max go group by group, a group being the words at one
distance from one reference word.  Each group is priced on its own: one
whose column classes (coordinates with one bit pattern over the group, up to
complement) give fewer representative outputs than the pass is enumerated by
its flip counts per class instead.  Pair distances come in row blocks under
the same budget, shared by the pair counts, the class analysis and the pass,
and a census whose work M^2 2^n exceeds the n = 24, M = 32 shape is refused.
``proposition3_terms`` scans the spectrum-based lower bound term by term; its
covering count ``restricted_cover_max`` reads the census, which the verify
suite checks against a direct count of the union-cover inequality.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Dict, Iterator

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

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
    "DOMINANCE_SLACK",
    "dominates",
    "johnson_upper",
    "exhaustive_max_constant_weight",
    "proposition4_check",
]

_ENUM_CAP = 24          # 2^n output enumeration budget
_CLIQUE_CAP = 10        # exhaustive constant-weight search budget
_WORK_CAP = 1 << 34     # census work M^2 2^n: the n = 24, M = 32 shape
_BLOCK_BYTES = 1 << 20  # byte budget of one block of outputs or pair rows
_CLASS_COST = 1 << 17   # fixed cost of enumerating one group by its column
                        # classes, in census keys and bins
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


def repetition_code(n: int) -> BinaryCode:
    """The two-word code {00...0, 11...1}."""
    if n < 1:
        raise CodeFormatError("repetition code needs n >= 1")
    return BinaryCode(n, (0, (1 << n) - 1))


def parity_code(n: int) -> BinaryCode:
    """All even-weight words of length n (a single parity check)."""
    if n < 2:
        raise CodeFormatError("parity code needs n >= 2")
    if n > _ENUM_CAP:
        raise SizeBudgetError(f"parity code of length {n} exceeds the n <= {_ENUM_CAP} budget")
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
    if n > _ENUM_CAP:
        raise SizeBudgetError(f"random code of length {n} exceeds the n <= {_ENUM_CAP} budget")
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


def _pair_distance_rows(words: np.ndarray) -> Iterator[np.ndarray]:
    """Pair distances popcount(x_i ^ x_j) in row blocks under the byte budget."""
    rows = max(1, _BLOCK_BYTES // (8 * words.size))
    for start in range(0, words.size, rows):
        yield np.bitwise_count(words[start:start + rows, None] ^ words[None, :])


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
    x_max: np.ndarray       # [d, t]: max over (reference word, y) of the codewords
                            # at distance d from the reference and t from y


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


def _class_x_max(code: BinaryCode, x_max: np.ndarray) -> np.ndarray:
    """Fill x_max from every group that its column classes enumerate more
    cheaply than the census would; return the [reference, d] mask of those
    groups, which the census skips.

    A group S is the set of words at distance d from one reference word.
    Bit j of a column's key is the column's bit in word j of S relative to
    its word 0, so equal keys make a class.  The classes cost rows (k + n + 1)
    + _CLASS_COST, rows the number of representative outputs, against the
    2^(n-1) (k + n + 1) keys and bins S takes in the census; each group is
    priced on its own.  Reference words go in the pair-row blocks of the
    census, and only groups that could pay even with a single class are
    analysed.  Groups of more than 64 words stay in the census: their keys
    would not fit 64 bits.
    """
    n, m = code.n, code.M
    width, half = n + 1, 1 << (n - 1)
    words = _word_array(code)
    bits = (words[:, None] >> np.arange(n, dtype=np.uint32) & 1).astype(np.uint64)
    classed = np.zeros((m, width), dtype=bool)
    first = 0
    for pair in _pair_distance_rows(words):
        k = np.bincount((np.arange(pair.shape[0])[:, None] * width + pair).ravel(),
                        minlength=pair.shape[0] * width).reshape(-1, width)
        could = (k > 0) & (k <= 64) & ((half - n // 2 - 1) * (k + width) > _CLASS_COST)
        for i, d in zip(*np.nonzero(could)):
            group = np.flatnonzero(pair[i] == d)
            shifts = np.arange(group.size, dtype=np.uint64)[:, None]
            keys = np.bitwise_or.reduce((bits[group] ^ bits[group[0]]) << shifts, axis=0)
            keys, sizes = np.unique(keys, return_counts=True)
            big = sizes.max()
            rows = np.prod(sizes + 1) // (big + 1) * (big // 2 + 1)
            cost = group.size + width
            if rows * cost + _CLASS_COST < half * cost:
                classed[first + i, d] = True
                x_max[d] = np.maximum(x_max[d], _group_x_max(n, keys, sizes, group.size))
        first += pair.shape[0]
    return classed


def _census_batches(words: np.ndarray, classed: np.ndarray,
                    n: int) -> Iterator[list]:
    """Per block of reference words, the groups the census enumerates,
    packed into batches of (columns, bin offsets, distances) whose keys and
    bins per output stay within the M + (n+1)^2 of ``_chunk_len``.

    A reference word that keeps most of its columns reads them all, as a
    slice when it has a batch of its own: its classed columns are binned as
    one spare group at distance n + 1, cheaper than gathering the rest.
    """
    m, width = words.size, n + 1
    limit = m + width * width
    first = 0
    for pair in _pair_distance_rows(words):
        batches, parts, cost = [], [], 0
        for row, skip in zip(pair, classed[first:first + pair.shape[0]]):
            drop = skip[row]
            if drop.all():
                continue
            if 2 * drop.sum() < m:
                keep, row = np.arange(m), np.where(drop, width, row)
            else:
                keep = np.flatnonzero(~drop)
                row = row[keep]
            dist, group = np.unique(row, return_inverse=True)
            if parts and cost + keep.size + dist.size * width > limit:
                batches.append(_batch(parts, m, width))
                parts, cost = [], 0
            parts.append((keep, group, dist))
            cost += keep.size + dist.size * width
        if parts:
            batches.append(_batch(parts, m, width))
        first += pair.shape[0]
        yield batches


def _batch(parts: list, m: int, width: int) -> tuple:
    """(columns, bin offsets, distances) of census groups of some reference
    words, given as (columns, group of each column, group distances), for
    one bincount; int32 halves what a block of batches holds."""
    base = np.cumsum([0] + [dist.size for _, _, dist in parts])
    whole = len(parts) == 1 and parts[0][0].size == m
    cols = np.concatenate([keep for keep, _, _ in parts], dtype=np.int32)
    offs = np.concatenate([(b + group) * width for b, (_, group, _) in zip(base, parts)],
                          dtype=np.int32)
    return (slice(None) if whole else cols, offs,
            np.concatenate([dist for _, _, dist in parts]))


def _check_census_work(n: int, m: int) -> None:
    """Refuse a census of m words of length n whose work M^2 2^n exceeds
    _WORK_CAP; other lengths are left to the census and code generators."""
    if 1 <= n <= _ENUM_CAP and m * m << n > _WORK_CAP:
        raise SizeBudgetError(
            f"output census work M^2 2^n = {m}^2 2^{n} exceeds the "
            f"2^{_WORK_CAP.bit_length() - 1} budget")


@functools.lru_cache(maxsize=8)
def _census(code: BinaryCode) -> _Census:
    """One pass over half the outputs; every enumerated report reads the result.

    Only the 2^(n-1) outputs y with the top bit clear are enumerated; each
    complement y ^ 1^n lies at distance n - d(y, x) from every codeword x, so
    its summaries are those of y mirrored: t -> n - t, d_min -> n - d_max.
    Per chunk the output-codeword distances D are formed once.  One bincount
    on y (n+1) + D gives cnt[y, t], the number of codewords at distance t
    from y, which feeds the d_min and cover histograms of y and, reversed in
    t, of its complement.  x_max[d, t] is a max over groups, the words at
    distance d from one reference word.  Groups whose column classes pay
    are enumerated by class first (``_class_x_max``); the rest go in batches
    (``_census_batches``), one bincount on (y, group, D) per batch and chunk
    followed by a max over y.  The complements' maxima are x_max[d, n - t],
    taken once after the loop.  With more than one block of reference words,
    each block repeats the chunk loop for its batches.
    """
    n, m = code.n, code.M
    if n > _ENUM_CAP:
        raise SizeBudgetError(
            f"2^{n} output enumeration exceeds the n <= {_ENUM_CAP} budget")
    _check_census_work(n, m)
    words = _word_array(code)
    width = n + 1
    dmin_hist = np.zeros(width, dtype=np.int64)
    cover = np.zeros(width * (m + 1), dtype=np.int64)
    x_max = np.zeros((width + 1, width), dtype=np.int64)   # row n + 1: spare groups
    classed = _class_x_max(code, x_max)
    t_off = np.arange(width) * (m + 1)
    step = _chunk_len(n, m)
    half = 1 << (n - 1)
    for block, batches in enumerate(_census_batches(words, classed, n)):
        if block and not batches:
            continue
        for start in range(0, half, step):
            ys = np.arange(start, min(start + step, half), dtype=np.uint32)
            dist = np.bitwise_count(ys[:, None] ^ words[None, :])
            y_off = np.arange(ys.size)[:, None]
            if not block:
                cnt = np.bincount((y_off * width + dist).ravel(),
                                  minlength=ys.size * width).reshape(-1, width)
                dmin_hist += np.bincount(dist.min(axis=1), minlength=width)
                dmin_hist += np.bincount(n - dist.max(axis=1), minlength=width)
                for mirrored in (cnt, cnt[:, ::-1]):
                    cover += np.bincount((mirrored + t_off).ravel(), minlength=cover.size)
            for cols, offs, ds in batches:
                g = ds.size * width
                best = np.bincount((y_off * g + offs + dist[:, cols]).ravel(),
                                   minlength=ys.size * g).reshape(ys.size, g).max(axis=0)
                np.maximum.at(x_max, ds, best.reshape(-1, width))
    x_max = np.maximum(x_max, x_max[:, ::-1])[:width]
    return _Census(dmin_hist, cover.reshape(width, m + 1), x_max)


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
    return int(_census(code).x_max[omega_dist, t])


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
    xmax = restricted_cover_max(code, t, omega_dist)
    if xmax == 0:
        return 0.0
    return ch.q ** code.n / 2.0 * (ch.p / ch.q) ** t * b * z / xmax


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


def exhaustive_max_constant_weight(n: int, d: int, w: int) -> int:
    """True maximum size of a weight-w code with pairwise distance >= d.

    Two equal-weight words are always an even distance apart, so they are
    too close exactly when they share at least s = w - (d-1)//2 positions,
    and a valid code picks at most one word containing any given s-subset.
    Those clique constraints describe the feasible sets completely, and the
    resulting 0/1 packing program is dispatched to an exact MILP solve.
    (A branch-and-bound clique search over the weight-w layer is correct
    too, but needs minutes on the dense w = 3 layer at n = 10; the packing
    formulation closes the same instance in milliseconds.)
    """
    if n > _CLIQUE_CAP:
        raise SizeBudgetError(
            f"exhaustive weight-layer search exceeds the n <= {_CLIQUE_CAP} budget")
    if not (0 <= w <= n):
        raise DomainError(f"need 0 <= w <= n, got w={w!r}")
    if w in (0, n):
        return 1
    if d <= 2:
        return math.comb(n, w)  # distinct equal-weight words differ in >= 2 places
    s = w - (d - 1) // 2
    if s <= 0:
        return 1  # d exceeds the layer diameter 2w: no two words fit
    layer = [x for x in range(1 << n) if x.bit_count() == w]
    rows = []
    for combo in itertools.combinations(range(n), s):
        t_mask = 0
        for c in combo:
            t_mask |= 1 << c
        row = np.fromiter(((x & t_mask) == t_mask for x in layer),
                          dtype=float, count=len(layer))
        if row.sum() > 1.0:
            rows.append(row)
    if not rows:
        return len(layer)
    res = milp(c=-np.ones(len(layer)),
               constraints=LinearConstraint(np.array(rows), -np.inf, 1.0),
               integrality=np.ones(len(layer)),
               bounds=Bounds(0.0, 1.0))
    if not res.success:
        raise RuntimeError(f"packing solve failed for {(n, d, w)!r}: {res.message}")
    return round(-res.fun)


def proposition4_check(n: int, omega: float, ch: ChannelParam) -> bool:
    """Johnson bound stays below n^2 at distance omega*n, weight t(omega)*n.

    Rounds both products half-up to integers and re-derives the Johnson
    arithmetic from the integers; for n <= 10 the exhaustive layer search
    additionally confirms the true maximum is below n^2.
    """
    if not 0.0 < omega <= 0.5:
        raise DomainError(f"normalised distance must lie in (0, 1/2], got {omega!r}")
    d = math.floor(omega * n + 0.5)
    w = math.floor(equidistant_radius(omega, ch) * n + 0.5)
    if d == 0 or w == 0:
        return True  # degenerate rounding: at most one word in the layer
    ok = johnson_upper(n, d, w) < n * n
    if n <= _CLIQUE_CAP:
        ok = ok and exhaustive_max_constant_weight(n, d, w) < n * n
    return ok
