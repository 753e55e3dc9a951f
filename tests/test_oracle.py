"""Exact small-code ground truth: enumerated error probabilities, covering
counts, and the constant-weight size bounds.

Dominance is the load-bearing property: every analytic lower bound must sit
at or below the enumerated ML error probability on every code, with slack
only for float roundoff.
"""

import functools
import hashlib
import math
import os
import pathlib
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bscbounds import oracle, verify
from bscbounds.cli import main
from bscbounds.core import ChannelParam, DomainError
from bscbounds.oracle import (
    DOMINANCE_SLACK,
    BinaryCode,
    CodeFormatError,
    SizeBudgetError,
    cover_report,
    distance_distribution,
    dominates,
    exact_pe_ml,
    hamming74,
    johnson_upper,
    load_code,
    lower_bound_21,
    parity_code,
    parse_code,
    proposition3_best,
    proposition3_rhs,
    proposition3_terms,
    proposition4_check,
    random_code,
    repetition_code,
    restricted_cover_max,
    sphere_packing_rhs_23,
    z_pair_count,
)
from bscbounds.verify import builtin_roster
from constant_weight import exhaustive_max_constant_weight

CH = ChannelParam(0.1)


# --- constructions and parsing ------------------------------------------


def test_code_validation():
    with pytest.raises(CodeFormatError):
        BinaryCode(3, (1, 1))            # duplicate
    with pytest.raises(CodeFormatError):
        BinaryCode(3, (8,))              # out of range
    with pytest.raises(CodeFormatError):
        BinaryCode(3, ())                # empty
    with pytest.raises(CodeFormatError):
        BinaryCode(0, (0,))


def test_parity_code_words():
    c = parity_code(4)
    assert c.M == 8
    assert all(bin(x).count("1") % 2 == 0 for x in c.words)
    with pytest.raises(SizeBudgetError):
        parity_code(25)


def _refusal(call, *args):
    """The SizeBudgetError message of call(*args), and the peak bytes it
    allocated before refusing."""
    tracemalloc.start()
    try:
        with pytest.raises(SizeBudgetError) as exc:
            call(*args)
        return str(exc.value), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _cli_refusal(argv, capsys):
    """The stderr of a refused ``oracle`` call, and its peak bytes."""
    capsys.readouterr()
    tracemalloc.start()
    try:
        assert main(["oracle", *argv, "--p", "0.1"]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return capsys.readouterr().err, peak


_PAST_N = "code length {} exceeds the n <= 24 budget"
_PAST_WORK = "output census work M^2 2^n = {}^2 2^{} exceeds the 2^34 budget"


# (constructor or generator, args) routes to one code shape, each of which
# must build it (refusal None) or refuse it with one message; the word
# tuples are formed here, outside the traced calls
@pytest.mark.parametrize("routes, argvs, refusal", [
    ([(BinaryCode, (24, (0, 1))), (repetition_code, (24,)), (random_code, (24, 2, 0))],
     [], None),
    ([(BinaryCode, (25, (0, 1))), (repetition_code, (25,)), (random_code, (25, 2, 0))],
     [["--generator", "repetition", "--n", "25"],
      ["--generator", "random", "--n", "25", "--m", "2"]], _PAST_N.format(25)),
    ([(BinaryCode, (24, tuple(range(32)))), (random_code, (24, 32, 0))], [], None),
    ([(BinaryCode, (24, tuple(range(33)))), (random_code, (24, 33, 0))],
     [["--generator", "random", "--n", "24", "--m", "33"]], _PAST_WORK.format(33, 24)),
    ([(BinaryCode, (12, tuple(range(2048)))), (parity_code, (12,))], [], None),
    ([(BinaryCode, (13, tuple(range(4096)))), (parity_code, (13,))],
     [["--generator", "parity", "--n", "13"]], _PAST_WORK.format(4096, 13)),
    ([(random_code, (24, 4_000_000, 0))],
     [["--generator", "random", "--n", "24", "--m", "4000000"]],
     _PAST_WORK.format(4_000_000, 24)),
    ([(BinaryCode, (10**8, (0, 1))), (repetition_code, (10**8,))],
     [["--generator", "repetition", "--n", str(10**8)]], _PAST_N.format(10**8)),
], ids=["n24", "n25", "work2^34", "work_past", "parity12", "parity13",
        "random24_4e6", "repetition1e8"])
def test_size_rule_at_and_past_each_limit(routes, argvs, refusal, capsys):
    # one rule, enforced when a code is built: n <= 24 and M^2 2^n <= 2^34
    for call, args in routes:
        if refusal is None:
            assert call(*args).n == args[0]
        else:
            message, peak = _refusal(call, *args)
            assert (message, peak < 1 << 20) == (refusal, True), call.__name__
    for argv in argvs:
        err, peak = _cli_refusal(argv, capsys)
        assert (err, peak < 1 << 20) == (f"bscbounds: {refusal}\n", True), argv


def test_hamming74_weight_enumerator():
    # linear code: the distance distribution equals the weight distribution
    assert distance_distribution(hamming74()) == pytest.approx(
        [1, 0, 0, 7, 7, 0, 0, 1], abs=1e-12)


def test_parse_roundtrip_and_errors():
    c = parse_code("0011\n1100\n\n0101\n")
    assert c.n == 4 and c.M == 3
    assert c.word_strings() == ["0011", "1100", "0101"]
    with pytest.raises(CodeFormatError):
        parse_code("0011\n110")           # ragged lengths
    with pytest.raises(CodeFormatError):
        parse_code("0021")                # bad character
    with pytest.raises(CodeFormatError):
        parse_code("0011\n0011")          # duplicate
    with pytest.raises(CodeFormatError):
        parse_code("\n\n")                # nothing there


def test_load_code(tmp_path):
    path = tmp_path / "code.txt"
    path.write_text("101\n010\n", encoding="ascii")
    assert load_code(str(path)).words == (0b101, 0b010)


def test_random_code_reproducible():
    a = random_code(12, 20, seed=7)
    b = random_code(12, 20, seed=7)
    assert a.words == b.words
    assert a.M == 20 and len(set(a.words)) == 20
    assert random_code(12, 20, seed=8).words != a.words
    with pytest.raises(CodeFormatError):
        random_code(3, 9, seed=0)         # more words than the space holds


# --- distance distribution ----------------------------------------------


def test_distance_distribution_properties():
    for code in (repetition_code(5), parity_code(5), random_code(10, 30, seed=3)):
        b = distance_distribution(code)
        assert b[0] == 1.0
        assert sum(b) == pytest.approx(code.M, abs=1e-9)
        # off-diagonal entries come from unordered pairs counted twice
        for entry in b[1:]:
            assert (entry * code.M) % 2 == pytest.approx(0.0, abs=1e-9)


# --- exact ML error probability -----------------------------------------


def test_pe_repetition_hand_values():
    # rep-3: 3 p^2 q + p^3; rep-5: 10 p^3 q^2 + 5 p^4 q + p^5
    assert exact_pe_ml(repetition_code(3), CH) == pytest.approx(0.028, abs=1e-15)
    assert exact_pe_ml(repetition_code(5), CH) == pytest.approx(0.00856, abs=1e-15)


def test_pe_two_word_code_is_p():
    # {00, 11}: ties go to the first word, and the error probability
    # collapses to exactly p
    assert exact_pe_ml(repetition_code(2), CH) == pytest.approx(0.1, abs=1e-15)


def test_pe_hamming_literals():
    assert exact_pe_ml(hamming74(), ChannelParam(0.05)) == pytest.approx(
        0.04438054218750054, abs=1e-12)
    assert exact_pe_ml(hamming74(), CH) == pytest.approx(0.1496944, abs=1e-12)


def test_pe_trivial_and_budget():
    assert exact_pe_ml(BinaryCode(3, (5,)), CH) == 0.0
    with pytest.raises(SizeBudgetError):      # no code the census refuses is built
        BinaryCode(30, (0, 1))


# --- pair counting ------------------------------------------------------


def test_z_pair_count_against_enumeration():
    n = 8
    for d in range(n + 1):
        x, xp = 0, (1 << d) - 1
        for t in range(n + 1):
            brute = sum(1 for y in range(1 << n)
                        if bin(y ^ x).count("1") == t
                        and bin(y ^ xp).count("1") == t)
            assert z_pair_count(n, d, t) == brute, (d, t)


def test_z_pair_count_odd_distance_is_zero():
    assert z_pair_count(9, 3, 4) == 0
    assert z_pair_count(9, 3, 1) == 0


# --- covering reports ---------------------------------------------------


def test_cover_report_perfect_code():
    # radius-1 spheres around the Hamming words tile the space
    cr = cover_report(hamming74(), 1)
    assert cr.histogram == {1: 112}
    assert cr.x_max == 1
    assert cr.y_t_size == 112
    assert cr.double_count() == 16 * 7


def test_cover_report_two_words():
    cr = cover_report(repetition_code(2), 1)
    assert cr.histogram == {2: 2}
    assert cr.y_t_size == 0
    with pytest.raises(DomainError):
        cover_report(repetition_code(2), 5)


def test_restricted_cover_two_word_code():
    # outputs equidistant from both words see one codeword at distance 1
    # from each reference word, not two
    assert restricted_cover_max(repetition_code(2), 1, 2) == 1


def test_restricted_cover_out_of_range_skips_census():
    # out-of-range (t, omega) is 0 without taking the census
    code = random_code(12, 40, seed=5)
    oracle._census.cache_clear()
    oracle._x_max.cache_clear()
    for t, d in ((13, 2), (1, 13), (-1, 2), (1, -1)):
        assert restricted_cover_max(code, t, d) == 0
    assert oracle._census.cache_info().misses == 0
    assert oracle._x_max.cache_info().misses == 0


def test_proposition3_terms_match_double_loop():
    # exactly the pairs of a double loop over omega, then t, in its order
    for name, code in builtin_roster():
        spectrum = distance_distribution(code)
        pairs = [(t, d) for d in range(1, code.n + 1) if spectrum[d] != 0.0
                 for t in range(code.n + 1) if z_pair_count(code.n, d, t)]
        for p in (0.01, 0.1, 0.4):
            ch = ChannelParam(p)
            terms = list(proposition3_terms(code, ch))
            assert [(t, d) for t, d, _ in terms] == pairs, name
            for t, d, value in terms:
                assert value == proposition3_rhs(code, ch, t, d), (name, t, d)


def test_union_cover_check_reads_the_census(monkeypatch):
    # an undercounting X_max must show up as union-cover violations
    code = parity_code(4)
    assert verify._union_cover_violations(code) == 0
    true_max = verify.restricted_cover_max
    monkeypatch.setattr(verify, "restricted_cover_max",
                        lambda c, t, d: max(true_max(c, t, d) - 1, 1))
    assert verify._union_cover_violations(code) > 0


def test_union_cover_check_fails_a_zero_x_max(monkeypatch):
    # every occurring distance has a nonempty group, so a covered (t, omega)
    # has X_max >= 1; a census that reads 0 there undercounts, and the
    # check must count it, not skip the pair
    true_max, code = verify.restricted_cover_max, parity_code(4)
    monkeypatch.setattr(verify, "restricted_cover_max",
                        lambda c, t, d: 0 if (c, t, d) == (code, 1, 2) else true_max(c, t, d))
    check, = (c for c in verify.suite_oracle()["checks"]
              if c["name"] == "union_cover_inequality")
    assert not check["passed"] and check["violations"] > 0


def test_proposition3_term_two_word_code():
    # the (t=1, omega=n) term equals pq exactly, matching the
    # multiply-covered-output bound on the same code
    val = proposition3_rhs(repetition_code(2), CH, 1, 2)
    assert val == pytest.approx(0.09, abs=1e-15)
    assert val == pytest.approx(lower_bound_21(repetition_code(2), CH), abs=1e-15)


# --- the output census against the per-function enumerations ----------
#
# Slow reference routes: each report enumerates all 2^n outputs on its own,
# as the package did before the census.


def _output_distances(code):
    words = np.asarray(code.words, dtype=np.uint32)
    outputs = np.arange(1 << code.n, dtype=np.uint32)
    return np.bitwise_count(outputs[:, None] ^ words[None, :])


def _reference_pe(code, ch):
    pow_table = np.array([ch.p ** d * ch.q ** (code.n - d)
                          for d in range(code.n + 1)])
    dmin = _output_distances(code).min(axis=1)
    return 1.0 - float(pow_table[dmin].sum()) / code.M


def _reference_lower_bound_21(code, ch):
    dist = _output_distances(code)
    shared = [0] * (code.n + 1)
    for t in range(code.n + 1):
        cnt = (dist == t).sum(axis=1)
        shared[t] = int(cnt[cnt >= 2].sum())
    ratio = ch.p / ch.q
    total = sum(ratio ** t * shared[t] for t in range(code.n + 1) if shared[t])
    return ch.q ** code.n / (2.0 * code.M) * total


def _reference_cover_histogram(code, t):
    cnt = (_output_distances(code) == t).sum(axis=1)
    vals, reps = np.unique(cnt[cnt > 0], return_counts=True)
    return dict(zip(vals.tolist(), reps.tolist()))


def _reference_x_max(code, rows=None, refs=None):
    """X[d, t] by direct enumeration: each group, the words at distance d
    from one reference word (every word, or the indices refs), counted at
    every distance t from all 2^n outputs.  Only the rows d in rows
    (default: all) are counted; the others hold zeros."""
    width, dist = code.n + 1, _output_distances(code)
    words = np.asarray(code.words, dtype=np.uint32)
    y_off = np.arange(1 << code.n)[:, None] * width
    x = np.zeros((width, width), dtype=np.int64)
    for i in range(code.M) if refs is None else refs:
        pair = np.bitwise_count(words[i] ^ words)
        for d in set(pair.tolist()) & set(range(width) if rows is None else rows):
            cnt = np.bincount((y_off + dist[:, pair == d]).ravel(), minlength=width << code.n)
            x[d] = np.maximum(x[d], cnt.reshape(-1, width).max(axis=0))
    return x


_CENSUS_CODES = builtin_roster() + [("random_n10_m40_s3", random_code(10, 40, 3)),
                                    ("parity6", parity_code(6))]


def _parity_rows(code, parity):
    return range(parity, code.n + 1, 2)


def _every_radius(code):
    return range(code.n + 1)


def _halves(code):
    """The even and odd distance halves of X_max at every radius, each
    enumerated afresh, as restricted_cover_max asks for them."""
    return tuple(oracle._x_max.__wrapped__(code, _parity_rows(code, parity), None,
                                           _every_radius(code))
                 for parity in (0, 1))


def _assert_same(got, want):
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def _assert_halves(halves, want):
    # merged, the halves are want, dtype included; each holds zeros in the
    # rows of the other parity
    even, odd = halves
    assert even.dtype == odd.dtype == want.dtype
    _assert_same(np.maximum(even, odd), want)
    assert not even[1::2].any() and not odd[::2].any()


@pytest.mark.parametrize("code", [c for _, c in _CENSUS_CODES],
                         ids=[name for name, _ in _CENSUS_CODES])
def test_census_matches_reference_routes(code):
    n = code.n
    x_ref = _reference_x_max(code)
    for d in range(n + 1):
        for t in range(n + 1):
            assert restricted_cover_max(code, t, d) == x_ref[d, t], (d, t)
    for t in range(n + 1):
        assert cover_report(code, t).histogram == _reference_cover_histogram(code, t)
    for p in (0.01, 0.05, 0.1, 0.25, 0.4):
        ch = ChannelParam(p)
        want = _reference_lower_bound_21(code, ch)
        assert abs(lower_bound_21(code, ch) - want) <= 1e-15 * abs(want), p
        assert abs(exact_pe_ml(code, ch) - _reference_pe(code, ch)) <= 1e-15, p


@pytest.mark.parametrize("code", [parity_code(6), random_code(8, 12, seed=7)],
                         ids=["parity6", "rand8"])
def test_census_chunk_boundaries(code, monkeypatch):
    whole = oracle._census.__wrapped__(code)
    x_max = np.maximum(*_halves(code))
    spectrum = distance_distribution(code)
    assert oracle._chunk_len(code.n, code.M) >= 1 << code.n
    per_output = 8 * (code.M + (code.n + 1) ** 2)
    for outputs in (1, 3, 7):
        monkeypatch.setattr(oracle, "_BLOCK_BYTES", outputs * per_output)
        assert oracle._chunk_len(code.n, code.M) == outputs
        part = oracle._census.__wrapped__(code)
        assert np.array_equal(part.dmin_hist, whole.dmin_hist), outputs
        assert np.array_equal(part.cover, whole.cover), outputs
        _assert_halves(_halves(code), x_max)
    # pair distances in blocks of 3 rows as well
    monkeypatch.setattr(oracle, "_BLOCK_BYTES", 3 * 8 * code.M)
    _assert_halves(_halves(code), x_max)
    oracle._pair_counts.cache_clear()       # recount under the 3-row blocks
    assert distance_distribution(code) == spectrum


@st.composite
def _small_codes(draw):
    n = draw(st.integers(min_value=1, max_value=9))
    m = draw(st.integers(min_value=1, max_value=min(1 << n, 24)))
    words = draw(st.sets(st.integers(min_value=0, max_value=(1 << n) - 1),
                         min_size=m, max_size=m))
    return BinaryCode(n, tuple(sorted(words)))


@settings(max_examples=100, deadline=None)
@given(_small_codes())
def test_mirrored_census_matches_full_enumeration(code):
    # the census enumerates the outputs with the top bit clear and mirrors
    # their complements; the references enumerate all 2^n outputs
    n = code.n
    census = oracle._census.__wrapped__(code)
    halves = _halves(code)
    _assert_halves(halves, _reference_x_max(code))
    for half in halves:
        assert np.array_equal(half, half[:, ::-1])
    for t in range(n + 1):
        row = census.cover[t]
        assert {k: int(c) for k, c in enumerate(row) if k and c} == \
            _reference_cover_histogram(code, t), t
        assert np.array_equal(row, census.cover[n - t]), t
    assert int(census.dmin_hist.sum()) == 1 << n
    for p in (0.05, 0.3):
        ch = ChannelParam(p)
        assert abs(exact_pe_ml(code, ch) - _reference_pe(code, ch)) <= 1e-15, p


def test_census_refuses_work_over_budget():
    # M^2 2^n = 2^46 and 33^2 2^24: no such code is built, so no census
    # is ever asked for one
    with pytest.raises(SizeBudgetError, match="budget"):
        parity_code(16)
    with pytest.raises(SizeBudgetError, match="budget"):
        random_code(24, 33, seed=1)


# --- X_max from the column classes of each group -------------------------
#
# A group is the set of words at one distance d from one reference word.
# _CLASS_COST = -inf sends every group to its column classes, +inf none.


def _reference_dmin_hist(code):
    return np.bincount(_output_distances(code).min(axis=1), minlength=code.n + 1)


def _reference_cover(code):
    dist = _output_distances(code)
    return np.stack([np.bincount((dist == t).sum(axis=1), minlength=code.M + 1)
                     for t in range(code.n + 1)])


def _group_count(code, least=1):
    """The groups of code with at least `least` words."""
    words = np.asarray(code.words, dtype=np.uint32)
    pair = np.bitwise_count(words[:, None] ^ words[None, :])
    return sum(int((np.bincount(row) >= least).sum()) for row in pair)


def _census_at_cost(code, cost=oracle._CLASS_COST):
    """The census of code and its even and odd X_max halves at a class cost,
    and the (keys, sizes, k) of each group those halves enumerate by column
    classes, in call order (the even half first)."""
    calls, by_classes = [], oracle._group_x_max

    def counted(n, keys, sizes, k):
        calls.append((keys, sizes, k))
        return by_classes(n, keys, sizes, k)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_CLASS_COST", cost)
        mp.setattr(oracle, "_group_x_max", counted)
        return calls, oracle._census.__wrapped__(code), _halves(code)


@settings(max_examples=60, deadline=None)
@given(_small_codes())
def test_class_path_matches_reference_routes(code):
    x_ref = _reference_x_max(code)
    cover, dmin_hist = _reference_cover(code), _reference_dmin_hist(code)
    # a group of one or two words is not enumerated: it takes its closed form
    for cost, groups in ((-math.inf, _group_count(code, least=3)), (math.inf, 0)):
        calls, census, halves = _census_at_cost(code, cost)
        assert len(calls) == groups
        _assert_halves(halves, x_ref)
        _assert_same(census.cover, cover)
        _assert_same(census.dmin_hist, dmin_hist)


def test_class_path_live_on_a_long_code():
    # the default cost enumerates 128 of this code's 299 groups by their
    # classes, all of them groups of three words or more
    code = random_code(16, 32, seed=7)
    calls, live, live_halves = _census_at_cost(code)
    assert (len(calls), _group_count(code)) == (128, 299)
    _, whole, whole_halves = _census_at_cost(code, math.inf)
    for field in ("cover", "dmin_hist"):
        _assert_same(getattr(live, field), getattr(whole, field))
    for live_half, whole_half in zip(live_halves, whole_halves):
        _assert_same(live_half, whole_half)


@pytest.mark.parametrize("code, ones", [
    (random_code(13, 40, 2), ()), (random_code(13, 40, 5), ()),
    (random_code(16, 32, 7), ()), (repetition_code(15), (0, 15)),
    (random_code(16, 1, 3), (0,)),
], ids=["13x40s2", "13x40s5", "16x32s7", "repetition15", "16x1s3"])
def test_census_over_many_chunks_matches_full_enumeration(code, ones):
    # seeded codes longer than the hypothesis strategy's, whose outputs take
    # many chunks, against all 2^n outputs; the rows `ones` hold one-word
    # groups alone, which read 1 at every t without being enumerated
    assert oracle._chunk_len(code.n, code.M) < 1 << (code.n - 1)
    calls, census, halves = _census_at_cost(code)
    for got, want in ((census.dmin_hist, _reference_dmin_hist(code)),
                      (census.cover, _reference_cover(code))):
        assert want.dtype == np.int64
        _assert_same(got, want)
    want = _reference_x_max(code)
    assert want.dtype == np.int64
    _assert_halves(halves, want)
    if ones:
        assert not calls
        assert (want[list(ones)] == 1).all()


def _calls_digest(calls, ordered=True):
    """SHA-256 of a sequence of (keys, sizes, k) class calls, in call order
    or, unordered, with the calls' encodings sorted."""
    parts = [np.array([keys.size, k], dtype="<i8").tobytes()
             + keys.astype("<u8").tobytes() + sizes.astype("<i8").tobytes()
             for keys, sizes, k in calls]
    h = hashlib.sha256()
    for part in parts if ordered else sorted(parts):
        h.update(part)
    return h.hexdigest()


@pytest.mark.parametrize("shape, classed_groups, groups, digest, unordered", [
    ((16, 32, 7), 128, 299,
     "43ee30e26890fe167ec304c061031d546a10050a3d804a2ad5ebeb4b96a8e1ff",
     "847b42f0e36ad23a6b5318310532bfc68ac1cb3ad412d3638e2d0717e02bcb1c"),
    ((14, 48, 1), 110, 462,
     "ba14cb5cb5a1f285f637a144fea991c3d1b111a9f3e250e5472bf11804059b3b",
     "d7842dda85e54f97288a72bab895020ea31b6a4e05c290ef1b460b2c3efa3afe"),
    ((20, 32, 1), 147, 332,
     "a9bf2d4a0fae1f557fca807c3010e0137b96c0e3917e0d5d35c049cfd2476108",
     "4417de888cdec898971d8dc928470bde08bfec34e3ee725a8feff23eb174220c"),
], ids=["16x32s7", "14x48s1", "20x32s1"])
def test_class_pricing_pinned(shape, classed_groups, groups, digest, unordered):
    # which groups go by their classes, with what classes and in what order,
    # is pinned to the byte: a drift in the cost rule or the planner's walk
    # shows here even where every census integer still matches.  The
    # unordered digest pins the multiset of calls alone, which a walk over
    # both parities in one pass makes too, in another order
    code = random_code(*shape)
    calls, _, _ = _census_at_cost(code)
    assert (len(calls), _group_count(code)) == (classed_groups, groups)
    assert _calls_digest(calls) == digest
    assert _calls_digest(calls, ordered=False) == unordered


def _column_classes(n, group):
    """(keys, sizes) of the column classes of a group, column by column."""
    patterns = Counter(sum((((w ^ group[0]) >> c) & 1) << j for j, w in enumerate(group))
                       for c in range(n))
    keys = sorted(patterns)
    return np.array(keys, dtype=np.uint64), np.array([patterns[k] for k in keys])


@pytest.mark.parametrize("rows", [1, 3, 7])
def test_class_blocks_of_few_rows(rows, monkeypatch):
    # representative outputs in blocks of `rows`, against all 2^n outputs
    n, rng = 7, np.random.default_rng(rows)
    outputs = np.arange(1 << n, dtype=np.uint32)
    for k in (1, 2, 3, 5, 8):
        group = [int(w) for w in rng.choice(1 << n, size=k, replace=False)]
        keys, sizes = _column_classes(n, group)
        monkeypatch.setattr(oracle, "_BLOCK_BYTES", rows * 8 * (k + n + 1))
        half = oracle._group_x_max(n, keys, sizes, k)
        dist = np.bitwise_count(outputs[:, None] ^ np.array(group, dtype=np.uint32))
        want = np.stack([(dist == t).sum(axis=1) for t in range(n + 1)], axis=1)
        assert np.array_equal(np.maximum(half, half[::-1]), want.max(axis=0)), k
    # the whole census, every group by classes, analysed one reference at a time
    code = random_code(8, 12, seed=7)
    monkeypatch.setattr(oracle, "_BLOCK_BYTES", rows * 8 * (code.M + code.n + 1))
    _, _, halves = _census_at_cost(code, -math.inf)
    _assert_halves(halves, _reference_x_max(code))


def _spy_counters(mp, seen):
    """Call seen(route, args) before each call of a route's counter: the
    sphere offsets per radius, the product per membership slab and the
    bincount batches per block of reference words."""
    for name, route in (("_sphere_x_max", "sphere"), ("_product_pass", "product"),
                        ("_bincount_pass", "bincount")):
        def spy(*args, count=getattr(oracle, name), route=route):
            seen(route, args)
            return count(*args)
        mp.setattr(oracle, name, spy)


@pytest.mark.parametrize("code, plans, taken, never", [
    (random_code(12, 128, 7), [((2, 4, 6, 8), 4, (1, 2, 3, 4, 5, 7, 8, 9, 10, 11)),
                               ((2,), None, (1, 2, 10, 11))],
     [(0, "bincount"), (1, "sphere")], ()),
    (hamming74(), [((4,), None, (2, 3, 4, 5))], [(0, "product")], ()),
    (random_code(16, 32, 7), [((4, 6, 8), 3, (2, 3, 4, 5, 11, 12, 13, 14)),
                              ((4,), None, (2, 3, 13, 14)), ((6,), None, (3, 13))],
     [(0, "sphere"), (2, "sphere")], (10, 12, 14)),
], ids=["rand12x128", "hamming74", "rand16x32"])
def test_oracle_enumerates_no_odd_distance_group(code, plans, taken, never,
                                                 tmp_path, monkeypatch, capsys):
    # Proposition 3 reads X_max at even distances alone (Z = 0 at odd ones),
    # so the oracle command plans even rows only, and only the rows and
    # radii of the cells (d, t) that 1 <= X_max <= k_max leave open: first
    # over the reference words with the most words at an open row's
    # distance (every word of a linear code, which makes the pass exact),
    # then exactly where a term can still win or break dominance.  The
    # plans are (rows, number of reference words or None for all, radii),
    # read from a fresh cache of _x_max, and each (plan, route) pins, once,
    # a counter that ran: small radii go by sphere offsets
    assert any(distance_distribution(code)[1::2])
    path = tmp_path / "code.txt"
    path.write_text("".join(w + "\n" for w in code.word_strings()), encoding="ascii")
    planned, counted, enumerated, routes, x_max = [], [], [], [], oracle._x_max

    @functools.lru_cache(maxsize=16)
    def plan(code, rows, refs, radii):
        planned.append((rows, None if refs is None else len(refs), radii))
        counted.append(x_max.__wrapped__(code, rows, refs, radii))
        return counted[-1]

    def seen(route, args):
        routes.append((len(planned) - 1, route))
        if route == "product":
            enumerated.append(args[2])
        elif route == "bincount":
            enumerated.extend(ds for *_, ds in args[1])

    monkeypatch.setattr(oracle, "_x_max", plan)
    _spy_counters(monkeypatch, seen)
    assert main(["oracle", "--code-file", str(path), "--p", "0.1"]) == 0
    assert planned == plans
    assert list(dict.fromkeys(routes)) == taken
    assert all((ds % 2 == 0).all() for ds in enumerated)
    # no route, the offsets included, writes an odd row
    assert not any(x[1::2].any() for x in counted)
    assert not {d for rows, _, _ in planned for d in rows} & set(never)
    # an odd distance is still answered exactly, from a half of its own
    x_ref = _reference_x_max(code)
    for t in range(code.n + 1):
        assert restricted_cover_max(code, t, 3) == x_ref[3, t]
    assert planned[-1] == (_parity_rows(code, 1), None, _every_radius(code))
    capsys.readouterr()


def test_plans_depend_on_distances_only(monkeypatch):
    # the bound pass takes, for each open row d, the words with the most
    # words at distance d, ties kept by their whole distance profile, so
    # an isometry maps it onto itself: the benchmark's seeded images of
    # one code give one plan (rows, number of reference words, radii)
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).parents[1] / "perfbench"))
    import workloads

    calls, x_max = [], oracle._x_max

    def spy(code, rows, refs, radii):
        calls.append((rows, None if refs is None else len(refs), radii))
        return x_max(code, rows, refs, radii)

    monkeypatch.setattr(oracle, "_x_max", spy)
    for n, m in workloads.ORACLE_SHAPES:
        base = workloads.base_code(n, m)
        for p in (0.1, 0.45):
            plans = set()
            for seed in range(5):
                code = BinaryCode(n, tuple(workloads.isometric_image(base, n, seed)))
                ch = ChannelParam(p)
                calls.clear()
                proposition3_best(code, ch, exact_pe_ml(code, ch))
                plans.add(tuple(calls))
            assert len(plans) == 1, (n, m, p, plans)
            assert all(refs is None or refs < m for _, refs, _ in plans.pop())


# The counting kernels' events over every oracle golden, as recorded
# before the planner and the counting loop became one function: a change
# of route, block, slab, batch or chunk step shows here.
_PLANS_DIGEST = "e1dbd3ad2e7104de11f08176134d520e11d10ae42e3c42b1ecdf0fd2b359c7b7"


def test_plans_are_the_parent_plans(monkeypatch, capsys):
    # each column-class count with its class sizes, each sphere-offset count
    # as (t, words, groups) and each output pass by its chunk step, with
    # fresh caches per command, all in this process: on one usable CPU the
    # census does not split
    from test_cli import ORACLE_GOLDENS
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    events = []

    def spy(name, event):
        kernel = getattr(oracle, name)

        def call(*args):
            events.append(event(*args))
            return kernel(*args)
        monkeypatch.setattr(oracle, name, call)

    spy("_group_x_max", lambda n, keys, sizes, k: ("classes", k, tuple(sizes.tolist())))
    spy("_sphere_x_max", lambda n, t, members, group, g: ("sphere", t, members.size, int(g)))
    spy("_output_chunks", lambda code, step, *span: ("chunks", step))
    for argv in ORACLE_GOLDENS.values():
        oracle._x_max.cache_clear()
        oracle._census.cache_clear()
        assert main(["oracle"] + argv) == 0
    capsys.readouterr()
    assert hashlib.sha256(repr(events).encode()).hexdigest() == _PLANS_DIGEST


def _terms_loop(code, ch, pe):
    """The reference route: the first largest term and the dominance flag,
    term by term over proposition3_terms."""
    best, dominated = {"t": None, "omega_dist": None, "value": 0.0}, True
    for t, d, term in proposition3_terms(code, ch):
        dominated = dominated and dominates(pe, term)
        if term > best["value"]:
            best = {"t": t, "omega_dist": d, "value": term}
    return best, dominated


def _assert_best_is_terms_loop(code, p, pe_scale):
    # pe_scale < 1 leaves terms undominated, whose rows must be enumerated
    ch = ChannelParam(p)
    pe = exact_pe_ml(code, ch) * pe_scale
    got, want = proposition3_best(code, ch, pe), _terms_loop(code, ch, pe)
    assert got == want
    assert got[0]["value"].hex() == want[0]["value"].hex()


_P3_PS = (0.001, 0.01, 0.1, 0.3, 0.45)


@settings(max_examples=80, deadline=None)
@given(_small_codes(), st.sampled_from(_P3_PS), st.sampled_from((1.0, 1e-3)))
def test_proposition3_best_is_the_terms_loop_on_small_codes(code, p, pe_scale):
    _assert_best_is_terms_loop(code, p, pe_scale)


@pytest.mark.parametrize("pe_scale", [1.0, 1e-3])
@pytest.mark.parametrize("p", _P3_PS)
@pytest.mark.parametrize("code", [random_code(16, 32, 7), random_code(12, 128, 7),
                                  random_code(12, 512, 2), parity_code(8), hamming74()],
                         ids=["rand16x32", "rand12x128", "rand12x512", "parity8",
                              "hamming74"])
def test_proposition3_best_is_the_terms_loop(code, p, pe_scale):
    _assert_best_is_terms_loop(code, p, pe_scale)


@settings(max_examples=60, deadline=None)
@given(_small_codes(), st.data())
def test_x_max_over_reference_subsets(code, data):
    # fewer reference words give a lower X_max, all of them the full one;
    # a row where a reference word has a word reads at least 1 at every t
    rows = radii = tuple(range(code.n + 1))
    full = oracle._x_max.__wrapped__(code, rows, None, radii)
    _assert_same(full, np.maximum(*_halves(code)))
    _assert_same(oracle._x_max.__wrapped__(code, rows, tuple(range(code.M)), radii), full)
    refs = tuple(sorted(data.draw(st.sets(st.integers(0, code.M - 1), min_size=1))))
    part = oracle._x_max.__wrapped__(code, rows, refs, radii)
    assert (part <= full).all()
    words = np.asarray(code.words, dtype=np.uint32)
    seen = np.unique(np.bitwise_count(words[list(refs), None] ^ words[None, :]))
    assert (part[seen] >= 1).all()
    assert not np.delete(part, seen, axis=0).any()


def test_census_memory_follows_the_byte_budget(monkeypatch):
    # the planner's pair rows, each group's representative outputs and the
    # census all go in blocks under _BLOCK_BYTES; unblocked, one group's
    # outputs alone would take up to 2^13 (k + n + 1) 8 bytes
    code = random_code(14, 48, seed=1)
    assert _census_at_cost(code)[0]
    peaks = []
    for budget in (1 << 16, 1 << 18):
        monkeypatch.setattr(oracle, "_BLOCK_BYTES", budget)
        tracemalloc.start()
        try:
            oracle._census.__wrapped__(code)
            _halves(code)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert peaks[-1] <= 3 * budget, budget
    assert peaks[0] < peaks[1]


# --- X_max by each route: offsets, product, bincount, direct count -------
#
# The groups the column classes leave are counted by sphere offsets, one
# float32 product or bincount batches, whichever _x_max prices
# cheaper.  Offset prices of 0 send every group to the offsets, infinite
# ones none; then prices of 0 send every block to the product, an infinite
# multiply-add price to the bincount; _CLASS_COST = +inf leaves every group
# to the route.  Every route is checked at every radius, where the closed
# forms of one or two words take their groups first.

_ROUTES = {"sphere": (0.0, oracle._ONEHOT_COST, oracle._MAC_COST),
           "product": (math.inf, 0.0, 0.0),
           "bincount": (math.inf, 0.0, math.inf)}


def _x_max_by(code, route, rows, refs, radii):
    """X_max rows of code over refs, at radii, with every group counted by
    route ("classes": every group by its column classes; None: the default
    prices and classes), and the routes whose counters ran."""
    taken = set()
    with pytest.MonkeyPatch.context() as mp:
        if route == "classes":
            mp.setattr(oracle, "_CLASS_COST", -math.inf)
        elif route is not None:
            mp.setattr(oracle, "_CLASS_COST", math.inf)
            for name, price in zip(("_SPHERE_COST", "_ONEHOT_COST", "_MAC_COST"),
                                   _ROUTES[route]):
                mp.setattr(oracle, name, price)
            mp.setattr(oracle, "_SPHERE_PASS", 0)
        _spy_counters(mp, lambda tag, _: taken.add(tag))
        return oracle._x_max.__wrapped__(code, rows, refs, radii), taken


def _largest_group(code, rows, refs=None):
    """The most words at a distance in rows from one reference word."""
    words = np.asarray(code.words, dtype=np.uint32)
    ref = words if refs is None else words[list(refs)]
    pair = np.bitwise_count(ref[:, None] ^ words[None, :])
    return max([int((pair == d).sum(axis=1).max()) for d in rows], default=0)


def _assert_routes_agree(code, refs):
    every = tuple(range(code.n + 1))
    for parity in (0, 1):
        rows = _parity_rows(code, parity)
        want = _reference_x_max(code, rows, refs)
        for route in _ROUTES:
            got, taken = _x_max_by(code, route, rows, refs, every)
            _assert_same(got, want)
            # groups of one or two words take their closed forms
            counted = _largest_group(code, rows, refs) > 2
            assert taken == ({route} if counted else set())


@settings(max_examples=60, deadline=None)
@given(_small_codes(), st.data())
def test_routes_agree_on_small_codes(code, data):
    refs = data.draw(st.none() | st.sets(st.integers(0, code.M - 1), min_size=1)
                     .map(lambda s: tuple(sorted(s))))
    _assert_routes_agree(code, refs)


@settings(max_examples=60, deadline=None)
@given(_small_codes(), st.data())
def test_x_max_at_kept_radii(code, data):
    # radii closed under t -> n - t (the complements read radius n - t)
    # give the full X_max at every kept radius, dtype included, on each
    # route, the offsets among them
    n = code.n
    drawn = data.draw(st.sets(st.integers(0, n), min_size=1))
    radii = tuple(sorted(drawn | {n - t for t in drawn}))
    rows = data.draw(st.sampled_from([_parity_rows(code, 0), _parity_rows(code, 1),
                                      tuple(range(n + 1))]))
    refs = data.draw(st.none() | st.sets(st.integers(0, code.M - 1), min_size=1)
                     .map(lambda s: tuple(sorted(s))))
    full = _reference_x_max(code, rows, refs)
    counted = _largest_group(code, rows, refs) > 2
    for route in (*_ROUTES, "classes"):
        kept, taken = _x_max_by(code, route, rows, refs, radii)
        assert kept.dtype == full.dtype
        assert np.array_equal(kept[:, list(radii)], full[:, list(radii)])
        # groups of one or two words take their closed forms at any price
        assert taken == ({route} if counted and route != "classes" else set())


@pytest.mark.parametrize("n", range(1, 13))
def test_sphere_offsets_are_the_popcount_filter(n):
    # the weight-t masks, built one bit at a time, each once
    masks = np.arange(1 << n, dtype=np.uint32)
    for t in range(n + 1):
        _assert_same(np.sort(oracle._sphere(n, t)), masks[np.bitwise_count(masks) == t])


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 10), st.data())
def test_pair_rule_is_the_direct_count(n, data):
    # two words at distance w from a reference word and delta apart lie
    # together at distance t from some output exactly when Z(t, delta) > 0:
    # the pair takes that closed form on every route
    w = data.draw(st.integers(1, n - 1))
    ref = data.draw(st.integers(0, (1 << n) - 1))
    flips = [m for m in range(1 << n) if m.bit_count() == w]
    e1, e2 = data.draw(st.lists(st.sampled_from(flips), min_size=2, max_size=2,
                                unique=True))
    code = BinaryCode(n, (ref, ref ^ e1, ref ^ e2))
    want = _reference_x_max(code, (w,), (0,))
    delta = (e1 ^ e2).bit_count()
    assert want[w].tolist() == [1 + (z_pair_count(n, delta, t) > 0) for t in range(n + 1)]
    for route in (*_ROUTES, "classes", None):
        got, taken = _x_max_by(code, route, (w,), (0,), tuple(range(n + 1)))
        _assert_same(got, want)
        assert not taken


def test_sphere_buckets_follow_the_byte_budget(monkeypatch):
    # a group's keys |S| C(n, t) exceed the budget, so the outputs go in
    # buckets by their top bits: the maxima stay exact and the peak follows
    # the budget
    code = random_code(14, 48, seed=1)
    rows, radii = _parity_rows(code, 0), tuple(range(code.n + 1))
    want = _reference_x_max(code, rows)
    assert 32 * _largest_group(code, rows) * math.comb(code.n, code.n // 2) > 1 << 19
    peaks = []
    for budget in (1 << 17, 1 << 19):
        monkeypatch.setattr(oracle, "_BLOCK_BYTES", budget)
        for t in range(code.n // 2 + 1):
            oracle._sphere(code.n, t)           # the cached offsets, made once
        tracemalloc.start()
        try:
            got, taken = _x_max_by(code, "sphere", rows, None, radii)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert taken == {"sphere"}
        _assert_same(got, want)
        assert peaks[-1] <= 3 * budget, budget
    assert peaks[0] < peaks[1]


def test_sphere_route_on_the_union_cover_pass():
    # restricted_cover_max's pass over the odd rows, which only the
    # union-cover check reads, at every radius, with every group forced to
    # the offsets: they count every folded radius, t = 0 among them, where
    # Z(0, d) = 0 keeps every Proposition 3 pass away
    code = random_code(10, 256, 1)
    rows, counted, by_offsets = _parity_rows(code, 1), [], oracle._sphere_x_max

    def spy(n, t, members, group, g):
        counted.append(t)
        return by_offsets(n, t, members, group, g)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_sphere_x_max", spy)
        got, taken = _x_max_by(code, "sphere", rows, None, _every_radius(code))
    assert taken == {"sphere"}
    assert sorted(set(counted)) == list(range(code.n // 2 + 1))
    _assert_same(got, _reference_x_max(code, rows))


@pytest.mark.parametrize("shape, all_refs", [
    ((12, 128, 7), True), ((10, 256, 1), True), ((16, 32, 7), False),
    ((12, 512, 2), False),
], ids=["12x128s7", "10x256s1", "16x32s7", "12x512s2"])
def test_routes_agree_on_random_codes(shape, all_refs):
    # a seeded subset of 12 reference words, and all of them where the
    # direct count stays quick
    code = random_code(*shape)
    subset = np.random.default_rng(shape[2]).choice(code.M, 12, replace=False)
    for refs in (tuple(sorted(subset.tolist())),) + ((None,) if all_refs else ()):
        _assert_routes_agree(code, refs)


@pytest.mark.parametrize("shape, rows, refs, route", [
    ((12, 128, 7), (4,), None, "product"),
    ((12, 128, 7), (4,), (0, 1, 2), "bincount"),
    ((14, 48, 1), (4,), None, "bincount"),
    ((14, 48, 1), (6,), None, "product"),
], ids=["12x128-all", "12x128-three", "14x48-row4", "14x48-row6"])
def test_route_pricing_pinned(shape, rows, refs, route):
    # the route the default prices pick for a block's leftover groups, on
    # blocks whose two prices lie a factor 1.8 or more apart: the one-hot
    # rows cost the same for three reference words as for all of them
    code = random_code(*shape)
    got, taken = _x_max_by(code, None, rows, refs, _every_radius(code))
    assert taken == {route}
    _assert_same(got, _reference_x_max(code, rows, refs))


@pytest.mark.parametrize("budget", [1 << 11, 1 << 13])
def test_product_in_slabs_and_chunks(budget, monkeypatch):
    # a small byte budget cuts the pair rows into blocks, the groups into
    # membership slabs and the outputs into chunks of a few
    code = random_code(9, 40, seed=5)
    monkeypatch.setattr(oracle, "_BLOCK_BYTES", budget)
    assert oracle._slab_len(code.M) < code.M
    _assert_routes_agree(code, None)


def test_product_memory_follows_the_byte_budget(monkeypatch):
    # the product holds one membership slab of M x _slab_len floats, the
    # one-hot rows of a chunk of outputs and their product, all under
    # _BLOCK_BYTES
    code = random_code(14, 48, seed=1)
    rows = _parity_rows(code, 0)
    peaks = []
    for budget in (1 << 16, 1 << 18):
        monkeypatch.setattr(oracle, "_BLOCK_BYTES", budget)
        tracemalloc.start()
        try:
            _x_max_by(code, "product", rows, None, _every_radius(code))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert peaks[-1] <= 3 * budget, budget
    assert peaks[0] < peaks[1]


def test_proposition3_terms_count_pairs_once():
    # every (t, omega) term of one code reads a single pair-distance pass
    code = random_code(8, 12, seed=7)
    oracle._pair_counts.cache_clear()
    terms = [(t, d) for d in range(code.n + 1) for t in range(code.n + 1)]
    for t, d in terms:
        proposition3_rhs(code, CH, t, d)
    info = oracle._pair_counts.cache_info()
    assert (info.misses, info.hits) == (1, len(terms) - 1)
    # the cached counts stay private: each call returns a list of its own
    spectrum = distance_distribution(code)
    spectrum[0] = -1.0
    assert distance_distribution(code)[0] == 1.0


# --- dominance: analytic lower bounds never exceed the enumerated truth --


@pytest.mark.parametrize("code", [
    repetition_code(3),
    repetition_code(5),
    parity_code(4),
    hamming74(),
    random_code(8, 12, seed=7),
    random_code(10, 40, seed=3),
], ids=["rep3", "rep5", "parity4", "hamming74", "rand8", "rand10"])
def test_lower_bounds_dominated_by_exact(code):
    for p in (0.05, 0.1, 0.2):
        ch = ChannelParam(p)
        pe = exact_pe_ml(code, ch)
        assert lower_bound_21(code, ch) <= pe + 1e-12
        assert sphere_packing_rhs_23(code, ch) <= pe + 1e-12
        b = distance_distribution(code)
        for om_d in range(1, code.n + 1):
            if b[om_d] == 0.0:
                continue
            for t in range(code.n + 1):
                if z_pair_count(code.n, om_d, t) == 0:
                    continue
                assert proposition3_rhs(code, ch, t, om_d) <= pe + 1e-12, (
                    code.n, code.M, p, t, om_d)


def test_dominance_rule_forgives_round_off_only():
    # a lower bound may exceed P_e by at most DOMINANCE_SLACK
    assert dominates(0.1, 0.1) and dominates(0.1, 0.1 + 0.5 * DOMINANCE_SLACK)
    assert not dominates(0.1, 0.1 + 10 * DOMINANCE_SLACK)
    assert dominates(0.0, DOMINANCE_SLACK)
    assert not dominates(0.0, 2 * DOMINANCE_SLACK)


def test_counting_bound_positive_for_large_codes():
    # parity code fills half the space, so some radius shows a surplus
    assert sphere_packing_rhs_23(parity_code(4), CH) > 0.0


# --- constant-weight maxima ---------------------------------------------


def test_johnson_and_exhaustive_agree_small():
    # weight-1 codes at distance 2: all n singletons fit, bound is tight
    assert johnson_upper(4, 2, 1) == 4.0
    assert exhaustive_max_constant_weight(4, 2, 1) == 4


def test_exhaustive_dominated_by_johnson():
    # proposition4_check reads the Johnson bound alone, which is sound only
    # because A(n, d, w) never exceeds it: check every (n, d, w) it meets
    # at n <= 10 with the bound below n^2.  The dense layers take their
    # exact maxima from the published table (Brouwer, Shearer, Sloane and
    # Smith, IEEE Trans. Inform. Theory 36, 1990; an odd d reads as d + 1),
    # which the packing solve reproduces in 10 to 14 s together.
    dense = {(10, 5, 5): 6, (10, 6, 5): 6, (9, 5, 5): 3, (10, 5, 4): 5,
             (9, 4, 4): 18, (9, 5, 4): 3}
    sweep = [(n, d, w) for n in range(1, 11)
             for d in range(1, (n + 1) // 2 + 1)
             for w in range(1, (n + 1) // 2 + 1)
             if johnson_upper(n, d, w) < n * n]
    assert len(sweep) == 66 and set(dense) - set(sweep) == {(10, 6, 5)}
    for n, d, w in [(8, 4, 3), (10, 5, 3), (9, 4, 2), (10, 6, 5)] + sweep:
        exact = (dense[n, d, w] if (n, d, w) in dense
                 else exhaustive_max_constant_weight(n, d, w))
        assert exact <= johnson_upper(n, d, w) + 1e-9, (n, d, w)
    assert johnson_upper(10, 6, 5) == 6.0  # the tight case: A = 6


def test_exhaustive_known_values():
    assert exhaustive_max_constant_weight(10, 5, 3) == 3
    assert exhaustive_max_constant_weight(8, 4, 3) == 8
    assert exhaustive_max_constant_weight(6, 2, 3) == math.comb(6, 3)
    assert exhaustive_max_constant_weight(7, 3, 0) == 1


def test_exhaustive_dense_layers_match_published_tables():
    # the dense layers where naive clique search stalls; values are the
    # published constant-weight maxima (partial triple systems at w = 3)
    assert exhaustive_max_constant_weight(9, 4, 3) == 12
    assert exhaustive_max_constant_weight(10, 4, 3) == 13
    assert exhaustive_max_constant_weight(10, 3, 3) == 13  # odd d rounds up
    assert exhaustive_max_constant_weight(8, 4, 4) == 14


def test_exhaustive_matches_clique_search():
    # independent route: maximum clique of the explicit layer graph
    import networkx as nx

    # s = w - (d-1)//2 = 1 takes the closed form n // w, s >= 2 the MILP
    for n, d, w in ((6, 3, 2), (6, 4, 3), (7, 4, 3), (7, 3, 2), (8, 4, 3),
                    (8, 6, 3), (9, 5, 3), (9, 4, 3), (10, 5, 4), (8, 3, 2),
                    (8, 4, 2), (10, 4, 2), (10, 5, 3)):
        layer = [x for x in range(1 << n) if x.bit_count() == w]
        g = nx.Graph()
        g.add_nodes_from(layer)
        for i, x in enumerate(layer):
            for y in layer[i + 1:]:
                if (x ^ y).bit_count() >= d:
                    g.add_edge(x, y)
        _, size = nx.max_weight_clique(g, weight=None)
        assert exhaustive_max_constant_weight(n, d, w) == size, (n, d, w)


def test_exhaustive_budget():
    with pytest.raises(SizeBudgetError):
        exhaustive_max_constant_weight(11, 4, 3)


def test_johnson_domain_and_clamp():
    with pytest.raises(DomainError):
        johnson_upper(4, 0, 1)
    with pytest.raises(DomainError):
        johnson_upper(4, 2, 5)
    # denominator clamp: the quadratic bound degenerates to infinity
    assert johnson_upper(10, 2, 5) == math.inf


def test_proposition4_spots():
    assert proposition4_check(8, 0.25, CH) is True
    assert proposition4_check(10, 0.5, CH) is True
    assert proposition4_check(50, 0.3, CH) is True
    with pytest.raises(DomainError):
        proposition4_check(8, 0.0, CH)
