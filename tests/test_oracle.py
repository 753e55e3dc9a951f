"""Exact small-code ground truth: enumerated error probabilities, covering
counts, and the constant-weight size bounds.

Dominance is the load-bearing property: every analytic lower bound must sit
at or below the enumerated ML error probability on every code, with slack
only for float roundoff.
"""

import hashlib
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bscbounds import oracle, verify
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
    exhaustive_max_constant_weight,
    hamming74,
    johnson_upper,
    load_code,
    lower_bound_21,
    parity_code,
    parse_code,
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
    with pytest.raises(SizeBudgetError):
        exact_pe_ml(BinaryCode(30, (0, 1)), CH)


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
    # out-of-range (t, omega) is 0 even where the census would be refused
    code = random_code(24, 33, seed=1)
    for t, d in ((25, 2), (1, 25), (-1, 2), (1, -1)):
        assert restricted_cover_max(code, t, d) == 0


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


def _reference_x_max(code):
    """X[d, t], one reference word and one (t, d) pair at a time."""
    words = np.asarray(code.words, dtype=np.uint32)
    pair_d = np.bitwise_count(words[:, None] ^ words[None, :])
    dist = _output_distances(code)
    x = np.zeros((code.n + 1, code.n + 1), dtype=np.int64)
    for d in range(code.n + 1):
        for t in range(code.n + 1):
            for i in range(code.M):
                cols = np.flatnonzero(pair_d[i] == d)
                if cols.size:
                    cnt = (dist[:, cols] == t).sum(axis=1)
                    x[d, t] = max(x[d, t], int(cnt.max()))
    return x


_CENSUS_CODES = builtin_roster() + [("random_n10_m40_s3", random_code(10, 40, 3)),
                                    ("parity6", parity_code(6))]


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
    spectrum = distance_distribution(code)
    assert oracle._chunk_len(code.n, code.M) >= 1 << code.n
    per_output = 8 * (code.M + (code.n + 1) ** 2)
    for outputs in (1, 3, 7):
        monkeypatch.setattr(oracle, "_BLOCK_BYTES", outputs * per_output)
        assert oracle._chunk_len(code.n, code.M) == outputs
        part = oracle._census.__wrapped__(code)
        assert np.array_equal(part.dmin_hist, whole.dmin_hist), outputs
        assert np.array_equal(part.cover, whole.cover), outputs
        assert np.array_equal(part.x_max, whole.x_max), outputs
    # pair distances in blocks of 3 rows as well
    monkeypatch.setattr(oracle, "_BLOCK_BYTES", 3 * 8 * code.M)
    part = oracle._census.__wrapped__(code)
    assert np.array_equal(part.x_max, whole.x_max)
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
    assert np.array_equal(census.x_max, _reference_x_max(code))
    assert np.array_equal(census.x_max, census.x_max[:, ::-1])
    for t in range(n + 1):
        row = census.cover[t]
        assert {k: int(c) for k, c in enumerate(row) if k and c} == \
            _reference_cover_histogram(code, t), t
        assert np.array_equal(row, census.cover[n - t]), t
    assert int(census.dmin_hist.sum()) == 1 << n
    for p in (0.05, 0.3):
        ch = ChannelParam(p)
        assert abs(exact_pe_ml(code, ch) - _reference_pe(code, ch)) <= 1e-15, p


def test_census_refuses_work_over_budget(monkeypatch):
    # M^2 2^n = 2^46: refused before any output is enumerated
    def analyse(code, x_max):
        raise AssertionError("column classes analysed before the budget check")

    monkeypatch.setattr(oracle, "_class_x_max", analyse)
    with pytest.raises(SizeBudgetError, match="budget"):
        exact_pe_ml(parity_code(16), CH)
    with pytest.raises(SizeBudgetError, match="budget"):
        restricted_cover_max(random_code(24, 33, seed=1), 1, 2)


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


def _group_count(code):
    words = np.asarray(code.words, dtype=np.uint32)
    pair = np.bitwise_count(words[:, None] ^ words[None, :])
    return sum(len(set(row.tolist())) for row in pair)


def _census_at_cost(code, cost):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_CLASS_COST", cost)
        classed = oracle._class_x_max(code, np.zeros((code.n + 1,) * 2, dtype=np.int64))
        return classed, oracle._census.__wrapped__(code)


def _assert_same(got, want):
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


@settings(max_examples=60, deadline=None)
@given(_small_codes())
def test_class_path_matches_reference_routes(code):
    x_ref = _reference_x_max(code)
    cover, dmin_hist = _reference_cover(code), _reference_dmin_hist(code)
    for cost, groups in ((-math.inf, _group_count(code)), (math.inf, 0)):
        classed, census = _census_at_cost(code, cost)
        assert int(classed.sum()) == groups
        _assert_same(census.x_max, x_ref)
        _assert_same(census.cover, cover)
        _assert_same(census.dmin_hist, dmin_hist)


def test_class_path_live_on_a_long_code():
    # the default cost sends 265 of this code's 299 groups to their classes
    code = random_code(16, 32, seed=7)
    classed = oracle._class_x_max(code, np.zeros((17, 17), dtype=np.int64))
    assert (int(classed.sum()), _group_count(code)) == (265, 299)
    live = oracle._census.__wrapped__(code)
    _, whole = _census_at_cost(code, math.inf)
    for field in ("x_max", "cover", "dmin_hist"):
        _assert_same(getattr(live, field), getattr(whole, field))


@pytest.mark.parametrize("shape, classed_groups, groups, digest", [
    ((16, 32, 7), 265, 299,
     "baf1f3082bd39baaf09421b4b28a7cb9e450952c77706227246fde54ac7f8e4c"),
    ((14, 48, 1), 166, 462,
     "dadd86ff00762e63e6c7bedb33eb9c8e44965a4a9a4fd9c0bea08956b6e4c3b5"),
    ((20, 32, 1), 315, 332,
     "2181d892e53032c57178a3ea8b339f5f811dfb5cf19bbde9680e614d931cabc7"),
])
def test_class_pricing_pinned(shape, classed_groups, groups, digest):
    # which groups go by their classes is pinned to the byte: a drift in the
    # cost rule shows here even where every census integer still matches
    code = random_code(*shape)
    classed = oracle._class_x_max(code, np.zeros((code.n + 1,) * 2, dtype=np.int64))
    assert classed.dtype == bool and classed.shape == (code.M, code.n + 1)
    assert (int(classed.sum()), _group_count(code)) == (classed_groups, groups)
    assert hashlib.sha256(classed.tobytes()).hexdigest() == digest


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
    _, census = _census_at_cost(code, -math.inf)
    _assert_same(census.x_max, _reference_x_max(code))


def test_census_memory_follows_the_byte_budget(monkeypatch):
    # the class analysis, each group's representative outputs and the census
    # all go in blocks under _BLOCK_BYTES; unblocked, the analysis of this
    # code alone would hold M^2 n 8 bytes = 258 KB, and one group's outputs
    # up to 2^13 (k + n + 1) 8 bytes
    code = random_code(14, 48, seed=1)
    assert oracle._class_x_max(code, np.zeros((15, 15), dtype=np.int64)).any()
    peaks = []
    for budget in (1 << 16, 1 << 18):
        monkeypatch.setattr(oracle, "_BLOCK_BYTES", budget)
        tracemalloc.start()
        try:
            oracle._census.__wrapped__(code)
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
    for n, d, w in ((8, 4, 3), (10, 5, 3), (9, 4, 2), (10, 6, 5)):
        exact = exhaustive_max_constant_weight(n, d, w)
        assert exact <= johnson_upper(n, d, w) + 1e-9, (n, d, w)


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

    for n, d, w in ((6, 3, 2), (6, 4, 3), (7, 4, 3), (7, 3, 2), (8, 4, 3),
                    (8, 6, 3), (9, 5, 3), (9, 4, 3), (10, 5, 4)):
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
