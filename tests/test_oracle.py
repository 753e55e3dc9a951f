"""Exact small-code ground truth: enumerated error probabilities, covering
counts, and the constant-weight size bounds.

Dominance is the load-bearing property: every analytic lower bound must sit
at or below the enumerated ML error probability on every code, with slack
only for float roundoff.
"""

import math

import numpy as np
import pytest

from bscbounds import oracle
from bscbounds.core import ChannelParam, DomainError
from bscbounds.oracle import (
    BinaryCode,
    CodeFormatError,
    SizeBudgetError,
    cover_report,
    distance_distribution,
    exact_pe_ml,
    exhaustive_max_constant_weight,
    hamming74,
    johnson_upper,
    load_code,
    lower_bound_21,
    parity_code,
    parse_code,
    proposition3_rhs,
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


def test_census_refuses_work_over_budget():
    # M^2 2^n = 2^46: refused before any output is enumerated
    with pytest.raises(SizeBudgetError, match="budget"):
        exact_pe_ml(parity_code(16), CH)
    with pytest.raises(SizeBudgetError, match="budget"):
        restricted_cover_max(random_code(24, 33, seed=1), 1, 2)


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
