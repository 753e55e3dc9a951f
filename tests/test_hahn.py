"""Johnson-scheme orthogonal polynomials in log-signed arithmetic.

The reference oracle evaluates the polynomials exactly over the rationals
through their terminating hypergeometric sum — an algorithm sharing no
code (and no recurrence) with the module's ratio-chain and degree-
recurrence paths.
"""

import math
from fractions import Fraction

import pytest

from bscbounds.core import DomainError, binary_entropy
from bscbounds.hahn import (
    HahnContext,
    LogSigned,
    delsarte_margins,
    hahn_at_zero,
    hahn_eval,
    hahn_ratios,
    min_root,
    q0_exponent,
)


def _hyper_exact(n: int, w: int, j: int, x) -> Fraction:
    """Terminating 3F2(-j, j-n-1, -x; -w, w-n; 1) over the rationals.

    x is an integer coordinate or any rational point.
    """
    total, term = Fraction(1), Fraction(1)
    for k in range(j):
        term *= (Fraction((-j + k) * (j - n - 1 + k), (-w + k) * (w - n + k) * (k + 1))
                 * (k - x))
        total += term
    return total


def _q_exact(n: int, w: int, j: int, i: int) -> Fraction:
    if j == 0:
        return Fraction(1)
    return (Fraction(n - 2 * j + 1, n - j + 1) * math.comb(n, j)
            * _hyper_exact(n, w, j, i))


def test_context_validation():
    with pytest.raises(DomainError):
        HahnContext(20, 0, 0)
    with pytest.raises(DomainError):
        HahnContext(20, 11, 3)          # w > n/2
    with pytest.raises(DomainError):
        HahnContext(20, 8, 9)           # j > w
    with pytest.raises(DomainError):
        HahnContext(20.0, 8, 3)         # non-integer field


def test_log_signed_round_trips():
    assert LogSigned(3.0, 1).to_float() == 8.0
    assert LogSigned(-1.0, -1).to_float() == -0.5
    assert LogSigned(-math.inf, 0).to_float() == 0.0
    # beyond float range: saturates instead of raising
    assert LogSigned(1e6, -1).to_float() == -math.inf


def test_at_zero_against_exact():
    for n, w in ((20, 8), (25, 10), (60, 20)):
        for j in range(w + 1):
            ex = _q_exact(n, w, j, 0)
            got = hahn_at_zero(HahnContext(n, w, j))
            assert got.sign == 1
            assert got.log_abs == pytest.approx(
                math.log2(ex.numerator) - math.log2(ex.denominator), abs=1e-10)


def test_eval_against_exact_rational_oracle():
    for n, w in ((20, 8), (25, 10), (60, 20)):
        for j in (0, 1, 3, min(w - 1, 7)):
            for i in range(w + 1):
                ex = _q_exact(n, w, j, i)
                got = hahn_eval(HahnContext(n, w, j), i)
                if ex == 0:
                    assert got.sign == 0
                    continue
                assert got.sign == (1 if ex > 0 else -1), (n, w, j, i)
                log_ex = (math.log2(abs(ex.numerator))
                          - math.log2(ex.denominator))
                assert got.log_abs == pytest.approx(log_ex, abs=1e-9), (n, w, j, i)


def test_eval_hits_exact_integer_root():
    # Q_1 vanishes at x = w(n-w)/n, which is the integer 6 for (25, 10)
    assert _q_exact(25, 10, 1, 6) == 0
    assert hahn_eval(HahnContext(25, 10, 1), 6).sign == 0


def test_eval_domain():
    with pytest.raises(DomainError):
        hahn_eval(HahnContext(20, 8, 3), 9)


def test_ratios_guard_and_cut():
    with pytest.raises(DomainError):
        hahn_ratios(HahnContext(20, 8, 3), 8)   # k_max = min(w, n-w)
    # chain stops right after the first non-positive entry
    out = hahn_ratios(HahnContext(20, 8, 3), 7)
    first_neg = next(k for k, r in enumerate(out) if r <= 0.0)
    assert len(out) == first_neg + 1


def test_min_root_literals_and_interlacing():
    assert min_root(HahnContext(20, 8, 3)) == pytest.approx(
        2.843916416168213, abs=1e-6)
    assert min_root(HahnContext(20, 8, 4)) == pytest.approx(
        2.1827425956726074, abs=1e-6)
    roots = [min_root(HahnContext(25, 10, j)) for j in range(1, 7)]
    assert all(b < a for a, b in zip(roots, roots[1:]))


def test_min_root_bracketed_by_exact_sign_change():
    for n, w, j in ((20, 8, 3), (25, 10, 5), (60, 20, 6)):
        x1 = min_root(HahnContext(n, w, j))
        assert _q_exact(n, w, j, math.floor(x1)) > 0
        assert _q_exact(n, w, j, math.ceil(x1)) < 0


def test_min_root_zero_degree():
    with pytest.raises(DomainError):
        min_root(HahnContext(20, 8, 0))


@pytest.mark.parametrize("n, w", [(2, 1), (3, 1), (10, 1), (20, 8), (25, 10),
                                  (60, 20), (101, 33)])
def test_min_root_degree_one_is_exact(n, w):
    # Q_1 is linear: its root w(n-w)/n, in its exact sign-change cell (k, k+1]
    x1 = min_root(HahnContext(n, w, 1))
    assert x1 == w * (n - w) / n
    k = math.ceil(x1) - 1
    assert _q_exact(n, w, 1, k) > 0 >= _q_exact(n, w, 1, k + 1)


@pytest.mark.xfail(strict=True, reason="min_root interpolates a quadratic "
                   "inside its cell, exact only for j <= 2")
def test_min_root_is_a_root_of_q():
    # the exact polynomial changes sign within 1e-9 around the returned root
    for n, w, j in ((20, 8, 3), (200, 80, 12), (500, 250, 50), (1000, 400, 60)):
        x1 = min_root(HahnContext(n, w, j))
        assert _hyper_exact(n, w, j, Fraction(x1 - 1e-9)) > 0, (n, w, j)
        assert _hyper_exact(n, w, j, Fraction(x1 + 1e-9)) < 0, (n, w, j)


def test_scaled_root_approaches_band_cap():
    # 2 x1 / n converges to G(1/2, tau) as n grows along tau = j/w fixed;
    # at n = 500 the finite-size gap is already below 0.03
    g_infinite = 0.2  # G(1/2, 0.1) = 1/2 - sqrt(0.09)
    scaled = 2.0 * min_root(HahnContext(500, 250, 50)) / 500
    assert scaled > g_infinite
    assert scaled - g_infinite < 0.03


def test_q0_exponent_values():
    assert q0_exponent(0.5, 0.1, 0.0) == pytest.approx(
        binary_entropy(0.1), abs=1e-15)
    assert q0_exponent(0.5, 0.1, 0.05) == pytest.approx(
        0.43171992922482905, abs=1e-9)


def test_q0_exponent_domain():
    with pytest.raises(DomainError):
        q0_exponent(0.1, 0.2, 0.0)      # tau above alpha
    with pytest.raises(DomainError):
        q0_exponent(0.5, 0.1, 0.125)    # xi at the scaled-root threshold
    with pytest.raises(DomainError):
        q0_exponent(0.5, 0.1, -0.01)


def test_delsarte_margins_complete_slice():
    # distance distribution of the full weight-2 slice of length 4:
    # orthogonality zeroes every margin above j = 0
    margins = delsarte_margins(4, 2, [1, 4, 1])
    assert margins[0] == pytest.approx(6.0, abs=1e-12)
    assert margins[1] == pytest.approx(0.0, abs=1e-12)
    assert margins[2] == pytest.approx(0.0, abs=1e-12)


def test_delsarte_margins_complement_pair():
    # code {1100, 0011}: margins (2, 0, 4), all nonnegative
    margins = delsarte_margins(4, 2, [1, 0, 1])
    assert margins == pytest.approx([2.0, 0.0, 4.0], abs=1e-12)


def test_delsarte_margins_length_check():
    with pytest.raises(DomainError):
        delsarte_margins(4, 2, [1, 0])
