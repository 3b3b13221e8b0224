import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasewave import DomainError, ExpProfile
from phasewave.expsum import pair_bilinear, pair_dot


def _random_profile(rng, n_terms, dim, decay=(0.2, 3.0)):
    terms = []
    for _ in range(n_terms):
        c = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        lam = -rng.uniform(*decay) + 1j * rng.uniform(-3.0, 3.0)
        terms.append((c, lam))
    return ExpProfile.from_terms(terms)


def _quad_integral(profile, tol=1e-10):
    """Adaptive-quadrature oracle, truncated where every term is below 1e-16."""
    from scipy.integrate import quad

    zmax = max(np.log(1e-16) / rate.real for rate in profile.rates)
    dim = profile.coeffs.shape[0]
    out = np.empty(dim, dtype=complex)
    for i in range(dim):
        re = quad(lambda z: profile(z)[i].real, 0.0, zmax, epsabs=tol, epsrel=tol, limit=200)[0]
        im = quad(lambda z: profile(z)[i].imag, 0.0, zmax, epsabs=tol, epsrel=tol, limit=200)[0]
        out[i] = re + 1j * im
    return out


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_exact_integral_matches_quadrature(seed):
    rng = np.random.default_rng(seed)
    p = _random_profile(rng, n_terms=int(rng.integers(1, 4)), dim=2)
    exact = p.integral()
    quad_val = _quad_integral(p)
    scale = max(np.max(np.abs(exact)), 1.0)
    assert np.max(np.abs(exact - quad_val)) <= 1e-8 * scale


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_pair_dot_is_pointwise_product(seed):
    rng = np.random.default_rng(seed)
    row = _random_profile(rng, 2, 3)
    col = _random_profile(rng, 2, 3)
    prod = pair_dot(row, col)
    for z in (0.0, 0.3, 1.7):
        assert prod(z)[0] == pytest.approx(row(z) @ col(z), rel=1e-12, abs=1e-12)


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_pair_bilinear_pointwise(seed):
    rng = np.random.default_rng(seed)
    p = _random_profile(rng, 2, 2)
    q = _random_profile(rng, 2, 2)

    def form(a, b):
        return np.array([a[0] * b[1], a[1] * b[0] + a[0] * b[0]])

    combined = pair_bilinear(p, q, form)
    for z in (0.0, 0.9):
        assert np.allclose(combined(z), form(p(z), q(z)), rtol=1e-12, atol=1e-12)


def test_derivative_rates_and_fundamental_theorem():
    rng = np.random.default_rng(5)
    p = _random_profile(rng, 3, 2)
    dp = p.derivative()
    for rate, c, rate_d, c_d in zip(p.rates, p.coeffs.T, dp.rates, dp.coeffs.T):
        assert rate_d == rate
        assert np.allclose(c_d, rate * c)
    # Integral of the derivative over the half line is -P(0).
    assert np.allclose(dp.integral(), -p(0.0), rtol=1e-13, atol=1e-13)


def test_integral_formula():
    c = np.array([2.0 + 1.0j])
    lam = -0.5 + 2.0j
    p = ExpProfile.from_terms([(c, lam)])
    assert p.integral()[0] == pytest.approx(-c[0] / lam, rel=1e-15)


def test_non_decaying_integrand_rejected():
    p = ExpProfile.from_terms([(np.array([1.0 + 0j]), 0.1 + 1j)])
    with pytest.raises(DomainError):
        p.integral()
    marginal = ExpProfile.from_terms([(np.array([1.0 + 0j]), 1j)])
    with pytest.raises(DomainError):
        marginal.integral()


def test_zero_coefficient_terms_ignored():
    p = ExpProfile.from_terms([(np.array([0.0 + 0j]), 1j), (np.array([1.0 + 0j]), -1.0)])
    assert p.integral()[0] == pytest.approx(1.0)


def test_addition_and_scaling():
    rng = np.random.default_rng(9)
    p = _random_profile(rng, 2, 2)
    q = _random_profile(rng, 1, 2)
    s = p + q
    assert len(s.rates) == 3 and s.coeffs.shape == (2, 3)
    assert np.allclose(s(0.4), p(0.4) + q(0.4))
    assert np.allclose(p.map_coeffs(lambda c: 2.5j * c)(0.4), 2.5j * p(0.4))


def test_map_coeffs_linear_action():
    rng = np.random.default_rng(13)
    p = _random_profile(rng, 2, 3)
    M = rng.normal(size=(3, 3))
    mapped = p.map_coeffs(lambda c: M @ c)
    assert np.allclose(mapped(0.7), M @ p(0.7), rtol=1e-13)


# ---------------------------------------------------------------------------
# The array layout against per-term reference sums
# ---------------------------------------------------------------------------


def _terms(profile):
    """(coefficient, rate) per term: column t of coeffs with rates[t]."""
    assert profile.coeffs.shape[1] == profile.rates.shape[0]
    return list(zip(profile.coeffs.T, profile.rates))


def _assert_terms(profile, want):
    got = _terms(profile)
    assert len(got) == len(want)
    for (c, lam), (c_want, lam_want) in zip(got, want):
        assert lam == lam_want
        assert np.allclose(c, c_want, rtol=1e-14, atol=0.0)


def test_pair_bilinear_term_order():
    rng = np.random.default_rng(21)
    p = _random_profile(rng, 3, 2)
    q = _random_profile(rng, 2, 2)

    def form(a, b):
        return np.array([a[0] * b[1], a[1] * b[0] + a[0] * b[0], a[1] * b[1]])

    want = [(form(cp, cq), lp + lq) for cp, lp in _terms(p) for cq, lq in _terms(q)]
    _assert_terms(pair_bilinear(p, q, form), want)


def test_pair_dot_term_order():
    rng = np.random.default_rng(22)
    row = _random_profile(rng, 3, 4)
    col = _random_profile(rng, 2, 4)
    want = [(np.atleast_1d(cr @ cc), lr + lc) for cr, lr in _terms(row) for cc, lc in _terms(col)]
    _assert_terms(pair_dot(row, col), want)


def test_derivative_sum_and_integral_per_term():
    rng = np.random.default_rng(23)
    p = _random_profile(rng, 3, 2)
    # A zero coefficient on a growing rate must be dropped, not divided.
    p = p + ExpProfile.from_terms([(np.zeros(2), 0.5 + 1j)])
    _assert_terms(p.derivative(), [(lam * c, lam) for c, lam in _terms(p)])
    for z in (0.0, 0.8):
        want = sum(c * np.exp(lam * z) for c, lam in _terms(p))
        assert np.allclose(p(z), want, rtol=1e-14, atol=0.0)
    want = -sum(c / lam for c, lam in _terms(p) if np.any(c != 0.0))
    assert np.allclose(p.integral(), want, rtol=1e-14, atol=0.0)
