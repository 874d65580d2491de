"""Tests for the modulus catalog, derivative machinery and the Dini classifier."""

import math
import time
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from dwlab import modulus as modulus_module
from dwlab.modulus import (
    Kind,
    Modulus,
    ModulusError,
    Nonlinearity,
    PowerForcing,
    Verdict,
    _dini_shells,
    _dini_tail,
    catalog_make,
    check_h_convexity,
    check_slow_variation,
    classify_dini,
    load_custom_modulus,
    parse_forcing_spec,
    parse_modulus_spec,
    shell_integrals,
)
from dwlab.testfunction import blowup_certificate, weight_bound_constant

CATALOG = [
    ("power", 0.5, None),
    ("power", 1.0, None),
    ("logplus", 1.0, None),
    ("invlog", 0.5, None),
    ("invlog", 1.0, None),
    ("invlog", 2.0, None),
    ("iterlog", 1.0, 1),
    ("iterlog", 2.0, 1),
]


def _entries():
    return [catalog_make(kind, p=p, depth=depth) for kind, p, depth in CATALOG]


def deriv_fd(mu, s, k):
    """Finite-difference cross-check of `Modulus.deriv`.

    Order 1 differences `eval` directly.  Order 2 differences the
    analytic first derivative: differencing `eval` twice cannot reach
    1e-6 relative accuracy near s = 0 in double precision (the stencil
    amplifies rounding by h^-2), while this chain still verifies that
    mu'' is the derivative of mu' and mu' the derivative of mu.
    """
    s = np.asarray(s, dtype=float)
    if k == 1:
        h = np.maximum(1e-6 * np.abs(s), 1e-12)
        return (mu.eval(s + h) - mu.eval(s - h)) / (2.0 * h)
    h = np.maximum(1e-4 * np.abs(s), 1e-12)
    return (mu.deriv(s + h, 1) - mu.deriv(s - h, 1)) / (2.0 * h)


def format_modulus_spec(modulus):
    if modulus.kind is Kind.CUSTOM:
        return "custom:<table>"
    params = ",".join(f"{k}={v}" for k, v in sorted(modulus.params.items()))
    return f"{modulus.kind.value}:{params}"


# -- evaluation against closed forms ----------------------------------


def test_eval_power_square():
    mu = catalog_make("power", p=2.0)
    assert mu(0.5) == pytest.approx(0.25, abs=1e-15)


def test_eval_logplus_at_e_minus_one():
    mu = catalog_make("logplus", p=1.0)
    assert mu(math.e - 1.0) == pytest.approx(1.0, rel=1e-14)


def test_eval_invlog_formula_region():
    # s = e^-4 lies below the continuation point, so the formula applies:
    # (log 1/s)^-2 = 1/16.
    mu = catalog_make("invlog", p=2.0)
    assert mu(math.exp(-4.0)) == pytest.approx(1.0 / 16.0, rel=1e-13)


def test_eval_iterlog_against_mpmath():
    # depth 1: mu(s) = (log 1/s)^-1 (log log 1/s)^-p, formula region.
    mu = catalog_make("iterlog", p=1.0, depth=1)
    s = math.exp(-8.0)
    with mpmath.workdps(50):
        w = mpmath.mpf(8)
        expected = float(1 / (w * mpmath.log(w)))
    assert mu(s) == pytest.approx(expected, rel=1e-13)


def test_eval_at_zero_is_zero():
    for mu in _entries():
        assert mu(0.0) == 0.0


def test_eval_propagates_nan():
    # a NaN argument gives NaN, not the mu(0) = 0 of a zero field, so a NaN
    # in u reaches the forcing and the stepper reports it
    for mu in _entries():
        out = mu.eval(np.array([0.0, np.nan, 0.25, 2.0]))
        assert np.isnan(out[1]) and np.all(np.isfinite(out[[0, 2, 3]]))
        assert np.isnan(mu(np.nan))
        assert np.isnan(Nonlinearity(mu, 1).h_eval(np.nan))


def test_eval_rejects_negative():
    with pytest.raises(ModulusError):
        catalog_make("power", p=1.0).eval(-0.5)


def _h_eval_points(s_star):
    """0, a subnormal, both signs, NaN and, for a finite s*, s* with its
    neighbours and points past it."""
    points = [0.0, 5e-324, -1e-300, 1e-3, -0.25, np.nan]
    if math.isfinite(s_star):
        points += [s_star, np.nextafter(s_star, -np.inf), np.nextafter(s_star, np.inf),
                   -s_star, 2.0 * s_star, 1.0, 7.5]
    return np.array(points)


def test_h_eval_is_the_power_times_eval(tmp_path):
    # h_eval runs mu's kernel without eval's checks; every output bit is the
    # one the public expression |s|^e mu(|s|) gives, on arrays and scalars
    moduli = _entries() + [catalog_make("iterlog", p=1.0, depth=depth) for depth in (2, 3)]
    for mu in moduli + [_kinked(tmp_path)]:
        for n in (1, 2):
            h = Nonlinearity(mu, n)
            s = _h_eval_points(mu.continuation_point)
            expected = np.abs(s) ** h.exponent * mu.eval(np.abs(s))
            assert np.array_equal(h.h_eval(s), expected, equal_nan=True)
            assert np.array_equal(h.h_eval(s.reshape(1, -1)), expected[None, :], equal_nan=True)
            for point in s:
                # numpy's scalar power may round apart from its array loop by
                # an ulp, so a scalar is held to the scalar expression
                a = abs(np.float64(point))
                out = h.h_eval(float(point))
                assert type(out) is np.float64
                assert np.array_equal(out, a ** h.exponent * mu.eval(a), equal_nan=True)


def test_h_eval_builds_the_continuation_once(monkeypatch):
    mu = catalog_make("invlog", p=2.0)
    h = Nonlinearity(mu, 1)
    s = np.linspace(0.0, 4.0 * mu.continuation_point, 64)  # most points past s*
    calls = []
    raw_deriv = Modulus._raw_deriv

    def counted(self, *args):
        calls.append(args)
        return raw_deriv(self, *args)

    monkeypatch.setattr(Modulus, "_raw_deriv", counted)
    first = h.h_eval(s)
    for _ in range(99):
        assert np.array_equal(h.h_eval(s), first)
    assert len(calls) <= 1


# -- derivatives ------------------------------------------------------


def test_deriv_power_closed_form():
    mu = catalog_make("power", p=2.0)
    assert mu.deriv(0.1, 1) == pytest.approx(0.2, rel=1e-13)
    assert mu.deriv(0.1, 2) == pytest.approx(2.0, rel=1e-13)


def test_deriv_invlog_closed_form():
    # d/ds (log 1/s)^-1 = (1/s)(log 1/s)^-2; at s = e^-2 this is e^2/4.
    mu = catalog_make("invlog", p=1.0)
    assert mu.deriv(math.exp(-2.0), 1) == pytest.approx(math.e ** 2 / 4.0, rel=1e-12)
    # With L = log 1/s: mu' = (p/s) L^{-p-1}, mu'' = (p/s^2) L^{-p-2} ((p+1) - L).
    # s* is left out: for p >= 1 mu'' vanishes there, where no relative error
    # is defined; s >= 1e-150 keeps s^2 a normal double.
    for p in (0.5, 1.0, 2.0):
        mu = catalog_make("invlog", p=p)
        s = np.geomspace(1e-150, mu.continuation_point, 201)[:-1]
        L = -np.log(s)
        np.testing.assert_allclose(mu.deriv(s, 1), (p / s) * L ** (-p - 1.0), rtol=1e-13)
        np.testing.assert_allclose(mu.deriv(s, 2),
                                   (p / s ** 2) * L ** (-p - 2.0) * ((p + 1.0) - L), rtol=1e-13)


def test_deriv_rejects_zero_and_bad_order():
    mu = catalog_make("power", p=1.0)
    with pytest.raises(ModulusError):
        mu.deriv(0.0, 1)
    with pytest.raises(ModulusError):
        mu.deriv(0.1, 3)


@pytest.mark.parametrize("kind,p,depth", CATALOG)
def test_deriv_matches_finite_difference(kind, p, depth):
    mu = catalog_make(kind, p=p, depth=depth)
    top = min(mu.continuation_point, 0.9)
    s = np.geomspace(1e-6, top * 0.999, 60)
    ana1 = mu.deriv(s, 1)
    fd1 = deriv_fd(mu, s, 1)
    assert np.max(np.abs(ana1 - fd1) / np.abs(ana1)) < 1e-6
    ana2 = mu.deriv(s, 2)
    fd2 = deriv_fd(mu, s, 2)
    # near an isolated zero of mu'' a relative test is meaningless; allow
    # an absolute floor at the natural scale mu/s^2.
    scale = np.abs(ana2) + 1e-4 * mu.eval(s) / s ** 2
    assert np.max(np.abs(ana2 - fd2) / scale) < 1e-5


def test_continuation_is_c1():
    for mu in _entries():
        sst = mu.continuation_point
        if not math.isfinite(sst):
            continue
        left = mu.deriv(sst * (1 - 1e-9), 1)
        right = mu.deriv(sst * (1 + 1e-9), 1)
        assert abs(left - right) <= 1e-6 * abs(left) + 1e-10


# -- shape invariants -------------------------------------------------


@pytest.mark.parametrize("kind,p,depth", CATALOG)
def test_monotone_and_concave(kind, p, depth):
    mu = catalog_make(kind, p=p, depth=depth)
    top = mu.continuation_point * 3.0 if math.isfinite(mu.continuation_point) else 2.0
    s = np.concatenate([[0.0], np.geomspace(1e-12, top, 400)])
    vals = mu.eval(s)
    assert np.all(np.diff(vals) >= -1e-15)
    mid = mu.eval(0.5 * (s[:-1] + s[1:]))
    chord = 0.5 * (vals[:-1] + vals[1:])
    assert np.all(mid - chord >= -1e-12 * np.maximum(mid, 1e-300))


@settings(max_examples=40, deadline=None)
@given(p=st.floats(0.2, 3.0), s=st.floats(1e-10, 0.9))
def test_power_eval_property(p, s):
    mu = catalog_make("power", p=p)
    assert mu(s) == pytest.approx(s ** p, rel=1e-12)


# -- slow variation ---------------------------------------------------


def test_slow_variation_power_exact_ratio():
    ratios = check_slow_variation(catalog_make("power", p=0.5))
    assert ratios[1] == pytest.approx(0.5, rel=1e-12)


def test_slow_variation_invlog_ratio_decays():
    # s mu'/mu = p/log(1/s) decays toward s = 0, so its sup over the grid is
    # at the top s0 = s* = e^-3, where it is 2/3 for p = 2
    ratios = check_slow_variation(catalog_make("invlog", p=2.0))
    assert ratios[1] == pytest.approx(2.0 / 3.0, rel=1e-14)


def test_slow_variation_logplus_bounded_by_one():
    ratios = check_slow_variation(catalog_make("logplus", p=1.0))
    assert ratios[1] <= 1.0 + 1e-12


# -- Dini classification ----------------------------------------------


def test_classifier_matches_catalog_labels():
    start = time.perf_counter()
    for mu in _entries():
        result = classify_dini(mu)
        assert result.dini_verdict is mu.analytic_dini_label, mu.kind
    assert time.perf_counter() - start < 10.0


def test_classifier_tail_matches_closed_form():
    # For (log 1/s)^-p the integral of mu(t)/t on (0, a] is
    # (p-1)^-1 (log 1/a)^{1-p}; with p=2, a=0.01 that is 1/log(100).
    result = classify_dini(catalog_make("invlog", p=2.0))
    expected = 1.0 / math.log(100.0)
    assert result.total_estimate == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("p", [1.1, 1.2, 1.5, 2.0, 3.0])
def test_classifier_total_invlog_closed_form(p):
    # the same closed form for other p.  Near p = 1 the tail past the last
    # shell is most of the integral (70% at p = 1.1).
    result = classify_dini(catalog_make("invlog", p=p))
    expected = math.log(100.0) ** (1.0 - p) / (p - 1.0)
    assert result.total_estimate == pytest.approx(expected, rel=1e-12)


def test_classifier_total_iterlog_exact():
    # mu(e^-w) is the linear continuation on [log 100, w*] and
    # 1 / (w (log w)^2) beyond, whose integral is 1 / log w*.
    mu = catalog_make("iterlog", p=2.0, depth=1)
    w0, w_star = math.log(100.0), -math.log(mu.continuation_point)
    head, _ = quad(mu.eval_neglog, w0, w_star, epsabs=1e-13, epsrel=1e-12)
    expected = head + 1.0 / math.log(w_star)
    assert expected == pytest.approx(0.6548, abs=1e-4)
    assert classify_dini(mu).total_estimate == pytest.approx(expected, rel=1e-10)


def _nested_log(w, depth):
    for _ in range(depth):
        w = mpmath.log(w)
    return w


@pytest.mark.parametrize("p, depth", [(1.15, 1), (1.5, 1), (3.0, 1), (1.5, 2), (2.0, 2), (3.0, 2)])
def test_classifier_total_iterlog_matches_mpmath(p, depth):
    # the linear continuation from log 100 to w* by mpmath, then the formula's
    # integral L_{d+1}^{1-p}/(p-1) to infinity
    mu = catalog_make("iterlog", p=p, depth=depth)
    (mu_star, slope), s_star = mu._continuation, mu.continuation_point
    w0 = math.log(100.0)
    w1 = max(w0, -math.log(s_star))
    head = mpmath.quad(lambda w: mu_star + slope * (mpmath.exp(-w) - s_star), [w0, w1])
    expected = head + _nested_log(mpmath.mpf(w1), depth) ** (1.0 - p) / (p - 1.0)
    result = classify_dini(mu)
    assert result.dini_verdict is Verdict.CONVERGENT
    assert result.total_estimate == pytest.approx(float(expected), rel=1e-12)


_DINI_END = math.log(100.0) + 240 * math.log(2.0)  # where the deepest shell ends


@pytest.mark.parametrize("b", [1e3, 1e6])
@pytest.mark.parametrize("kind, p, depth", [("power", 0.1, None), ("logplus", 0.1, None),
                                            ("invlog", 1.1, None), ("iterlog", 1.15, 1),
                                            ("iterlog", 1.5, 2), ("iterlog", 3.0, 2)])
def test_dini_tail_differences_match_mpmath(kind, p, depth, b):
    mu = catalog_make(kind, p=p, depth=depth)
    a = _DINI_END
    expected = mpmath.quad(lambda w: float(mu.eval_neglog(float(w))), np.geomspace(a, b, 13))
    got = _dini_tail(mu, a) - _dini_tail(mu, b)
    assert got == pytest.approx(float(expected), rel=1e-12, abs=0.0)


# a table whose only steep piece lies below exp(-_DINI_END) ~ 5.7e-75, past every shell
_DEEP_TABLE = "0 0\n1e-100 1e-30\n1e-2 1.5e-30\n1 2e-30\n"


@pytest.mark.parametrize("table, knot", [(_DEEP_TABLE, 1e-100), ("0 0\n4e-75 4e-75\n1 0.5\n", 4e-75)])
def test_dini_tail_of_a_table_sums_its_pieces(tmp_path, table, knot):
    path = tmp_path / "deep.txt"
    path.write_text(table)
    mu = load_custom_modulus(path)
    x = math.exp(-_DINI_END)
    # mu(s)/s below x on panels a decade wide or less, scaled to order 1,
    # as mpmath's quad stops on an absolute error
    scale = mu.eval(x)
    panels = [0.0, *np.geomspace(knot, x, 30)]
    expected = scale * mpmath.quad(lambda s: mu.eval(float(s)) / scale / s, panels)
    assert _dini_tail(mu, _DINI_END) == pytest.approx(float(expected), rel=1e-12, abs=0.0)
    # a table with no knot below x is linear there: the tail is slope_1 x
    assert _dini_tail(_kinked(tmp_path), _DINI_END) == pytest.approx(x, rel=1e-15, abs=0.0)


def _fake_shells(monkeypatch):
    """Shells w^-0.95 (log w)^-2: c1 = 0.95 is on the boundary band and
    c2 = 2 makes the verdict convergent, whatever the modulus."""
    w0, ln2 = math.log(100.0), math.log(2.0)
    w = w0 + (np.arange(240) + 0.5) * ln2
    shells = w ** -0.95 * np.log(w) ** -2.0
    monkeypatch.setattr(modulus_module, "_dini_shells", lambda *args: (shells, w0))
    return shells


def test_classifier_total_adds_the_exact_tail_to_the_shells(monkeypatch):
    shells = _fake_shells(monkeypatch)
    mu = catalog_make("invlog", p=2.0)
    result = classify_dini(mu)
    assert result.dini_verdict is Verdict.CONVERGENT
    assert result.total_estimate == pytest.approx(np.sum(shells) + _dini_tail(mu, _DINI_END),
                                                  rel=1e-15)


def test_classifier_gives_no_total_for_a_diverging_model(monkeypatch):
    # invlog p = 1 has an infinite tail past the last shell
    _fake_shells(monkeypatch)
    result = classify_dini(catalog_make("invlog", p=1.0))
    assert result.dini_verdict is Verdict.CONVERGENT
    assert result.total_estimate is None


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_classifier_inconclusive_when_every_shell_is_continuation(p):
    # the continuation point w* ~ 190 lies past the deepest shell's end
    # (w ~ 171), where the linear continuation is ~1e75
    mu = catalog_make("iterlog", p=p, depth=3)
    assert mu.continuation_point < 0.01 * 2.0 ** -240
    result = classify_dini(mu)
    assert result.dini_verdict is Verdict.INCONCLUSIVE
    assert result.total_estimate is None


def test_classifier_memory_stays_small():
    mu = catalog_make("invlog", p=2.0)
    tracemalloc.start()
    try:
        classify_dini(mu)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def test_classifier_divergent_partial_sums_grow():
    result = classify_dini(catalog_make("invlog", p=1.0))
    shells = result.dini_partial_sums
    running = np.cumsum(shells)
    # S_k ~ log(2)/k, so the running sum keeps growing like log k
    assert running[-1] > 1.2 * running[len(running) // 4]


# A concave table whose kinks at 1e-12 and 1e-6 fall inside shells; unsplit,
# the shell of the one at 1e-12 is so small that the 21-point error estimate
# saturates (equals resasc) while still under the absolute tolerance.
_KINKED_TABLE = "0 0\n1e-12 1e-12\n1e-6 1e-8\n1e-2 2e-5\n1 1e-4\n"


def _kinked(tmp_path):
    path = tmp_path / "kinked.txt"
    path.write_text(_KINKED_TABLE)
    return load_custom_modulus(path)


def _kink_ws(mu):
    """w = log(1/s) at the kinks of mu(exp(-w)): a table's knots, or s*."""
    if mu.table_s is not None:
        return -np.log(mu.table_s[1:])
    return np.array([-math.log(mu.continuation_point)])


def _shell_edges(shells=240, base=0.01):
    return -math.log(base) + np.arange(shells + 1) * math.log(2.0)


def _shells_by_quad(mu, epsabs=1e-10, epsrel=1e-10):
    """The per-shell loop that `_dini_shells` replaced: one scalar quad each,
    given the kinks inside the shell as break points."""
    edges, kinks = _shell_edges(), _kink_ws(mu)
    out = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        points = kinks[(kinks > lo) & (kinks < hi)]
        out.append(quad(mu.eval_neglog, lo, hi, epsabs=epsabs, epsrel=epsrel, limit=200,
                        points=points if points.size else None)[0])
    return np.array(out)


# entries with a kink inside a Dini shell: iterlog's continuation point, a table's knots
_KINKED_ENTRIES = [("iterlog", 3.0, 1), ("iterlog", 2.0, 2), ("kinked", None, None)]


@pytest.mark.parametrize("entry", CATALOG + _KINKED_ENTRIES,
                         ids=lambda e: "-".join(str(v) for v in e if v is not None))
def test_dini_shells_match_scalar_quad(tmp_path, entry):
    kind, p, depth = entry
    mu = _kinked(tmp_path) if kind == "kinked" else catalog_make(kind, p=p, depth=depth)
    shells, _ = _dini_shells(mu)
    np.testing.assert_allclose(shells, _shells_by_quad(mu), rtol=1e-13, atol=0.0)
    # a shell that holds a kink is split there, so it is as good as a tight oracle
    edges, kinks = _shell_edges(), _kink_ws(mu)
    kinked = np.unique(np.searchsorted(edges, kinks[(kinks > edges[0]) & (kinks < edges[-1])]) - 1)
    assert (kinked.size > 0) == (entry in _KINKED_ENTRIES)
    tight = _shells_by_quad(mu, epsabs=0.0, epsrel=1e-13)
    np.testing.assert_allclose(shells[kinked], tight[kinked], rtol=1e-13, atol=0.0)


# -- shell_integrals: panels split at their breaks, and a refused piece raises


def _vee(x, c=1.0 / 3.0):
    """|x - c|, kinked at c."""
    return np.abs(x - c)


def test_shell_integrals_raises_on_a_refused_piece():
    with pytest.raises(ModulusError, match=r"refused the piece \[0, 1\]"):
        shell_integrals(_vee, [0.0, 1.0], epsabs=1e-10, epsrel=1e-10)


def test_shell_integrals_splits_a_panel_at_its_break():
    c = 1.0 / 3.0
    (value,) = shell_integrals(_vee, [0.0, 1.0], epsabs=1e-10, epsrel=1e-10, breaks=[c])
    assert abs(value - (c ** 2 / 2 + (1 - c) ** 2 / 2)) <= 1e-15


def test_shell_integrals_ignores_breaks_on_edges_and_outside():
    edges = np.linspace(0.5, 3.0, 6)
    plain = shell_integrals(np.exp, edges, epsabs=1e-10, epsrel=1e-10)
    for breaks in ([1.0, 2.5], [-1.0, 3.0, 7.0], [-np.inf, np.inf], edges):
        out = shell_integrals(np.exp, edges, epsabs=1e-10, epsrel=1e-10, breaks=breaks)
        assert np.array_equal(out, plain)


def test_shell_integrals_accepts_a_subnormal_staircase():
    # mu(c2 r^{-1/2}) with c2 ~ 1e-300 goes through exp(-w), which is subnormal
    # past w ~ 708: a staircase whose error estimate saturates, worth <= epsabs
    mu = parse_modulus_spec("logplus:p=0.5")
    report = blowup_certificate(mu, 1, y_r0=1e-300, constant=weight_bound_constant(1, 16.0),
                                r0=16.0)
    assert report.verdict == "bounded-no-witness"
    assert 0.0 < report.lhs_final < report.budget


def test_no_piece_is_refused_over_catalog_and_random_tables(tmp_path):
    rng = np.random.default_rng(20261019)
    moduli = _entries()
    for i in range(5):
        # a random concave table: knots over 14 decades, decreasing positive slopes
        s = np.concatenate([[0.0], np.sort(10.0 ** rng.uniform(-14, 0.5, rng.integers(3, 9)))])
        slopes = np.sort(np.exp(rng.normal(0.0, 3.0, s.size - 1)))[::-1]
        mu = np.concatenate([[0.0], np.cumsum(slopes * np.diff(s))])
        path = tmp_path / f"table{i}.txt"
        np.savetxt(path, np.column_stack([s, mu]))
        moduli.append(load_custom_modulus(path))
    for mu in moduli + [_kinked(tmp_path)]:
        # a table's Dini integral converges, as mu(s) <= slope_1 s
        assert classify_dini(mu).dini_verdict is mu.analytic_dini_label
        for n in (1, 2):
            constant = weight_bound_constant(n, 16.0)
            for y_r0 in (1e-300, 1e-20, 0.02, 5.0):
                for r_max in (1e300, 160.0):
                    blowup_certificate(mu, n, y_r0, constant, 16.0, r_max=r_max)


# -- the composed nonlinearity ----------------------------------------


def test_h_eval_power_example():
    h = Nonlinearity(catalog_make("power", p=1.0), 2)
    assert h.h_eval(0.5) == pytest.approx(0.125, rel=1e-14)
    assert h.h_eval(0.0) == 0.0
    assert h.h_eval(-0.5) == pytest.approx(0.125, rel=1e-14)


def test_h_eval_invlog_against_mpmath():
    h = Nonlinearity(catalog_make("invlog", p=2.0), 2)
    s = math.exp(-4.0)
    with mpmath.workdps(50):
        expected = float(mpmath.exp(-8) / 16)
    assert h.h_eval(s) == pytest.approx(expected, rel=1e-13)


def test_h_convexity_power_cubic():
    # n=2, mu(s)=s: h(s)=s^3 with h'' = 6s > 0.
    assert check_h_convexity(Nonlinearity(catalog_make("power", p=1.0), 2)) >= 0.0


def test_h_convexity_invlog_bracket_limit():
    # n=1: the bracket is 6 mu + o(mu); its ratio to 6 mu tends to 1.
    nl = Nonlinearity(catalog_make("invlog", p=1.0), 1)
    mu = nl.modulus
    for s, tol in ((1e-4, 0.2), (1e-10, 0.06)):
        bracket = (2.0 * 3.0 * mu.eval(s) + 2.0 * 3.0 * s * mu.deriv(s, 1)
                   + s ** 2 * mu.deriv(s, 2))
        assert bracket / (6.0 * mu.eval(s)) == pytest.approx(1.0, abs=tol)
    assert check_h_convexity(nl) >= -1e-10


def test_h_convexity_logplus():
    convexity_min = check_h_convexity(Nonlinearity(catalog_make("logplus", p=1.0), 2))
    assert convexity_min >= -1e-10


def test_power_forcing_oracle():
    pf = PowerForcing(1.5)
    assert pf.h_eval(4.0) == pytest.approx(8.0, rel=1e-14)
    with pytest.raises(ModulusError):
        PowerForcing(1.0)


@pytest.mark.parametrize("q", [math.inf, math.nan, 1.0, -math.inf])
def test_power_forcing_needs_a_finite_exponent_above_one(q):
    # q = inf would make h vanish below |s| = 1 and overflow above it
    with pytest.raises(ModulusError, match=str(q)):
        PowerForcing(q)


# -- spec strings and custom tables -----------------------------------


def test_parse_format_roundtrip():
    for text in ("power:p=1.0", "logplus:p=2.0", "invlog:p=1.0",
                 "iterlog:p=1.0,depth=2"):
        mu = parse_modulus_spec(text)
        assert parse_modulus_spec(format_modulus_spec(mu)).params == mu.params


def test_parse_rejects_bad_parameters():
    for text in ("invlog:p=0", "power:p=-1", "iterlog:p=1.0,depth=0",
                 "iterlog:p=1.0,depth=1.5", "unknown:p=1"):
        with pytest.raises((ModulusError, ValueError)):
            parse_modulus_spec(text)
    # mu(s*) must be a positive normal double: invlog's is subnormal from
    # p = 143 on, and its s* = exp(-801) is 0 at p = 800
    for p, spec in (("143", "invlog:p=143"), ("800", "invlog:p=800"),
                    ("1000", "iterlog:p=1000,depth=1")):
        with pytest.raises(ModulusError, match=f"p={p} "):
            parse_modulus_spec(spec)
    assert parse_modulus_spec("invlog:p=142").continuation_point > 0.0
    # exp^(depth)(1/2) must stay inside the concavity scan, so depth is 1, 2 or 3
    for depth in ("4", "5", "1e30", "inf", "nan"):
        with pytest.raises(ModulusError, match="depth"):
            parse_modulus_spec(f"iterlog:p=1.0,depth={depth}")


def test_custom_table_modulus(tmp_path):
    s = np.linspace(0.0, 1.0, 200)
    table = tmp_path / "table.txt"
    table.write_text("\n".join(f"{a} {math.sqrt(a)}" for a in s))
    mu = load_custom_modulus(table)
    assert mu(0.25) == pytest.approx(0.5, rel=1e-3)
    mid = deriv_fd(mu, 0.25, 1)
    assert mid == pytest.approx(1.0, rel=1e-2)


def test_custom_table_derivatives_are_segment_slopes(tmp_path):
    table = tmp_path / "table.txt"
    table.write_text("0 0\n0.1 0.2\n0.5 0.6\n1.0 0.8\n")
    mu = load_custom_modulus(table)
    # inside segments, at the knots (the left segment's slope) and past the table
    s = np.array([0.05, 0.1, 0.3, 0.5, 0.7, 1.0, 2.0])
    np.testing.assert_allclose(mu.deriv(s, 1), [2.0, 2.0, 1.0, 1.0, 0.4, 0.4, 0.4],
                               rtol=1e-12)
    assert np.all(mu.deriv(s, 2) == 0.0)
    # the continuation keeps the last value and slope
    assert mu(2.0) == pytest.approx(1.2, rel=1e-12)


@pytest.mark.parametrize("row", ["0.1 nan", "0.1 inf", "inf 1"])
def test_custom_table_rejects_non_finite(tmp_path, row):
    table = tmp_path / "bad.txt"
    table.write_text(f"0 0\n0.05 0.1\n{row}\n")
    with pytest.raises(ModulusError, match="non-finite"):
        load_custom_modulus(table)


def test_custom_table_must_be_concave(tmp_path):
    concave = tmp_path / "concave.txt"
    concave.write_text("0 0\n0.25 0.5\n0.5 0.7\n1.0 0.9\n")
    assert load_custom_modulus(concave)(0.5) == pytest.approx(0.7)
    # secant slopes 0.2 then 1.8: monotone but convex
    convex = tmp_path / "convex.txt"
    convex.write_text("0 0\n0.5 0.1\n1.0 1.0\n")
    with pytest.raises(ModulusError, match="concave"):
        load_custom_modulus(convex)


def test_forcing_spec_oracle_and_modulus():
    oracle = parse_forcing_spec("oracle:q=1.5", 1)
    assert isinstance(oracle, PowerForcing) and oracle.exponent == 1.5
    forcing = parse_forcing_spec("invlog:p=2", 2)
    assert isinstance(forcing, Nonlinearity) and forcing.dimension == 2


@pytest.mark.parametrize("text", ["oracle:p=2", "oracle:", "oracle:q=", "oracle:q=abc",
                                  "oracle:q=1.5,p=2"])
def test_forcing_spec_rejects_malformed_oracle(text):
    with pytest.raises(ModulusError, match="oracle:q=<number>"):
        parse_forcing_spec(text, 1)


def test_custom_table_rejects_nonmonotone(tmp_path):
    table = tmp_path / "bad.txt"
    table.write_text("0 0\n0.5 0.9\n1.0 0.1\n")
    with pytest.raises(ModulusError):
        load_custom_modulus(table)
