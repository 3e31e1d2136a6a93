"""Rate fitting, frames, certification, splitting."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from pstrata import strata
from pstrata.catalog import get_bundle, random_block_action
from pstrata.errors import (
    FrameRejected,
    NoStableFit,
    NotABoundary,
    RateOutOfRange,
)
from pstrata.gmodule import GroupAction, check_invariance, lower_p_series
from pstrata.lattice import Lattice
from pstrata.strata import (
    CycleCertificate,
    RateVector,
    approximate_term,
    certify_equivalence,
    detect_cycle,
    estimate_rates,
    extract_frame,
    _fit_offset,
    fit_rational,
    fixed_space_rows,
    run_stratification,
    strata_split,
)

F = Fraction


def seq(fn, n=12):
    return [(i, fn(i)) for i in range(1, n + 1)]


class TestFitRational:
    def test_exact_lines(self):
        assert fit_rational(seq(lambda i: i), 4) == (F(1), 0)
        assert fit_rational(seq(lambda i: i // 2), 4) == (F(1, 2), 0)
        assert fit_rational(seq(lambda i: (2 * i) // 3), 4) == (F(2, 3), 0)

    def test_residual_is_reported(self):
        assert fit_rational(seq(lambda i: i - 1), 4) == (F(1), 1)
        # the anchored objective measures worst deviation from floor(i xi),
        # and ties go to the smaller denominator: 1/2 and 1/3 both reach
        # residual 2 on this window
        assert fit_rational(seq(lambda i: i // 3 + 2), 4) == (F(1, 2), 2)

    def test_window_too_short_for_denominator(self):
        with pytest.raises(ValueError):
            fit_rational(seq(lambda i: i, 5), 4)

    def test_noise_gives_no_stable_fit(self):
        noisy = [0, 5, 0, 7, 1, 9, 0, 11, 2, 0, 1, 30]
        with pytest.raises(NoStableFit):
            fit_rational([(i, noisy[i - 1]) for i in range(1, 13)], 4)

    def test_tie_prefers_smaller_denominator(self):
        # floor(i * 1/2) fits the data exactly, so no larger-denominator
        # candidate with equal residual may win
        xi, res = fit_rational(seq(lambda i: i // 2, 22), 10)
        assert (xi, res) == (F(1, 2), 0)


@st.composite
def fit_inputs(draw):
    """Samples (i, m_i) with a residual cap and a denominator bound."""
    n = draw(st.integers(min_value=2, max_value=60))
    start = draw(st.integers(min_value=1, max_value=4))
    idx = range(start, start + n)
    kind = draw(st.sampled_from(["line", "blocks", "noise"]))
    if kind == "line":
        # a random slope, a constant offset, and optionally bounded noise
        num = draw(st.integers(min_value=0, max_value=12))
        den = draw(st.integers(min_value=1, max_value=12))
        off = draw(st.integers(min_value=-3, max_value=3))
        noise = draw(st.lists(st.integers(min_value=-2, max_value=2), min_size=n, max_size=n)
                     | st.just([0] * n))
        ms = [i * num // den + off + e for i, e in zip(idx, noise)]
    elif kind == "blocks":
        # one order statistic of interleaved block transients (i + k) // q
        qs = draw(st.lists(st.integers(min_value=1, max_value=8), min_size=1, max_size=3))
        j = draw(st.integers(min_value=0, max_value=sum(qs) - 1))
        ms = [sorted((i + k) // q for q in qs for k in range(q))[j] for i in idx]
    else:
        ms = draw(st.lists(st.integers(min_value=0, max_value=40), min_size=n, max_size=n))
    bound = draw(st.integers(min_value=0, max_value=(n - 2) // 2 + 1))
    cap = draw(st.sampled_from([None, 0, 1, 3]))
    return list(zip(idx, ms)), bound, cap


def _outcome(fit, *args):
    try:
        return fit(*args)
    except (NoStableFit, oracles.NoFit) as err:
        return "NoStableFit", str(err)
    except ValueError as err:
        return "ValueError", str(err)


@settings(max_examples=300, deadline=None)
@given(fit_inputs(), st.booleans())
def test_fitters_match_the_brute_force_oracle(case, offset):
    # the pruned integer fitter returns the least (residual, denominator,
    # value) over the full candidate set, or raises the same error
    samples, bound, cap = case
    fit = _fit_offset if offset else fit_rational
    expected = _outcome(lambda *a: oracles.brute_fit(*a, offset=offset), samples, bound, cap)
    assert _outcome(fit, samples, bound, cap) == expected


def test_one_fit_per_distinct_profile_column(monkeypatch):
    b = get_bundle("remark27")
    tr = lower_p_series(b.lattice, b.action, 24)
    fitted = []

    def counting(samples, denom_bound, residual_cap=None):
        fitted.append(tuple(m for _, m in samples))
        return fit_rational(samples, denom_bound, residual_cap)

    monkeypatch.setattr(strata, "fit_rational", counting)
    rates = estimate_rates(tr, denom_bound=8).rates
    assert rates == (F(1, 4),) * 8 + (F(1, 2),) * 8
    columns = {tuple(tr.profiles[i][k] for i in range(1, 25)) for k in range(16)}
    assert len(columns) == 9
    assert sorted(fitted) == sorted(columns)


class TestRateVector:
    def test_validation(self):
        with pytest.raises(RateOutOfRange):
            RateVector((F(1, 2), F(1, 3)))  # must ascend
        with pytest.raises(RateOutOfRange):
            RateVector((F(0), F(1)))  # rates live in (0, 1]
        with pytest.raises(RateOutOfRange):
            RateVector((F(1, 2), F(3, 2)))

    def test_sigma(self):
        rv = RateVector((F(1, 3), F(1, 2), F(1, 2)))
        assert rv.sigma == F(4, 3)


class TestCycles:
    def test_trivial_action_has_unit_cycle(self):
        L = Lattice.standard(2, 10, 2)
        act = GroupAction.build(2, 10, [[[1, 0], [0, 1]]])
        tr = lower_p_series(L, act, 8)
        assert detect_cycle(tr) == CycleCertificate(j=0, m=1, n=1)

    def test_eisenstein_cycle(self):
        b = get_bundle("eisenstein2")
        tr = lower_p_series(b.lattice, b.action, 16)
        cert = detect_cycle(tr)
        assert cert == CycleCertificate(j=0, m=2, n=1)
        assert cert.rate == F(1, 2)

    def test_no_cycle_on_mixed_rates(self):
        b = get_bundle("Gm2")
        tr = lower_p_series(b.lattice, b.action, 20)
        assert detect_cycle(tr) is None


class TestFrames:
    def test_eisenstein_run(self):
        b = get_bundle("eisenstein2")
        tr = lower_p_series(b.lattice, b.action, 16)
        strat, cert = run_stratification(tr, denom_bound=8)
        assert strat.status == "exact-cycle"
        assert strat.rates.rates == (F(1, 2), F(1, 2))
        assert strat.c == 1
        assert cert is not None
        assert strat.window == (0, 16)

    def test_gm2_run(self):
        b = get_bundle("Gm2")
        tr = lower_p_series(b.lattice, b.action, 24)
        strat, cert = run_stratification(tr, denom_bound=8)
        assert strat.status == "certified-window"
        assert strat.rates.rates == (F(1, 3),) * 3 + (F(1, 2),) * 2
        assert cert is None

    def test_wrong_rates_are_rejected(self):
        b = get_bundle("eisenstein2")
        tr = lower_p_series(b.lattice, b.action, 16)
        with pytest.raises(FrameRejected):
            extract_frame(tr, RateVector((F(1), F(1))))

    def test_certification_is_independent(self):
        b = get_bundle("Gm2")
        tr = lower_p_series(b.lattice, b.action, 24)
        strat, _ = run_stratification(tr, denom_bound=8)
        assert certify_equivalence(tr, strat) == strat.c
        # a tight cap refuses rather than stretching the constant
        assert certify_equivalence(tr, strat, c_cap=0) is None

    def test_approximate_terms_are_invariant(self):
        b = get_bundle("Gm2")
        tr = lower_p_series(b.lattice, b.action, 24)
        strat, _ = run_stratification(tr, denom_bound=8)
        for i in (1, 5, 12, 24):
            t = approximate_term(strat.frame, strat.rates, i, 2, tr.precision)
            assert check_invariance(t, b.action)

    def test_estimate_rates_matches_run(self):
        b = get_bundle("Gm2")
        tr = lower_p_series(b.lattice, b.action, 24)
        assert estimate_rates(tr, denom_bound=8).rates == (F(1, 3),) * 3 + (F(1, 2),) * 2

    def test_rate_fit_stable_under_window_truncation(self):
        # the fitted rates must not depend on how much of the series we saw,
        # once past the stabilisation point
        b = get_bundle("Gm2")
        full = lower_p_series(b.lattice, b.action, 30)
        short = lower_p_series(b.lattice, b.action, 22)
        assert (
            estimate_rates(full, denom_bound=8).rates
            == estimate_rates(short, denom_bound=8).rates
        )


block_sizes = st.lists(st.integers(1, 4), min_size=1, max_size=3).map(tuple).filter(
    lambda s: sum(s) <= 8)


@settings(max_examples=150, deadline=None)
@given(block_sizes, st.integers(0, 10**6), st.sampled_from([2, 3]), st.integers(4, 32))
def test_what_the_construction_guarantees(sizes, seed, p, i_max):
    """The facts the library proves instead of re-checking at run time."""
    b = random_block_action(sizes, seed, p=p, N=i_max + 2)
    tr = lower_p_series(b.lattice, b.action, i_max)
    for prev, term in zip(tr.terms, tr.terms[1:]):
        assert check_invariance(term, b.action)
        assert prev.contains(term)
        assert all(term.solve([p * x for x in row]) is not None for row in prev.basis)
    try:
        strat, _ = run_stratification(tr)
    except (FrameRejected, NoStableFit, RateOutOfRange):
        return
    for i in range(1, i_max + 1):
        model = approximate_term(strat.frame, strat.rates, i, p, tr.precision)
        assert check_invariance(model, b.action)
    assert certify_equivalence(tr, strat) == strat.c


class TestGraphRepair:
    def test_slow_stratum_on_a_twisted_graph(self):
        # the invariant slow stratum here is a graph {(v, v.f)} whose slope f
        # is not visible in any coordinate subspace; the frame has to be
        # deformed onto it before certification can succeed
        g = [[1, 0, 1, 0], [2, 1, 0, 6], [0, 2, 1, 0], [0, 0, 0, 3]]
        act = GroupAction.build(2, 50, [g])
        tr = lower_p_series(Lattice.standard(2, 50, 4), act, 48)
        strat, _ = run_stratification(tr, denom_bound=4)
        assert strat.rates.rates == (F(2, 3),) * 3 + (F(1),)
        assert strat.c == 1
        pN = 2**50
        tau = [strat.frame[r][3] - pN for r in range(3)]
        assert tau == [-3, -6, -6]
        assert strat.frame[3] == (0, 0, 0, 1)


class TestSplit:
    def test_remark27_boundary(self):
        b = get_bundle("remark27")
        tr = lower_p_series(b.lattice, b.action, 24)
        strat, _ = run_stratification(tr, denom_bound=8)
        assert strat.rates.rates == (F(1, 4),) * 8 + (F(1, 2),) * 8
        sp = strata_split(strat, 8, b.action)
        assert len(sp.prefix_rows) == 8
        assert sp.sub_action.d == 8 and sp.quotient_action.d == 8
        # sub-series of the slow stratum runs at its own rate
        sub_tr = lower_p_series(
            Lattice.standard(2, sp.sub_action.N, 8), sp.sub_action, 24
        )
        sst, _ = run_stratification(sub_tr, denom_bound=8)
        assert sst.rates.rates == (F(1, 4),) * 8
        q_tr = lower_p_series(
            Lattice.standard(2, sp.quotient_action.N, 8), sp.quotient_action, 24
        )
        qst, _ = run_stratification(q_tr, denom_bound=8)
        assert qst.rates.rates == (F(1, 2),) * 8

    def test_interior_cut_is_refused(self):
        b = get_bundle("remark27")
        tr = lower_p_series(b.lattice, b.action, 24)
        strat, _ = run_stratification(tr, denom_bound=8)
        with pytest.raises(NotABoundary):
            strata_split(strat, 4, b.action)


def test_fixed_space_remark27():
    b = get_bundle("remark27")
    rows = fixed_space_rows(b.action)
    assert len(rows) == 8
    supports = [tuple(i for i, x in enumerate(r) if x) for r in rows]
    assert supports == [(4,), (5,), (6,), (7,), (12,), (13,), (14,), (15,)]
