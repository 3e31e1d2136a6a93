"""Rate fitting, frames, certification, splitting."""

import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import Phase, find, given, settings, strategies as st

import oracles
from test_lattice import _conjugated
from pstrata import strata
from pstrata.catalog import (
    build_Gm_lattice, catalog_names, get_bundle, random_block_action, random_sizes,
)
from pstrata.errors import (
    FrameRejected,
    NoStableFit,
    NotABoundary,
    NotInvariant,
    RateOutOfRange,
)
from pstrata.gmodule import GroupAction, check_invariance, lower_p_series, restrict_action
from pstrata.lattice import Lattice
from pstrata.padic import identity, mat_mul, unimodular_inverse
from pstrata.strata import (
    CycleCertificate,
    RateVector,
    Stratification,
    certify_equivalence,
    detect_cycle,
    estimate_rates,
    extract_frame,
    fit_rational,
    run_stratification,
    strata_split,
)

F = Fraction


def seq(fn, n=12):
    return [fn(i) for i in range(1, n + 1)]


class TestFitRational:
    def test_exact_lines(self):
        # (rate, j): the period holds from the first sample on
        assert fit_rational(seq(lambda i: i), 4) == (F(1), 1)
        assert fit_rational(seq(lambda i: i // 2), 4) == (F(1, 2), 1)
        assert fit_rational(seq(lambda i: (2 * i) // 3), 4) == (F(2, 3), 1)

    def test_window_too_short_for_denominator(self):
        # period 3 holds over 5 steps of 6 samples, short of the 2m = 6 it needs
        with pytest.raises(NoStableFit, match=r"no period m <= 4 holds over the last 3 of 6 "
                                              r"samples \(best: m = 3 over 5\)"):
            fit_rational(seq(lambda i: i // 3, 6), 4)
        assert fit_rational(seq(lambda i: i // 3, 7), 4) == (F(1, 3), 1)

    def test_fewer_than_two_samples_are_refused(self):
        for column in ([], [1]):
            with pytest.raises(NoStableFit, match=r"\(best: none\)"):
                fit_rational(column, 1)

    def test_denominator_bound_below_one_is_refused(self):
        # at bound 0 no period is read at all
        for bound in (0, -1):
            with pytest.raises(ValueError, match=f"denominator bound {bound} is below 1"):
                fit_rational([5, 5, 5], bound)

    def test_fractional_values_are_refused(self):
        # 1.5, 2.5, .. are not truncated to the rate-1 column 1, 2, ..
        with pytest.raises(ValueError, match="must be an integer, got 1.5"):
            fit_rational([1.5, 2.5, 3.5, 4.5], 2)

    def test_displaced_block_fits_its_true_rate(self):
        # Gm4's 1/7 block lags floor(i/7) by up to 6/7; its columns still
        # repeat with period 7 and shift 1
        b = build_Gm_lattice(4)
        tr = lower_p_series(b.lattice, b.action, 64)
        for k in range(3, 7):
            col = [tr.profiles[i][k] for i in range(1, 65)]
            rate, j = fit_rational(col, 31)
            assert rate == F(1, 7) and 64 - j >= 32

    def test_noise_gives_no_stable_fit(self):
        noisy = [0, 5, 0, 7, 1, 9, 0, 11, 2, 0, 1, 30]
        with pytest.raises(NoStableFit):
            fit_rational(noisy, 4)

    def test_tie_prefers_smaller_denominator(self):
        # every even period holds on floor(i/2) as well; the least one wins
        assert fit_rational(seq(lambda i: i // 2, 22), 10) == (F(1, 2), 1)


@st.composite
def period_columns(draw):
    """Consecutive samples (i, m_i) and a period bound."""
    n = draw(st.integers(min_value=0, max_value=60))
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
    bound = draw(st.integers(min_value=0, max_value=n // 2 + 2))
    return list(zip(idx, ms)), bound


def _outcome(read, *args):
    try:
        return read(*args)
    except (NoStableFit, ValueError) as err:
        return type(err).__name__, str(err)


@settings(max_examples=300, deadline=None)
@given(period_columns())
def test_period_reader_matches_the_brute_force_oracle(case):
    # the backward scan per m returns what checking every m and every
    # start directly returns, or raises the same error and message; the
    # oracle reads indices from start on, fit_rational from 1 on
    samples, bound = case
    got = _outcome(fit_rational, [m for _, m in samples], bound)
    if isinstance(got[0], Fraction):
        got = got[0], got[1] + samples[0][0] - 1
    assert got == _outcome(oracles.brute_period, samples, bound)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_a_displaced_line_gets_its_slope(data):
    # floor(i n/m) plus a displacement that is constant from i0 on: once the
    # constant stretch spans 2m steps and half the window, n/m is read off
    # it.  No smaller period passes: with m'n/m not an integer, the shift
    # floor((i + m')n/m) - floor(i n/m) takes two values in every m
    # consecutive i, and the stretch holds m of them since L >= 4m
    m = data.draw(st.integers(1, 8))
    n = data.draw(st.integers(0, 2 * m).filter(lambda n: math.gcd(n, m) == 1))
    start = data.draw(st.integers(1, 5))
    L = data.draw(st.integers(4 * m, 80))
    i_hi = start + L - 1
    i0 = data.draw(st.integers(start, i_hi - max(2 * m, L // 2)))
    c = data.draw(st.integers(-3, 3))
    early = data.draw(st.lists(st.integers(-3, 3), min_size=i0 - start, max_size=i0 - start))
    shift = early + [c] * (i_hi - i0 + 1)
    column = [i * n // m + e for i, e in zip(range(start, i_hi + 1), shift)]
    rate, j = fit_rational(column, data.draw(st.integers(m, m + 5)))
    assert rate == F(n, m) and j + start - 1 <= i0


def test_one_fit_per_distinct_profile_column(monkeypatch):
    b = get_bundle("remark27")
    tr = lower_p_series(b.lattice, b.action, 24)
    fitted = []

    def counting(column, denom_bound):
        fitted.append(tuple(column))
        return fit_rational(column, denom_bound)

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
        with pytest.raises(ValueError, match="empty rate vector"):
            RateVector(())

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

    @pytest.mark.parametrize("p", [2, 3])
    def test_gm2_in_conjugated_coordinates(self, p):
        # g -> U^-1 g U moves the invariant strata off the coordinate axes;
        # the Smith frame's slow prefix is still invariant, which a test
        # against a triangular basis of it (not unique below full rank) misses
        N = 26
        pN = p**N
        b = get_bundle("Gm2", p=p, N=N)
        U = identity(5)
        U[4][1] = -1
        U_inv = unimodular_inverse(U, p, N)
        gens = [mat_mul(mat_mul(U_inv, g, pN), U, pN) for g in b.action.generators]
        act = GroupAction.build(p, N, gens)
        tr = lower_p_series(b.lattice, act, 24)
        strat, cert = run_stratification(tr, denom_bound=8)
        assert cert is None
        assert strat.rates.rates == (F(1, 3),) * 3 + (F(1, 2),) * 2
        assert strat.c == 1
        assert oracles.window_constant_by_lattices(tr, strat.frame, strat.rates) == 1
        for i in (1, 7, 24):
            t = oracles.approximate_term(strat.frame, strat.rates, i, p, tr.precision)
            assert check_invariance(t, act)

    def test_wrong_rates_are_rejected(self):
        b = get_bundle("eisenstein2")
        tr = lower_p_series(b.lattice, b.action, 16)
        with pytest.raises(FrameRejected):
            extract_frame(tr, RateVector((F(1), F(1))))
        with pytest.raises(ValueError, match="rate vector has 3 entries for dimension 2"):
            extract_frame(tr, RateVector((F(1),) * 3))

    def test_certification_is_independent(self):
        # run_stratification and certify_equivalence share _window_constant,
        # so c is checked against the definition by model lattices
        b = get_bundle("Gm2")
        tr = lower_p_series(b.lattice, b.action, 24)
        strat, _ = run_stratification(tr, denom_bound=8)
        assert oracles.window_constant_by_lattices(tr, strat.frame, strat.rates) == strat.c
        assert certify_equivalence(tr, strat) == strat.c
        # the cap max(1, i_max // 4) refuses rather than stretching the
        # constant: at imax 8 (cap 2) wrong rates on the certified frame
        # need c = 6
        tr = lower_p_series(b.lattice, b.action, 8)
        strat, _ = run_stratification(tr, denom_bound=3)
        assert certify_equivalence(tr, strat) == strat.c == 1
        wrong = replace(strat, rates=RateVector((F(1),) * 5))
        assert oracles.window_constant_by_lattices(tr, wrong.frame, wrong.rates) == 6
        assert certify_equivalence(tr, wrong) is None

    def test_approximate_terms_are_invariant(self):
        b = get_bundle("Gm2")
        tr = lower_p_series(b.lattice, b.action, 24)
        strat, _ = run_stratification(tr, denom_bound=8)
        for i in (1, 5, 12, 24):
            t = oracles.approximate_term(strat.frame, strat.rates, i, 2, tr.precision)
            assert check_invariance(t, b.action)

    def test_estimate_rates_matches_run(self):
        b = get_bundle("Gm2")
        tr = lower_p_series(b.lattice, b.action, 24)
        assert estimate_rates(tr, denom_bound=8).rates == (F(1, 3),) * 3 + (F(1, 2),) * 2

    @pytest.mark.parametrize("bound", [0, -1])
    def test_denominator_bound_below_one_is_refused(self, bound):
        # the 64-sample window is long enough; the bound is what is out of range
        b = get_bundle("Gm2")
        tr = lower_p_series(b.lattice, b.action, 64)
        assert tr.cycle is None  # so run_stratification reaches the fit
        for call in (estimate_rates, run_stratification):
            with pytest.raises(ValueError, match=f"denominator bound {bound} is below 1"):
                call(tr, denom_bound=bound)

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
        model = oracles.approximate_term(strat.frame, strat.rates, i, p, tr.precision)
        assert check_invariance(model, b.action)
    assert oracles.window_constant_by_lattices(tr, strat.frame, strat.rates) == strat.c


def _unimodular(rng, d, p, N):
    """A random d x d integer matrix invertible over Z_p."""
    while True:
        grid = [[rng.randrange(p**N) for _ in range(d)] for _ in range(d)]
        if oracles.det_valuation_is_zero(grid, p):
            return grid


def _sheared(frame, rng, p):
    """The frame with p^s times one row added to another, 0 <= s < 4.

    A frame one row operation from a certified one: where a slow row takes
    on p^s times a fast one, c depends on the valuations of the entries of
    F and F^-1, which it does not under equal rates (each row and column
    of F and F^-1 has a unit entry) nor for a frame with only unit entries.
    """
    rows = [list(r) for r in frame]
    if len(rows) > 1:
        r, c = rng.sample(range(len(rows)), 2)
        f = p ** rng.randrange(4)
        rows[r] = [x + f * y for x, y in zip(rows[r], rows[c])]
    return rows


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([2, 3]), st.data())
def test_window_constant_refuses_exactly_the_frames_that_are_not_bases(p, data):
    # _try_frame relies on this instead of a separate rank test mod p
    b = get_bundle("Gm2", p=p, N=10)
    tr = lower_p_series(b.lattice, b.action, 8)
    d = tr.ambient.d
    row = st.lists(st.integers(0, p**3 - 1), min_size=d, max_size=d)
    frame = data.draw(st.lists(row, min_size=d, max_size=d))
    rates = RateVector((F(1, d),) * d)
    if oracles.det_valuation_is_zero(frame, p):
        strata._window_constant(tr, frame, rates)
    else:
        with pytest.raises(ValueError):
            strata._window_constant(tr, frame, rates)


def _constants_agree(tr, frame, rates):
    got = strata._window_constant(tr, frame, rates)
    assert got == oracles.window_constant_by_lattices(tr, frame, rates)
    return got


def _window_constants_agree(tr, rng, rate_vectors):
    """c against the lattice definition for a random frame, the certified one and a shear of it.

    Each frame is tried with each of the given rate vectors and the
    certified rates.
    """
    d, p = tr.ambient.d, tr.ambient.p
    frames = [_unimodular(rng, d, p, tr.precision)]
    try:
        strat, _ = run_stratification(tr)
    except (FrameRejected, NoStableFit, RateOutOfRange):
        pass
    else:
        frames += [strat.frame, _sheared(strat.frame, rng, p)]
        rate_vectors = rate_vectors + [strat.rates]
    for frame in frames:
        for rates in rate_vectors:
            _constants_agree(tr, frame, rates)


@settings(max_examples=60, deadline=None)
@given(block_sizes, st.integers(0, 10**6), st.sampled_from([2, 3]), st.integers(4, 24))
def test_window_constant_matches_the_lattice_definition(sizes, seed, p, i_max):
    """c in frame coordinates equals c from model lattices, for right and wrong rates."""
    b = random_block_action(sizes, seed, p=p, N=i_max + 2)
    tr = lower_p_series(b.lattice, b.action, i_max)
    d = b.action.d
    rate_vectors = [RateVector((F(1, d),) * d), RateVector((F(1),) * d)]
    try:
        rate_vectors.append(estimate_rates(tr))
    except (NoStableFit, RateOutOfRange):
        pass
    _window_constants_agree(tr, random.Random(seed), rate_vectors)


# random block actions, the ramified entries (whose series cycle) and Gm2
catalog_entries = [f"eisenstein{e}" for e in (1, 2, 3, 4)] + ["Gm2"]
instances = st.one_of(
    st.tuples(st.just("random"), block_sizes, st.integers(0, 10**6)),
    st.sampled_from([("catalog", name, 0) for name in catalog_entries]),
)
# catalog entries in coordinates moved by a random U (test_lattice._conjugated):
# most of their terms leave the axes, and a scalar term p^k Z_p^d of a
# ramified entry stays diagonal in any coordinates
conjugated_instances = st.tuples(
    st.just("conjugated"), st.sampled_from(["Gm2", "remark27", "eisenstein3", "eisenstein4"]),
    st.integers(0, 10**6))


def _series(instance, p, i_max, start=0):
    """The series of an instance, restarted at term `start` in that term's coordinates."""
    kind, what, seed = instance
    N = i_max + 2
    if kind == "catalog":
        b = get_bundle(what, p=p, N=N)
        act = b.action
    elif kind == "conjugated":
        b, act = _conjugated(what, p, N, seed)
    else:
        b = random_block_action(what, seed, p=p, N=N)
        act = b.action
    tr = lower_p_series(b.lattice, act, i_max)
    if not start:
        return tr
    act = restrict_action(tr.terms[start], act)
    restarted = lower_p_series(Lattice.standard(p, act.N, act.d), act, i_max - start)
    # the restart is the tail of the series, its indexes counted from term `start`
    assert restarted.log_indices == tuple(x - tr.log_indices[start]
                                          for x in tr.log_indices[start:])
    return restarted


def _is_diagonal(term) -> bool:
    return not any(any(row[k + 1:]) for k, row in enumerate(term.basis))


# conjugated catalog series and plain catalog and random series, each
# from term 0, 1 or 2; conjugation moves most terms off the diagonal
window_draws = st.tuples(conjugated_instances | instances, st.sampled_from([2, 3]),
                         st.integers(6, 16), st.sampled_from([0, 1, 2]))


@settings(max_examples=40, deadline=None)
@given(window_draws)
def test_window_constant_matches_the_lattice_definition_off_the_diagonal(draw):
    """The product-and-solve path for non-diagonal terms, next to the diagonal path."""
    tr = _series(*draw)
    d = tr.ambient.d
    _window_constants_agree(tr, random.Random(draw[0][2]),
                            [RateVector((F(1, d),) * d), RateVector((F(1),) * d)])


def test_window_draws_reach_diagonal_and_non_diagonal_terms():
    """The property above meets a window that takes both paths of _window_constant."""
    def mixed(draw):
        return {_is_diagonal(term) for term in _series(*draw).terms[1:]} == {True, False}

    find(window_draws, mixed, settings=settings(max_examples=100, phases=[Phase.generate],
                                                database=None, deadline=None))


def _cycled_case(name):
    """A pinned cycled trace, with its cycle and certified c."""
    if name == "random seed 6":  # pstrata stratify --catalog random --seed 6 --p 3 --imax 40
        b = random_block_action(random_sizes(random.Random(6)), 6, p=3, N=42)
        return lower_p_series(b.lattice, b.action, 40), CycleCertificate(2, 1, 1), 1
    if name == "eisenstein2":
        b = get_bundle("eisenstein2")
        return lower_p_series(b.lattice, b.action, 16), CycleCertificate(0, 2, 1), 1
    if name == "battery slot 40":  # as perfbench's battery builds it, j + m = 4
        b = random_block_action(random_sizes(random.Random(40 * 7919 + 13)), 40, p=2, N=66)
        return lower_p_series(b.lattice, b.action, 64), CycleCertificate(2, 2, 1), 2
    if name == "trivial":  # a unit cycle from term 0: term i is p^i Z_p^d
        b = get_bundle("trivial")
        return lower_p_series(b.lattice, b.action, 8), CycleCertificate(0, 1, 1), 0
    # terms 1 and 2 are not diagonal, so they take the product and the solves
    b, act = _conjugated("eisenstein3", 3, 18, 2)
    tr = lower_p_series(b.lattice, act, 16)
    assert not any(map(_is_diagonal, tr.terms[1:3]))
    return tr, CycleCertificate(0, 3, 1), 1


cycled_cases = ["random seed 6", "eisenstein2", "battery slot 40", "conjugated eisenstein3",
                "trivial"]


@pytest.mark.parametrize("name", cycled_cases)
def test_the_base_period_gives_the_window_constant(name):
    # c read off each block's profiles over its own terms 1 .. j_s + m_s - 1
    # is the definition's over the whole window; _window_constant, which
    # reads every term, gives the same c for the certified frame and for a
    # random one
    tr, cycle, c = _cycled_case(name)
    strat, cert = run_stratification(tr)
    assert (cert, strat.c, strat.status) == (cycle, c, "exact-cycle")
    assert certify_equivalence(tr, strat) == c
    # under equal rates model_i is p^a Z_p^d for any frame, so both give c
    frame = _unimodular(random.Random(0), tr.ambient.d, tr.ambient.p, tr.precision)
    for f in (strat.frame, frame):
        assert _constants_agree(tr, f, strat.rates) == c


@pytest.mark.parametrize("name", cycled_cases)
def test_other_rates_or_no_cycle_read_the_whole_window(name):
    # other rates are certified term by term over the window; a trace with
    # no block records takes the period fit and the anchor frame, and under
    # equal rates certifies the blocks' c
    tr, cycle, c = _cycled_case(name)
    strat, _ = run_stratification(tr)
    d = tr.ambient.d
    _constants_agree(tr, strat.frame, RateVector((F(1, d),) * (d - 1) + (F(1),)))
    fitted, cert = run_stratification(replace(tr, blocks=()))
    assert (cert, fitted.rates, fitted.c) == (None, strat.rates, c)


def _all_hit_case(name):
    """A pinned trace whose blocks all hit, with a window period but no scalar cycle, and its
    period bound."""
    if name.startswith("battery slot"):  # as perfbench's battery builds it
        k = int(name.split()[-1])
        sizes = random_sizes(random.Random(k * 7919 + 13))
        b = random_block_action(sizes, k, p=2, N=66)
        return lower_p_series(b.lattice, b.action, 64), max(sizes + (2,))
    i_max = 128 if name == "remark27" else 64
    b = get_bundle(name, p=2, N=i_max + 2)
    return lower_p_series(b.lattice, b.action, i_max), 63


@pytest.mark.parametrize("name", [
    "remark27", "Gm3", "battery slot 3", "battery slot 30", "battery slot 31", "battery slot 37",
])
def test_a_graded_period_gives_the_window_constant(name):
    # c read off the blocks' profiles equals the definition over the whole
    # window, which _window_constant reads term by term
    tr, bound = _all_hit_case(name)
    strat, cert = run_stratification(tr, bound)
    assert cert is None and tr.window_period is not None
    assert None not in [hit for *_, hit in tr.blocks]
    assert strat.c == _constants_agree(tr, strat.frame, strat.rates)


def test_frames_or_rates_off_the_shift_classes_read_the_whole_window():
    # frames and rates other than the blocks' are certified term by term
    tr, bound = _all_hit_case("remark27")
    strat, _ = run_stratification(tr, bound)
    assert tr.window_period == (1, 4, (1,) * 8 + (2,) * 8)
    d = tr.ambient.d
    # row 0 = e_0 + e_8 keeps a Z_p-basis, as rows 0 and 8 are e_0 and e_8,
    # but spans coordinates of both blocks
    assert [list(strat.frame[0]), list(strat.frame[8])] == [identity(d)[0], identity(d)[8]]
    spanning = [[int(r in (0, 8)) for r in range(d)]] + [list(x) for x in strat.frame[1:]]
    # rates other than the blocks' n_s/m_s
    thirds = RateVector((F(1, 3),) * 8 + (F(1, 2),) * 8)
    for frame, rates in [(spanning, strat.rates), (strat.frame, thirds)]:
        _constants_agree(tr, frame, rates)


@pytest.mark.parametrize("p", [2, 3])
def test_the_block_constant_holds_past_the_window(p):
    # c certified at imax 32 off the blocks is the definition's over the
    # imax-96 series with the same frame and rates: every block repeats, so
    # c holds at every index, not only in the window
    checked = 0
    for seed in range(40):
        sizes = random_sizes(random.Random(seed))
        b = random_block_action(sizes, seed, p=p, N=34)
        tr = lower_p_series(b.lattice, b.action, 32)
        if any(hit is None for *_, hit in tr.blocks):
            continue
        strat, _ = run_stratification(tr)
        b = random_block_action(sizes, seed, p=p, N=98)
        deep = lower_p_series(b.lattice, b.action, 96)
        assert oracles.window_constant_by_lattices(deep, strat.frame, strat.rates) == strat.c
        checked += 1
    assert checked >= 30  # 32 at p 2, 33 at p 3


@settings(max_examples=120, deadline=None)
@given(instances, st.sampled_from([2, 3]), st.integers(4, 24), st.sampled_from([0, 1, 3]))
def test_cycle_key_matches_the_coordinate_key(instance, p, i_max, start):
    """The content key finds the certificate the coordinate key finds, from any start."""
    tr = _series(instance, p, i_max, start)
    assert detect_cycle(tr) == oracles.detect_cycle_by_coordinates(tr)


@settings(max_examples=80, deadline=None)
@given(instances | conjugated_instances, st.sampled_from([2, 3, 5]), st.integers(4, 16),
       st.sampled_from([0, 1, 3]))
def test_first_profile_entry_is_the_content_depth(instance, p, i_max, start):
    """profiles[i][0] is v_p of the gcd of term i's basis entries, the cycle key's depth."""
    tr = _series(instance, p, i_max, start)
    for term, prof in zip(tr.terms, tr.profiles):
        g = math.gcd(*(x for row in term.basis for x in row))
        assert prof[0] == oracles.valuation(g, p, tr.precision)


@pytest.mark.parametrize("p", [2, 3])
def test_a_profile_bucket_hit_that_is_not_a_cycle(p):
    """Terms 1 and 6 of Gm2 share a normalized profile, and 6 is not p^2 times 1."""
    tr = _series(("catalog", "Gm2", 0), p, 40)
    shapes = [tuple(x - prof[0] for x in prof) for prof in tr.profiles]
    assert shapes[1] == shapes[6]
    assert tr.profiles[6][0] - tr.profiles[1][0] == 2  # n = 2 <= m = 5 would certify
    assert not oracles.is_scaled_copy(tr.terms[1], 2, tr.terms[6])
    assert detect_cycle(tr) is None
    assert detect_cycle(tr) == oracles.detect_cycle_by_coordinates(tr)


@pytest.mark.parametrize("name", catalog_names())
def test_every_catalog_certificate_is_a_scaled_copy(name):
    """detect_cycle does not re-check its hits; here each one is checked."""
    for p in (2, 3):
        tr = _series(("catalog", name, 0), p, 24)
        cert = detect_cycle(tr)
        if cert is not None:
            assert oracles.is_scaled_copy(tr.terms[cert.j], cert.n, tr.terms[cert.j + cert.m])


def _assert_cycle_holds_from_j_on(tr):
    cert = detect_cycle(tr)
    assert cert is tr.cycle  # searched once per trace
    if cert is not None:
        for i in range(cert.j, tr.i_max - cert.m + 1):
            assert oracles.is_scaled_copy(tr.terms[i], cert.n, tr.terms[i + cert.m])


@pytest.mark.parametrize("name", catalog_names())
def test_every_catalog_cycle_holds_at_every_later_index(name):
    """term(i + m) == p^n term(i) for every i >= j, not only at the hit."""
    for p in (2, 3):
        _assert_cycle_holds_from_j_on(_series(("catalog", name, 0), p, 24))


@settings(max_examples=80, deadline=None)
@given(instances, st.sampled_from([2, 3, 5]), st.integers(4, 24))
def test_a_random_cycle_holds_at_every_later_index(instance, p, i_max):
    _assert_cycle_holds_from_j_on(_series(instance, p, i_max))


def _coordinate_frame(tr):
    """The coordinate frame ordered by the blocks' rates n_s/m_s, and those rates, ascending."""
    coords = [hit.rate for _, terms, _, hit in tr.blocks for _ in range(terms[0].d)]
    order = sorted(range(len(coords)), key=coords.__getitem__)
    return (tuple(tuple(identity(len(coords))[k]) for k in order),
            RateVector(tuple(coords[k] for k in order)))


def _pipeline(run, tr, **kwargs):
    try:
        return run(tr, **kwargs)
    except (FrameRejected, NoStableFit, RateOutOfRange, ValueError) as err:
        return type(err).__name__, str(err)


@settings(max_examples=150, deadline=None)
@given(instances, st.sampled_from([2, 3]), st.integers(4, 24), st.sampled_from([0, 1, 2]),
       st.data())
def test_lazy_candidates_match_the_eager_loop(instance, p, i_max, start, data):
    """The anchor pipeline's result wherever it succeeds, from any start.

    When every coordinate block hits, the pipeline reads no period, so
    where the anchor pipeline's period fit finds none within the bound or
    the window, the rates are the blocks' n_s/m_s, the frame the
    coordinate one, and c the definition's for them, or FrameRejected,
    naming the blocks, when that c exceeds the cap.  A rejection by the
    anchor pipeline is a rejection here too.
    """
    tr = _series(instance, p, i_max, start)
    bound = data.draw(st.sampled_from([1, 2, 3, 8, 64]))
    expected = _pipeline(oracles.run_stratification_eager, tr, denom_bound=bound)
    got = _pipeline(run_stratification, tr, denom_bound=bound)
    hits = [hit for *_, hit in tr.blocks]
    if None in hits or expected[0] not in ("NoStableFit", "FrameRejected"):
        assert got == expected
    elif expected[0] == "FrameRejected":
        assert got[0] == "FrameRejected" and got[1].startswith("block hits (j=")
    else:
        frame, rates = _coordinate_frame(tr)
        c = oracles.window_constant_by_lattices(tr, frame, rates)
        if c > strata._cap(tr):
            assert got[0] == "FrameRejected" and got[1].startswith("block hits (j=")
        else:
            strat, cert = got
            assert (strat.frame, strat.rates, strat.c) == (frame, rates, c)


def test_a_graded_period_calls_no_fit_and_no_smith_form(monkeypatch):
    """The block path reads its rates, frame and c off the hits, for a cycle or not."""
    traces = [_all_hit_case("remark27")[0], _cycled_case("eisenstein2")[0],
              _cycled_case("conjugated eisenstein3")[0]]
    calls = []

    def forbidden(name):
        return lambda *args, **kwargs: calls.append(name)

    for name in ("extract_frame", "estimate_rates", "fit_rational", "smith_rows",
                 "_window_constant", "unimodular_inverse"):
        monkeypatch.setattr(strata, name, forbidden(name))
    monkeypatch.setattr("pstrata.lattice.smith_rows", forbidden("lattice.smith_rows"))
    for tr in traces:
        strat, cert = run_stratification(tr, denom_bound=1)
        assert strat.c == 1 and (cert is None) == (strat.status == "certified-window")
    assert calls == []


def test_a_coordinate_frame_above_the_cap_is_rejected():
    # random seed 41 at p 2 and imax 7: the cycle term(i + 1) = p term(i)
    # from i = 3 on, and the cap is 1.  The coordinate frame needs c = 2;
    # under equal rates c does not depend on the frame, and the anchor
    # pipeline rejects these rates too
    b = random_block_action(random_sizes(random.Random(41)), 41, p=2, N=9)
    tr = lower_p_series(b.lattice, b.action, 7)
    assert tr.cycle == CycleCertificate(3, 1, 1)
    with pytest.raises(FrameRejected, match=r"^block hits \(j=3, m=1, n=1\): window constant 2 "
                                            r"of the coordinate frame exceeds cap 1$"):
        run_stratification(tr, denom_bound=8)
    d = tr.ambient.d
    rates = RateVector((F(1),) * d)
    assert oracles.window_constant_by_lattices(tr, identity(d), rates) == 2
    with pytest.raises(FrameRejected):
        extract_frame(tr, rates)


def test_a_cycle_in_moved_coordinates_takes_the_coordinate_frame():
    # random seed 0 at p 3 moved by U: one block, term(i + 1) = p term(i)
    # from i = 1 on.  Under equal rates model_i is p^a Z_p^d for any frame
    # that is a Z_p-basis, so c does not depend on the frame: the anchor
    # pipeline's Smith frame and the coordinate frame give the same c
    p, N = 3, 18
    b = random_block_action(random_sizes(random.Random(0)), 0, p=p, N=N)
    U = [[1, 2, 3, 1, -2], [-1, -3, 2, -3, 3], [2, -1, 0, 1, -3], [-1, 0, -1, 1, 2],
         [-2, 1, 0, 0, 3]]
    U_inv = unimodular_inverse(U, p, N)
    act = GroupAction.build(p, N, [mat_mul(mat_mul(U_inv, g, p**N), U, p**N)
                                   for g in b.action.generators])
    tr = lower_p_series(Lattice.standard(p, N, 5), act, 16)
    assert tr.cycle == CycleCertificate(1, 1, 1)
    anchored, cert = oracles.run_stratification_eager(tr, 8)
    strat, got = run_stratification(tr, 8)
    assert strat.frame == tuple(map(tuple, identity(5))) != anchored.frame
    assert replace(strat, frame=anchored.frame) == anchored and got == cert
    for frame in (strat.frame, anchored.frame):
        assert oracles.window_constant_by_lattices(tr, frame, strat.rates) == strat.c == 1


def test_fits_run_only_after_the_rates_before_them_are_rejected(monkeypatch):
    # only a trace with a block that has not hit reads its rates off the
    # profile periods, with the caller's bound: random seed 9 at p 2 and
    # imax 24, whose second block has no hit by then
    calls = []

    def counting(*args):
        calls.append(args)
        return fit_rational(*args)

    monkeypatch.setattr(strata, "fit_rational", counting)
    b = random_block_action(random_sizes(random.Random(9)), 9, p=2, N=26)
    tr = lower_p_series(b.lattice, b.action, 24)
    assert [hit for *_, hit in tr.blocks] == [CycleCertificate(0, 1, 1), None]
    strat, cert = run_stratification(tr, denom_bound=8)
    assert cert is None
    assert strat.rates.rates == (F(1, 2),) * 2 + (F(1),) * 3
    assert calls and all(bound == 8 for _, bound in calls)


def test_gm4_certifies_its_true_rates():
    # the 1/7 block repeats with period 7 (TestFitRational)
    b = build_Gm_lattice(4)
    strat, cert = run_stratification(lower_p_series(b.lattice, b.action, 64), denom_bound=31)
    assert cert is None
    assert strat.rates.rates == b.expected_rates
    assert strat.c == 1


def _cli_bound(i_max):
    return min(64, (i_max - 2) // 2)


@pytest.mark.parametrize("m, i_max", [(5, 64), (5, 128), (6, 128)])
def test_wide_gm_entries_certify_their_true_rates(m, i_max):
    # every profile column of Gm5, and of Gm6 at imax 128, repeats exactly
    # within the window, so each reads its true rate
    b = build_Gm_lattice(m, N=i_max + 2)
    tr = lower_p_series(b.lattice, b.action, i_max)
    strat, cert = run_stratification(tr, denom_bound=_cli_bound(i_max))
    assert cert is None
    assert strat.rates.rates == b.expected_rates
    assert strat.c == 1


@pytest.mark.parametrize("p", [2, 3, 5])
def test_gm3_certifies_at_imax_24(p):
    b = get_bundle("Gm3", p=p, N=26)
    strat, _ = run_stratification(lower_p_series(b.lattice, b.action, 24),
                                  denom_bound=_cli_bound(24))
    assert strat.rates.rates == b.expected_rates


@pytest.mark.parametrize("m, i_max", [(4, 16), (5, 16), (6, 64)])
def test_wide_gm_entries_certify_off_their_block_hits(m, i_max):
    # each block hits by i = 13, although the lcm of the periods (210 for
    # Gm4, 2,310 for Gm5, 30,030 for Gm6) is past the window: the rates are
    # the blocks' 1/q, in the coordinate frame, with c = 1
    b = build_Gm_lattice(m, N=i_max + 2)
    tr = lower_p_series(b.lattice, b.action, i_max)
    assert tr.window_period is None and None not in [hit for *_, hit in tr.blocks]
    strat, cert = run_stratification(tr, denom_bound=_cli_bound(i_max))
    assert (cert, strat.c, strat.status) == (None, 1, "certified-window")
    assert strat.rates.rates == b.expected_rates
    assert (strat.frame, strat.rates) == _coordinate_frame(tr)


def test_denominator_bound_is_refused_when_a_cycle_certifies():
    # the cycle needs no period, but the argument is checked all the same
    b = get_bundle("eisenstein2")
    tr = lower_p_series(b.lattice, b.action, 64)
    assert run_stratification(tr, denom_bound=1)[0].status == "exact-cycle"
    with pytest.raises(ValueError, match="denominator bound 0 is below 1"):
        run_stratification(tr, denom_bound=0)


def test_bad_window_is_refused_when_a_cycle_certifies():
    # a trace shorter than two steps is refused before its cycle is read,
    # even where term 1 already is p times term 0
    for name in ("trivial", "eisenstein1"):
        b = get_bundle(name)
        assert run_stratification(lower_p_series(b.lattice, b.action, 2),
                                  denom_bound=1)[0].status == "exact-cycle"
        for i_max in (0, 1):
            tr = lower_p_series(b.lattice, b.action, i_max)
            assert (tr.cycle is not None) == (i_max == 1)
            with pytest.raises(ValueError, match=fr"^i_max must be at least 2 to read a rate, "
                                                 fr"got {i_max}$"):
                run_stratification(tr, denom_bound=1)


def _unimodular_signed(data, d, entry, diagonal):
    """Upper triangular times lower unitriangular, unit diagonal, entries unreduced.

    In this order the leading entries of the rows are seldom units, so a
    triangular basis of a prefix can have a pivot that is not a unit.
    """
    up = identity(d)
    lo = identity(d)
    for r in range(d):
        up[r][r] = data.draw(diagonal)
        for c in range(r + 1, d):
            up[r][c] = data.draw(entry)
        for c in range(r):
            lo[r][c] = data.draw(entry)
    return [[sum(up[r][k] * lo[k][c] for k in range(d)) for c in range(d)] for r in range(d)]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([2, 3]), st.integers(2, 6), st.data())
def test_prefix_test_knows_an_invariant_prefix_in_any_coordinates(p, d, data):
    """F (g' - 1) F^-1 = g - 1 for g' = U^-1 g U and F = U, so the truth is known.

    Each g is 1 plus a strictly lower triangular part plus p times a matrix
    whose coupling block g[:e, e:] is 0, so the first e unit rows span an
    invariant sublattice and g - 1 is nilpotent mod p.
    """
    N = 12
    pN = p**N
    e = data.draw(st.integers(1, d - 1))
    entry = st.integers(-(p**3), p**3)
    U = _unimodular_signed(data, d, entry, st.sampled_from([-1, 1, 1 - p, p + 1]))
    U_inv = unimodular_inverse(U, p, N)
    grids = []
    for _ in range(data.draw(st.integers(1, 3))):
        g = identity(d)
        for r in range(d):
            for c in range(d):
                if c < r:
                    g[r][c] += data.draw(entry)
                elif r >= e or c < e:
                    g[r][c] += p * data.draw(entry)
        grids.append(g)

    def prefix_invariant(grids):
        act = GroupAction.build(p, N, [mat_mul(mat_mul(U_inv, g, pN), U, pN) for g in grids])
        return strata._prefix_invariant(U, U_inv, e, act)

    assert prefix_invariant(grids)
    t = data.draw(st.integers(0, len(grids) - 1))
    r = data.draw(st.integers(0, e - 1))
    c = data.draw(st.integers(e, d - 1))
    grids[t][r][c] = p * data.draw(entry.filter(bool))
    assert not prefix_invariant(grids)


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
        # the constant for the fitted rates and for two wrong ones, each
        # equal to the one from model lattices
        assert _constants_agree(tr, strat.frame, strat.rates) == 1
        assert _constants_agree(tr, strat.frame, RateVector((F(1, 4),) * 4)) == 36
        assert _constants_agree(tr, strat.frame, RateVector((F(1),) * 4)) == 16


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

    def test_a_prefix_that_is_not_invariant_is_refused(self):
        # x_1 g = x_1 + 2 x_2 leaves the span of x_1; the lower shear keeps it
        rates = RateVector((F(1, 2), F(1)))
        strat = Stratification(frame=((1, 0), (0, 1)), rates=rates, c=0, window=(0, 8),
                               status="certified-window")
        upper = GroupAction.build(2, 10, [[[1, 2], [0, 1]]])
        with pytest.raises(NotInvariant, match="^the first 1 frame vectors do not span an "
                                               "invariant sublattice$"):
            strata_split(strat, 1, upper)
        lower = GroupAction.build(2, 10, [[[1, 0], [2, 1]]])
        sp = strata_split(strat, 1, lower)
        assert sp.sub_action.generators == (((1,),),)
        assert sp.quotient_action.generators == (((1,),),)
