"""Rate fitting, frames, certification, splitting."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import Phase, assume, example, find, given, settings, strategies as st

import oracles
from test_lattice import _conjugated
from pstrata import strata
from pstrata.catalog import build_Gm_lattice, catalog_names, get_bundle, random_block_action
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
    return [(i, fn(i)) for i in range(1, n + 1)]


class TestFitRational:
    def test_exact_lines(self):
        assert fit_rational(seq(lambda i: i), 4) == (F(1), 0)
        assert fit_rational(seq(lambda i: i // 2), 4) == (F(1, 2), 0)
        assert fit_rational(seq(lambda i: (2 * i) // 3), 4) == (F(2, 3), 0)

    def test_residual_is_reported(self):
        # the residual is the spread of m_i - floor(i xi): a line displaced
        # by a constant fits its own slope with spread 0
        assert fit_rational(seq(lambda i: i - 1), 4) == (F(1), 0)
        assert fit_rational(seq(lambda i: i // 3 + 2), 4) == (F(1, 3), 0)
        assert fit_rational(seq(lambda i: i // 2 + i % 2), 4) == (F(1, 2), 1)

    def test_window_too_short_for_denominator(self):
        with pytest.raises(ValueError):
            fit_rational(seq(lambda i: i, 5), 4)

    def test_fewer_than_two_samples_are_refused(self):
        for samples in ([], [(3, 1)]):
            for bound in (-1, 0):
                with pytest.raises(ValueError, match="need at least 2"):
                    fit_rational(samples, bound)

    def test_denominator_bound_below_one_is_refused(self):
        # at bound 0 the fit would return 0/1, a denominator above the bound
        for bound in (0, -1):
            with pytest.raises(ValueError, match=f"denominator bound {bound} is below 1"):
                fit_rational([(1, 5), (2, 5), (3, 5)], bound)

    def test_repeated_indices_are_refused(self):
        # the endpoint slope divides by i_last - i_first
        with pytest.raises(ValueError, match="distinct"):
            fit_rational([(3, 1), (3, 1)], 0)
        with pytest.raises(ValueError, match="distinct"):
            fit_rational(seq(lambda i: i // 2) + [(5, 2)], 4)

    def test_displaced_block_fits_its_true_rate(self):
        # Gm4's 1/7 block lags floor(i/7) by up to 6/7: on columns 3-6 the
        # worst deviation ties 1/7 with 1/6, the spread does not
        b = build_Gm_lattice(4)
        tr = lower_p_series(b.lattice, b.action, 64)
        for k in range(3, 7):
            col = [(i, tr.profiles[i][k]) for i in range(1, 65)]
            assert fit_rational(col, 31) == (F(1, 7), 1)

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
@given(fit_inputs())
def test_fitters_match_the_brute_force_oracle(case):
    # the pruned integer fit returns the least (spread, denominator, value)
    # over the full candidate set, or raises the same error
    samples, bound, cap = case
    expected = _outcome(oracles.brute_fit, samples, bound, cap)
    assert _outcome(fit_rational, samples, bound, cap) == expected


@settings(max_examples=300, deadline=None)
@given(fit_inputs())
# the least key, (1, 4, 1), lies 5/4 / span from the slope 4/21: a radius of
# (cap + 1)/span would leave it out and report spread 4
@example(([(i, i // 5) for i in range(1, 23)], 4, 0))
def test_the_bracket_holds_every_fraction_within_the_cap(case):
    # fit_rational scores 0, 1 and the bracket slope +- (cap + 2)/span only.
    # Against every n/m with m <= bound and 0 <= n/m <= ceil(slope + radius
    # + 1): outside the bracket the spread is at least cap + 2, so a least
    # key (spread, m, n) of spread <= cap + 1 is the fit's, returned within
    # the cap and reported by NoStableFit at cap + 1
    samples, bound, cap = case
    pts = sorted(samples)
    assume(bound >= 1 and len(pts) >= 2 * bound + 2)
    limit = cap if cap is not None else max(1, len(pts) // 4)
    (i0, m0), (i1, m1) = pts[0], pts[-1]
    slope = F(max(0, m1 - m0), i1 - i0)
    radius = F(limit + 2, i1 - i0)
    top = math.ceil(slope + radius + 1)
    keys = []
    for m in range(1, bound + 1):
        for n in range(m * top + 1):
            devs = [mi - i * n // m for i, mi in pts]
            keys.append((max(devs) - min(devs), m, n))
            if abs(F(n, m) - slope) > radius:
                assert keys[-1][0] >= limit + 2, (n, m)
    spread, m, n = min(keys)
    if spread <= limit:
        assert fit_rational(samples, bound, cap) == (F(n, m), spread)
    elif spread == limit + 1:
        with pytest.raises(NoStableFit, match=f"best residual {spread} exceeds"):
            fit_rational(samples, bound, cap)


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

    def test_certification_is_independent(self):
        # run_stratification and certify_equivalence share _window_constant,
        # so c is checked against the definition by model lattices
        b = get_bundle("Gm2")
        tr = lower_p_series(b.lattice, b.action, 24)
        strat, _ = run_stratification(tr, denom_bound=8)
        assert oracles.window_constant_by_lattices(tr, strat.frame, strat.rates) == strat.c
        assert certify_equivalence(tr, strat) == strat.c
        # a tight cap refuses rather than stretching the constant
        assert certify_equivalence(tr, strat, c_cap=0) is None

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


def _pipeline(run, tr, **kwargs):
    try:
        return run(tr, **kwargs)
    except (FrameRejected, NoStableFit, RateOutOfRange, ValueError) as err:
        return type(err).__name__, str(err)


@settings(max_examples=150, deadline=None)
@given(instances, st.sampled_from([2, 3]), st.integers(4, 24), st.sampled_from([0, 1, 2]),
       st.data())
def test_lazy_candidates_match_the_eager_loop(instance, p, i_max, start, data):
    """Same result or same error as computing every candidate up front, from any start."""
    tr = _series(instance, p, i_max, start)
    i_max = tr.i_max
    good = st.integers(1, i_max - 1).flatmap(
        lambda lo: st.tuples(st.just(lo), st.integers(lo + 1, i_max)))
    any_pair = st.tuples(st.integers(0, i_max + 1), st.integers(0, i_max + 1))
    kwargs = dict(
        denom_bound=data.draw(st.sampled_from([1, 2, 3, 8, 64])),
        window=data.draw(st.none() | good | any_pair),
        c_cap=data.draw(st.sampled_from([None, 0, 1])),
    )
    expected = _pipeline(oracles.run_stratification_eager, tr, **kwargs)
    assert _pipeline(run_stratification, tr, **kwargs) == expected


def test_fits_run_only_after_the_rates_before_them_are_rejected(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return fit_rational(*args)

    monkeypatch.setattr(strata, "fit_rational", counting)
    b = get_bundle("eisenstein2")
    strat, cert = run_stratification(lower_p_series(b.lattice, b.action, 16), denom_bound=8)
    assert strat.status == "exact-cycle"
    assert calls == []
    b = get_bundle("Gm3")
    strat, cert = run_stratification(lower_p_series(b.lattice, b.action, 40), denom_bound=8)
    assert cert is None
    assert strat.rates.rates == (F(1, 5),) * 5 + (F(1, 3),) * 3 + (F(1, 2),) * 2
    assert calls


def _cycled_trace():
    b = get_bundle("eisenstein2")
    tr = lower_p_series(b.lattice, b.action, 16)
    assert detect_cycle(tr) is not None
    return tr


@pytest.mark.parametrize("fit_error", [NoStableFit, RateOutOfRange])
def test_a_failed_fit_after_a_rejected_cycle_reports_the_cycle(fit_error, monkeypatch):
    def reject(trace, rates, c_cap=None):
        raise FrameRejected("cycle frame rejected")

    def no_fit(*args):
        raise fit_error("no fit")

    tr = _cycled_trace()
    monkeypatch.setattr(strata, "extract_frame", reject)
    monkeypatch.setattr(strata, "estimate_rates", no_fit)
    with pytest.raises(FrameRejected) as exc:
        run_stratification(tr, denom_bound=8)
    assert str(exc.value) == "cycle frame rejected"


def test_a_fit_equal_to_the_cycle_rates_is_not_tried_again(monkeypatch):
    tr = _cycled_trace()
    cycle = RateVector((detect_cycle(tr).rate,) * tr.ambient.d)
    calls = []

    def reject(trace, rates, c_cap=None):
        calls.append(rates)
        raise FrameRejected(f"rejection {len(calls)}")

    monkeypatch.setattr(strata, "extract_frame", reject)
    monkeypatch.setattr(strata, "estimate_rates", lambda *args: cycle)
    with pytest.raises(FrameRejected) as exc:
        run_stratification(tr, denom_bound=8)
    assert str(exc.value) == "rejection 1"
    assert calls == [cycle]


def test_gm4_certifies_its_true_rates():
    # the spread fit separates the 1/7 block from 1/6 (TestFitRational)
    b = build_Gm_lattice(4)
    strat, cert = run_stratification(lower_p_series(b.lattice, b.action, 64), denom_bound=31)
    assert cert is None
    assert strat.rates.rates == b.expected_rates
    assert strat.c == 1


def test_bad_window_is_refused_when_a_cycle_certifies():
    b = get_bundle("eisenstein2")
    tr = lower_p_series(b.lattice, b.action, 16)
    assert run_stratification(tr, denom_bound=8)[0].status == "exact-cycle"
    for window in ((0, 16), (8, 8), (1, 17)):
        with pytest.raises(ValueError, match="bad window"):
            run_stratification(tr, denom_bound=8, window=window)


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
