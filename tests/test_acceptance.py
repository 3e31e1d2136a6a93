"""Acceptance battery: one test per shipping criterion.

Each test computes its verdict first, prints a single scoreboard line
(also echoed after the run summary via conftest), and only then asserts,
so a red criterion still reports itself before failing.
"""

import itertools
import random
import time
from fractions import Fraction

import oracles
from pstrata.catalog import (build_eisenstein, catalog_names, get_bundle, random_block_action,
                             random_sizes)
from pstrata.gmodule import check_invariance, lower_p_series, restrict_action
from pstrata.hausdorff import SubgroupSpec, hdim_exact, hdim_numeric, spectrum
from pstrata.lattice import Lattice
from pstrata.padic import hermite_rows, smith_rows
from pstrata.strata import (
    CycleCertificate,
    detect_cycle,
    estimate_rates,
    run_stratification,
    strata_split,
)

F = Fraction

RESULTS = []


def record(num: int, ok: bool, detail: str) -> bool:
    line = f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    RESULTS.append(line)
    print(line)
    return ok


def unit_rows(d, idx):
    return tuple(tuple(1 if j == i else 0 for j in range(d)) for i in idx)


def test_criterion_1_remark27_rates():
    expected = (F(1, 4),) * 8 + (F(1, 2),) * 8
    ok = True
    timings = {}
    for p in (2, 3):
        t0 = time.time()
        b = get_bundle("remark27", p=p, N=66)
        tr = lower_p_series(b.lattice, b.action, 64)
        strat, _ = run_stratification(tr, denom_bound=8)
        timings[p] = time.time() - t0
        ok = ok and strat.rates.rates == expected
        ok = ok and strat.status in ("certified-window", "exact-cycle")
        ok = ok and timings[p] <= 60
    assert record(
        1,
        ok,
        "remark27 rates are exactly (1/4 x8, 1/2 x8) at p=2 and p=3, certified "
        f"in {timings[2]:.2f}s / {timings[3]:.2f}s",
    )


def test_criterion_2_gm_rates():
    expected = {
        "Gm1": (F(1, 2),) * 2,
        "Gm2": (F(1, 3),) * 3 + (F(1, 2),) * 2,
        "Gm3": (F(1, 5),) * 5 + (F(1, 3),) * 3 + (F(1, 2),) * 2,
    }
    ok = True
    for name, want in expected.items():
        b = get_bundle(name)
        tr = lower_p_series(b.lattice, b.action, 48)
        strat, _ = run_stratification(tr, denom_bound=8)
        ok = ok and strat.rates.rates == want
    assert record(
        2, ok, "Gm1/Gm2/Gm3 realise q_j copies of rate 1/q_j per block, exactly"
    )


def test_criterion_3_weighted_hdim_formula():
    # blocks q1 = 2, q2 = 3; pivots split (d1, d2) across them and the extra
    # unit weight raises the denominator to 3
    b = get_bundle("Gm2")
    tr = lower_p_series(b.lattice, b.action, 48)
    strat, _ = run_stratification(tr, denom_bound=8)
    fast = [i for i, r in enumerate(strat.rates.rates) if r == F(1, 2)]
    slow = [i for i, r in enumerate(strat.rates.rates) if r == F(1, 3)]
    ok = len(fast) == 2 and len(slow) == 3
    for d1, d2 in itertools.product(range(3), range(4)):
        H = SubgroupSpec(2, tr.precision, unit_rows(5, fast[:d1] + slow[:d2]))
        got = hdim_exact(H, strat, b.extra_weights)
        ok = ok and got == (F(d1, 2) + F(d2, 3)) / 3
    assert record(
        3, ok, "Gm2 weighted dimension equals (d1/2 + d2/3)/3 for all 12 pivot splits"
    )


def test_criterion_4_spectrum_bracket():
    b = get_bundle("Gm2")
    tr = lower_p_series(b.lattice, b.action, 48)
    strat, _ = run_stratification(tr, denom_bound=8)
    sp = spectrum(strat.rates, b.extra_weights)
    ok = 6 <= len(sp) <= 24 and len(sp) == 17  # 17 is the frozen golden count
    assert record(
        4, ok, f"Gm2 weighted spectrum has {len(sp)} values, inside [6, 24], golden 17"
    )


def test_criterion_5_envelope_on_catalog():
    ok = True
    worst = (0, "")
    for name in catalog_names():
        b = get_bundle(name)
        tr = lower_p_series(b.lattice, b.action, 48)
        strat, _ = run_stratification(tr, denom_bound=8)
        sig = strat.rates.sigma
        bound = b.action.d * (strat.c + 1)
        for i in range(1, tr.i_max + 1):
            dev = abs(tr.log_indices[i] - (i * sig.numerator) // sig.denominator)
            if dev > worst[0]:
                worst = (dev, name)
            ok = ok and dev <= bound
    assert record(
        5,
        ok,
        "all catalog series stay within the d(c+1) envelope of floor(i*sigma) "
        f"(worst deviation {worst[0]} on {worst[1]})",
    )


def test_criterion_6_cycle_certificates():
    ok = True
    for e in (1, 2, 3, 4):
        b = build_eisenstein(e)
        tr = lower_p_series(b.lattice, b.action, 3 * e + 4)
        cert = detect_cycle(tr)
        ok = ok and cert == CycleCertificate(j=0, m=e, n=1)
        ok = ok and cert.rate == F(1, e)
        # the certificate's content, re-checked by exact lattice equality
        for j in range(tr.i_max - e):
            ok = ok and oracles.is_scaled_copy(tr.terms[j], 1, tr.terms[j + e])
    assert record(
        6, ok, "eisenstein blocks e=1..4 certify cycles (m, n) = (e, 1) with "
        "lambda_(j+e) = p lambda_j exactly"
    )


def _invertible_mod_p(rows, p):
    m = [list(r) for r in rows]
    n = len(m)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] % p), None)
        if piv is None:
            return False
        m[col], m[piv] = m[piv], m[col]
        inv = pow(m[col][col], -1, p)
        for r in range(col + 1, n):
            f = (m[r][col] * inv) % p
            m[r] = [(x - f * y) % p for x, y in zip(m[r], m[col])]
    return True


def _draw_subgroup(rng, d, p, N):
    """A random saturated subgroup spec supported on a coordinate subset."""
    r = rng.randint(1, d)
    cols = sorted(rng.sample(range(d), r))
    while True:
        U = [[rng.randrange(0, p**3) for _ in range(r)] for _ in range(r)]
        if _invertible_mod_p(U, p):
            break
    rows = []
    for i in range(r):
        row = [0] * d
        for j, c in enumerate(cols):
            row[c] = U[i][j]
        rows.append(tuple(row))
    return SubgroupSpec(p, N, tuple(rows))


def test_criterion_7_numeric_oracle_battery():
    tol = F(1, 50)
    worst = F(0)
    ok = True
    for seed in range(200):
        rng = random.Random(seed * 7919 + 13)
        sizes = random_sizes(rng)
        bundle = random_block_action(sizes, seed=seed, p=2, N=66)
        tr = lower_p_series(bundle.lattice, bundle.action, 64)
        strat, _ = run_stratification(tr, denom_bound=max(sizes + (2,)))
        members = set(spectrum(strat.rates))
        for _ in range(5):
            H = _draw_subgroup(rng, bundle.action.d, 2, tr.precision)
            exact = hdim_exact(H, strat)
            quotients, _ = hdim_numeric(H, tr, strat)
            gap = abs(quotients[-1] - exact)
            worst = max(worst, gap)
            ok = ok and gap <= tol and exact in members
    assert record(
        7,
        ok,
        "200 seeded instances x 5 subgroups: exact vs numeric dimension gap "
        f"<= 0.02 at i_max 64 (worst {float(worst):.5f}); every exact value "
        "lies in the spectrum",
    )


def test_criterion_8_structural_suite():
    ok = True
    notes = []
    for name in catalog_names():
        b = get_bundle(name)
        p = b.action.p
        tr = lower_p_series(b.lattice, b.action, 48)
        strat, _ = run_stratification(tr, denom_bound=8)
        rates = strat.rates.rates
        for i in range(1, tr.i_max + 1):
            cur, prev = tr.terms[i], tr.terms[i - 1]
            ok = ok and prev.contains(cur)  # descent
            # centrality: both p*prev and (g-1)*prev land in the next term
            ok = ok and all(
                cur.solve([p * x for x in row]) is not None for row in prev.basis
            )
            for g in b.action.generators:
                pN = p**b.action.N
                for row in prev.basis:
                    img = [
                        (sum(row[k] * g[k][j] for k in range(len(row))) - row[j]) % pN
                        for j in range(len(row))
                    ]
                    ok = ok and cur.solve(img) is not None
            ok = ok and check_invariance(cur, b.action)  # G-invariance
            term = oracles.approximate_term(strat.frame, strat.rates, i, p, tr.precision)
            ok = ok and check_invariance(term, b.action)  # model terms too
        for e in range(1, len(rates)):  # prefix spans at every rate boundary
            if rates[e - 1] < rates[e]:
                try:
                    strata_split(strat, e, b.action)
                except Exception:
                    ok = False
                    notes.append(f"{name}: split at {e}")
        # rate agreement under restriction to an invariant finite-index sublattice
        res = restrict_action(tr.terms[2], b.action)
        tr_sub = lower_p_series(Lattice.standard(p, res.N, res.d), res, 40)
        ok = ok and sorted(estimate_rates(tr_sub, denom_bound=8).rates) == sorted(rates)
        # rate uniqueness: an independent fit on a shorter window agrees
        tr_short = lower_p_series(b.lattice, b.action, 40)
        ok = ok and estimate_rates(tr_short, denom_bound=8).rates == rates
    assert record(
        8,
        ok,
        "descent, centrality, invariance of series and model terms, boundary "
        "splits, restriction and window-independence hold on the full catalog"
        + ("; failed: " + "; ".join(notes) if notes else ""),
    )


def test_criterion_9_normal_form_oracle():
    p, N = 2, 4
    pN = p**N
    checked = 0
    ok = True
    for a, b, c, d in itertools.product(range(pN), repeat=4):
        det = (a * d - b * c) % pN
        if det % (p**3) == 0:  # valuation 3 or more: outside the bracket
            continue
        rows = [[a, b], [c, d]]
        span = oracles.span_set(rows, p, N)
        exps, _, _ = smith_rows(rows, p, N)
        if tuple(exps) != oracles.brute_smith_2x2(rows, p, N, span=span):
            ok = False
        R, _, _ = hermite_rows(rows, p, N)
        kept = [r for r in R if any(r)]
        if oracles.span_set(kept, p, N) != span:
            ok = False
        checked += 1
    assert record(
        9,
        ok,
        f"Hermite and Smith forms match brute-force coset enumeration on all "
        f"{checked} 2x2 matrices over Z/2^4 with determinant valuation <= 2",
    )
