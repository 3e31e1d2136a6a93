"""Worked examples and the seeded instance generator."""

from fractions import Fraction

import pytest

from pstrata.catalog import (
    build_remark_module,
    catalog_names,
    get_bundle,
    random_block_action,
)
from pstrata.errors import InvalidShape
from pstrata.gmodule import lower_p_series
from pstrata.strata import CycleCertificate, detect_cycle

F = Fraction


def test_names_are_sorted_and_stable():
    names = catalog_names()
    assert names == tuple(sorted(names))
    for n in ("trivial", "eisenstein2", "Gm2", "remark27"):
        assert n in names


def test_unknown_name():
    with pytest.raises(KeyError):
        get_bundle("nope")


def test_bundle_shapes():
    shapes = {n: get_bundle(n).action.d for n in catalog_names()}
    assert shapes["trivial"] == 3
    assert shapes["eisenstein3"] == 3
    assert shapes["Gm2"] == 5
    assert shapes["Gm3"] == 10
    assert shapes["remark27"] == 16


def test_expected_rates_annotations():
    assert set(get_bundle("trivial").expected_rates) == {F(1)}
    assert set(get_bundle("eisenstein4").expected_rates) == {F(1, 4)}
    assert set(get_bundle("Gm3").expected_rates) == {F(1, 5), F(1, 3), F(1, 2)}
    assert get_bundle("Gm2").extra_weights == (F(1),)
    assert get_bundle("remark27").extra_weights == ()


def test_expected_cycles_are_verified():
    for name in ("trivial", "eisenstein1", "eisenstein2", "eisenstein3"):
        b = get_bundle(name)
        if b.expected_cycle is None:
            continue
        tr = lower_p_series(b.lattice, b.action, 3 * b.expected_cycle[1] + 2)
        assert detect_cycle(tr) == CycleCertificate(*b.expected_cycle)


def test_gm_is_a_single_generator():
    for name in ("Gm1", "Gm2", "Gm3"):
        assert len(get_bundle(name).action.generators) == 1


def test_remark_module_structure():
    b = get_bundle("remark27")
    assert b.action.d == 16
    assert len(b.action.generators) == 4
    alt = build_remark_module(3)
    assert alt.action.p == 3 and alt.action.d == 16


def test_random_block_action_is_seed_stable():
    a = random_block_action((2, 1), seed=3)
    b = random_block_action((2, 1), seed=3)
    assert a.action.generators == b.action.generators
    c = random_block_action((2, 1), seed=4)
    assert a.action.generators != c.action.generators


def test_random_block_action_rejects_bad_shapes():
    with pytest.raises(InvalidShape):
        random_block_action((3, 3, 3), seed=0)  # dimension over the cap
    with pytest.raises(InvalidShape):
        random_block_action((), seed=0)
    with pytest.raises(InvalidShape):
        random_block_action((0, 2), seed=0)


def test_random_actions_are_unipotent_and_triangular():
    for seed in range(8):
        bundle = random_block_action((2, 2, 1), seed=seed)
        p, N = bundle.action.p, bundle.action.N
        for g in bundle.action.generators:
            d = len(g)
            for r in range(d):
                for c in range(r):
                    # everything below the block diagonal stays zero and the
                    # mod-p reduction is upper unitriangular
                    assert g[r][c] % p == (0 if r != c else 1) or c > r
            for r in range(d):
                assert g[r][r] % p == 1


def test_trivial_bundle_series_is_the_padic_filtration():
    b = get_bundle("trivial")
    tr = lower_p_series(b.lattice, b.action, 8)
    assert tr.profiles[5] == (5, 5, 5)
