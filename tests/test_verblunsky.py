"""Coefficient sequences sampled along torus orbits."""

import math

import numpy as np
import pytest

from helpers import random_config
from oracles import evaluate, scalar_orbit
from szegolab.sampling import preset
from szegolab.torus_dynamics import CAT_MAP, TorusPoint
from szegolab.verblunsky import (
    VerblunskyConfig,
    coefficient_slices,
    sample_slices,
    sequence,
)

ALPHA0 = preset("alpha0")


def fixed_point_config(lam=0.1):
    return VerblunskyConfig(
        lam=lam, base=TorusPoint(0.0, 0.0), autom=CAT_MAP, alpha=ALPHA0
    )


def test_fixed_point_coefficients_constant():
    alphas = sequence(fixed_point_config(0.1), 41)
    for n in (0, 1, 5, 40):
        assert alphas[n] == pytest.approx(0.1, abs=1e-15)


def test_period_three_zeros():
    cfg = VerblunskyConfig(
        lam=0.2,
        base=TorusPoint(math.pi, 0.0),
        autom=CAT_MAP,
        alpha=ALPHA0,
    )
    # the orbit visits (pi,0), (0,pi), (pi,pi); alpha0 vanishes at the
    # first two and equals -1 at the third
    alphas = sequence(cfg, 3)
    assert alphas[0] == pytest.approx(0.0, abs=1e-15)
    assert alphas[1] == pytest.approx(0.0, abs=1e-15)
    assert alphas[2] == pytest.approx(-0.2, abs=1e-15)


def test_negative_index_rejected():
    # a sequence of negative length
    with pytest.raises(ValueError):
        sequence(fixed_point_config(), -1)


def test_coupling_validation():
    with pytest.raises(ValueError):
        VerblunskyConfig(
            lam=1.0, base=TorusPoint(0.0, 0.0), autom=CAT_MAP, alpha=ALPHA0
        )
    with pytest.raises(ValueError):
        VerblunskyConfig(
            lam=-0.1, base=TorusPoint(0.0, 0.0), autom=CAT_MAP, alpha=ALPHA0
        )


def _rho(alpha):
    """The complementary radius sqrt(1 - |alpha|^2) of a coefficient."""
    return math.sqrt(1.0 - abs(alpha) ** 2)


def test_rho_examples():
    cfg = fixed_point_config(0.1)
    assert _rho(sequence(cfg, 1)[0]) == pytest.approx(math.sqrt(0.99), abs=1e-15)
    zero = VerblunskyConfig(
        lam=0.2,
        base=TorusPoint(math.pi, 0.0),
        autom=CAT_MAP,
        alpha=ALPHA0,
    )
    assert _rho(sequence(zero, 1)[0]) == pytest.approx(1.0, abs=1e-15)


def test_sequence_matches_pointwise():
    # against the scalar orbit and one scalar evaluation per point
    rng = np.random.default_rng(13)
    cfg = random_config(rng)
    alphas = sequence(cfg, 50)
    assert alphas.shape == (50,)
    xs, ys = scalar_orbit(cfg.autom, cfg.base.x, cfg.base.y, 50)
    for n in range(50):
        want = cfg.lam * evaluate(cfg.alpha, xs[n], ys[n])
        assert alphas[n] == pytest.approx(want, abs=1e-12)


def test_sup_bound_strict():
    rng = np.random.default_rng(15)
    for _ in range(3):
        cfg = random_config(rng)
        alphas = sequence(cfg, 100_000)
        assert np.max(np.abs(alphas)) <= cfg.lam * cfg.alpha.sup_bound


def test_orbit_mean_vanishes():
    rng = np.random.default_rng(16)
    cfg = VerblunskyConfig(
        lam=0.5, base=TorusPoint.random(rng), autom=CAT_MAP, alpha=ALPHA0
    )
    alphas = sequence(cfg, 100_000)
    assert abs(np.mean(alphas)) / cfg.lam <= 0.05


def test_scaled_blocks_concatenate_to_sequence():
    # the streaming consumers read slices scaled in place; across a slice
    # boundary that gives the bits of the materialized sequence
    rng = np.random.default_rng(17)
    cfg = random_config(rng)
    alphas = sequence(cfg, 70_000)
    blocks = list(coefficient_slices(cfg, 70_000))
    assert len(blocks) > 1
    assert all(block.shape[0] == 1 for block in blocks)
    assert np.array_equal(alphas, np.concatenate(blocks, axis=1)[0])


def test_sampled_values_scale():
    rng = np.random.default_rng(18)
    cfg = random_config(rng)
    alphas = sequence(cfg, 1000)
    ((values,),) = sample_slices(cfg.autom, cfg.alpha, [[cfg.base.x, cfg.base.y]], 1000)
    assert np.array_equal(cfg.lam * values, alphas)
