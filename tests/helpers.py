"""Builders shared across test modules: random configurations and points,
and every eigenpair of a window in angle order."""

import numpy as np

from szegolab.cmv_operator import EigenDecomposition, FiniteCMV, eigenpair_blocks
from szegolab.sampling import TrigPolynomial, preset
from szegolab.torus_dynamics import CAT_MAP, TorusPoint, validate
from szegolab.verblunsky import VerblunskyConfig

AUTOMS = (
    CAT_MAP,
    validate([[3, 2], [1, 1]]),
    validate([[2, 3], [1, 2]]),
)


def random_trig_poly(rng: np.random.Generator, max_freqs: int = 5) -> TrigPolynomial:
    """Random zero-mean polynomial with <= max_freqs frequencies, sup bound < 1."""
    nfreq = int(rng.integers(1, max_freqs + 1))
    coeffs = {}
    while len(coeffs) < nfreq:
        k = (int(rng.integers(-3, 4)), int(rng.integers(-3, 4)))
        if k == (0, 0):
            continue
        coeffs[k] = complex(rng.normal(), rng.normal())
    total = sum(abs(c) for c in coeffs.values())
    scale = rng.uniform(0.3, 0.95) / total
    return TrigPolynomial.from_coeffs({k: c * scale for k, c in coeffs.items()})


def random_config(
    rng: np.random.Generator,
    lam_hi_frac: float = 0.9,
    alpha: TrigPolynomial | None = None,
) -> VerblunskyConfig:
    """Random coefficient configuration with lam drawn safely inside the disk."""
    if alpha is None:
        alpha = random_trig_poly(rng) if rng.random() < 0.5 else preset(
            "alpha0" if rng.random() < 0.5 else "alpha1"
        )
    autom = AUTOMS[int(rng.integers(len(AUTOMS)))]
    hi = lam_hi_frac / max(alpha.sup_bound, 1e-6)
    lam = float(rng.uniform(0.05 * hi, hi))
    return VerblunskyConfig(
        lam=lam,
        base=TorusPoint.random(rng),
        autom=autom,
        alpha=alpha,
    )


def random_eta(rng: np.random.Generator, guard: float = 0.05) -> float:
    """Angle away from the degenerate values 0 and pi."""
    while True:
        eta = float(rng.uniform(0.0, 2.0 * np.pi))
        if min(abs(eta), abs(eta - np.pi), abs(eta - 2.0 * np.pi)) > guard:
            return eta


def free_config(lam: float = 1e-300) -> VerblunskyConfig:
    """Configuration whose coefficients vanish to working precision.

    The zero polynomial is not constructible (the coefficient map must be
    nonempty), so the free operator is reached by scaling the coupling down
    until every coefficient is negligible at the tolerance under test. At
    the default coupling the coefficients fall below one ulp of every
    quantity they perturb, so recursions run bit-exactly at alpha = 0.
    """
    return VerblunskyConfig(
        lam=lam,
        base=TorusPoint(0.7, 1.3),
        autom=CAT_MAP,
        alpha=preset("alpha0"),
    )


def sorted_pairs(op: FiniteCMV) -> EigenDecomposition:
    """Every eigenpair of the window: the blocks of eigenpair_blocks,
    concatenated and put in angle order (a stable sort)."""
    blocks = list(eigenpair_blocks(op))
    order = np.argsort(np.concatenate([b.etas for b in blocks]), kind="stable")
    fields = ("eigenvalues", "etas", "vectors", "residuals", "ok")
    return EigenDecomposition(
        *(np.concatenate([getattr(b, f) for b in blocks], axis=-1)[..., order] for f in fields),
        repaired=sum(b.repaired for b in blocks),
    )
