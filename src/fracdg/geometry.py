"""Fracture geometry for a single planar fracture inside a porous matrix.

The fracture midsurface Gamma is the vertical line ``x = gamma0`` of the
domain, with normal (1, 0) and tangential coordinate ``t = y``; a straight
fracture in 2D is one offset once the domain is rotated so that it is
vertical.  The fracture walls are offset graphs over Gamma given by an
:class:`ApertureProfile` holding the two one-sided apertures ``d1`` and
``d2`` together with their analytic tangential gradients.  All operations
here are pure functions of immutable value objects; everything is safe to
share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "ApertureProfile",
    "PermeabilityData",
    "WellposednessReport",
    "check_wellposedness",
    "refusal",
]


def refusal(param: str, message: str, kind=ValueError) -> Exception:
    """An input refused: a ``kind`` error (ValueError or MemoryError)
    that names the refused parameter as its ``param``."""
    error = kind(message)
    error.param = param
    return error


@dataclass(frozen=True)
class ApertureProfile:
    """One-sided apertures ``d1``, ``d2`` of the fracture as functions of
    the tangential coordinate, with analytic tangential derivatives.

    Only the total aperture ``d = d1 + d2`` must stay positive; ``d1`` or
    ``d2`` individually may take negative values.  Gradients are closures
    shipped with the profile (never finite differences), because the
    reduced formulations consume them pointwise at quadrature points.
    """

    kind: str
    d1_fn: Callable[[np.ndarray], np.ndarray]
    d2_fn: Callable[[np.ndarray], np.ndarray]
    dd1_fn: Callable[[np.ndarray], np.ndarray]
    dd2_fn: Callable[[np.ndarray], np.ndarray]
    d_min: float
    d_sup: float
    t_range: tuple[float, float] = (0.0, 1.0)
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.d_min > 0.0:
            raise ValueError(f"total aperture must stay positive, got d_min={self.d_min}")
        lo, hi = self.t_range
        if not hi > lo:
            raise ValueError("empty tangential parameter range")

    @property
    def is_constant(self) -> bool:
        return self.kind == "constant"

    @classmethod
    def constant(cls, d1: float, d2: float,
                 t_range: tuple[float, float] = (0.0, 1.0)) -> "ApertureProfile":
        d = d1 + d2
        if d <= 0.0:
            raise ValueError("constant profile needs d1 + d2 > 0")
        return cls(kind="constant",
                   d1_fn=lambda t: np.full_like(np.asarray(t, dtype=float), d1),
                   d2_fn=lambda t: np.full_like(np.asarray(t, dtype=float), d2),
                   dd1_fn=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
                   dd2_fn=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
                   d_min=d, d_sup=d, t_range=t_range,
                   params={"d1": d1, "d2": d2})

    @classmethod
    def sinusoidal(cls, d0: float, frequency: float = 8.0 * math.pi,
                   phase: float = 0.0, asymmetry: str = "antisymmetric",
                   t_range: tuple[float, float] = (0.0, 1.0)) -> "ApertureProfile":
        """Sinusoidal walls ``d0 * (1 + sin(frequency*t + phase)/2)``.

        ``asymmetry="antisymmetric"`` flips the sign of the oscillation on
        side 2, so the total aperture is the constant ``2*d0``;
        ``"symmetric"`` uses the same oscillation on both sides, so the
        total aperture varies between ``d0`` and ``3*d0``.
        """
        if d0 <= 0.0:
            raise ValueError("d0 must be positive")
        if asymmetry not in ("antisymmetric", "symmetric"):
            raise ValueError(f"unknown asymmetry {asymmetry!r}")
        sign = -1.0 if asymmetry == "antisymmetric" else 1.0

        def d1_fn(t):
            t = np.asarray(t, dtype=float)
            return d0 * (1.0 + 0.5 * np.sin(frequency * t + phase))

        def d2_fn(t):
            t = np.asarray(t, dtype=float)
            return d0 * (1.0 + sign * 0.5 * np.sin(frequency * t + phase))

        def dd1_fn(t):
            t = np.asarray(t, dtype=float)
            return 0.5 * d0 * frequency * np.cos(frequency * t + phase)

        def dd2_fn(t):
            t = np.asarray(t, dtype=float)
            return sign * 0.5 * d0 * frequency * np.cos(frequency * t + phase)

        if asymmetry == "antisymmetric":
            d_min = d_sup = 2.0 * d0
        else:
            d_min, d_sup = d0, 3.0 * d0
        return cls(kind="sinusoidal", d1_fn=d1_fn, d2_fn=d2_fn,
                   dd1_fn=dd1_fn, dd2_fn=dd2_fn,
                   d_min=d_min, d_sup=d_sup, t_range=t_range,
                   params={"d0": d0, "frequency": frequency, "phase": phase,
                           "asymmetry": asymmetry})

    @classmethod
    def from_callables(cls, d1_fn, d2_fn, dd1_fn, dd2_fn,
                       d_min: float, d_sup: float,
                       t_range: tuple[float, float] = (0.0, 1.0)) -> "ApertureProfile":
        """User-supplied closures; the caller must provide correct bounds
        ``d_min <= d(t) <= d_sup``."""
        return cls(kind="custom", d1_fn=d1_fn, d2_fn=d2_fn,
                   dd1_fn=dd1_fn, dd2_fn=dd2_fn,
                   d_min=d_min, d_sup=d_sup, t_range=t_range)


def _as_tensor(K) -> np.ndarray:
    K = np.asarray(K, dtype=float)
    if K.ndim == 0:
        return float(K) * np.eye(2)
    if K.shape != (2, 2):
        raise ValueError("permeability tensor must be scalar or 2x2")
    return K


def _spd_bounds(K: np.ndarray, label: str) -> tuple[float, float]:
    """Extreme eigenvalues of an SPD tensor; a refusal names ``label``."""
    if not np.allclose(K, K.T, atol=1e-12 * max(1.0, float(np.abs(K).max()))):
        raise refusal(label, f"{label} must be symmetric")
    eig = np.linalg.eigvalsh(K)
    if eig.min() <= 0.0:
        raise refusal(label, f"{label} must be positive definite")
    return float(eig.min()), float(eig.max())


@dataclass(frozen=True)
class PermeabilityData:
    """Constant permeabilities of the bulk sides and the fracture, plus
    the coupling parameter ``xi > 1/2``.

    ``k_gamma`` acts tangentially on Gamma, ``k_gamma_perp`` is the scalar
    transversal permeability.  ``k_f`` is the permeability of the meshed
    fracture slab in the non-reduced reference model (defaults to
    ``k_gamma``).
    """

    k1: np.ndarray
    k2: np.ndarray
    k_gamma: np.ndarray
    k_gamma_perp: float
    xi: float = 2.0 / 3.0
    k_f: np.ndarray | None = None
    kappa_gamma_min: float = field(init=False, default=0.0)
    kappa_gamma_max: float = field(init=False, default=0.0)

    def __post_init__(self) -> None:
        k1 = _as_tensor(self.k1)
        k2 = _as_tensor(self.k2)
        kg = _as_tensor(self.k_gamma)
        _spd_bounds(k1, "k1")
        _spd_bounds(k2, "k2")
        kf = kg if self.k_f is None else _as_tensor(self.k_f)
        if self.k_f is not None:  # from_fracture passes it as k_gamma too
            _spd_bounds(kf, "k_f")
        gmin, gmax = _spd_bounds(kg, "k_gamma")
        if self.k_gamma_perp <= 0.0:
            raise ValueError("k_gamma_perp must be positive")
        if not self.xi > 0.5:
            raise refusal("xi", f"xi = {self.xi:g} rejected: the coupling "
                          "average weight must satisfy xi > 1/2")
        object.__setattr__(self, "k1", k1)
        object.__setattr__(self, "k2", k2)
        object.__setattr__(self, "k_gamma", kg)
        object.__setattr__(self, "k_gamma_perp", float(self.k_gamma_perp))
        object.__setattr__(self, "xi", float(self.xi))
        object.__setattr__(self, "k_f", kf)
        object.__setattr__(self, "kappa_gamma_min", gmin)
        object.__setattr__(self, "kappa_gamma_max", gmax)

    @classmethod
    def from_fracture(cls, k1, k2, k_f,
                      xi: float = 2.0 / 3.0) -> "PermeabilityData":
        """Derive the effective tangential/transversal fracture
        permeabilities from the slab permeability ``k_f``: the
        transversal one is its component along the normal (1, 0)."""
        kf = _as_tensor(k_f)
        perp = float(kf[0, 0])
        return cls(k1=k1, k2=k2, k_gamma=kf, k_gamma_perp=perp, xi=xi, k_f=kf)

    def beta_gamma(self, d) -> np.ndarray:
        """Coupling coefficient ``4 * k_gamma_perp / ((2 xi - 1) d)``."""
        return 4.0 * self.k_gamma_perp / ((2.0 * self.xi - 1.0) * np.asarray(d, dtype=float))

    def bulk(self, side: int) -> np.ndarray:
        if side == 1:
            return self.k1
        if side == 2:
            return self.k2
        raise ValueError(f"bulk side must be 1 or 2, got {side}")


WELLPOSEDNESS_SAMPLES_PER_UNIT = 1024


@dataclass(frozen=True)
class WellposednessReport:
    lhs: float
    satisfied: bool
    sup_grad_d: float
    sup_grad_diff: float
    samples: int


def check_wellposedness(profile: ApertureProfile,
                        perm: PermeabilityData) -> WellposednessReport:
    """Evaluate the coercivity bound for the coupled reduced problem.

    ``lhs = (kmax/kmin)^2 * (D / d_min)
    * ((2 xi - 1) * sup|grad d|^2 + sup|grad d1 - grad d2|^2)``
    with the fracture-permeability eigenvalue bounds ``kmin, kmax``;
    the problem is guaranteed solvable when ``lhs < 16``.  Sup-norms are
    approximated by sampling the parameter range at
    ``WELLPOSEDNESS_SAMPLES_PER_UNIT`` points per unit length.
    """
    lo, hi = profile.t_range
    n = max(2, int(math.ceil(WELLPOSEDNESS_SAMPLES_PER_UNIT * (hi - lo)))) + 1
    t = np.linspace(lo, hi, n)
    g1 = np.asarray(profile.dd1_fn(t), dtype=float)
    g2 = np.asarray(profile.dd2_fn(t), dtype=float)
    d = np.asarray(profile.d1_fn(t), dtype=float) + np.asarray(profile.d2_fn(t), dtype=float)
    if not (np.all(np.isfinite(g1)) and np.all(np.isfinite(g2)) and np.all(np.isfinite(d))):
        raise ValueError("aperture fields produced non-finite samples")
    sup_grad_d = float(np.abs(g1 + g2).max())
    sup_grad_diff = float(np.abs(g1 - g2).max())
    ratio = perm.kappa_gamma_max / perm.kappa_gamma_min
    lhs = (ratio ** 2) * (profile.d_sup / profile.d_min) * (
        (2.0 * perm.xi - 1.0) * sup_grad_d ** 2 + sup_grad_diff ** 2)
    return WellposednessReport(lhs=float(lhs), satisfied=bool(lhs < 16.0),
                               sup_grad_d=sup_grad_d, sup_grad_diff=sup_grad_diff,
                               samples=n)
