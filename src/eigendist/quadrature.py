"""Round-based adaptive Gauss-Kronrod quadrature over batches of nodes.

The rule is QUADPACK's 21-point Gauss-Kronrod pair (qk21; Piessens et al.,
*QUADPACK*, Springer 1983) with its error estimate.  The integrand takes a
whole vector of abscissae and returns one value (a scalar or an array) per
abscissa, so each round evaluates the nodes of every new panel in one call.
An infinite end of a piece is mapped onto [0, 1) by ``x = c + s t / (1 - t)``
at a scale s the caller chooses.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import NumericError

__all__ = ["integrate"]

# the Kronrod nodes on [0, 1] in descending order, the centre last, their
# weights, and the 10-point Gauss weights of the nodes at odd positions
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077600525634164, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_WG = np.zeros(11)
_WG[1:10:2] = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
# the same on [-1, 1]
_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])
_KRONROD_WEIGHTS = np.concatenate([_WGK[:-1], _WGK[::-1]])
_GAUSS_WEIGHTS = np.concatenate([_WG[:-1], _WG[::-1]])

_EPMACH = np.finfo(float).eps
_UFLOW = np.finfo(float).tiny


def _gk21(f: np.ndarray, half: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Integrals and error estimates of panels from their node values, shaped
    (panel, node, ...), and half-widths.  An array-valued integrand takes the
    largest entry of each term of the estimate."""
    shape = (1, -1) + (1,) * (f.ndim - 2)
    kw, gw = _KRONROD_WEIGHTS.reshape(shape), _GAUSS_WEIGHTS.reshape(shape)
    resk = np.sum(f * kw, axis=1)
    resg = np.sum(f * gw, axis=1)
    peak = lambda v: v.reshape(len(v), -1).max(axis=1) * half
    resabs = peak(np.sum(np.abs(f) * kw, axis=1))
    resasc = peak(np.sum(np.abs(f - resk[:, None] / 2.0) * kw, axis=1))
    err = peak(np.abs(resk - resg))
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
    err = np.where((resasc != 0.0) & (err != 0.0), scaled, err)
    err = np.where(resabs > _UFLOW / (50.0 * _EPMACH), np.maximum(50.0 * _EPMACH * resabs, err), err)
    return resk * half.reshape((-1,) + (1,) * (f.ndim - 2)), err


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    pieces: Sequence[tuple],
    epsabs: float,
    epsrel: float,
    max_panels: int,
) -> np.ndarray:
    """Integral of ``f`` over the pieces ``(a, b, s)``, s the scale of the map
    of an infinite end, by rounds of halving.

    The panels start as the pieces.  Each round evaluates ``f`` once at the
    21 nodes of every new panel, and stops once the error estimates add up
    to at most ``max(epsabs, epsrel |total|)`` (the largest entry of an
    array total); otherwise it halves every panel whose estimate exceeds an
    equal share of that tolerance.  Past ``max_panels`` panels, or at a
    non-finite value, it raises ``NumericError``.
    """
    # a panel: its piece, and its ends in the piece's own coordinate t
    panels = [
        (k, *((0.0, 1.0) if math.isinf(a) or math.isinf(b) else (a, b))) for k, (a, b, _) in enumerate(pieces)
    ]
    # (origin c, signed scale, mapped): x = c + scale t / (1 - t) on an
    # infinite piece, x = t on a finite one
    maps = [
        (b, -s, 1.0) if math.isinf(a) else (a, s, 1.0) if math.isinf(b) else (0.0, 1.0, 0.0)
        for a, b, s in pieces
    ]
    fresh, results, errors = panels, None, np.zeros(0)
    while True:
        origin, scale, mapped = np.array([maps[k] for k, _, _ in fresh]).T[:, :, None]
        ends = np.array([(a, b) for _, a, b in fresh])
        centre, half = (ends[:, 0] + ends[:, 1]) / 2.0, (ends[:, 1] - ends[:, 0]) / 2.0
        t = centre[:, None] + half[:, None] * _NODES
        x, jac = t.copy(), np.ones(t.shape)
        rows = mapped[:, 0] != 0.0
        if rows.any():
            u = t[rows]
            x[rows] = origin[rows] + scale[rows] * u / (1.0 - u)
            jac[rows] = np.abs(scale[rows]) / (1.0 - u) ** 2
        values = np.asarray(f(x.ravel()), dtype=float)
        values = values.reshape(x.shape + values.shape[1:])
        values = values * jac.reshape(jac.shape + (1,) * (values.ndim - 2))
        if not np.isfinite(values).all():
            raise NumericError("adaptive quadrature met a non-finite integrand value")
        new_results, new_errors = _gk21(values, half)
        results = new_results if results is None else np.concatenate([results, new_results])
        errors = np.concatenate([errors, new_errors])
        total = np.sum(results, axis=0)
        tol = max(epsabs, epsrel * float(np.max(np.abs(total))))
        error = math.fsum(errors.tolist())
        if error <= tol:
            return total
        split = errors > tol / len(panels)
        if len(panels) + int(split.sum()) > max_panels:
            raise NumericError(
                f"adaptive quadrature did not converge within {max_panels} panels: "
                f"error estimate {error:.3g} against tolerance {tol:.3g}"
            )
        fresh = []
        for (k, a, b), cut in zip(panels, split.tolist()):
            if cut:
                mid = (a + b) / 2.0
                fresh += [(k, a, mid), (k, mid, b)]
        panels = [p for p, cut in zip(panels, split.tolist()) if not cut] + fresh
        results, errors = results[~split], errors[~split]
