"""Monte Carlo ground truth for the analytic engine.

GUE, uncorrelated and spiked Wishart spectra are drawn from real symmetric
tridiagonal matrix models with the same eigenvalue law (the beta = 2 models
of Dumitriu and Edelman, J. Math. Phys. 43, 2002): Householder reduction of
the dense complex matrix leaves Gaussian diagonals and chi-distributed
off-diagonals, so a draw costs O(dim) random numbers instead of dim * n
complex ones.  The spiked model is exact as ``D B B^T D`` with B the
uncorrelated bidiagonal factor and ``D = diag(sqrt(sigma1), sqrt(sigma2),
...)``, because the bidiagonalization's left reflectors never touch row 1
(Bloemendal and Virag, PTRF 156, 2013).  Correlated, noncentral and Beta
spectra come from their defining dense complex constructions.  Each stack
of matrices goes through one batched ``eigvalsh``; empirical distribution
functions with binomial error bars then gate the analytic curves.
Sampling is chunked, and every chunk gets its own counter-based generator
stream derived from (seed, chunk index), so results are reproducible and
independent of how chunks are scheduled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .distributions import CurveGrid
from .ensembles import (
    Beta,
    CorrelatedWishart,
    EnsembleModel,
    GUE,
    NoncentralWishart,
    SpikedWishart,
    UncorrelatedWishart,
    spec_string,
)

__all__ = [
    "SampleBatch",
    "EmpiricalStat",
    "CompareReport",
    "sample",
    "empirical_cdf",
    "empirical_moment",
    "compare",
]

_CHUNK = 1 << 15


def _rng_for_chunk(seed: int, chunk: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(chunk,))))


def _cnormal(rng: np.random.Generator, shape) -> np.ndarray:
    """Circularly symmetric complex normal entries with unit variance: one
    real draw of shape (..., 2) read as real and imaginary parts."""
    parts = rng.standard_normal((*shape, 2))
    parts *= math.sqrt(0.5)
    return parts.view(np.complex128)[..., 0]


def _tridiagonal(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Stack of real symmetric tridiagonal matrices from a (size, dim) stack
    of diagonals and a (size, dim-1) stack of off-diagonals."""
    size, dim = diag.shape
    t = np.zeros((size, dim, dim))
    i = np.arange(dim)
    t[:, i, i] = diag
    t[:, i[1:], i[:-1]] = off
    t[:, i[:-1], i[1:]] = off
    return t


def _bidiagonal_gram(rng: np.random.Generator, dim: int, n: int, size: int, scale: np.ndarray) -> np.ndarray:
    """The stack of tridiagonal ``D B B^T D``: B lower bidiagonal with squared
    diagonal Gamma(n-i+1, 1), i = 1..dim, and squared subdiagonal
    Gamma(dim-i, 1), i = 1..dim-1, and ``D^2 = diag(scale)``.  Its spectrum
    is that of the complex Wishart matrix of dim x n Gaussian rows with
    variances ``scale``, for a scale equal past its first entry (uncorrelated
    or spiked)."""
    d2 = rng.standard_gamma(n - np.arange(dim), size=(size, dim))
    c2 = rng.standard_gamma(dim - 1 - np.arange(dim - 1), size=(size, dim - 1))
    diag = d2.copy()
    diag[:, 1:] += c2
    off = np.sqrt(c2 * d2[:, :-1])
    return _tridiagonal(diag * scale, off * np.sqrt(scale[:-1] * scale[1:]))


def _eig_desc(mats: np.ndarray, keep: int) -> np.ndarray:
    vals = np.linalg.eigvalsh(mats)
    return vals[:, ::-1][:, :keep]


def _draw_chunk(model: EnsembleModel, size: int, rng: np.random.Generator) -> np.ndarray:
    if isinstance(model, UncorrelatedWishart):
        return _eig_desc(_bidiagonal_gram(rng, model.dim, model.n, size, np.ones(model.dim)), model.dim)

    if isinstance(model, CorrelatedWishart):
        # covariance spectrum is the inverse of phi, repeated per multiplicity
        diag = np.repeat([1.0 / p for p in model.phi], model.mult)
        x = _cnormal(rng, (size, model.p, model.n))
        w = (x * diag[None, None, :]) @ x.conj().transpose(0, 2, 1)
        return _eig_desc(w, model.dim)

    if isinstance(model, SpikedWishart):
        scale = np.r_[model.sigma1, np.full(model.dim - 1, model.sigma2)]
        return _eig_desc(_bidiagonal_gram(rng, model.dim, model.n, size, scale), model.dim)

    if isinstance(model, NoncentralWishart):
        mean = np.zeros((model.dim, model.n))
        for j, mu in enumerate(model.mu):
            mean[j, j] = math.sqrt(mu)
        x = _cnormal(rng, (size, model.dim, model.n)) + mean[None, :, :]
        w = x @ x.conj().transpose(0, 2, 1)
        return _eig_desc(w, model.dim)

    if isinstance(model, GUE):
        # weight e^(-tr H^2): diagonal N(0, 1/2), off-diagonal k the norm of
        # the m-k complex entries below it, each of mean square 1/2
        diag = rng.standard_normal((size, model.dim)) * math.sqrt(0.5)
        shapes = model.dim - 1 - np.arange(model.dim - 1)
        off = np.sqrt(0.5 * rng.standard_gamma(shapes, size=(size, model.dim - 1)))
        return _eig_desc(_tridiagonal(diag, off), model.dim)

    if isinstance(model, Beta):
        # null-case double Wishart: spectrum of (A+B)^(-1) B with the B factor
        # carrying m + dim columns and the A factor n + dim columns
        xa = _cnormal(rng, (size, model.dim, model.n + model.dim))
        xb = _cnormal(rng, (size, model.dim, model.m + model.dim))
        a = xa @ xa.conj().transpose(0, 2, 1)
        b = xb @ xb.conj().transpose(0, 2, 1)
        chol = np.linalg.cholesky(a + b)
        t = np.linalg.solve(chol, b)
        core = np.linalg.solve(chol, t.conj().transpose(0, 2, 1))
        return _eig_desc(core, model.dim)

    raise TypeError(f"unsupported ensemble {type(model).__name__}")


@dataclass(frozen=True)
class SampleBatch:
    """Sorted eigenvalue draws for one ensemble, reproducible from the seed."""

    model: EnsembleModel
    count: int
    seed: int
    eigenvalues: np.ndarray  # (count, dim), descending per row

    def to_csv(self, path) -> None:
        header = spec_string(self.model) + f" count={self.count} seed={self.seed}"
        np.savetxt(path, self.eigenvalues, delimiter=",", header=header)

    def to_npy(self, path) -> None:
        np.save(path, self.eigenvalues)


def sample(model: EnsembleModel, count: int, seed: int) -> SampleBatch:
    """Draw ``count`` spectra; identical arguments give identical batches."""
    if count < 1:
        raise ValueError(f"sample count must be >= 1, got {count}")
    blocks = []
    remaining = count
    chunk_index = 0
    while remaining > 0:
        size = min(_CHUNK, remaining)
        rng = _rng_for_chunk(seed, chunk_index)
        blocks.append(_draw_chunk(model, size, rng))
        remaining -= size
        chunk_index += 1
    return SampleBatch(model, count, seed, np.concatenate(blocks, axis=0))


# ---------------------------------------------------------------------------
# empirical statistics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EmpiricalStat:
    """One empirical summary with per-point standard errors."""

    kind: str
    indices: tuple
    xs: tuple
    values: tuple
    stderr: tuple
    count: int

    def __post_init__(self):
        if not (len(self.xs) == len(self.values) == len(self.stderr)):
            raise ValueError("grid, values, and standard errors must align")
        if any(s <= 0 for s in self.stderr):
            raise ValueError("standard errors must be positive")


def empirical_cdf(batch: SampleBatch, ell: int, grid: Sequence[float]) -> EmpiricalStat:
    """Empirical distribution of the ell-th largest eigenvalue on a grid."""
    dim = batch.eigenvalues.shape[1]
    if not (1 <= ell <= dim):
        raise ValueError(f"eigenvalue rank {ell} outside 1..{dim}")
    col = np.sort(batch.eigenvalues[:, ell - 1])
    grid = np.asarray(grid, dtype=float)
    hits = np.searchsorted(col, grid, side="right")
    p = hits / batch.count
    # clip keeps the binomial error bar positive at empty tails
    p_eff = np.clip(p, 0.5 / batch.count, 1.0 - 0.5 / batch.count)
    se = np.sqrt(p_eff * (1.0 - p_eff) / batch.count)
    return EmpiricalStat(
        kind="cdf",
        indices=(ell,),
        xs=tuple(float(v) for v in grid),
        values=tuple(float(v) for v in p),
        stderr=tuple(float(v) for v in se),
        count=batch.count,
    )


def empirical_moment(batch: SampleBatch, fn) -> tuple:
    """Mean and standard error of ``fn`` applied to each spectrum row."""
    vals = np.asarray([fn(row) for row in batch.eigenvalues], dtype=float)
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(len(vals)))


# ---------------------------------------------------------------------------
# gate: analytic curve against empirical values
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompareReport:
    max_deviation: float
    worst_x: float
    threshold: float
    deviations: tuple = field(repr=False)

    @property
    def passed(self) -> bool:
        return self.max_deviation < self.threshold


def compare(analytic: CurveGrid, empirical: EmpiricalStat, threshold: float = 4.0) -> CompareReport:
    """Max standardized deviation between an analytic curve and an empirical
    statistic on the same grid."""
    if tuple(analytic.xs) != tuple(empirical.xs):
        raise ValueError("analytic and empirical grids differ")
    a = np.asarray(analytic.values)
    e = np.asarray(empirical.values)
    se = np.asarray(empirical.stderr)
    dev = np.abs(a - e) / se
    worst = int(np.argmax(dev))
    return CompareReport(
        max_deviation=float(dev[worst]),
        worst_x=float(analytic.xs[worst]),
        threshold=threshold,
        deviations=tuple(float(v) for v in dev),
    )
