"""Request streams and reference checks of the benchmark workloads.

A workload turns the run seed into an endless sequence of rounds.  A round
is a list of groups; a group is a list of calls into the library plus the
reference check that judges their results.  Every round holds the same mix
of models and statistics, and runs stop only at round boundaries, so runs of
different seeds do the same kind of work in the same proportions.

All library functions are looked up on their module at call time, so the
timing wrappers of the traced run see every call.  Building a round calls
nothing in the library: models are drawn and sized from their parameters,
so kernel construction is paid inside the first timed call, as users pay it.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

import eigendist
from eigendist import cli, distributions, ensembles

# Correctness gate on relative residuals, two orders of magnitude above the
# worst residual the library shows (1.1e-6, the spiked 6x10 sum rule near
# x = 1).  A wrong result misses it by far; precision is measured separately
# by the digits of the worst residual.
GATE_TOL = 1e-4


@dataclass
class Call:
    """One timed request into the library and the number of statistic values
    it returns."""

    fn: Callable[[], object]
    values: int


@dataclass
class Check:
    name: str
    passed: bool
    residual: Optional[float] = None  # relative residual; None for verdicts
    value: Optional[float] = None  # signed quantity reported as is
    gate: bool = True  # False: failures are reported but pass the group


@dataclass
class Group:
    calls: list
    check: Callable[[list], list]  # call results -> list of Check
    cold: bool = False  # start from empty caches, as a new CLI process does


class ColdStart:
    """Empties the library's per-process caches and counts kernel builds."""

    def __init__(self) -> None:
        # held before any tracing wrapper replaces the module attributes
        self._kernel_form = ensembles.kernel_form
        pilot = getattr(distributions, "_pilot_edges", None)
        self._others = [pilot] if hasattr(pilot, "cache_clear") else []
        self._misses = 0

    def clear(self) -> None:
        self._misses += self._kernel_form.cache_info().misses
        self._kernel_form.cache_clear()
        for cache in self._others:
            cache.cache_clear()

    def reset(self) -> None:
        self.clear()
        self._misses = 0

    def kernel_misses(self) -> int:
        return self._misses + self._kernel_form.cache_info().misses


def _rel(got: float, ref: float) -> float:
    # a zero reference (the GUE trace mean) is judged on the unit scale
    return abs(got - ref) / (abs(ref) if ref != 0 else 1.0)


def _exact(name: str, got: float, ref: float) -> Check:
    r = _rel(got, ref)
    return Check(name, math.isfinite(got) and r <= GATE_TOL, r)


def _probability(name: str, got: float, ref: float) -> Check:
    # probabilities are judged on the scale of the total mass 1
    r = abs(got - ref)
    return Check(name, math.isfinite(got) and r <= GATE_TOL, r)


def _bracketed(name: str, got: float, lo: float, hi: float) -> Check:
    # a probability between two bounds; the residual is the distance outside
    r = max(lo - got, got - hi, 0.0)
    return Check(name, math.isfinite(got) and r <= GATE_TOL, r)


def _nonnegative(name: str, values) -> Check:
    # Deep-tail densities below the cancellation floor of the signed sum come
    # out with either sign; their count is reported without failing the call.
    ok = all(math.isfinite(v) and v >= 0.0 for v in values)
    return Check(name, ok, gate=False)


class Strata:
    """Stratified draws.  Round r takes each quantity from stratum
    perm[r mod n] of its range, with one permutation per quantity, so any n
    consecutive rounds cover every range evenly: runs of different seeds do
    work of the same cost and reach the same ill-conditioned corners."""

    def __init__(self, rng: np.random.Generator, n: int) -> None:
        self.rng = rng
        self.n = n
        self._perms = {}

    def uniform(self, key, index: int, lo: float, hi: float) -> float:
        perm = self._perms.get(key)
        if perm is None:
            perm = self._perms[key] = self.rng.permutation(self.n)
        u = (perm[index % self.n] + self.rng.uniform()) / self.n
        return float(lo + (hi - lo) * u)

    def integer(self, key, index: int, lo: int, hi: int) -> int:
        """An integer in lo..hi inclusive."""
        return min(hi, int(self.uniform(key, index, lo, hi + 1)))


# ---------------------------------------------------------------------------
# pdf_grid: ordered marginal and pair densities on grids
# ---------------------------------------------------------------------------


class PdfGrid:
    """Scaled-down figure traffic: every rank of seven models, and the six
    ordered pairs of W4x5, at stratified grid points.  Ordered slices and
    grouped permutation sums only; no quadrature over marginals, no sampling.

    A call asks for the densities of every rank of one model at one abscissa
    (or of the six pairs at one point), which the sum rule then checks.

    Grid points are stratified over each model's range, so that a run of
    48 rounds or more evaluates every part of it.  The spiked model's
    points are spread on a log scale: its bulk sits near zero, where the sum
    rule is least accurate, and its spike far out.  Model parameters are
    drawn close to the figure values, which keeps the cost of a run the same
    for every seed."""

    unit = "density values"

    def __init__(self, rng: np.random.Generator) -> None:
        self.strata = Strata(rng, 48)
        phi = (float(rng.uniform(1.9, 2.1)), float(rng.uniform(0.9, 1.1)))
        mu = (float(rng.uniform(2.8, 3.2)), float(rng.uniform(0.45, 0.55)))
        self.models = [
            (eigendist.UncorrelatedWishart(6, 10), "linear", (0.0, 35.0)),
            (eigendist.SpikedWishart(6, 10, 10.0, 1.0), "log", (0.05, 180.0)),
            (eigendist.GUE(6), "linear", (-4.0, 4.0)),
            (eigendist.UncorrelatedWishart(8, 10), "linear", (0.0, 40.0)),
            (eigendist.CorrelatedWishart(4, 6, phi, (2, 4)), "linear", (0.0, 20.0)),
            (eigendist.Beta(4, 1, 2), "linear", (0.0, 1.0)),
            (eigendist.NoncentralWishart(3, 4, mu), "linear", (0.0, 25.0)),
        ]
        self.pair_model = eigendist.UncorrelatedWishart(4, 5)
        m = self.pair_model.dim
        self.pair_ranks = [(ell, s) for ell in range(1, m + 1) for s in range(ell + 1, m + 1)]

    def _marginals(self, model, x: float) -> Group:
        m = model.dim

        def check(results):
            (densities,) = results
            ref = m * distributions.joint_pdf_unordered(model, 1, (x,))
            return [_nonnegative("pdf_nonnegative", densities), _exact("pdf_sum_rule", sum(densities), ref)]

        def call():
            return [distributions.pdf_single(model, ell, x) for ell in range(1, m + 1)]

        return Group([Call(call, m)], check)

    def _pairs(self, x: float, y: float) -> Group:
        model = self.pair_model
        m = model.dim

        def check(results):
            (densities,) = results
            ref = m * (m - 1) * distributions.joint_pdf_unordered(model, 2, (x, y))
            return [_nonnegative("pair_nonnegative", densities), _exact("pair_sum_rule", sum(densities), ref)]

        def call():
            return [distributions.pdf_pair(model, ell, s, x, y) for ell, s in self.pair_ranks]

        return Group([Call(call, len(self.pair_ranks))], check)

    def rounds(self) -> Iterator[list]:
        draw = self.strata.uniform
        for index in itertools.count():
            groups = []
            for f, (model, scale, (lo, hi)) in enumerate(self.models):
                if scale == "log":
                    x = math.exp(draw(f, index, math.log(lo), math.log(hi)))
                else:
                    x = draw(f, index, lo, hi)
                groups.append(self._marginals(model, x))
            x, y = sorted((draw("pair_x", index, 0.0, 20.0), draw("pair_y", index, 0.0, 20.0)), reverse=True)
            groups.append(self._pairs(x, y))
            yield groups


# ---------------------------------------------------------------------------
# cdf_quad: CDF curves and moments, one fresh model per request
# ---------------------------------------------------------------------------


def _cdf_family(family: int, strata: Strata, index: int):
    """A fresh model of one small family, with its CDF grid range.  Shapes are
    fixed so that every seed costs the same; the seed draws the continuous
    parameters."""
    draw = strata.uniform
    if family == 0:
        return eigendist.UncorrelatedWishart(4, 6), (0.2, 24.0)
    if family == 1:
        return eigendist.SpikedWishart(3, 5, draw("sigma1", index, 4.0, 12.0), 1.0), (0.2, 60.0)
    if family == 2:
        return eigendist.GUE(4), (-3.0, 3.0)
    if family == 3:
        phi = (draw("phi1", index, 1.6, 3.0), draw("phi2", index, 0.5, 1.2))
        return eigendist.CorrelatedWishart(3, 4, phi, (1, 3)), (0.2, 12.0)
    return eigendist.Beta(3, 1, 2), (0.02, 0.98)


class CdfQuad:
    """Separate CLI ``cdf`` and ``moments`` requests: each one builds its model
    from cold caches (kernel form and Monte Carlo pilot included) and runs
    nested quadrature over ``pdf_single``."""

    unit = "CDF or moment values"
    families = 5
    # 10-point curves cost nearly what a moments request does, so request
    # latencies form one broad cluster and their median does not fall into
    # a gap between two.
    grid_points = 10

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng
        self.strata = Strata(rng, 8)

    def _cdf(self, model, ell: int, lo: float, hi: float) -> Group:
        # one point in each of grid_points equal strata of the range
        k = self.grid_points
        grid = lo + (hi - lo) * (np.arange(k) + self.rng.uniform(size=k)) / k

        def check(results):
            (values,) = results
            slo, shi = ensembles.kernel_form(model).support
            values = [float(v) for v in values]
            # cdf_curve clips to [0, 1], so only the monotone part can fail here
            out = [
                Check(
                    "cdf_monotone_in_unit_interval",
                    all(0.0 <= v <= 1.0 for v in values) and all(np.diff(values) >= 0.0),
                )
            ]
            # The interval route brackets every rank: lambda_1 >= lambda_ell >=
            # lambda_m gives P(all <= x) <= F_ell(x) <= 1 - P(all >= x), with
            # equality at the extreme ranks.
            for x, v in zip(grid, values):
                below = distributions.prob_all_in(model, slo, x)
                above = 1.0 - distributions.prob_all_in(model, x, shi)
                if ell == 1:
                    out.append(_probability("cdf_top_vs_interval", v, below))
                elif ell == model.dim:
                    out.append(_probability("cdf_bottom_vs_interval", v, above))
                else:
                    out.append(_bracketed("cdf_mid_within_interval_bounds", v, below, above))
            return out

        return Group([Call(lambda: distributions.cdf_curve(model, ell, grid), len(grid))], check, cold=True)

    def _moments(self, model, ell: int) -> Group:
        def check(results):
            ((mass, mean, second),) = results
            return [
                _exact("marginal_mass", mass, 1.0),
                Check("marginal_variance_nonnegative", second - mean * mean >= 0.0),
            ]

        def call():  # one ``moments --orders 0,1,2`` request
            return [distributions.moment_single(model, ell, order) for order in (0, 1, 2)]

        return Group([Call(call, 3)], check, cold=True)

    def rounds(self) -> Iterator[list]:
        # Each family alternates between the two requests from round to round
        # and cycles through its ranks, in the same order for every seed.
        for index in itertools.count():
            groups = []
            for f in range(self.families):
                model, (lo, hi) = _cdf_family(f, self.strata, index)
                ell = 1 + (index // 2 + f) % model.dim
                if (index + f) % 2 == 0:
                    groups.append(self._cdf(model, ell, lo, hi))
                else:
                    groups.append(self._moments(model, ell))
            yield groups


# ---------------------------------------------------------------------------
# unordered_exact: full-support and tilted segment tables
# ---------------------------------------------------------------------------


def trace_mgf(model, nu: float) -> Optional[float]:
    """E[exp(nu * trace)] in closed form, where the ensemble has one."""
    if isinstance(model, eigendist.UncorrelatedWishart):
        return (1.0 - nu) ** (-model.dim * model.n)
    if isinstance(model, eigendist.SpikedWishart):
        return (1.0 - nu * model.sigma1) ** (-model.n) * (1.0 - nu * model.sigma2) ** (
            -model.n * (model.dim - 1)
        )
    if isinstance(model, eigendist.CorrelatedWishart):
        return math.prod((1.0 - nu / ph) ** (-model.p * mu) for ph, mu in zip(model.phi, model.mult))
    if isinstance(model, eigendist.NoncentralWishart):
        return (1.0 - nu) ** (-model.dim * model.n) * math.exp(nu * sum(model.mu) / (1.0 - nu))
    if isinstance(model, eigendist.GUE):
        # H_ii ~ N(0, 1/2) under the exp(-tr H^2) weight
        return math.exp(model.dim * nu * nu / 4.0)
    return None


def _decay_rate(model) -> float:
    """Exponential decay rate of the weight, capped at 1; MGF exponents are
    drawn as a fraction of it."""
    if isinstance(model, eigendist.SpikedWishart):
        return 1.0 / model.sigma1
    if isinstance(model, eigendist.CorrelatedWishart):
        return min(model.phi[-1], 1.0)
    return 1.0


class UnorderedExact:
    """Unordered statistics over all six ensembles: normalization, interval
    probabilities by both routes, joint moments, joint MGFs and unordered
    densities.  One representative per plan; full-support and tilted
    segment tables, with quadrature fallbacks for GUE and noncentral MGFs."""

    unit = "statistic values"

    def __init__(self, rng: np.random.Generator) -> None:
        self.strata = Strata(rng, 16)

    def _models(self, index: int):
        """Fresh models of the six ensembles, parameters stratified by round."""
        draw, pick = self.strata.uniform, self.strata.integer
        return [
            (eigendist.UncorrelatedWishart(8, pick("W.n", index, 8, 12)), (0.0, 40.0)),
            (
                eigendist.SpikedWishart(4, pick("S.n", index, 4, 8), draw("S.sigma1", index, 3.0, 12.0), 1.0),
                (0.0, 80.0),
            ),
            (
                eigendist.CorrelatedWishart(
                    3, 5, (draw("C.phi1", index, 1.6, 3.0), draw("C.phi2", index, 0.5, 1.2)), (2, 3)
                ),
                (0.0, 15.0),
            ),
            (
                eigendist.NoncentralWishart(
                    3, pick("N.n", index, 3, 5), (draw("N.mu1", index, 1.0, 3.0), draw("N.mu2", index, 0.2, 0.9))
                ),
                (0.0, 25.0),
            ),
            (eigendist.GUE(5), (-3.5, 3.5)),
            (eigendist.Beta(4, pick("B.m", index, 0, 3), pick("B.n", index, 0, 3)), (0.0, 1.0)),
        ]

    def _group(self, f: int, index: int, model, lo: float, hi: float) -> Group:
        draw = self.strata.uniform
        m = model.dim
        a, b = sorted((draw((f, "a"), index, lo, hi), draw((f, "b"), index, lo, hi)))
        x, y = draw((f, "x"), index, lo, hi), draw((f, "y"), index, lo, hi)
        nu = draw((f, "nu"), index, -0.3, 0.3) * _decay_rate(model)
        orders = (1,) + (0,) * (m - 1)
        # correlated kernels with p < n carry constant columns
        square = not (isinstance(model, eigendist.CorrelatedWishart) and model.n > model.p)
        calls = [
            Call(lambda: ensembles.normalization_check(model), 1),
            Call(lambda: distributions.prob_all_in(model, a, b, method="tensor"), 1),
            Call(lambda: distributions.moments_unordered(model, orders), 1),
            Call(lambda: distributions.mgf_unordered(model, (nu,) * m), 1),
            Call(lambda: distributions.joint_pdf_unordered(model, 2, (x, y)), 1),
        ]
        if square:
            calls.append(Call(lambda: distributions.prob_all_in(model, a, b, method="determinant"), 1))

        def check(results):
            norm, p_tensor, mean, mgf, density = results[:5]
            out = [
                Check("normalization", abs(norm - 1.0) <= GATE_TOL, abs(norm - 1.0), norm - 1.0),
                _nonnegative("unordered_pdf_nonnegative", [density]),
            ]
            if square:
                out.append(_probability("interval_determinant_vs_tensor", results[5], p_tensor))
            trace_mean = ensembles.mean_eigenvalue_sum(model)
            if trace_mean is not None:
                out.append(_exact("moment_vs_trace_mean", m * mean, trace_mean))
            ref = trace_mgf(model, nu)
            if ref is not None:
                out.append(_exact("mgf_vs_trace_mgf", mgf, ref))
            return out

        return Group(calls, check)

    def rounds(self) -> Iterator[list]:
        for index in itertools.count():
            yield [self._group(f, index, model, lo, hi) for f, (model, (lo, hi)) in enumerate(self._models(index))]


# ---------------------------------------------------------------------------
# mc_oracle: the CLI Monte Carlo gate
# ---------------------------------------------------------------------------


class McOracle:
    """In-process ``eigendist mc-check`` with many samples and few analytic
    points: batched ``eigvalsh`` sampling dominates.

    The gate is a 4-sigma test, so a correct program fails about one checked
    point in 10^4.  Each run therefore draws four requests and repeats them,
    each repeat from cold caches like a new CLI process; a run's chance of a
    false alarm stays below 10^-3."""

    unit = "checked spectra"
    samples = 100_000
    points = 2

    def __init__(self, rng: np.random.Generator) -> None:
        # Ranks and shapes are fixed so that every seed costs the same; the
        # seed draws the continuous parameters and the sample streams.  The
        # parameters are rounded so that the CLI flags carry them exactly.
        phi = (round(rng.uniform(1.6, 3.0), 3), round(rng.uniform(0.5, 1.2), 3))
        requests = [
            (eigendist.UncorrelatedWishart(3, 5), 1),
            (eigendist.SpikedWishart(3, 4, round(rng.uniform(4.0, 12.0), 3), 1.0), 2),
            (eigendist.GUE(3), 3),
            (eigendist.CorrelatedWishart(3, 4, phi, (1, 3)), 2),
        ]
        self.requests = []
        for model, ell in requests:
            argv = ["mc-check", *_ensemble_flags(model)]
            argv += ["--samples", str(self.samples), "--seed", str(int(rng.integers(2**31)))]
            argv += ["--index", str(ell), "--points", str(self.points)]
            self.requests.append((model, argv))

    def _group(self, model, argv) -> Group:
        def run():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            return code, out.getvalue()

        def check(results):
            ((code, text),) = results
            norm = ensembles.normalization_check(model)
            return [
                Check("mc_check_verdict", code == 0 and "overall: PASS" in text),
                Check("normalization", abs(norm - 1.0) <= GATE_TOL, abs(norm - 1.0), norm - 1.0),
            ]

        return Group([Call(run, self.samples)], check, cold=True)

    def rounds(self) -> Iterator[list]:
        while True:
            yield [self._group(model, argv) for model, argv in self.requests]


def _ensemble_flags(model) -> list:
    """CLI flags for a model, from its flat spec string."""
    name, *pairs = ensembles.spec_string(model).split()
    flags = ["--ensemble", name]
    for pair in pairs:
        key, _, value = pair.partition("=")
        flags += [f"--{key}", value]
    return flags


WORKLOADS = {
    "pdf_grid": PdfGrid,
    "cdf_quad": CdfQuad,
    "unordered_exact": UnorderedExact,
    "mc_oracle": McOracle,
}


def make(name: str, seed: int):
    salt = sorted(WORKLOADS).index(name)
    rng = np.random.default_rng(np.random.SeedSequence((seed, salt)))
    return WORKLOADS[name](rng)
