"""Layer spans for the traced benchmark run, recorded from outside the package.

The layers are the modules of ``eigendist``.  ``install`` replaces each
layer's public functions with timing wrappers wherever the package refers
to them, including names other modules imported directly (``from .specfun
import two_limit_gamma``).  A call opens a span only when it crosses into
another layer; calls inside the current layer run unwrapped.  Spans keep
their parent id and stay in memory until ``metrics`` folds them: a span's
self time is its duration minus the durations of its child spans, so the
self times of all layers plus the untraced remainder add up to the wall time.

Besides the module functions, the tracer wraps the kernel table entries
(``point``, ``segment``, ``tilted_segment``, ``const``) of every kernel
class, ``SignedLogSum.add_terms`` and ``total``, and counts the calls of the
``quad`` routine that ``ensembles`` and ``distributions`` import by name.
"""

from __future__ import annotations

import functools
import inspect
import math
import time
from collections import Counter, defaultdict

import eigendist
from eigendist import cli, distributions, ensembles, montecarlo, pseudodet, signedlog, specfun

LAYERS = ("specfun", "signedlog", "ensembles", "pseudodet", "distributions", "montecarlo", "cli")
TABLE_METHODS = ("point", "segment", "tilted_segment", "const")

_MODULES = {
    "specfun": specfun,
    "signedlog": signedlog,
    "ensembles": ensembles,
    "pseudodet": pseudodet,
    "distributions": distributions,
    "montecarlo": montecarlo,
    "cli": cli,
}


def _public_functions(module) -> dict:
    names = getattr(module, "__all__", None) or ["main"]
    out = {}
    for name in names:
        obj = getattr(module, name, None)
        # plain and lru-cached functions; classes and type aliases stay
        if inspect.isfunction(inspect.unwrap(obj)):
            out[name] = obj
    return out


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    def __init__(self) -> None:
        self.spans = []  # (id, parent id, layer, name, start, end, self time)
        self.counts = Counter()
        self.max_reps = 0
        self._stack = []  # open spans: [id, layer, start, child time]
        self._next_id = 1
        self._patches = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, layer: str, name: str, fn, on_enter=None):
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            if parent is not None and parent[1] == layer:
                return fn(*args, **kwargs)
            if on_enter is not None:
                on_enter(parent[1] if parent else None, args, kwargs)
            sid = self._next_id
            self._next_id += 1
            frame = [sid, layer, clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[2]
                if stack:
                    stack[-1][3] += duration
                spans.append((sid, parent[0] if parent else 0, layer, name, frame[2], end, duration - frame[3]))

        return wrapper

    def _counting_quad(self, quad, layer: str, count_integrand: bool):
        counts = self.counts

        @functools.wraps(quad)
        def wrapper(func, *args, **kwargs):
            counts[f"{layer}.quad_calls"] += 1
            if count_integrand:
                inner = func

                def func(x, *fargs):
                    counts[f"{layer}.integrand_evals"] += 1
                    return inner(x, *fargs)

            return quad(func, *args, **kwargs)

        return wrapper

    def _timed(self, key: str, fn):
        counts = self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                counts[key] += clock() - start

        return wrapper

    # -- counters read at layer entry -------------------------------------

    def _on_grouped(self, parent, args, kwargs):
        plan = _arg(args, kwargs, 1, "plan")
        reps = plan.representative_count
        self.counts["pseudodet.determinants"] += reps
        self.counts["pseudodet.operator_determinants"] += reps
        self.counts["pseudodet.operator_permutations"] += math.factorial(plan.n)
        self.max_reps = max(self.max_reps, reps)

    def _on_full(self, parent, args, kwargs):
        reps = math.factorial(_arg(args, kwargs, 0, "tensor").n)
        self.counts["pseudodet.determinants"] += reps
        self.counts["pseudodet.operator_determinants"] += reps
        self.counts["pseudodet.operator_permutations"] += reps
        self.max_reps = max(self.max_reps, reps)

    def _on_det(self, parent, args, kwargs):
        self.counts["pseudodet.determinants"] += 1

    def _on_sample(self, parent, args, kwargs):
        draws = int(_arg(args, kwargs, 1, "count"))
        self.counts["montecarlo.draws"] += draws
        if parent == "distributions":
            self.counts["montecarlo.pilot_draws"] += draws

    def _on_add_terms(self, parent, args, kwargs):
        self.counts["signedlog.terms_merged"] += len(_arg(args, kwargs, 1, "signs"))

    # -- patching ---------------------------------------------------------

    def _set(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self) -> None:
        hooks = {
            ("pseudodet", "pseudo_det_grouped"): self._on_grouped,
            ("pseudodet", "pseudo_det"): self._on_full,
            ("pseudodet", "det_signed_log"): self._on_det,
            ("montecarlo", "sample"): self._on_sample,
        }
        wrapped = {}
        for layer, module in _MODULES.items():
            if layer == "signedlog":
                continue  # measured at SignedLogSum only
            for name, fn in _public_functions(module).items():
                wrapped[id(fn)] = (fn, self._span(layer, name, fn, hooks.get((layer, name))))
        for module in (eigendist, *_MODULES.values()):
            for attr, value in list(vars(module).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(module, attr, hit[1])

        for layer, module in (("ensembles", ensembles), ("distributions", distributions)):
            if "quad" in vars(module):
                self._set(module, "quad", self._counting_quad(module.quad, layer, layer == "distributions"))

        acc = signedlog.SignedLogSum
        self._set(acc, "add_terms", self._span("signedlog", "add_terms", acc.add_terms, self._on_add_terms))
        self._set(acc, "total", self._span("signedlog", "total", acc.total))

        kernels, seen = [ensembles.KernelForm], set()
        while kernels:
            cls = kernels.pop()
            if cls in seen:
                continue
            seen.add(cls)
            kernels.extend(cls.__subclasses__())
            for name in TABLE_METHODS:
                if name in cls.__dict__:
                    self._set(cls, name, self._span("ensembles", f"table.{name}", cls.__dict__[name]))

        plan = getattr(pseudodet, "GroupedPermutationPlan", None)
        if plan is not None and "check_against" in plan.__dict__:
            self._set(plan, "check_against", self._timed("pseudodet.check_s", plan.check_against))

    def uninstall(self) -> None:
        while self._patches:
            owner, name, value = self._patches.pop()
            setattr(owner, name, value)

    # -- results ----------------------------------------------------------

    def metrics(self, wall: float, values: int, kernel_misses: int) -> dict:
        """Per-layer counts and times of everything recorded since install."""
        calls = Counter()
        self_s = defaultdict(float)
        table_calls = 0
        sample_s = 0.0
        for _sid, _parent, layer, name, start, end, own in self.spans:
            calls[layer] += 1
            self_s[layer] += own
            if name.startswith("table."):
                table_calls += 1
            elif layer == "montecarlo" and name == "sample":
                sample_s += end - start
        c = self.counts
        traced = sum(self_s.values())
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = (calls[layer], "count")
            out[f"{layer}.self_s"] = (self_s[layer], "s")
        perms = c["pseudodet.operator_permutations"]
        draws = c["montecarlo.draws"]
        out.update(
            {
                "signedlog.terms_merged": (c["signedlog.terms_merged"], "count"),
                "ensembles.table_calls": (table_calls, "count"),
                "ensembles.quad_calls": (c["ensembles.quad_calls"], "count"),
                "ensembles.kernel_form_misses": (kernel_misses, "count"),
                "pseudodet.determinants": (c["pseudodet.determinants"], "count"),
                "pseudodet.check_s": (c["pseudodet.check_s"], "s"),
                "pseudodet.grouping_ratio": (c["pseudodet.operator_determinants"] / perms if perms else 0.0, "ratio"),
                "pseudodet.max_reps_per_call": (self.max_reps, "count"),
                "distributions.quad_calls": (c["distributions.quad_calls"], "count"),
                "distributions.integrand_evals": (c["distributions.integrand_evals"], "count"),
                "distributions.integrand_evals_per_value": (
                    c["distributions.integrand_evals"] / values if values else 0.0,
                    "count",
                ),
                "montecarlo.pilot_draws": (c["montecarlo.pilot_draws"], "count"),
                "montecarlo.draws": (draws, "count"),
                "montecarlo.sample_s": (sample_s, "s"),
                "montecarlo.draws_per_s": (draws / sample_s if sample_s > 0 else 0.0, "1/s"),
                "trace.wall_s": (wall, "s"),
                "trace.untraced_s": (wall - traced, "s"),
            }
        )
        return out
