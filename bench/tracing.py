"""In-memory spans around the library's public callables.

Each callable is wrapped under the name its caller looks it up by (a
module attribute or a ``WrightPoisson`` method), so calls made inside the
library are seen too. A span is (name, start, end, parent span, op id,
terms, raised); they stay in a list until the run writes them out.
"""

from __future__ import annotations

import functools
import json
import time

SPECIAL = ("distribution.mittag_leffler2", "distribution.wright_series",
           "estimation.mittag_leffler2")
ESTIMATION = ("estimation.fit_full", "estimation.fit_m", "estimation.log_likelihood")
CONSTRUCT = "distribution.new_wright_poisson"
METHODS = ("log_pmf", "pmf", "cdf", "quantile", "support_pmf", "expectation",
           "mean_series", "second_moment_series", "mean_closed_i", "mean_closed_ii",
           "second_moment_closed_i", "second_moment_closed_ii", "moment_report",
           "mgf", "sample")


def layer_of(name: str) -> str:
    if name in SPECIAL:
        return "special"
    if name in ESTIMATION:
        return "estimation"
    return "distribution"


class Tracer:
    """Installs wrappers on ``install`` and restores the originals on
    ``uninstall``; setting ``op_id`` tags the spans that follow."""

    def __init__(self, lib):
        self.lib = lib
        self.spans = []
        self.stack = []
        self.op_id = -1
        self.walk_steps = 0
        self.nonconverged = 0
        self._saved = []

    def _wrap(self, name, fn, max_terms_of=None):
        spans, stack = self.spans, self.stack
        nonconv_error = self.lib.NonConvergenceError

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            terms = 0
            raised = False
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                if max_terms_of is not None:
                    terms = out.terms_used
                return out
            except Exception as exc:
                raised = True
                # a series that gives up has evaluated max_terms terms
                if max_terms_of is not None and isinstance(exc, nonconv_error):
                    self.nonconverged += 1
                    terms = max_terms_of(args, kwargs)
                raise
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[sid] = (name, t0, t1, parent, self.op_id, terms, raised)

        return wrapper

    def _patch(self, owner, attr, new):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        dist, est = self.lib.distribution, self.lib.estimation
        default_terms = self.lib.SeriesControl().max_terms

        def ctrl_terms(position):
            def get(args, kwargs):
                ctrl = kwargs.get("ctrl", args[position] if len(args) > position else None)
                return ctrl.max_terms if ctrl is not None else default_terms
            return get

        for name in SPECIAL:
            module_name, attr = name.split(".")
            module = dist if module_name == "distribution" else est
            position = 1 if attr == "wright_series" else 3
            self._patch(module, attr, self._wrap(name, getattr(module, attr), ctrl_terms(position)))
        for name in ESTIMATION:
            attr = name.split(".")[1]
            self._patch(est, attr, self._wrap(name, getattr(est, attr)))
        self._patch(dist, "new_wright_poisson", self._wrap(CONSTRUCT, dist.new_wright_poisson))
        cls = dist.WrightPoisson
        for meth in METHODS:
            self._patch(cls, meth, self._wrap("WrightPoisson." + meth, cls.__dict__[meth]))
        step = cls.__dict__["pmf_recurrence_step"]

        def counted_step(obj, r, pmf_r):
            self.walk_steps += 1
            return step(obj, r, pmf_r)

        self._patch(cls, "pmf_recurrence_step", counted_step)

    def uninstall(self):
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)

    def layer_totals(self) -> dict:
        """Per layer: span count, self seconds; plus series terms and the
        counts that need the span tree."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, *_ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {layer: {"calls": 0, "self_s": 0.0} for layer in ("special", "distribution", "estimation")}
        out["special"]["terms"] = 0
        out["construct"] = {"calls": 0, "s": 0.0}
        out["estimation"]["fit_m_calls"] = 0
        out["estimation"]["fit_m_failed"] = 0
        out["estimation"]["loglik_evals"] = 0
        under_fit = set()
        for sid, (name, t0, t1, parent, _, terms, raised) in enumerate(self.spans):
            layer = layer_of(name)
            entry = out[layer]
            entry["calls"] += 1
            entry["self_s"] += (t1 - t0) - child[sid]
            if layer == "special":
                entry["terms"] += terms
            if name == CONSTRUCT:
                out["construct"]["calls"] += 1
                out["construct"]["s"] += t1 - t0
            if name in ("estimation.fit_full", "estimation.fit_m") or parent in under_fit:
                under_fit.add(sid)
                if name == "estimation.mittag_leffler2":
                    out["estimation"]["loglik_evals"] += 1
            if name == "estimation.fit_m":
                out["estimation"]["fit_m_calls"] += 1
                out["estimation"]["fit_m_failed"] += raised
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, t0, t1, parent, op, terms, raised in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1, "parent": parent,
                                     "op": op, "terms": terms, "raised": raised}) + "\n")
