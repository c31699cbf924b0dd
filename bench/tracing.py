"""Traced runs: spans around calls into holozeta's public functions.

``Tracer`` patches each traced function both where it is defined and in
every holozeta namespace that imported it with ``from .x import y`` (for
example ``holozeta.laurent.bfunction`` and ``holozeta.cli.zeta_difference``),
and restores every original on ``uninstall``.  A span's self time is its
duration minus the durations of the traced calls made inside it.  Calls to
``groebner_engine`` are also keyed by their ``stage`` argument, with the
engine counters read from ``last_gb_stats()`` right after each call and the
largest coefficient bit length read from the returned basis.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time

# (module, attribute): functions are patched in every holozeta namespace
# that holds them; "Class.method" patches the class attribute.
TRACED = (
    ("holozeta.cli", "ProblemFile.load"),
    ("holozeta.annihilator", "ann_fs"),
    ("holozeta.bfunction", "bfunction"),
    ("holozeta.bfunction", "functional_operator"),
    ("holozeta.bfunction", "shift_compose"),
    ("holozeta.laurent", "ann_laurent"),
    ("holozeta.upoly", "UPoly.rational_roots"),
    ("holozeta.integration", "w_adapted_basis"),
    ("holozeta.integration", "weight_bfunction"),
    ("holozeta.integration", "restriction_data"),
    ("holozeta.integration", "integration_ideal"),
    ("holozeta.integration", "mellin_to_difference"),
    ("holozeta.integration", "difference_gcrd"),
    ("holozeta.weyl_core", "WeylOperator.__mul__"),
    ("holozeta.weyl_core", "groebner_engine"),
)

# Groebner stages reported on their own; every other stage name is "other".
GB_STAGES = (
    "w-adapted-basis", "w-adapted-basis-prereduce", "integration-colon",
    "theta-elimination", "sigma-tau-elimination", "b-function-elimination",
    "functional-operator", "laurent-colon",
)
GB_COUNTERS = ("calls", "pairs", "skipped", "zero", "basis", "coef_bits")


def _span_name(module, attr):
    """weyl_core.mul for WeylOperator.__mul__, upoly.rational_roots, ..."""
    short = module.split(".")[-1]
    leaf = attr.split(".")[-1]
    return f"{short}.{'mul' if leaf == '__mul__' else leaf}"


def _coef_bits(basis):
    bits = 0
    for term in basis:
        for c in term.values():
            bits = max(bits, int(c.numerator).bit_length(), int(c.denominator).bit_length())
    return bits


class Tracer:
    """Spans and Groebner-stage counters for one traced pass."""

    def __init__(self):
        self.spans = {}            # name -> {"s", "self_s", "calls"}
        self.gb = {}               # stage -> {"s", "calls", "pairs", ...}
        self._stack = []           # child time accumulated per open span
        self._patches = []         # (owner, attribute, original)

    # -- patching ---------------------------------------------------------
    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module, attr in TRACED:
            mod = sys.modules[module]
            name = _span_name(module, attr)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                if isinstance(orig, classmethod):
                    new = classmethod(self._wrap(name, orig.__func__))
                else:
                    new = self._wrap(name, orig)
                self._set(cls, meth, new)
                continue
            orig = getattr(mod, attr)
            new = (self._wrap_engine(orig) if attr == "groebner_engine"
                   else self._wrap(name, orig))
            for ns_name, ns in list(sys.modules.items()):
                if ns is None or not (ns_name == "holozeta" or ns_name.startswith("holozeta.")):
                    continue
                for key, val in list(vars(ns).items()):
                    if val is orig:
                        self._set(ns, key, new)

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _set(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    # -- spans ------------------------------------------------------------
    def _enter(self):
        self._stack.append(0.0)
        return time.perf_counter()

    def _exit(self, name, t0):
        dur = time.perf_counter() - t0
        child = self._stack.pop()
        if self._stack:
            self._stack[-1] += dur
        rec = self.spans.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        rec["s"] += dur
        rec["self_s"] += dur - child
        rec["calls"] += 1
        return dur

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = self._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(name, t0)
        return traced

    def _wrap_engine(self, fn):
        sig = inspect.signature(fn)
        last_gb_stats = sys.modules["holozeta.weyl_core"].last_gb_stats

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stage = sig.bind(*args, **kwargs).arguments.get("stage", "groebner")
            key = stage if stage in GB_STAGES else "other"
            t0 = self._enter()
            try:
                basis = fn(*args, **kwargs)
            finally:
                dur = self._exit("weyl_core.groebner_engine", t0)
            stats = last_gb_stats()
            rec = self.gb.setdefault(key, dict.fromkeys(("s",) + GB_COUNTERS, 0))
            rec["s"] += dur
            rec["calls"] += 1
            rec["pairs"] += stats.pairs_considered
            rec["skipped"] += stats.pairs_skipped
            rec["zero"] += stats.zero_reductions
            rec["basis"] += stats.basis_size
            rec["coef_bits"] = max(rec["coef_bits"], _coef_bits(basis))
            return basis
        return traced

    # -- report -----------------------------------------------------------
    def seconds_by_stage(self):
        """Seconds so far in each Groebner stage and in rational_roots."""
        out = {f"gb.{stage}": rec["s"] for stage, rec in self.gb.items()}
        out["rational_roots"] = self.spans.get("upoly.rational_roots", {}).get("s", 0.0)
        return out

    def metrics(self):
        """Per-layer metric values; spans and stages never entered read 0."""
        out = {}
        for stage in GB_STAGES + ("other",):
            rec = self.gb.get(stage, {})
            out[f"weyl_core.gb.{stage}.s"] = rec.get("s", 0.0)
            for c in GB_COUNTERS:
                out[f"weyl_core.gb.{stage}.{c}"] = rec.get(c, 0)

        def span(name, field):
            return self.spans.get(name, {}).get(field, 0)

        out["upoly.rational_roots.s"] = float(span("upoly.rational_roots", "s"))
        out["upoly.rational_roots.calls"] = span("upoly.rational_roots", "calls")
        out["annihilator.ann_fs.self_s"] = float(span("annihilator.ann_fs", "self_s"))
        out["annihilator.ann_fs.calls"] = span("annihilator.ann_fs", "calls")
        for fn in ("bfunction", "functional_operator"):
            out[f"bfunction.{fn}.self_s"] = float(span(f"bfunction.{fn}", "self_s"))
        out["bfunction.shift_compose.s"] = float(span("bfunction.shift_compose", "s"))
        out["laurent.ann_laurent.self_s"] = float(span("laurent.ann_laurent", "self_s"))
        out["weyl_core.mul.s"] = float(span("weyl_core.mul", "s"))
        out["weyl_core.mul.calls"] = span("weyl_core.mul", "calls")
        for fn in ("w_adapted_basis", "weight_bfunction", "restriction_data", "integration_ideal"):
            out[f"integration.{fn}.self_s"] = float(span(f"integration.{fn}", "self_s"))
        for fn in ("mellin_to_difference", "difference_gcrd"):
            out[f"integration.{fn}.s"] = float(span(f"integration.{fn}", "s"))
        out["cli.load.s"] = float(span("cli.load", "s"))
        return out
