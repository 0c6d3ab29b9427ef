"""Per-layer spans and counters, recorded from outside the cupone package.

Each hook wraps one function or method of cupone.  A module-level name
is installed by rebinding it in every loaded ``cupone`` module whose
namespace binds the same object (``model.py`` and ``massey.py`` import
``smith_normal_form``, ``solve_Z`` and friends by name), so no caller
bypasses the wrapper; a method is replaced on its class.  A missing
target raises, so a hook cannot silently drop out.

A span records calls, total time (outermost activation only, so
recursion is not counted twice) and self time (its duration minus the
time of the spans it encloses).  A count hook records calls only.

``HOOKS`` is also the layer map: for each hook, the workloads on which
it must record calls (``works_on``) and the end-to-end metric it should
move, and the workloads on which it is predicted to make no call.  A
hook expected to work that records no call fails the traced run; a
broken zero-call prediction is reported as a map error on stderr.
"""
from __future__ import annotations

import functools
import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable


def _nnz_rows(args, kwargs, result):
    return {"nnz_in": sum(len(row) - row.count(0) for row in args[0])}


def _insert_useful(args, kwargs, result):
    return {"useful": 1 if result else 0}


def _t2_words(args, kwargs, result):
    # T^2 basis of a Z_p stage model: pairs of nonzero multi-indices with
    # every exponent below p, i.e. (p^n - 1)^2 words for n generators.
    stage = args[0]
    return {"t2_words": (stage.ring.p ** len(stage.gens.names) - 1) ** 2}


def _audit_indices(args, kwargs, result):
    return {"indices": result.checked}


def _cells_3(args, kwargs, result):
    return {"cells_3": len(result.delta.cells[3])}


@dataclass
class Hook:
    module: str              # cupone submodule, e.g. "linalg"
    qualname: str            # function, or Class.method
    stats: tuple             # reported stats: calls, total_s, self_s, extras
    works_on: tuple = ()     # workloads on which calls must be > 0
    moves: str = ""          # end-to-end metric (and workload) it should move
    idle_on: tuple = ()      # workloads predicted to make no call
    count_only: bool = False
    extra: Callable | None = None

    @property
    def name(self) -> str:
        return f"{self.module}.{self.qualname}"


Z, ZP, MODELS = "z_invariants", "zp_bar", "models"

HOOKS = [
    # linalg, Z route
    Hook("linalg", "smith_normal_form", ("calls", "self_s", "nnz_in"), (Z,),
         "norm_wall_s on z_invariants", idle_on=(ZP,), extra=_nnz_rows),
    Hook("linalg", "mat_vec", ("calls", "self_s"), (Z,),
         "norm_wall_s on z_invariants", idle_on=(ZP,)),
    Hook("linalg", "solve_Z", ("calls",), (Z,),
         "norm_wall_s on z_invariants", idle_on=(ZP,)),
    # No library caller at the seed: the map's z_invariants entry does not
    # hold.  Kept so that a new caller shows.
    Hook("linalg", "solve_in_image", ("calls",), (), "none (no caller)",
         idle_on=(Z, ZP, MODELS)),
    Hook("linalg", "CohomologyData.class_coords", ("total_s",), (Z,),
         "norm_wall_s on z_invariants"),
    # linalg, GF(p) route
    Hook("linalg", "ZpEliminator.insert", ("calls", "self_s", "useful"),
         (ZP, MODELS), "norm_wall_s on zp_bar and models", idle_on=(Z,),
         extra=_insert_useful),
    Hook("linalg", "ZpEliminator.express", ("calls",), (ZP, MODELS),
         "norm_wall_s on zp_bar and models", idle_on=(Z,)),
    Hook("linalg", "cohomology_sparse_zp", ("total_s",), (ZP, MODELS),
         "norm_wall_s on zp_bar and models", idle_on=(Z,)),
    # model
    Hook("model", "h2_stage_Zp", ("calls", "self_s", "t2_words"), (MODELS,),
         "norm_wall_s and peak_rss_mb on models", extra=_t2_words),
    Hook("model", "extend_stage", ("self_s",), (Z, MODELS),
         "norm_wall_s on z_invariants"),
    Hook("model", "h2_stage2_Z", ("total_s",), (Z,),
         "norm_wall_s on z_invariants"),
    Hook("model", "kappa", ("total_s",), (Z,),
         "norm_wall_s on z_invariants"),
    Hook("model", "n_step_compare", ("total_s",), (Z,),
         "norm_wall_s on z_invariants"),
    Hook("model", "psi_cohomology_comparison", ("total_s",), (ZP,),
         "norm_wall_s on zp_bar"),
    # differential, tensor, rings
    Hook("differential", "check_d_squared", ("total_s", "indices"),
         (MODELS,), "norm_wall_s on models", extra=_audit_indices),
    Hook("differential", "apply_d", ("self_s",), (MODELS,),
         "norm_wall_s on models"),
    Hook("differential", "Differential.d_index", ("calls", "self_s"),
         (MODELS,), "norm_wall_s on models"),
    Hook("tensor", "cup1_hirsch", ("calls", "self_s"), (MODELS,),
         "norm_wall_s on models", idle_on=(Z,)),
    Hook("rings", "BinomialPoly.__mul__", ("calls",), (MODELS,),
         "norm_wall_s on models", count_only=True),
    # delta
    Hook("delta", "bar_construction", ("total_s", "cells_3"), (ZP,),
         "norm_wall_s and peak_rss_mb on zp_bar", extra=_cells_3),
    Hook("delta", "coboundary_cols_sparse", ("total_s",), (ZP,),
         "norm_wall_s and peak_rss_mb on zp_bar"),
    Hook("delta", "segment_cohomology", ("self_s",), (ZP,),
         "norm_wall_s on zp_bar"),
    # The map put cup_cochain on zp_bar; only Massey products call it.
    Hook("delta", "cup_cochain", ("calls",), (Z,),
         "norm_wall_s on z_invariants", idle_on=(ZP,)),
    Hook("delta", "psi_embed", ("total_s",), (ZP,),
         "norm_wall_s on zp_bar"),
    # massey
    Hook("massey", "MasseyContext.__init__", ("total_s",), (Z,),
         "norm_wall_s on z_invariants"),
    Hook("massey", "MasseyContext.triple_massey", ("self_s",), (Z,),
         "norm_wall_s on z_invariants"),
    Hook("massey", "MasseyContext.solve_coboundary", ("calls",), (Z,),
         "norm_wall_s on z_invariants"),
    # front ends: small everywhere, listed so that a regression shows
    Hook("presentation", "presentation_complex", ("total_s",), (Z, MODELS),
         "norm_wall_s, small"),
    Hook("formats", "detect_and_parse", ("total_s",), (MODELS,),
         "norm_wall_s on models, small"),
    Hook("reports", "render_minimal_model", ("total_s",), (MODELS,),
         "norm_wall_s on models, small"),
    Hook("cli", "main", ("total_s",), (MODELS,),
         "norm_wall_s on models"),
]


def metric_names() -> list[str]:
    """Per-layer metric names, in ``HOOKS`` order, plus the overhead ratio."""
    out = []
    for h in HOOKS:
        for s in h.stats:
            out.append(f"{h.name}.{'useful_ratio' if s == 'useful' else s}")
    return out + ["trace.overhead_ratio"]


def metric_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    active: int = 0
    extra: dict = field(default_factory=dict)


class Tracer:
    """Installs ``HOOKS`` into the loaded cupone modules and undoes it."""

    def __init__(self, hooks=HOOKS):
        self.hooks = list(hooks)
        self.stats = {h.name: Stat() for h in self.hooks}
        self._stack: list[list[float]] = []
        self._undo: list[tuple] = []

    def _span(self, orig, stat: Stat, extra):
        stack = self._stack

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            stat.active += 1
            t0 = perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                stat.active -= 1
                stat.calls += 1
                stat.self_s += dur - frame[0]
                if not stat.active:
                    stat.total_s += dur
                if stack:
                    stack[-1][0] += dur
            if extra is not None:
                for k, v in extra(args, kwargs, result).items():
                    stat.extra[k] = stat.extra.get(k, 0) + v
            return result

        return wrapper

    @staticmethod
    def _count(orig, stat: Stat):
        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            stat.calls += 1
            return orig(*args, **kwargs)

        return wrapper

    def install(self):
        mods = [m for n, m in sys.modules.items() if m is not None
                and (n == "cupone" or n.startswith("cupone."))]
        for h in self.hooks:
            owner = sys.modules[f"cupone.{h.module}"]
            stat = self.stats[h.name]
            cls_name, _, attr = h.qualname.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[attr]
            else:
                orig = getattr(owner, attr)
            wrapper = (self._count(orig, stat) if h.count_only
                       else self._span(orig, stat, h.extra))
            if cls_name:
                setattr(cls, attr, wrapper)
                self._undo.append((cls, attr, orig))
                continue
            bound = 0
            for m in mods:
                for k, v in list(vars(m).items()):
                    if v is orig:
                        setattr(m, k, wrapper)
                        self._undo.append((m, k, orig))
                        bound += 1
            if not bound:
                raise RuntimeError(f"hook {h.name}: no namespace binds it")

    def uninstall(self):
        for obj, attr, orig in reversed(self._undo):
            setattr(obj, attr, orig)
        self._undo.clear()

    def metrics(self, rounds: int) -> dict[str, float]:
        """Every reported stat, per traced round."""
        out = {}
        for h in self.hooks:
            st = self.stats[h.name]
            for s in h.stats:
                if s == "useful":
                    useful = st.extra.get("useful", 0)
                    out[f"{h.name}.useful_ratio"] = (
                        useful / st.calls if st.calls else 0.0)
                elif s in ("calls", "total_s", "self_s"):
                    out[f"{h.name}.{s}"] = getattr(st, s) / rounds
                else:
                    out[f"{h.name}.{s}"] = st.extra.get(s, 0) / rounds
        return out

    def silent_hooks(self, workload: str) -> list[str]:
        """Hooks that should have worked on this workload but did not."""
        return [h.name for h in self.hooks
                if workload in h.works_on and not self.stats[h.name].calls]

    def busy_idle_hooks(self, workload: str) -> list[str]:
        """Hooks predicted to make no call here that did (a map error)."""
        return [h.name for h in self.hooks
                if workload in h.idle_on and self.stats[h.name].calls]
