"""Workload inputs, jobs and oracles.

A workload is a fixed list of jobs run one after another by one client.
Every job has a ``run`` step, which is timed and calls cupone's public
functions (through their modules, so installed hooks see each call), and
a ``check`` step, which is not timed: it turns the result into plain
data and compares it with a closed form that does not come from the
code being timed.

The seed only renames generators and reorders group elements and
Massey triples, in ways that leave the amount of work unchanged (see
``rename`` and ``relabeled_group``).  Sizes never depend on it.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from itertools import product
from typing import Callable

import cupone.cli as CLI
import cupone.delta as D
import cupone.massey as MA
import cupone.model as M
import cupone.presentation as P
from cupone.rings import RingSpec

Z = RingSpec.Z()

# Sizes.  The small set is for the self-test only.
FULL = {
    "z_invariants": {"borromean": (5, 7), "heisenberg": (2, 3),
                     "compare": (3, 5)},
    "zp_bar": {"bar": ((2, 4, ()), (3, 2, (2,)), (5, 1, (2, 2))),
               "psi": ((2, 4), (3, 2), (5, 1))},
    "models": {"borromean": 2, "weight_cap": 4},
}
SMALL = {
    "z_invariants": {"borromean": (2,), "heisenberg": (2,),
                     "compare": (1, 2)},
    "zp_bar": {"bar": ((2, 2, ()), (3, 1, (2,))), "psi": ((2, 2),)},
    "models": {"borromean": 1, "weight_cap": 3},
}


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], tuple]  # result -> (answer, list of errors)


# ---------------------------------------------------------------------------
# seeded input transforms

def fresh_names(rng: random.Random, k: int) -> list[str]:
    """k distinct generator names in increasing order; none clashes with
    the presentation complex's own cell ids (v, z, zz, r<i>:..., <g>~)."""
    out: set[str] = set()
    while len(out) < k:
        out.add(rng.choice("abcdefghkmnpqstuwx") + str(rng.randrange(100)))
    return sorted(out)


def rename(group, rng: random.Random):
    """Rename the generators, keeping their sorted order.

    Rotating relators cyclically would give another triangulation of the
    same space, with other matrices and another amount of work per seed;
    renaming in order keeps the work the same, so seeds do not add spread.
    """
    new = dict(zip(sorted(group.generators),
                   fresh_names(rng, len(group.generators))))
    return P.PresentedGroup(
        tuple(new[g] for g in group.generators),
        tuple(tuple((new[g], e) for g, e in rel) for rel in group.relators))


def pres_text(group) -> str:
    lines = ["gens: " + " ".join(group.generators)]
    for rel in group.relators:
        lines.append("rel: " + " ".join(g if e == 1 else f"{g}^-1"
                                        for g, e in rel))
    return "\n".join(lines) + "\n"


def relabeled_group(p: int, k: int, rest: tuple, rng: random.Random):
    """Z_p^k x prod Z_m (m in ``rest``) as a finite magma, its element
    list the natural order pushed through a random automorphism of the
    Z_p^k factor.  The bar complex is then the natural one up to renaming
    cells, so elimination does the same work for every seed; a plain
    shuffle of the elements changes that work several-fold."""
    def image(x):
        return tuple(sum(r[j] * x[j] for j in range(k)) % p for r in rows)

    natural = list(product(range(p), repeat=k))
    while True:
        rows = [[rng.randrange(p) for _ in range(k)] for _ in range(k)]
        if len({image(x) for x in natural}) == p ** k:
            break
    moduli = (p,) * k + tuple(rest)
    elems = [image(e[:k]) + e[k:]
             for e in product(*(range(m) for m in moduli))]

    def add(a, b):
        return tuple((x + y) % m for x, y, m in zip(a, b, moduli))

    return D.FiniteMagma(elems, add, unit=(0,) * len(moduli),
                         name_fn=lambda e: ",".join(map(str, e)))


def cocycle_duals(pc, ring):
    return [pc.dual_cochain(g, ring) for g in pc.group.generators
            if pc.dual_hints[g].is_cocycle]


def expect(errors: list, what: str, got, want):
    if got != want:
        errors.append(f"{what}: got {got!r}, want {want!r}")


def abelian(inv) -> tuple:
    """(rank, torsion) of AbelianInvariants, as plain data."""
    return (inv.rank, tuple(inv.torsion))


# ---------------------------------------------------------------------------
# z_invariants

def _borromean_job(n: int, rng: random.Random) -> Job:
    group = rename(P.borromean_presentation(n), rng)
    triples = list(product(range(3), repeat=3))
    rng.shuffle(triples)

    def run():
        pc = P.presentation_complex(group)
        reps = [pc.dual_cochain(g, Z) for g in group.generators]
        stages = M.minimal_model(pc.delta, Z, 2, reps)
        kap = M.kappa(stages[-1])
        ctx = MA.MasseyContext(pc.delta, Z, reps)
        massey = {t: ctx.triple_massey(*(reps[i] for i in t)) for t in triples}
        return pc, stages[-1], kap, massey

    def check(result):
        pc, stage, kap, massey = result
        cycles = [pc.relator_cycle(r) for r in range(2)]
        answer = {
            "kappa": abelian(kap.torsion),
            "h2_orders": sorted(g.order for g in stage.h2_model),
            "massey": {t: (len(res.indeterminacy),
                           tuple(res.representative.pair_with_chain(c)
                                 for c in cycles))
                       for t, res in sorted(massey.items())},
        }
        errors: list = []
        expect(errors, "kappa_2", answer["kappa"], (0, (n, n)) if n > 1
               else (0, ()))
        expect(errors, "H^2(M_2) orders", answer["h2_orders"], [0] * 8)
        # All cup products vanish, so each product has no indeterminacy and
        # its value on relator cycle r is -eps3_r of the Magnus expansion.
        pairs = MA.magnus_pairings(group)
        for (a, b, c), value in answer["massey"].items():
            want = (0, tuple(-pairs.eps3[r].get((a + 1, b + 1, c + 1), 0)
                             for r in range(2)))
            expect(errors, f"<u{a + 1},u{b + 1},u{c + 1}>", value, want)
        return answer, errors

    return Job(f"borromean_n{n}", run, check)


def _heisenberg_job(k: int, rng: random.Random) -> Job:
    group = rename(P.heisenberg_presentation(k), rng)

    def run():
        pc = P.presentation_complex(group)
        stages = M.minimal_model(pc.delta, Z, 2, cocycle_duals(pc, Z))
        return stages[-1], M.kappa(stages[-1])

    def check(result):
        stage, kap = result
        answer = {"cokernel": abelian(kap.cokernel),
                  "h2_orders": sorted(g.order for g in stage.h2_model)}
        errors: list = []
        expect(errors, "coker H^2(rho_2)", answer["cokernel"], (0, ()))
        expect(errors, "H^2(M_2) orders", answer["h2_orders"],
               sorted([0, 0] + ([k] if k > 1 else [])))
        return answer, errors

    return Job(f"heisenberg_k{k}", run, check)


def _compare_job(n: int, m: int, rng: random.Random) -> Job:
    ga = rename(P.borromean_presentation(n), rng)
    gb = rename(P.borromean_presentation(m), rng)

    def run():
        pa, pb = P.presentation_complex(ga), P.presentation_complex(gb)
        return M.n_step_compare(pa.delta, pb.delta, Z, 2,
                                h1_reps_a=cocycle_duals(pa, Z),
                                h1_reps_b=cocycle_duals(pb, Z))

    def check(verdict):
        answer = {"verdict": verdict.verdict,
                  "left": abelian(verdict.left.torsion),
                  "right": abelian(verdict.right.torsion)}
        errors: list = []
        expect(errors, "verdict", answer["verdict"], "distinguished")
        expect(errors, "left kappa_2", answer["left"],
               (0, (n, n) if n > 1 else ()))
        expect(errors, "right kappa_2", answer["right"],
               (0, (m, m) if m > 1 else ()))
        return answer, errors

    return Job(f"compare_n{n}_n{m}", run, check)


def z_invariants(rng: random.Random, sizes: dict, workdir: str) -> list[Job]:
    jobs = [_borromean_job(n, rng) for n in sizes["borromean"]]
    jobs += [_heisenberg_job(k, rng) for k in sizes["heisenberg"]]
    jobs.append(_compare_job(*sizes["compare"], rng))
    return jobs


# ---------------------------------------------------------------------------
# zp_bar

def _bar_job(p: int, k: int, rest: tuple, rng: random.Random) -> Job:
    group = relabeled_group(p, k, rest, rng)
    ring = RingSpec.Zp(p)

    def run():
        mc = D.bar_construction(group, 3)
        return (mc, D.segment_cohomology(mc.delta, ring, 1),
                D.segment_cohomology(mc.delta, ring, 2))

    def check(result):
        mc, h1, h2 = result
        q = len(group)
        answer = {"cells": [len(mc.delta.cells[d]) for d in range(4)],
                  "h1": h1.orders, "h2": h2.orders}
        # A factor of order prime to p has trivial mod-p cohomology, so
        # H^*(Z_p^k x rest; Z_p) = H^*(Z_p^k; Z_p): dimensions k, k(k+1)/2.
        errors: list = []
        expect(errors, "cells", answer["cells"], [1, q, q * q, q ** 3])
        expect(errors, "H^1 orders", answer["h1"], [p] * k)
        expect(errors, "H^2 orders", answer["h2"], [p] * (k * (k + 1) // 2))
        return answer, errors

    suffix = "".join(f"x{m}" for m in rest)
    return Job(f"bar_{p}^{k}{suffix}", run, check)


def _psi_job(p: int, k: int, rng: random.Random) -> Job:
    names = fresh_names(rng, k)
    ring = RingSpec.Zp(p)

    def run():
        return M.psi_cohomology_comparison(names, ring)

    def check(cmp):
        answer = {"ok": cmp.ok, "model": cmp.dims_model, "bar": cmp.dims_bar}
        dims = {1: k, 2: k * (k + 1) // 2}
        errors: list = []
        expect(errors, "psi.ok", answer["ok"], True)
        expect(errors, "dims (model)", answer["model"], dims)
        expect(errors, "dims (bar)", answer["bar"], dims)
        return answer, errors

    return Job(f"psi_{p}^{k}", run, check)


def zp_bar(rng: random.Random, sizes: dict, workdir: str) -> list[Job]:
    return ([_bar_job(p, k, rest, rng) for p, k, rest in sizes["bar"]]
            + [_psi_job(p, k, rng) for p, k in sizes["psi"]])


# ---------------------------------------------------------------------------
# models

def _model_job(label: str, path: str, argv: list[str], stages: int,
               h1_rank: int, final_orders: list[int]) -> Job:
    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = CLI.main(["minimal-model", "--format", "json",
                             "--stages", str(stages), *argv, path])
        return code, out.getvalue()

    def check(result):
        code, text = result
        errors: list = []
        if code != 0:
            return {"exit": code}, [f"exit code {code}"]
        payload = json.loads(text)["results"]
        last = payload["stages"][-1]
        answer = {"audit_passed": payload["d2_audit"]["passed"],
                  "stages": len(payload["stages"]),
                  "h1_rank": last["H1_rank"],
                  "h2_orders": sorted(g["order"] for g in last["H2_model"])}
        expect(errors, "d^2 audit passed", answer["audit_passed"], True)
        expect(errors, "stages", answer["stages"], stages)
        expect(errors, "H^1 rank", answer["h1_rank"], h1_rank)
        expect(errors, "final H^2 orders", answer["h2_orders"], final_orders)
        return answer, errors

    return Job(label, run, check)


def models(rng: random.Random, sizes: dict, workdir: str) -> list[Job]:
    """Files are written here, during set-up; the jobs parse them."""
    n, cap = sizes["borromean"], sizes["weight_cap"]
    inputs = {
        "borromean": rename(P.borromean_presentation(n), rng),
        "torus": rename(P.torus_presentation(), rng),
        "heisenberg_k2": rename(P.heisenberg_presentation(2), rng),
    }
    paths = {}
    for label, group in inputs.items():
        paths[label] = os.path.join(workdir, f"{label}.pres")
        with open(paths[label], "w", encoding="utf-8") as fh:
            fh.write(pres_text(group))
    # Over Z_p every stage of these models has H^2 of dimension
    # r(r+1)/2, r = rank H^1, all classes of order p; over Z the stage-2
    # model of a Borromean link has H^2 = Z^8.
    return [
        _model_job(f"borromean_n{n}_Z_wc{cap}", paths["borromean"],
                   ["--weight-cap", str(cap)], 2, 3, [0] * 8),
        _model_job("torus_Zp3_s2", paths["torus"], ["--ring", "Zp:3"],
                   2, 2, [3] * 3),
        _model_job("torus_Zp2_s3", paths["torus"], ["--ring", "Zp:2"],
                   3, 2, [2] * 3),
        _model_job("heisenberg_k2_Zp2_s2", paths["heisenberg_k2"],
                   ["--ring", "Zp:2"], 2, 3, [2] * 6),
    ]


BUILDERS = {"z_invariants": z_invariants, "zp_bar": zp_bar, "models": models}


def build(workload: str, seed: int, workdir: str,
          small: bool = False) -> list[Job]:
    sizes = (SMALL if small else FULL)[workload]
    return BUILDERS[workload](random.Random(seed), sizes, workdir)
