"""Deterministic report rendering (text and JSON payloads).

Every report function returns (text, payload); the CLI prints the text
or dumps the payload.  Abelian groups render as ``Z^r + Z/d1 + Z/d2``
in text and ``{"rank": r, "torsion": [d1, d2]}`` in JSON.  All orderings
are fixed by construction, so identical inputs give identical bytes.
"""
from __future__ import annotations

from .linalg import AbelianInvariants
from .model import KappaInvariant, ModelStage


def json_dumps(payload: dict) -> str:
    import json
    return json.dumps(payload, indent=2, sort_keys=False) + "\n"


def wrap_payload(command: str, ring, results: dict) -> dict:
    return {"command": command,
            "ring": repr(ring),
            "results": results}


def render_cohomology(ring, invariants: dict[int, AbelianInvariants]):
    lines = [f"ring {ring!r}"]
    for k in sorted(invariants):
        lines.append(f"H^{k} = {invariants[k].render()}")
    text = "\n".join(lines) + "\n"
    payload = wrap_payload(
        "cohomology", ring,
        {f"H{k}": invariants[k].to_json() for k in sorted(invariants)})
    return text, payload


def stage_dict(stage: ModelStage) -> dict:
    gens = []
    for g in stage.gens.names:
        gens.append({
            "name": g,
            "level": stage.gens.level[g],
            "differential": stage.diff.tau[g].render(),
            "rho": {c: v for c, v in sorted(stage.rho[g].terms.items())}
            if g in stage.rho else None,
        })
    h2 = None
    if stage.h2_model is not None:
        h2 = [{"order": g.order, "representative": g.rep.render()}
              for g in stage.h2_model]
    ker = None
    if stage.ker_basis is not None:
        ker = [rep.render() for rep in stage.ker_basis]
    return {"stage": stage.n,
            "generators": gens,
            "H1_rank": len(stage.h1_names),
            "H2_model": h2,
            "kernel_basis": ker,
            "complete": stage.complete,
            "H2_route": ("minimal-resolution-Zp" if stage.ring.is_modular
                         else "derived-degree-2-splitting")}


def render_minimal_model(ring, stages: list[ModelStage], d2_audit=None):
    lines = [f"ring {ring!r}"]
    for st in stages:
        lines.append(f"stage {st.n}:")
        for g in st.gens.names:
            tau = st.diff.tau[g].render()
            lines.append(f"  {g} (level {st.gens.level[g]}): d = {tau}")
        if st.h2_model is not None:
            lines.append(f"  H^1(M_{st.n}) rank = {len(st.h1_names)}")
            orders = [g.order for g in st.h2_model]
            inv = AbelianInvariants(sum(1 for o in orders if o == 0),
                                    tuple(sorted(o for o in orders if o)))
            lines.append(f"  H^2(M_{st.n}) = {inv.render()}")
            for g in st.h2_model:
                tag = "free" if g.order == 0 else f"order {g.order}"
                lines.append(f"    {tag}: {g.rep.render()}")
        if st.ker_basis is not None:
            lines.append(f"  ker H^2(rho_{st.n}) rank = {len(st.ker_basis)}")
            for rep in st.ker_basis:
                lines.append(f"    {rep.render()}")
        lines.append(f"  complete: {'yes' if st.complete else 'no'}")
    results = {"stages": [stage_dict(st) for st in stages]}
    if d2_audit is not None:
        cap, audit = d2_audit
        status = "pass" if audit.passed else "FAIL"
        lines.append(f"d^2 audit (zeta basis, weight <= {cap}): "
                     f"{audit.checked} checked: {status}")
        results["d2_audit"] = {"weight_cap": cap, "checked": audit.checked,
                               "passed": audit.passed}
    text = "\n".join(lines) + "\n"
    payload = wrap_payload("minimal-model", ring, results)
    return text, payload


def render_kappa(ring, kap: KappaInvariant):
    lines = [f"ring {ring!r}",
             f"coker H^2(rho_{kap.n}) = {kap.cokernel.render()}",
             f"kappa_{kap.n} = {kap.torsion.render()}"]
    text = "\n".join(lines) + "\n"
    payload = wrap_payload("kappa", ring, {
        "n": kap.n,
        "cokernel": kap.cokernel.to_json(),
        f"kappa_{kap.n}": kap.torsion.to_json()})
    return text, payload


def render_compare(ring, verdict, n: int):
    lines = [f"ring {ring!r}",
             f"left  coker H^2(rho_{n}) = {verdict.left.cokernel.render()}",
             f"right coker H^2(rho_{n}) = {verdict.right.cokernel.render()}"]
    if verdict.forget_torsion:
        lines.append("comparison: torsion forgotten (rational analog)")
    lines.append(verdict.verdict)
    text = "\n".join(lines) + "\n"
    payload = wrap_payload("compare", ring, {
        "n": n,
        "left": verdict.left.cokernel.to_json(),
        "right": verdict.right.cokernel.to_json(),
        "forget_torsion": verdict.forget_torsion,
        "verdict": verdict.verdict})
    return text, payload


def render_massey(ring, entries):
    """entries: list of (triple, MasseyResult-or-str)."""
    lines = [f"ring {ring!r}"]
    rows = []
    for triple, res in entries:
        key = ",".join(str(t) for t in triple)
        if isinstance(res, str):
            lines.append(f"<u{key}> undefined: {res}")
            rows.append({"triple": list(triple), "undefined": res})
            continue
        coords = ",".join(str(c) for c in res.coords)
        lines.append(f"<u{key}> = [{coords}]")
        for gen in res.indeterminacy:
            lines.append("  indeterminacy gen: ["
                         + ",".join(str(c) for c in gen) + "]")
        rows.append({"triple": list(triple),
                     "coords": list(res.coords),
                     "indeterminacy": [list(g) for g in res.indeterminacy]})
    text = "\n".join(lines) + "\n"
    return text, wrap_payload("massey", ring, {"products": rows})


def render_group(ring, gr):
    lines = [f"ring {ring!r}", "multiplication law:"]
    for g in sorted(gr.law_rendered):
        lines.append(f"  mu(a,a')({g}) = {gr.law_rendered[g]}")
    for level, names in gr.tower:
        lines.append(f"central extension kernel at level {level}: "
                     + " ".join(names))
    for key in sorted(gr.audit):
        lines.append(f"audit {key}: {gr.audit[key]}")
    text = "\n".join(lines) + "\n"
    payload = wrap_payload("group-realize", ring, {
        "law": {g: gr.law_rendered[g] for g in sorted(gr.law_rendered)},
        "tower": [{"level": lv, "kernel": names} for lv, names in gr.tower],
        "audit": {k: str(v) for k, v in sorted(gr.audit.items())}})
    return text, payload


def render_bar(ring, counts: dict[int, int]):
    lines = [f"ring {ring!r}"]
    lines.append("cells: " + " ".join(str(counts[d]) for d in sorted(counts)))
    text = "\n".join(lines) + "\n"
    return text, wrap_payload("bar", ring,
                              {"cells": {str(d): counts[d]
                                         for d in sorted(counts)}})


def render_verify(ring, results):
    lines = [f"ring {ring!r}"]
    for r in results:
        lines.append(r.line())
    ok = all(r.passed for r in results)
    lines.append("all-pass" if ok else "FAILURES")
    text = "\n".join(lines) + "\n"
    payload = wrap_payload("verify-axioms", ring, {
        "suites": [{"name": r.name, "cases": r.cases,
                    "passed": r.passed,
                    "failures": [str(f) for f in r.failures]}
                   for r in results],
        "all_pass": ok})
    return text, payload
