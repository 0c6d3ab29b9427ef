"""Presentation 2-complexes of finitely presented groups as Delta-sets.

The complex has one vertex, an edge per generator, an edge g~ per
generator that occurs inverted, and a trivialized edge z carried by the
2-cell (z, z) with long face z.  Each inverse pair contributes a gadget
2-cell (g, g~) with long face z, and each relator a_1 ... a_l is
triangulated as a fan: diagonal edges p_2, ..., p_{l-1} and 2-cells
s_i = (p_i, a_{i+1}) with long face p_{i+1}, where p_1 = a_1 and p_l = z.
The realization has fundamental group the presented group.

When every relator has zero exponent sums, the generator-dual 1-cochains
extend over the diagonals by prefix sums to honest cocycles, and each
relator carries a 2-cycle (its torus when the relator is a commutator).
"""
from __future__ import annotations

from .delta import Cochain, DeltaSet
from .rings import PreconditionError, RingSpec


class PresentedGroup:
    def __init__(self, generators: tuple[str, ...],
                 relators: tuple[tuple[tuple[str, int], ...], ...]):
        self.generators = generators
        self.relators = relators  # ((gen, +-1), ...)
        for rel in relators:
            if not rel:
                raise PreconditionError("empty relator")
            for name, e in rel:
                if name not in generators:
                    raise PreconditionError(
                        f"relator uses unknown generator {name}")
                if e not in (1, -1):
                    raise PreconditionError(
                        "relator letters carry exponent +-1")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.generators, self.relators) == \
            (other.generators, other.relators)

    def __hash__(self):
        return hash((self.generators, self.relators))

    def exponent_sums(self, rel) -> dict[str, int]:
        out = {g: 0 for g in self.generators}
        for name, e in rel:
            out[name] += e
        return out

    def all_zero_exponent_sums(self) -> bool:
        return all(not any(self.exponent_sums(r).values())
                   for r in self.relators)


def word(letters) -> tuple[tuple[str, int], ...]:
    """Parse ["a", "b^-1", ...] style tokens into letter pairs."""
    out = []
    for tok in letters:
        if tok.endswith("^-1"):
            out.append((tok[:-3], -1))
        else:
            out.append((tok, 1))
    return tuple(out)


def inverse_word(w) -> tuple:
    return tuple((name, -e) for name, e in reversed(w))


def commutator(u, v) -> tuple:
    return tuple(u) + tuple(v) + inverse_word(u) + inverse_word(v)


def power(w, n: int) -> tuple:
    if n < 0:
        return inverse_word(power(w, -n))
    return tuple(w) * n


class PresentationComplex:
    def __init__(self, group: PresentedGroup, delta: DeltaSet,
                 dual_hints: dict[str, CochainHint],
                 relator_fan_cells: list[list[str]],
                 inverse_gadgets: dict[str, str], bar_edges: dict[str, str]):
        self.group, self.delta, self.dual_hints = group, delta, dual_hints
        self.relator_fan_cells = relator_fan_cells
        self.inverse_gadgets = inverse_gadgets  # generator -> gadget cell id
        self.bar_edges = bar_edges              # generator -> inverted edge id

    def dual_cochain(self, gen: str, ring: RingSpec) -> Cochain:
        hint = self.dual_hints[gen]
        if not hint.is_cocycle:
            raise PreconditionError(
                f"dual of {gen} is not a cocycle (nonzero exponent sums)")
        return Cochain(1, ring, hint.values)

    def relator_cycle(self, i: int) -> dict[str, int]:
        """The 2-cycle carried by relator i (zero exponent sums required)."""
        rel = self.group.relators[i]
        sums = self.group.exponent_sums(rel)
        if any(sums.values()):
            raise PreconditionError(
                "relator cycle needs zero exponent sums")
        chain = {c: 1 for c in self.relator_fan_cells[i]}
        inverted = {}
        for name, e in rel:
            if e == -1:
                inverted[name] = inverted.get(name, 0) + 1
        total = 0
        for name, count in inverted.items():
            chain[self.inverse_gadgets[name]] = \
                chain.get(self.inverse_gadgets[name], 0) - count
            total += count
        chain["zz"] = chain.get("zz", 0) - (total - 1)
        return {c: m for c, m in chain.items() if m}


class CochainHint:
    def __init__(self, values: dict[str, int], is_cocycle: bool):
        self.values, self.is_cocycle = values, is_cocycle


def presentation_complex(group: PresentedGroup) -> PresentationComplex:
    gens = list(group.generators)
    inverted = []
    for rel in group.relators:
        for name, e in rel:
            if e == -1 and name not in inverted:
                inverted.append(name)
    cells = {0: ["v"], 1: [], 2: [], 3: []}
    faces = {}

    def add_edge(cid):
        cells[1].append(cid)
        faces[cid] = ("v", "v")

    for g in gens:
        add_edge(g)
    bar_edges = {}
    for g in inverted:
        bid = f"{g}~"
        bar_edges[g] = bid
        add_edge(bid)
    add_edge("z")
    cells[2].append("zz")
    faces["zz"] = ("z", "z", "z")
    inverse_gadgets = {}
    for g in inverted:
        cid = f"inv:{g}"
        inverse_gadgets[g] = cid
        cells[2].append(cid)
        faces[cid] = (bar_edges[g], "z", g)

    def edge_of(letter):
        name, e = letter
        return name if e == 1 else bar_edges[name]

    relator_fan_cells = []
    for ri, rel in enumerate(group.relators):
        letters = [edge_of(l) for l in rel]
        ell = len(letters)
        fan = []
        if ell == 1:
            cid = f"r{ri}:s1"
            cells[2].append(cid)
            faces[cid] = ("z", "z", letters[0])
            relator_fan_cells.append([cid])
            continue
        # prefix edges p_1 = a_1, p_2..p_{l-1} fresh, p_l = z
        prefixes = [letters[0]]
        for j in range(2, ell):
            pid = f"r{ri}:p{j}"
            add_edge(pid)
            prefixes.append(pid)
        prefixes.append("z")
        for j in range(ell - 1):
            cid = f"r{ri}:s{j + 1}"
            cells[2].append(cid)
            faces[cid] = (letters[j + 1], prefixes[j + 1], prefixes[j])
            fan.append(cid)
        relator_fan_cells.append(fan)

    delta = DeltaSet(cells, faces)

    # Generator duals extended by prefix sums over the diagonals.
    dual_hints = {}
    for g in gens:
        vals = {g: 1}
        if g in bar_edges:
            vals[bar_edges[g]] = -1
        consistent = True
        for ri, rel in enumerate(group.relators):
            if len(rel) == 1:
                if rel[0][0] == g:
                    consistent = False
                continue
            prefix = 1 if rel[0] == (g, 1) else (-1 if rel[0] == (g, -1) else 0)
            for j in range(2, len(rel)):
                name, e = rel[j - 1]
                if name == g:
                    prefix += e
                if prefix:
                    vals[f"r{ri}:p{j}"] = prefix
            name, e = rel[-1]
            tail = prefix + (e if name == g else 0)
            if tail:
                consistent = False  # nonzero exponent sum: p_l = z needs 0
        dual_hints[g] = CochainHint(values=vals, is_cocycle=consistent)
    return PresentationComplex(group=group, delta=delta,
                               dual_hints=dual_hints,
                               relator_fan_cells=relator_fan_cells,
                               inverse_gadgets=inverse_gadgets,
                               bar_edges=bar_edges)


# ---------------------------------------------------------------------------
# stock presentations

def wedge_presentation(n: int) -> PresentedGroup:
    return PresentedGroup(tuple(f"g{i + 1}" for i in range(n)), ())


def torus_presentation() -> PresentedGroup:
    rel = commutator(word(["g1"]), word(["g2"]))
    return PresentedGroup(("g1", "g2"), (rel,))


def cyclic_presentation(k: int) -> PresentedGroup:
    return PresentedGroup(("g",), (power(word(["g"]), k),))


def heisenberg_presentation(k: int) -> PresentedGroup:
    """<g1, g2, g12 | [g1,g2] g12^{-k}, [g1,g12], [g2,g12]>."""
    g1, g2, g12 = word(["g1"]), word(["g2"]), word(["g12"])
    r0 = commutator(g1, g2) + power(g12, -k)
    r1 = commutator(g1, g12)
    r2 = commutator(g2, g12)
    return PresentedGroup(("g1", "g2", "g12"), (r0, r1, r2))


def borromean_presentation(n: int) -> PresentedGroup:
    """Meridian-longitude relators of the generalized Borromean link L(n):
    [x2, [x1,x3]^n] and [x3, [x2,x1]^n].

    The first relator torus is dual to gamma_{1,2}, the second to
    gamma_{1,3}; the Magnus gate certifies that the family realizes
    <u1,u2,u3> = -n gamma_13 and <u1,u3,u2> = +n gamma_12 with all
    pairwise cup products zero.
    """
    x1, x2, x3 = word(["x1"]), word(["x2"]), word(["x3"])
    r12 = commutator(x2, power(commutator(x1, x3), n))
    r13 = commutator(x3, power(commutator(x2, x1), n))
    return PresentedGroup(("x1", "x2", "x3"), (r12, r13))
