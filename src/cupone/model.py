"""Stage-wise 1-minimal models of simplicial cochain algebras.

Stage 1 is (T(X_1), d_0) with one generator per H^1 basis class of the
target; stage n+1 adjoins one generator y per basis element of the free
module ker H^2(rho_n), with d(y) = -(kernel representative) and rho(y)
solved exactly from delta rho(y) = rho(dy).

Over Z the degree-2 cohomology of a stage-2 model is assembled from the
two spectral-sequence pieces: Lambda^2(X_1)/K in Smith normal form and
the kernel E of the pairing H^1 (x) span(Y) -> Lambda^3(X_1), each
E-element completed to a cocycle by an exact weight-graded solve; every
representative is re-verified to be a cocycle.  Over Z_p the H^2 of any
stage is that of the finite truncation T^1 -> T^2 -> T^3, the cobar
complex of (T^1, d): it is read off a minimal resolution of the dual
algebra A = (T^1)^*, in dimension r (p^n - 1) for n generators and
r = dim H^1 rather than over the (p^n - 1)^2 words of T^2.  Stages with
p^n - 1 above ZP_STAGE_LIMIT are refused before any basis is built.

kappa_n pushes an H^2(M_n) generating set through rho simplicially and
reports the torsion of the cokernel inside H^2(X; R) (the full cokernel
invariants ride along, being themselves an n-step invariant).
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .delta import (
    Cochain,
    DeltaSet,
    MagmaLaw,
    check_admissible,
    coboundary,
    cup_cochain,
    magma_from_tau,
    segment_cohomology,
)
from .differential import (
    Differential,
    GeneratorSet,
    apply_d,
    build_differential,
    iter_indices,
    zero_differential,
)
from .interval import CylEl, cylinder_over_complex
from .linalg import (
    AbelianInvariants,
    CohomologyData,
    ZpEliminator,
    cohomology_at,
    image_solver,
    kernel_basis_Z,
    kernel_into_presented,
    kernel_mod_p,
    lattice_basis,
    smith_normal_form,
)
from .rings import BinomialPoly, InternalError, MultiIndex, RingSpec, binom_of
from .tensor import TensorElem, cup


class PreconditionError(ValueError):
    """A mathematical precondition of an operation fails."""


class RepresentativesRejected(PreconditionError):
    """Supplied H^1 representatives are not a basis of H^1."""


class StageCapError(RuntimeError):
    """Stage-model H^2 over Z is supported for n <= 2 only."""


@dataclass
class H2Gen:
    order: int              # 0 for a free generator, d > 1 for torsion
    rep: TensorElem
    label: str


@dataclass
class ModelStage:
    n: int
    ring: RingSpec
    gens: GeneratorSet
    diff: Differential
    target: DeltaSet
    rho: dict[str, Cochain]
    h1_names: list[str]
    h2x: CohomologyData
    h2_model: list[H2Gen] | None = None
    h2_image: list[list[int]] | None = None  # h2x coords of rho(h2_model)
    ker_basis: list[TensorElem] | None = None
    complete: bool = False

    def level_names(self, m: int) -> list[str]:
        return self.gens.at_level(m)


# ---------------------------------------------------------------------------
# weight-graded bases of (T(X), d_0) and exterior coordinates

def t1_weight_basis(names, w, ring) -> list[MultiIndex]:
    return [i for i in iter_indices(names, w, ring.max_zeta)
            if i.weight == w]


def t_word_basis(names, w, length, ring) -> list[tuple]:
    """Words of the given length with total weight w."""
    if length == 1:
        return [(i,) for i in t1_weight_basis(names, w, ring)]
    out = []
    for w1 in range(1, w - length + 2):
        for head in t1_weight_basis(names, w1, ring):
            for tail in t_word_basis(names, w - w1, length - 1, ring):
                out.append((head,) + tail)
    return out


def elem_vector(t: TensorElem, index: dict, size: int) -> list[int]:
    v = [0] * size
    for w, c in t.terms.items():
        pos = index.get(w)
        if pos is None:
            raise ValueError(f"word {w!r} outside the chosen basis")
        v[pos] = c
    return v


def d0_weight_matrix(names, w, length, ring):
    """Matrix of d_0 from words of the given length/weight to length+1."""
    d0 = zero_differential(GeneratorSet(names), ring)
    src = t_word_basis(names, w, length, ring)
    dst = t_word_basis(names, w, length + 1, ring)
    index = {word: i for i, word in enumerate(dst)}
    rows = [[0] * len(src) for _ in dst]
    for j, word in enumerate(src):
        val = apply_d(d0, TensorElem(ring, {word: 1}))
        for wv, c in val.terms.items():
            rows[index[wv]][j] = c
    return src, dst, rows


def exterior_weight_cohomology(names, ring, w: int, degree: int) -> CohomologyData:
    """H^degree of (T(X), d_0) in one weight, by direct linear algebra."""
    from .linalg import ComplexSegment
    mid = t_word_basis(names, w, degree, ring)
    low = t_word_basis(names, w, degree - 1, ring) if degree > 1 else []
    up = t_word_basis(names, w, degree + 1, ring) if degree < 3 else []
    if degree > 1:
        _, _, A = d0_weight_matrix(names, w, degree - 1, ring)
    else:
        A = [[] for _ in mid]
    if degree < 3 and up:
        _, _, B = d0_weight_matrix(names, w, degree, ring)
    else:
        B, up = [], []
    seg = ComplexSegment(ring, low, mid, up, A, B)
    return cohomology_at(seg)


def lambda2_basis(names) -> list[tuple[str, str]]:
    return [(names[i], names[j]) for i in range(len(names))
            for j in range(i + 1, len(names))]


def lambda2_coords(t: TensorElem, names) -> list[int]:
    """Class coordinates of a weight-2 cocycle of (T(X_1), d_0) in the
    exterior basis [x_i (x) x_j], i < j; uses d zeta_2(x) = -x (x) x and
    d(x cup1 y) = -x(x)y - y(x)x.  Valid over Z and Z_p with p odd."""
    pos = {n: i for i, n in enumerate(names)}
    basis = lambda2_basis(names)
    slot = {pair: i for i, pair in enumerate(basis)}
    out = [0] * len(basis)
    for word, c in t.terms.items():
        if len(word) != 2 or any(f.weight != 1 for f in word):
            raise ValueError("lambda2 coordinates need weight-2 words")
        a = word[0].entries[0][0]
        b = word[1].entries[0][0]
        if a == b:
            continue
        if pos[a] < pos[b]:
            out[slot[(a, b)]] += c
        else:
            out[slot[(b, a)]] -= c
    return out


def lambda3_coords(t: TensorElem, names) -> list[int]:
    """Class coordinates of a weight-3 degree-3 element in the exterior
    basis [x_i (x) x_j (x) x_k], i < j < k (words with repeats die)."""
    pos = {n: i for i, n in enumerate(names)}
    basis = [(names[i], names[j], names[k])
             for i in range(len(names))
             for j in range(i + 1, len(names))
             for k in range(j + 1, len(names))]
    slot = {tri: i for i, tri in enumerate(basis)}
    out = [0] * len(basis)
    for word, c in t.terms.items():
        if len(word) != 3 or any(f.weight != 1 for f in word):
            raise ValueError("lambda3 coordinates need weight-3 words")
        letters = [f.entries[0][0] for f in word]
        if len(set(letters)) != 3:
            continue
        order = sorted(letters, key=lambda n: pos[n])
        # parity of the permutation taking letters to sorted order
        perm = [order.index(l) for l in letters]
        sign = 1
        for i in range(3):
            for j in range(i + 1, 3):
                if perm[i] > perm[j]:
                    sign = -sign
        out[slot[tuple(order)]] += sign * c
    return out


def word_pair(a: str, b: str, ring, c: int = 1) -> TensorElem:
    return TensorElem(ring, {(MultiIndex.single(a), MultiIndex.single(b)): c})


@dataclass
class H2FreeData:
    """H^2 of (T(X_1), d_0) over Z: the exterior basis with coordinates."""
    names: list[str]
    basis: list[tuple[str, str]]
    reps: list[TensorElem]

    def coords(self, t: TensorElem) -> list[int]:
        return lambda2_coords(t, self.names)


def h2_free_d0(names, ring: RingSpec) -> H2FreeData:
    """Basis [x_i T x_j], i < j, of H^2(T(X_1), d_0) with the weight-2
    coordinate functional (the d zeta_2 and d(x cup1 y) reductions)."""
    if ring.is_modular and ring.p == 2:
        raise PreconditionError(
            "over Z_2 the degree-2 cohomology is not exterior; "
            "use the Z_p stage cohomology (h2_stage_Zp)")
    names = list(names)
    basis = lambda2_basis(names)
    reps = [word_pair(a, b, ring) for a, b in basis]
    return H2FreeData(names=names, basis=basis, reps=reps)


# ---------------------------------------------------------------------------
# pushing model elements into the cochain algebra

def rho_poly(stage_rho: dict, X: DeltaSet, ring, idx: MultiIndex) -> Cochain:
    """rho(zeta_I): pointwise product of binomials of the rho-values."""
    out = {}
    for e in X.cells[1]:
        v = 1
        for name, k in idx.entries:
            v *= binom_of(stage_rho[name].values.get(e, 0), k, ring)
            if not v:
                break
        v = ring.normalize(v)
        if v:
            out[e] = v
    return Cochain(1, ring, out)


def rho_push(stage: "ModelStage", t: TensorElem) -> Cochain:
    """Apply the structural morphism to a tensor element (degree <= 3)."""
    X, ring = stage.target, stage.ring
    deg = t.degree() if not t.is_zero() else 2
    acc = Cochain(deg, ring, {})
    for word, c in t.terms.items():
        factors = [rho_poly(stage.rho, X, ring, idx) for idx in word]
        cur = factors[0]
        for f in factors[1:]:
            cur = cup_cochain(X, cur, f)
        acc = acc + cur.scale(c)
    return acc


# ---------------------------------------------------------------------------
# stage 1

def stage1(X: DeltaSet, ring: RingSpec,
           h1_reps: list[Cochain] | None = None) -> ModelStage:
    h0 = segment_cohomology(X, ring, 0)
    if ring.is_modular:
        connected = len(h0.generators) == 1
    else:
        connected = h0.invariants == AbelianInvariants(1, ())
    if not connected:
        raise PreconditionError(f"target is not connected: H^0 = "
                                f"{h0.invariants.render()}")
    h1 = segment_cohomology(X, ring, 1)
    if not ring.is_modular and h1.invariants.torsion:
        raise PreconditionError(
            f"H^1 is not free: {h1.invariants.render()}")
    if h1_reps is None:
        reps = [Cochain(1, ring, dict(zip(X.cells[1], rep)))
                for _, rep in h1.generators]
    else:
        reps = list(h1_reps)
        coords = [h1.class_coords(r.vector(X.cells[1])) for r in reps]
        k = len(h1.generators)
        if len(reps) != k:
            raise RepresentativesRejected(
                "wrong number of H^1 representatives")
        if ring.is_modular:
            elim = ZpEliminator(ring.p, len(coords), k)
            for v in coords:
                elim.insert({i: x for i, x in enumerate(v) if x % ring.p})
            ok = elim.rank == k
        else:
            snf = smith_normal_form(coords, k)
            ok = snf.diag == [1] * k
        if not ok:
            raise RepresentativesRejected(
                "supplied cochains are not an H^1 basis")
    names = [f"x{i + 1}" for i in range(len(reps))]
    gens = GeneratorSet(names, {n: 1 for n in names})
    diff = zero_differential(gens, ring)
    h2x = segment_cohomology(X, ring, 2)
    stage = ModelStage(n=1, ring=ring, gens=gens, diff=diff, target=X,
                       rho=dict(zip(names, reps)), h1_names=names, h2x=h2x)
    if ring.is_modular:
        stage.h2_model = h2_stage_Zp(stage)
    else:
        stage.h2_model = [
            H2Gen(0, word_pair(a, b, ring), f"[{a} T {b}]")
            for a, b in lambda2_basis(names)]
    _compute_kernel(stage)
    return stage


def _h2x_relation_cols(stage: "ModelStage") -> list[list[int]]:
    m = len(stage.h2x.generators)
    cols = []
    for i, (order, _) in enumerate(stage.h2x.generators):
        if order:
            col = [0] * m
            col[i] = order
            cols.append(col)
    return cols


def _compute_kernel(stage: "ModelStage"):
    """ker H^2(rho_n) as a free submodule of H^2(M_n), with cocycle
    representatives; sets stage.h2_image, stage.ker_basis and
    stage.complete."""
    ring = stage.ring
    gens = stage.h2_model
    img = stage.h2_image = [stage.h2x.class_coords(
        rho_push(stage, g.rep).vector(stage.target.cells[2]))
        for g in gens]
    m = len(stage.h2x.generators)
    if ring.is_modular:
        rels = kernel_mod_p(
            ring.p, [{i: v for i, v in enumerate(col) if v} for col in img],
            m)
        ker_vecs = [[rel.get(i, 0) for i in range(len(gens))]
                    for rel in rels]
    else:
        cols = [list(v) for v in img]
        sol = kernel_into_presented(cols, _h2x_relation_cols(stage), m) \
            if cols else []
        # Quotient by the torsion of the source generators: a solution
        # vector is trivial when each coordinate dies in the source.
        orders = [g.order for g in gens]
        keep = []
        for v in sol:
            if all((o and x % o == 0) or (not o and x == 0)
                   for x, o in zip(v, orders)):
                continue
            keep.append(v)
        ker_vecs = lattice_basis(keep, len(gens)) if keep else []
    basis = []
    for v in ker_vecs:
        # normalize the leading sign
        lead = next((x for x in v if x), 1)
        if lead < 0:
            v = [-x for x in v]
        rep = TensorElem.zero(ring)
        for coeff, g in zip(v, gens):
            if coeff:
                rep = rep + g.rep.scale(coeff)
        basis.append(rep)
    stage.ker_basis = basis
    stage.complete = not basis


# ---------------------------------------------------------------------------
# stage extension

def extend_stage(stage: "ModelStage") -> "ModelStage":
    """Adjoin one generator per kernel-basis element (d y = -rep) and
    lift rho; returns the input stage when the model is complete."""
    if stage.complete:
        return stage
    ring = stage.ring
    if not ring.is_modular and stage.n >= 2:
        raise StageCapError(
            "H^2 of stage models over Z is computed for n <= 2 only; "
            "cannot certify a free kernel basis beyond stage 2")
    if stage.ker_basis is None:
        raise PreconditionError("stage kernel has not been computed")
    X = stage.target
    level = stage.n + 1
    prefix = "y" if level == 2 else f"t{level}_"
    new_names = [f"{prefix}{i + 1}" for i in range(len(stage.ker_basis))]
    gens = stage.gens.extend(new_names, level)
    tau = dict(stage.diff.tau)
    rho = dict(stage.rho)
    for name, rep in zip(new_names, stage.ker_basis):
        tau[name] = rep.scale(-1)
        target = rho_push(stage, rep.scale(-1))
        x = stage.h2x.preimage(target.vector(X.cells[2]))
        if x is None:
            raise InternalError(
                "rho-lift unsolvable: kernel representative is not in "
                "ker H^2(rho) (internal consistency failure)")
        rho[name] = Cochain(1, ring, dict(zip(X.cells[1], x)))
    diff = build_differential(gens, tau, ring)
    nxt = ModelStage(n=level, ring=ring, gens=gens, diff=diff, target=X,
                     rho=rho, h1_names=stage.h1_names, h2x=stage.h2x)
    if ring.is_modular:
        nxt.h2_model = h2_stage_Zp(nxt)
        _compute_kernel(nxt)
    elif level == 2:
        nxt.h2_model = h2_stage2_Z(nxt)
        _compute_kernel(nxt)
    else:
        nxt.h2_model = None
        nxt.ker_basis = None
    return nxt


# ---------------------------------------------------------------------------
# H^2 of stage models

def h2_stage2_Z(stage: "ModelStage") -> list[H2Gen]:
    """H^2(M_2) = (Lambda^2(X_1)/K) + ker(e), with audited cocycle
    representatives (see the module docstring)."""
    if stage.n != 2 or stage.ring.is_modular:
        raise PreconditionError("h2_stage2_Z needs a stage-2 model over Z")
    ring = stage.ring
    names = stage.h1_names
    ys = stage.gens.at_level(2)
    basis2 = lambda2_basis(names)
    # K: classes of dy in Lambda^2.
    kcols = [lambda2_coords(stage.diff.tau[y], names) for y in ys]
    krows = [[kcols[j][i] for j in range(len(ys))]
             for i in range(len(basis2))]
    gens_out: list[H2Gen] = []
    if basis2:
        snf = smith_normal_form(krows, len(ys), want_uinv=True)
        diag = snf.diag + [0] * (len(basis2) - len(snf.diag))
        for i, d in enumerate(diag):
            if d == 1:
                continue
            wvec = [snf.Uinv[r][i] for r in range(len(basis2))]
            rep = TensorElem.zero(ring)
            for coeff, (a, b) in zip(wvec, basis2):
                if coeff:
                    rep = rep + word_pair(a, b, ring, coeff)
            label = f"[{rep.render()}]"
            gens_out.append(H2Gen(d if d else 0, rep, label))
    # E: kernel of the pairing H^1 (x) span(Y) -> Lambda^3.
    pair_cols = []
    col_labels = []
    for xi in names:
        for y in ys:
            v = cup(TensorElem.gen(ring, xi), stage.diff.tau[y])
            pair_cols.append(lambda3_coords(v, names))
            col_labels.append((xi, y))
    k = len(names)
    nl3 = k * (k - 1) * (k - 2) // 6
    rows = [[pair_cols[j][i] for j in range(len(pair_cols))]
            for i in range(nl3)]
    evecs = kernel_basis_Z(rows, len(pair_cols)) if pair_cols else []
    # Completion in the weight-3 layer of (T(X_1), d_0).
    src, dst, dmat = d0_weight_matrix(names, 3, 2, ring)
    dst_index = {w: i for i, w in enumerate(dst)}
    solve = image_solver(dmat, len(src)) if evecs else None
    for v in evecs:
        lead = next((x for x in v if x), 1)
        if lead < 0:
            v = [-x for x in v]
        z = TensorElem.zero(ring)
        for coeff, (xi, y) in zip(v, col_labels):
            if coeff:
                z = z + TensorElem(ring, {
                    (MultiIndex.single(xi), MultiIndex.single(y)): coeff})
        dz = apply_d(stage.diff, z)
        target = [0] * len(dst)
        for w, c in dz.terms.items():
            target[dst_index[w]] = -c
        sol = solve(target)
        if sol is None:
            raise InternalError("E-pairing element failed to complete "
                                "(internal consistency failure)")
        c_elem = TensorElem(ring, {w: cc for w, cc in zip(src, sol) if cc})
        rep = z + c_elem
        if not apply_d(stage.diff, rep).is_zero():
            raise InternalError("stage-2 representative is not a cocycle")
        label = " + ".join(
            f"{coeff}*[{xi} T {y}]"
            for coeff, (xi, y) in zip(v, col_labels) if coeff)
        gens_out.append(H2Gen(0, rep, label))
    return gens_out


# Largest n1 = p^n - 1, the dimension of T^1 on n generators over Z_p,
# for which the stage cohomology is computed.  Computing d on the n1
# basis elements is most of the cost: at n1 = 1,023 (wedge2 over Z_2,
# stage 3) a kappa run took 24 s and 165 MB, of which the resolution
# took 1.4 s; at n1 = 2,047 the d-values alone took 246 s and 390 MB
# (one core of a 2-core x86 host, Python 3.11).
ZP_STAGE_LIMIT = 1_023


def resolution_cohomology_Zp(names, ring: RingSpec,
                             diff: Differential | None = None):
    """H^1 and H^2 of (T_{Z_p}(X), d) from a minimal resolution.

    The truncation T^1 -> T^2 -> T^3 is the cobar complex of the
    coalgebra (T^1, d), so its cohomology is dual to Tor over the finite
    nilpotent algebra A = (T^1)^* with e_a e_b = sum_c [coefficient of
    (a, b) in d(e^c)] e_c.  H^1 = (A/A^2)^* = ker d.  With generators
    g_1..g_r of A (a complement of A^2), R = F_p + A and K_1 the kernel of
    phi: R^r -> A, x -> sum x_i g_i, H^2 is dual to K_1 / A K_1.  For a
    section sigma of phi and a functional xi on R^r vanishing on sigma(A)
    and A K_1, f(a (x) b) = xi(e_a sigma(e_b)) is a cocycle, and such xi
    give a basis of H^2.  All of it is linear algebra in dimension
    r (n1 + 1), n1 = p^|X| - 1.  Returns the H^1 and the H^2
    representatives; each H^2 one is audited as a cocycle.
    """
    p, cap = ring.p, ring.max_zeta
    n1 = p ** len(names) - 1
    if n1 > ZP_STAGE_LIMIT:
        raise PreconditionError(
            f"Z_p stage cohomology refused: {len(names)} generators over "
            f"Z_{p} give T^1 of dimension n1 = {n1:,} "
            f"(limit {ZP_STAGE_LIMIT:,})")
    diff = diff or zero_differential(GeneratorSet(names), ring)
    basis = list(iter_indices(names, cap * len(names), cap))
    pos = {f.entries: i for i, f in enumerate(basis)}
    # d(e^c) keyed by the T^2 code a*n1 + b of its words: read by code,
    # it is the product table of A.
    d1 = [{pos[a.entries] * n1 + pos[b.entries]: v
           for (a, b), v in diff.d_index(f).terms.items()} for f in basis]
    prod: dict[int, dict[int, int]] = {}
    for c, dv in enumerate(d1):
        for code, v in dv.items():
            prod.setdefault(code, {})[c] = v
    # The non-pivot columns of A^2 name generators g_i of A, and the
    # functionals vanishing on A^2, H^1 = (A/A^2)^* = ker d, are dual to
    # them.
    # Distinct products, shortest first, keep the echelon sparse and the
    # reductions short; the pivot columns do not depend on the order.
    square = ZpEliminator(p, n1, n1)
    for col in sorted({tuple(sorted(col.items())) for col in prod.values()},
                      key=lambda col: (len(col), col)):
        square.insert(dict(col))
    h1 = square.annihilator(n1)
    gens = [c for c in range(n1) if c not in square.pivots]
    # Slot i*m of R^r is the unit of the i-th copy of R, slot i*m + 1 + a
    # is its e_a.  The units go in first, so sigma(e_b) stays short.
    m = n1 + 1
    phi = ZpEliminator(p, len(gens) * m, n1)
    for i, g in enumerate(gens):
        phi.insert({g: 1}, tag=i * m)
    k1 = []
    for i, g in enumerate(gens):
        for a in range(n1):
            rel = phi.insert_relation(prod.get(a * n1 + g, {}),
                                      tag=i * m + 1 + a)
            if rel is not None:
                k1.append(rel)
    # Each kernel relation is 1 at its own slot and 0 at the other
    # relations' slots, so a vector of K_1 has its K_1 coordinates there;
    # sigma, built from pivot slots only, vanishes there.
    own = [max(k) for k in k1]
    coord = {t: j for j, t in enumerate(own)}
    quot = ZpEliminator(p, len(k1), len(k1))
    for g in gens:  # the g_i generate A, so A K_1 = span{g_i k}
        for k in k1:
            vec: dict[int, int] = {}
            for t, x in k.items():
                i, s = divmod(t, m)  # s >= 1: K_1 lies in A^r
                for e, v in prod.get(g * n1 + s - 1, {}).items():
                    j = coord.get(i * m + 1 + e)
                    if j is not None:
                        vec[j] = vec.get(j, 0) + x * v
            quot.insert(vec)
    users: dict[int, list] = {}  # slot t -> [(b, sigma(e_b) at t)]
    for b in range(n1):
        for t, s in phi.express({b: 1}).items():
            users.setdefault(t, []).append((b, s))
    h2 = []
    for xi in quot.annihilator(len(k1)):
        f: dict[int, int] = {}
        for j, x in xi.items():
            i, s = divmod(own[j], m)
            # xi(e_a sigma(e_b)): e_a times the unit of copy i is e_a, and
            # e_a e_c meets e_{s-1} with the coefficient of (a, c) in
            # d(e^{s-1}).
            for b, sb in users.get(i * m, ()):
                w = (s - 1) * n1 + b
                f[w] = f.get(w, 0) + x * sb
            for code, v in d1[s - 1].items():
                a, c = divmod(code, n1)
                for b, sb in users.get(i * m + 1 + c, ()):
                    w = a * n1 + b
                    f[w] = f.get(w, 0) + x * v * sb
        rep = TensorElem(ring, {(basis[w // n1], basis[w % n1]): v
                                for w, v in f.items()})
        if not apply_d(diff, rep).is_zero():
            raise InternalError("Z_p stage H^2 representative is not a "
                                "cocycle (internal consistency failure)")
        h2.append(rep)
    h1_reps = [TensorElem(ring, {(basis[c],): v for c, v in rel.items()})
               for rel in h1]
    return h1_reps, h2


def h2_stage_Zp(stage: "ModelStage") -> list[H2Gen]:
    """H^2 of a Z_p stage model, every class of order p (see
    resolution_cohomology_Zp)."""
    if not stage.ring.is_modular:
        raise PreconditionError("h2_stage_Zp requires a Z_p model")
    _, reps = resolution_cohomology_Zp(stage.gens.names, stage.ring,
                                       stage.diff)
    return [H2Gen(stage.ring.p, rep, f"[{rep.render()}]") for rep in reps]


def express_many_in_h2_basis(stage: "ModelStage", zs: list[TensorElem],
                             weight_cap: int = 3) -> list[list[int]]:
    """Coordinates of stage-2 cocycle classes in stage.h2_model, by the
    exact solve  z = sum v_i rep_i + d(c)  over a weight-capped basis
    (one Smith normal form shared by all right-hand sides)."""
    ring = stage.ring
    if ring.is_modular:
        raise PreconditionError("use the Z_p coordinate functional instead")
    for z in zs:
        if not apply_d(stage.diff, z).is_zero():
            raise ValueError("not a cocycle")
    names = stage.gens.names
    reps = [g.rep for g in stage.h2_model]
    cols: list[TensorElem] = list(reps)
    for idx in iter_indices(names, weight_cap, ring.max_zeta):
        cols.append(stage.diff.d_index(idx))
    support = set()
    for z in zs:
        support.update(z.terms)
    for c in cols:
        support.update(c.terms)
    support = sorted(support, key=lambda word: (len(word),
                                                [f.sort_key() for f in word]))
    index = {w: i for i, w in enumerate(support)}
    rows = [[0] * len(cols) for _ in support]
    for j, c in enumerate(cols):
        for w, v in c.terms.items():
            rows[index[w]][j] = v
    bs = []
    for z in zs:
        b = [0] * len(support)
        for w, v in z.terms.items():
            b[index[w]] = v
        bs.append(b)
    solve = image_solver(rows, len(cols))
    out = []
    for b in bs:
        x = solve(b)
        if x is None:
            raise ValueError("cocycle not expressible at this weight cap")
        out.append(x[:len(reps)])
    return out


def express_in_h2_basis(stage: "ModelStage", z: TensorElem,
                        weight_cap: int = 3) -> list[int]:
    return express_many_in_h2_basis(stage, [z], weight_cap)[0]


@dataclass
class PsiComparison:
    p: int
    names: list[str]
    dims_model: dict[int, int]
    dims_bar: dict[int, int]
    iso: dict[int, bool]

    @property
    def ok(self) -> bool:
        return all(self.iso.values()) and all(
            self.dims_model[i] == self.dims_bar[i] for i in self.iso)


def psi_cohomology_comparison(names, ring: RingSpec) -> PsiComparison:
    """Check that psi: (T_{Z_p}(X), d_0) -> C*(B(Z_p^|X|); Z_p) induces
    isomorphisms on H^1 and H^2."""
    from .delta import delta_from_magma, psi_embed
    if not ring.is_modular:
        raise PreconditionError("the comparison runs over Z_p")
    law = magma_from_tau(list(names), {}, ring)
    mc = delta_from_magma(law.to_finite_magma(), 3)
    X = mc.delta
    dims_model, dims_bar, iso = {}, {}, {}
    for degree, reps in enumerate(resolution_cohomology_Zp(names, ring), 1):
        bar = segment_cohomology(X, ring, degree)
        dims_model[degree] = len(reps)
        dims_bar[degree] = len(bar.generators)
        elim = ZpEliminator(ring.p, len(reps), dims_bar[degree])
        full = True
        for rep in reps:
            c = psi_embed(rep, mc, list(names), deg=degree)
            coords = bar.class_coords(c.vector(X.cells[degree]))
            if not elim.insert({i: v for i, v in enumerate(coords) if v}):
                full = False
        iso[degree] = full and dims_model[degree] == dims_bar[degree]
    return PsiComparison(p=ring.p, names=list(names),
                         dims_model=dims_model, dims_bar=dims_bar, iso=iso)


# ---------------------------------------------------------------------------
# kappa and comparison

@dataclass
class KappaInvariant:
    n: int
    cokernel: AbelianInvariants

    @property
    def torsion(self) -> AbelianInvariants:
        return self.cokernel.torsion_part()


def kappa(stage: "ModelStage") -> KappaInvariant:
    img = stage.h2_image
    if img is None:
        raise StageCapError("H^2 data unavailable at this stage")
    ring = stage.ring
    m = len(stage.h2x.generators)
    if ring.is_modular:
        elim = ZpEliminator(ring.p, len(img), m)
        for col in img:
            elim.insert({i: v for i, v in enumerate(col) if v})
        dim = m - elim.rank
        inv = AbelianInvariants(0, tuple(ring.p for _ in range(dim)))
        return KappaInvariant(stage.n, inv)
    cols = _h2x_relation_cols(stage) + [list(v) for v in img]
    if not cols:
        inv = AbelianInvariants(m, ())
    else:
        rows = [[c[i] for c in cols] for i in range(m)]
        snf = smith_normal_form(rows, len(cols))
        inv = AbelianInvariants.from_coker(snf.diag, m)
    return KappaInvariant(stage.n, inv)


def minimal_model(X: DeltaSet, ring: RingSpec, stages: int = 2,
                  h1_reps=None) -> list[ModelStage]:
    out = [stage1(X, ring, h1_reps)]
    while out[-1].n < stages and not out[-1].complete:
        out.append(extend_stage(out[-1]))
    return out


@dataclass
class CompareVerdict:
    distinguished: bool
    left: KappaInvariant
    right: KappaInvariant
    forget_torsion: bool

    @property
    def verdict(self) -> str:
        return "distinguished" if self.distinguished \
            else "not-distinguished-by-kappa"


def n_step_compare(Xa: DeltaSet, Xb: DeltaSet, ring: RingSpec, n: int = 2,
                   forget_torsion: bool = False, h1_reps_a=None,
                   h1_reps_b=None) -> CompareVerdict:
    """Certify non-equivalence via coker H^2(rho_n); never certifies
    equivalence."""
    ka = kappa(minimal_model(Xa, ring, n, h1_reps_a)[-1])
    kb = kappa(minimal_model(Xb, ring, n, h1_reps_b)[-1])
    if forget_torsion:
        different = ka.cokernel.rank != kb.cokernel.rank
    else:
        different = ka.cokernel != kb.cokernel
    return CompareVerdict(distinguished=different, left=ka, right=kb,
                          forget_torsion=forget_torsion)


# ---------------------------------------------------------------------------
# group realization

@dataclass
class GroupRealization:
    law: MagmaLaw
    law_rendered: dict[str, str]
    tower: list[tuple[int, list[str]]]
    audit: dict


def realize_group(stage: "ModelStage", box: int = 3, samples: int = 50,
                  seed: int = 0) -> GroupRealization:
    ring = stage.ring
    law = magma_from_tau(stage.gens.names, stage.diff.tau, ring)
    rendered = {g: p.render() for g, p in law.law_polynomials().items()}
    audit = {}
    if ring.is_modular:
        # The exhaustive check and the audits below share one magma.
        fm = law.to_finite_magma()
        verdict = check_admissible(fm)
    else:
        verdict = check_admissible(law, box=box, samples=samples, seed=seed)
    audit["associativity"] = verdict.status
    if not verdict.ok:
        raise InternalError(
            f"group axioms fail: counterexample {verdict.counterexample}")
    n = len(stage.gens.names)
    zero = tuple(0 for _ in range(n))
    import random as _random
    rng = _random.Random(seed)
    if ring.is_modular:
        audit["order"] = len(fm)
        audit["unit"] = all(fm.op(a, zero) == a and fm.op(zero, a) == a
                            for a in fm.elements)
        audit["inverses"] = fm.has_inverses()
    else:
        pts = [tuple(rng.randint(-box, box) for _ in range(n))
               for _ in range(samples)]
        audit["unit"] = all(law.apply(a, zero) == a
                            and law.apply(zero, a) == a for a in pts)
        audit["inverses"] = "not-audited-over-Z (group by construction)"
    # Central tower: level m+1 coordinates are killed by f_tau, so
    # level-supported elements commute with everything; audit by samples.
    tower = []
    central_ok = True
    for m in range(2, stage.n + 1):
        lv = stage.gens.at_level(m)
        tower.append((m, lv))
        idxs = [stage.gens.names.index(g) for g in lv]
        for _ in range(min(samples, 25)):
            zvec = [0] * n
            for i in idxs:
                zvec[i] = (rng.randint(0, ring.p - 1) if ring.is_modular
                           else rng.randint(-box, box))
            zt = tuple(zvec)
            a = tuple(rng.randint(0, ring.p - 1) if ring.is_modular
                      else rng.randint(-box, box) for _ in range(n))
            expect = tuple(ring.normalize(x + y) for x, y in zip(a, zt))
            if law.apply(a, zt) != expect or law.apply(zt, a) != expect:
                central_ok = False
    audit["central_tower"] = central_ok
    if not central_ok:
        raise InternalError("central-extension audit failed")
    return GroupRealization(law=law, law_rendered=rendered, tower=tower,
                            audit=audit)


# ---------------------------------------------------------------------------
# homotopies between morphisms (T(X_1), d_0) -> C*(X; R)

@dataclass
class HomotopyWitness:
    Phi: dict[str, CylEl]
    c: dict[str, Cochain]
    audit: dict


def construct_homotopy(X: DeltaSet, ring: RingSpec, names: list[str],
                       phi0: dict[str, Cochain],
                       phi1: dict[str, Cochain]) -> HomotopyWitness:
    h1 = segment_cohomology(X, ring, 1)
    for g in names:
        for phi in (phi0, phi1):
            if not coboundary(X, phi[g]).is_zero():
                raise PreconditionError(f"phi({g}) is not a cocycle")
        c0 = h1.class_coords(phi0[g].vector(X.cells[1]))
        c1 = h1.class_coords(phi1[g].vector(X.cells[1]))
        if c0 != c1:
            raise PreconditionError(
                f"[phi0({g})] != [phi1({g})]: {c0} vs {c1}")
    cyl = cylinder_over_complex(X, ring)
    Phi, cs = {}, {}
    for g in names:
        x = h1.preimage((phi0[g] - phi1[g]).vector(X.cells[1]))
        if x is None:
            raise InternalError("equal classes must differ by a coboundary")
        c = Cochain(0, ring, dict(zip(X.cells[0], x)))
        cs[g] = c
        Phi[g] = CylEl(1, phi0[g], phi1[g], c.scale(-1))
    audit = {"cocycle": True, "endpoints": True, "zeta": True, "cup1": True}
    for g in names:
        if not cyl.is_zero(cyl.d(Phi[g])):
            audit["cocycle"] = False
        if cyl.restrict(Phi[g], 0) != phi0[g] or \
                cyl.restrict(Phi[g], 1) != phi1[g]:
            audit["endpoints"] = False
        kmax = 3 if (not ring.is_modular or ring.p > 3) else ring.p - 1
        for k in range(2, kmax + 1):
            zk = cyl.zeta(Phi[g], k)
            from .delta import zeta_cochain
            if cyl.restrict(zk, 0) != zeta_cochain(X, phi0[g], k) or \
                    cyl.restrict(zk, 1) != zeta_cochain(X, phi1[g], k):
                audit["zeta"] = False
            dz = cyl.d(zk)
            rhs = cyl.elem(2)
            for l in range(1, k):
                rhs = cyl.add(rhs, cyl.cup(cyl.zeta(Phi[g], l),
                                           cyl.zeta(Phi[g], k - l)))
            if not cyl.is_zero(cyl.add(dz, rhs)):
                audit["zeta"] = False
    for g in names:
        for h in names:
            v = cyl.cup1(Phi[g], Phi[h])
            from .delta import cup1_cochain
            if cyl.restrict(v, 0) != cup1_cochain(X, phi0[g], phi0[h]) or \
                    cyl.restrict(v, 1) != cup1_cochain(X, phi1[g], phi1[h]):
                audit["cup1"] = False
    if not all(v is True for v in audit.values()):
        raise InternalError(f"homotopy audit failed: {audit}")
    return HomotopyWitness(Phi=Phi, c=cs, audit=audit)
