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

The structure map rho: T(X) -> C*(X) of a stage (``rho_push``) is
``delta.push_tensor`` along the 1-cochains rho(x), the same pushforward
that gives psi along the coordinate cochains of a magma.

kappa_n pushes an H^2(M_n) generating set through rho simplicially and
reports the torsion of the cokernel inside H^2(X; R) (the full cokernel
invariants ride along, being themselves an n-step invariant).
"""
from __future__ import annotations

from .delta import (
    Cochain,
    DeltaSet,
    MAGMA_CELL_LIMIT,
    check_magma_size,
    coboundary,
    cup1_cochain,
    push_tensor,
    segment_cohomology,
    zeta_cochain,
)
from .differential import (
    Differential,
    GeneratorSet,
    apply_d,
    iter_indices,
    zero_differential,
)
from .linalg import (
    AbelianInvariants,
    ClassSpan,
    CohomologyData,
    ZpEliminator,
    cohomology_at,
    smith_normal_form,
    solve_Z,
)
from .rings import InternalError, MultiIndex, PreconditionError, RingSpec
from .tensor import TensorElem, cup


class RepresentativesRejected(PreconditionError):
    """Supplied H^1 representatives are not a basis of H^1."""


class StageCapError(RuntimeError):
    """Stage-model H^2 over Z is supported for n <= 2 only."""


class H2Gen:
    def __init__(self, order: int, rep: TensorElem):
        self.order = order  # 0 for a free generator, d > 1 for torsion
        self.rep = rep


class ModelStage:
    def __init__(self, n: int, ring: RingSpec, gens: GeneratorSet,
                 diff: Differential, target: DeltaSet,
                 rho: dict[str, Cochain], h1_names: list[str],
                 h2x: CohomologyData, h2_model: list[H2Gen] | None = None,
                 h2_span: ClassSpan | None = None,
                 ker_basis: list[TensorElem] | None = None,
                 complete: bool = False, rho_zeta: dict | None = None):
        self.n, self.ring, self.gens = n, ring, gens
        self.diff, self.target, self.rho = diff, target, rho
        self.h1_names, self.h2x, self.h2_model = h1_names, h2x, h2_model
        # the span in H^2(X) of the classes rho(h2_model): its cols are their
        # h2x coordinates, its relations ker H^2(rho_n), its cokernel kappa_n
        self.h2_span = h2_span
        self.ker_basis, self.complete = ker_basis, complete
        # I -> rho(zeta_I), filled by rho_push; rho is fixed once the stage
        # is built.
        self.rho_zeta = {} if rho_zeta is None else rho_zeta


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
        tails = t_word_basis(names, w - w1, length - 1, ring)
        for head in t1_weight_basis(names, w1, ring):
            for tail in tails:
                out.append((head,) + tail)
    return out


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
    if degree > 1:
        low, _, A = d0_weight_matrix(names, w, degree - 1, ring)
    else:
        low, A = [], [[] for _ in t_word_basis(names, w, degree, ring)]
    B = d0_weight_matrix(names, w, degree, ring)[2] if degree < 3 else []
    return cohomology_at(ring, A, B, len(low))


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
            raise InternalError("lambda2 coordinates need weight-2 words")
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
            raise InternalError("lambda3 coordinates need weight-3 words")
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


# ---------------------------------------------------------------------------
# pushing model elements into the cochain algebra

def rho_push(stage: "ModelStage", t: TensorElem) -> Cochain:
    """Apply the structural morphism to a tensor element (degree <= 3; a
    zero one gives a 2-cochain): the pushforward along ``stage.rho``, one
    cup per shared prefix.  Each rho(zeta_I) is kept on the stage."""
    return push_tensor(stage.target, stage.rho, t, 2, stage.rho_zeta)


# ---------------------------------------------------------------------------
# stage 1

def stage1(X: DeltaSet, ring: RingSpec,
           h1_reps: list[Cochain] | None = None, guard=None) -> ModelStage:
    h0 = segment_cohomology(X, ring, 0)
    if len(h0.generators) != 1:
        raise PreconditionError(f"target is not connected: H^0 = "
                                f"{h0.invariants.render()}")
    h1 = segment_cohomology(X, ring, 1)
    # A generator of order o is torsion when o is nonzero in R; over Z_p
    # every order is p, which is 0 there.
    if any(ring.normalize(o) for o in h1.orders):
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
        if not ClassSpan(ring, h1.orders, coords).is_basis:
            raise RepresentativesRejected(
                "supplied cochains are not an H^1 basis")
    names = [f"x{i + 1}" for i in range(len(reps))]
    gens = GeneratorSet(names, {n: 1 for n in names})
    diff = zero_differential(gens, ring)
    h2x = segment_cohomology(X, ring, 2)
    stage = ModelStage(n=1, ring=ring, gens=gens, diff=diff, target=X,
                       rho=dict(zip(names, reps)), h1_names=names, h2x=h2x)
    if guard:
        guard(stage)
    _compute_kernel(stage)
    return stage


def _h2_model(stage: "ModelStage") -> list[H2Gen]:
    """Generators of H^2(M_n): over Z_p from the minimal resolution, over
    Z the exterior basis of Lambda^2(X_1) at stage 1 and the derived
    splitting at stage 2."""
    if stage.ring.is_modular:
        return h2_stage_Zp(stage)
    if stage.n == 1:
        return [H2Gen(0, word_pair(a, b, stage.ring))
                for a, b in lambda2_basis(stage.h1_names)]
    return h2_stage2_Z(stage)


def _compute_kernel(stage: "ModelStage"):
    """H^2(M_n), and ker H^2(rho_n) as a free submodule of it, with
    cocycle representatives; sets stage.h2_model, stage.h2_span,
    stage.ker_basis and stage.complete."""
    ring = stage.ring
    gens = stage.h2_model = _h2_model(stage)
    stage.h2_span = ClassSpan(ring, stage.h2x.orders, [
        stage.h2x.class_coords(
            rho_push(stage, g.rep).vector(stage.target.cells[2]))
        for g in gens])
    basis = []
    for v in stage.h2_span.relations([g.order for g in gens]):
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

def extend_stage(stage: "ModelStage", guard=None) -> "ModelStage":
    """Adjoin one generator per kernel-basis element (d y = -rep) and
    lift rho; returns the input stage when the model is complete.
    ``guard`` sees the new stage before its H^2 is computed."""
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
    diff = Differential(ring, gens, tau)
    nxt = ModelStage(n=level, ring=ring, gens=gens, diff=diff, target=X,
                     rho=rho, h1_names=stage.h1_names, h2x=stage.h2x)
    if guard:
        guard(nxt)
    _compute_kernel(nxt)
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
        snf = smith_normal_form(krows, len(ys))
        diag = snf.diag + [0] * (len(basis2) - len(snf.diag))
        for i, d in enumerate(diag):
            if d == 1:
                continue
            rep = TensorElem.zero(ring)
            for coeff, (a, b) in zip(snf.uinv_column(i), basis2):
                if coeff:
                    rep = rep + word_pair(a, b, ring, coeff)
            gens_out.append(H2Gen(d if d else 0, rep))
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
    evecs = (smith_normal_form(rows, len(pair_cols)).kernel()
             if pair_cols else [])
    # Completion in the weight-3 layer of (T(X_1), d_0).
    src, dst, dmat = d0_weight_matrix(names, 3, 2, ring)
    dst_index = {w: i for i, w in enumerate(dst)}
    dfac = smith_normal_form(dmat, len(src)) if evecs else None
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
        sol = solve_Z(dfac, target)
        if sol is None:
            raise InternalError("E-pairing element failed to complete "
                                "(internal consistency failure)")
        c_elem = TensorElem(ring, {w: cc for w, cc in zip(src, sol) if cc})
        rep = z + c_elem
        if not apply_d(stage.diff, rep).is_zero():
            raise InternalError("stage-2 representative is not a cocycle")
        gens_out.append(H2Gen(0, rep))
    return gens_out


# Largest n1 = p^n - 1, the dimension of T^1 on n generators over Z_p,
# for which the stage cohomology is computed.  Computing d on the n1
# basis elements is most of the cost: at n1 = 1,023 (wedge2 over Z_2,
# stage 3) a kappa run took 24 s and 165 MB, of which the resolution
# took 1.4 s; at n1 = 2,047 the d-values alone took 246 s and 390 MB
# (one core of a 2-core x86 host, Python 3.11).
ZP_STAGE_LIMIT = 1_023


def check_zp_stage_size(n: int, ring: RingSpec) -> int:
    """n1 = p^n - 1, the dimension of T^1 on n generators over Z_p;
    refuses it above ZP_STAGE_LIMIT."""
    n1 = ring.p ** n - 1
    if n1 > ZP_STAGE_LIMIT:
        raise PreconditionError(
            f"Z_p stage cohomology refused: {n} generators over "
            f"Z_{ring.p} give T^1 of dimension n1 = {n1:,} "
            f"(limit {ZP_STAGE_LIMIT:,})")
    return n1


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
    n1 = check_zp_stage_size(len(names), ring)
    diff = diff or zero_differential(GeneratorSet(names), ring)
    basis = list(iter_indices(names, cap * len(names), cap))
    pos = {f: i for i, f in enumerate(basis)}
    # d(e^c) keyed by the T^2 code a*n1 + b of its words: read by code,
    # it is the product table of A.
    d1 = [{pos[a] * n1 + pos[b]: v
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
    square = ZpEliminator(p, n1)
    for col in sorted({tuple(sorted(col.items())) for col in prod.values()},
                      key=lambda col: (len(col), col)):
        square.insert(dict(col))
    h1 = square.annihilator(n1)
    gens = [c for c in range(n1) if c not in square.pivots]
    # Slot i*m of R^r is the unit of the i-th copy of R, slot i*m + 1 + a
    # is its e_a.  The units go in first, so sigma(e_b) stays short.
    m = n1 + 1
    phi = ZpEliminator(p, n1)
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
    quot = ZpEliminator(p, len(k1))
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
    return [H2Gen(stage.ring.p, rep) for rep in reps]


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
            raise PreconditionError("not a cocycle")
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
    factor = smith_normal_form(rows, len(cols))
    out = []
    for b in bs:
        x = solve_Z(factor, b)
        if x is None:
            raise PreconditionError(
                "cocycle not expressible at this weight cap")
        out.append(x[:len(reps)])
    return out


class PsiComparison:
    def __init__(self, p: int, names: list[str], dims_model: dict[int, int],
                 dims_bar: dict[int, int], iso: dict[int, bool]):
        self.p, self.names = p, names
        self.dims_model, self.dims_bar, self.iso = dims_model, dims_bar, iso

    @property
    def ok(self) -> bool:
        return all(self.iso.values()) and all(
            self.dims_model[i] == self.dims_bar[i] for i in self.iso)


def psi_cohomology_comparison(names, ring: RingSpec) -> PsiComparison:
    """Check that psi: (T_{Z_p}(X), d_0) -> C*(B(Z_p^|X|); Z_p) induces
    isomorphisms on H^1 and H^2."""
    from .delta import delta_from_magma, psi_embed
    from .magma import MagmaLaw
    if not ring.is_modular:
        raise PreconditionError("the comparison runs over Z_p")
    check_magma_size(ring.p, 3, power=len(names))
    law = MagmaLaw(list(names), {}, ring)
    mc = delta_from_magma(law.to_finite_magma(), 3)
    X = mc.delta
    dims_model, dims_bar, iso = {}, {}, {}
    for degree, reps in enumerate(resolution_cohomology_Zp(names, ring), 1):
        bar = segment_cohomology(X, ring, degree)
        dims_model[degree] = len(reps)
        dims_bar[degree] = len(bar.generators)
        coords = [bar.class_coords(psi_embed(rep, mc, list(names), deg=degree)
                                   .vector(X.cells[degree])) for rep in reps]
        iso[degree] = ClassSpan(ring, bar.orders, coords).is_basis
    return PsiComparison(p=ring.p, names=list(names),
                         dims_model=dims_model, dims_bar=dims_bar, iso=iso)


# ---------------------------------------------------------------------------
# kappa and comparison

class KappaInvariant:
    def __init__(self, n: int, cokernel: AbelianInvariants):
        self.n = n
        self.cokernel = cokernel

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.cokernel) == (other.n, other.cokernel)

    @property
    def torsion(self) -> AbelianInvariants:
        return self.cokernel.torsion_part()


def kappa(stage: "ModelStage") -> KappaInvariant:
    if stage.h2_span is None:
        raise StageCapError("H^2 data unavailable at this stage")
    return KappaInvariant(stage.n, stage.h2_span.cokernel)


def minimal_model(X: DeltaSet, ring: RingSpec, stages: int = 2,
                  h1_reps=None, guard=None) -> list[ModelStage]:
    """Stages 1..stages, or up to the first complete one.  ``guard``, when
    given, sees stage ``stages`` once its generators are adjoined, before
    its H^2 is computed, and may refuse it by raising."""
    out = [stage1(X, ring, h1_reps, guard if stages == 1 else None)]
    while out[-1].n < stages and not out[-1].complete:
        last = out[-1].n + 1 == stages
        out.append(extend_stage(out[-1], guard if last else None))
    return out


class CompareVerdict:
    def __init__(self, distinguished: bool, left: KappaInvariant,
                 right: KappaInvariant, forget_torsion: bool):
        self.distinguished = distinguished
        self.left, self.right = left, right
        self.forget_torsion = forget_torsion

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

class GroupRealization:
    def __init__(self, law: MagmaLaw, law_rendered: dict[str, str],
                 tower: list[tuple[int, list[str]]], audit: dict):
        self.law, self.law_rendered = law, law_rendered
        self.tower, self.audit = tower, audit


def check_group_size(stage: "ModelStage") -> None:
    """Refuse to realize the group of a Z_p stage when checking its group
    axioms would build more than MAGMA_CELL_LIMIT table entries.

    |G| = p^n needs only the stage's n generators, so this can run as
    the ``minimal_model`` guard, before the stage's H^2; the refusal that
    the H^2 itself would raise (``check_zp_stage_size``) comes first."""
    ring = stage.ring
    if not ring.is_modular:
        return
    n = len(stage.gens.names)
    check_zp_stage_size(n, ring)
    order = ring.p ** n
    if order ** 2 > MAGMA_CELL_LIMIT:
        raise PreconditionError(
            f"group-realize refused: the realized group has |G| = "
            f"{ring.p}^{n} = {order:,} elements, and checking its group "
            f"axioms builds |G|^2 = {order ** 2:,} table entries "
            f"(limit {MAGMA_CELL_LIMIT:,})")


# Over Z the group axioms and the unit are audited on AUDIT_SAMPLES points
# with coordinates in [-AUDIT_BOX, AUDIT_BOX], drawn from a fixed seed.
AUDIT_BOX = 3
AUDIT_SAMPLES = 50


def realize_group(stage: "ModelStage") -> GroupRealization:
    import random

    from .magma import MagmaLaw, check_admissible
    ring = stage.ring
    law = MagmaLaw(stage.gens.names, stage.diff.tau, ring)
    rendered = {g: p.render() for g, p in law.law_polynomials().items()}
    audit = {}
    if ring.is_modular:
        # The exhaustive check and the audits below share one magma, whose
        # table of |G|^2 products is what they build; Light's test then
        # reads |G|^2 |S| of the |G|^3 triples.
        check_group_size(stage)
        fm = law.to_finite_magma()
        verdict = check_admissible(fm)
    else:
        verdict = check_admissible(law, box=AUDIT_BOX, samples=AUDIT_SAMPLES)
    audit["associativity"] = verdict.status
    if not verdict.ok:
        raise InternalError(
            f"group axioms fail: counterexample {verdict.counterexample}")
    n = len(stage.gens.names)
    zero = tuple(0 for _ in range(n))
    rng = random.Random(0)
    if ring.is_modular:
        audit["order"] = len(fm)
        audit["unit"] = all(fm.op(a, zero) == a and fm.op(zero, a) == a
                            for a in fm.elements)
        audit["inverses"] = fm.has_inverses()
    else:
        pts = [tuple(rng.randint(-AUDIT_BOX, AUDIT_BOX) for _ in range(n))
               for _ in range(AUDIT_SAMPLES)]
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
        for _ in range(25):
            zvec = [0] * n
            for i in idxs:
                zvec[i] = (rng.randint(0, ring.p - 1) if ring.is_modular
                           else rng.randint(-AUDIT_BOX, AUDIT_BOX))
            zt = tuple(zvec)
            a = tuple(rng.randint(0, ring.p - 1) if ring.is_modular
                      else rng.randint(-AUDIT_BOX, AUDIT_BOX)
                      for _ in range(n))
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

class HomotopyWitness:
    def __init__(self, Phi: dict[str, CylEl], c: dict[str, Cochain],
                 audit: dict):
        self.Phi, self.c, self.audit = Phi, c, audit


def construct_homotopy(X: DeltaSet, ring: RingSpec, names: list[str],
                       phi0: dict[str, Cochain],
                       phi1: dict[str, Cochain]) -> HomotopyWitness:
    from .interval import Cylinder, CylEl
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
    cyl = Cylinder(X, ring)
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
            if cyl.restrict(v, 0) != cup1_cochain(X, phi0[g], phi0[h]) or \
                    cyl.restrict(v, 1) != cup1_cochain(X, phi1[g], phi1[h]):
                audit["cup1"] = False
    if not all(v is True for v in audit.values()):
        raise InternalError(f"homotopy audit failed: {audit}")
    return HomotopyWitness(Phi=Phi, c=cs, audit=audit)
