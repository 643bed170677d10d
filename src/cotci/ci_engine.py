"""Cohomology engine for complete intersections in projective space.

The headline computation represents H^q(X, tensor of symmetric cotangent
powers, twisted) as an explicit subspace of the monomial model of top
cohomology on P^N: the intersection of the kernels of multiplication maps
attached to the defining equations (and, for the untilded bundles, of the
Euler contractions). Dimensions and bases come out of exact rational linear
algebra; every result keeps the rules that cut it out (`cech.MapRule`), so any
basis vector can be re-verified by the rules' forward action alone.

Smoothness of the intersection chain is assumed, not certified: the linear
algebra is computed unconditionally and results carry a disclaimer. A
probabilistic finite-field Jacobian spot-check is available but never blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from itertools import product
from math import comb

from . import cech, lambdacalc as lam
from .cech import CohomClass, CohomSpace
from .exactalg import (
    QQ,
    PrimeField,
    SparseMatrix,
    SubspaceBasis,
    _SPAN_PRIME,
    apply_to_basis,
    combine_basis,
    kernel_basis,
    rank,
    rref_vectors,
)
from .poly import HomogPoly, deformed_fermat_pair, fermat_generic_system, vandermonde_coeff_rows
from .rng import SplitMix64

SMOOTHNESS_DISCLAIMER = (
    "smoothness of the intersection chain is assumed, not certified; "
    "see jacobian_spot_check for a probabilistic audit"
)


class EngineError(ValueError):
    pass


class NonSimpleSettingError(EngineError):
    pass


class VerificationError(RuntimeError):
    """An exact self-check of the engine's own computation failed: a kernel
    basis or witness with a nonzero image under a rule it must satisfy,
    dependent basis vectors, or a dimension off its closed form."""


@dataclass
class CompleteIntersectionInput:
    """Ordered defining equations F_1..F_c; order fixes the chain X_1 ⊇ ... ⊇ X_c."""

    ambient_N: int
    equations: list

    def __post_init__(self):
        c = len(self.equations)
        if not 1 <= c <= self.ambient_N - 1:
            raise EngineError(f"codimension {c} out of range for N={self.ambient_N}")
        for f in self.equations:
            if f.nvars != self.ambient_N + 1:
                raise EngineError("equation variable count does not match ambient")
            if f.is_zero() or f.degree <= 0:
                raise EngineError("equations must be nonzero of positive degree")

    @property
    def codim(self):
        return len(self.equations)

    @property
    def degrees(self):
        return tuple(f.degree for f in self.equations)


def fermat_ci(N, c, e) -> CompleteIntersectionInput:
    """Generic Fermat-type chain with Vandermonde coefficient rows."""
    rows = vandermonde_coeff_rows(N, c)
    return CompleteIntersectionInput(N, fermat_generic_system(N, (e,) * c, rows))


@dataclass
class CohomologyResult:
    """`subspace` is the primitive integer basis the intersection leaves; a
    printed basis is the canonical RREF of its span."""

    q: int
    ambient_space: CohomSpace
    subspace: SubspaceBasis
    certificate: list
    constraints: list = dc_field(default_factory=list, repr=False)  # MapRules
    notes: str = SMOOTHNESS_DISCLAIMER

    @property
    def dim(self):  # a count of vectors, which `verify_result` proves independent
        return self.subspace.dim

    def to_json_dict(self, include_basis=False):
        out = {
            "q": self.q,
            "ambient_dim": self.ambient_space.dim(),
            "ambient_space": str(self.ambient_space),
            "dim": self.dim,
            "constraints": self.certificate,
            "notes": self.notes,
        }
        if include_basis:
            out["basis"] = [
                {str(k): str(Fraction(v)) for k, v in vec.items()}
                for vec in rref_vectors(QQ, self.subspace.ambient_dim, self.subspace.vectors)
            ]
        return out


def _rejecting_rule(rules, classes):
    """The first of `rules` whose forward action sends one of `classes` to a
    nonzero class, or None: the engine's one kernel membership test."""
    return next((r for r in rules for cls in classes if not r.act(cls).is_zero()), None)


def _recheck(rules, space: CohomSpace, basis: SubspaceBasis, name):
    """Raise VerificationError, its reason led by `name`, unless the integer
    `basis` of `space` passes its re-check.

    Membership: every rule's forward action sends every basis vector, read
    as a class, to 0; no matrix is built or read, so a fault in the matrices
    whose kernels gave the basis fails here. Independence: rank mod P is at
    most rank over Q, so a mod-P rank equal to the count proves it; a smaller
    one is decided over Q."""
    n, vectors = basis.ambient_dim, basis.vectors
    elements = cech.basis_enumerate(space) if vectors else []
    classes = [CohomClass(space, {elements[i]: c for i, c in v.items()}) for v in vectors]
    rule = _rejecting_rule(rules, classes)
    if rule is not None:
        raise VerificationError(f"{name} has nonzero image under {rule.kind} {rule.label}")
    if len(rref_vectors(PrimeField(_SPAN_PRIME), n, vectors)) < len(vectors):
        if len(rref_vectors(QQ, n, vectors)) < len(vectors):
            raise VerificationError(f"{name} has linearly dependent vectors")


def verify_result(result: CohomologyResult):
    """Independent re-check of a result's basis by `_recheck`."""
    space = result.ambient_space
    _recheck(result.constraints, space, result.subspace, f"kernel basis of {space}")


# ---------------------------------------------------------------------------
# kernel intersection driver


def intersect_constraint_kernels(maps, start_basis=None):
    """Intersect kernels of the given maps, most constraining first.

    Maps are applied incrementally to the running subspace (the whole source,
    or `start_basis`) so intermediate eliminations shrink as constraints
    bite; applying the largest-target (highest-rank) constraints first keeps
    the intermediate subspace dimensions low. Once the running dimension is
    0, each remaining map is recorded with rank 0 and `applied_on_dim` 0 and
    is not restricted or eliminated. A `start_basis` holds integer vectors.
    Returns the running basis as it stands, primitive integer vectors, and a
    certificate entry per constraint, in the order applied, with the rank
    observed on the subspace it was applied to.
    """
    if not maps:
        raise EngineError("no constraints to intersect")
    source = maps[0].rule.source
    if any(cm.rule.source != source for cm in maps):
        raise EngineError("constraint sources differ")
    order = sorted(range(len(maps)), key=lambda i: (-maps[i].rule.target.dim(), i))
    n = source.dim()
    basis = start_basis
    certificate = []
    for idx in order:
        rule, matrix = maps[idx]
        dim = n if basis is None else basis.dim
        rank_value = 0
        if dim:
            restricted = matrix if basis is None else apply_to_basis(matrix, basis)
            ker = kernel_basis(restricted)
            rank_value = dim - ker.dim
            basis = ker if basis is None else combine_basis(basis, ker)
        certificate.append({"kind": rule.kind, "label": rule.label, "source_dim": n,
                            "target_dim": rule.target.dim(), "rank": rank_value,
                            "applied_on_dim": dim})
    return SubspaceBasis(QQ, n, []) if basis is None else basis, certificate


# ---------------------------------------------------------------------------
# tilde cohomology of a simple setting


def _factor_position(setting, level, k):
    """1-based tensor-factor index of entry k (1-based) of the given level in
    the limit setting's concatenated factor list."""
    return sum(len(setting.tuples[m]) for m in range(level)) + k


def _tilde_multipliers(ci: CompleteIntersectionInput, setting, a):
    """Target space and, per constraint cutting out the image, (f, factor):
    multiplication by f when factor is None, else by df on that tensor factor."""
    lim = lam.sigma_lim(setting)
    b = lam.b_sigma(setting)
    space = CohomSpace(ci.ambient_N, lim.tuples[0], a - b)
    multipliers = []
    p = setting.codim
    for i in range(1, p + 1):
        f = ci.equations[i - 1]
        multipliers.append((f, None))
        for j in range(i, p + 1):
            for k in range(1, len(setting.tuples[j]) + 1):
                multipliers.append((f, _factor_position(setting, j, k)))
    return space, multipliers


def tilde_constraints(ci: CompleteIntersectionInput, setting, a):
    """Target space and the multiplication constraints cutting out the image."""
    space, multipliers = _tilde_multipliers(ci, setting, a)
    maps = [
        cech.mul_poly_matrix(space, f)
        if factor is None
        else cech.mul_dpoly_matrix(space, f, factor)
        for f, factor in multipliers
    ]
    return space, maps


def tilde_cohomology(ci: CompleteIntersectionInput, setting, a: int) -> CohomologyResult:
    """Dimension and basis of H^{q}(X_p, tilde-power bundle, twist a) inside
    the monomial model of H^N(P^N, .): the intersection of ker(.F_i) with the
    kernels of the differential multiplications at every factor of level >= i.
    """
    if setting.ambient_N != ci.ambient_N:
        raise EngineError("ambient mismatch between setting and equations")
    if setting.degrees != ci.degrees[: setting.codim] or setting.codim != ci.codim:
        raise EngineError(
            f"setting degrees {setting.degrees} do not match equations {ci.degrees}"
        )
    if not setting.is_simple():
        raise NonSimpleSettingError(
            "setting is not simple; use simplify_and_bound for the lower bound"
        )
    q = setting.q()
    if q < 0:
        raise EngineError(f"q = {q} < 0: no group to compute")
    total = setting.total()
    # a < |setting| is the stated bound; the pure restriction tower (no
    # exponents anywhere) is exact for every twist, so only that case is let
    # through unconditionally.
    if total > 0 and a >= total:
        raise EngineError(f"twist a={a} must be < {total}")
    space, maps = tilde_constraints(ci, setting, a)
    if space.is_zero():
        empty = SubspaceBasis(QQ, 0, [])
        return CohomologyResult(q, space, empty, [])
    basis, certificate = intersect_constraint_kernels(maps)
    return CohomologyResult(q, space, basis, certificate, [cm.rule for cm in maps])


# ---------------------------------------------------------------------------
# Euler image (untilded bundles inside the tilde model)


def expected_euler_image_dim(space: CohomSpace) -> int:
    """Dimension of the image of the untilded top cohomology inside the tilde
    model, via the chained factor-by-factor exhaustion.

    Each step trades one untilded factor S^l for the tilde pair
    (S^l tilde) minus (S^{l-1} tilde); unrolled over the factors of positive
    degree this is inclusion-exclusion over which of them drop by one, each
    term the product formula `CohomSpace.dim`. Exact binomial arithmetic, no
    matrices.
    """
    N, ls, a = space.ambient_N, space.factor_degrees, space.twist
    return sum(
        (-1) ** sum(drop) * CohomSpace(N, tuple(l - d for l, d in zip(ls, drop)), a).dim()
        for drop in product(*((0, 1) if l else (0,) for l in ls))
    )


def euler_constraints(space: CohomSpace):
    """Contraction maps for every factor of positive degree."""
    return [
        cech.euler_contraction_matrix(space, j + 1)
        for j, l in enumerate(space.factor_degrees)
        if l >= 1
    ]


def euler_image(space: CohomSpace) -> SubspaceBasis:
    """The untilded top cohomology inside the tilde model: the intersection of
    the per-factor contraction kernels, as a primitive integer basis.

    Its vector count is always cross-checked against the chained exhaustion;
    a mismatch raises VerificationError rather than returning silently.
    """
    if any(l < 1 for l in space.factor_degrees):
        raise EngineError("euler_image needs every factor degree >= 1")
    maps = euler_constraints(space)
    basis, _ = intersect_constraint_kernels(maps)
    expected = expected_euler_image_dim(space)
    if basis.dim != expected:
        raise VerificationError(
            f"contraction-kernel intersection has dim {basis.dim} but the "
            f"chained exhaustion gives {expected} on {space}"
        )
    return basis


def omega_cohomology(ci: CompleteIntersectionInput, ells, a: int) -> CohomologyResult:
    """H^q(X, tensor of S^{l_i} cotangent powers, twist a) for l_i >= c:
    the tilde subspace intersected with the Euler image."""
    ells = tuple(ells)
    c = ci.codim
    n = ci.ambient_N - c
    k = len(ells)
    if any(l < c for l in ells):
        raise EngineError(f"all factor degrees must be >= codimension {c}")
    if a >= sum(ells) - k:
        raise EngineError(f"twist a={a} must be < {sum(ells) - k}")
    q = n - k * c
    if q < 0:
        raise EngineError(f"q = {q} < 0: no group to compute")
    setting = lam.LambdaSetting(
        ci.ambient_N, ci.degrees, tuple(() for _ in range(c)) + (ells,)
    )
    tilde = tilde_cohomology(ci, setting, a)
    space = tilde.ambient_space
    cmaps = euler_constraints(space)
    if not cmaps:
        # every limit factor is S^0: the Euler image is the whole model
        return CohomologyResult(q, space, tilde.subspace, tilde.certificate, tilde.constraints)
    if len(cmaps) >= 2:
        euler_image(space)  # mandatory multi-factor cross-check
    basis, extra_cert = intersect_constraint_kernels(cmaps, start_basis=tilde.subspace)
    return CohomologyResult(
        q,
        space,
        basis,
        tilde.certificate + extra_cert,
        tilde.constraints + [cm.rule for cm in cmaps],
    )


# ---------------------------------------------------------------------------
# non-vanishing witness


@dataclass
class WitnessResult:
    cls: CohomClass
    nonzero: bool
    constraints_checked: int
    degenerate: bool = False


def nonvanishing_witness(setting, a: int, P: HomogPoly) -> WitnessResult:
    """Expand the explicit residue witness for a Fermat-generic chain and
    verify its exact membership in every constraint kernel.

    The witness is P / (Z_0...Z_N)^{e-1} tensored with the factors
    (Z_0 dZ_1 - Z_1 dZ_0)^{l_f} over the limit exponents l_f; deg P must be
    (q+1)e + a - N - 1 - 2|Sigma_lim| and the degree bound
    e >= (N + 1 + 2|Sigma_lim| - a) / (q+1) must hold.
    """
    if not setting.is_simple():
        raise NonSimpleSettingError("witness construction needs a simple setting")
    N = setting.ambient_N
    degrees = set(setting.degrees)
    if len(degrees) != 1:
        raise EngineError("witness construction needs a single common degree")
    e = degrees.pop()
    q = setting.q()
    lim = lam.sigma_lim(setting)
    lim_total = lim.total()
    if (q + 1) * e < N + 1 + 2 * lim_total - a:
        raise EngineError(
            f"degree bound violated: need e >= {(N + 1 + 2 * lim_total - a)}/{q + 1}"
        )
    expected_deg = (q + 1) * e + a - N - 1 - 2 * lim_total
    if not P.is_zero() and P.degree != expected_deg:
        raise EngineError(f"P must have degree {expected_deg}, got {P.degree}")
    ci = fermat_ci(N, setting.codim, e)
    space, multipliers = _tilde_multipliers(ci, setting, a)
    rules = [
        cech.mul_poly_rule(space, f) if factor is None else cech.mul_dpoly_rule(space, f, factor)
        for f, factor in multipliers
    ]
    for rule in rules:
        cech.check_cap(rule.source)
        cech.check_cap(rule.target)
    cls = cech.residue_class(space, P, e - 1)
    if cls.is_zero():
        return WitnessResult(cls, False, 0, degenerate=True)
    rule = _rejecting_rule(rules, [cls])
    if rule is not None:
        raise VerificationError(
            f"witness has nonzero image under {rule.kind} {rule.label}; "
            "this indicates an implementation bug"
        )
    return WitnessResult(cls, True, len(rules))


# ---------------------------------------------------------------------------
# non-simple settings: lower bound via the simplification chain


@dataclass
class SimplifiedBound:
    setting: object
    chain: list
    result: CohomologyResult


def simplify_and_bound(ci: CompleteIntersectionInput, setting, a: int) -> SimplifiedBound:
    """Iterate the exponent-lowering successor to a simple setting with the
    same q and compute its exact dimension: a lower bound for the original.

    Instead of the blanket twist bound a < t, each chain step checks the
    vanishing hypothesis it actually needs (a - deg' < t of the decremented
    successor); a <= 0 always passes, larger twists only when justified.
    """
    chain = [setting]
    current = setting
    while not current.is_simple():
        step = lam.c_step(current)
        # moving a trivial exponent is an isomorphism and needs no vanishing
        if step.c2 is not None and not a - step.degree < step.c2.t_bound():
            raise EngineError(
                f"twist a={a} too large for the simplification step at "
                f"{current.serialize()} (needs a - {step.degree} < {step.c2.t_bound()})"
            )
        current = step.c1
        chain.append(current)
    q0 = setting.q()
    for s in chain:
        if s.q() != q0:
            raise EngineError("q drifted along the simplification chain")
    result = tilde_cohomology(ci, current, a)
    return SimplifiedBound(current, chain, result)


# ---------------------------------------------------------------------------
# plane curves: closed-form descent data
#
# Local sections are stored as (numerator, denominator tag) pairs: the
# denominators are products of the partials F_i, never expanded against the
# numerators, and the two descent identities are checked after clearing them.


def plane_curve_descent(F: HomogPoly, P: HomogPoly) -> dict:
    """Closed-form residue data for a smooth plane curve of degree e >= 3.

    Starting from P/(F_0 F_1 F_2) the multiplication and coboundary chase
    produces the edge and vertex cocycles; both descent identities are
    verified symbolically (the second one modulo F) and the chart-0 pair
    (-Q dz2/f1, Q dz1/f2) is emitted. Returns the `descent` object of the
    `curve` report.
    """
    if F.nvars != 3:
        raise EngineError("plane curve descent needs 3 variables")
    e = F.degree
    if e < 3:
        raise EngineError("need degree >= 3")
    if P.is_zero() or P.degree != e - 3:
        raise EngineError(f"P must be nonzero of degree {e - 3}")
    partials = [F.partial_derivative(i) for i in range(3)]
    euler_sum = HomogPoly.zero(3, e)
    for i in range(3):
        euler_sum = euler_sum + HomogPoly.variable(3, i) * partials[i]
    euler_ok = euler_sum == F.scaled(e)
    if not euler_ok:
        raise EngineError("Euler identity failed for the input polynomial")

    # edge cocycles: for i<j with complement k, (-1)^k (P/e) Z_k / (F_i F_j)
    pair_data = {}
    for i, j in ((0, 1), (0, 2), (1, 2)):
        k = 3 - i - j
        pair_data[f"{i}{j}"] = {
            "sign": (-1) ** k,
            "numerator": (HomogPoly.variable(3, k) * P).to_text(),
            "scale": "1/" + str(e),
            "denominator": f"F{i}*F{j}",
        }

    # identity 1: the edge coboundary recovers (P/(F0 F1 F2)) * F exactly,
    # i.e. e*P*F == P * sum_k Z_k F_k after clearing F0 F1 F2.
    lhs = (P * F).scaled(e)
    rhs = HomogPoly.zero(3, lhs.degree)
    for k in range(3):
        rhs = rhs + P * HomogPoly.variable(3, k) * partials[k]
    top_identity = lhs == rhs

    # vertex cocycles: (-1)^i (P/(e F_i)) * (Z_a dZ_b - Z_b dZ_a), a<b complement
    def vertex_form(i):
        a, b = [m for m in range(3) if m != i]
        coeffs = {
            b: HomogPoly.variable(3, a) * P,
            a: (HomogPoly.variable(3, b) * P).scaled(-1),
        }
        return (-1) ** i, coeffs  # dict dZ-index -> numerator poly (before 1/(e F_i))

    vertex = {i: vertex_form(i) for i in range(3)}
    chart_data = {
        str(i): {
            "sign": vertex[i][0],
            "scale": f"1/({e}*F{i})",
            "form": {f"dZ{m}": pol.to_text() for m, pol in vertex[i][1].items()},
        }
        for i in range(3)
    }

    # identity 2: for each edge i<j with complement k,
    #   (edge_ij * dF) - (vertex_j - vertex_i)  ==  0  modulo F,
    # checked per dZ coefficient after clearing e * F_i * F_j.
    pair_identity = True
    for i, j in ((0, 1), (0, 2), (1, 2)):
        k = 3 - i - j
        for m in range(3):
            lhs_m = (HomogPoly.variable(3, k) * P * partials[m]).scaled((-1) ** k)
            sj, cj = vertex[j]
            si, ci = vertex[i]
            rhs_m = HomogPoly.zero(3, lhs_m.degree)
            if m in cj:
                rhs_m = rhs_m + (partials[i] * cj[m]).scaled(sj)
            if m in ci:
                rhs_m = rhs_m - (partials[j] * ci[m]).scaled(si)
            diff = lhs_m - rhs_m
            if not F.divides_into(diff):
                pair_identity = False

    # chart 0: vertex_i dehomogenizes to (-1)^i (Q/(e f_i)) dz_j; emitted with
    # the conventional scaling by e so the pair reads (-Q dz2/f1, Q dz1/f2)
    Q = P.dehomogenize(0).to_text()
    return {
        "degree": e,
        "P": P.to_text(),
        "top_cocycle": {"numerator": P.to_text(), "denominator": "F0*F1*F2"},
        "pair_cocycles": pair_data,
        "chart_cocycles": chart_data,
        "chart0_pair": [
            {"sign": -1, "numerator": Q, "denominator": "f1", "form": "dz2"},
            {"sign": 1, "numerator": Q, "denominator": "f2", "form": "dz1"},
        ],
        "euler_identity": euler_ok,
        "descent_top_identity": top_identity,
        "descent_pair_identity": pair_identity,
    }


# ---------------------------------------------------------------------------
# deformation-jump experiment


def _pair_partial_constraints(space, F, G):
    maps = []
    for i in range(5):
        for poly in (F.partial_derivative(i), G.partial_derivative(i)):
            maps.append(cech.mul_poly_matrix(space, poly))
    return maps


def jump_dimension(e, alpha, beta, avec=(0, 1, 2, 3, 4)):
    """dim of the common kernel of all ten partial-multiplication maps on
    H^4(P^4, O(-4e)) for the deformed pair at (alpha, beta). The kernel basis
    is re-checked as in `verify_result`."""
    F, G = deformed_fermat_pair(e, alpha, beta, avec)
    space = CohomSpace(4, (), -4 * e)
    maps = _pair_partial_constraints(space, F, G)
    basis, cert = intersect_constraint_kernels(maps)
    _recheck([cm.rule for cm in maps], space, basis,
             f"kernel basis at alpha=({', '.join(map(str, alpha))}), "
             f"beta=({', '.join(map(str, beta))})")
    return basis.dim, cert


def generic_jump_parameters(rng: SplitMix64, avec):
    """Random small parameters subject to the four genericity inequalities."""
    a0, a1, a2, a3, _ = [Fraction(x) for x in avec]
    while True:
        al = (Fraction(rng.nonzero_coeff()), Fraction(rng.nonzero_coeff()))
        be = (Fraction(rng.nonzero_coeff()), Fraction(rng.nonzero_coeff()))
        if be[0] in (a0 * al[0], a1 * al[0]):
            continue
        if be[1] in (a2 * al[1], a3 * al[1]):
            continue
        return al, be


def jump_experiment(e, trials, seed, avec=(0, 1, 2, 3, 4)):
    """Dimensions at the origin and at seeded random generic parameters, plus
    the recorded (never asserted) degenerate stratum beta1 = a0*alpha1."""
    if e < 5:
        raise EngineError("jump experiment needs e >= 5")
    rng = SplitMix64(seed)
    dim0, _ = jump_dimension(e, (0, 0), (0, 0), avec)
    # at the origin every partial is a multiple of some Z_i^(e-1) or 0, so the
    # common kernel is spanned by the 1/Z^I with 1 <= I_i <= e-1 and
    # |I| = 4e: C(e-1, 4) of them, whatever avec
    if dim0 != comb(e - 1, 4):
        raise VerificationError(
            f"dimension {dim0} at the origin is not C({e - 1}, 4) = {comb(e - 1, 4)}"
        )
    random_dims = []
    params = []
    for _ in range(trials):
        al, be = generic_jump_parameters(rng, avec)
        d, _ = jump_dimension(e, al, be, avec)
        random_dims.append(d)
        params.append(
            {"alpha": [str(x) for x in al], "beta": [str(x) for x in be]}
        )
    a0 = Fraction(avec[0])
    alpha_deg = (Fraction(1), Fraction(1))
    beta_deg = (a0 * alpha_deg[0], Fraction(rng.nonzero_coeff()))
    while beta_deg[1] in (Fraction(avec[2]) * alpha_deg[1], Fraction(avec[3]) * alpha_deg[1]):
        beta_deg = (beta_deg[0], Fraction(rng.nonzero_coeff()))
    dim_deg, _ = jump_dimension(e, alpha_deg, beta_deg, avec)
    return {
        "e": e,
        "seed": seed,
        "trials": trials,
        "avec": list(avec),
        "dim_at_origin": dim0,
        "dims_at_random_parameters": random_dims,
        "parameters": params,
        "degenerate_case": {
            "alpha": [str(x) for x in alpha_deg],
            "beta": [str(x) for x in beta_deg],
            "dim": dim_deg,
            "note": "beta1 = a0*alpha1 stratum, recorded only",
        },
    }


# ---------------------------------------------------------------------------
# optional smoothness audit (never blocks)


def jacobian_spot_check(ci: CompleteIntersectionInput, prime, seed, samples=25):
    """Probabilistic finite-field audit: at sampled chart-0 points of the
    intersection, the Jacobian of the dehomogenized equations has full rank.
    Returns a report; callers decide what to do with failures."""
    gf = PrimeField(prime)
    rng = SplitMix64(seed)
    N = ci.ambient_N
    affine = [f.dehomogenize(0) for f in ci.equations]
    jac = [[g.partial_derivative(m) for m in range(N)] for g in affine]
    found = []
    drops = []
    attempts = 0
    while len(found) < samples and attempts < 200 * samples:
        attempts += 1
        z = [rng.randint(0, prime - 1) for _ in range(N)]
        if any(g.evaluate(z, gf) != 0 for g in affine):
            continue
        found.append(z)
        rows = [[entry.evaluate(z, gf) for entry in row] for row in jac]
        if rank(SparseMatrix.from_rows(gf, rows)) < ci.codim:
            drops.append(z)
    return {
        "prime": prime,
        "seed": seed,
        "points_on_chart": len(found),
        "attempts": attempts,
        "rank_drops": drops,
    }
