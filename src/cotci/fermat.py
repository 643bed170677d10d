"""Fermat-type systems with twisted coefficients and their explicit forms.

The systems are F_{s^j} = sum_i s_i^j Z_i^e with degree-epsilon polynomial
coefficients s_i^j. This module builds the determinantal cocycles attached to
such a system (rows of a- and alpha-letters), their dehomogenized jet-space
forms (b- and beta-letters), verifies kernel membership and chart gluing by
exact linear algebra, scans base loci over prime fields through the rank
criterion rk B < c or rk [B; B'] < N, and runs the genericity probes backing
the dimension-count arguments.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import cech
from .cech import CohomClass, CohomSpace
from .exactalg import QQ, PrimeField, SparseMatrix, SpanReducer, kernel_basis, rank
from .poly import AffinePoly, HomogPoly, compositions, mi_add
from .rng import SplitMix64


class FermatError(ValueError):
    pass


# ---------------------------------------------------------------------------
# symmetric-form carrier: polynomial coefficients against a dZ (or xi) basis


class TensorForm:
    """Element of S^w V tensor polynomials: sparse map from a degree-w
    exponent tuple over the form variables to a coefficient polynomial.
    With AffinePoly coefficients in the jet coordinates z it is a jet-space
    form of degree w in the direction xi."""

    __slots__ = ("form_nvars", "weight", "terms")

    def __init__(self, form_nvars, weight, terms=None):
        self.form_nvars = form_nvars
        self.weight = weight
        self.terms = {}
        if terms:
            for exp, poly in terms.items():
                if poly.is_zero():
                    continue
                if len(exp) != form_nvars or sum(exp) != weight:
                    raise ValueError(f"form exponent {exp} invalid for weight {weight}")
                self.terms[exp] = poly

    @classmethod
    def scalar(cls, form_nvars, poly):
        return cls(form_nvars, 0, {(0,) * form_nvars: poly})

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        if self.form_nvars != other.form_nvars or self.weight != other.weight:
            raise ValueError("form shape mismatch")
        terms = dict(self.terms)
        for exp, poly in other.terms.items():
            cur = terms.get(exp)
            s = poly if cur is None else cur + poly
            if s.is_zero():
                terms.pop(exp, None)
            else:
                terms[exp] = s
        return TensorForm(self.form_nvars, self.weight, terms)

    def __sub__(self, other):
        return self + other.scaled(-1)

    def __mul__(self, other):
        if self.form_nvars != other.form_nvars:
            raise ValueError("form shape mismatch")
        terms = {}
        for e1, p1 in self.terms.items():
            for e2, p2 in other.terms.items():
                exp = mi_add(e1, e2)
                prod = p1 * p2
                cur = terms.get(exp)
                s = prod if cur is None else cur + prod
                if s.is_zero():
                    terms.pop(exp, None)
                else:
                    terms[exp] = s
        return TensorForm(self.form_nvars, self.weight + other.weight, terms)

    def scaled(self, scalar):
        return TensorForm(
            self.form_nvars,
            self.weight,
            {e: p.scaled(scalar) for e, p in self.terms.items()},
        )

    def poly_scaled(self, poly):
        """Multiply every coefficient by a polynomial (no form-variable change)."""
        return TensorForm(
            self.form_nvars,
            self.weight,
            {e: p * poly for e, p in self.terms.items()},
        )

    def evaluate(self, z, xi, field=QQ):
        """Value at the point z in the direction xi."""
        total = 0
        for exp, poly in self.terms.items():
            v = poly.evaluate(z, field)
            for x, p_ in zip(xi, exp):
                if p_:
                    v *= x**p_
            total += v
        return field.normalize(total)

    def substitute_pair_zero(self, i: int) -> "TensorForm":
        """Set z_i = 0 and xi_i = 0 (1-based i); used for the W-vanishing check."""
        idx = i - 1
        terms = {}
        for exp, poly in self.terms.items():
            if exp[idx] == 0:
                kept = {m: c for m, c in poly.terms.items() if m[idx] == 0}
                terms[exp] = type(poly)(poly.nvars, kept)
        return TensorForm(self.form_nvars, self.weight, terms)

    def __eq__(self, other):
        return (
            isinstance(other, TensorForm)
            and self.form_nvars == other.form_nvars
            and self.weight == other.weight
            and self.terms == other.terms
        )


def form_determinant(rows):
    """Determinant of a square matrix of TensorForm entries (Laplace expansion
    along the first row, memoized on the remaining column set)."""
    size = len(rows)
    if any(len(r) != size for r in rows):
        raise ValueError("determinant needs a square matrix")
    memo = {}

    def rec(r, cols):
        key = (r, cols)
        if key in memo:
            return memo[key]
        if r == size - 1:
            val = rows[r][cols[0]]
            memo[key] = val
            return val
        acc = None
        for pos, c in enumerate(cols):
            entry = rows[r][c]
            if entry.is_zero():
                continue
            sub = rec(r + 1, cols[:pos] + cols[pos + 1 :])
            term = entry * sub
            if pos % 2 == 1:
                term = term.scaled(-1)
            acc = term if acc is None else acc + term
        if acc is None:
            sample = rows[r][cols[0]]
            zero_w = sum(rw[cols[0]].weight for rw in rows[r:])
            acc = TensorForm(sample.form_nvars, zero_w, {})
        memo[key] = acc
        return acc

    return rec(0, tuple(range(size)))


# ---------------------------------------------------------------------------
# the systems


@dataclass
class FermatSystem:
    ambient_N: int
    c: int
    epsilon: int
    e: int
    s: tuple  # c rows, each a tuple of N+1 HomogPoly of degree epsilon

    def __post_init__(self):
        N = self.ambient_N
        if not 1 <= self.c <= N - 1:
            raise FermatError(f"codimension {self.c} out of range for N={N}")
        if self.epsilon < 0 or self.e < 1:
            raise FermatError("need epsilon >= 0 and e >= 1")
        if len(self.s) != self.c or any(len(row) != N + 1 for row in self.s):
            raise FermatError("coefficient grid must be c x (N+1)")
        for row in self.s:
            for v in row:
                if not v.is_zero() and v.degree != self.epsilon:
                    raise FermatError("coefficients must be homogeneous of degree epsilon")

    @property
    def r(self):
        return self.e - 1

    @property
    def e0(self):
        return self.epsilon + self.e

    @property
    def n(self):
        return self.ambient_N - self.c

    def equation(self, j) -> HomogPoly:
        """F_{s^j} = sum_i s_i^j Z_i^e, of degree epsilon + e (1-based j)."""
        N = self.ambient_N
        acc = HomogPoly.zero(N + 1, self.e0)
        for i in range(N + 1):
            v = self.s[j - 1][i]
            if not v.is_zero():
                acc = acc + v * HomogPoly.variable(N + 1, i, self.e)
        return acc

    def equations(self):
        return [self.equation(j) for j in range(1, self.c + 1)]

    def dehom_coeffs(self, chart=0):
        """The t_i^j: coefficients dehomogenized with respect to the chart."""
        return [
            [v.dehomogenize(chart) for v in row] for row in self.s
        ]

    def max_p_degree(self, a):
        """Largest numerator degree allowed at twist a (must be >= 0)."""
        return self.e - a - self.ambient_N * self.epsilon - self.ambient_N - 1


def random_fermat_system(N, c, epsilon, e, seed) -> FermatSystem:
    rng = SplitMix64(seed)
    monos = compositions(epsilon, N + 1)
    grid = []
    for _ in range(c):
        row = []
        for _ in range(N + 1):
            terms = {m: rng.nonzero_coeff() for m in monos}
            row.append(HomogPoly(N + 1, terms, epsilon))
        grid.append(tuple(row))
    return FermatSystem(N, c, epsilon, e, tuple(grid))


# ---------------------------------------------------------------------------
# letters


def letters(v, i: int, e: int):
    """(a_i(v), alpha_i(v)): Z_i v and the weight-1 form Z_i dv + e v dZ_i.

    `v` is a HomogPoly or an AffinePoly; for an AffinePoly in jet
    coordinates, i = q - 1 gives (b_q(v), beta_q(v)) for the variable z_q.
    """
    nv = v.nvars
    zi = type(v).variable(nv, i)
    a = zi * v
    terms = {}
    for m in range(nv):
        coeff = zi * v.partial_derivative(m)
        if m == i:
            coeff = coeff + v.scaled(e)
        if not coeff.is_zero():
            exp = tuple(1 if t == m else 0 for t in range(nv))
            terms[exp] = coeff
    return a, TensorForm(nv, 1, terms)


# ---------------------------------------------------------------------------
# the chart's letter grid and the numeric jet matrices


def _chart_columns(sys: FermatSystem, chart):
    """The coefficient columns other than `chart`, in order: chart coordinate
    z[pos] is Z_i / Z_chart for the i at position pos."""
    return [i for i in range(sys.ambient_N + 1) if i != chart]


def letter_grid(sys: FermatSystem, chart=0):
    """c x N grid of (b, beta) letter pairs in the chart coordinates: entry
    [j][pos] is letters(t_i^j, pos, e) for the column i at position pos."""
    t = sys.dehom_coeffs(chart)
    columns = _chart_columns(sys, chart)
    return [[letters(row[i], pos, sys.e) for pos, i in enumerate(columns)] for row in t]


def build_B(grid, z, field=QQ):
    """c x N matrix b_i(t_i^j, z) = z_i t_i^j(z) at the jet base point."""
    return [[b.evaluate(z, field) for b, _ in row] for row in grid]


def build_Bprime(grid, z, xi, field=QQ):
    """c x N matrix beta_i(t_i^j, z, xi) = z_i dt(xi) + e t(z) xi_i."""
    if all(x == 0 for x in xi):
        raise FermatError("jet direction xi must be nonzero")
    return [[beta.evaluate(z, xi, field) for _, beta in row] for row in grid]


# ---------------------------------------------------------------------------
# determinantal cocycles


def _check_index_tuple(sys, I):
    if len(I) != sys.n:
        raise FermatError(f"index tuple must have length n = {sys.n}")
    if len(set(I)) != len(I):
        raise FermatError("index tuple entries must be distinct")
    if any(not 1 <= i <= sys.c for i in I):
        raise FermatError(f"indices must lie in 1..{sys.c}")


def _letter_determinant(grid, I) -> TensorForm:
    """Determinant with one row of scalar letters per grid row and one row of
    form letters per index of I (1-based grid rows)."""
    nvars = grid[0][0][0].nvars
    rows = [[TensorForm.scalar(nvars, a) for a, _ in line] for line in grid]
    rows += [[al for _, al in grid[j - 1]] for j in I]
    return form_determinant(rows)


def tilde_cocycle(sys: FermatSystem, I, P: HomogPoly, chart: int) -> TensorForm:
    """Numerator of the chart representative of the determinantal section:
    (-1)^chart P times the determinant with the c a-rows and the n alpha-rows
    of I, column `chart` deleted. The section is this over Z_chart^{e-1}."""
    _check_index_tuple(sys, I)
    N = sys.ambient_N
    if not 0 <= chart <= N:
        raise FermatError("chart out of range")
    if not P.is_zero() and P.degree > sys.max_p_degree(0):
        raise FermatError(
            f"deg P = {P.degree} exceeds the bound {sys.max_p_degree(0)}"
        )
    columns = _chart_columns(sys, chart)
    grid = [[letters(row[i], i, sys.e) for i in columns] for row in sys.s]
    det = _letter_determinant(grid, I)
    return det.poly_scaled(P).scaled((-1) ** chart)


def verify_kernel_membership(sys: FermatSystem, I, P: HomogPoly, a: int) -> bool:
    """Whether P/(Z_0...Z_N)^{e-1} lies in every constraint kernel: plain
    multiplication for the complementary equations, multiplication and
    differential multiplication for the equations of I. Pure class
    applications, no kernels materialized."""
    _check_index_tuple(sys, I)
    N = sys.ambient_N
    maxdeg = sys.max_p_degree(a)
    if maxdeg < 0:
        raise FermatError(f"twist a={a} leaves no numerator degree")
    if not P.is_zero() and P.degree != maxdeg:
        raise FermatError(f"P must have degree {maxdeg}, got {P.degree}")
    space = CohomSpace(N, (0,), -a - N * sys.e0)
    zeroJ = (0,) * (N + 1)
    coeffs = {}
    base = tuple(sys.r for _ in range(N + 1))
    for mono, cP in P.terms.items():
        I_den = tuple(b - m for b, m in zip(base, mono))
        if min(I_den) >= 1:
            coeffs[(zeroJ, I_den)] = cP
    cls = CohomClass(space, coeffs)
    complement = [j for j in range(1, sys.c + 1) if j not in I]
    for j in complement:
        if not cech.apply_poly(cls, sys.equation(j)).is_zero():
            return False
    for j in I:
        f = sys.equation(j)
        if not cech.apply_poly(cls, f).is_zero():
            return False
        if not cech.apply_dpoly(cls, f, 1).is_zero():
            return False
    return True


# ---------------------------------------------------------------------------
# chart gluing


def _dform(f: HomogPoly) -> TensorForm:
    """df as a weight-1 form: sum_m (df/dZ_m) dZ_m."""
    nv = f.nvars
    terms = {}
    for m in range(nv):
        pm = f.partial_derivative(m)
        if not pm.is_zero():
            terms[tuple(1 if t == m else 0 for t in range(nv))] = pm
    return TensorForm(nv, 1, terms)


class GlueReducer:
    """Reusable membership tester for one (system, I, P) in the graded piece
    where the chart differences live: the span of F_m * (weight-n monomials)
    and dF_m * (weight-(n-1) monomials) for m in I."""

    def __init__(self, sys: FermatSystem, I, target_z_degree: int, weight: int):
        N = sys.ambient_N
        mult_deg = target_z_degree - sys.e0
        if mult_deg < 0:
            raise FermatError("target degree too small for any multiplier")
        z_monos = compositions(mult_deg, N + 1)
        # differentials have coefficient degree e0 - 1, one less than the
        # equations, so their monomial multipliers go one degree higher
        z_monos_d = compositions(mult_deg + 1, N + 1)
        w_full = compositions(weight, N + 1)
        w_less = compositions(weight - 1, N + 1) if weight >= 1 else []
        self._row_index = {}
        generators = []

        def vec_of(form: TensorForm):
            vec = {}
            for exp, poly in form.terms.items():
                for mono, coeff in poly.terms.items():
                    key = (exp, mono)
                    idx = self._row_index.setdefault(key, len(self._row_index))
                    vec[idx] = vec.get(idx, 0) + coeff
            return vec

        for j in range(1, sys.c + 1):
            f = sys.equation(j)
            for wexp in w_full:
                for mono in z_monos:
                    shifted = {mi_add(m, mono): cf for m, cf in f.terms.items()}
                    poly = HomogPoly(N + 1, shifted)
                    generators.append(vec_of(TensorForm(N + 1, weight, {wexp: poly})))
        for j in I:
            df = _dform(sys.equation(j))
            for wexp in w_less:
                base = TensorForm(N + 1, weight - 1, {wexp: HomogPoly.constant(N + 1, 1)})
                prod = df * base
                for mono in z_monos_d:
                    shift = HomogPoly.monomial(mono)
                    generators.append(vec_of(prod.poly_scaled(shift)))
        ncols = len(self._row_index)
        self._reducer = SpanReducer(QQ, ncols, generators)

    def contains(self, form: TensorForm) -> bool:
        vec = {}
        for exp, poly in form.terms.items():
            for mono, coeff in poly.terms.items():
                key = (exp, mono)
                idx = self._row_index.get(key)
                if idx is None:
                    return False
                vec[idx] = vec.get(idx, 0) + coeff
        return self._reducer.contains(vec)


def glue_reducer_for(sys: FermatSystem, I, P: HomogPoly) -> GlueReducer:
    """Shared reducer for all chart pairs of one (system, I, P). The cleared
    differences have weight n and coefficient degree
    r + deg P + c (epsilon + 1) + n epsilon: r from the cleared Z^r, epsilon + 1
    from each a-letter and epsilon from each alpha-letter."""
    _check_index_tuple(sys, I)
    deg = sys.r + (P.degree if not P.is_zero() else 0) \
        + sys.c * (sys.epsilon + 1) + sys.n * sys.epsilon
    return GlueReducer(sys, I, deg, sys.n)


def verify_glue(sys: FermatSystem, numerators, chart_a: int, chart_b: int,
                reducer: GlueReducer) -> bool:
    """Whether the two chart representatives agree on the overlap: the cleared
    difference must lie in the ideal spanned by the equations and the
    differentials of I's equations in its graded piece. `numerators[k]` is
    the `tilde_cocycle` numerator of chart k, and `reducer` comes from
    `glue_reducer_for` with the same I and P."""
    za = HomogPoly.variable(sys.ambient_N + 1, chart_a, sys.r)
    zb = HomogPoly.variable(sys.ambient_N + 1, chart_b, sys.r)
    diff = numerators[chart_a].poly_scaled(zb) - numerators[chart_b].poly_scaled(za)
    return diff.is_zero() or reducer.contains(diff)


# ---------------------------------------------------------------------------
# affine symmetric forms


def affine_form(sys: FermatSystem, I) -> TensorForm:
    """The full N x N determinant of b-rows and beta-rows in the chart-0 jet
    coordinates z_q = Z_q/Z_0, a form of weight n in the jet direction xi.
    A numerator Q only multiplies it, so where it vanishes every Q-multiple
    vanishes too."""
    _check_index_tuple(sys, I)
    return _letter_determinant(letter_grid(sys, 0), I)


# ---------------------------------------------------------------------------
# base-locus scanner


@dataclass
class ScanReport:
    p: int
    N: int
    c: int
    epsilon: int
    e: int
    seed: int
    chart: int
    counts: dict
    candidate_E: list
    ci_points: int
    jet_points: int
    w_vanishing_checked: int
    w_vanishing_failures: int
    nonzero_spot_checked: int
    nonzero_spot_failures: int
    hypothesis_warning: str = ""

    def to_json_dict(self):
        return {
            "p": self.p,
            "N": self.N,
            "c": self.c,
            "epsilon": self.epsilon,
            "e": self.e,
            "seed": self.seed,
            "chart": self.chart,
            "counts": self.counts,
            "candidate_E": self.candidate_E,
            "ci_points": self.ci_points,
            "jet_points": self.jet_points,
            "w_vanishing": {
                "checked": self.w_vanishing_checked,
                "failures": self.w_vanishing_failures,
            },
            "nonzero_spot": {
                "checked": self.nonzero_spot_checked,
                "failures": self.nonzero_spot_failures,
            },
            "hypothesis_warning": self.hypothesis_warning,
        }


def _projective_points(field, basis_vectors, dim_ambient, limit, rng):
    """Projective points of the span of the basis vectors over F_p: full
    enumeration when small, seeded sample otherwise."""
    p = field.p
    d = len(basis_vectors)
    if d == 0:
        return []
    count = (p**d - 1) // (p - 1)
    points = []

    def combine(coeffs):
        vec = [0] * dim_ambient
        for cf, bv in zip(coeffs, basis_vectors):
            if cf:
                for idx, v in bv.items():
                    vec[idx] = (vec[idx] + cf * v) % p
        return tuple(vec)

    if count <= limit:
        for lead in range(d):
            for tail in itertools.product(range(p), repeat=d - lead - 1):
                coeffs = (0,) * lead + (1,) + tail
                points.append(combine(coeffs))
    else:
        sample = min(limit, 1000)
        seen = set()
        while len(points) < sample:
            coeffs = tuple(rng.randint(0, p - 1) for _ in range(d))
            if all(cf == 0 for cf in coeffs):
                continue
            first = next(i for i, cf in enumerate(coeffs) if cf)
            inv = pow(coeffs[first], -1, p)
            normed = tuple(cf * inv % p for cf in coeffs)
            if normed in seen:
                continue
            seen.add(normed)
            points.append(combine(normed))
    return points


def base_locus_scan(
    sys: FermatSystem,
    a: int,
    p: int,
    seed: int,
    chart: int = 0,
    cap: int = 10_000_000,
    xi_limit: int = 10_000,
    spot_checks: int = 50,
) -> ScanReport:
    """Enumerate jet points of the intersection in the chart Z_chart = 1 over
    F_p and classify them by the rank criterion. Points outside the
    tautological vanishing locus W whose forms all vanish are the candidate
    exceptional set, emitted for fixture freezing; nothing about its size is
    asserted. The twist `a` must leave a numerator degree, or no form of that
    twist exists."""
    if sys.max_p_degree(a) < 0:
        raise FermatError(f"twist a={a} leaves no numerator degree")
    field = PrimeField(p)
    N = sys.ambient_N
    if p**N > cap:
        raise FermatError(f"p^N = {p**N} exceeds cap {cap}")
    warning = ""
    if 4 * sys.c < 3 * N - 2:
        warning = (
            f"c = {sys.c} is below the recommended bound ceil((3N-2)/4) = "
            f"{-(-(3 * N - 2) // 4)}; the expected decomposition may fail"
        )
    rng = SplitMix64(seed)
    eqs = [f.dehomogenize(chart) for f in sys.equations()]
    jacobian = [[f.partial_derivative(m) for m in range(N)] for f in eqs]
    grid = letter_grid(sys, chart)
    counts = {"in_w": 0, "rank_drop_b": 0, "criterion_zero": 0, "nonzero": 0}
    candidate = []
    ci_points = 0
    jet_points = 0
    w_checked = w_fail = 0
    spot_done = spot_fail = 0
    subsets = list(itertools.combinations(range(1, sys.c + 1), sys.n))

    def structured_nonsingular(B, Bp):
        # per index subset: is the determinant of its N x N structured matrix
        # nonzero, i.e. is the matrix of full rank N
        return [
            rank(SparseMatrix.from_rows(field, B + [Bp[j - 1] for j in sub])) == N
            for sub in subsets
        ]

    for z in itertools.product(range(p), repeat=N):
        if any(f.evaluate(z, field) for f in eqs):
            continue
        ci_points += 1
        rows = [[df.evaluate(z, field) for df in row] for row in jacobian]
        tangent = kernel_basis(SparseMatrix.from_rows(field, rows))
        # B and its rank depend on the point z alone
        B = build_B(grid, z, field)
        rkB = rank(SparseMatrix.from_rows(field, B))
        for xi in _projective_points(field, tangent.vectors, N, xi_limit, rng):
            jet_points += 1
            in_w = any(z[i] == 0 and xi[i] == 0 for i in range(N))
            if in_w:
                counts["in_w"] += 1
                w_checked += 1
                if any(structured_nonsingular(B, build_Bprime(grid, z, xi, field))):
                    w_fail += 1
                continue
            if rkB < sys.c:
                counts["rank_drop_b"] += 1
                candidate.append({"z": list(z), "xi": list(xi), "class": "rank_drop_b"})
                continue
            Bp = build_Bprime(grid, z, xi, field)
            if rank(SparseMatrix.from_rows(field, B + Bp)) < N:
                counts["criterion_zero"] += 1
                candidate.append({"z": list(z), "xi": list(xi), "class": "criterion_zero"})
            else:
                counts["nonzero"] += 1
                if spot_done < spot_checks:
                    spot_done += 1
                    if not any(structured_nonsingular(B, Bp)):
                        spot_fail += 1
    return ScanReport(
        p=p,
        N=N,
        c=sys.c,
        epsilon=sys.epsilon,
        e=sys.e,
        seed=seed,
        chart=chart,
        counts=counts,
        candidate_E=candidate,
        ci_points=ci_points,
        jet_points=jet_points,
        w_vanishing_checked=w_checked,
        w_vanishing_failures=w_fail,
        nonzero_spot_checked=spot_done,
        nonzero_spot_failures=spot_fail,
        hypothesis_warning=warning,
    )


# ---------------------------------------------------------------------------
# genericity probes


def genericity_probes(
    trials: int,
    seed: int,
    p: int = 31,
    rank_shape=(3, 4, 5),
    claim_shape=(4, 1, 9),
    kj_shape=(2, 2, 5),
) -> dict:
    """Monte Carlo evidence for the three dimension-count ingredients:

    (i) a full-rank n x p matrix times a random p x q matrix has rank
        min(q, n);
    (ii) at a random jet point with all coordinates nonzero, the two
        functionals u -> z_q u(z) and u -> z_q du(xi) + e u(z) xi_q on the
        degree-epsilon coefficient space are independent (rank 2);
    (iii) the structured c x (M c) matrices built from such pairs of
        functionals have full rank c.

    All randomness is seeded; degeneracy counts are reported, expected zero.
    """
    field = PrimeField(p)
    rng = SplitMix64(seed)
    n_, p_, q_ = rank_shape
    drop_i = 0
    for _ in range(trials):
        while True:
            A = [[rng.randint(0, p - 1) for _ in range(p_)] for _ in range(n_)]
            if rank(SparseMatrix.from_rows(field, A)) == n_:
                break
        B = [[rng.randint(0, p - 1) for _ in range(q_)] for _ in range(p_)]
        AB = [
            [sum(A[i][k] * B[k][j] for k in range(p_)) % p for j in range(q_)]
            for i in range(n_)
        ]
        if rank(SparseMatrix.from_rows(field, AB)) != min(q_, n_):
            drop_i += 1

    N, eps, e = claim_shape
    monos = compositions(eps, N)
    M = len(monos)
    drop_ii = 0

    # the letters of every coefficient monomial u in each variable z_q
    unit_letters = [
        [letters(AffinePoly(N, {mono: 1}), i, e) for mono in monos] for i in range(N)
    ]

    def functional_rows(z, xi, q):
        pairs = unit_letters[q - 1]
        return (
            [b.evaluate(z, field) for b, _ in pairs],
            [beta.evaluate(z, xi, field) for _, beta in pairs],
        )

    for _ in range(trials):
        z = [rng.randint(1, p - 1) for _ in range(N)]
        xi = [rng.randint(1, p - 1) for _ in range(N)]
        for q in range(1, N + 1):
            brow, berow = functional_rows(z, xi, q)
            if rank(SparseMatrix.from_rows(field, [brow, berow])) != 2:
                drop_ii += 1

    nk, ck, Mk = kj_shape
    drop_iii = 0
    for _ in range(trials):
        while True:
            L = [rng.randint(0, p - 1) for _ in range(Mk)]
            Lam = [rng.randint(0, p - 1) for _ in range(Mk)]
            if any(Lam) and rank(SparseMatrix.from_rows(field, [L, Lam])) == 2:
                break
        Bmat = [[rng.randint(0, p - 1) for _ in range(ck)] for _ in range(ck)]
        K = []
        for i in range(ck):
            row = []
            for kcol in range(ck):
                block = [
                    ((Lam[mm] if i == kcol else 0) - Bmat[i][kcol] * L[mm]) % p
                    for mm in range(Mk)
                ]
                row.extend(block)
            K.append(row)
        if rank(SparseMatrix.from_rows(field, K)) != ck:
            drop_iii += 1

    # negative control: a W-point must degenerate the claim-(ii) rank for its q
    zw = [rng.randint(1, p - 1) for _ in range(N)]
    xiw = [rng.randint(1, p - 1) for _ in range(N)]
    zw[0] = 0
    xiw[0] = 0
    brow, berow = functional_rows(zw, xiw, 1)
    w_degenerate = rank(SparseMatrix.from_rows(field, [brow, berow])) < 2

    return {
        "trials": trials,
        "seed": seed,
        "prime": p,
        "rank_product": {"shape": list(rank_shape), "degeneracies": drop_i},
        "letter_independence": {
            "shape": {"N": N, "epsilon": eps, "e": e, "dim_coeff_space": M},
            "degeneracies": drop_ii,
        },
        "structured_rank": {"shape": list(kj_shape), "degeneracies": drop_iii},
        "w_negative_control_degenerate": w_degenerate,
    }
