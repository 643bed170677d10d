"""Fermat-type systems with twisted coefficients and their explicit forms.

The systems are F_{s^j} = sum_i s_i^j Z_i^e with degree-epsilon polynomial
coefficients s_i^j. This module builds the determinantal cocycles attached to
such a system (the maximal minors of one grid of a- and alpha-letters) and
their jet-space form (the chart-0 minor at Z_0 = 1, dZ_0 = 0), verifies
kernel membership and chart gluing by exact linear algebra, scans base loci
over prime fields through the rank criterion rk B < c or rk [B; B'] < N, and
runs the genericity probes backing the dimension-count arguments.

A symmetric form of weight w is a HomogPoly in the 2(N+1) variables
Z_0..Z_N, dZ_0..dZ_N, and a jet-space form an AffinePoly in z_1..z_N,
xi_1..xi_N; every term has degree w in the second half of the variables.
So forms are added, multiplied and evaluated by the arithmetic of `poly`,
and the layout itself is written only here: `_lift` pads a scalar
polynomial to a weight-0 form, and `letters` appends the dZ exponent.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import cech
from .cech import CohomSpace
from .exactalg import QQ, PrimeField, SparseMatrix, SpanReducer, kernel_basis, rank
from .poly import AffinePoly, HomogPoly, compositions, mi_add
from .rng import SplitMix64


class FermatError(ValueError):
    pass


# ---------------------------------------------------------------------------
# forms: polynomials in (Z, dZ), or in (z, xi) on the jet space


def _lift(v):
    """The scalar polynomial v as a weight-0 form: a polynomial in twice its
    variables whose second half, the differentials, is absent."""
    pad = (0,) * v.nvars
    return type(v)(2 * v.nvars, {m + pad: c for m, c in v.terms.items()})


def vanishes_on_pair(form, i: int) -> bool:
    """Whether the form vanishes where z_i = 0 and xi_i = 0 (1-based i): no
    term is free of both. Used for the W-vanishing check."""
    n = form.nvars // 2
    return all(m[i - 1] or m[n + i - 1] for m in form.terms)


def form_determinant(rows, columns=None, memo=None):
    """Determinant of the square matrix that the rows of polynomial entries
    make on `columns` (default: all), by Laplace expansion along the first
    row. `memo` maps a column tuple to the minor of the last len(columns)
    rows on it, so determinants of the same rows that share it share their
    sub-minors."""
    size = len(rows)
    columns = tuple(range(len(rows[0]))) if columns is None else tuple(columns)
    if len(columns) != size or any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("determinant needs a square matrix")
    memo = {} if memo is None else memo

    def rec(cols):
        if cols in memo:
            return memo[cols]
        row = rows[size - len(cols)]
        if len(cols) == 1:
            acc = row[cols[0]]
        else:
            acc = None
            for pos, c in enumerate(cols):
                entry = row[c]
                if entry.is_zero():
                    continue
                term = entry * rec(cols[:pos] + cols[pos + 1 :])
                if pos % 2 == 1:
                    term = term.scaled(-1)
                acc = term if acc is None else acc + term
            if acc is None:
                acc = row[cols[0]].scaled(0)
        memo[cols] = acc
        return acc

    return rec(columns)


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
    """(a_i(v), alpha_i(v)): the polynomial Z_i v and the weight-1 form
    Z_i dv + e v dZ_i, a polynomial in (Z, dZ).

    `v` is a HomogPoly or an AffinePoly; for an AffinePoly in jet
    coordinates, i = q - 1 gives (b_q(v), beta_q(v)) for the variable z_q,
    with beta a polynomial in (z, xi).
    """
    nv = v.nvars
    zi = type(v).variable(nv, i)
    terms = {}
    for m in range(nv):
        coeff = zi * v.partial_derivative(m)
        if m == i:
            coeff = coeff + v.scaled(e)
        dz = tuple(1 if t == m else 0 for t in range(nv))
        for mono, c in coeff.terms.items():
            terms[mono + dz] = c
    return zi * v, type(v)(2 * nv, terms)


# ---------------------------------------------------------------------------
# the chart's letter grid and the numeric jet matrices


def letter_grid(sys: FermatSystem, chart=0):
    """c x N grid of (b, beta) letter pairs in the chart coordinates: entry
    [j][pos] is letters(s_i^j at Z_chart = 1, pos, e) for the pos-th i != chart."""
    columns = [i for i in range(sys.ambient_N + 1) if i != chart]
    return [
        [letters(row[i].dehomogenize(chart), pos, sys.e) for pos, i in enumerate(columns)]
        for row in sys.s
    ]


def build_B(grid, z, field=QQ):
    """c x N matrix b_i(t_i^j, z) = z_i t_i^j(z) at the jet base point."""
    return [[b.evaluate(z, field) for b, _ in row] for row in grid]


def build_Bprime(grid, z, xi, field=QQ):
    """c x N matrix beta_i(t_i^j, z, xi) = z_i dt(xi) + e t(z) xi_i."""
    if all(x == 0 for x in xi):
        raise FermatError("jet direction xi must be nonzero")
    point = (*z, *xi)
    return [[beta.evaluate(point, field) for _, beta in row] for row in grid]


# ---------------------------------------------------------------------------
# determinantal cocycles


def _check_index_tuple(sys, I):
    if len(I) != sys.n:
        raise FermatError(f"index tuple must have length n = {sys.n}")
    if len(set(I)) != len(I):
        raise FermatError("index tuple entries must be distinct")
    if any(not 1 <= i <= sys.c for i in I):
        raise FermatError(f"indices must lie in 1..{sys.c}")


def letter_minors(sys: FermatSystem, I):
    """The maximal minors of the grid of c a-rows and one alpha-row per index
    of I (1-based) over all N+1 columns, column i holding letters(s_i^j, i, e):
    entry k drops column k. All N+1 share one Laplace memo."""
    _check_index_tuple(sys, I)
    grid = [[letters(v, i, sys.e) for i, v in enumerate(row)] for row in sys.s]
    rows = [[_lift(a) for a, _ in line] for line in grid]
    rows += [[al for _, al in grid[j - 1]] for j in I]
    cols = tuple(range(sys.ambient_N + 1))
    memo = {}
    return [form_determinant(rows, cols[:k] + cols[k + 1 :], memo) for k in cols]


def tilde_cocycle(sys: FermatSystem, minors, P: HomogPoly) -> list:
    """Numerators of the chart representatives of the determinantal section:
    entry k is (-1)^k P times `minors[k]`, from `letter_minors`. The section
    on chart k is it over Z_k^{e-1}."""
    if not P.is_zero() and P.degree > sys.max_p_degree(0):
        raise FermatError(
            f"deg P = {P.degree} exceeds the bound {sys.max_p_degree(0)}"
        )
    lifted = _lift(P)
    return [(m * lifted).scaled((-1) ** k) for k, m in enumerate(minors)]


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
    cls = cech.residue_class(CohomSpace(N, (0,), -a - N * sys.e0), P, sys.r)
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


class GlueReducer:
    """Reusable membership tester for one (system, I, P) in the graded piece
    where the chart differences live: the span of F_m * (weight-n monomials)
    and dF_m * (weight-(n-1) monomials) for m in I. A coordinate is a
    monomial in (Z, dZ), numbered in order of first use."""

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
        index = self._row_index = {}

        def column(mono, exp):
            return index.setdefault(mono + exp, len(index))

        generators = []
        # F_j * Z^mono * dZ^wexp
        for j in range(1, sys.c + 1):
            terms = sys.equation(j).terms
            for wexp in w_full:
                for mono in z_monos:
                    generators.append(
                        {column(mi_add(m, mono), wexp): cf for m, cf in terms.items()}
                    )
        # dF_j * Z^mono * dZ^wexp = sum_m (dF_j/dZ_m) Z^mono dZ^(wexp + e_m)
        units = [tuple(1 if t == m else 0 for t in range(N + 1)) for m in range(N + 1)]
        for j in I:
            f = sys.equation(j)
            partials = [(units[m], f.partial_derivative(m).terms) for m in range(N + 1)]
            for wexp in w_less:
                parts = [(mi_add(u, wexp), terms) for u, terms in partials if terms]
                for mono in z_monos_d:
                    generators.append({
                        column(mi_add(m, mono), exp): cf
                        for exp, terms in parts for m, cf in terms.items()
                    })
        self._reducer = SpanReducer(QQ, len(index), generators)

    def contains(self, form: HomogPoly) -> bool:
        vec = {}
        for mono, coeff in form.terms.items():
            idx = self._row_index.get(mono)
            if idx is None:
                return False
            vec[idx] = coeff
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
    differentials of I's equations in its graded piece. `numerators` comes
    from `tilde_cocycle`, and `reducer` from `glue_reducer_for` with the same
    I and P."""
    za = _lift(HomogPoly.variable(sys.ambient_N + 1, chart_a, sys.r))
    zb = _lift(HomogPoly.variable(sys.ambient_N + 1, chart_b, sys.r))
    diff = numerators[chart_a] * zb - numerators[chart_b] * za
    return diff.is_zero() or reducer.contains(diff)


# ---------------------------------------------------------------------------
# affine symmetric forms


def affine_form(minor: HomogPoly) -> AffinePoly:
    """The chart-0 minor of `letter_minors` at Z_0 = 1, dZ_0 = 0: the N x N
    determinant of b- and beta-rows in (z, xi), z_q = Z_q/Z_0, of degree n in
    xi. Its terms share one Z-degree, so dropping Z_0 merges none. A
    numerator Q only multiplies it, so where it vanishes every Q-multiple
    vanishes too."""
    n = minor.nvars // 2
    return AffinePoly(
        2 * (n - 1),
        {m[1:n] + m[n + 1 :]: c for m, c in minor.terms.items() if not m[n]},
    )


# ---------------------------------------------------------------------------
# base-locus scanner


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


def _common_zeros(polys, field):
    """The points of F_p^N at which all the N-variable polynomials vanish,
    in lexicographic order. Coordinates are substituted one at a time, with
    coefficients reduced mod p and a table of powers, so a prefix of the
    point is substituted once for all the points that extend it."""
    p = field.p
    N = polys[0].nvars
    top = max((max(m) for f in polys for m in f.terms), default=0)
    powers = [[pow(x, k, p) for k in range(top + 1)] for x in range(p)]

    def walk(prefix, level):
        # level: per polynomial, {exponents of the later coordinates: residue}
        if len(prefix) == N - 1:
            for x, pw in enumerate(powers):
                if not any(sum(c * pw[m[0]] for m, c in f.items()) % p for f in level):
                    yield prefix + (x,)
            return
        for x, pw in enumerate(powers):
            nxt = []
            for f in level:
                g = {}
                for m, c in f.items():
                    tail = m[1:]
                    g[tail] = (g.get(tail, 0) + c * pw[m[0]]) % p
                nxt.append(g)
            yield from walk(prefix + (x,), nxt)

    start = [{m: field.normalize(c) for m, c in f.terms.items()} for f in polys]
    return walk((), start)


# jet directions enumerated per point before sampling, nonzero points
# whose structured determinants are spot-checked, and affine points a scan
# may enumerate
XI_LIMIT = 10_000
SPOT_CHECKS = 50
SCAN_CAP = 10_000_000


def base_locus_scan(
    sys: FermatSystem,
    a: int,
    p: int,
    seed: int,
    chart: int = 0,
) -> dict:
    """Enumerate jet points of the intersection in the chart Z_chart = 1 over
    F_p and classify them by the rank criterion. Points outside the
    tautological vanishing locus W whose forms all vanish are the candidate
    exceptional set, emitted for fixture freezing; nothing about its size is
    asserted. The twist `a` must leave a numerator degree, or no form of that
    twist exists. Returns the report that `baselocus` prints."""
    if sys.max_p_degree(a) < 0:
        raise FermatError(f"twist a={a} leaves no numerator degree")
    field = PrimeField(p)
    N = sys.ambient_N
    if p**N > SCAN_CAP:
        raise FermatError(f"p^N = {p**N} exceeds cap {SCAN_CAP}")
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

    for z in _common_zeros(eqs, field):
        ci_points += 1
        rows = [[df.evaluate(z, field) for df in row] for row in jacobian]
        tangent = kernel_basis(SparseMatrix.from_rows(field, rows))
        # B and its rank depend on the point z alone
        B = build_B(grid, z, field)
        rkB = rank(SparseMatrix.from_rows(field, B))
        for xi in _projective_points(field, tangent.vectors, N, XI_LIMIT, rng):
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
                if spot_done < SPOT_CHECKS:
                    spot_done += 1
                    if not any(structured_nonsingular(B, Bp)):
                        spot_fail += 1
    return {
        "p": p,
        "N": N,
        "c": sys.c,
        "epsilon": sys.epsilon,
        "e": sys.e,
        "seed": seed,
        "chart": chart,
        "counts": counts,
        "candidate_E": candidate,
        "ci_points": ci_points,
        "jet_points": jet_points,
        "w_vanishing": {"checked": w_checked, "failures": w_fail},
        "nonzero_spot": {"checked": spot_done, "failures": spot_fail},
        "hypothesis_warning": warning,
    }


# ---------------------------------------------------------------------------
# genericity probes


# the probes' prime and the shapes of claims (i), (ii) and (iii): (n, p, q),
# (N, epsilon, e) and (n, c, M)
PROBE_PRIME = 31
RANK_SHAPE = (3, 4, 5)
CLAIM_SHAPE = (4, 1, 9)
KJ_SHAPE = (2, 2, 5)


def genericity_probes(trials: int, seed: int) -> dict:
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
    p = PROBE_PRIME
    field = PrimeField(p)
    rng = SplitMix64(seed)
    n_, p_, q_ = RANK_SHAPE
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

    N, eps, e = CLAIM_SHAPE
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
            [beta.evaluate((*z, *xi), field) for _, beta in pairs],
        )

    for _ in range(trials):
        z = [rng.randint(1, p - 1) for _ in range(N)]
        xi = [rng.randint(1, p - 1) for _ in range(N)]
        for q in range(1, N + 1):
            brow, berow = functional_rows(z, xi, q)
            if rank(SparseMatrix.from_rows(field, [brow, berow])) != 2:
                drop_ii += 1

    _, ck, Mk = KJ_SHAPE
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
        "rank_product": {"shape": list(RANK_SHAPE), "degeneracies": drop_i},
        "letter_independence": {
            "shape": {"N": N, "epsilon": eps, "e": e, "dim_coeff_space": M},
            "degeneracies": drop_ii,
        },
        "structured_rank": {"shape": list(KJ_SHAPE), "degeneracies": drop_iii},
        "w_negative_control_degenerate": w_degenerate,
    }
