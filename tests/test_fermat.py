import itertools
from fractions import Fraction

import pytest

from cotci import fermat
from cotci.exactalg import QQ, PrimeField, SparseMatrix, rank
from cotci.fermat import (
    FermatError,
    FermatSystem,
    _common_zeros,
    _lift,
    affine_form,
    base_locus_scan,
    build_B,
    build_Bprime,
    form_determinant,
    genericity_probes,
    glue_reducer_for,
    letter_grid,
    letter_minors,
    letters,
    random_fermat_system,
    tilde_cocycle,
    vanishes_on_pair,
    verify_glue,
    verify_kernel_membership,
)
from cotci.ci_engine import plane_curve_descent
from cotci.poly import AffinePoly, HomogPoly
from cotci.rng import SplitMix64
from test_poly import constant


def constant_system(N, c, e, rows):
    grid = tuple(
        tuple(constant(HomogPoly, N + 1, v) for v in row) for row in rows
    )
    return FermatSystem(N, c, 0, e, grid)


CRIT6 = dict(N=4, c=2, epsilon=1, e=9, seed=20260811)


def crit6_system():
    return random_fermat_system(CRIT6["N"], CRIT6["c"], CRIT6["epsilon"], CRIT6["e"], CRIT6["seed"])


def chart_numerators(sys_, I, P):
    return tilde_cocycle(sys_, letter_minors(sys_, I), P)


def jet_form(sys_, I):
    return affine_form(letter_minors(sys_, I)[0])


def cleared_difference(sys_, numerators, a, b):
    za = _lift(HomogPoly.variable(sys_.ambient_N + 1, a, sys_.r))
    zb = _lift(HomogPoly.variable(sys_.ambient_N + 1, b, sys_.r))
    return numerators[a] * zb - numerators[b] * za


def split_form(form):
    """{exponent of the differentials: coefficient polynomial} of a form in
    (Z, dZ) or (z, xi), the first half of each monomial being the
    coefficient's."""
    n = form.nvars // 2
    parts = {}
    for mono, c in form.terms.items():
        parts.setdefault(mono[n:], {})[mono[:n]] = c
    return {exp: type(form)(n, terms) for exp, terms in parts.items()}


def test_letters_examples():
    one = constant(HomogPoly, 3, 1)
    a, al = letters(one, 1, 4)
    assert a == HomogPoly.variable(3, 1)
    # 4 dZ_1
    assert al == HomogPoly(6, {(0, 0, 0, 0, 1, 0): 4})
    z0 = HomogPoly.variable(3, 0)
    _, al = letters(z0, 1, 4)
    # Z_1 dZ_0 + 4 Z_0 dZ_1
    assert al == HomogPoly(6, {(0, 1, 0, 1, 0, 0): 1, (1, 0, 0, 0, 1, 0): 4})
    assert split_form(al) == {
        (1, 0, 0): HomogPoly.variable(3, 1),
        (0, 1, 0): z0.scaled(4),
    }


def test_affine_letters_example():
    one = constant(AffinePoly, 2, 1)
    b, be = letters(one, 0, 5)
    assert b == AffinePoly.variable(2, 0)
    # 5 xi_1
    assert be == AffinePoly(4, {(0, 0, 1, 0): 5})


def test_build_B_zero_column_and_rank():
    sys_ = random_fermat_system(3, 2, 1, 5, seed=4)
    grid = letter_grid(sys_)
    z = [0, 2, 3]
    B = build_B(grid, z, QQ)
    assert all(row[0] == 0 for row in B)  # z_1 = 0 kills column 1
    zgen = [Fraction(2), Fraction(3), Fraction(5)]
    m = SparseMatrix.from_rows(QQ, build_B(grid, zgen, QQ))
    assert rank(m) == 2
    with pytest.raises(FermatError):
        build_Bprime(grid, zgen, [0, 0, 0], QQ)


def test_equation_expansion():
    sys_ = constant_system(2, 1, 4, [[2, 3, 5]])
    F = sys_.equation(1)
    assert F.terms == {(4, 0, 0): 2, (0, 4, 0): 3, (0, 0, 4): 5}


def test_tilde_cocycle_repeated_rows_vanish():
    rows = [[1, 2, 3, 4], [1, 2, 3, 4]]
    grid = tuple(tuple(constant(HomogPoly, 4, v) for v in row) for row in rows)
    sys_ = FermatSystem(3, 2, 0, 5, grid)
    assert all(num.is_zero() for num in chart_numerators(sys_, (1,), constant(HomogPoly, 4, 1)))


def test_tilde_cocycle_zero_numerator():
    sys_ = crit6_system()
    assert all(num.is_zero() for num in chart_numerators(sys_, (1, 2), HomogPoly.zero(5)))


def test_tilde_cocycle_plane_curve_specialization():
    # epsilon = 0, N = 2, c = 1: the determinantal cocycle equals
    # e^3 * s0 * s1 * s2 times the residue-descent vertex cocycle, the same
    # constant (with matching signs) in every chart. Frozen normalization.
    s = (2, 3, 5)
    e = 4
    sys_ = constant_system(2, 1, e, [list(s)])
    F = sys_.equation(1)
    P = HomogPoly.variable(3, 0)
    descent = plane_curve_descent(F, P)
    const = e**3 * s[0] * s[1] * s[2]
    partial_coeffs = {i: e * s[i] for i in range(3)}  # F_i = e s_i Z_i^{e-1}
    for chart, det in enumerate(chart_numerators(sys_, (1,), P)):
        sign = descent["chart_cocycles"][str(chart)]["sign"]
        vertex_form = descent["chart_cocycles"][str(chart)]["form"]
        # descent vertex: sign * (P/(e F_chart)) * sum coeff dZ_m; clearing
        # F_chart = e s Z^r, both sides live over Z_chart^r
        for exp, poly in split_form(det).items():
            m = exp.index(1)
            want_text = vertex_form.get(f"dZ{m}")
            assert want_text is not None
            from cotci.poly import parse_poly

            want = parse_poly(want_text, nvars=3)
            lhs = poly.scaled(e * partial_coeffs[chart])
            rhs = want.scaled(sign * const)
            assert lhs == rhs


def test_kernel_membership_criterion_instance():
    sys_ = crit6_system()
    assert verify_kernel_membership(sys_, (1, 2), constant(HomogPoly, 5, 1), 0)


def test_kernel_membership_negative_control():
    sys_ = crit6_system()
    # membership of the symmetric residue class is coefficient-independent
    # (every product monomial truncates), so the honest negative control is
    # a class with a skewed denominator profile that lets a product survive
    from cotci import cech
    from cotci.cech import CohomClass, CohomSpace

    space = CohomSpace(4, (0,), -4 * sys_.e0)
    bad_I = (12, 8, 8, 8, 4)
    cls = CohomClass(space, {((0,) * 5, bad_I): 1})
    assert not cech.apply_poly(cls, sys_.equation(1)).is_zero()
    assert not cech.apply_dpoly(cls, sys_.equation(1), 1).is_zero()


def test_kernel_membership_epsilon_zero_matches_witness():
    from cotci import lambdacalc as lam
    from cotci.ci_engine import nonvanishing_witness
    from cotci.poly import vandermonde_coeff_rows

    rows = vandermonde_coeff_rows(4, 2)
    sys_ = constant_system(4, 2, 5, rows)
    P = constant(HomogPoly, 5, 1)
    assert verify_kernel_membership(sys_, (1, 2), P, 0)
    setting = lam.LambdaSetting(4, (5, 5), ((), (), (2,)))
    res = nonvanishing_witness(setting, 0, P)
    assert res.nonzero
    # identical residue class in both constructions
    (el,) = res.cls.coeffs
    assert el[-1] == (4, 4, 4, 4, 4)


def test_glue_plane_curve_and_corrupted_sign():
    s = (2, 3, 5)
    sys_ = constant_system(2, 1, 4, [list(s)])
    P = HomogPoly.variable(3, 0)
    nums = chart_numerators(sys_, (1,), P)
    red = glue_reducer_for(sys_, (1,), P)
    for a, b in itertools.combinations(range(3), 2):
        assert verify_glue(sys_, nums, a, b, red)
    # corrupting the relative sign must break the gluing
    za = _lift(HomogPoly.variable(3, 0, sys_.r))
    zb = _lift(HomogPoly.variable(3, 1, sys_.r))
    bad = nums[0] * zb + nums[1] * za
    assert not red.contains(bad)


def test_glue_small_codim_two():
    sys_ = random_fermat_system(3, 2, 0, 4, seed=11)
    P = constant(HomogPoly, 4, 1)  # max degree at a=0 is e-N-1 = 0
    nums = chart_numerators(sys_, (1,), P)
    red = glue_reducer_for(sys_, (1,), P)
    for a, b in itertools.combinations(range(4), 2):
        assert verify_glue(sys_, nums, a, b, red)


def test_glue_difference_is_nonzero_before_reduction():
    sys_ = crit6_system()
    nums = chart_numerators(sys_, (1, 2), constant(HomogPoly, 5, 1))
    assert not cleared_difference(sys_, nums, 0, 1).is_zero()


@pytest.mark.parametrize(
    "sys_, I, P",
    [
        (crit6_system(), (1, 2), constant(HomogPoly, 5, 1)),
        (crit6_system(), (2, 1), constant(HomogPoly, 5, 1)),
        (random_fermat_system(3, 2, 0, 5, seed=11), (1,), HomogPoly.variable(4, 2)),
        (constant_system(2, 1, 4, [[2, 3, 5]]), (1,), HomogPoly.variable(3, 0)),
    ],
    ids=["crit6", "crit6-swapped", "N3-deg1", "plane-curve"],
)
def test_glue_reducer_degree_matches_every_difference(sys_, I, P):
    # glue_reducer_for reads its graded piece off the degree formula; every
    # nonzero cleared difference must live in exactly that piece
    deg = sys_.r + P.degree + sys_.c * (sys_.epsilon + 1) + sys_.n * sys_.epsilon
    nums = chart_numerators(sys_, I, P)
    red = glue_reducer_for(sys_, I, P)
    nonzero = 0
    for a, b in itertools.combinations(range(sys_.ambient_N + 1), 2):
        diff = cleared_difference(sys_, nums, a, b)
        assert all(sum(exp) == sys_.n for exp in split_form(diff))
        assert {poly.degree for poly in split_form(diff).values()} <= {deg}
        nonzero += not diff.is_zero()
        assert verify_glue(sys_, nums, a, b, red)
    assert nonzero > 0


def test_affine_form_w_vanishing_symbolic():
    sys_ = crit6_system()
    form = jet_form(sys_, (1, 2))
    assert {sum(xi_exp) for xi_exp in split_form(form)} == {2}
    assert not form.is_zero()
    for i in range(1, 5):
        assert vanishes_on_pair(form, i)


@pytest.mark.parametrize(
    "sys_, I",
    [
        (random_fermat_system(3, 2, 0, 5, seed=11), (1,)),
        (random_fermat_system(4, 3, 0, 6, seed=5), (3,)),
    ],
    ids=["N3", "N4-c3"],
)
def test_affine_form_is_nonzero_and_vanishes_on_every_pair(sys_, I):
    # the W-vanishing check tests the determinant itself, so it cannot pass
    # vacuously on a zero form
    form = jet_form(sys_, I)
    assert not form.is_zero()
    for i in range(1, sys_.ambient_N + 1):
        assert vanishes_on_pair(form, i)


@pytest.mark.parametrize("N", [1, 3, 4])
def test_vanishes_on_pair_needs_z_i_or_xi_i_in_every_term(N):
    # a jet form in (z_1..z_N, xi_1..xi_N): position i - 1 holds z_i and
    # position N + i - 1 holds xi_i
    def form(*monos):
        return AffinePoly(2 * N, {m: 1 for m in monos})

    def mono(i, z=False, xi=False, others=False):
        # z_i and xi_i as asked; with `others`, every variable of the other pairs
        zs = tuple(int(z if k == i else others) for k in range(1, N + 1))
        xis = tuple(int(xi if k == i else others) for k in range(1, N + 1))
        return zs + xis

    for i in range(1, N + 1):
        # every term carries z_i or xi_i: the form vanishes on the pair
        assert vanishes_on_pair(form(mono(i, z=True)), i)
        assert vanishes_on_pair(form(mono(i, xi=True)), i)
        assert vanishes_on_pair(form(mono(i, z=True), mono(i, xi=True, others=True)), i)
        # a term free of both z_i and xi_i, even one holding every other
        # variable, keeps it from vanishing
        assert not vanishes_on_pair(form(mono(i)), i)
        assert not vanishes_on_pair(form(mono(i, others=True)), i)
        assert not vanishes_on_pair(form(mono(i, z=True), mono(i, others=True)), i)
        assert not vanishes_on_pair(form(mono(i, xi=True), mono(i, others=True)), i)
    assert vanishes_on_pair(AffinePoly(2 * N, {}), 1)


def test_affine_form_alternating():
    sys_ = crit6_system()
    f12 = jet_form(sys_, (1, 2))
    f21 = jet_form(sys_, (2, 1))
    assert f21 == f12.scaled(-1)
    # a repeated index corresponds to a repeated determinant row: zero
    grid = letter_grid(sys_, 0)
    rows = [[_lift(b) for b, _ in line] for line in grid]
    beta_row = [beta for _, beta in grid[0]]
    rows.append(beta_row)
    rows.append(beta_row)
    assert form_determinant(rows).is_zero()


# (N, c, epsilon, e, seed) and both orders of an index tuple I
MINOR_CASES = [
    ((3, 2, 1, 8, 3), (1,), (2,)),
    ((4, 2, 1, 10, 20260811), (1, 2), (2, 1)),
    ((5, 3, 0, 7, 1), (1, 3), (3, 1)),
]


def _letter_rows(sys_, I):
    # the homogeneous letter grid over all N+1 columns, written out again
    grid = [[letters(v, i, sys_.e) for i, v in enumerate(row)] for row in sys_.s]
    return [[_lift(a) for a, _ in line] for line in grid] + [
        [al for _, al in grid[j - 1]] for j in I
    ]


@pytest.mark.parametrize(
    "params, I",
    [(params, I) for params, *orders in MINOR_CASES for I in orders],
    ids=lambda v: ",".join(map(str, v)),
)
def test_shared_memo_numerators_match_separate_determinants(params, I):
    # every chart numerator is (-1)^k P times the grid's determinant without
    # column k, whichever minors were expanded before it
    sys_ = random_fermat_system(*params)
    N = sys_.ambient_N
    P = HomogPoly.variable(N + 1, 1, sys_.max_p_degree(0))
    rows = _letter_rows(sys_, I)
    nums = chart_numerators(sys_, I, P)
    assert len(nums) == N + 1
    for k, num in enumerate(nums):
        det = form_determinant([[r[i] for i in range(N + 1) if i != k] for r in rows])
        assert not det.is_zero()
        assert num == (det * _lift(P)).scaled((-1) ** k)


@pytest.mark.parametrize("epsilon", [0, 1])
@pytest.mark.parametrize(
    "params, I",
    [(params, I) for params, *orders in MINOR_CASES for I in orders],
    ids=lambda v: ",".join(map(str, v)),
)
def test_jet_form_is_the_chart_0_letter_grid_determinant(params, I, epsilon):
    # the chart-0 minor at Z_0 = 1, dZ_0 = 0 is the N x N determinant of the
    # b- and beta-rows of the chart-0 jet coordinates, expanded directly here
    N, c, _, e, seed = params
    sys_ = random_fermat_system(N, c, epsilon, e, seed)
    grid = letter_grid(sys_, 0)
    rows = [[_lift(b) for b, _ in line] for line in grid]
    rows += [[beta for _, beta in grid[j - 1]] for j in I]
    form = jet_form(sys_, I)
    assert form.nvars == 2 * N and not form.is_zero()
    assert form == form_determinant(rows)


def _b(u, q, z, field):
    # b_q(u) = z_q u(z), written out independently of `letters`
    return field.normalize(z[q] * u.evaluate(z, field))


def _beta(u, q, z, xi, e, field):
    # beta_q(u) = z_q du(xi) + e u(z) xi_q, written out independently of `letters`
    du = sum(u.partial_derivative(m).evaluate(z, field) * x for m, x in enumerate(xi))
    return field.normalize(z[q] * du + e * u.evaluate(z, field) * xi[q])


def test_affine_form_matches_numeric_determinant():
    sys_ = random_fermat_system(3, 2, 1, 6, seed=9)
    form = jet_form(sys_, (1,))
    grid = letter_grid(sys_)
    t = [[v.dehomogenize(0) for v in row[1:]] for row in sys_.s]  # chart 0: columns 1..N
    rng = SplitMix64(55)
    for field in (QQ, PrimeField(101)):
        for _ in range(5):
            z = [field.normalize(rng.randint(1, 19)) for _ in range(3)]
            xi = [field.normalize(rng.randint(1, 19)) for _ in range(3)]
            B = [[_b(u, q, z, field) for q, u in enumerate(row)] for row in t]
            Bp = [[_beta(u, q, z, xi, sys_.e, field) for q, u in enumerate(row)] for row in t]
            assert build_B(grid, z, field) == B
            assert build_Bprime(grid, z, xi, field) == Bp
            det = _plain_det(B + [Bp[0]], field)
            assert form.evaluate((*z, *xi), field) == det


def _plain_det(rows, field):
    n = len(rows)
    if n == 1:
        return field.normalize(rows[0][0])
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * _plain_det(minor, field)
    return field.normalize(total)


def test_scan_small_instance():
    sys_ = random_fermat_system(3, 2, 1, 7, seed=21)
    rep = base_locus_scan(sys_, 0, 5, seed=21)
    assert rep["w_vanishing"]["failures"] == 0
    assert rep["nonzero_spot"]["failures"] == 0
    counts = rep["counts"]
    assert (
        counts["in_w"] + counts["rank_drop_b"] + counts["criterion_zero"] + counts["nonzero"]
        == rep["jet_points"]
    )
    assert len(rep["candidate_E"]) == counts["rank_drop_b"] + counts["criterion_zero"]


def _swap_columns(sys_, k):
    """The system with Z_0 and Z_k exchanged: coefficient columns 0 and k
    swapped, and Z_0, Z_k swapped inside every coefficient."""

    def swap(seq):
        out = list(seq)
        out[0], out[k] = out[k], out[0]
        return tuple(out)

    def swapped(f):
        return HomogPoly(f.nvars, {swap(m): c for m, c in f.terms.items()}, f.degree)

    grid = tuple(tuple(swapped(f) for f in swap(row)) for row in sys_.s)
    return FermatSystem(sys_.ambient_N, sys_.c, sys_.epsilon, sys_.e, grid)


@pytest.mark.parametrize("chart", [1, 2, 3, 4])
def test_scan_chart_matches_chart_zero_of_swapped_system(chart):
    # chart k of a system is chart 0 of the system with Z_0 and Z_k exchanged,
    # up to the order of the affine coordinates, which no count depends on
    # (every xi is enumerated, none sampled)
    sys_ = random_fermat_system(4, 2, 1, 9, seed=7)
    rep = base_locus_scan(sys_, 0, 5, seed=7, chart=chart)
    ref = base_locus_scan(_swap_columns(sys_, chart), 0, 5, seed=7)
    assert rep["jet_points"] == ref["jet_points"] > 0
    assert rep["counts"] == ref["counts"]


def test_scan_degenerate_equal_rows():
    # two identical coefficient rows force rank B <= 1 everywhere
    rng_sys = random_fermat_system(3, 2, 1, 7, seed=33)
    grid = (rng_sys.s[0], rng_sys.s[0])
    sys_ = FermatSystem(3, 2, 1, 7, grid)
    rep = base_locus_scan(sys_, 0, 5, seed=33)
    assert rep["counts"]["criterion_zero"] == 0
    assert rep["counts"]["nonzero"] == 0
    assert rep["counts"]["rank_drop_b"] > 0


@pytest.mark.parametrize("N,p", [(1, 7), (2, 5), (3, 3), (4, 3)])
def test_common_zeros_match_pointwise_evaluation(N, p):
    # the scanner's complete-intersection test, substituted coordinate by
    # coordinate, against evaluating every polynomial at every point
    rng = SplitMix64(60 + N)
    polys = []
    for _ in range(2):
        terms = {
            tuple(rng.randint(0, 4) for _ in range(N)): rng.nonzero_coeff() for _ in range(6)
        }
        polys.append(AffinePoly(N, terms))
    # a Fraction coefficient, a polynomial divisible by p and the zero polynomial
    polys.append(polys[0] * AffinePoly(N, {(0,) * N: Fraction(1, 2)}) + polys[1])
    polys.append(polys[0].scaled(p))
    field = PrimeField(p)
    for chosen in ([polys[0]], polys[:2], polys[2:], [AffinePoly(N, {})]):
        expected = [
            z for z in itertools.product(range(p), repeat=N)
            if not any(f.evaluate(z, field) for f in chosen)
        ]
        assert list(_common_zeros(chosen, field)) == expected
    assert list(_common_zeros([polys[1].scaled(p)], field)) == list(
        itertools.product(range(p), repeat=N)
    )


def test_scan_cap_and_warning(monkeypatch):
    sys_ = random_fermat_system(3, 2, 1, 7, seed=21)
    with monkeypatch.context() as m, pytest.raises(FermatError, match="exceeds cap 10"):
        m.setattr(fermat, "SCAN_CAP", 10)
        base_locus_scan(sys_, 0, 5, seed=0)
    weak = random_fermat_system(4, 1, 1, 9, seed=5)
    rep = base_locus_scan(weak, 0, 3, seed=5)
    assert rep["hypothesis_warning"]  # c below the recommended bound


def test_fp_qq_classification_coherence():
    # integral points classify identically over Q and mod a large prime
    sys_ = random_fermat_system(3, 2, 1, 6, seed=13)
    grid = letter_grid(sys_)
    big = PrimeField(10007)
    rng = SplitMix64(77)
    for _ in range(10):
        z = [rng.randint(1, 9) for _ in range(3)]
        xi = [rng.randint(1, 9) for _ in range(3)]
        Bq = SparseMatrix.from_rows(QQ, build_B(grid, z, QQ))
        Bp = SparseMatrix.from_rows(big, build_B(grid, z, big))
        assert rank(Bq) == rank(Bp)
        Sq = SparseMatrix.from_rows(QQ, build_B(grid, z, QQ) + build_Bprime(grid, z, xi, QQ))
        Sp = SparseMatrix.from_rows(
            big, build_B(grid, z, big) + build_Bprime(grid, z, xi, big)
        )
        assert rank(Sq) == rank(Sp)


def test_probes_quick():
    rep = genericity_probes(100, seed=2)
    assert rep["rank_product"]["degeneracies"] == 0
    assert rep["letter_independence"]["degeneracies"] == 0
    assert rep["structured_rank"]["degeneracies"] == 0
    assert rep["w_negative_control_degenerate"] is True


def test_system_validation():
    with pytest.raises(FermatError):
        FermatSystem(3, 3, 0, 2, tuple())
    with pytest.raises(FermatError):
        random_fermat_system(3, 2, 1, 5, seed=1).equation(0) and FermatSystem(
            3, 2, 1, 0, random_fermat_system(3, 2, 1, 5, seed=1).s
        )
    sys_ = random_fermat_system(3, 2, 1, 5, seed=1)
    with pytest.raises(FermatError, match="length n = 1"):
        letter_minors(sys_, (1, 1))
    with pytest.raises(FermatError, match="exceeds the bound"):
        tilde_cocycle(sys_, letter_minors(sys_, (1,)), constant(HomogPoly, 4, 1))
