import itertools
from fractions import Fraction

import pytest

from cotci.exactalg import QQ, PrimeField, SparseMatrix, rank
from cotci.fermat import (
    FermatError,
    FermatSystem,
    TensorForm,
    affine_form,
    base_locus_scan,
    build_B,
    build_Bprime,
    form_determinant,
    genericity_probes,
    glue_reducer_for,
    letter_grid,
    letters,
    random_fermat_system,
    tilde_cocycle,
    verify_glue,
    verify_kernel_membership,
)
from cotci.ci_engine import plane_curve_descent
from cotci.poly import AffinePoly, HomogPoly
from cotci.rng import SplitMix64


def constant_system(N, c, e, rows):
    grid = tuple(
        tuple(HomogPoly.constant(N + 1, v) for v in row) for row in rows
    )
    return FermatSystem(N, c, 0, e, grid)


CRIT6 = dict(N=4, c=2, epsilon=1, e=9, seed=20260811)


def crit6_system():
    return random_fermat_system(CRIT6["N"], CRIT6["c"], CRIT6["epsilon"], CRIT6["e"], CRIT6["seed"])


def chart_numerators(sys_, I, P):
    return [tilde_cocycle(sys_, I, P, chart) for chart in range(sys_.ambient_N + 1)]


def cleared_difference(sys_, numerators, a, b):
    za = HomogPoly.variable(sys_.ambient_N + 1, a, sys_.r)
    zb = HomogPoly.variable(sys_.ambient_N + 1, b, sys_.r)
    return numerators[a].poly_scaled(zb) - numerators[b].poly_scaled(za)


def test_letters_examples():
    one = HomogPoly.constant(3, 1)
    a, al = letters(one, 1, 4)
    assert a == HomogPoly.variable(3, 1)
    assert al.terms == {(0, 1, 0): HomogPoly.constant(3, 4)}
    z0 = HomogPoly.variable(3, 0)
    _, al = letters(z0, 1, 4)
    assert al.terms == {
        (1, 0, 0): HomogPoly.variable(3, 1),
        (0, 1, 0): z0.scaled(4),
    }


def test_affine_letters_example():
    one = AffinePoly.constant(2, 1)
    b, be = letters(one, 0, 5)
    assert b == AffinePoly.variable(2, 0)
    assert be.terms == {(1, 0): AffinePoly.constant(2, 5)}


def test_build_B_zero_column_and_rank():
    sys_ = random_fermat_system(3, 2, 1, 5, seed=4)
    grid = letter_grid(sys_)
    z = [0, 2, 3]
    B = build_B(grid, z)
    assert all(row[0] == 0 for row in B)  # z_1 = 0 kills column 1
    zgen = [Fraction(2), Fraction(3), Fraction(5)]
    m = SparseMatrix.from_rows(QQ, build_B(grid, zgen))
    assert rank(m) == 2
    with pytest.raises(FermatError):
        build_Bprime(grid, zgen, [0, 0, 0])


def test_equation_expansion():
    sys_ = constant_system(2, 1, 4, [[2, 3, 5]])
    F = sys_.equation(1)
    assert F.terms == {(4, 0, 0): 2, (0, 4, 0): 3, (0, 0, 4): 5}


def test_tilde_cocycle_repeated_rows_vanish():
    rows = [[1, 2, 3, 4], [1, 2, 3, 4]]
    grid = tuple(tuple(HomogPoly.constant(4, v) for v in row) for row in rows)
    sys_ = FermatSystem(3, 2, 0, 5, grid)
    assert tilde_cocycle(sys_, (1,), HomogPoly.constant(4, 1), 0).is_zero()


def test_tilde_cocycle_zero_numerator():
    sys_ = crit6_system()
    assert tilde_cocycle(sys_, (1, 2), HomogPoly.zero(5), 0).is_zero()


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
    for chart in range(3):
        det = tilde_cocycle(sys_, (1,), P, chart)
        sign = descent.chart_cocycles[chart]["sign"]
        vertex_form = descent.chart_cocycles[chart]["form"]
        # descent vertex: sign * (P/(e F_chart)) * sum coeff dZ_m; clearing
        # F_chart = e s Z^r, both sides live over Z_chart^r
        for exp, poly in det.terms.items():
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
    assert verify_kernel_membership(sys_, (1, 2), HomogPoly.constant(5, 1), 0)


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
    P = HomogPoly.constant(5, 1)
    assert verify_kernel_membership(sys_, (1, 2), P, 0)
    setting = lam.LambdaSetting(4, (5, 5), ((), (), (2,)))
    res = nonvanishing_witness(setting, 0, P, coeff_rows=rows)
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
    za = HomogPoly.variable(3, 0, sys_.r)
    zb = HomogPoly.variable(3, 1, sys_.r)
    bad = nums[0].poly_scaled(zb) + nums[1].poly_scaled(za)
    assert not red.contains(bad)


def test_glue_small_codim_two():
    sys_ = random_fermat_system(3, 2, 0, 4, seed=11)
    P = HomogPoly.constant(4, 1)  # max degree at a=0 is e-N-1 = 0
    nums = chart_numerators(sys_, (1,), P)
    red = glue_reducer_for(sys_, (1,), P)
    for a, b in itertools.combinations(range(4), 2):
        assert verify_glue(sys_, nums, a, b, red)


def test_glue_difference_is_nonzero_before_reduction():
    sys_ = crit6_system()
    nums = chart_numerators(sys_, (1, 2), HomogPoly.constant(5, 1))
    assert not cleared_difference(sys_, nums, 0, 1).is_zero()


@pytest.mark.parametrize(
    "sys_, I, P",
    [
        (crit6_system(), (1, 2), HomogPoly.constant(5, 1)),
        (crit6_system(), (2, 1), HomogPoly.constant(5, 1)),
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
        assert diff.weight == sys_.n
        assert {poly.degree for poly in diff.terms.values()} <= {deg}
        nonzero += not diff.is_zero()
        assert verify_glue(sys_, nums, a, b, red)
    assert nonzero > 0


def test_affine_form_w_vanishing_symbolic():
    sys_ = crit6_system()
    form = affine_form(sys_, (1, 2))
    assert form.weight == 2
    assert not form.is_zero()
    for i in range(1, 5):
        assert form.substitute_pair_zero(i).is_zero()


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
    form = affine_form(sys_, I)
    assert not form.is_zero()
    for i in range(1, sys_.ambient_N + 1):
        assert form.substitute_pair_zero(i).is_zero()


def test_affine_form_alternating():
    sys_ = crit6_system()
    f12 = affine_form(sys_, (1, 2))
    f21 = affine_form(sys_, (2, 1))
    assert f21 == f12.scaled(-1)
    # a repeated index corresponds to a repeated determinant row: zero
    t = sys_.dehom_coeffs(0)
    rows = []
    for j in (1, 2):
        rows.append(
            [TensorForm.scalar(4, letters(t[j - 1][q], q - 1, sys_.e)[0]) for q in range(1, 5)]
        )
    beta_row = [letters(t[0][q], q - 1, sys_.e)[1] for q in range(1, 5)]
    rows.append(beta_row)
    rows.append(beta_row)
    assert form_determinant(rows).is_zero()


def _b(u, q, z, field):
    # b_q(u) = z_q u(z), written out independently of `letters`
    return field.normalize(z[q] * u.evaluate(z, field))


def _beta(u, q, z, xi, e, field):
    # beta_q(u) = z_q du(xi) + e u(z) xi_q, written out independently of `letters`
    du = sum(u.partial_derivative(m).evaluate(z, field) * x for m, x in enumerate(xi))
    return field.normalize(z[q] * du + e * u.evaluate(z, field) * xi[q])


def test_affine_form_matches_numeric_determinant():
    sys_ = random_fermat_system(3, 2, 1, 6, seed=9)
    form = affine_form(sys_, (1,))
    grid = letter_grid(sys_)
    t = [row[1:] for row in sys_.dehom_coeffs(0)]  # chart 0: columns 1..N
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
            assert form.evaluate(z, xi, field) == det


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
    assert rep.w_vanishing_failures == 0
    assert rep.nonzero_spot_failures == 0
    assert rep.counts["in_w"] + rep.counts["rank_drop_b"] + rep.counts[
        "criterion_zero"
    ] + rep.counts["nonzero"] == rep.jet_points
    assert len(rep.candidate_E) == rep.counts["rank_drop_b"] + rep.counts["criterion_zero"]
    d = rep.to_json_dict()
    assert d["counts"] == rep.counts


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
    assert rep.jet_points == ref.jet_points > 0
    assert rep.counts == ref.counts


def test_scan_degenerate_equal_rows():
    # two identical coefficient rows force rank B <= 1 everywhere
    rng_sys = random_fermat_system(3, 2, 1, 7, seed=33)
    grid = (rng_sys.s[0], rng_sys.s[0])
    sys_ = FermatSystem(3, 2, 1, 7, grid)
    rep = base_locus_scan(sys_, 0, 5, seed=33)
    assert rep.counts["criterion_zero"] == 0
    assert rep.counts["nonzero"] == 0
    assert rep.counts["rank_drop_b"] > 0


def test_scan_cap_and_warning():
    sys_ = random_fermat_system(3, 2, 1, 7, seed=21)
    with pytest.raises(FermatError, match="exceeds cap 10"):
        base_locus_scan(sys_, 0, 5, seed=0, cap=10)
    weak = random_fermat_system(4, 1, 1, 9, seed=5)
    rep = base_locus_scan(weak, 0, 3, seed=5)
    assert rep.hypothesis_warning  # c below the recommended bound


def test_fp_qq_classification_coherence():
    # integral points classify identically over Q and mod a large prime
    sys_ = random_fermat_system(3, 2, 1, 6, seed=13)
    grid = letter_grid(sys_)
    big = PrimeField(10007)
    rng = SplitMix64(77)
    for _ in range(10):
        z = [rng.randint(1, 9) for _ in range(3)]
        xi = [rng.randint(1, 9) for _ in range(3)]
        Bq = SparseMatrix.from_rows(QQ, build_B(grid, z))
        Bp = SparseMatrix.from_rows(big, build_B(grid, z, big))
        assert rank(Bq) == rank(Bp)
        Sq = SparseMatrix.from_rows(QQ, build_B(grid, z) + build_Bprime(grid, z, xi))
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
    with pytest.raises(FermatError):
        tilde_cocycle(sys_, (1, 1), HomogPoly.constant(4, 1), 0)
    with pytest.raises(FermatError):
        tilde_cocycle(sys_, (1,), HomogPoly.constant(4, 1), 0)
