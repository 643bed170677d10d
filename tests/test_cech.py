from fractions import Fraction

import pytest

from cotci import cech
from cotci.cech import (
    BasisCapExceeded,
    CohomClass,
    CohomSpace,
    apply_dpoly,
    apply_poly,
    basis_enumerate,
    euler_contraction_matrix,
    euler_contraction_rule,
    mul_dpoly_matrix,
    mul_poly_matrix,
)
from cotci.exactalg import QQ, SparseMatrix, rank
from cotci.poly import HomogPoly, compositions, parse_poly
from cotci.rng import SplitMix64
from test_poly import random_homog


def apply_contraction(cls, factor):
    """The Euler contraction of one tensor factor on a single class."""
    return euler_contraction_rule(cls.space, factor).act(cls)


def mul_vec(matrix, vec):
    """matrix times one sparse column vector over Q, entry by entry."""
    out = {}
    for (r, c), v in matrix.entries.items():
        if c in vec:
            out[r] = out.get(r, 0) + v * vec[c]
    return {r: v for r, v in out.items() if v}


def fermat(nvars, e):
    return HomogPoly(nvars, {tuple(e if j == i else 0 for j in range(nvars)): 1 for i in range(nvars)})


def test_dim_examples():
    assert CohomSpace(2, (), -6).dim() == 10
    assert CohomSpace(2, (1,), -4).dim() == 18
    assert CohomSpace(4, (), -20).dim() == 3876


def test_dim_vanishes_below_threshold():
    assert CohomSpace(3, (), -3).dim() == 0
    assert CohomSpace(3, (2,), 0).dim() == 0
    assert not CohomSpace(3, (2,), -2).is_zero()


def test_basis_singletons():
    assert basis_enumerate(CohomSpace(1, (), -2)) == [((1, 1),)]
    assert basis_enumerate(CohomSpace(2, (), -3)) == [((1, 1, 1),)]


def test_basis_counts_random():
    rng = SplitMix64(2024)
    done = 0
    while done < 50:
        N = rng.randint(1, 4)
        k = rng.randint(0, 2)
        ells = tuple(rng.randint(0, 3) for _ in range(k))
        a = -rng.randint(N + 1, N + 6) + sum(ells)
        space = CohomSpace(N, ells, a)
        if space.dim() > 4000:
            continue
        done += 1
        assert len(basis_enumerate(space)) == space.dim()


def test_basis_index_is_mixed_radix():
    # the order the shift tables rely on: J_1 outermost, ..., J_k, then I, so
    # an index is combo(J_1..J_k) * n_I + idx(I) with combo a mixed radix
    rng = SplitMix64(1717)
    for k in range(4):
        done = 0
        while done < 4:
            N = rng.randint(1, 3)
            ells = tuple(rng.randint(0, 2) for _ in range(k))
            space = CohomSpace(N, ells, sum(ells) - rng.randint(N + 1, N + 4))
            if not 0 < space.dim() <= 1500:
                continue
            done += 1
            factor_lists = [compositions(l, N + 1) for l in ells]
            dens = compositions(space.denominator_weight - (N + 1), N + 1)
            dens = [tuple(v + 1 for v in I) for I in dens]
            for el, i in cech.basis_index(space).items():
                combo = 0
                for J, js in zip(el[:-1], factor_lists):
                    combo = combo * len(js) + js.index(J)
                assert i == combo * len(dens) + dens.index(el[-1])


def test_basis_cap(monkeypatch):
    monkeypatch.setenv("COTCI_CAP", "10")
    with pytest.raises(BasisCapExceeded):
        basis_enumerate(CohomSpace(4, (), -40))


def test_mul_single_rules():
    space = CohomSpace(2, (), -6)
    z0 = HomogPoly.variable(3, 0)
    cls = CohomClass(space, {((2, 2, 2),): 1})
    out = apply_poly(cls, z0)
    assert out.coeffs == {((1, 2, 2),): 1}
    cls2 = CohomClass(space, {((1, 2, 3),): 1})
    assert apply_poly(cls2, z0).is_zero()


def assert_matrix_matches_class_action(cm, act):
    # column j of the matrix is the class action on basis element j
    space = cm.rule.source
    idx = cech.basis_index(space)
    tgt = cech.basis_index(cm.rule.target)
    cols = cm.matrix.col_lists()
    for el in basis_enumerate(space):
        out = act(CohomClass(space, {el: 1}))
        assert out.space == cm.rule.target
        assert dict(cols.get(idx[el], ())) == {tgt[e]: c for e, c in out.coeffs.items()}


def test_mul_matrix_matches_class_application():
    space = CohomSpace(2, (), -6)
    f = fermat(3, 2)
    assert_matrix_matches_class_action(
        mul_poly_matrix(space, f), lambda cls: apply_poly(cls, f)
    )
    g = random_homog(SplitMix64(17), 3, 2)
    g = g + HomogPoly(3, {(1, 1, 0): Fraction(1, 2)})  # a non-integral coefficient
    assert_matrix_matches_class_action(
        mul_poly_matrix(space, g), lambda cls: apply_poly(cls, g)
    )


def test_dpoly_matrix_matches_class_application():
    rng = SplitMix64(88)
    space = CohomSpace(2, (1, 2), -3)
    f = random_homog(rng, 3, 3)
    for factor in (1, 2):
        assert_matrix_matches_class_action(
            mul_dpoly_matrix(space, f, factor), lambda cls: apply_dpoly(cls, f, factor)
        )


def test_dpoly_matrix_of_a_degree_0_factor_has_one_entry_per_row():
    # the term a_m Z_m^{e-1} dZ_m of df is the only one that appends dZ_m to
    # an empty factor, and it reaches a target element from one source only
    f = HomogPoly(4, {tuple(5 if j == i else 0 for j in range(4)): i + 2 for i in range(4)})
    for space, factor in ((CohomSpace(3, (0,), -9), 1), (CohomSpace(3, (2, 0), -8), 2)):
        m = mul_dpoly_matrix(space, f, factor).matrix
        rows = [r for r, _ in m.entries]
        assert m.nnz() > 0 and len(set(rows)) == len(rows)


def test_contraction_matrix_matches_class_application():
    space = CohomSpace(2, (2, 1), -3)
    for factor in (1, 2):
        assert_matrix_matches_class_action(
            euler_contraction_matrix(space, factor), lambda cls: apply_contraction(cls, factor)
        )


def _rule_built_maps():
    """(map, class action) pairs over multi-factor spaces, from seeded
    polynomials with mixed supports and one non-integral coefficient."""
    rng = SplitMix64(4242)
    out = []
    for space in (CohomSpace(2, (1, 2), -4), CohomSpace(3, (2, 1), -5)):
        nvars = space.ambient_N + 1
        for degree in (1, 2, 3):
            f = random_homog(rng, nvars, degree)
            if degree == 2:
                f = f + HomogPoly.variable(nvars, 0, 2).scaled(Fraction(3, 4))
            out.append((mul_poly_matrix(space, f), lambda cls, f=f: apply_poly(cls, f)))
            for factor in range(1, space.k + 1):
                out.append((
                    mul_dpoly_matrix(space, f, factor),
                    lambda cls, f=f, factor=factor: apply_dpoly(cls, f, factor),
                ))
        for factor in range(1, space.k + 1):
            out.append((
                euler_contraction_matrix(space, factor),
                lambda cls, factor=factor: apply_contraction(cls, factor),
            ))
    return out


def test_mixed_support_matrices_match_class_action():
    for cm, act in _rule_built_maps():
        assert_matrix_matches_class_action(cm, act)


def test_middle_factor_of_three_matches_class_action():
    # factor 2 of 3: both the outer and the inner radix of the pull-back are > 1
    space = CohomSpace(2, (1, 2, 1), -2)
    f = random_homog(SplitMix64(31), 3, 2) + HomogPoly.variable(3, 1, 2).scaled(Fraction(1, 3))
    assert_matrix_matches_class_action(
        mul_dpoly_matrix(space, f, 2), lambda cls: apply_dpoly(cls, f, 2)
    )
    assert_matrix_matches_class_action(
        euler_contraction_matrix(space, 2), lambda cls: apply_contraction(cls, 2)
    )


def test_shift_tables_increase_in_row_and_column():
    # a shift sends distinct elements to distinct targets in the same order
    cech._basis_cache.clear()
    _rule_built_maps()
    space = CohomSpace(2, (1, 2, 1), -2)
    f = random_homog(SplitMix64(32), 3, 3)
    for factor in (1, 2, 3):
        mul_dpoly_matrix(space, f, factor)
        euler_contraction_matrix(space, factor)
    tables = [v for k, v in cech._basis_cache.items() if isinstance(k, tuple) and k[0] == "shift"]
    assert len(tables) > 50
    for keys, mults in tables:
        for a, b in zip(keys, keys[1:]):
            assert a[0] < b[0] and a[1] < b[1]
        assert mults is None or len(mults) == len(keys)


def test_rule_built_matrices_pass_the_checked_constructor_unchanged():
    # the invariant `SparseMatrix._adopt` relies on: normalized nonzero values
    # at in-range keys, so the checked constructor changes nothing, not even
    # a value's type or the entry order
    for cm, _ in _rule_built_maps():
        m = cm.matrix
        checked = SparseMatrix(QQ, m.nrows, m.ncols, m.entries)
        assert [(k, v, type(v)) for k, v in checked.entries.items()] == [
            (k, v, type(v)) for k, v in m.entries.items()
        ]


def test_shift_tables_carry_no_coefficient():
    # two polynomials on one support with different coefficients share every
    # shift table, and each still assembles to its matrix from an empty cache
    space = CohomSpace(3, (1,), -6)
    f = random_homog(SplitMix64(77), 4, 3)
    g = HomogPoly(4, {M: Fraction(c * c + 1, 2) for M, c in f.terms.items()})
    builders = {
        "mulF": lambda h: mul_poly_matrix(space, h),
        "muldF": lambda h: mul_dpoly_matrix(space, h, 1),
    }
    fresh = {}
    for name, build in builders.items():
        for h in (f, g):
            cech._basis_cache.clear()
            fresh[name, h] = build(h).matrix.entries
        assert fresh[name, f] != fresh[name, g]
    for order in ((f, g), (g, f)):
        cech._basis_cache.clear()
        for name, build in builders.items():
            tables = []
            for h in order:
                assert build(h).matrix.entries == fresh[name, h]
                tables.append(
                    {k for k in cech._basis_cache if isinstance(k, tuple) and k[0] == "shift"}
                )
            assert tables[0] == tables[1]


def test_euler_formula_matrix_identity():
    # multiplication by F agrees with (1/deg) sum of multiplications by Z_i dF/dZ_i
    space = CohomSpace(2, (), -9)
    F = fermat(3, 4)
    lhs = mul_poly_matrix(space, F).matrix
    acc = {}
    for i in range(3):
        zi_fi = HomogPoly.variable(3, i) * F.partial_derivative(i)
        for key, v in mul_poly_matrix(space, zi_fi).matrix.entries.items():
            acc[key] = acc.get(key, 0) + Fraction(v, 4)
    acc = {k: v for k, v in acc.items() if v}
    assert acc == {k: Fraction(v) for k, v in lhs.entries.items()}


def test_mul_dpoly_single_rules():
    space = CohomSpace(2, (1,), -3)
    f = HomogPoly.variable(3, 0, 2)  # dF = 2 Z0 dZ0
    cm = mul_dpoly_matrix(space, f, 1)
    src = cech.basis_index(space)
    tgt = cech.basis_index(cm.rule.target)
    el = ((0, 1, 0), (2, 1, 1))  # dZ1 / (Z0^2 Z1 Z2)
    vec = mul_vec(cm.matrix, {src[el]: 1})
    assert vec == {tgt[((1, 1, 0), (1, 1, 1))]: 2}
    el2 = ((0, 1, 0), (1, 2, 1))  # truncates: Z0 exponent drops to 0
    assert mul_vec(cm.matrix, {src[el2]: 1}) == {}


def test_plane_curve_class_in_dF_kernel():
    # the residue class P/(Z0 Z1 Z2)^{e-1} of the diagonal curve is killed by dF
    for e in (3, 4, 5):
        F = fermat(3, e)
        space = CohomSpace(2, (0,), -2 * e)
        zeroJ = (0, 0, 0)
        for P_exp in ([0, 0, 0], [max(e - 3, 0), 0, 0]):
            if sum(P_exp) != e - 3:
                continue
            I = tuple(e - 1 - x for x in P_exp)
            cls = CohomClass(space, {(zeroJ, I): 1})
            assert apply_dpoly(cls, F, 1).is_zero()
            assert apply_poly(cls, F).is_zero()


def test_contraction_rules():
    space = CohomSpace(2, (1,), -3)
    cls = CohomClass(space, {((1, 0, 0), (2, 1, 1)): 1})  # dZ0/(Z0^2 Z1 Z2)
    out = apply_contraction(cls, 1)
    assert out.coeffs == {((0, 0, 0), (1, 1, 1)): 1}
    cls2 = CohomClass(space, {((1, 0, 0), (1, 2, 1)): 1})
    assert apply_contraction(cls2, 1).is_zero()
    # dZ0^2 dZ1/(Z0^2 Z1^2 Z2): each dZ_i counts with its exponent J_i
    space3 = CohomSpace(2, (3,), -2)
    cls3 = CohomClass(space3, {((2, 1, 0), (2, 2, 1)): 1})
    assert apply_contraction(cls3, 1).coeffs == {
        ((1, 1, 0), (1, 2, 1)): 2,
        ((2, 0, 0), (2, 1, 1)): 1,
    }
    cm = euler_contraction_matrix(space3, 1)
    col = cech.basis_index(space3)[((2, 1, 0), (2, 2, 1))]
    row = cech.basis_index(cm.rule.target)[((1, 1, 0), (1, 2, 1))]
    assert cm.matrix.entries[(row, col)] == 2


def test_contraction_surjective_rank():
    rng = SplitMix64(606)
    done = 0
    while done < 12:
        N = rng.randint(1, 3)
        k = rng.randint(1, 2)
        ells = tuple(rng.randint(1, 3) for _ in range(k))
        a = sum(ells) - rng.randint(N + 1, N + 5)
        space = CohomSpace(N, ells, a)
        if not 0 < space.dim() <= 1200:
            continue
        done += 1
        cm = euler_contraction_matrix(space, 1)
        r = rank(cm.matrix)
        assert r == cm.rule.target.dim()
        assert space.dim() - r == space.dim() - cm.rule.target.dim()


def test_mul_composition_is_product():
    rng = SplitMix64(321)
    space = CohomSpace(2, (), -7)
    f = random_homog(rng, 3, 2)
    g = random_homog(rng, 3, 1)
    first = mul_poly_matrix(space, f)
    second = mul_poly_matrix(first.rule.target, g)
    direct = mul_poly_matrix(space, g * f)
    src = cech.basis_index(space)
    for el in basis_enumerate(space):
        v = {src[el]: 1}
        assert mul_vec(second.matrix, mul_vec(first.matrix, v)) == mul_vec(direct.matrix, v)


def test_dpoly_factors_commute():
    rng = SplitMix64(654)
    space = CohomSpace(2, (1, 1), -4)
    f = random_homog(rng, 3, 2)
    g = random_homog(rng, 3, 3)
    a1 = mul_dpoly_matrix(space, f, 1)
    a2 = mul_dpoly_matrix(a1.rule.target, g, 2)
    b1 = mul_dpoly_matrix(space, g, 2)
    b2 = mul_dpoly_matrix(b1.rule.target, f, 1)
    assert a2.rule.target == b2.rule.target
    src = cech.basis_index(space)
    for el in basis_enumerate(space):
        v = {src[el]: 1}
        via_a = mul_vec(a2.matrix, mul_vec(a1.matrix, v))
        assert via_a == mul_vec(b2.matrix, mul_vec(b1.matrix, v))


def test_truncation_order_independent():
    space = CohomSpace(2, (), -5)
    z0 = HomogPoly.variable(3, 0)
    z1 = HomogPoly.variable(3, 1)
    one_step = mul_poly_matrix(space, z0 * z1)
    a = mul_poly_matrix(space, z0)
    b = mul_poly_matrix(a.rule.target, z1)
    src = cech.basis_index(space)
    for el in basis_enumerate(space):
        v = {src[el]: 1}
        assert mul_vec(b.matrix, mul_vec(a.matrix, v)) == mul_vec(one_step.matrix, v)


def test_class_serialization_deterministic():
    space = CohomSpace(2, (1,), -3)
    cls = CohomClass(
        space,
        {((1, 0, 0), (2, 1, 1)): Fraction(3, 2), ((0, 1, 0), (1, 2, 1)): -1},
    )
    rows = cls.to_rows()
    assert rows == cls.to_rows()
    assert all(set(r) == {"factors", "denominator", "coefficient"} for r in rows)
    assert "dZ" in cls.to_text()


def test_class_validation():
    space = CohomSpace(2, (1,), -3)
    with pytest.raises(ValueError):
        CohomClass(space, {((1, 0, 0), (1, 1, 1)): 1})  # wrong denominator weight
    with pytest.raises(ValueError):
        CohomClass(space, {((2, 0, 0), (2, 1, 1)): 1})  # wrong factor weight


@pytest.mark.parametrize("degrees", [(0,), (2,), (1, 1), (2, 1)], ids=str)
def test_residue_class_matches_polynomial_expansion(degrees):
    # P * prod_f (Z0 dZ1 - Z1 dZ0)^{l_f} multiplied out as a polynomial in
    # the Z's and one set of dZ's per factor; its term Z^M dZ^{J_1}..dZ^{J_k}
    # is the class of dZ^{J_1}..dZ^{J_k} / Z^{r - M}, or 0 when an exponent
    # of r - M is below 1 (Z3^3 and, on a positive factor, Z0^2*Z1 truncate);
    # only an odd total degree tells the sign (-1)^(l-t) from (-1)^t
    N, r = 3, 3
    P = parse_poly("2*Z0^2*Z1 - Z1*Z2*Z3 + 5*Z3^3", nvars=N + 1)
    n, k = N + 1, len(degrees)
    nvars = n * (1 + k)
    expansion = HomogPoly(nvars, {M + (0,) * (n * k): c for M, c in P.terms.items()})
    z0, z1 = HomogPoly.variable(nvars, 0), HomogPoly.variable(nvars, 1)
    for f, l in enumerate(degrees):
        dz0, dz1 = (HomogPoly.variable(nvars, n * (1 + f) + m) for m in (0, 1))
        for _ in range(l):
            expansion = expansion * (z0 * dz1 - z1 * dz0)
    expected, truncated = {}, 0
    for mono, c in expansion.terms.items():
        I = tuple(r - m for m in mono[:n])
        if min(I) < 1:
            truncated += 1
            continue
        Js = tuple(mono[n * (1 + f) : n * (2 + f)] for f in range(k))
        expected[(*Js, I)] = c
    space = CohomSpace(N, degrees, 2 * sum(degrees) - n * r + P.degree)
    assert expected and truncated
    assert cech.residue_class(space, P, r).coeffs == expected
