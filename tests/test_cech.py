from fractions import Fraction

import pytest

from cotci import cech
from cotci.cech import (
    BasisCapExceeded,
    CohomClass,
    CohomSpace,
    apply_contraction,
    apply_dpoly,
    apply_poly,
    basis_enumerate,
    euler_contraction_matrix,
    mul_dpoly_matrix,
    mul_poly_matrix,
)
from cotci.exactalg import rank
from cotci.poly import HomogPoly, random_homog
from cotci.rng import SplitMix64


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


def test_basis_cap():
    with pytest.raises(BasisCapExceeded):
        basis_enumerate(CohomSpace(4, (), -40), cap=10)


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
    space = cm.source
    idx = cech.basis_index(space)
    tgt = cech.basis_index(cm.target)
    for el in basis_enumerate(space):
        out = act(CohomClass(space, {el: 1}))
        assert out.space == cm.target
        vec = cm.matrix.mul_vec({idx[el]: 1})
        assert vec == {tgt[e]: c for e, c in out.coeffs.items()}


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


def test_contraction_matrix_matches_class_application():
    space = CohomSpace(2, (2, 1), -3)
    for factor in (1, 2):
        assert_matrix_matches_class_action(
            euler_contraction_matrix(space, factor), lambda cls: apply_contraction(cls, factor)
        )


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
    tgt = cech.basis_index(cm.target)
    el = ((0, 1, 0), (2, 1, 1))  # dZ1 / (Z0^2 Z1 Z2)
    vec = cm.matrix.mul_vec({src[el]: 1})
    assert vec == {tgt[((1, 1, 0), (1, 1, 1))]: 2}
    el2 = ((0, 1, 0), (1, 2, 1))  # truncates: Z0 exponent drops to 0
    assert cm.matrix.mul_vec({src[el2]: 1}) == {}


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
        assert r == cm.target.dim()
        assert space.dim() - r == space.dim() - cm.target.dim()


def test_mul_composition_is_product():
    rng = SplitMix64(321)
    space = CohomSpace(2, (), -7)
    f = random_homog(rng, 3, 2)
    g = random_homog(rng, 3, 1)
    first = mul_poly_matrix(space, f)
    second = mul_poly_matrix(first.target, g)
    direct = mul_poly_matrix(space, g * f)
    src = cech.basis_index(space)
    for el in basis_enumerate(space):
        v = {src[el]: 1}
        assert second.matrix.mul_vec(first.matrix.mul_vec(v)) == direct.matrix.mul_vec(v)


def test_dpoly_factors_commute():
    rng = SplitMix64(654)
    space = CohomSpace(2, (1, 1), -4)
    f = random_homog(rng, 3, 2)
    g = random_homog(rng, 3, 3)
    a1 = mul_dpoly_matrix(space, f, 1)
    a2 = mul_dpoly_matrix(a1.target, g, 2)
    b1 = mul_dpoly_matrix(space, g, 2)
    b2 = mul_dpoly_matrix(b1.target, f, 1)
    assert a2.target == b2.target
    src = cech.basis_index(space)
    for el in basis_enumerate(space):
        v = {src[el]: 1}
        assert a2.matrix.mul_vec(a1.matrix.mul_vec(v)) == b2.matrix.mul_vec(b1.matrix.mul_vec(v))


def test_truncation_order_independent():
    space = CohomSpace(2, (), -5)
    z0 = HomogPoly.variable(3, 0)
    z1 = HomogPoly.variable(3, 1)
    one_step = mul_poly_matrix(space, z0 * z1)
    a = mul_poly_matrix(space, z0)
    b = mul_poly_matrix(a.target, z1)
    src = cech.basis_index(space)
    for el in basis_enumerate(space):
        v = {src[el]: 1}
        assert b.matrix.mul_vec(a.matrix.mul_vec(v)) == one_step.matrix.mul_vec(v)


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
