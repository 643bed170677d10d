from dataclasses import replace
from fractions import Fraction

import pytest

from cotci import cech, ci_engine, lambdacalc as lam
from cotci.cech import BasisCapExceeded, CohomSpace
from cotci.ci_engine import (
    CompleteIntersectionInput,
    EngineError,
    NonSimpleSettingError,
    WitnessMembershipError,
    euler_constraints,
    euler_image,
    expected_euler_image_dim,
    fermat_ci,
    intersect_constraint_kernels,
    jacobian_spot_check,
    jump_dimension,
    jump_experiment,
    nonvanishing_witness,
    omega_cohomology,
    plane_curve_descent,
    simplify_and_bound,
    tilde_cohomology,
    verify_result,
)
from cotci.exactalg import QQ, SubspaceBasis
from cotci.poly import HomogPoly, deformed_fermat_pair, fermat_generic_system, parse_poly


def diagonal_curve(e):
    return HomogPoly(3, {(e, 0, 0): 1, (0, e, 0): 1, (0, 0, e): 1})


def mixed_degree_ci(N, degrees, rows):
    eqs = [fermat_generic_system(N, 1, d, [rows[j]])[0] for j, d in enumerate(degrees)]
    return CompleteIntersectionInput(N, eqs)


def test_plane_curve_genus():
    for e in (3, 4, 5):
        ci = CompleteIntersectionInput(2, [diagonal_curve(e)])
        setting = lam.LambdaSetting(2, (e,), ((), (1,)))
        res = tilde_cohomology(ci, setting, 0)
        assert res.dim == (e - 1) * (e - 2) // 2
        assert res.q == 0
        assert verify_result(res)


def test_verify_result_rejects_vector_outside_a_kernel():
    ci = CompleteIntersectionInput(2, [diagonal_curve(4)])
    setting = lam.LambdaSetting(2, (4,), ((), (1,)))
    res = tilde_cohomology(ci, setting, 0)
    assert verify_result(res)
    *others, last = [cm.matrix for cm in res.constraints]
    n = res.subspace.ambient_dim
    # a coordinate only the last constraint rejects, so the check must reach it
    j = next(
        j for j in range(n)
        if last.mul_vec({j: 1}) and not any(m.mul_vec({j: 1}) for m in others)
    )
    good = res.subspace.vectors
    bad = dict(good[0])
    bad[j] = bad.get(j, 0) + 1
    broken = replace(res, subspace=SubspaceBasis(res.subspace.field, n, good[1:] + [bad]))
    assert not verify_result(broken)


def test_result_json_shape():
    ci = CompleteIntersectionInput(2, [diagonal_curve(4)])
    setting = lam.LambdaSetting(2, (4,), ((), (1,)))
    res = tilde_cohomology(ci, setting, 0)
    d = res.to_json_dict(include_basis=True)
    assert d["dim"] == 3 and d["ambient_dim"] == 21
    assert {c["kind"] for c in d["constraints"]} == {"mulF", "muldF"}
    assert len(d["basis"]) == 3
    assert "smoothness" in d["notes"]


def test_ci_curve_structure_sheaf_tower():
    # h^1 of the structure sheaf is the genus; exact for every twist on
    # a pure restriction tower
    rows = [[1, 1, 1, 1], [1, 2, 4, 8]]
    for degrees, genus in (((2, 3), 4), ((2, 2), 1)):
        ci = mixed_degree_ci(3, degrees, rows)
        setting = lam.LambdaSetting(3, degrees, ((), (), ()))
        res = tilde_cohomology(ci, setting, 0)
        assert res.q == 1
        assert res.dim == genus


def test_tilde_rejects_invalid_inputs():
    ci = CompleteIntersectionInput(2, [diagonal_curve(4)])
    with pytest.raises(NonSimpleSettingError):
        tilde_cohomology(ci, lam.LambdaSetting(2, (4,), ((), (0,))), 0)
    with pytest.raises(EngineError):
        # mismatched degrees
        tilde_cohomology(ci, lam.LambdaSetting(2, (5,), ((), (1,))), 0)
    with pytest.raises(EngineError):
        # twist at the excluded bound for a setting with exponents
        tilde_cohomology(ci, lam.LambdaSetting(2, (4,), ((), (1,))), 1)


def test_euler_image_single_factor():
    # one factor: the image dimension is source minus target (contraction is
    # surjective at top cohomology)
    for ell, m in ((1, -4), (2, -5)):
        space = CohomSpace(2, (ell,), m)
        img = euler_image(space)
        down = CohomSpace(2, (ell - 1,), m)
        assert img.dim == space.dim() - down.dim()
        assert img.dim == expected_euler_image_dim(space)


def test_euler_image_two_factors_cross_check():
    for N, m in ((2, -4), (2, -6), (3, -4)):
        space = CohomSpace(N, (1, 1), m)
        img = euler_image(space)  # raises on cross-check mismatch
        assert img.dim == expected_euler_image_dim(space)


def test_euler_image_rejects_zero_factor():
    with pytest.raises(EngineError):
        euler_image(CohomSpace(2, (0, 1), -4))


def test_omega_family_origin_and_generic():
    avec = (0, 1, 2, 3, 4)
    F, G = deformed_fermat_pair(5, (0, 0), (0, 0), avec)
    ci = CompleteIntersectionInput(4, [F, G])
    res0 = omega_cohomology(ci, (2,), 0)
    assert res0.q == 0
    assert res0.dim == 1
    F, G = deformed_fermat_pair(
        5, (Fraction(1), Fraction(2)), (Fraction(3), Fraction(5)), avec
    )
    ci = CompleteIntersectionInput(4, [F, G])
    assert omega_cohomology(ci, (2,), 0).dim == 0


def test_omega_equals_tilde_for_trivial_limit_factors():
    # when every limit factor is S^0 the Euler image is the whole model, so
    # the cotangent and tilde answers coincide (the classical curve argument)
    ci = CompleteIntersectionInput(2, [diagonal_curve(4)])
    om = omega_cohomology(ci, (1,), -1)
    setting = lam.LambdaSetting(2, (4,), ((), (1,)))
    ti = tilde_cohomology(ci, setting, -1)
    assert om.dim == ti.dim
    assert om.q == 0


def test_omega_boundary_twist_runs():
    # maximal allowed twist a = sum(l) - k - 1 on a small instance
    ci = fermat_ci(3, 1, 4)
    res = omega_cohomology(ci, (2,), 0)  # a = 0 < 2 - 1 = 1, the boundary is 0
    assert res.dim >= 0 and res.q == 1
    with pytest.raises(EngineError):
        omega_cohomology(ci, (2,), 1)


def test_omega_validation():
    ci = fermat_ci(4, 2, 5)
    with pytest.raises(EngineError):
        omega_cohomology(ci, (1,), 0)  # l < c
    with pytest.raises(EngineError):
        omega_cohomology(ci, (2, 2), 0)  # q = 2 - 4 < 0


def test_witness_theorem_b_instance():
    setting = lam.LambdaSetting(4, (5, 5), ((), (), (2,)))
    res = nonvanishing_witness(setting, 0, HomogPoly.constant(5, 1))
    assert res.nonzero and res.constraints_checked == 4
    assert list(res.cls.coeffs) == [
        ((0, 0, 0, 0, 0), (4, 4, 4, 4, 4)),
    ]


def test_witness_hypersurface_instance():
    setting = lam.LambdaSetting(3, (5,), ((), (1, 1)))
    res = nonvanishing_witness(setting, -1, HomogPoly.constant(4, 1))
    assert res.nonzero


def test_witness_zero_numerator_degenerate():
    setting = lam.LambdaSetting(4, (5, 5), ((), (), (2,)))
    res = nonvanishing_witness(setting, 0, HomogPoly.zero(5))
    assert res.degenerate and not res.nonzero and res.cls.is_zero()


def test_witness_degree_validation():
    setting = lam.LambdaSetting(4, (5, 5), ((), (), (2,)))
    with pytest.raises(EngineError):
        nonvanishing_witness(setting, 0, HomogPoly.variable(5, 0))


def test_simplify_already_simple():
    ci = CompleteIntersectionInput(2, [diagonal_curve(4)])
    setting = lam.LambdaSetting(2, (4,), ((), (1,)))
    bound = simplify_and_bound(ci, setting, 0)
    assert bound.setting == setting
    assert bound.lower_bound == 3


def test_simplify_nonsimple_chain():
    rows = [[1, 1, 1, 1], [1, 2, 4, 8]]
    ci = mixed_degree_ci(3, (2, 3), rows)
    setting = lam.LambdaSetting(3, (2, 3), ((), (), (1,)))
    bound = simplify_and_bound(ci, setting, 0)
    assert bound.setting == lam.LambdaSetting(3, (2, 3), ((), (1,), ()))
    assert all(s.q() == setting.q() for s in bound.chain)
    # frozen regression: the simple lower bound is 0 here (the one
    # holomorphic-form count of the curve itself is out of this bound's reach)
    assert bound.lower_bound == 0


def test_simplify_spec_p4_example():
    ci = fermat_ci(4, 2, 5)
    setting = lam.LambdaSetting(4, (5, 5), ((), (), (1,)))
    bound = simplify_and_bound(ci, setting, 0)
    assert bound.result.q == 1
    assert bound.lower_bound >= 0


def test_descent_fermat_quartic():
    d = plane_curve_descent(diagonal_curve(4), parse_poly("Z0", nvars=3))
    assert d.euler_identity and d.descent_top_identity and d.descent_pair_identity
    first, second = d.chart0_pair
    assert (first.sign, first.denominator, first.form) == (-1, "f1", "dz2")
    assert (second.sign, second.denominator, second.form) == (1, "f2", "dz1")
    assert first.numerator.to_text() == "1"  # Q = dehomogenization of Z0


def test_descent_cubic_unique_form():
    d = plane_curve_descent(diagonal_curve(3), HomogPoly.constant(3, 1))
    assert d.descent_pair_identity
    ci = CompleteIntersectionInput(2, [diagonal_curve(3)])
    res = tilde_cohomology(ci, lam.LambdaSetting(2, (3,), ((), (1,))), 0)
    assert res.dim == 1


def test_descent_validation():
    with pytest.raises(EngineError):
        plane_curve_descent(diagonal_curve(4), HomogPoly.constant(3, 1))  # deg P
    with pytest.raises(EngineError):
        plane_curve_descent(HomogPoly.variable(3, 0, 2), HomogPoly.zero(3))


def test_jump_origin_and_semicontinuity():
    d0, cert = jump_dimension(5, (0, 0), (0, 0))
    assert d0 == 1
    assert all(c["kind"] == "mulF" for c in cert)
    d1, _ = jump_dimension(5, (Fraction(1), Fraction(1)), (Fraction(2), Fraction(3)))
    assert d1 == 0
    assert d0 >= d1


def test_jump_experiment_report():
    rep = jump_experiment(5, trials=1, seed=42)
    assert rep["dim_at_origin"] == 1
    assert rep["dims_at_random_parameters"] == [0]
    assert rep["degenerate_case"]["dim"] >= 0
    assert rep["e"] == 5 and rep["seed"] == 42
    with pytest.raises(EngineError):
        jump_experiment(4, 1, 0)


def test_monotonicity_of_constraints():
    from cotci.cech import mul_poly_matrix
    from cotci.ci_engine import intersect_constraint_kernels

    F, G = deformed_fermat_pair(5, (0, 0), (0, 0), (0, 1, 2, 3, 4))
    space = CohomSpace(4, (), -20)
    m1 = mul_poly_matrix(space, F.partial_derivative(0))
    m2 = mul_poly_matrix(space, G.partial_derivative(1))
    only1, _ = intersect_constraint_kernels([m1])
    both, _ = intersect_constraint_kernels([m1, m2])
    assert both.dim <= only1.dim


# (label, rank, applied_on_dim) of jump_dimension(5, (-8, -8), (-9, -9)), as
# computed when every map was restricted and eliminated; every map is a
# multiplication H^4(P^4, O(-20)) (dim 3876) -> H^4(P^4, O(-16)) (dim 1365),
# and the ninth leaves nothing for the tenth
JUMP_CERTIFICATE = [
    ("*(5*Z0^4 - 16*Z0*Z1^3)", 1365, 3876),
    ("*(-18*Z0*Z1^3)", 870, 2511),
    ("*(-24*Z0^2*Z1^2 + 5*Z1^4)", 430, 1641),
    ("*(-27*Z0^2*Z1^2 + 5*Z1^4)", 78, 1211),
    ("*(5*Z2^4 - 16*Z2*Z3^3)", 591, 1133),
    ("*(10*Z2^4 - 18*Z2*Z3^3)", 291, 542),
    ("*(-24*Z2^2*Z3^2 + 5*Z3^4)", 119, 251),
    ("*(-27*Z2^2*Z3^2 + 15*Z3^4)", 11, 132),
    ("*(5*Z4^4)", 121, 121),
    ("*(20*Z4^4)", 0, 0),
]


def count_eliminations(monkeypatch):
    calls = []
    for name in ("apply_to_basis", "kernel_basis"):
        real = getattr(ci_engine, name)

        def counting(*args, _name=name, _real=real):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(ci_engine, name, counting)
    return calls


def test_jump_certificate_ends_with_a_map_applied_on_dim_0(monkeypatch):
    calls = count_eliminations(monkeypatch)
    d, cert = jump_dimension(5, (-8, -8), (-9, -9))
    assert d == 0
    assert [(c["label"], c["rank"], c["applied_on_dim"]) for c in cert] == JUMP_CERTIFICATE
    assert all(
        (c["kind"], c["source_dim"], c["target_dim"]) == ("mulF", 3876, 1365) for c in cert
    )
    # the running dimension is 0 after the ninth map: the tenth is recorded,
    # not restricted or eliminated
    assert calls.count("kernel_basis") == 9
    assert calls.count("apply_to_basis") == 8


def test_zero_start_basis_eliminates_nothing(monkeypatch):
    calls = count_eliminations(monkeypatch)
    space = CohomSpace(2, (2, 1), -3)
    basis, cert = intersect_constraint_kernels(
        euler_constraints(space), start_basis=SubspaceBasis(QQ, space.dim(), [])
    )
    assert basis.dim == 0 and basis.ambient_dim == space.dim()
    assert [(c["kind"], c["rank"], c["applied_on_dim"]) for c in cert] == [
        ("contraction", 0, 0), ("contraction", 0, 0)
    ]
    zero_space = CohomSpace(2, (2, 1), 3)  # denominator weight 0: dim 0
    basis, cert = intersect_constraint_kernels(euler_constraints(zero_space))
    assert basis.dim == 0 and [c["applied_on_dim"] for c in cert] == [0, 0]
    assert calls == []


def test_witness_checks_rules_without_building_matrices(monkeypatch):
    def no_matrix(*args, **kwargs):
        raise AssertionError("the witness check must not build a matrix")

    monkeypatch.setattr(cech, "mul_poly_matrix", no_matrix)
    monkeypatch.setattr(cech, "mul_dpoly_matrix", no_matrix)
    setting = lam.LambdaSetting(4, (5, 5), ((), (), (2,)))
    res = nonvanishing_witness(setting, 0, HomogPoly.constant(5, 1))
    assert res.nonzero and res.constraints_checked == 4
    # an action that keeps the class makes the first constraint reject it
    monkeypatch.setattr(cech.MapRule, "act", lambda rule, cls: cls)
    with pytest.raises(WitnessMembershipError, match=r"under mulF \*\("):
        nonvanishing_witness(setting, 0, HomogPoly.constant(5, 1))


def test_witness_checks_the_cap():
    setting = lam.LambdaSetting(4, (5, 5), ((), (), (2,)))
    with pytest.raises(BasisCapExceeded, match="exceeds cap 10"):
        nonvanishing_witness(setting, 0, HomogPoly.constant(5, 1), cap=10)


def test_order_invariance():
    rows = [[1, 1, 1, 1], [1, 2, 4, 8]]
    a = mixed_degree_ci(3, (2, 3), rows)
    b = CompleteIntersectionInput(3, list(reversed(a.equations)))
    sa = lam.LambdaSetting(3, (2, 3), ((), (), ()))
    sb = lam.LambdaSetting(3, (3, 2), ((), (), ()))
    assert tilde_cohomology(a, sa, 0).dim == tilde_cohomology(b, sb, 0).dim
    from cotci.poly import vandermonde_coeff_rows

    r = vandermonde_coeff_rows(4, 2)
    d1 = omega_cohomology(fermat_ci(4, 2, 5, r), (2,), 0).dim
    d2 = omega_cohomology(fermat_ci(4, 2, 5, [r[1], r[0]]), (2,), 0).dim
    assert d1 == d2 == 1


def test_jacobian_spot_check_smoke():
    ci = fermat_ci(2, 1, 3)
    rep = jacobian_spot_check(ci, prime=11, seed=3, samples=5)
    assert rep["rank_drops"] == []
    assert rep["points_on_chart"] >= 1
