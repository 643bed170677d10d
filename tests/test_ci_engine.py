from dataclasses import replace
from fractions import Fraction
from math import gcd

import pytest

from cotci import cech, ci_engine, lambdacalc as lam
from cotci.cech import BasisCapExceeded, CohomClass, CohomSpace
from cotci.ci_engine import (
    CompleteIntersectionInput,
    EngineError,
    NonSimpleSettingError,
    VerificationError,
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
from cotci.exactalg import QQ, PrimeField, SubspaceBasis, _SPAN_PRIME, rref_vectors
from cotci.poly import HomogPoly, deformed_fermat_pair, fermat_generic_system, parse_poly
from test_poly import constant


def diagonal_curve(e):
    return HomogPoly(3, {(e, 0, 0): 1, (0, e, 0): 1, (0, 0, e): 1})


def mixed_degree_ci(N, degrees, rows):
    return CompleteIntersectionInput(N, fermat_generic_system(N, degrees, rows))


def test_plane_curve_genus():
    for e in (3, 4, 5):
        ci = CompleteIntersectionInput(2, [diagonal_curve(e)])
        setting = lam.LambdaSetting(2, (e,), ((), (1,)))
        res = tilde_cohomology(ci, setting, 0)
        assert res.dim == (e - 1) * (e - 2) // 2
        assert res.q == 0
        verify_result(res)  # returns without raising


def test_verify_result_rejects_vector_outside_a_kernel():
    ci = CompleteIntersectionInput(2, [diagonal_curve(4)])
    setting = lam.LambdaSetting(2, (4,), ((), (1,)))
    res = tilde_cohomology(ci, setting, 0)
    verify_result(res)  # returns without raising
    *others, last = res.constraints
    space = res.ambient_space
    elements = cech.basis_enumerate(space)
    n = res.subspace.ambient_dim

    def rejects(rule, j):
        return not rule.act(CohomClass(space, {elements[j]: 1})).is_zero()

    # a coordinate only the last rule's action rejects, so the check must reach it
    j = next(
        j for j in range(n) if rejects(last, j) and not any(rejects(r, j) for r in others)
    )
    good = res.subspace.vectors
    bad = dict(good[0])
    bad[j] = bad.get(j, 0) + 1
    broken = replace(res, subspace=SubspaceBasis(res.subspace.field, n, good[1:] + [bad]))
    with pytest.raises(VerificationError) as exc:
        verify_result(broken)
    assert str(exc.value) == (
        f"kernel basis of {space} has nonzero image under {last.kind} {last.label}"
    )


def test_recheck_proves_independence_over_qq_when_the_prime_drops_the_rank():
    space = CohomSpace(2, (), -4)  # 1/Z^I with I_i >= 1, |I| = 4: dim 3
    P = _SPAN_PRIME
    independent = SubspaceBasis(QQ, space.dim(), [{0: 1}, {1: P}])
    # mod P the second vector is 0, so the mod-P rank alone proves nothing
    assert len(rref_vectors(PrimeField(P), space.dim(), independent.vectors)) == 1
    ci_engine._recheck([], space, independent, "basis")  # returns without raising
    dependent = SubspaceBasis(QQ, space.dim(), [{0: 1, 1: 2}, {0: -3, 1: -6}])
    with pytest.raises(VerificationError, match="^basis has linearly dependent vectors$"):
        ci_engine._recheck([], space, dependent, "basis")


def test_verify_result_checks_rules_without_building_matrices(monkeypatch):
    res = omega_cohomology(CompleteIntersectionInput(2, [diagonal_curve(4)]), (2,), 0)
    assert res.dim == 6
    # a result keeps the rules that cut it out, not their matrices
    assert [type(r) for r in res.constraints] == [cech.MapRule] * 3
    assert {r.kind for r in res.constraints} == {"mulF", "muldF", "contraction"}

    def no_matrix(*args, **kwargs):
        raise AssertionError("the re-check must not build or apply a matrix")

    monkeypatch.setattr(cech.MapRule, "assemble", no_matrix)
    monkeypatch.setattr(ci_engine, "apply_to_basis", no_matrix)
    verify_result(res)  # returns without raising
    # an action that keeps the class makes the first rule reject the basis
    monkeypatch.setattr(cech.MapRule, "act", lambda rule, cls: cls)
    with pytest.raises(VerificationError, match=r"has nonzero image under mulF \*\("):
        verify_result(res)


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
    res = nonvanishing_witness(setting, 0, constant(HomogPoly, 5, 1))
    assert res.nonzero and res.constraints_checked == 4
    assert list(res.cls.coeffs) == [
        ((0, 0, 0, 0, 0), (4, 4, 4, 4, 4)),
    ]


def test_witness_hypersurface_instance():
    setting = lam.LambdaSetting(3, (5,), ((), (1, 1)))
    res = nonvanishing_witness(setting, -1, constant(HomogPoly, 4, 1))
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
    assert d["euler_identity"] and d["descent_top_identity"] and d["descent_pair_identity"]
    first, second = d["chart0_pair"]
    assert (first["sign"], first["denominator"], first["form"]) == (-1, "f1", "dz2")
    assert (second["sign"], second["denominator"], second["form"]) == (1, "f2", "dz1")
    assert first["numerator"] == "1"  # Q = dehomogenization of Z0


def test_descent_cubic_unique_form():
    d = plane_curve_descent(diagonal_curve(3), constant(HomogPoly, 3, 1))
    assert d["descent_pair_identity"]
    ci = CompleteIntersectionInput(2, [diagonal_curve(3)])
    res = tilde_cohomology(ci, lam.LambdaSetting(2, (3,), ((), (1,))), 0)
    assert res.dim == 1


def test_descent_validation():
    with pytest.raises(EngineError):
        plane_curve_descent(diagonal_curve(4), constant(HomogPoly, 3, 1))  # deg P
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


def record_running_vectors(monkeypatch):
    """Every basis vector passed to or returned by a restriction or a
    combination of the intersection driver."""
    seen = []

    def recording(real):
        def wrapper(*args):
            out = real(*args)
            for arg in (*args, out):
                if isinstance(arg, SubspaceBasis):
                    seen.extend(arg.vectors)
            return out

        return wrapper

    for name in ("apply_to_basis", "combine_basis"):
        monkeypatch.setattr(ci_engine, name, recording(getattr(ci_engine, name)))
    return seen


@pytest.mark.parametrize(
    "compute",
    [
        lambda: jump_dimension(5, (0, 0), (0, 0))[0],
        # the start-basis path: the Euler step starts from the tilde subspace
        lambda: omega_cohomology(fermat_ci(4, 1, 6), (2, 1), 0).dim,
    ],
    ids=["jump-e5-origin", "omega-N4-e6-ell21"],
)
def test_running_basis_is_primitive_integer_vectors(monkeypatch, compute):
    seen = record_running_vectors(monkeypatch)
    assert compute() > 0
    assert seen
    for vec in seen:
        assert all(type(v) is int for v in vec.values())
        assert gcd(*vec.values()) == 1


def test_witness_checks_rules_without_building_matrices(monkeypatch):
    def no_matrix(*args, **kwargs):
        raise AssertionError("the witness check must not build a matrix")

    monkeypatch.setattr(cech, "mul_poly_matrix", no_matrix)
    monkeypatch.setattr(cech, "mul_dpoly_matrix", no_matrix)
    setting = lam.LambdaSetting(4, (5, 5), ((), (), (2,)))
    res = nonvanishing_witness(setting, 0, constant(HomogPoly, 5, 1))
    assert res.nonzero and res.constraints_checked == 4
    # an action that keeps the class makes the first constraint reject it
    monkeypatch.setattr(cech.MapRule, "act", lambda rule, cls: cls)
    with pytest.raises(VerificationError, match=r"under mulF \*\("):
        nonvanishing_witness(setting, 0, constant(HomogPoly, 5, 1))


def test_witness_checks_the_cap(monkeypatch):
    monkeypatch.setenv("COTCI_CAP", "10")
    setting = lam.LambdaSetting(4, (5, 5), ((), (), (2,)))
    with pytest.raises(BasisCapExceeded, match="exceeds cap 10"):
        nonvanishing_witness(setting, 0, constant(HomogPoly, 5, 1))


def test_engine_and_recheck_read_one_cap(monkeypatch):
    # the source has 84 elements; assembly and the re-check both read COTCI_CAP
    ci = fermat_ci(3, 1, 5)
    setting = lam.LambdaSetting(3, (5,), ((), (1,)))
    monkeypatch.setenv("COTCI_CAP", "83")
    with pytest.raises(BasisCapExceeded, match="^basis size 84 exceeds cap 83$"):
        tilde_cohomology(ci, setting, 0)
    monkeypatch.setenv("COTCI_CAP", "84")
    result = tilde_cohomology(ci, setting, 0)
    assert (result.ambient_space.dim(), result.dim) == (84, 44)
    verify_result(result)  # returns without raising
    monkeypatch.setenv("COTCI_CAP", "83")
    with pytest.raises(BasisCapExceeded, match="^basis size 84 exceeds cap 83$"):
        verify_result(result)


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
