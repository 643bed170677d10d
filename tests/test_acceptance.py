"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every expected value is exact (integer equality or boolean); the stated
runtime budgets are asserted as hard bounds. Run with `pytest -s` to see the
per-criterion lines as they complete.
"""

import itertools
import json
import os
import time
from cotci import lambdacalc as lam
from cotci.cech import CohomSpace, euler_contraction_matrix
from cotci.ci_engine import (
    CompleteIntersectionInput,
    EulerCrossCheckError,
    euler_image,
    expected_euler_image_dim,
    jump_dimension,
    nonvanishing_witness,
    plane_curve_descent,
    tilde_cohomology,
)
from cotci.exactalg import rank
from cotci.fermat import (
    affine_form,
    base_locus_scan,
    genericity_probes,
    glue_reducer_for,
    letter_minors,
    random_fermat_system,
    tilde_cocycle,
    vanishes_on_pair,
    verify_glue,
    verify_kernel_membership,
)
from cotci.poly import HomogPoly, fermat_generic_system
from cotci.rng import SplitMix64
from test_poly import constant

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")


def report(num, ok, seconds, limit, detail):
    line = (
        f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} "
        f"({seconds:.2f}s of {limit:.0f}s budget): {detail}"
    )
    print(line)
    assert ok, line
    assert seconds < limit, f"criterion {num} exceeded its {limit}s budget: {seconds:.1f}s"


def diagonal_curve(e):
    return HomogPoly(3, {(e, 0, 0): 1, (0, e, 0): 1, (0, 0, e): 1})


def test_criterion_01_plane_curve_genus():
    start = time.time()
    dims = {}
    for e in (3, 4, 5):
        ci = CompleteIntersectionInput(2, [diagonal_curve(e)])
        setting = lam.LambdaSetting(2, (e,), ((), (1,)))
        dims[e] = tilde_cohomology(ci, setting, 0).dim
    elapsed = time.time() - start
    ok = dims == {3: 1, 4: 3, 5: 6}
    report(1, ok, elapsed, 5, f"plane-curve genus dims {dims} == {{3:1, 4:3, 5:6}}")


def test_criterion_02_plane_curve_descent():
    start = time.time()
    descent = plane_curve_descent(diagonal_curve(4), HomogPoly.variable(3, 0))
    first, second = descent["chart0_pair"]
    structural = (
        (first["sign"], first["denominator"], first["form"]) == (-1, "f1", "dz2")
        and (second["sign"], second["denominator"], second["form"]) == (1, "f2", "dz1")
        and first["numerator"] == second["numerator"]
    )
    ok = (
        descent["euler_identity"]
        and descent["descent_top_identity"]
        and descent["descent_pair_identity"]
        and structural
    )
    elapsed = time.time() - start
    report(2, ok, elapsed, 5, "both descent identities verified; chart-0 pair matches")


def test_criterion_03_ci_curve_genus():
    start = time.time()
    rows = [[1, 1, 1, 1], [1, 2, 4, 8]]
    dims = {}
    for degrees in ((2, 3), (2, 2)):
        eqs = fermat_generic_system(3, degrees, rows)
        ci = CompleteIntersectionInput(3, eqs)
        setting = lam.LambdaSetting(3, degrees, ((), (), ()))
        dims[degrees] = tilde_cohomology(ci, setting, 0).dim
    elapsed = time.time() - start
    ok = dims == {(2, 3): 4, (2, 2): 1}
    report(3, ok, elapsed, 30, f"CI-curve genus dims {dims} == {{(2,3):4, (2,2):1}}")


def test_criterion_04_deformation_jump():
    frozen_origin_dim = 1
    per_point = []
    start = time.time()
    t0 = time.time()
    dim_origin, _ = jump_dimension(5, (0, 0), (0, 0))
    per_point.append(time.time() - t0)
    rng = SplitMix64(42)
    from cotci.ci_engine import generic_jump_parameters

    generic_dims = []
    for _ in range(5):
        al, be = generic_jump_parameters(rng, (0, 1, 2, 3, 4))
        t0 = time.time()
        d, _ = jump_dimension(5, al, be)
        per_point.append(time.time() - t0)
        generic_dims.append(d)
    elapsed = time.time() - start
    ok = (
        dim_origin >= 1
        and dim_origin == frozen_origin_dim
        and generic_dims == [0] * 5
        and max(per_point) < 120
    )
    report(
        4,
        ok,
        elapsed,
        6 * 120,
        f"origin dim {dim_origin} (frozen {frozen_origin_dim}), generic dims "
        f"{generic_dims}, slowest point {max(per_point):.1f}s < 120s",
    )


def test_criterion_05_nonvanishing_witness():
    start = time.time()
    setting = lam.LambdaSetting(4, (5, 5), ((), (), (2,)))
    res = nonvanishing_witness(setting, 0, constant(HomogPoly, 5, 1))
    elapsed = time.time() - start
    ok = res.nonzero and res.constraints_checked == 4 and not res.cls.is_zero()
    report(
        5, ok, elapsed, 60,
        f"witness at (N,c,e,a)=(4,2,5,0) nonzero with {res.constraints_checked} exact kernel memberships",
    )


def test_criterion_06_determinantal_verification():
    start = time.time()
    sys_ = random_fermat_system(4, 2, 1, 9, seed=20260811)
    P = constant(HomogPoly, 5, 1)
    I = (1, 2)
    membership = verify_kernel_membership(sys_, I, P, 0)
    minors = letter_minors(sys_, I)
    numerators = tilde_cocycle(sys_, minors, P)
    reducer = glue_reducer_for(sys_, I, P)
    glue_all = all(
        verify_glue(sys_, numerators, a, b, reducer)
        for a, b in itertools.combinations(range(5), 2)
    )
    form = affine_form(minors[0])
    w_vanishes = all(vanishes_on_pair(form, i) for i in range(1, 5))
    elapsed = time.time() - start
    ok = membership and glue_all and w_vanishes
    report(
        6, ok, elapsed, 120,
        f"membership={membership}, glue(all 10 chart pairs)={glue_all}, "
        f"symbolic W-vanishing={w_vanishes} at (4,2,2,1,9,0)",
    )


def test_criterion_07_contraction_dimension_identity():
    start = time.time()
    rng = SplitMix64(20260607)
    checked = 0
    ok = True
    while checked < 30:
        N = rng.randint(1, 4)
        k = rng.randint(1, 2)
        ells = tuple(rng.randint(1, 4) for _ in range(k))
        a = sum(ells) - rng.randint(N + 1, N + 6)
        space = CohomSpace(N, ells, a)
        if not 0 < space.dim() <= 1500:
            continue
        factor = rng.randint(1, k)
        cm = euler_contraction_matrix(space, factor)
        if cm.rule.target.is_zero():
            continue
        checked += 1
        r = rank(cm.matrix)
        from cotci.exactalg import kernel_basis

        kdim = kernel_basis(cm.matrix).dim
        if r != cm.rule.target.dim() or kdim != space.dim() - cm.rule.target.dim():
            ok = False
            break
    elapsed = time.time() - start
    report(
        7, ok, elapsed, 30,
        "rank(contraction) == dim(target) and dim ker == source - target on 30 random spaces",
    )


def test_criterion_08_multifactor_euler_cross_check():
    start = time.time()
    results = []
    try:
        for N, twist in ((2, -3), (2, -5), (3, -3), (3, -5)):
            space = CohomSpace(N, (1, 1), twist)
            img = euler_image(space)  # raises on mismatch
            expected = expected_euler_image_dim(space)
            results.append((N, twist, img.dim, expected))
            assert img.dim == expected
        ok = True
        detail = "intersection == chained exhaustion at " + ", ".join(
            f"(N={n}, a={t}: {d})" for n, t, d, _ in results
        )
    except EulerCrossCheckError as exc:
        ok = False
        detail = f"FINDING (multi-factor Euler image open question): {exc}"
    elapsed = time.time() - start
    report(8, ok, elapsed, 60, detail)


def test_criterion_09_lambda_property_suite():
    start = time.time()
    rng = SplitMix64(20260811)
    ok = True
    notes = []
    checked = 0
    while checked < 500:
        s = lam.random_setting(rng)
        if s.codim < 1:
            continue
        checked += 1
        step = lam.s_step(s)
        ok &= step.s1.q() >= s.q()
        ok &= step.s2.q() == s.q() + 1
        ok &= step.s1.i_counter() < s.i_counter()
        ok &= step.s2.i_counter() < s.i_counter()
        ok &= step.s1.total() == s.total()
        # branch-refined item 6; the literal statement fails in the
        # restriction branch (recorded finding, see the property test module)
        if step.tag == "restriction":
            ok &= step.s2.total() == s.total()
        else:
            ok &= step.s2.total() == s.total() - 1
    checked = 0
    while checked < 500:
        pr = lam.random_pair(rng)
        if pr.codim < 1:
            continue
        checked += 1
        step = lam.s_step_pair(pr)
        ok &= step.s1.q() >= pr.q()
        ok &= step.s2.q() == pr.q() + 1
        ok &= step.s1.i_counter() < pr.i_counter()
        ok &= step.s2.i_counter() < pr.i_counter()
        ok &= step.s1.t_bound() == pr.t_bound()
        ok &= step.s2.t_bound() >= pr.t_bound() - 1
    for _ in range(500):
        s = lam.random_simple_setting(rng)
        step = lam.s_step(s)
        ok &= step.s1.is_simple() and step.s2.is_simple()
        ok &= step.s1.q() == step.s2.q() == s.q() + 1
        lim, b = lam.sigma_lim(s), lam.b_sigma(s)
        cur, acc = s, 0
        for _ in range(s.ambient_N - s.q()):
            st = lam.s_step(cur)
            acc += st.degree
            cur = st.s2
        ok &= cur == lim and acc == b
    elapsed = time.time() - start
    report(
        9, ok, elapsed, 5,
        "500-sample suites: elementary successor (in)equalities (item 6 branch-refined, "
        "finding recorded), simplicity preservation, chain reaches the limit with total twist",
    )


def test_criterion_10_base_locus_scan():
    start = time.time()
    sys_ = random_fermat_system(4, 2, 1, 9, seed=20260811)
    rep = base_locus_scan(sys_, 0, 11, seed=7)
    fixture_path = os.path.join(FIXTURES, "baselocus_N4_c2_eps1_e9_p11_seed7.json")
    with open(fixture_path) as fh:
        frozen = json.load(fh)
    elapsed = time.time() - start
    ok = (
        rep["w_vanishing"]["failures"] == 0
        and rep["nonzero_spot"]["checked"] > 0
        and rep["nonzero_spot"]["failures"] == 0
        and rep == frozen
    )
    report(
        10, ok, elapsed, 300,
        f"every W jet point classified IN_W with vanishing forms "
        f"({rep['w_vanishing']['checked']} checked); candidate-E list of size "
        f"{len(rep['candidate_E'])} matches the frozen fixture; "
        f"{rep['nonzero_spot']['checked']} NONZERO points spot-verified",
    )


def test_criterion_11_genericity_probes():
    start = time.time()
    rep = genericity_probes(1000, seed=123)
    elapsed = time.time() - start
    ok = (
        rep["rank_product"]["degeneracies"] == 0
        and rep["letter_independence"]["degeneracies"] == 0
        and rep["structured_rank"]["degeneracies"] == 0
    )
    report(
        11, ok, elapsed, 30,
        "1000-trial rank-product, letter-independence and structured-rank probes: zero degeneracies",
    )
