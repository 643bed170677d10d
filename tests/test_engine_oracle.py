"""An independent oracle for whole engine answers.

The engine intersects constraint kernels one at a time on a running integer
basis (restriction, kernel, combination). The oracle instead stacks the
constraints in the engine's order, largest target first and ties by index,
and takes the rank of every stacked prefix by a plain Gauss-Jordan
elimination over Fraction. The rows come from each rule's forward action on
the basis elements, so no shift table or assembled matrix is read. Then
dim K_i = n - rank(prefix i), the certificate entry of constraint i has
`applied_on_dim` = dim K_{i-1} and `rank` = dim K_{i-1} - dim K_i, and the
canonical RREF of the oracle's kernel must equal that of the reported basis.
"""

from fractions import Fraction

import pytest

from cotci import cech, ci_engine, lambdacalc as lam
from cotci.cech import CohomSpace
from cotci.exactalg import QQ, rref_vectors
from cotci.poly import HomogPoly, compositions
from cotci.rng import SplitMix64


def _insert(pivots, row):
    """Add `row` ({column: Fraction}) to the reduced rows `pivots`
    ({pivot column: row}), keeping them in reduced row echelon form."""
    # a reduced row is 0 at every other pivot, so one pass clears them all
    for c in [c for c in row if c in pivots]:
        f = row[c]
        for k, v in pivots[c].items():
            row[k] = row.get(k, 0) - f * v
    row = {k: v for k, v in row.items() if v}
    if not row:
        return
    lead = min(row)
    row = {k: v / row[lead] for k, v in row.items()}
    for c, p in pivots.items():
        f = p.get(lead)
        if f:
            for k, v in row.items():
                p[k] = p.get(k, 0) - f * v
            pivots[c] = {k: v for k, v in p.items() if v}
    pivots[lead] = row


def _rows(rule):
    """The nonzero rows of `rule`'s matrix, read from its forward action."""
    index = cech.basis_index(rule.target)
    rows = {}
    for j, el in enumerate(cech.basis_enumerate(rule.source)):
        for t, w in rule.terms(el):
            row = rows.setdefault(index[t], {})
            row[j] = row.get(j, 0) + Fraction(w)
    return rows.values()


def oracle(*rule_groups):
    """(label, applied_on_dim, rank) per constraint and the canonical RREF of
    the common kernel. Each group is ordered as the engine orders it; a later
    group starts from the kernel of the earlier ones (omega's start basis)."""
    n = rule_groups[0][0].source.dim()
    pivots, entries = {}, []
    for rules in rule_groups:
        for rule in sorted(rules, key=lambda r: -r.target.dim()):  # stable: ties by index
            before = n - len(pivots)
            for row in _rows(rule):
                _insert(pivots, row)
            entries.append((rule.label, before, before - (n - len(pivots))))
    kernel = {}
    for f in range(n):
        if f not in pivots:
            _insert(kernel, {f: Fraction(1), **{c: -p[f] for c, p in pivots.items() if f in p}})
    return entries, [kernel[c] for c in sorted(kernel)]


def assert_matches_oracle(result, *rule_groups):
    entries, kernel = oracle(*rule_groups)
    certificate = [(e["label"], e["applied_on_dim"], e["rank"]) for e in result.certificate]
    assert certificate == entries
    assert result.dim == len(kernel)
    assert rref_vectors(QQ, result.ambient_space.dim(), result.subspace.vectors) == kernel


def random_poly(rng, nvars, d):
    """Random nonzero diagonal coefficients plus three random monomials with
    coefficients in -3..3: small systems whose eliminations stay cheap."""
    terms = {tuple(d if m == i else 0 for m in range(nvars)): rng.nonzero_coeff()
             for i in range(nvars)}
    monos = compositions(d, nvars)
    for _ in range(3):
        terms[monos[rng.randint(0, len(monos) - 1)]] = rng.randint(-3, 3)
    return HomogPoly(nvars, terms, d)


def _tilde(rng, N, degrees, tuples, a):
    ci = ci_engine.CompleteIntersectionInput(N, [random_poly(rng, N + 1, d) for d in degrees])
    result = ci_engine.tilde_cohomology(ci, lam.LambdaSetting(N, degrees, tuples), a)
    assert_matches_oracle(result, result.constraints)
    return result


def _omega(rng, e, ells, a):
    ci = ci_engine.CompleteIntersectionInput(3, [random_poly(rng, 4, e)])
    result = ci_engine.omega_cohomology(ci, ells, a)
    split = sum(r.kind != "contraction" for r in result.constraints)
    assert_matches_oracle(result, result.constraints[:split], result.constraints[split:])
    return result


def _pair(rng, deformed):
    # the diagonal pair of `jump` on P^3, each with one deformation monomial
    # of coefficient in -2..2 when `deformed`; at 0 every partial is c*Z_i^3
    # or 0, so the kernel is spanned by the 1/Z^I with 1 <= I_i <= 3 and
    # |I| = 11, four of them
    alpha, beta = (rng.randint(-2, 2), rng.randint(-2, 2)) if deformed else (0, 0)
    F = HomogPoly(4, {(4, 0, 0, 0): 1, (0, 4, 0, 0): 1, (0, 0, 4, 0): 1, (0, 0, 0, 4): 1,
                      (2, 2, 0, 0): alpha}, 4)
    G = HomogPoly(4, {(0, 4, 0, 0): 1, (0, 0, 4, 0): 2, (0, 0, 0, 4): 3, (0, 0, 2, 2): beta}, 4)
    space = CohomSpace(3, (), -11)
    maps = [cech.mul_poly_matrix(space, p)
            for i in range(4) for p in (F.partial_derivative(i), G.partial_derivative(i))]
    basis, certificate = ci_engine.intersect_constraint_kernels(maps)
    result = ci_engine.CohomologyResult(0, space, basis, certificate)
    assert_matches_oracle(result, [cm.rule for cm in maps])
    return result


# (id, build, seed, parameters, whether the answer is nonzero): spaces of 21
# to 320 elements, every family with a nonzero answer at least once
CASES = [
    ("tilde-curve", _tilde, 0, (2, (4,), ((), (1,)), 0), True),
    # two differential constraints with one target: a tie, kept in index order
    ("tilde-tie", _tilde, 1, (3, (4,), ((), (1, 1)), 0), True),
    # the restriction tower of two cubics: two targets of one size too
    ("tilde-codim-2", _tilde, 2, (3, (3, 3), ((), (), ()), -2), True),
    ("tilde-S2", _tilde, 3, (3, (3,), ((), (2,)), 0), True),
    # one factor: the contraction restricts a nonzero tilde start basis
    ("omega-start-basis", _omega, 0, (3, (2,), 0), True),
    # two factors, so the Euler cross-check runs too; seed 0 leaves dim 0
    # after the first constraint, seed 2 a start basis of dim 17
    ("omega-two-factors-0", _omega, 0, (2, (2, 2), 1), False),
    ("omega-two-factors-2", _omega, 2, (2, (2, 2), 1), True),
    ("pair-origin", _pair, 0, (False,), True),
    ("pair-deformed", _pair, 3, (True,), False),
]


@pytest.mark.parametrize(
    "build, seed, params, nonzero", [c[1:] for c in CASES], ids=[c[0] for c in CASES]
)
def test_engine_answer_matches_the_stacked_rank_oracle(build, seed, params, nonzero):
    result = build(SplitMix64(seed), *params)
    assert result.ambient_space.dim() <= 2000
    assert (result.dim > 0) == nonzero
