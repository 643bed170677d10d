from fractions import Fraction

import pytest

from cotci.poly import (
    HomogPoly,
    MinorVanishingError,
    PolyParseError,
    compositions,
    deformed_fermat_pair,
    fermat_generic_system,
    grevlex_key,
    minors_nonzero,
    parse_poly,
    random_homog,
    vandermonde_coeff_rows,
)
from cotci.rng import SplitMix64


def Z(i, power=1, nvars=3):
    return HomogPoly.variable(nvars, i, power)


def test_mul_examples():
    assert (Z(0) * Z(1)).terms == {(1, 1, 0): 1}
    sq = (Z(0) + Z(1)) * (Z(0) + Z(1))
    assert sq.terms == {(2, 0, 0): 1, (1, 1, 0): 2, (0, 2, 0): 1}
    fermat = Z(0, 4) + Z(1, 4) + Z(2, 4)
    prod = fermat * Z(2)
    assert prod.terms == {(4, 0, 1): 1, (0, 4, 1): 1, (0, 0, 5): 1}


def test_add_degree_mismatch():
    with pytest.raises(ValueError):
        Z(0) + Z(0, 2)


def test_partial_derivative_examples():
    cube = Z(0, 3)
    assert cube.partial_derivative(0).terms == {(2, 0, 0): 3}
    assert cube.partial_derivative(1).is_zero()
    assert (Z(0, 2) * Z(1)).partial_derivative(0).terms == {(1, 1, 0): 2}


def test_partials_commute():
    rng = SplitMix64(5)
    for _ in range(20):
        f = random_homog(rng, 4, rng.randint(2, 6))
        for i in range(4):
            for j in range(i + 1, 4):
                assert f.partial_derivative(i).partial_derivative(j) == (
                    f.partial_derivative(j).partial_derivative(i)
                )


def test_euler_identity_random():
    rng = SplitMix64(7)
    for _ in range(100):
        nv = rng.randint(2, 6)
        f = random_homog(rng, nv, rng.randint(1, 8))
        assert f.euler_identity_check()


def test_euler_identity_fermat_quintic():
    f = HomogPoly(5, {tuple(5 if j == i else 0 for j in range(5)): 1 for i in range(5)})
    assert f.euler_identity_check()


def test_euler_identity_corrupted_table():
    # negative control: an invariant-violating term table (mixed weights,
    # injected behind the constructor's back) must fail the self-test
    f = Z(0, 2) * Z(1)
    f.terms[(1, 0, 0)] = 1
    assert not f.euler_identity_check()


def test_dehomogenize_examples():
    f = Z(0, 2) + Z(1, 2)
    assert f.dehomogenize(0).terms == {(0, 0): 1, (2, 0): 1}
    g = Z(0) * Z(1) * Z(2)
    assert g.dehomogenize(1).terms == {(1, 1): 1}
    fermat = Z(0, 4) + Z(1, 4) + Z(2, 4)
    assert fermat.dehomogenize(0).terms == {(0, 0): 1, (4, 0): 1, (0, 4): 1}


def test_dehomogenize_multiplicative():
    rng = SplitMix64(9)
    for _ in range(20):
        f = random_homog(rng, 3, rng.randint(1, 5))
        g = random_homog(rng, 3, rng.randint(1, 5))
        chart = rng.randint(0, 2)
        assert (f * g).dehomogenize(chart) == f.dehomogenize(chart) * g.dehomogenize(chart)


def test_fermat_generic_system_quartic():
    (f,) = fermat_generic_system(2, 1, 4, [[1, 1, 1]])
    assert f.terms == {(4, 0, 0): 1, (0, 4, 0): 1, (0, 0, 4): 1}


def test_fermat_generic_system_vandermonde():
    rows = [[1, 1, 1, 1, 1], [1, 2, 4, 8, 16]]
    sys_ = fermat_generic_system(4, 2, 5, rows)
    assert [f.degree for f in sys_] == [5, 5]
    assert minors_nonzero(rows, 2)[0]


def test_fermat_generic_system_proportional_rows():
    with pytest.raises(MinorVanishingError):
        fermat_generic_system(2, 2, 3, [[1, 2, 3], [2, 4, 6]])


def test_vandermonde_rows_all_minors():
    rows = vandermonde_coeff_rows(4, 3)
    assert minors_nonzero(rows, 3)[0]


def test_minors_nonzero_names_first_vanishing_minor():
    # the third row is twice the second minus the first: every 3x3 minor
    # vanishes, no smaller one does
    rows = [[1, 1, 1, 1], [1, 2, 3, 4], [1, 3, 5, 7]]
    assert minors_nonzero(rows, 3) == (False, (3, (0, 1, 2), (0, 1, 2)))
    assert minors_nonzero(rows, 2) == (True, None)


def test_deformed_fermat_pair_pure():
    F, G = deformed_fermat_pair(5, (0, 0), (0, 0), (0, 1, 2, 3, 4))
    assert F.terms == {tuple(5 if j == i else 0 for j in range(5)): 1 for i in range(5)}
    assert G.terms == {
        tuple(5 if j == i else 0 for j in range(5)): i for i in range(5) if i
    }


def test_deformed_fermat_pair_extra_terms():
    F, _ = deformed_fermat_pair(5, (1, 0), (0, 0), (0, 1, 2, 3, 4))
    assert F.terms[(2, 3, 0, 0, 0)] == 1
    F6, _ = deformed_fermat_pair(6, (1, 0), (0, 0), (0, 1, 2, 3, 4))
    assert F6.terms[(3, 3, 0, 0, 0)] == 1


def test_deformed_fermat_pair_repeated_diagonal():
    with pytest.raises(ValueError):
        deformed_fermat_pair(5, (0, 0), (0, 0), (0, 1, 2, 3, 3))


def test_parse_and_print_roundtrip():
    texts = ["Z0^4 + Z1^4 + Z2^4", "3/2*Z0^2*Z1", "-Z0*Z1 + 2*Z2^2"]
    for t in texts:
        f = parse_poly(t)
        assert parse_poly(f.to_text()) == f


def test_parse_single_term():
    f = parse_poly("3/2*Z0^2*Z1")
    assert f.terms == {(2, 1): Fraction(3, 2)}


def test_parse_inhomogeneous_reports_degrees():
    with pytest.raises(ValueError, match="degrees 1 and 2"):
        parse_poly("Z0 + Z1^2")


def test_parse_error_position():
    with pytest.raises(PolyParseError, match="column"):
        parse_poly("Z0 + $")


def test_parse_zero_denominator_reports_position():
    with pytest.raises(PolyParseError, match="line 2, column 3: zero denominator"):
        parse_poly("Z0^2\n+ 1/0*Z1^2")


def test_parse_rejects_out_of_range_variables():
    with pytest.raises(PolyParseError, match="column 6: variable index exceeds nvars=3"):
        parse_poly("Z0 + Z3", nvars=3)
    assert parse_poly("Z2", nvars=3).terms == {(0, 0, 1): 1}


def test_parse_rejects_lowercase_variables_at_their_column():
    with pytest.raises(PolyParseError, match="line 1, column 6: unexpected character 'z'"):
        parse_poly("Z0 + z1")
    with pytest.raises(PolyParseError, match="line 2, column 3: unexpected character 'z'"):
        parse_poly("Z0\n+ z1", nvars=2)


def test_divides_into():
    f = Z(0) + Z(1)
    g = f * (Z(0, 2) + Z(2, 2))
    assert f.divides_into(g)
    assert not f.divides_into(g + Z(0, 3))


def test_compositions_count():
    assert len(compositions(6, 3)) == 28  # C(8,2)
    assert compositions(0, 0) == [()]
    assert compositions(2, 0) == []


def _unordered_compositions(total, parts):
    if parts == 0:
        return [()] if total == 0 else []
    return [
        (v,) + rest
        for v in range(total + 1)
        for rest in _unordered_compositions(total - v, parts - 1)
    ]


@pytest.mark.parametrize(
    "total, parts", [(t, p) for t in range(7) for p in range(6)] + [(17, 7)]
)
def test_compositions_come_in_grevlex_order(total, parts):
    expected = sorted(_unordered_compositions(total, parts), key=grevlex_key)
    assert compositions(total, parts) == expected
