from array import array
from fractions import Fraction
from math import gcd, lcm

import pytest

from cotci import exactalg
from cotci.exactalg import (
    QQ,
    DimensionError,
    FieldMismatchError,
    PrimeField,
    SparseMatrix,
    SpanReducer,
    SubspaceBasis,
    apply_to_basis,
    combine_basis,
    kernel_basis,
    rank,
    rref_vectors,
)
from cotci.rng import SplitMix64


def entries(m):
    """The entries dict {(row, col): value} of a matrix, in entry order.
    Built anew on each call, so take it once per matrix."""
    return dict(zip(zip(m.rows, m.cols), m.vals))


def checked(field, nrows, ncols, entries):
    """The matrix of an entries dict {(row, col): value}, made to hold the
    invariant the constructor trusts: every value normalized, so an integral
    rational is an int, zeros dropped, a key outside the shape rejected and
    the dict's order kept."""
    rows, cols, vals = array("q"), array("q"), []
    for (r, c), v in entries.items():
        v = field.normalize(v)
        if v != 0:
            if not (0 <= r < nrows and 0 <= c < ncols):
                raise DimensionError(f"entry ({r},{c}) outside {nrows}x{ncols}")
            rows.append(r)
            cols.append(c)
            vals.append(v)
    return SparseMatrix(field, nrows, ncols, rows, cols, vals)


def mul_vec(m, vec):
    """m times one sparse column vector, entry by entry."""
    out = {}
    for r, c, v in zip(m.rows, m.cols, m.vals):
        if c in vec:
            out[r] = out.get(r, 0) + v * vec[c]
    p = m.field.p
    out = {r: v % p if p else v for r, v in out.items()}
    return {r: v for r, v in out.items() if v}


def span_rank(red):
    """Number of echelon rows of a SpanReducer: the rank of its generators."""
    return len(red._pivots)


RANDOM_SHAPES = [(8, 13, 0.2), (40, 25, 0.1), (60, 120, 0.05), (200, 500, 0.015)]


def random_sparse(rng, field, nrows, ncols, density=0.05):
    ent = {}
    target = max(1, int(nrows * ncols * density))
    for _ in range(target):
        r = rng.randint(0, nrows - 1)
        c = rng.randint(0, ncols - 1)
        ent[(r, c)] = rng.nonzero_coeff()
    return checked(field, nrows, ncols, ent)


def test_rank_examples():
    assert rank(SparseMatrix.from_rows(QQ, [[1, 0], [0, 1]])) == 2
    assert rank(checked(QQ, 3, 5, {})) == 0
    assert rank(SparseMatrix.from_rows(QQ, [[1, 2], [2, 4]])) == 1


def test_kernel_examples():
    k = kernel_basis(SparseMatrix.from_rows(QQ, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    assert k.dim == 0 and k.ambient_dim == 3
    assert kernel_basis(checked(QQ, 2, 4, {})).dim == 4
    k = kernel_basis(SparseMatrix.from_rows(QQ, [[1, 1, 0], [0, 0, 1]]))
    assert k.dim == 1
    (v,) = k.vectors
    assert v == {1: Fraction(1), 0: Fraction(-1)}


@pytest.mark.parametrize("field", [QQ, PrimeField(101)])
def test_rank_nullity_random(field):
    rng = SplitMix64(23)
    for nrows, ncols, density in RANDOM_SHAPES:
        m = random_sparse(rng, field, nrows, ncols, density)
        r = rank(m)
        k = kernel_basis(m)
        assert r + k.dim == ncols
        for vec in k.vectors:
            assert mul_vec(m, vec) == {}


def dense_special_solutions(m):
    """Reference kernel basis by dense Gauss-Jordan elimination: one vector
    per free column, in column order, with 1 at that column and the negated
    reduced-row entries at the pivot columns, in pivot order. Over Q each
    vector is then scaled to its primitive integer form, which is positive
    at its free column."""
    p = m.field.p

    def norm(x):
        return x % p if p else Fraction(x)

    ent = entries(m)
    a = [[norm(ent.get((r, c), 0)) for c in range(m.ncols)] for r in range(m.nrows)]
    pivots = []
    for col in range(m.ncols):
        top = len(pivots)
        piv = next((r for r in range(top, m.nrows) if a[r][col]), None)
        if piv is None:
            continue
        a[top], a[piv] = a[piv], a[top]
        inv = pow(a[top][col], -1, p) if p else 1 / a[top][col]
        a[top] = [norm(x * inv) for x in a[top]]
        nz = [(c, y) for c, y in enumerate(a[top]) if y]
        for r in range(m.nrows):
            f = a[r][col]
            if r != top and f:
                for c, y in nz:
                    a[r][c] = (a[r][c] - f * y) % p if p else a[r][c] - f * y
        pivots.append(col)
    out = []
    for f in range(m.ncols):
        if f in pivots:
            continue
        vec = {f: norm(1)}
        for i, c in enumerate(pivots):
            if a[i][f]:
                vec[c] = norm(-a[i][f])
        if not p:
            den = lcm(*(x.denominator for x in vec.values()))
            num = gcd(*(x.numerator * (den // x.denominator) for x in vec.values()))
            vec = {c: int(x * den) // num for c, x in vec.items()}
        out.append(vec)
    return out


def assert_kernel_matches_reference(m):
    got = kernel_basis(m).vectors
    ref = dense_special_solutions(m)
    assert got == ref
    # same free-column order and, inside each vector, the same key order
    assert [list(v) for v in got] == [list(v) for v in ref]


@pytest.mark.parametrize("field", [QQ, PrimeField(101)])
def test_kernel_equals_dense_reference_random(field):
    rng = SplitMix64(23)
    for nrows, ncols, density in RANDOM_SHAPES:
        assert_kernel_matches_reference(random_sparse(rng, field, nrows, ncols, density))


@pytest.mark.parametrize("field", [QQ, PrimeField(101)])
def test_kernel_equals_dense_reference_edge_cases(field):
    zero = checked(field, 3, 5, {})
    assert_kernel_matches_reference(zero)
    assert kernel_basis(zero).dim == 5
    full_col_rank = SparseMatrix.from_rows(field, [[2, 1, 0], [0, 3, 1], [1, 0, 5], [4, 4, 4]])
    assert_kernel_matches_reference(full_col_rank)
    assert kernel_basis(full_col_rank).dim == 0
    # pivot columns 0, 3, 4 with the zero columns 1, 2 and 5 between and
    # after them; the last row is twice the first
    gaps = SparseMatrix.from_rows(field, [
        [3, 0, 0, 1, 2, 0, 7],
        [0, 0, 0, 5, 0, 0, -1],
        [0, 0, 0, 0, 9, 0, 2],
        [6, 0, 0, 2, 4, 0, 14],
    ])
    assert_kernel_matches_reference(gaps)
    assert [next(iter(v)) for v in kernel_basis(gaps).vectors] == [1, 2, 5, 6]


def with_one_entry_rows(rng, m, count):
    """m with `count` rows of one nonzero entry each, put at seeded places
    among its rows."""
    rows = m.row_dicts()
    for _ in range(count):
        rows.insert(rng.randint(0, len(rows)), {rng.randint(0, m.ncols - 1): rng.nonzero_coeff()})
    ent = {(r, c): v for r, row in enumerate(rows) for c, v in row.items()}
    return checked(m.field, len(rows), m.ncols, ent)


@pytest.mark.parametrize("field", [QQ, PrimeField(101)])
def test_kernel_with_one_entry_rows_equals_dense_reference(field):
    rng = SplitMix64(43)
    for nrows, ncols, density in RANDOM_SHAPES[:3]:
        for count in (1, ncols // 4, ncols):
            m = random_sparse(rng, field, nrows, ncols, density)
            assert_kernel_matches_reference(with_one_entry_rows(rng, m, count))


@pytest.mark.parametrize("field", [QQ, PrimeField(101)])
def test_kernel_one_entry_row_edge_cases(field):
    cases = [
        # two one-entry rows on column 1
        [[0, 2, 0, 0], [1, 1, 1, 1], [0, -3, 0, 0]],
        # a one-entry row on column 2, which the dense rows hold too
        [[1, 2, 3, 4, 5], [0, 0, 7, 0, 0], [2, 0, 1, 1, 0], [0, 1, 4, 0, 1]],
        # the first row is emptied once columns 0 and 3 are dropped
        [[5, 0, 0, 1, 0], [0, 0, 0, 2, 0], [3, 0, 0, 0, 0], [0, 1, 1, 0, 1]],
        # a one-entry Fraction row beside rows with Fraction entries
        [[0, Fraction(1, 3), 0], [Fraction(2, 5), 1, Fraction(-7, 2)], [1, 0, 1]],
        # only one-entry rows, every column hit: full column rank
        [[0, 0, 4], [1, 0, 0], [0, -2, 0], [6, 0, 0]],
        # only one-entry rows, columns 1 and 4 missed
        [[0, 0, 3, 0, 0], [8, 0, 0, 0, 0], [0, 0, 0, 1, 0], [0, 0, 9, 0, 0]],
    ]
    for rows in cases:
        assert_kernel_matches_reference(SparseMatrix.from_rows(field, rows))
    assert kernel_basis(SparseMatrix.from_rows(field, cases[4])).dim == 0
    missed = kernel_basis(SparseMatrix.from_rows(field, cases[5]))
    assert [list(v) for v in missed.vectors] == [[1], [4]]


def test_only_one_entry_rows_reach_no_elimination(monkeypatch):
    handed = []
    eliminate = exactalg._eliminate

    def counting(rows, *args, **kwargs):
        handed.append(len(rows))
        return eliminate(rows, *args, **kwargs)

    monkeypatch.setattr(exactalg, "_eliminate", counting)
    rng = SplitMix64(47)
    for field in (QQ, PrimeField(101)):
        ncols = 60
        m = with_one_entry_rows(rng, checked(field, 0, ncols, {}), 2 * ncols)
        assert kernel_basis(m).dim == ncols - len(set(m.cols))
        assert_kernel_matches_reference(m)
    assert handed and not any(handed)


@pytest.mark.parametrize("field", [QQ, PrimeField(101)])
def test_apply_to_basis_equals_columnwise_product(field):
    rng = SplitMix64(29)
    p = field.p
    for nrows, ncols, density in RANDOM_SHAPES:
        m = random_sparse(rng, field, nrows, ncols, density)
        vectors = [{}, {0: 0, ncols - 1: 1}]
        for _ in range(6):
            vectors.append({c: rng.nonzero_coeff() for c in range(ncols) if rng.randint(0, 9) == 0})
        basis = SubspaceBasis(field, ncols, vectors)
        ent = entries(m)
        ref = {}
        for j, vec in enumerate(vectors):
            for r in range(nrows):
                s = sum(ent.get((r, c), 0) * x for c, x in vec.items())
                if p:
                    s %= p
                if s:
                    ref[(r, j)] = s
        got = apply_to_basis(m, basis)
        assert (got.nrows, got.ncols) == (nrows, len(vectors))
        assert entries(got) == ref
        for j, vec in enumerate(vectors):
            assert mul_vec(m, vec) == {r: v for (r, k), v in ref.items() if k == j}


@pytest.mark.parametrize("field", [QQ, PrimeField(101)])
def test_combine_basis_strips_the_content_over_qq(field):
    # b0 - b1 and 3*b0 have content 2 and 3 over Q, which is divided out
    basis = SubspaceBasis(field, 3, [{0: 2, 2: 1}, {1: 2, 2: 1}])
    coeffs = SubspaceBasis(field, 2, [{0: 1, 1: -1}, {0: 3}])
    got = combine_basis(basis, coeffs)
    assert got.ambient_dim == 3
    if field == QQ:
        assert got.vectors == [{0: 1, 1: -1}, {0: 2, 2: 1}]
    else:
        assert got.vectors == [{0: 2, 1: 99}, {0: 6, 2: 3}]


def test_kernel_vectors_are_reduced_special_solutions():
    m = SparseMatrix.from_rows(QQ, [[1, 2, 3, 4], [0, 0, 5, 6]])
    k = kernel_basis(m)
    pivot_cols = {min(row) for row in rref_vectors(QQ, m.ncols, m.row_dicts())}
    free_cols = [c for c in range(m.ncols) if c not in pivot_cols]
    assert free_cols == [1, 3] and k.dim == len(free_cols)
    # each vector is positive at its own free column and absent at the others
    for vec, f in zip(k.vectors, free_cols):
        assert vec[f] > 0
        for c in free_cols:
            if c != f:
                assert c not in vec
        # a primitive integer vector
        assert all(type(x) is int for x in vec.values())
        assert gcd(*vec.values()) == 1


def test_qq_normalize_keeps_integers_as_ints():
    assert type(QQ.normalize(4)) is int and QQ.normalize(4) == 4
    assert type(QQ.normalize(Fraction(4, 2))) is int and QQ.normalize(Fraction(4, 2)) == 2
    assert type(QQ.normalize(Fraction(1, 2))) is Fraction
    m = checked(QQ, 1, 3, {(0, 0): Fraction(6, 3), (0, 1): Fraction(1, 2), (0, 2): 5})
    assert [type(v) for v in m.vals] == [int, Fraction, int]


def test_kernel_unchanged_by_integer_entries():
    # the kernel of a matrix with int entries equals, vector for vector and
    # key for key, the kernel of the same matrix with Fraction entries
    rng = SplitMix64(41)
    for nrows, ncols, density in RANDOM_SHAPES:
        ent = entries(random_sparse(rng, QQ, nrows, ncols, density))
        ent[(0, 0)] = Fraction(3, 7)
        m = checked(QQ, nrows, ncols, ent)
        assert any(type(v) is int for v in m.vals)
        as_fractions = SparseMatrix(
            QQ, nrows, ncols, m.rows, m.cols, [Fraction(v) for v in m.vals]
        )
        got, ref = kernel_basis(m).vectors, kernel_basis(as_fractions).vectors
        assert got == ref
        assert [list(v) for v in got] == [list(v) for v in ref]
        assert all(type(x) is int for v in got for x in v.values())


def test_qq_fp_dimension_agreement():
    big = PrimeField((1 << 61) - 1)
    rng = SplitMix64(31)
    for _ in range(5):
        rows = [[rng.randint(-9, 9) for _ in range(12)] for _ in range(7)]
        mq = SparseMatrix.from_rows(QQ, rows)
        mp = SparseMatrix.from_rows(big, rows)
        assert rank(mq) == rank(mp)
        assert kernel_basis(mq).dim == kernel_basis(mp).dim


def test_field_mismatch_error():
    m = SparseMatrix.from_rows(QQ, [[1, 0], [0, 1]])
    u = SubspaceBasis(QQ, 2, [{0: Fraction(1)}])
    v = SubspaceBasis(PrimeField(7), 2, [{0: 1}])
    with pytest.raises(FieldMismatchError):
        apply_to_basis(m, v)
    coeffs = SubspaceBasis(PrimeField(7), 1, [{0: 1}])
    with pytest.raises(FieldMismatchError):
        combine_basis(u, coeffs)


def test_prime_field_validation():
    with pytest.raises(ValueError):
        PrimeField(8)
    gf = PrimeField(11)
    assert gf.normalize(Fraction(1, 2)) == 6


def contains_vector(basis, vec):
    """Whether vec lies in the span of the basis, by the rank of the basis
    vectors with vec appended: the reference for `SpanReducer`."""
    rows = basis.vectors + [vec]
    ent = {(i, c): x for i, v in enumerate(rows) for c, x in v.items()}
    return rank(checked(basis.field, len(rows), basis.ambient_dim, ent)) == basis.dim


def random_query(rng, ncols):
    return {c: rng.nonzero_coeff() for c in range(ncols) if rng.randint(0, 9) == 0}


def random_combination(rng, gens):
    out = {}
    for g in gens:
        coeff = rng.nonzero_coeff() if rng.randint(0, 2) == 0 else 0
        for c, v in g.items():
            out[c] = out.get(c, 0) + coeff * v
    return {c: v for c, v in out.items() if v}


def test_span_reducer():
    gens = [{0: 1, 1: 2}, {1: 1, 2: 1}]
    rng = SplitMix64(37)
    red = SpanReducer(3, gens)
    assert span_rank(red) == 2
    assert red.contains({0: 1, 1: 3, 2: 1})
    assert not red.contains({0: 1})
    assert red.contains({})
    for nrows, ncols, density in RANDOM_SHAPES:
        m = random_sparse(rng, QQ, nrows, ncols, density)
        rows = m.row_dicts()
        red = SpanReducer(ncols, rows)
        basis = SubspaceBasis(QQ, ncols, rref_vectors(QQ, ncols, rows))
        assert span_rank(red) == basis.dim == rank(m)
        for _ in range(4):
            assert red.reduce(random_combination(rng, rows)) == {}
            query = random_query(rng, ncols)
            assert red.contains(query) == contains_vector(basis, query)


def test_span_reducer_is_pure():
    # reduce works on a fresh copy of its argument and never writes to the
    # echelon rows, so repeated and interleaved calls agree with a fresh
    # reducer
    rng = SplitMix64(41)
    for nrows, ncols, density in RANDOM_SHAPES:
        gens = random_sparse(rng, QQ, nrows, ncols, density).row_dicts()
        red = SpanReducer(ncols, gens)
        queries = [random_query(rng, ncols) for _ in range(4)]
        queries.append({c: Fraction(v, 3) for c, v in random_combination(rng, gens).items()})
        snapshot = [dict(q) for q in queries]
        first = [red.reduce(q) for q in queries]
        assert queries == snapshot
        assert [red.reduce(q) for q in queries] == first
        assert [SpanReducer(ncols, gens).reduce(q) for q in queries] == first


# the prime of SpanReducer's modular solve over Q
SPAN_P = exactalg._SPAN_PRIME


def plain_residual(red, vec):
    """The rational reduction alone: the fraction-free `_clear` loop over the
    reducer's echelon rows, with no modular solve in front of it."""
    cur = exactalg._field_row(QQ, vec)
    for col, r in red._pivots:
        if col in cur:
            exactalg._clear(cur, col, red._rows[r], 0)
    return cur


def assert_twins(red, member, col):
    # member + P e_col agrees with a member mod P, so the F_P solve accepts
    # it; only the exact identity tells the two apart
    twin = dict(member)
    twin[col] = twin.get(col, 0) + SPAN_P
    assert red.contains(member)
    assert red.reduce(member) == plain_residual(red, member) == {}
    assert not red.contains(twin)
    assert red.reduce(twin) == plain_residual(red, twin)


def test_span_reducer_rejects_non_members_congruent_to_members():
    red = SpanReducer(2, [{0: 1, 1: 1}])
    assert_twins(red, {0: 1, 1: 1}, 1)
    assert red.reduce({0: 1, 1: 1 + SPAN_P}) == {1: 1}
    rng = SplitMix64(47)
    for nrows, ncols, density in [(8, 13, 0.2), (30, 60, 0.05)]:
        gens = random_sparse(rng, QQ, nrows, ncols, density).row_dicts()
        red = SpanReducer(ncols, gens)
        basis = SubspaceBasis(QQ, ncols, rref_vectors(QQ, ncols, gens))
        outside = [c for c in range(ncols) if not contains_vector(basis, {c: 1})]
        assert outside
        for k in range(4):
            assert_twins(red, random_combination(rng, gens), outside[k % len(outside)])


def test_span_reducer_accepts_coefficients_past_the_reconstruction_bound():
    bound = exactalg._RECON_BOUND
    # rows R1 = (1, 0, 1), R2 = (0, 1, 1): R1 + M R2 has the coefficient M
    red = SpanReducer(3, [{0: 1, 2: 1}, {1: 1, 2: 1}])
    for M in (bound + 1, 2**40, 3**40 + 1, -(7**25), SPAN_P - 1, SPAN_P, 3 * SPAN_P):
        assert_twins(red, {0: 1, 1: M, 2: 1 + M}, 2)
    # rows (L, 0, 1), (0, L, L - 1): (1, 1, 1) has the coefficients 1/L
    for L in (bound + 2, 2**41 + 1, 3**45):
        red = SpanReducer(3, [{0: L, 2: 1}, {1: L, 2: L - 1}])
        assert_twins(red, {0: 1, 1: 1, 2: 1}, 2)


def test_span_reducer_with_a_pivot_lead_divisible_by_the_prime():
    # rows (P, 1, 0) and (0, 1, 1): the first lead vanishes mod P
    red = SpanReducer(3, [{0: SPAN_P, 1: 1}, {1: 1, 2: 1}])
    assert span_rank(red) == 2
    assert_twins(red, {1: 1, 2: 1}, 2)
    assert_twins(red, {0: SPAN_P, 1: 4, 2: 3}, 2)
    assert_twins(red, {0: 2 * SPAN_P, 1: Fraction(9, 5), 2: Fraction(-1, 5)}, 1)
    for query in ({1: 1}, {0: 1}, {0: 1, 1: 1}, {2: SPAN_P}):
        assert not red.contains(query)
        assert red.reduce(query) == plain_residual(red, query)


@pytest.mark.parametrize("field", [QQ, PrimeField(101)])
def test_elimination_leaves_inputs_unchanged(field):
    rng = SplitMix64(43)
    for nrows, ncols, density in RANDOM_SHAPES:
        m = random_sparse(rng, field, nrows, ncols, density)
        before = entries(m)
        rank(m)
        kernel_basis(m)
        assert entries(m) == before
        vectors = m.row_dicts() + [random_query(rng, ncols)]
        snapshot = [dict(v) for v in vectors]
        rref_vectors(field, ncols, vectors)
        SpanReducer(ncols, vectors)
        assert vectors == snapshot


def test_rref_is_canonical():
    vecs1 = [{0: Fraction(2), 1: Fraction(4)}, {1: Fraction(1), 2: Fraction(3)}]
    vecs2 = [{0: Fraction(1), 1: Fraction(2)}, {0: Fraction(1), 1: Fraction(3), 2: Fraction(3)}]
    assert rref_vectors(QQ, 3, vecs1) == rref_vectors(QQ, 3, vecs2)
