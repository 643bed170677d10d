from fractions import Fraction

import pytest

from cotci.exactalg import (
    QQ,
    FieldMismatchError,
    PrimeField,
    SparseMatrix,
    SpanReducer,
    SubspaceBasis,
    apply_to_basis,
    contains_vector,
    image_basis,
    intersect_subspaces,
    kernel_basis,
    rank,
    rref_vectors,
    subspace_dim_of_sum,
    subspace_equal,
)
from cotci.rng import SplitMix64


RANDOM_SHAPES = [(8, 13, 0.2), (40, 25, 0.1), (60, 120, 0.05), (200, 500, 0.015)]


def random_sparse(rng, field, nrows, ncols, density=0.05):
    ent = {}
    target = max(1, int(nrows * ncols * density))
    for _ in range(target):
        r = rng.randint(0, nrows - 1)
        c = rng.randint(0, ncols - 1)
        ent[(r, c)] = rng.nonzero_coeff()
    return SparseMatrix(field, nrows, ncols, ent)


def test_rank_examples():
    assert rank(SparseMatrix.identity(QQ, 2)) == 2
    assert rank(SparseMatrix(QQ, 3, 5, {})) == 0
    assert rank(SparseMatrix.from_rows(QQ, [[1, 2], [2, 4]])) == 1


def test_kernel_examples():
    k = kernel_basis(SparseMatrix.identity(QQ, 3))
    assert k.dim == 0 and k.ambient_dim == 3
    assert kernel_basis(SparseMatrix(QQ, 2, 4, {})).dim == 4
    k = kernel_basis(SparseMatrix.from_rows(QQ, [[1, 1, 0], [0, 0, 1]]))
    assert k.dim == 1
    (v,) = k.vectors
    assert v == {1: Fraction(1), 0: Fraction(-1)}


def test_image_examples():
    assert image_basis(SparseMatrix.identity(QQ, 2)).dim == 2
    assert image_basis(SparseMatrix(QQ, 3, 3, {})).dim == 0
    assert image_basis(SparseMatrix.from_rows(QQ, [[1, 2], [2, 4]])).dim == 1


def test_intersect_coordinate_subspaces():
    e = [{i: Fraction(1)} for i in range(3)]
    full = SubspaceBasis(QQ, 3, e)
    assert intersect_subspaces([full, full]).dim == 3
    u = SubspaceBasis(QQ, 3, [e[0], e[1]])
    v = SubspaceBasis(QQ, 3, [e[1], e[2]])
    got = intersect_subspaces([u, v])
    assert got.dim == 1 and got.vectors == [{1: Fraction(1)}]


def test_intersect_random_dim_identity():
    rng = SplitMix64(11)
    for _ in range(10):
        def sub():
            vecs = []
            for _ in range(3):
                vecs.append({c: rng.nonzero_coeff() for c in range(5) if rng.randint(0, 1)})
            vecs = rref_vectors(QQ, 5, vecs)
            return SubspaceBasis(QQ, 5, vecs)

        u, v = sub(), sub()
        w = intersect_subspaces([u, v])
        assert w.dim == u.dim + v.dim - subspace_dim_of_sum(u, v)
        for vec in w.vectors:
            assert contains_vector(u, vec) and contains_vector(v, vec)


def test_intersect_commutative_associative():
    rng = SplitMix64(17)
    vecsets = []
    for _ in range(3):
        vecs = [{c: rng.nonzero_coeff() for c in range(6) if rng.randint(0, 2) == 0} for _ in range(3)]
        vecsets.append(SubspaceBasis(QQ, 6, rref_vectors(QQ, 6, vecs)))
    a, b, c = vecsets
    ab_c = intersect_subspaces([intersect_subspaces([a, b]), c])
    a_bc = intersect_subspaces([a, intersect_subspaces([b, c])])
    abc = intersect_subspaces([a, b, c])
    ba = intersect_subspaces([b, a])
    assert subspace_equal(intersect_subspaces([a, b]), ba)
    assert subspace_equal(ab_c, a_bc)
    assert subspace_equal(abc, ab_c)


@pytest.mark.parametrize("field", [QQ, PrimeField(101)])
def test_rank_nullity_random(field):
    rng = SplitMix64(23)
    for nrows, ncols, density in RANDOM_SHAPES:
        m = random_sparse(rng, field, nrows, ncols, density)
        r = rank(m)
        k = kernel_basis(m)
        assert r + k.dim == ncols
        for vec in k.vectors:
            assert m.mul_vec(vec) == {}


def dense_special_solutions(m):
    """Reference kernel basis by dense Gauss-Jordan elimination: one vector
    per free column, in column order, with 1 at that column and the negated
    reduced-row entries at the pivot columns, in pivot order."""
    p = m.field.p if m.field.kind == "Fp" else None

    def norm(x):
        return x % p if p else Fraction(x)

    a = [[norm(m.entries.get((r, c), 0)) for c in range(m.ncols)] for r in range(m.nrows)]
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
    zero = SparseMatrix(field, 3, 5, {})
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


@pytest.mark.parametrize("field", [QQ, PrimeField(101)])
def test_apply_to_basis_equals_columnwise_product(field):
    rng = SplitMix64(29)
    p = field.p if field.kind == "Fp" else None
    for nrows, ncols, density in RANDOM_SHAPES:
        m = random_sparse(rng, field, nrows, ncols, density)
        vectors = [{}, {0: 0, ncols - 1: 1}]
        for _ in range(6):
            vectors.append({c: rng.nonzero_coeff() for c in range(ncols) if rng.randint(0, 9) == 0})
        basis = SubspaceBasis(field, ncols, vectors)
        ref = {}
        for j, vec in enumerate(vectors):
            for r in range(nrows):
                s = sum(m.entries.get((r, c), 0) * x for c, x in vec.items())
                if p:
                    s %= p
                if s:
                    ref[(r, j)] = s
        got = apply_to_basis(m, basis)
        assert (got.nrows, got.ncols) == (nrows, len(vectors))
        assert got.entries == ref
        for j, vec in enumerate(vectors):
            assert m.mul_vec(vec) == {r: v for (r, k), v in ref.items() if k == j}


def test_kernel_vectors_are_reduced_special_solutions():
    m = SparseMatrix.from_rows(QQ, [[1, 2, 3, 4], [0, 0, 5, 6]])
    k = kernel_basis(m)
    free_cols = sorted({next(iter(v for v in vec if vec[v] == 1)) for vec in k.vectors})
    # each vector has coordinate 1 at its own free column, 0 at the others
    for vec in k.vectors:
        ones = [c for c in free_cols if vec.get(c, 0) == 1]
        assert len(ones) == 1
        for c in free_cols:
            if c != ones[0]:
                assert c not in vec


def test_qq_normalize_keeps_integers_as_ints():
    assert type(QQ.normalize(4)) is int and QQ.normalize(4) == 4
    assert type(QQ.normalize(Fraction(4, 2))) is int and QQ.normalize(Fraction(4, 2)) == 2
    assert type(QQ.normalize(Fraction(1, 2))) is Fraction
    m = SparseMatrix(QQ, 1, 3, {(0, 0): Fraction(6, 3), (0, 1): Fraction(1, 2), (0, 2): 5})
    assert [type(v) for v in m.entries.values()] == [int, Fraction, int]


def test_kernel_unchanged_by_integer_entries():
    # the kernel of a matrix with int entries equals, vector for vector and
    # key for key, the kernel of the same matrix with Fraction entries
    rng = SplitMix64(41)
    for nrows, ncols, density in RANDOM_SHAPES:
        m = random_sparse(rng, QQ, nrows, ncols, density)
        m.entries[(0, 0)] = Fraction(3, 7)
        assert any(type(v) is int for v in m.entries.values())
        as_fractions = SparseMatrix(QQ, nrows, ncols)
        as_fractions.entries = {k: Fraction(v) for k, v in m.entries.items()}
        got, ref = kernel_basis(m).vectors, kernel_basis(as_fractions).vectors
        assert got == ref
        assert [list(v) for v in got] == [list(v) for v in ref]
        assert all(type(x) is Fraction for v in got for x in v.values())


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
    a = SparseMatrix.identity(QQ, 2)
    b = SparseMatrix.identity(PrimeField(7), 2)
    with pytest.raises(FieldMismatchError):
        a.stack(b)
    u = SubspaceBasis(QQ, 2, [{0: Fraction(1)}])
    v = SubspaceBasis(PrimeField(7), 2, [{0: 1}])
    with pytest.raises(FieldMismatchError):
        intersect_subspaces([u, v])


def test_prime_field_validation():
    with pytest.raises(ValueError):
        PrimeField(8)
    gf = PrimeField(11)
    assert gf.normalize(Fraction(1, 2)) == 6


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
    for field in (QQ, PrimeField(101)):
        red = SpanReducer(field, 3, gens)
        assert red.span_rank == 2
        assert red.contains({0: 1, 1: 3, 2: 1})
        assert not red.contains({0: 1})
        assert red.contains({})
        for nrows, ncols, density in RANDOM_SHAPES:
            m = random_sparse(rng, field, nrows, ncols, density)
            rows = m.row_dicts()
            red = SpanReducer(field, ncols, rows)
            basis = SubspaceBasis(field, ncols, rref_vectors(field, ncols, rows))
            assert red.span_rank == basis.dim == rank(m)
            for _ in range(4):
                assert red.reduce(random_combination(rng, rows)) == {}
                query = random_query(rng, ncols)
                assert red.contains(query) == contains_vector(basis, query)


@pytest.mark.parametrize("field", [QQ, PrimeField(101)])
def test_span_reducer_is_pure(field):
    # reduce works on a fresh copy of its argument and never writes to the
    # echelon rows, so repeated and interleaved calls agree with a fresh
    # reducer
    rng = SplitMix64(41)
    for nrows, ncols, density in RANDOM_SHAPES:
        gens = random_sparse(rng, field, nrows, ncols, density).row_dicts()
        red = SpanReducer(field, ncols, gens)
        queries = [random_query(rng, ncols) for _ in range(4)]
        queries.append({c: Fraction(v, 3) for c, v in random_combination(rng, gens).items()})
        snapshot = [dict(q) for q in queries]
        first = [red.reduce(q) for q in queries]
        assert queries == snapshot
        assert [red.reduce(q) for q in queries] == first
        assert [SpanReducer(field, ncols, gens).reduce(q) for q in queries] == first


@pytest.mark.parametrize("field", [QQ, PrimeField(101)])
def test_elimination_leaves_inputs_unchanged(field):
    rng = SplitMix64(43)
    for nrows, ncols, density in RANDOM_SHAPES:
        m = random_sparse(rng, field, nrows, ncols, density)
        entries = dict(m.entries)
        rank(m)
        kernel_basis(m)
        assert m.entries == entries
        vectors = m.row_dicts() + [random_query(rng, ncols)]
        snapshot = [dict(v) for v in vectors]
        rref_vectors(field, ncols, vectors)
        SpanReducer(field, ncols, vectors)
        assert vectors == snapshot


def test_rref_is_canonical():
    vecs1 = [{0: Fraction(2), 1: Fraction(4)}, {1: Fraction(1), 2: Fraction(3)}]
    vecs2 = [{0: Fraction(1), 1: Fraction(2)}, {0: Fraction(1), 1: Fraction(3), 2: Fraction(3)}]
    assert rref_vectors(QQ, 3, vecs1) == rref_vectors(QQ, 3, vecs2)
