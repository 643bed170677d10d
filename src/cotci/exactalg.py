"""Exact sparse linear algebra over Q and prime fields F_p.

Everything here is exact: rationals are `fractions.Fraction`, prime-field
residues are ints in [0, p). The ground field of the geometric engine is Q;
kernel dimensions of matrices with rational entries agree over Q and over any
extension field (C included), which is why rational arithmetic suffices for
the cohomology computations downstream. F_p is used for finite-field scanning
and for fast cross-checks.

Elimination is fraction-free over Q: rows are cleared to integers and updated
by two-term integer combinations with per-row content stripping, with pivot
rows chosen by sparsity. All public operations are pure; inputs are never
mutated.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from math import gcd


class FieldMismatchError(ValueError):
    pass


class DimensionError(ValueError):
    pass


class RationalField:
    """The rationals; elements are ints or fractions.Fraction in lowest terms."""

    kind = "QQ"

    def normalize(self, x):
        f = Fraction(x)
        return f

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for all 64-bit integers."""
    if n < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % small == 0:
            return n == small
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """Residues mod a prime p, stored as ints in [0, p)."""

    kind = "Fp"

    def __init__(self, p: int):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p

    def normalize(self, x):
        if isinstance(x, Fraction):
            num, den = x.numerator % self.p, x.denominator % self.p
            if den == 0:
                raise ZeroDivisionError(f"denominator divisible by {self.p}")
            return num * pow(den, -1, self.p) % self.p
        return x % self.p

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))


QQ = RationalField()


def _check_same_field(a, b):
    if a != b:
        raise FieldMismatchError(f"mixed fields: {a!r} vs {b!r}")


def _mul_indexed(cols, vec, field) -> dict:
    """Product of the matrix with column index `cols` and a sparse vector."""
    out = {}
    for c, x in vec.items():
        if x == 0:
            continue
        for r, v in cols.get(c, ()):
            w = out.get(r, 0) + v * x
            if w:
                out[r] = w
            else:
                out.pop(r, None)
    if field.kind == "Fp":
        p = field.p
        out = {r: v % p for r, v in out.items() if v % p}
    return out


class SparseMatrix:
    """Immutable-by-convention sparse matrix; absent entries are zero."""

    __slots__ = ("field", "nrows", "ncols", "entries")

    def __init__(self, field, nrows: int, ncols: int, entries=None):
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self.entries = {}
        if entries:
            for (r, c), v in entries.items():
                v = field.normalize(v)
                if v != 0:
                    if not (0 <= r < nrows and 0 <= c < ncols):
                        raise DimensionError(f"entry ({r},{c}) outside {nrows}x{ncols}")
                    self.entries[(r, c)] = v

    @classmethod
    def from_rows(cls, field, rows):
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        ent = {}
        for r, row in enumerate(rows):
            if len(row) != ncols:
                raise DimensionError("ragged rows")
            for c, v in enumerate(row):
                if v:
                    ent[(r, c)] = v
        return cls(field, nrows, ncols, ent)

    @classmethod
    def identity(cls, field, n):
        return cls(field, n, n, {(i, i): 1 for i in range(n)})

    def row_dicts(self):
        rows = [dict() for _ in range(self.nrows)]
        for (r, c), v in self.entries.items():
            rows[r][c] = v
        return rows

    def col_lists(self):
        """Column index {c: [(r, v), ...]} over the nonzero columns, O(nnz)."""
        cols = {}
        for (r, c), v in self.entries.items():
            cols.setdefault(c, []).append((r, v))
        return cols

    def stack(self, other: "SparseMatrix") -> "SparseMatrix":
        """Vertical stack [self; other]."""
        _check_same_field(self.field, other.field)
        if self.ncols != other.ncols:
            raise DimensionError("column mismatch in stack")
        ent = dict(self.entries)
        for (r, c), v in other.entries.items():
            ent[(r + self.nrows, c)] = v
        return SparseMatrix(self.field, self.nrows + other.nrows, self.ncols, ent)

    def mul_vec(self, vec: dict) -> dict:
        """Matrix times one sparse column vector (dict coord -> value).

        One product: building the column index costs O(nnz) per call, so
        apply a matrix to many vectors with `apply_to_basis`."""
        return _mul_indexed(self.col_lists(), vec, self.field)

    def nnz(self):
        return len(self.entries)

    def __repr__(self):
        return f"SparseMatrix({self.field!r}, {self.nrows}x{self.ncols}, nnz={self.nnz()})"


@dataclass
class SubspaceBasis:
    """A list of linearly independent sparse vectors in a fixed ambient space."""

    field: object
    ambient_dim: int
    vectors: list = dc_field(default_factory=list)

    @property
    def dim(self):
        return len(self.vectors)


# ---------------------------------------------------------------------------
# elimination core


def _int_row(row: dict) -> dict:
    """Scale a rational row to coprime integers."""
    lcm = 1
    for v in row.values():
        if isinstance(v, Fraction):
            d = v.denominator
            lcm = lcm // gcd(lcm, d) * d
    out = {}
    for c, v in row.items():
        w = int(v * lcm) if isinstance(v, Fraction) else v * lcm
        if w:
            out[c] = w
    g = 0
    for v in out.values():
        g = gcd(g, v)
        if g == 1:
            return out
    if g > 1:
        out = {c: v // g for c, v in out.items()}
    return out


def _strip_content(row: dict) -> dict:
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return row
    if g > 1:
        return {c: v // g for c, v in row.items()}
    return row


def _eliminate(rows, ncols, field, reduce=True):
    """In-place row echelon with leftmost pivot columns and sparsest-row pivots.

    Returns the pivot list [(col, row_index), ...] in column order. With
    reduce=True pivot columns are cleared from the other pivot rows as well,
    so the pivot rows form a (scaled) reduced echelon system. The result is
    the canonical RREF profile: pivot columns are the leftmost independent
    ones regardless of the pivot-row choice.
    """
    modp = field.kind == "Fp"
    p = field.p if modp else None
    colrows = {}
    for i, row in enumerate(rows):
        for c in row:
            colrows.setdefault(c, set()).add(i)
    pivots = []
    for col in range(ncols):
        cand = colrows.get(col)
        if not cand:
            continue
        r = min(cand, key=lambda i: (len(rows[i]), i))
        pivots.append((col, r))
        prow = rows[r]
        for c in prow:
            colrows[c].discard(r)
        plead = prow[col]
        if modp and plead != 1:
            inv = pow(plead, -1, p)
            rows[r] = prow = {c: v * inv % p for c, v in prow.items()}
            plead = 1
        for t in list(cand):
            trow = rows[t]
            f = trow.get(col)
            if not f:
                continue
            if modp:
                new = dict(trow)
                for c, v in prow.items():
                    w = (new.get(c, 0) - f * v) % p
                    if w:
                        new[c] = w
                    else:
                        new.pop(c, None)
            else:
                g = gcd(plead, f)
                a, b = plead // g, f // g
                if a == 1:
                    new = dict(trow)
                else:
                    new = {c: a * v for c, v in trow.items()}
                for c, v in prow.items():
                    w = new.get(c, 0) - b * v
                    if w:
                        new[c] = w
                    else:
                        new.pop(c, None)
                new = _strip_content(new)
            for c in trow:
                if c not in new:
                    colrows[c].discard(t)
            for c in new:
                if c not in trow:
                    colrows.setdefault(c, set()).add(t)
            rows[t] = new
    if reduce and pivots:
        pivrows = {r for _, r in pivots}
        colpiv = {}
        for _, r in pivots:
            for c in rows[r]:
                colpiv.setdefault(c, set()).add(r)
        for col, r in reversed(pivots):
            prow = rows[r]
            plead = prow[col]
            for t in list(colpiv.get(col, ())):
                if t == r or t not in pivrows:
                    continue
                trow = rows[t]
                f = trow.get(col)
                if not f:
                    continue
                if modp:
                    new = dict(trow)
                    for c, v in prow.items():
                        w = (new.get(c, 0) - f * v) % p
                        if w:
                            new[c] = w
                        else:
                            new.pop(c, None)
                else:
                    g = gcd(plead, f)
                    a, b = plead // g, f // g
                    if a == 1:
                        new = dict(trow)
                    else:
                        new = {c: a * v for c, v in trow.items()}
                    for c, v in prow.items():
                        w = new.get(c, 0) - b * v
                        if w:
                            new[c] = w
                        else:
                            new.pop(c, None)
                    new = _strip_content(new)
                for c in trow:
                    if c not in new:
                        colpiv[c].discard(t)
                for c in new:
                    if c not in trow:
                        colpiv.setdefault(c, set()).add(t)
                rows[t] = new
    return pivots


def _prepared_rows(matrix: SparseMatrix):
    rows = matrix.row_dicts()
    if matrix.field.kind == "QQ":
        return [_int_row(r) for r in rows]
    p = matrix.field.p
    return [{c: v % p for c, v in r.items() if v % p} for r in rows]


def rank(matrix: SparseMatrix) -> int:
    """Rank over the matrix's field."""
    rows = _prepared_rows(matrix)
    return len(_eliminate(rows, matrix.ncols, matrix.field, reduce=False))


def kernel_basis(matrix: SparseMatrix) -> SubspaceBasis:
    """Basis of the right kernel {v : Mv = 0}, dim = ncols - rank.

    The returned vectors are the canonical special solutions read off the
    reduced echelon form: vector k has coordinate 1 at its own free column
    and 0 at every other free column, so the basis is reproducible
    bit-for-bit and already in reduced form over the free coordinates.

    A reduced pivot row holds its pivot column and free columns only, so the
    vectors are filled in one walk over the pivot rows: past the elimination
    the cost is linear in the nnz of the reduced pivot rows.
    """
    rows = _prepared_rows(matrix)
    pivots = _eliminate(rows, matrix.ncols, matrix.field, reduce=True)
    pivot_cols = {c for c, _ in pivots}
    modp = matrix.field.kind == "Fp"
    p = matrix.field.p if modp else None
    one = 1 if modp else Fraction(1)
    by_free = {f: {f: one} for f in range(matrix.ncols) if f not in pivot_cols}
    for c, r in pivots:
        lead = rows[r][c]
        for f, w in rows[r].items():
            vec = by_free.get(f)
            if vec is not None:
                vec[c] = -w * pow(lead, -1, p) % p if modp else Fraction(-w, lead)
    return SubspaceBasis(matrix.field, matrix.ncols, list(by_free.values()))


def rref_vectors(field, ambient_dim, vectors) -> list:
    """Canonical reduced row echelon form of the span of the given vectors.

    Unique for the subspace: leftmost pivot columns, leading coefficient 1,
    pivot columns cleared elsewhere, rows ordered by pivot column.
    """
    if field.kind == "QQ":
        rows = [_int_row(dict(v)) for v in vectors]
    else:
        p = field.p
        rows = [{c: x % p for c, x in v.items() if x % p} for v in vectors]
    pivots = _eliminate(rows, ambient_dim, field, reduce=True)
    out = []
    for c, r in pivots:
        row = rows[r]
        lead = row[c]
        if field.kind == "QQ":
            out.append({k: Fraction(v, lead) for k, v in row.items()})
        else:
            inv = pow(lead, -1, field.p)
            out.append({k: v * inv % field.p for k, v in row.items()})
    return out


def image_basis(matrix: SparseMatrix) -> SubspaceBasis:
    """Canonical basis (RREF) of the column space; dim = rank."""
    cols = [dict() for _ in range(matrix.ncols)]
    for (r, c), v in matrix.entries.items():
        cols[c][r] = v
    vecs = rref_vectors(matrix.field, matrix.nrows, [c for c in cols if c])
    return SubspaceBasis(matrix.field, matrix.nrows, vecs)


def intersect_subspaces(spaces) -> SubspaceBasis:
    """Intersection of subspaces, via the kernel of the stacked membership system.

    Solves B_1 x_1 = B_i x_i for all i simultaneously in one elimination pass
    and returns the canonical RREF basis of {B_1 x_1}, so the result depends
    only on the subspaces and not on the input basis choices.
    """
    spaces = list(spaces)
    if not spaces:
        raise DimensionError("empty intersection list")
    field = spaces[0].field
    n = spaces[0].ambient_dim
    for s in spaces[1:]:
        _check_same_field(field, s.field)
        if s.ambient_dim != n:
            raise DimensionError(f"ambient dims differ: {n} vs {s.ambient_dim}")
    if len(spaces) == 1:
        return SubspaceBasis(field, n, rref_vectors(field, n, spaces[0].vectors))
    dims = [s.dim for s in spaces]
    if min(dims) == 0:
        return SubspaceBasis(field, n, [])
    offsets = [0]
    for d in dims:
        offsets.append(offsets[-1] + d)
    ent = {}
    k = len(spaces)
    for blk in range(k - 1):
        base = blk * n
        for j, vec in enumerate(spaces[0].vectors):
            for coord, v in vec.items():
                ent[(base + coord, j)] = v
        for j, vec in enumerate(spaces[blk + 1].vectors):
            for coord, v in vec.items():
                ent[(base + coord, offsets[blk + 1] + j)] = -v
    stacked = SparseMatrix(field, (k - 1) * n, offsets[-1], ent)
    ker = kernel_basis(stacked)
    first = spaces[0].vectors
    produced = []
    for x in ker.vectors:
        vec = {}
        for j, coeff in x.items():
            if j >= dims[0]:
                continue
            for coord, v in first[j].items():
                w = vec.get(coord, 0) + coeff * v
                if w:
                    vec[coord] = w
                else:
                    vec.pop(coord, None)
        if field.kind == "Fp":
            p = field.p
            vec = {c: v % p for c, v in vec.items() if v % p}
        if vec:
            produced.append(vec)
    return SubspaceBasis(field, n, rref_vectors(field, n, produced))


def apply_to_basis(matrix: SparseMatrix, basis: SubspaceBasis) -> SparseMatrix:
    """Matrix whose columns are M b_j for the basis vectors b_j.

    The way to apply one matrix to many vectors: the column index is built
    once, in O(nnz), and each product touches only its vector's columns."""
    _check_same_field(matrix.field, basis.field)
    if matrix.ncols != basis.ambient_dim:
        raise DimensionError("matrix/basis dimension mismatch")
    cols = matrix.col_lists()
    ent = {}
    for j, vec in enumerate(basis.vectors):
        img = _mul_indexed(cols, vec, matrix.field)
        for r, v in img.items():
            ent[(r, j)] = v
    return SparseMatrix(matrix.field, matrix.nrows, basis.dim, ent)


def combine_basis(basis: SubspaceBasis, coeffs: SubspaceBasis) -> SubspaceBasis:
    """New basis {sum_j x_j b_j : x in coeffs} in the ambient of `basis`."""
    _check_same_field(basis.field, coeffs.field)
    if coeffs.ambient_dim != basis.dim:
        raise DimensionError("coefficient length mismatch")
    modp = basis.field.kind == "Fp"
    p = basis.field.p if modp else None
    vectors = []
    for x in coeffs.vectors:
        vec = {}
        for j, coeff in x.items():
            for coord, v in basis.vectors[j].items():
                w = vec.get(coord, 0) + coeff * v
                if w:
                    vec[coord] = w
                else:
                    vec.pop(coord, None)
        if modp:
            vec = {c: v % p for c, v in vec.items() if v % p}
        vectors.append(vec)
    return SubspaceBasis(basis.field, basis.ambient_dim, vectors)


def subspace_dim_of_sum(a: SubspaceBasis, b: SubspaceBasis) -> int:
    """dim(A + B), by one rank computation on stacked generators."""
    _check_same_field(a.field, b.field)
    if a.ambient_dim != b.ambient_dim:
        raise DimensionError("ambient mismatch")
    ent = {}
    for i, vec in enumerate(a.vectors + b.vectors):
        for c, v in vec.items():
            ent[(i, c)] = v
    m = SparseMatrix(a.field, a.dim + b.dim, a.ambient_dim, ent)
    return rank(m)


def subspace_equal(a: SubspaceBasis, b: SubspaceBasis) -> bool:
    """Equality as subspaces, tested by mutual containment via ranks."""
    if a.dim != b.dim:
        return False
    return subspace_dim_of_sum(a, b) == a.dim


def contains_vector(basis: SubspaceBasis, vec: dict) -> bool:
    """Whether vec lies in the span of the basis."""
    if not vec:
        return True
    aug = SubspaceBasis(basis.field, basis.ambient_dim, basis.vectors + [dict(vec)])
    ent = {}
    for i, v in enumerate(aug.vectors):
        for c, x in v.items():
            ent[(i, c)] = x
    m = SparseMatrix(basis.field, aug.dim, basis.ambient_dim, ent)
    return rank(m) == basis.dim


class SpanReducer:
    """Echelonize a fixed generating set once, then test membership of many
    query vectors against the span by reduction. Exact over Q or F_p."""

    def __init__(self, field, ncols, generators):
        self.field = field
        self.ncols = ncols
        if field.kind == "QQ":
            rows = [_int_row(dict(g)) for g in generators]
        else:
            p = field.p
            rows = [{c: v % p for c, v in g.items() if v % p} for g in generators]
        self._pivots = _eliminate(rows, ncols, field, reduce=False)
        self._rows = rows

    @property
    def span_rank(self):
        return len(self._pivots)

    def reduce(self, vec: dict) -> dict:
        """Residual of vec after reduction against the echelon rows."""
        if self.field.kind == "QQ":
            cur = _int_row(dict(vec))
        else:
            p = self.field.p
            cur = {c: v % p for c, v in vec.items() if v % p}
        for col, r in self._pivots:
            f = cur.get(col)
            if not f:
                continue
            prow = self._rows[r]
            plead = prow[col]
            if self.field.kind == "Fp":
                p = self.field.p
                scale = f * pow(plead, -1, p) % p
                for c, v in prow.items():
                    w = (cur.get(c, 0) - scale * v) % p
                    if w:
                        cur[c] = w
                    else:
                        cur.pop(c, None)
            else:
                g = gcd(plead, f)
                a, b = plead // g, f // g
                if a != 1:
                    cur = {c: a * v for c, v in cur.items()}
                for c, v in prow.items():
                    w = cur.get(c, 0) - b * v
                    if w:
                        cur[c] = w
                    else:
                        cur.pop(c, None)
                cur = _strip_content(cur)
        return cur

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)
