"""Monomial model of top cohomology of twisted tilde-cotangent powers on P^N.

H^N(P^N, Omega~^{(l_1..l_k)}(a)) is spanned by tensors dZ^{J_1} x ... x dZ^{J_k} / Z^I
with |J_j| = l_j, every entry of I at least 1 and |I| = l_1 + ... + l_k - a.
This module enumerates that basis in a canonical order and writes the three
families of linear maps on it: multiplication by a polynomial,
multiplication by the differential of a polynomial acting on one tensor
factor, and the Euler contraction of one tensor factor. Each family is one
rule (`MapRule`), a combination of coefficient-free monomial shifts, from
which both its sparse matrix and its action on a single class are derived.
A shift's sparsity table is cached with the bases for one command, so maps
that share monomials share their tables.

A product monomial whose denominator exponent drops to 0 or below is the zero
class (it is a coboundary); that truncation rule is applied uniformly and is
validated by the plane-curve identities in the test suite.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import comb
from typing import NamedTuple

from .exactalg import QQ, SparseMatrix
from .poly import HomogPoly, compositions, grevlex_key

DEFAULT_BASIS_CAP = 5_000_000


class BasisCapExceeded(RuntimeError):
    pass


@dataclass(frozen=True)
class CohomSpace:
    ambient_N: int
    factor_degrees: tuple  # (l_1, ..., l_k), non-negative
    twist: int             # the a in O(a)

    def __post_init__(self):
        if any(l < 0 for l in self.factor_degrees):
            raise ValueError("factor degrees must be non-negative")

    @property
    def k(self):
        return len(self.factor_degrees)

    @property
    def denominator_weight(self):
        return sum(self.factor_degrees) - self.twist

    def dim(self) -> int:
        N = self.ambient_N
        w = self.denominator_weight
        if w < N + 1:
            return 0
        d = comb(w - 1, N)
        for l in self.factor_degrees:
            d *= comb(l + N, N)
        return d

    def is_zero(self) -> bool:
        return self.dim() == 0

    def __str__(self):
        ls = ",".join(str(l) for l in self.factor_degrees)
        return f"H^{self.ambient_N}(Omega~^({ls})({self.twist}))"


def _denominator_exponents(N, weight):
    """All I with N+1 entries >= 1 summing to `weight`, canonical order."""
    inner = compositions(weight - (N + 1), N + 1)
    # adding 1 to every entry keeps grevlex order
    return [tuple(v + 1 for v in t) for t in inner]


# Bases (keyed by space), their index maps (("index", space)) and shift
# tables (("shift", source, target, shift)); `cli.run` empties it when a
# command ends.
_basis_cache: dict = {}


def check_cap(space: CohomSpace, cap: int = DEFAULT_BASIS_CAP) -> None:
    """Raise BasisCapExceeded when the basis of `space` is larger than `cap`."""
    d = space.dim()
    if d > cap:
        raise BasisCapExceeded(f"basis size {d} exceeds cap {cap}")


def basis_enumerate(space: CohomSpace, cap: int = DEFAULT_BASIS_CAP):
    """Ordered basis as tuples (J_1, ..., J_k, I); deterministic order."""
    check_cap(space, cap)
    cached = _basis_cache.get(space)
    if cached is not None:
        return cached
    N = space.ambient_N
    if space.is_zero():
        _basis_cache[space] = []
        return []
    factor_lists = [compositions(l, N + 1) for l in space.factor_degrees]
    denom = _denominator_exponents(N, space.denominator_weight)
    elements = []

    def rec(prefix, idx):
        if idx == len(factor_lists):
            for I in denom:
                elements.append(prefix + (I,))
            return
        for J in factor_lists[idx]:
            rec(prefix + (J,), idx + 1)

    rec((), 0)
    _basis_cache[space] = elements
    return elements


def basis_index(space: CohomSpace, cap: int = DEFAULT_BASIS_CAP) -> dict:
    key = ("index", space)
    cached = _basis_cache.get(key)
    if cached is None:
        cached = {el: i for i, el in enumerate(basis_enumerate(space, cap))}
        _basis_cache[key] = cached
    return cached


@dataclass(frozen=True)
class CohomMap:
    """A sparse matrix together with its source and target spaces."""

    kind: str
    matrix: SparseMatrix
    source: CohomSpace
    target: CohomSpace
    label: str = ""

    def rank_data(self, rank_value=None):
        return {
            "kind": self.kind,
            "label": self.label,
            "source_dim": self.source.dim(),
            "target_dim": self.target.dim(),
            "rank": rank_value,
        }


class _Shift(NamedTuple):
    """One coefficient-free term T of a map family: multiplication by the
    monomial Z^M and, when `step` is not 0, by dZ_m on tensor factor `factor`
    (0-based): `step` 1 appends dZ_m, `step` -1 is the Euler contraction of
    dZ_m, with multiplicity J_m. `support` lists the (i, M_i) with M_i > 0.

    A denominator I survives the division by Z^M exactly when I_i > M_i on the
    support of M, since every I_i is at least 1, and only those entries of I
    change; otherwise the image is the zero class.
    """

    support: tuple
    factor: int = 0
    m: int = 0
    step: int = 0

    def targets(self, elements) -> list:
        """Per element, its image basis element, or None for the zero class."""
        support, j, m, step = self
        out = []
        append = out.append
        for el in elements:
            I = el[-1]
            for i, k in support:
                if I[i] <= k:
                    append(None)
                    break
            else:
                Inew = list(I)
                for i, k in support:
                    Inew[i] -= k
                if not step:
                    append(el[:-1] + (tuple(Inew),))
                    continue
                J = el[j]
                if J[m] + step < 0:
                    append(None)
                    continue
                Jnew = J[:m] + (J[m] + step,) + J[m + 1 :]
                append(el[:j] + (Jnew,) + el[j + 1 : -1] + (tuple(Inew),))
        return out

    def multiplicities(self, elements):
        """Per element, the factor its image carries: J_m for a contraction;
        None when it is 1 for every element."""
        if self.step >= 0:
            return None
        j, m = self.factor, self.m
        return [el[j][m] for el in elements]


def _shift_table(source: CohomSpace, target: CohomSpace, shift: _Shift, cap):
    """Sparsity pattern of one shift from `source` to `target`: the (row, col)
    keys of the source elements whose image is not the zero class, in column
    order, and their multiplicities (None when all are 1).

    Cached for the command run with the bases, without the coefficient, so
    every map that contains the shift (the equations of one system share
    their monomials) reuses one list of key tuples.
    """
    key = ("shift", source, target, shift)
    table = _basis_cache.get(key)
    if table is None:
        source_basis = basis_enumerate(source, cap)
        tindex = basis_index(target, cap)
        targets = shift.targets(source_basis)
        keys = [(tindex[t], col) for col, t in enumerate(targets) if t is not None]
        mults = shift.multiplicities(source_basis)
        if mults is not None:
            mults = [w for w, t in zip(mults, targets) if t is not None]
        table = (keys, mults)
        _basis_cache[key] = table
    return table


@dataclass(frozen=True)
class MapRule:
    """One linear map on the monomial bases, written as the combination
    sum_s c_s T_s of coefficient-free shifts: `shifts` lists the (c_s, T_s)
    pairs, and no two shifts send one element to the same target.

    `assemble` builds the sparse matrix of the map from the cached table of
    each shift and `act` applies it to a class; both read `shifts`, so a map
    family is written once. `describe` gives the label text; it is called
    only when the label is read, so a class action does no string work.
    """

    kind: str
    source: CohomSpace
    target: CohomSpace
    shifts: tuple
    describe: Callable

    @property
    def label(self) -> str:
        return self.describe()

    def terms(self, el) -> list:
        """The (target element, coefficient) terms of the image of `el`."""
        out = []
        for c, shift in self.shifts:
            (t,) = shift.targets((el,))
            if t is not None:
                mults = shift.multiplicities((el,))
                out.append((t, c if mults is None else c * mults[0]))
        return out

    def assemble(self, cap=DEFAULT_BASIS_CAP) -> CohomMap:
        # checked here too: a cached table or a map with no shifts reads no basis
        check_cap(self.source, cap)
        check_cap(self.target, cap)
        # one shift at a time: no result depends on the order of the entries
        entries = {}
        for c, shift in self.shifts:
            keys, mults = _shift_table(self.source, self.target, shift, cap)
            entries.update(zip(keys, repeat(c) if mults is None else [c * w for w in mults]))
        matrix = SparseMatrix._adopt(QQ, self.target.dim(), self.source.dim(), entries)
        return CohomMap(self.kind, matrix, self.source, self.target, self.label)

    def act(self, cls: "CohomClass") -> "CohomClass":
        terms = self.terms
        out = {}
        for el, c in cls.coeffs.items():
            for tel, coeff in terms(el):
                w = out.get(tel, 0) + c * coeff
                if w:
                    out[tel] = w
                else:
                    del out[tel]
        return CohomClass(self.target, out)


def _check_poly(space, f: HomogPoly):
    if f.nvars != space.ambient_N + 1:
        raise ValueError(
            f"polynomial in {f.nvars} variables does not match P^{space.ambient_N}"
        )


def _check_factor(space, factor):
    if not 1 <= factor <= space.k:
        raise ValueError(f"factor index {factor} out of range 1..{space.k}")


def _monomial_terms(f: HomogPoly):
    """(coefficient, support of M) per term c*Z^M of f, the support as
    (i, M_i) pairs; integral coefficients become ints."""
    return [
        (QQ.normalize(c), tuple((i, m) for i, m in enumerate(M) if m))
        for M, c in f.terms.items()
    ]


def mul_poly_rule(space: CohomSpace, f: HomogPoly) -> MapRule:
    """Multiplication by f into the twist raised by deg f: one shift per
    monomial of f. A term 1/Z^{I-M} survives only when every entry of I-M
    stays >= 1.
    """
    _check_poly(space, f)
    target = CohomSpace(space.ambient_N, space.factor_degrees, space.twist + f.degree)
    shifts = tuple((c, _Shift(support)) for c, support in _monomial_terms(f))
    return MapRule("mulF", space, target, shifts, lambda: f"*({f.to_text()})"[:60])


def mul_dpoly_rule(space: CohomSpace, f: HomogPoly, factor: int) -> MapRule:
    """Multiplication by df acting on tensor factor `factor` (1-based).

    df = sum_m (df/dZ_m) dZ_m; each monomial of each partial multiplies the
    denominator and appends dZ_m to the chosen factor, with the same
    truncation rule. The partials are taken once, here.
    """
    _check_poly(space, f)
    _check_factor(space, factor)
    j = factor - 1
    degs = list(space.factor_degrees)
    degs[j] += 1
    target = CohomSpace(space.ambient_N, tuple(degs), space.twist + f.degree)
    shifts = []
    for m in range(f.nvars):
        for c, support in _monomial_terms(f.partial_derivative(m)):
            shifts.append((c, _Shift(support, j, m, 1)))
    return MapRule(
        "muldF", space, target, tuple(shifts), lambda: f"*d({f.to_text()})@{factor}"[:60]
    )


def euler_contraction_rule(space: CohomSpace, factor: int) -> MapRule:
    """The Euler contraction dZ_i -> Z_i on tensor factor `factor`.

    On monomials: dZ^J -> sum_i J_i dZ^{J - delta_i} with denominator I - delta_i,
    zero class when an exponent drops below 1: shift i with multiplicity J_i.
    Surjective onto the target at top cohomology, which the tests assert
    through rank = dim(target).
    """
    _check_factor(space, factor)
    j = factor - 1
    if space.factor_degrees[j] < 1:
        raise ValueError("cannot contract a degree-0 factor")
    degs = list(space.factor_degrees)
    degs[j] -= 1
    target = CohomSpace(space.ambient_N, tuple(degs), space.twist)
    shifts = tuple((1, _Shift(((i, 1),), j, i, -1)) for i in range(space.ambient_N + 1))
    return MapRule("contraction", space, target, shifts, lambda: f"c_{factor}")


def mul_poly_matrix(space: CohomSpace, f: HomogPoly, cap=DEFAULT_BASIS_CAP) -> CohomMap:
    """Matrix of multiplication by f (see `mul_poly_rule`)."""
    return mul_poly_rule(space, f).assemble(cap)


def mul_dpoly_matrix(
    space: CohomSpace, f: HomogPoly, factor: int, cap=DEFAULT_BASIS_CAP
) -> CohomMap:
    """Matrix of multiplication by df on one tensor factor (see `mul_dpoly_rule`)."""
    return mul_dpoly_rule(space, f, factor).assemble(cap)


def euler_contraction_matrix(
    space: CohomSpace, factor: int, cap=DEFAULT_BASIS_CAP
) -> CohomMap:
    """Matrix of the Euler contraction of one tensor factor
    (see `euler_contraction_rule`)."""
    return euler_contraction_rule(space, factor).assemble(cap)


# ---------------------------------------------------------------------------
# classes (sparse vectors over the monomial basis)


class CohomClass:
    """Sparse element of a CohomSpace, keyed by basis tuples."""

    __slots__ = ("space", "coeffs")

    def __init__(self, space: CohomSpace, coeffs=None):
        self.space = space
        self.coeffs = {}
        if coeffs:
            for el, c in coeffs.items():
                if not c:
                    continue
                self._validate(el)
                self.coeffs[el] = c

    def _validate(self, el):
        space = self.space
        if len(el) != space.k + 1:
            raise ValueError("element arity does not match the space")
        for J, l in zip(el[:-1], space.factor_degrees):
            if sum(J) != l or len(J) != space.ambient_N + 1:
                raise ValueError(f"factor exponent {J} invalid for degree {l}")
        I = el[-1]
        if (
            len(I) != space.ambient_N + 1
            or min(I) < 1
            or sum(I) != space.denominator_weight
        ):
            raise ValueError(f"denominator exponent {I} not in the space")

    def is_zero(self):
        return not self.coeffs

    def items(self):
        return sorted(
            self.coeffs.items(),
            key=lambda kv: tuple(x for part in kv[0] for x in grevlex_key(part)),
        )

    def to_rows(self):
        return [
            {
                "factors": [list(J) for J in el[:-1]],
                "denominator": list(el[-1]),
                "coefficient": str(Fraction(c)),
            }
            for el, c in self.items()
        ]

    def to_text(self):
        if self.is_zero():
            return "0"
        chunks = []
        for el, c in self.items():
            dzs = "".join(
                "dZ^" + "".join(str(v) for v in J) + " " for J in el[:-1]
            ).strip()
            den = "Z^" + "".join(str(v) for v in el[-1])
            chunks.append(f"{Fraction(c)} * {dzs}/{den}" if dzs else f"{Fraction(c)} * 1/{den}")
        return "  +  ".join(chunks)


def apply_poly(cls: CohomClass, f: HomogPoly) -> CohomClass:
    """Multiplication by f on a single class (no matrix materialized)."""
    return mul_poly_rule(cls.space, f).act(cls)


def apply_dpoly(cls: CohomClass, f: HomogPoly, factor: int) -> CohomClass:
    """Multiplication by df on one tensor factor of a single class."""
    return mul_dpoly_rule(cls.space, f, factor).act(cls)


def apply_contraction(cls: CohomClass, factor: int) -> CohomClass:
    """The Euler contraction of one tensor factor on a single class."""
    return euler_contraction_rule(cls.space, factor).act(cls)
