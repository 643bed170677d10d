"""Monomial model of top cohomology of twisted tilde-cotangent powers on P^N.

H^N(P^N, Omega~^{(l_1..l_k)}(a)) is spanned by tensors dZ^{J_1} x ... x dZ^{J_k} / Z^I
with |J_j| = l_j, every entry of I at least 1 and |I| = l_1 + ... + l_k - a.
This module enumerates that basis in a canonical order and writes the three
families of linear maps on it: multiplication by a polynomial,
multiplication by the differential of a polynomial acting on one tensor
factor, and the Euler contraction of one tensor factor. Each family is one
rule (`MapRule`), a combination of coefficient-free monomial shifts, from
which both its sparse matrix (to compute) and its action on a single class
(to re-check) are derived.
A shift's sparsity table is cached with the bases for one command, so maps
that share monomials share their tables. A table is pulled back from the
target through the product structure of the bases, without listing one.

A product monomial whose denominator exponent drops to 0 or below is the zero
class (it is a coboundary); that truncation rule is applied uniformly and is
validated by the plane-curve identities in the test suite.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from itertools import product, repeat
from math import comb, prod
from os import environ
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


# Bases (keyed by space), their index maps (("index", space)) and shift
# tables (("shift", source, target, shift)); `cli.run` empties it when a
# command ends.
_basis_cache: dict = {}


def basis_cap() -> int:
    """The largest basis any enumeration may list: `COTCI_CAP` when it is set
    and not empty, else DEFAULT_BASIS_CAP. The one reader of `COTCI_CAP`; a
    malformed value raises ValueError."""
    value = environ.get("COTCI_CAP")
    return int(value) if value else DEFAULT_BASIS_CAP


def check_cap(space: CohomSpace) -> None:
    """Raise BasisCapExceeded when the basis of `space` is larger than
    `basis_cap()`; every enumeration, assembly and class-action re-check of a
    space calls it, so one value bounds them all."""
    d = space.dim()
    cap = basis_cap()
    if d > cap:
        raise BasisCapExceeded(f"basis size {d} exceeds cap {cap}")


def basis_enumerate(space: CohomSpace):
    """Ordered basis as tuples (J_1, ..., J_k, I): J_1 outermost, then ...
    J_k, then I, each list in grevlex order; deterministic."""
    check_cap(space)
    cached = _basis_cache.get(space)
    if cached is None:
        N = space.ambient_N
        factor_lists = [compositions(l, N + 1) for l in space.factor_degrees]
        denominators = compositions(space.denominator_weight, N + 1, least=1)
        cached = [(*Js, I) for Js in product(*factor_lists) for I in denominators]
        _basis_cache[space] = cached
    return cached


def basis_index(space: CohomSpace) -> dict:
    key = ("index", space)
    cached = _basis_cache.get(key)
    if cached is None:
        cached = {el: i for i, el in enumerate(basis_enumerate(space))}
        _basis_cache[key] = cached
    return cached


class CohomMap(NamedTuple):
    """An assembled map: the rule that describes it and its sparse matrix."""

    rule: MapRule
    matrix: SparseMatrix


class _Shift(NamedTuple):
    """One coefficient-free term T of a map family: multiplication by the
    monomial Z^M and, when `step` is not 0, by dZ_m on tensor factor `factor`
    (0-based): `step` 1 appends dZ_m, `step` -1 is the Euler contraction of
    dZ_m, with multiplicity J_m. `support` lists the (i, M_i) with M_i > 0.

    A denominator I survives the division by Z^M exactly when I_i > M_i on the
    support of M, since every I_i is at least 1, and only those entries of I
    change; otherwise the image is the zero class. `image` reads a shift
    forward, one element at a time; `_shift_table` reads it back from the
    target, for a whole basis.
    """

    support: tuple
    factor: int = 0
    m: int = 0
    step: int = 0

    def image(self, el):
        """(target element, multiplicity) of the basis element `el`, or None
        for the zero class."""
        support, j, m, step = self
        I = list(el[-1])
        for i, k in support:
            if I[i] <= k:
                return None
            I[i] -= k
        if not step:
            return el[:-1] + (tuple(I),), 1
        J = el[j]
        if J[m] + step < 0:
            return None
        Jnew = J[:m] + (J[m] + step,) + J[m + 1 :]
        return el[:j] + (Jnew,) + el[j + 1 : -1] + (tuple(I),), 1 if step > 0 else J[m]


def _shift_table(source: CohomSpace, target: CohomSpace, shift: _Shift):
    """Sparsity pattern of one shift from `source` to `target`: the (row, col)
    keys of the source elements whose image is not the zero class, in column
    order (rows increase too), and their multiplicities (None when all are 1).

    Built from the product structure of the bases and pulled back from the
    target. `basis_enumerate` puts J_1 outermost, then ... J_k, then I, so an
    element's index is combo(J_1..J_k) * n_I + idx(I), with combo the mixed
    radix over the factor lists. A shift changes the denominator and at most
    factor j. Every target denominator I' has the one preimage I' + M, which
    survives. A target J' of factor j has the preimage J' - delta_m when
    J'_m >= 1 (step 1), and always J' + delta_m, of multiplicity J'_m + 1
    (step -1). Both translations keep the order of the lists. Cost: O(target
    denominators) index lookups plus O(nnz) integer arithmetic; no list or
    index of a product basis is built.

    Cached for the command run with the bases, without the coefficient, so
    every map that contains the shift (the equations of one system share
    their monomials) reuses one list of key tuples.
    """
    key = ("shift", source, target, shift)
    table = _basis_cache.get(key)
    if table is not None:
        return table
    support, j, m, step = shift
    N = source.ambient_N
    # the denominators are the bases of H^N(P^N, O(-w))
    tden = basis_enumerate(CohomSpace(N, (), -target.denominator_weight))
    sden = basis_index(CohomSpace(N, (), -source.denominator_weight))
    imap = []
    for (I,) in tden:
        I = list(I)
        for i, k in support:
            I[i] += k
        imap.append(sden[(tuple(I),)])
    nt, ns = len(tden), len(sden)
    # (target combo, source combo, multiplicity) in the order of both
    sizes = [comb(l + N, N) for l in source.factor_degrees]
    if step:
        sJ = {J: b for b, J in enumerate(compositions(source.factor_degrees[j], N + 1))}
        tJ = compositions(target.factor_degrees[j], N + 1)
        jmap = [
            (a, sJ[J[:m] + (J[m] - step,) + J[m + 1 :]], J[m] - step)
            for a, J in enumerate(tJ)
            if J[m] >= step
        ]
        outer, inner = prod(sizes[:j]), prod(sizes[j + 1 :])
        tj, sj = len(tJ), sizes[j]
        combos = [
            ((o * tj + a) * inner + q, (o * sj + b) * inner + q, w)
            for o in range(outer)
            for a, b, w in jmap
            for q in range(inner)
        ]
    else:
        combos = [(c, c, 1) for c in range(prod(sizes))]
    keys, mults = [], [] if step < 0 else None
    for tc, sc, w in combos:
        keys += zip(range(tc * nt, tc * nt + nt), map((sc * ns).__add__, imap))
        if mults is not None:
            mults += repeat(w, nt)
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
    family is written once, read back from the target by `_shift_table` and
    forward by `_Shift.image`, so the action re-checks what the matrix gave.
    `describe` gives the label text; it is called only when the label is
    read, so a class action does no string work.
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
            image = shift.image(el)
            if image is not None:
                t, w = image
                out.append((t, c * w))
        return out

    def assemble(self) -> CohomMap:
        # checked here too: a cached table or a map with no shifts reads no basis
        check_cap(self.source)
        check_cap(self.target)
        # one shift at a time: no result depends on the order of the entries
        entries = {}
        for c, shift in self.shifts:
            keys, mults = _shift_table(self.source, self.target, shift)
            entries.update(zip(keys, repeat(c) if mults is None else [c * w for w in mults]))
        return CohomMap(self, SparseMatrix._adopt(QQ, self.target.dim(), self.source.dim(), entries))

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


def mul_poly_matrix(space: CohomSpace, f: HomogPoly) -> CohomMap:
    """Matrix of multiplication by f (see `mul_poly_rule`)."""
    return mul_poly_rule(space, f).assemble()


def mul_dpoly_matrix(space: CohomSpace, f: HomogPoly, factor: int) -> CohomMap:
    """Matrix of multiplication by df on one tensor factor (see `mul_dpoly_rule`)."""
    return mul_dpoly_rule(space, f, factor).assemble()


def euler_contraction_matrix(space: CohomSpace, factor: int) -> CohomMap:
    """Matrix of the Euler contraction of one tensor factor
    (see `euler_contraction_rule`)."""
    return euler_contraction_rule(space, factor).assemble()


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


def residue_class(space: CohomSpace, P: HomogPoly, r: int) -> CohomClass:
    """The residue class P/(Z_0...Z_N)^r tensored with (Z_0 dZ_1 - Z_1 dZ_0)^l
    on every tensor factor of `space`, l its degree, on the monomial basis.

    (Z_0 dZ_1 - Z_1 dZ_0)^l = sum_t C(l, t) (-1)^(l-t) Z_0^t Z_1^(l-t)
    dZ_0^(l-t) dZ_1^t, and the numerator monomials lower the denominator; a
    term whose exponent drops below 1 is the zero class. No two terms share
    an element: the J's give the t's, and then I gives the monomial of P.
    """
    N = space.ambient_N
    degrees = space.factor_degrees
    coeffs = {}
    for M, c in P.terms.items():
        for ts in product(*(range(l + 1) for l in degrees)):
            I = [r - m for m in M]
            Js = []
            coeff = c
            for l, t in zip(degrees, ts):
                coeff *= comb(l, t) * (-1) ** (l - t)
                Js.append((l - t, t) + (0,) * (N - 1))
                I[0] -= t
                I[1] -= l - t
            if min(I) >= 1:
                coeffs[(*Js, tuple(I))] = coeff
    return CohomClass(space, coeffs)


def apply_poly(cls: CohomClass, f: HomogPoly) -> CohomClass:
    """Multiplication by f on a single class (no matrix materialized)."""
    return mul_poly_rule(cls.space, f).act(cls)


def apply_dpoly(cls: CohomClass, f: HomogPoly, factor: int) -> CohomClass:
    """Multiplication by df on one tensor factor of a single class."""
    return mul_dpoly_rule(cls.space, f, factor).act(cls)
