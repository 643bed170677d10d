"""The paper's pair calculus: the tests' reference for `cotci.lambdacalc`.

A pair is an (untilded, tilde) couple of settings over the same chain. This
module holds the parts of the bookkeeping calculus that no command runs: the
counters w and i, the two short-exact-sequence successors s1/s2 of settings
and pairs, the Euler successors h1/h2, the simplification chain, the
sufficient vanishing predicate and seeded generators for the property
suites. The engine reads only the limit setting and twist (`sigma_lim`,
`b_sigma`) and `c_step`; following the s2 successors down to H^N is what
checks them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from cotci.lambdacalc import LambdaSetting, c_step


def _is_zero_tuple(t) -> bool:
    return all(v == 0 for v in t)


def w_value(setting: LambdaSetting) -> int:
    return sum(
        j * sum(1 for v in setting.tuples[j] if v != 0) for j in range(1, setting.codim + 1)
    )


def i_counter(setting: LambdaSetting) -> int:
    return setting.codim + w_value(setting)


@dataclass(frozen=True)
class LambdaPair:
    left: LambdaSetting   # untilded side
    right: LambdaSetting  # tilde side

    def __post_init__(self):
        if self.left.ambient_N != self.right.ambient_N:
            raise ValueError("ambient mismatch in pair")
        if self.left.degrees != self.right.degrees:
            raise ValueError("pair sides must share the degree chain")

    @property
    def codim(self):
        return self.left.codim

    @property
    def dim(self):
        return self.left.dim

    def is_simple(self):
        return self.left.is_simple() and self.right.is_simple()

    def q(self):
        return self.dim - self.left.n_value() - self.right.n_value()

    def i_counter(self):
        return self.codim + w_value(self.left) + w_value(self.right)

    def t_bound(self):
        # only the untilded side's nonzero count is subtracted
        return self.left.total() + self.right.total() - self.left.nz()

    def serialize(self):
        return self.left.serialize() + " ~ " + self.right.serialize()


def invariants(setting: LambdaSetting) -> dict:
    """All the integer invariants of a setting in one record."""
    return {
        "q": setting.q(),
        "i": i_counter(setting),
        "t": setting.t_bound(),
        "total": setting.total(),
        "nz": setting.nz(),
        "w": w_value(setting),
        "nfun": setting.n_value(),
    }


# ---------------------------------------------------------------------------
# degree selectors


def deg_of(setting: LambdaSetting) -> int:
    """Degree consumed by one successor step: e_{j0} for the lowest active
    level, e_p when all levels above 0 are zero."""
    p = setting.codim
    if p < 1:
        raise ValueError("degree undefined at codimension 0")
    for j in range(1, p + 1):
        if not _is_zero_tuple(setting.tuples[j]):
            return setting.degrees[j - 1]
    return setting.degrees[p - 1]


def deg_of_pair(pair: LambdaPair) -> int:
    p = pair.codim
    if p < 1:
        raise ValueError("degree undefined at codimension 0")
    for j in range(1, p + 1):
        if not _is_zero_tuple(pair.left.tuples[j]) or not _is_zero_tuple(
            pair.right.tuples[j]
        ):
            return pair.left.degrees[j - 1]
    return pair.left.degrees[p - 1]


# ---------------------------------------------------------------------------
# s-successors (restriction / conormal exact sequences)


class SuccessorStep(NamedTuple):
    s1: object
    s2: object
    tag: str      # restriction | tilde-conormal | conormal
    degree: int   # twist consumed by the s2 slot


def _split_tuples(tuples, j0, i0, decrement):
    """Move entry i0 of level j0 down one level, per the successor recipe.

    Levels 1..j0-2 are zeroed (they are all-zero already), the moved entry
    lands at level j0-1 (merged into level 0 when j0 = 1), the remainder of
    level j0 stays at level j0.
    """
    lam = tuples[j0]
    val = lam[i0] - (1 if decrement else 0)
    tail = lam[i0 + 1 :]
    new = list(tuples)
    if j0 == 1:
        new[0] = tuples[0] + (val,)
    else:
        for m in range(1, j0 - 1):
            new[m] = ()
        new[j0 - 1] = (val,)
    new[j0] = tail
    return tuple(new)


def s_step(setting: LambdaSetting) -> SuccessorStep:
    p = setting.codim
    if p < 1:
        raise ValueError("successors need codimension >= 1")
    degree = deg_of(setting)
    j0 = None
    for j in range(1, p + 1):
        if not _is_zero_tuple(setting.tuples[j]):
            j0 = j
            break
    if j0 is None:
        dropped = LambdaSetting(
            setting.ambient_N, setting.degrees[:-1], setting.tuples[:-1]
        )
        return SuccessorStep(dropped, dropped, "restriction", degree)
    i0 = next(i for i, v in enumerate(setting.tuples[j0]) if v != 0)
    one = LambdaSetting(
        setting.ambient_N, setting.degrees, _split_tuples(setting.tuples, j0, i0, False)
    )
    two = LambdaSetting(
        setting.ambient_N, setting.degrees, _split_tuples(setting.tuples, j0, i0, True)
    )
    return SuccessorStep(one, two, "tilde-conormal", degree)


def s_step_pair(pair: LambdaPair) -> SuccessorStep:
    p = pair.codim
    if p < 1:
        raise ValueError("successors need codimension >= 1")
    degree = deg_of_pair(pair)
    j0 = None
    for j in range(1, p + 1):
        if not _is_zero_tuple(pair.left.tuples[j]) or not _is_zero_tuple(
            pair.right.tuples[j]
        ):
            j0 = j
            break
    if j0 is None:
        step_l = s_step(pair.left)
        step_r = s_step(pair.right)
        dropped = LambdaPair(step_l.s2, step_r.s2)
        return SuccessorStep(dropped, dropped, "restriction", degree)
    if not _is_zero_tuple(pair.right.tuples[j0]):
        step = s_step(pair.right)
        return SuccessorStep(
            LambdaPair(pair.left, step.s1),
            LambdaPair(pair.left, step.s2),
            "tilde-conormal",
            degree,
        )
    step = s_step(pair.left)
    return SuccessorStep(
        LambdaPair(step.s1, pair.right),
        LambdaPair(step.s2, pair.right),
        "conormal",
        degree,
    )


# ---------------------------------------------------------------------------
# h-successors (Euler exact sequence on the leading untilded exponent)


class EulerStep(NamedTuple):
    h1: LambdaPair
    h2: LambdaPair
    tag: str
    level: int
    moved: int  # the exponent moved across


def h_step(pair: LambdaPair) -> EulerStep:
    if not pair.is_simple():
        raise ValueError("h-successors need a simple pair")
    if pair.left.nz() == 0:
        raise ValueError("left side has no nonzero exponent to move")
    left, right = pair.left, pair.right
    j0 = next(
        j for j in range(left.codim + 1) if not _is_zero_tuple(left.tuples[j])
    )
    i0 = next(i for i, v in enumerate(left.tuples[j0]) if v != 0)
    val = left.tuples[j0][i0]
    new_left = list(left.tuples)
    for m in range(j0):
        new_left[m] = ()
    new_left[j0] = left.tuples[j0][i0 + 1 :]
    moved_left = LambdaSetting(left.ambient_N, left.degrees, tuple(new_left))
    r1 = list(right.tuples)
    r1[j0] = right.tuples[j0] + (val,)
    r2 = list(right.tuples)
    r2[j0] = right.tuples[j0] + (val - 1,)
    one = LambdaPair(moved_left, LambdaSetting(right.ambient_N, right.degrees, tuple(r1)))
    two = LambdaPair(moved_left, LambdaSetting(right.ambient_N, right.degrees, tuple(r2)))
    return EulerStep(one, two, "euler", j0, val)


# ---------------------------------------------------------------------------
# simplification chain and vanishing predicate


def simplify_chain(setting: LambdaSetting):
    """Iterate c1 to a simple setting; q is preserved at every step."""
    chain = [setting]
    current = setting
    while not current.is_simple():
        current = c_step(current).c1
        chain.append(current)
    return chain


def vanishing_predicate(pair: LambdaPair, j: int, a: int) -> bool:
    """True when the sufficient vanishing hypotheses hold (group is zero);
    False carries no information."""
    return j < pair.q() and a < pair.t_bound()


# ---------------------------------------------------------------------------
# seeded random generators for the property suites


def random_setting(rng, max_N=6, max_codim=4, max_len=3, max_entry=6) -> LambdaSetting:
    N = rng.randint(2, max_N)
    p = rng.randint(0, min(max_codim, N - 1))
    degrees = tuple(rng.randint(1, 7) for _ in range(p))
    tuples = []
    for _ in range(p + 1):
        m = rng.randint(0, max_len)
        tuples.append(tuple(rng.randint(0, max_entry) for _ in range(m)))
    return LambdaSetting(N, degrees, tuple(tuples))


def random_simple_setting(rng, max_N=6, max_codim=4, max_len=3, extra=4) -> LambdaSetting:
    N = rng.randint(2, max_N)
    p = rng.randint(1, min(max_codim, N - 1))
    degrees = tuple(rng.randint(1, 7) for _ in range(p))
    tuples = []
    for j in range(p + 1):
        m = rng.randint(0, max_len)
        tuples.append(tuple(rng.randint(j, j + extra) for _ in range(m)))
    return LambdaSetting(N, degrees, tuple(tuples))


def random_pair(rng, **kw) -> LambdaPair:
    left = random_setting(rng, **kw)
    right_tuples = []
    for j in range(left.codim + 1):
        m = rng.randint(0, 3)
        right_tuples.append(tuple(rng.randint(0, 6) for _ in range(m)))
    right = LambdaSetting(left.ambient_N, left.degrees, tuple(right_tuples))
    return LambdaPair(left, right)


def random_simple_pair(rng, **kw) -> LambdaPair:
    left = random_simple_setting(rng, **kw)
    right_tuples = []
    for j in range(left.codim + 1):
        m = rng.randint(0, 3)
        right_tuples.append(tuple(rng.randint(j, j + 4) for _ in range(m)))
    right = LambdaSetting(left.ambient_N, left.degrees, tuple(right_tuples))
    return LambdaPair(left, right)
