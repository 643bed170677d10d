import pytest

from cotci import lambdacalc as lam
from cotci.lambdacalc import LambdaSetting
from cotci.rng import SplitMix64
import pair_calculus as pcalc
from pair_calculus import LambdaPair, i_counter


def test_invariants_corollary_shape():
    # exponent tuple at the deepest level, all entries >= codim: q = n - k*c
    for N, c, ells in ((4, 2, (2,)), (5, 2, (2, 3)), (6, 1, (1, 1, 1))):
        tuples = tuple(() for _ in range(c)) + (ells,)
        s = LambdaSetting(N, tuple(5 for _ in range(c)), tuples)
        assert s.q() == (N - c) - len(ells) * c


def test_invariants_ambient_only():
    s = LambdaSetting(4, (), ((3, 1),))
    assert s.q() == 4 and i_counter(s) == 0
    assert pcalc.invariants(s)["nfun"] == 0
    assert lam.b_sigma(s) == 0 and lam.sigma_lim(s) == s


def test_invariants_worked_example():
    s = LambdaSetting(4, (5, 5), ((), (), (2,)))
    inv = pcalc.invariants(s)
    assert inv == {"q": 0, "i": 4, "t": 1, "total": 2, "nz": 1, "w": 2, "nfun": 2}


def test_deg_rules():
    s = LambdaSetting(4, (2, 3), ((1,), (), ()))
    assert pcalc.deg_of(s) == 3  # all levels >= 1 zero: the last degree
    s = LambdaSetting(4, (2, 3), ((), (3,), ()))
    assert pcalc.deg_of(s) == 2
    left = LambdaSetting(5, (2, 3, 4), ((), (), (), ()))
    right = LambdaSetting(5, (2, 3, 4), ((), (), (4,), ()))
    assert pcalc.deg_of_pair(LambdaPair(left, right)) == 3


def test_successor_all_zero_drop():
    s = LambdaSetting(4, (2, 3), ((1, 0), (), ()))
    step = pcalc.s_step(s)
    assert step.tag == "restriction" and step.degree == 3
    assert step.s1 == step.s2 == LambdaSetting(4, (2,), ((1, 0), ()))


def test_successor_split_plane_curve():
    s = LambdaSetting(2, (4,), ((), (1,)))
    step = pcalc.s_step(s)
    assert step.tag == "tilde-conormal" and step.degree == 4
    # the decremented entry lands at level 0 as a trivial factor
    assert step.s2 == LambdaSetting(2, (4,), ((0,), ()))
    assert step.s1 == LambdaSetting(2, (4,), ((1,), ()))
    assert s.q() == 0 and step.s2.q() == 1


def test_prop_elementaire_settings_and_pairs():
    rng = SplitMix64(20260811)
    checked = 0
    while checked < 500:
        s = pcalc.random_setting(rng)
        if s.codim < 1:
            continue
        checked += 1
        step = pcalc.s_step(s)
        assert step.s1.q() >= s.q()
        assert step.s2.q() == s.q() + 1
        assert i_counter(step.s1) < i_counter(s)
        assert i_counter(step.s2) < i_counter(s)
        assert step.s1.total() == s.total()
        # finding: the stated "total drops by one" holds only when an
        # exponent is actually decremented; the restriction branch (all
        # levels >= 1 zero) keeps the total. Recorded, not patched.
        if step.tag == "restriction":
            assert step.s2.total() == s.total()
        else:
            assert step.s2.total() == s.total() - 1
    checked = 0
    while checked < 500:
        pr = pcalc.random_pair(rng)
        if pr.codim < 1:
            continue
        checked += 1
        step = pcalc.s_step_pair(pr)
        assert step.s1.q() >= pr.q()
        assert step.s2.q() == pr.q() + 1
        assert step.s1.i_counter() < pr.i_counter()
        assert step.s2.i_counter() < pr.i_counter()
        assert step.s1.t_bound() == pr.t_bound()
        assert step.s2.t_bound() >= pr.t_bound() - 1


def test_q_simplicity():
    rng = SplitMix64(99)
    for _ in range(200):
        s = pcalc.random_simple_setting(rng)
        step = pcalc.s_step(s)
        assert step.s1.is_simple() and step.s2.is_simple()
        assert step.s1.q() == step.s2.q() == s.q() + 1


def test_chain_reaches_limit_with_total_twist():
    rng = SplitMix64(4242)
    for _ in range(100):
        s = pcalc.random_simple_setting(rng, max_N=6, max_codim=3, max_len=2, extra=3)
        lim = lam.sigma_lim(s)
        b = lam.b_sigma(s)
        steps = s.ambient_N - s.q()
        cur = s
        acc = 0
        for _ in range(steps):
            step = pcalc.s_step(cur)
            acc += step.degree
            cur = step.s2
        assert cur == lim
        assert acc == b


def test_b_recursion():
    rng = SplitMix64(515)
    for _ in range(100):
        s = pcalc.random_simple_setting(rng)
        if s.codim < 1:
            continue
        step = pcalc.s_step(s)
        if step.s2.codim >= 1 or step.s2.is_simple():
            assert lam.b_sigma(s) == lam.b_sigma(step.s2) + step.degree


def test_h_successors_example():
    left = LambdaSetting(3, (4,), ((2,), ()))
    right = LambdaSetting(3, (4,), ((), ()))
    pr = LambdaPair(left, right)
    step = pcalc.h_step(pr)
    assert step.h1.left.tuples == ((), ())
    assert step.h1.right.tuples == ((2,), ())
    assert step.h2.right.tuples == ((1,), ())
    assert step.level == 0


def test_h_exhaustion_and_q():
    rng = SplitMix64(77)
    count = 0
    while count < 200:
        pr = pcalc.random_simple_pair(rng)
        if pr.left.nz() == 0:
            continue
        count += 1
        q0 = pr.q()
        step = pcalc.h_step(pr)
        assert step.h1.is_simple()
        assert step.h1.q() == q0
        assert step.h2.q() >= q0
        # full exhaustion empties the untilded side in nz steps
        cur = pr
        moves = 0
        while cur.left.nz():
            cur = pcalc.h_step(cur).h1
            moves += 1
        assert moves == pr.left.nz()
        assert cur.q() == q0


def test_c_successors_example():
    s = LambdaSetting(4, (2, 3), ((), (), (1,)))
    assert not s.is_simple()
    step = lam.c_step(s)
    assert step.c1 == LambdaSetting(4, (2, 3), ((), (1,), ()))
    assert step.degree == 3
    assert step.c1.is_simple()


def test_c_chain_preserves_q():
    rng = SplitMix64(808)
    count = 0
    while count < 200:
        s = pcalc.random_setting(rng)
        if s.is_simple() or s.codim < 1:
            continue
        count += 1
        chain = pcalc.simplify_chain(s)
        assert chain[-1].is_simple()
        assert all(x.q() == s.q() for x in chain)


def test_c2_rejects_zero_entry():
    s = LambdaSetting(4, (2, 3), ((), (), (0,)))
    step = lam.c_step(s)
    assert step.c2 is None
    # c1 still moves the trivial factor down
    assert step.c1 == LambdaSetting(4, (2, 3), ((), (0,), ()))


def test_sigma_lim_and_b_examples():
    pc = LambdaSetting(2, (4,), ((), (1,)))
    assert lam.sigma_lim(pc) == LambdaSetting(2, (), ((0,),))
    assert lam.b_sigma(pc) == 8
    fam = LambdaSetting(4, (5, 5), ((), (), (2,)))
    assert lam.sigma_lim(fam) == LambdaSetting(4, (), ((0,),))
    assert lam.b_sigma(fam) == 20
    # the corollary shape: b = (k+1) * sum of degrees
    for c, ells, degs in ((2, (2, 3), (4, 7)), (3, (3,), (2, 3, 5))):
        N = 3 * c
        s = LambdaSetting(N, degs, tuple(() for _ in range(c)) + (ells,))
        assert lam.b_sigma(s) == (len(ells) + 1) * sum(degs)


def test_vanishing_predicate():
    # specialization: trivial tilde side, exponents at the deepest level
    N, c, ells = 5, 2, (3, 3)
    left = LambdaSetting(N, (4, 4), ((), (), ells))
    right = LambdaSetting(N, (4, 4), ((), (), ()))
    pr = LambdaPair(left, right)
    n = N - c
    q = n - sum(min(c, l) for l in ells)
    assert pr.q() == q
    for j in range(q):
        assert pcalc.vanishing_predicate(pr, j, 0)
    assert not pcalc.vanishing_predicate(pr, q, 0)
    assert not pcalc.vanishing_predicate(pr, q - 1, pr.t_bound())


def test_serialization_roundtrip():
    rng = SplitMix64(313)
    for _ in range(50):
        s = pcalc.random_setting(rng)
        assert lam.parse_setting(s.serialize()) == s
    s = LambdaSetting(4, (5, 5), ((), (), (2,)))
    assert s.serialize() == "(N=4; e=5,5; L0=; L1=; L2=2)"


def test_setting_validation():
    with pytest.raises(ValueError):
        LambdaSetting(2, (1, 1), ((), (), ()))  # codim too large
    with pytest.raises(ValueError):
        LambdaSetting(3, (1,), ((),))  # missing a level tuple
    with pytest.raises(ValueError):
        LambdaSetting(3, (0,), ((), ()))  # degree must be positive
    with pytest.raises(ValueError):
        LambdaPair(
            LambdaSetting(3, (2,), ((), ())),
            LambdaSetting(3, (3,), ((), ())),
        )
