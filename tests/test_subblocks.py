"""Sub-blocks and the two-object block-size reduction."""

import itertools
import time

import pytest

from finsat.logic import DistKind, OneType, PreconditionError, Signature, enumerate_one_types
from finsat.factorization import (
    Factorization,
    TypedPartialOrder,
    factorize_for,
    is_thin,
    thin,
    transitive_closure,
    trivial_factorization,
)
from finsat.subblocks import (
    exceeds_power,
    incomparable_witness_check,
    shrink_blocks,
    sub_blocks,
)
from finsat.normal_forms import BasicFormula, BasicKind

from fixtures import PO2, ladder_fixture, random_tpo, sample_true_basic_set

T2 = enumerate_one_types(PO2)


def prepared(seed, size):
    """A unitary, thin, satisfied fixture from random material."""
    tpo = random_tpo(seed, size)
    psis = sample_true_basic_set(tpo, seed)
    f = factorize_for(tpo, psis)
    f = f.with_tpo(thin(f))
    return f, psis


def test_sub_blocks_unit_block_is_singleton_sub_block():
    tpo = TypedPartialOrder((T2[1], T2[2]), frozenset({(0, 1)}))
    f = factorize_for(tpo, ())
    subs = sub_blocks(f)
    assert all(len(s.members) == 1 for s in subs)


def test_sub_blocks_bound_is_checked_without_the_power_on_a_wide_signature():
    # 31 bits give a bound of 2 ** (2 * 2**31 + 1); building it as an
    # integer took 25 s.
    wide = Signature(tuple(f"u{i}" for i in range(31)), (), DistKind.PARTIAL_ORDER)
    low, high = OneType(wide, (False,) * 31), OneType(wide, (True,) * 31)
    f = factorize_for(TypedPartialOrder((low, high), frozenset({(0, 1)})), ())
    start = time.perf_counter()
    assert len(sub_blocks(f)) == 2
    assert time.perf_counter() - start < 1.0


def test_exceeds_power_agrees_with_the_integer_comparison():
    for n, base, exp in itertools.product(range(300), range(6), range(12)):
        assert exceeds_power(n, base, exp) == (n > base**exp), (n, base, exp)


def test_sub_blocks_homogeneous_antichain_single_group():
    tpo = TypedPartialOrder((T2[1],) * 4, frozenset())
    f = trivial_factorization(tpo)
    subs = sub_blocks(f)
    assert len(subs) == 1 and subs[0].members == frozenset(range(4))


def test_sub_blocks_straddled_block_splits():
    # block of four type-1 elements; a type-2 element sits below half of them
    types = (T2[1], T2[1], T2[1], T2[1], T2[2])
    order = frozenset({(4, 0), (4, 1)})
    tpo = TypedPartialOrder(types, order)
    f = trivial_factorization(tpo)
    subs = sub_blocks(f)
    groups = {s.members for s in subs}
    assert frozenset({0, 1}) in groups and frozenset({2, 3}) in groups


def test_shrink_blocks_all_unit_blocks_is_isomorphic():
    fact, psis = ladder_fixture(0)
    # restrict to a fixture whose blocks are all units
    if not all(fact.is_unit(i) for i in range(fact.n_blocks)):
        tpo = TypedPartialOrder(
            (T2[1], T2[2], T2[1]), transitive_closure([(0, 1), (1, 2)])
        )
        fact = factorize_for(tpo, ())
        psis = ()
    hat = shrink_blocks(fact, psis)
    assert hat.tpo.size == fact.tpo.size
    # the identity on sub-blocks reproduces the order
    back = {obj: min(hat.subs[si].members) for obj, si in hat.sub_of_object.items()}
    for a, b in itertools.permutations(range(hat.tpo.size), 2):
        assert hat.tpo.less(a, b) == fact.tpo.less(back[a], back[b])


def test_shrink_blocks_antichain_becomes_two_objects():
    tpo = TypedPartialOrder((T2[1],) * 5 + (T2[2],), frozenset())
    psis = (BasicFormula(BasicKind.B8, alpha=T2[1], mu=T2[2].formula()),)
    assert tpo.satisfies(psis)
    f = trivial_factorization(tpo)
    hat = shrink_blocks(f, psis)
    type1_objects = [o for o in range(hat.tpo.size) if hat.tpo.types[o] == T2[1]]
    assert len(type1_objects) == 2
    a, b = type1_objects
    assert hat.tpo.sim(a, b)
    assert hat.tpo.satisfies(psis)


def test_shrink_blocks_requires_unitary_thin_input():
    # a linearly ordered 2-element block violates unitarity
    tpo = TypedPartialOrder((T2[1], T2[1]), frozenset({(0, 1)}))
    f = Factorization(tpo, (frozenset({0, 1}),), frozenset())
    with pytest.raises(PreconditionError):
        shrink_blocks(f, ())


def test_shrink_blocks_linear_types_stay_linear():
    # a basic set forcing a type linear keeps it linear after shrinking
    for seed in range(300):
        tpo = random_tpo(seed, 6)
        psi = BasicFormula(BasicKind.B5A, alpha=T2[1])
        if T2[1] not in tpo.types or not tpo.satisfies((psi,)):
            continue
        f = factorize_for(tpo, (psi,))
        f = f.with_tpo(thin(f))
        hat = shrink_blocks(f, (psi,))
        ones = [o for o in range(hat.tpo.size) if hat.tpo.types[o] == T2[1]]
        for a, b in itertools.combinations(ones, 2):
            assert hat.tpo.less(a, b) or hat.tpo.less(b, a)
        return
    pytest.skip("no conforming fixture")


def test_shrink_blocks_bounds_and_validity_on_fixtures():
    checked = 0
    for seed in range(30):
        f, psis = prepared(seed, 5 + seed % 5)
        subs = sub_blocks(f)
        hat = shrink_blocks(f, psis)
        assert 2 <= hat.tpo.size <= 2 * len(subs)
        n_types = 2 ** len(f.tpo.sig.one_type_keys())
        assert len(subs) <= f.n_blocks ** (2 * n_types + 1)
        assert hat.tpo.satisfies(psis)
        # hat factorization is isomorphic to the input factorization
        for i, j in itertools.permutations(range(f.n_blocks), 2):
            assert f.less(i, j) == hat.factorization.less(
                hat.block_map[i], hat.block_map[j]
            )
        checked += 1
    assert checked == 30


def test_incomparable_witnesses_objectwise():
    for seed in range(20):
        f, psis = prepared(seed, 6)
        hat = shrink_blocks(f, psis)
        assert incomparable_witness_check(f, hat) == []
    # chain fixture: vacuous
    tpo = TypedPartialOrder((T2[1], T2[2]), frozenset({(0, 1)}))
    f = factorize_for(tpo, ())
    hat = shrink_blocks(f, ())
    assert incomparable_witness_check(f, hat) == []


def test_left_right_discipline_on_fixtures():
    # No path from a left object to the right object of an incomparable
    # partner unless it passes a unit block or a universal edge.
    for seed in range(12):
        f, psis = prepared(seed, 6)
        hat = shrink_blocks(f, psis)
        sub_of = {}
        for si, sb in enumerate(hat.subs):
            for a in sb.members:
                sub_of[a] = si
        tpo = f.tpo
        for a, b in itertools.permutations(tpo.carrier(), 2):
            if not tpo.sim(a, b):
                continue
            left = hat.object_of[(sub_of[a], 0)]
            right = hat.object_of[(sub_of[b], 1)]
            if left == right:
                continue
            # direct existential edges connect like sides only, so any
            # left-to-right reachability must use a universal edge or a
            # collapsed (unit-block) object
            if hat.tpo.less(left, right):
                unit_objects = {
                    hat.object_of[(si, 0)]
                    for si, sb in enumerate(hat.subs)
                    if hat.object_of[(si, 0)] == hat.object_of[(si, 1)]
                }
                reach_exists_only = _reaches(
                    left, right, hat.r_exists, forbidden=unit_objects
                )
                assert not reach_exists_only, (seed, a, b)


def _reaches(src, dst, edges, forbidden):
    adj = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
    stack, seen = [src], {src}
    while stack:
        u = stack.pop()
        if u == dst:
            return True
        for v in adj.get(u, ()):
            if v not in seen and (v == dst or v not in forbidden):
                seen.add(v)
                stack.append(v)
    return False


def test_monotone_steps_hold_on_every_edge():
    # rebuilt from the result's own record: every edge steps strictly down
    # the sub-type lattice
    for seed in range(10):
        f, psis = prepared(seed, 7)
        hat = shrink_blocks(f, psis)
        for u, v in hat.r_exists | hat.r_forall:
            s = hat.subs[hat.sub_of_object[u]].sub_type
            t = hat.subs[hat.sub_of_object[v]].sub_type
            assert s.below <= t.below
            assert s.above >= t.above
            assert {s.block} | s.above >= {t.block} | t.above
            assert (s.below, s.above, frozenset({s.block}) | s.above) != (
                t.below,
                t.above,
                frozenset({t.block}) | t.above,
            )
