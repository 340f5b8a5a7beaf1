"""Cuts, frontiers, equivalence and the block-count reduction."""

import itertools

import pytest

from finsat.logic import PreconditionError, Signature, DistKind, VerificationFailure, enumerate_one_types
from finsat.factorization import (
    Factorization,
    TypedPartialOrder,
    block_invariant_violation,
    fc_holds,
    fc_subset,
    is_thin,
    transitive_closure,
    trivial_factorization,
)
from finsat.cuts import (
    Cut,
    cuts_equivalent,
    cuts_of,
    find_equivalent_cuts,
    frontier,
    reduce_at,
    shrink_block_count,
)
from finsat.normal_forms import BasicFormula, BasicKind
from finsat.subblocks import shrink_blocks

from fixtures import PO2, ladder_fixture, random_tpo, sample_true_basic_set
from oracles import frontier_map_by_search, longest_path_lengths

T2 = enumerate_one_types(PO2)


def blocks_factorization(block_types, block_sizes, block_edges):
    """Build a typed partial order realizing the given block diagram, with
    the element order equal to its inter-block order (hence thin)."""
    members = []
    types = []
    next_id = 0
    for tp, size in zip(block_types, block_sizes):
        members.append(frozenset(range(next_id, next_id + size)))
        types.extend([tp] * size)
        next_id += size
    order_blocks = transitive_closure(block_edges)
    order = frozenset(
        (a, b) for i, j in order_blocks for a in members[i] for b in members[j]
    )
    tpo = TypedPartialOrder(tuple(types), order)
    return Factorization(tpo, tuple(members), order_blocks)


def test_depths_examples():
    f = blocks_factorization([T2[1], T2[2], T2[1]], [1, 1, 1], [(0, 1), (1, 2)])
    assert f.depths == {0: 2, 1: 1, 2: 0}
    assert cuts_of(f) == (Cut(0.5), Cut(1.5))
    # a block with no successor has depth 0
    lone = blocks_factorization([T2[1], T2[2]], [1, 1], [])
    assert lone.depths == {0: 0, 1: 0}


def test_depths_diamond_matches_brute_force():
    f = blocks_factorization(
        [T2[1], T2[2], T2[3], T2[1]],
        [1, 1, 1, 1],
        [(0, 1), (0, 2), (1, 3), (2, 3)],
    )
    assert f.depths == longest_path_lengths(f.n_blocks, f.order)
    assert f.depths[0] == 2


def test_frontier_two_chain():
    f = blocks_factorization([T2[1], T2[2]], [1, 1], [(0, 1)])
    fr = frontier(f, Cut(0.5))
    assert [i for i, _ in fr.below] == [0]
    assert [i for i, _ in fr.above] == [1]


def test_frontier_type_absent_below():
    f = blocks_factorization(
        [T2[1], T2[2], T2[2]], [1, 1, 1], [(0, 1), (1, 2)]
    )
    fr = frontier(f, Cut(1.5))
    below_types = {f.block_types[i] for i, _ in fr.below}
    assert T2[2] not in below_types  # both type-2 blocks sit above this cut


def test_frontier_matches_independent_scan():
    for shape in range(10):
        fact, _ = ladder_fixture(shape)
        d = fact.depths
        for cut in cuts_of(fact):
            fr = frontier(fact, cut)
            for pi in set(fact.block_types):
                below = [i for i in range(fact.n_blocks) if fact.block_types[i] == pi and d[i] > cut.value]
                above = [i for i in range(fact.n_blocks) if fact.block_types[i] == pi and d[i] < cut.value]
                if below:
                    want = min(below, key=lambda i: d[i])
                    assert (want, d[want]) in fr.below
                if above:
                    want = max(above, key=lambda i: d[i])
                    assert (want, d[want]) in fr.above


def test_cut_equivalence_requires_proper_ordering():
    fact, _ = ladder_fixture(0)
    with pytest.raises(PreconditionError):
        cuts_equivalent(fact, Cut(0.5), Cut(0.5))
    with pytest.raises(PreconditionError):
        cuts_equivalent(fact, Cut(0.5), Cut(1.5))


def test_no_equivalence_across_extremal_blocks():
    # a minimal block lying between the cuts blocks any frontier map
    f = blocks_factorization(
        [T2[1], T2[2], T2[3], T2[1], T2[2]],
        [1, 1, 1, 1, 1],
        [(0, 1), (1, 2), (2, 3), (3, 4)],
    )
    # type-3 occurs once, in the middle: it is extremal, so cuts straddling
    # it cannot be equivalent
    mid = f.depths[2]
    for chi_val in (mid + 0.5,):
        for chi_prime_val in (mid - 0.5,):
            assert cuts_equivalent(f, Cut(chi_val), Cut(chi_prime_val)) is None


def test_equivalent_cuts_found_on_ladders_and_match_search():
    found_any = 0
    for shape in range(10):
        fact, _ = ladder_fixture(shape)
        hit = find_equivalent_cuts(fact)
        if hit is None:
            continue
        found_any += 1
        chi, chi_prime, mapping = hit
        fr1 = frontier(fact, chi)
        fr2 = frontier(fact, chi_prime)
        search = frontier_map_by_search(
            fact,
            fr1.blocks(),
            fr2.blocks(),
            {i for i, _ in fr1.below},
            {i for i, _ in fr2.below},
            {i for i, _ in fr1.above},
            {i for i, _ in fr2.above},
        )
        assert mapping in search
        assert len(search) == 1  # the frontier map is unique
    assert found_any >= 8


def test_reduce_at_drops_blocks_and_weakly_preserves_orders():
    for shape in range(10):
        fact, _ = ladder_fixture(shape)
        hit = find_equivalent_cuts(fact)
        if hit is None:
            continue
        chi, chi_prime, mapping = hit
        res = reduce_at(fact, chi, chi_prime, mapping)
        new = res.factorization
        assert new.n_blocks < fact.n_blocks
        # surviving blocks may only lose order relative to the original
        old_of_new = {k: old for k, old in enumerate(res.survivors)}
        for i, j in itertools.permutations(range(new.n_blocks), 2):
            if new.less(i, j):
                assert fact.less(old_of_new[i], old_of_new[j])
        # element order weakens but is exact on same-type pairs
        back = {v: k for k, v in res.element_map.items()}
        for a, b in itertools.permutations(range(new.tpo.size), 2):
            if new.tpo.less(a, b):
                assert fact.tpo.less(back[a], back[b])
            if new.tpo.types[a] == new.tpo.types[b]:
                assert new.tpo.less(a, b) == fact.tpo.less(back[a], back[b])


def test_reduce_at_rejects_stale_map():
    fact, _ = ladder_fixture(0)
    hit = find_equivalent_cuts(fact)
    assert hit is not None
    chi, chi_prime, mapping = hit
    bad = dict(mapping)
    some = next(iter(bad))
    bad[some] = some if bad[some] != some else (some + 1) % fact.n_blocks
    with pytest.raises(PreconditionError):
        reduce_at(fact, chi, chi_prime, bad)


def test_shrink_block_count_terminates_and_preserves():
    shrunk_any = False
    for shape in range(10):
        fact, psis = ladder_fixture(shape)
        out = shrink_block_count(fact, psis)
        assert find_equivalent_cuts(out) is None
        assert out.is_unitary and is_thin(out)
        assert out.tpo.satisfies(psis)
        for psi in fc_subset(psis):
            assert fc_holds(out, psi)
        if out.n_blocks < fact.n_blocks:
            shrunk_any = True
    assert shrunk_any


def test_shrink_block_count_identity_when_no_equivalent_cuts():
    tpo = random_tpo(5, 5)
    psis = tuple(
        p for p in sample_true_basic_set(tpo, 5) if not p.factor_controllable
    )
    from finsat.factorization import factorize_for, thin

    f = factorize_for(tpo, psis)
    f = f.with_tpo(thin(f))
    if find_equivalent_cuts(f) is None:
        out = shrink_block_count(f, psis)
        assert out.n_blocks == f.n_blocks


def test_incomparable_witnesses_preserved_through_reduction():
    # every surviving element incomparable to a removed one keeps some
    # incomparable partner
    for shape in range(10):
        fact, _ = ladder_fixture(shape)
        hit = find_equivalent_cuts(fact)
        if hit is None:
            continue
        chi, chi_prime, mapping = hit
        res = reduce_at(fact, chi, chi_prime, mapping)
        new = res.factorization.tpo
        old = fact.tpo
        for a_old, a_new in res.element_map.items():
            for b_old in old.carrier():
                if old.sim(a_old, b_old):
                    assert any(
                        new.sim(a_new, c) for c in new.carrier()
                    ), (shape, a_old, b_old)


def _two_chain():
    """Element 0 of type 1 below element 1 of type 2, in unit blocks with
    no block order; thin, because both elements are extremal."""
    return trivial_factorization(TypedPartialOrder((T2[1], T2[2]), frozenset({(0, 1)})))


def _middle_not_extremal():
    """A type-1 chain 0 < 1 < 2 of unit blocks and a type-2 element 3 above
    1.  Element 1 is not extremal and no block order puts it below 3, so
    the pair (1, 3) is not derived: the order is not thin."""
    tpo = TypedPartialOrder((T2[1], T2[1], T2[1], T2[2]), transitive_closure([(0, 1), (1, 2), (1, 3)]))
    blocks = tuple(frozenset({a}) for a in range(4))
    return Factorization(tpo, blocks, frozenset({(0, 1), (1, 2), (0, 2)}))


#: One fixture per block invariant, each breaking only that one.
BROKEN_INVARIANTS = {
    "the basic set does not hold": (
        _two_chain,
        (BasicFormula(BasicKind.B10, mu=T2[3].formula()),),
    ),
    "the factorization is not unitary": (
        lambda: Factorization(
            TypedPartialOrder((T2[1], T2[1]), frozenset({(0, 1)})), (frozenset({0, 1}),), frozenset()
        ),
        (),
    ),
    "the order is not thin over the factorization": (_middle_not_extremal, ()),
    "a factor-controllable member is not controlled": (
        _two_chain,
        (BasicFormula(BasicKind.B3, alpha=T2[1], beta=T2[2]),),
    ),
}


def test_an_intact_fixture_breaks_no_block_invariant():
    assert block_invariant_violation(_two_chain(), ()) is None


@pytest.mark.parametrize("broken", BROKEN_INVARIANTS)
def test_a_broken_block_invariant_is_refused_by_both_reductions(broken):
    make, psis = BROKEN_INVARIANTS[broken]
    f = make()
    assert block_invariant_violation(f, psis) == broken
    with pytest.raises(VerificationFailure, match=f"^{broken} \\(input\\)\n--- reproduction ---\n"):
        shrink_block_count(f, psis)
    with pytest.raises(PreconditionError, match=f"^{broken}$"):
        shrink_blocks(f, psis)
