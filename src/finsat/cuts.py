"""Block-count reduction via equivalent cuts.

A cut is a half-integer depth level of a factorization; its frontier
collects the boundary blocks just below and above it together with all
extremal blocks.  When two cuts have isomorphic frontiers (in the strong
sense checked here), the band between them can be excised and the loose
ends glued along the frontier map, strictly decreasing the number of
blocks while preserving every basic constraint whose factor-controllable
part the factorization carries.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from .logic import LogicError, OneType, Pair, PreconditionError, VerificationFailure
from .factorization import (
    Factorization,
    TypedPartialOrder,
    block_invariant_violation,
    is_thin,
    transitive_closure,
)
from .normal_forms import BasicFormula
from .parsing import write_structure


@dataclass(frozen=True)
class Cut:
    """A level between block depths; depth increases downward, so a cut is
    'above' another when its value is numerically smaller."""

    value: float

    def __post_init__(self) -> None:
        if self.value % 1 != 0.5 or self.value < 0:
            raise LogicError("cuts sit at half-integer depths")

    def below(self, other: "Cut") -> bool:
        return self.value > other.value


def cuts_of(f: Factorization) -> tuple[Cut, ...]:
    return tuple(Cut(i + 0.5) for i in range(max(f.depths.values())))


@dataclass(frozen=True)
class Frontier:
    """Per-type boundary blocks around a cut plus all extremal blocks."""

    below: tuple[Pair, ...]  # (block index, depth), maximal blocks below
    above: tuple[Pair, ...]  # minimal blocks above
    extremal: frozenset[int]

    def blocks(self) -> frozenset[int]:
        return (
            frozenset(i for i, _ in self.below)
            | frozenset(i for i, _ in self.above)
            | self.extremal
        )


def frontier(f: Factorization, cut: Cut) -> Frontier:
    d = f.depths
    if not 0 < cut.value < max(d.values()):
        raise PreconditionError(f"cut {cut.value} out of range")
    below: dict[OneType, Pair] = {}
    above: dict[OneType, Pair] = {}
    for i in range(f.n_blocks):
        pi = f.block_types[i]
        if d[i] > cut.value:
            if pi not in below or d[i] < below[pi][1]:
                below[pi] = (i, d[i])
        else:
            if pi not in above or d[i] > above[pi][1]:
                above[pi] = (i, d[i])
    return Frontier(
        tuple(sorted(below.values())),
        tuple(sorted(above.values())),
        f.extremal_blocks,
    )


def cuts_equivalent(
    f: Factorization, chi: Cut, chi_prime: Cut
) -> Optional[dict[int, int]]:
    """The unique frontier map between two cuts if it exists.

    The map must send boundary blocks to boundary blocks of the same side
    and type, be the identity on extremal blocks, be an isomorphism of the
    frontiers as typed partial orders, and preserve each boundary block's
    relations to every extremal block.
    """
    if not chi.below(chi_prime):
        raise PreconditionError("first cut must lie below the second")
    return _frontier_map(f, frontier(f, chi), frontier(f, chi_prime))


def _frontier_map(f: Factorization, fr1: Frontier, fr2: Frontier) -> Optional[dict[int, int]]:
    """cuts_equivalent on the frontiers of the lower and the upper cut."""
    mapping: dict[int, int] = {i: i for i in fr1.extremal}
    for side1, side2 in ((fr1.below, fr2.below), (fr1.above, fr2.above)):
        by_type = {f.block_types[j]: j for j, _ in side2}
        for i, _ in side1:
            j = by_type.get(f.block_types[i])
            if j is None:
                return None
            if i in mapping and mapping[i] != j:
                return None
            mapping[i] = j
    if set(mapping) != fr1.blocks():
        return None
    image = set(mapping.values())
    if len(image) != len(mapping) or image != set(fr2.blocks()):
        return None
    for i in mapping:
        if f.block_types[i] != f.block_types[mapping[i]]:
            return None
    for i, j in itertools.permutations(mapping, 2):
        if f.less(i, j) != f.less(mapping[i], mapping[j]):
            return None
    # Boundary blocks must relate to every extremal block exactly as their
    # images do.
    boundary = (frozenset(i for i, _ in fr1.below) | frozenset(i for i, _ in fr1.above)) - fr1.extremal
    for i in boundary:
        for e in fr1.extremal:
            if f.less(i, e) != f.less(mapping[i], e) or f.less(e, i) != f.less(
                e, mapping[i]
            ):
                return None
    return mapping


@dataclass(frozen=True)
class ReduceResult:
    factorization: Factorization
    element_map: dict[int, int]  # old element -> new element
    survivors: tuple[int, ...]  # old block indices kept, in new index order

    @property
    def tpo(self) -> TypedPartialOrder:
        return self.factorization.tpo


def reduce_at(
    f: Factorization, chi: Cut, chi_prime: Cut, mapping: dict[int, int]
) -> ReduceResult:
    """Excise the band between two equivalent cuts and glue along the map.

    Keeps the blocks below the lower cut and above the upper cut; the new
    block order stitches lower-boundary blocks to the images of the upper
    boundary; the new element order is the closure of the inherited
    inter-block, intra-block and extremal orders.  The block count strictly
    decreases.
    """
    if mapping != cuts_equivalent(f, chi, chi_prime):
        raise PreconditionError("stale frontier map")
    d = f.depths
    keep_below = [i for i in range(f.n_blocks) if d[i] > chi.value]
    keep_above = [i for i in range(f.n_blocks) if d[i] < chi_prime.value]
    survivors = sorted(set(keep_below) | set(keep_above))
    if len(survivors) >= f.n_blocks:
        raise VerificationFailure("reduction did not remove any block")
    fr1 = frontier(f, chi)
    below_set = set(keep_below)
    above_set = set(keep_above)
    base: list[Pair] = []
    for i, j in f.order:
        if (i in below_set and j in below_set) or (i in above_set and j in above_set):
            base.append((i, j))
    f_minus = [i for i, _ in fr1.below]
    f_plus = [i for i, _ in fr1.above]
    for b in f_minus:
        for c in f_plus:
            if f.less(b, c):
                base.append((b, mapping[c]))
    block_order = transitive_closure(base)

    old_elements = sorted(a for i in survivors for a in f.blocks[i])
    elem_map = {a: k for k, a in enumerate(old_elements)}
    tpo = f.tpo
    new_blocks = tuple(
        frozenset(elem_map[a] for a in f.blocks[i]) for i in survivors
    )
    block_new_idx = {old: k for k, old in enumerate(survivors)}
    new_block_order = frozenset(
        (block_new_idx[i], block_new_idx[j])
        for i, j in block_order
        if i in block_new_idx and j in block_new_idx
    )
    inter = set()
    for i, j in new_block_order:
        for a in new_blocks[i]:
            for b in new_blocks[j]:
                inter.add((a, b))
    intra = set()
    for a, b in tpo.order:
        if a in elem_map and b in elem_map and f.block_of[a] == f.block_of[b]:
            intra.add((elem_map[a], elem_map[b]))
    ext = tpo.extremal_elements
    extremal = set()
    for a, b in tpo.order:
        if a in ext and b in ext and a in elem_map and b in elem_map:
            extremal.add((elem_map[a], elem_map[b]))
    new_order = transitive_closure(inter | intra | extremal)
    new_types = tuple(tpo.types[a] for a in old_elements)
    new_tpo = TypedPartialOrder(new_types, new_order)
    new_f = Factorization(new_tpo, new_blocks, new_block_order)
    if not is_thin(new_f):
        raise VerificationFailure("reduced structure is not thin over its factorization")
    return ReduceResult(new_f, elem_map, tuple(survivors))


def find_equivalent_cuts(f: Factorization) -> Optional[tuple[Cut, Cut, dict[int, int]]]:
    """First equivalent cut pair by increasing gap, then by position."""
    cs = cuts_of(f)
    frs = [frontier(f, c) for c in cs]
    for gap in range(1, len(cs)):
        for lo in range(len(cs) - gap):
            mapping = _frontier_map(f, frs[lo + gap], frs[lo])
            if mapping is not None:
                return cs[lo + gap], cs[lo], mapping
    return None


def shrink_block_count(f: Factorization, psis: Sequence[BasicFormula]) -> Factorization:
    """Apply reductions until no two cuts are equivalent.

    Preconditions: the block invariants of ``block_invariant_violation``.
    Every iterate is re-verified against them; a failure raises with a
    reproduction bundle, since these checks are the point of the exercise.
    """
    steps = 0
    while True:
        broken = block_invariant_violation(f, psis)
        if broken:
            stage = f"after step {steps}" if steps else "input"
            raise VerificationFailure(f"{broken} ({stage})", write_structure(f.tpo.to_structure()))
        hit = find_equivalent_cuts(f)
        if hit is None:
            return f
        chi, chi_prime, mapping = hit
        before = f.n_blocks
        f = reduce_at(f, chi, chi_prime, mapping).factorization
        steps += 1
        if f.n_blocks >= before:
            raise VerificationFailure("block count did not decrease")
        if steps > before:
            raise VerificationFailure("reduction failed to terminate")
