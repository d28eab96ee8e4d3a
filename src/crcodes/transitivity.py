"""Permutation actions on chain codes and orbit counts on their cosets.

Positions carry quadratic-pair labels (g1, g2) over the subfield, so an
invertible 2x2 subfield matrix acts columnwise as (g1, g2) -> (a*g1 + a1*g2,
b*g1 + b1*g2) and induces a coordinate permutation.  For vectors in the
kernel of the field-sum parity map the position weight function scales by
the determinant under this action, which is what makes the level codes
invariant: determinant 1 always works, and a diagonal part works exactly
when the determinant multiplies the admissible syndrome subspace onto
itself.  Squaring the field labels gives a further semilinear permutation
whose effect on the weight function is a twisted power; it rescues levels
where the linear stabilizer alone leaves too many orbits.

A permutation pi stabilizes C, the kernel of v -> XOR of U[p] over the
support of v, exactly when one linear map of syndromes sends each U[p] to
U[pi(p)], and it moves every coset at once.  The map comes from the code's
one basis solve (``codes._syndrome_map``), as covering maps do.
Orbits are the components of the generator maps, found by min-label
propagation and numbered by their smallest syndrome.

A code is completely transitive when its automorphism group has rho+1
orbits on its cosets, so reaching rho+1 under a subgroup certifies it.
``certify_transitivity`` decides plain and extended codes alike: an
extended code is acted on by its base code's group, each generator fixing
the parity position, together with the label-addition translations.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .codes import LinearCode, _syndrome_map
from .field import FieldContext, GF2Ext
from .gf2 import gf2_span
from .regularity import CosetTable

__all__ = [
    "Mat2",
    "OrbitPartition",
    "CTReport",
    "mat_det",
    "sl2_generators",
    "gl2_generators",
    "matrix_to_permutation",
    "frobenius_permutation",
    "compose_permutations",
    "coset_action",
    "orbits_on_cosets",
    "translation_permutation",
    "lift_permutation",
    "default_acting_group",
    "semilinear_extension",
    "certify_transitivity",
    "conjecture_predicate",
]


@dataclass(frozen=True)
class Mat2:
    """The matrix [[a, a1], [b, b1]] with subfield entries."""

    a: int
    a1: int
    b: int
    b1: int


def mat_det(phi: Mat2, gu: GF2Ext) -> int:
    return gu.mul(phi.a, phi.b1) ^ gu.mul(phi.a1, phi.b)


def sl2_generators(ctx: FieldContext) -> List[Mat2]:
    """Three matrices generating the determinant-1 group over the subfield:
    two transvections and a determinant-1 diagonal whose conjugates supply
    the remaining transvections."""
    g = 2 if ctx.u > 1 else 1
    return [Mat2(1, 1, 0, 1), Mat2(1, 0, g, 1), Mat2(g, 0, 0, ctx.gu.inv(g))]


def gl2_generators(ctx: FieldContext) -> List[Mat2]:
    """Transvections plus one diagonal of primitive determinant."""
    g = 2 if ctx.u > 1 else 1
    return [Mat2(1, 1, 0, 1), Mat2(1, 0, g, 1), Mat2(g, 0, 0, 1)]


@functools.lru_cache(maxsize=8)
def _pair_tables(ctx: FieldContext) -> Tuple[np.ndarray, ...]:
    """Subfield products mul[a, b], positions pos[g1, g2] and position labels."""
    exp, log = np.array(ctx.gu.exp * 2), np.array(ctx.gu.log)
    mul = exp[log[:, None] + log]
    mul[0] = mul[:, 0] = 0
    pairs = itertools.chain.from_iterable(ctx.quad_pairs)
    g1, g2 = np.fromiter(pairs, np.int64, 2 * ctx.n).reshape(-1, 2).T
    pos = np.full((ctx.q, ctx.q), -1)
    pos[g1, g2] = np.arange(ctx.n)
    return mul, pos, g1, g2


def matrix_to_permutation(ctx: FieldContext, phi: Mat2) -> Tuple[int, ...]:
    """Coordinate permutation of the pair labels under the column action."""
    if mat_det(phi, ctx.gu) == 0:
        raise ValueError("singular matrix does not permute positions")
    mul, pos, g1, g2 = _pair_tables(ctx)
    h1 = mul[phi.a, g1] ^ mul[phi.a1, g2]
    h2 = mul[phi.b, g1] ^ mul[phi.b1, g2]
    return tuple(pos[h1, h2].tolist())


def frobenius_permutation(ctx: FieldContext, k: int) -> Tuple[int, ...]:
    """Position map of repeated label squaring: log doubles mod n."""
    return tuple((p << k) % ctx.n for p in range(ctx.n))


def compose_permutations(outer: Sequence[int], inner: Sequence[int]) -> Tuple[int, ...]:
    """Apply inner first, then outer."""
    return tuple(outer[p] for p in inner)


@dataclass(frozen=True)
class OrbitPartition:
    class_of: np.ndarray  # orbit number of every syndrome
    orbit_count: int
    orbit_weights: Tuple[int, ...]
    orbit_sizes: Tuple[int, ...]


def coset_action(perm: Sequence[int], code: LinearCode) -> Optional[np.ndarray]:
    """Image of every syndrome under the coset map of perm, which sends
    every U[p] to U[perm[p]], or None when perm does not stabilize the code."""
    return _syndrome_map(code, np.asarray(code.unit_syndromes)[np.asarray(perm)])


def orbits_on_cosets(
    gens: Sequence[Sequence[int]], code: LinearCode, table: CosetTable
) -> OrbitPartition:
    """Orbit partition of all cosets under the generated permutation group."""
    maps = []
    for gi, perm in enumerate(gens):
        if len(perm) != code.length:
            raise ValueError(f"generator {gi} has wrong length")
        image = coset_action(perm, code)
        if image is None:
            raise ValueError(f"generator {gi} does not stabilize the code")
        if (table.weights[image] != table.weights).any():
            raise RuntimeError("orbit mixes coset weights")
        maps.append(image)
    # label[s] stays a member of s's orbit no larger than s; an orbit of a
    # finite group is what its generators reach from s, so pulling labels
    # back along every map and jumping label -> label[label] settles on the
    # orbit's smallest member
    label = np.arange(len(table))
    while True:
        before = label
        for image in maps:
            label = np.minimum(label, label[image])
        label = label[label]
        if (label == before).all():
            break
    smallest = np.flatnonzero(label == np.arange(len(label)))
    class_of = np.searchsorted(smallest, label)
    return OrbitPartition(
        class_of,
        len(smallest),
        tuple(table.weights[smallest].tolist()),
        tuple(np.bincount(class_of).tolist()),
    )


def translation_permutation(ctx: FieldContext, w: int) -> Tuple[int, ...]:
    """Label-addition permutation on the extended coordinate set.

    Position 0 is labeled by the zero field element and position j >= 1 by
    the field element with log j-1; adding w permutes the labels.
    """
    if not 0 <= w < (1 << ctx.m):
        raise ValueError("translation label out of range")
    label = np.array([0, *ctx.gm.exp[:ctx.n]])
    return tuple(np.argsort(label)[label ^ w].tolist())


def lift_permutation(perm: Sequence[int]) -> Tuple[int, ...]:
    """Extend a base-coordinate permutation by fixing the parity position."""
    return (0,) + tuple(p + 1 for p in perm)


@dataclass(frozen=True)
class ActingGroup:
    name: str
    matrices: Tuple[Mat2, ...]
    semilinear: Tuple[Tuple[int, int], ...] = ()  # (frobenius power, diagonal)

    def permutations(self, ctx: FieldContext, extended: bool = False) -> List[Tuple[int, ...]]:
        """Generators on the positions, or on the extended positions: there
        each one fixes the parity position and the translations join."""
        perms = [matrix_to_permutation(ctx, phi) for phi in self.matrices]
        for k, d in self.semilinear:
            diag = matrix_to_permutation(ctx, Mat2(d, 0, 0, 1))
            perms.append(compose_permutations(diag, frobenius_permutation(ctx, k)))
        if not extended:
            return perms
        translations = [translation_permutation(ctx, 1 << k) for k in range(ctx.m)]
        return [lift_permutation(p) for p in perms] + translations


def _subspace_of(code: LinearCode) -> frozenset:
    return frozenset(gf2_span(code.syndrome_targets))


def default_acting_group(code: LinearCode) -> ActingGroup:
    """The linear stabilizer used first: full 2x2 group at the ends, the
    determinant-1 group at level one, and the determinant-stabilizer of the
    admissible syndrome subspace in between."""
    ctx = code.ctx
    if code.extended:
        raise ValueError("acting groups are built on the unextended code")
    if code.level in (0, ctx.u):
        return ActingGroup("GL2", tuple(gl2_generators(ctx)))
    if code.level == 1:
        return ActingGroup("SL2", tuple(sl2_generators(ctx)))
    a_space = _subspace_of(code)
    gu = ctx.gu
    stab = [d for d in range(1, ctx.q) if {gu.mul(d, x) for x in a_space} == a_space]
    best = max(stab, key=gu.element_order)
    if gu.element_order(best) > 1:
        mats = tuple(sl2_generators(ctx)) + (Mat2(best, 0, 0, 1),)
        return ActingGroup("SL2+diag", mats)
    return ActingGroup("SL2", tuple(sl2_generators(ctx)))


def semilinear_extension(code: LinearCode) -> Tuple[Tuple[int, int], ...]:
    """Label-squaring permutations compatible with the admissible subspace.

    For each power k, squaring k times multiplies the position weight
    function by the alpha-component of alpha^(2^k) and raises it to the
    2^k-th power; a diagonal d is sought so that the composite maps the
    admissible subspace onto itself.  Returns (k, d) pairs.
    """
    ctx = code.ctx
    gu = ctx.gu
    a_space = _subspace_of(code)
    out = []
    for k in range(1, ctx.m):
        qk = ctx.quad_decompose(ctx.gm.exp[(1 << k) % ctx.n]).g2
        if qk == 0:
            continue
        twisted = {gu.power(x, 1 << k) for x in a_space}
        for d in range(1, ctx.q):
            scale = gu.mul(d, qk)
            if {gu.mul(scale, x) for x in twisted} == a_space:
                out.append((k, d))
                break
    return tuple(out)


@dataclass(frozen=True)
class CTReport:
    m: int
    level: int
    rho: int
    group: str
    orbit_count: int
    certified: bool
    predicted: bool
    orbit_weights: Tuple[int, ...]
    orbit_sizes: Tuple[int, ...]


def conjecture_predicate(u: int, i: int) -> bool:
    """Levels claimed completely transitive: the ends, level one, and small i."""
    return i in (0, 1, u) or (1 << i) <= u + 1


def certify_transitivity(code: LinearCode, table: CosetTable) -> CTReport:
    """One-sided verdict: certified when some stabilizing subgroup reaches
    rho+1 orbits; otherwise undetermined with the best orbit count found.

    The group is the default group of the code, or for an extended code
    that of its base code, lifted, with the label-addition translations.
    Strictly between the ends, when it leaves more than rho+1 orbits, the
    group widened by the compatible label squarings is tried as well and
    the smaller count kept.
    """
    ctx = code.ctx
    base = code.base if code.extended else code
    group = default_acting_group(base)
    orbits = orbits_on_cosets(group.permutations(ctx, code.extended), code, table)
    if orbits.orbit_count > table.rho + 1 and 0 < code.level < ctx.u:
        semi = semilinear_extension(base)
        if semi:
            wider = ActingGroup(group.name + "+frob", group.matrices, semi)
            candidate = orbits_on_cosets(wider.permutations(ctx, code.extended), code, table)
            if candidate.orbit_count < orbits.orbit_count:
                group, orbits = wider, candidate
    return CTReport(
        m=ctx.m,
        level=code.level,
        rho=table.rho,
        group=group.name + ("+translations" if code.extended else ""),
        orbit_count=orbits.orbit_count,
        certified=orbits.orbit_count == table.rho + 1,
        predicted=conjecture_predicate(ctx.u, code.level),
        orbit_weights=orbits.orbit_weights,
        orbit_sizes=orbits.orbit_sizes,
    )
