"""Coset regularity: weight partitions, intersection numbers, designs.

Every coset of a chain code is identified with its packed syndrome, so the
coset space is the dense range [0, 2^(n-k)).  A coset table holds the coset
weights and every coset's neighbour counts: how many of its n neighbours
s ^ U[p] lie one weight below (down) and one above (up).  A plain code's
weights come from a BFS over syndromes and its counts from one vectorised
pass per unit syndrome, made once per table.  An extended code's weights and
counts are its base table's, doubled in one numpy step by the parity bit.
Complete regularity, the coset count identity and uniform packing read
nothing else.  Coset weight distributions are constant on each weight class
exactly when, for every dual weight j, the Walsh-Hadamard transform N_j of
the indicator of the weight-j dual words is.
Design checks read how many pairs of unit syndromes XOR to each s off the
transform of h^2, h = WHT(1_U), without listing any pair or codeword.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import comb
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .codes import LinearCode, dual_spectrum, dual_weights
from .gf2 import gf2_wht

__all__ = [
    "CosetTable",
    "IntersectionArray",
    "RegularityReport",
    "PackingReport",
    "MuReport",
    "DesignReport",
    "ExtendedArrayReport",
    "distributions_uniform",
    "verify_completely_regular",
    "cria_array",
    "extended_cria_array",
    "extended_array_variant",
    "verify_mu_identity",
    "verify_uniformly_packed",
    "design_lambda",
    "check_design",
    "verify_extension_condition",
    "verify_extended_array",
]


class CosetTable:
    """Weights and neighbour counts of all cosets of one code, indexed by
    packed syndrome.

    A plain code's weights come from a BFS over the unit syndromes and its
    counts from one pass per unit syndrome.  An extended code's coset
    s | b*2^r is base coset s with parity b (``base``, or built): its weight
    is w(s) + e with e = (w(s) + b) mod 2, and with c, b the base counts of s
    its counts are (c, n + 1 - c) when e = 0 and (n + 1 - b, b) when e = 1.
    """

    def __init__(self, code: LinearCode, base: Optional[CosetTable] = None):
        if code.syndrome_width > 20:
            raise ValueError("coset enumeration capped at 2^20 syndromes")
        if code.extended:
            base = base if base is not None else CosetTable(code.base)
            par = 1 << base.code.syndrome_width
            units = code.unit_syndromes
            if units[0] != par or units[1:] != tuple(s | par for s in base.code.unit_syndromes):
                raise ValueError("extended unit syndromes are not the base ones plus a parity bit")
            weight, down, up = (np.tile(a, 2) for a in (base.weights, base.down, base.up))
            # e = (w(s) + b) mod 2, with parity b = 0 on the low half
            e = (weight + np.repeat((0, 1), len(base))) & 1
            self.weights = weight + e
            self.down = np.where(e, code.length - up, down)
            self.up = np.where(e, up, code.length - down)
        else:
            self.weights = _bfs_weights(code.unit_syndromes, code.syndrome_width)
            self.down, self.up = _neighbour_counts(self.weights, code.unit_syndromes)
        self.code = code
        self.rho = int(self.weights.max())
        self.mu: Tuple[int, ...] = tuple(np.bincount(self.weights).tolist())

    def __len__(self) -> int:
        return len(self.weights)


def _neighbour_counts(weight: np.ndarray, units: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
    """Every coset's neighbours one weight below and one above, one pass
    over the weight array per unit syndrome."""
    syn = np.arange(len(weight))
    down = np.zeros_like(weight)
    up = np.zeros_like(weight)
    for us in units:
        near = weight[syn ^ us]
        down += near == weight - 1
        up += near == weight + 1
    return down, up


def _bfs_weights(units: Sequence[int], width: int) -> np.ndarray:
    """Distance from 0 of every syndrome, steps being the unit syndromes."""
    weight = [-1] * (1 << width)
    weight[0] = 0
    queue = deque([0])
    while queue:
        s = queue.popleft()
        w = weight[s] + 1
        for us in units:
            t = s ^ us
            if weight[t] < 0:
                weight[t] = w
                queue.append(t)
    if min(weight) < 0:
        raise RuntimeError("syndrome space is not connected by unit syndromes")
    return np.array(weight, dtype=np.int64)


def distributions_uniform(code: LinearCode, table: CosetTable) -> bool:
    """Do all cosets of one weight have the same weight distribution?

    By MacWilliams' identity the distribution of coset s is a fixed,
    invertible Krawtchouk image of (N_j(s))_j, where N_j = WHT(1_{D_j}) and
    D_j is the set of dual words of weight j.  So the distributions are
    uniform exactly when every N_j is constant on each weight class.
    """
    dual = dual_weights(code)
    weight = table.weights
    # weights take every value 0..rho, so first[l] is a coset of weight l
    first = np.unique(weight, return_index=True)[1]
    for j in np.flatnonzero(np.bincount(dual)):
        n_j = gf2_wht((dual == j).astype(np.int64))
        if (n_j != n_j[first][weight]).any():
            return False
    return True


@dataclass(frozen=True)
class IntersectionArray:
    """b_0..b_(rho-1) and c_1..c_rho of a distance-regular partition."""

    b: Tuple[int, ...]
    c: Tuple[int, ...]

    @property
    def rho(self) -> int:
        return len(self.c)

    @property
    def valency(self) -> int:
        return self.b[0]

    def a(self, l: int) -> int:
        bl = self.b[l] if l < len(self.b) else 0
        cl = self.c[l - 1] if l >= 1 else 0
        return self.valency - bl - cl

    def __str__(self) -> str:
        left = ",".join(str(x) for x in self.b)
        right = ",".join(str(x) for x in self.c)
        return f"({left};{right})"


@dataclass(frozen=True)
class RegularityReport:
    completely_regular: bool
    array: Optional[IntersectionArray]
    witness: Optional[Dict[str, object]] = None


def verify_completely_regular(table: CosetTable) -> RegularityReport:
    """Check constant c_l / b_l over every weight class, read off the
    table's counts.  The witness is the smallest syndrome whose counts
    differ from those of the first coset of its weight."""
    weight, down, up = table.weights, table.down, table.up
    rho = table.rho
    # weights take every value 0..rho, so first[l] is a coset of weight l
    first = np.unique(weight, return_index=True)[1]
    c_vals, b_vals = down[first], up[first]
    bad = (down != c_vals[weight]) | (up != b_vals[weight])
    if bad.any():
        s = int(bad.argmax())
        w = int(weight[s])
        witness = {
            "weight": w,
            "coset_a": int(first[w]),
            "coset_b": s,
            "counts_a": (int(c_vals[w]), int(b_vals[w])),
            "counts_b": (int(down[s]), int(up[s])),
        }
        return RegularityReport(False, None, witness)
    array = IntersectionArray(b=tuple(b_vals[:rho].tolist()), c=tuple(c_vals[1:].tolist()))
    return RegularityReport(True, array)


def cria_array(m: int, i: int) -> IntersectionArray:
    """Expected array of the level-i code, covering radius 3 (1 for level 0)."""
    n = (1 << m) - 1
    if i == 0:
        return IntersectionArray(b=(n,), c=(1,))
    return IntersectionArray(
        b=(n, (1 << m) - (1 << (m - i)), 1),
        c=(1, 1 << (m - i), n),
    )


def extended_cria_array(m: int, i: int) -> IntersectionArray:
    """Expected array of the extended level-i code, i >= 1, covering radius 4."""
    if i == 0:
        return IntersectionArray(b=(1 << m, (1 << m) - 1), c=(1, 1 << m))
    return IntersectionArray(
        b=(1 << m, (1 << m) - 1, (1 << m) - (1 << (m - i)), 1),
        c=(1, 1 << (m - i), (1 << m) - 1, 1 << m),
    )


def extended_array_variant(m: int, i: int) -> IntersectionArray:
    """Off-by-one variant of the extended array, with b_0 = 2^m + 1.

    A length-2^m code cannot have valency 2^m + 1, so reports are expected
    to show the computed array does not take this form.
    """
    return IntersectionArray(
        b=((1 << m) + 1, 1 << m, (1 << m) - (1 << (m - i)), 1),
        c=(1, 1 << (m - i), 1 << m, (1 << m) + 1),
    )


@dataclass(frozen=True)
class MuReport:
    ok: bool
    mu: Tuple[int, ...]
    products: Tuple[Tuple[int, int], ...]


def verify_mu_identity(table: CosetTable, array: IntersectionArray) -> MuReport:
    """b_l * mu_l = c_(l+1) * mu_(l+1) for l = 0..rho-1."""
    mu = table.mu
    products = []
    ok = True
    for l in range(array.rho):
        lhs = array.b[l] * mu[l]
        rhs = array.c[l] * mu[l + 1]
        products.append((lhs, rhs))
        if lhs != rhs:
            ok = False
    return MuReport(ok, mu, tuple(products))


@dataclass(frozen=True)
class PackingReport:
    rho: int
    s: int
    uniformly_packed: bool


def verify_uniformly_packed(code: LinearCode, table: CosetTable) -> PackingReport:
    s = dual_spectrum(code).s
    return PackingReport(rho=table.rho, s=s, uniformly_packed=s == table.rho)


def design_lambda(m: int, i: int) -> int:
    """Replication number of the weight-3 words of the level-i code."""
    return (1 << (m - i - 1)) - 1


@dataclass(frozen=True)
class DesignReport:
    points: int
    block_weight: int
    strength: int
    blocks: int
    lam: Optional[int]
    ok: bool
    counterexample: Optional[Tuple[int, ...]] = None


def check_design(code: LinearCode) -> DesignReport:
    """Do the minimum-weight words form a design?  Read off pair syndromes.

    With U the unit syndromes, cnt[s] counts the pairs a < b with
    U[a] ^ U[b] = s: the XOR autocorrelation WHT(WHT(1_U)^2) / 2^r of 1_U
    is 2 cnt off 0.  When U is nonzero and distinct, the pairs with one
    syndrome are disjoint, so:

    * unextended code, weight-3 words as a 1-design: a word through point p
      is a pair with syndrome U[p], so cnt[U[p]] blocks pass through p;
    * extended code, weight-4 words as a 2-design: a word is two pairs with
      equal syndrome, met once for each of its 3 splits, so there are
      sum C(cnt, 2) / 3 blocks and cnt[U[a] ^ U[b]] - 1 of them pass
      through {a, b}: lambda for all when every nonzero cnt is lambda + 1.

    The witness is the first point, or pair in row-major order (scanned
    only on failure), whose count differs from lambda.
    """
    units = np.asarray(code.unit_syndromes, dtype=np.int64)
    n, width = code.length, code.syndrome_width
    if units.min() <= 0 or len(set(code.unit_syndromes)) != n:
        raise ValueError("design check needs distinct nonzero unit syndromes")
    spectrum = gf2_wht(np.bincount(units, minlength=1 << width))
    cnt = gf2_wht(spectrum * spectrum) >> (width + 1)
    cnt[0] = 0
    block_weight, strength = (4, 2) if code.extended else (3, 1)
    blocks = int((cnt * (cnt - 1) // 2 if code.extended else cnt[units]).sum()) // 3
    if blocks == 0:
        return DesignReport(n, block_weight, strength, 0, None, False)
    lam = blocks * comb(block_weight, strength) // comb(n, strength)
    witness = None
    if not code.extended:
        off = np.flatnonzero(cnt[units] != lam)
        witness = (int(off[0]),) if len(off) else None
    elif (cnt[cnt > 0] != lam + 1).any():
        for a in range(n - 1):
            off = np.flatnonzero(cnt[units[a] ^ units[a + 1:]] != lam + 1)
            if len(off):
                witness = (a, a + 1 + int(off[0]))
                break
    return DesignReport(n, block_weight, strength, blocks, lam, witness is None, witness)


def verify_extension_condition(code: LinearCode) -> Optional[bool]:
    """Three dual weights with w1 + w3 = 2*w2 = n + 1; None if not three."""
    sp = dual_spectrum(code)
    if sp.s != 3:
        return None
    w1, w2, w3 = sp.weights
    n = code.length
    return w1 + w3 == n + 1 and 2 * w2 == n + 1


@dataclass(frozen=True)
class ExtendedArrayReport:
    regularity: RegularityReport
    matches_extended_form: bool
    matches_variant_form: bool


def verify_extended_array(code: LinearCode, table: CosetTable) -> ExtendedArrayReport:
    """Compare the computed array of an extended code with both printed forms."""
    if not code.extended:
        raise ValueError("code is not extended")
    rep = verify_completely_regular(table)
    expected = extended_cria_array(code.ctx.m, code.level)
    variant = extended_array_variant(code.ctx.m, code.level)
    return ExtendedArrayReport(
        regularity=rep,
        matches_extended_form=rep.array == expected,
        matches_variant_form=rep.array == variant,
    )
