"""Arithmetic for GF(2^m) split over its index-2 subfield GF(2^u), m = 2u.

Field elements are ints encoding polynomial-basis coordinates (bit k is the
coefficient of x^k).  ``GF2Ext`` holds log/antilog tables for one extension
field; ``FieldContext`` ties together GF(2^m) and GF(2^u) for even m:

* ``alpha`` (the class of x) generates GF(2^m)^*, so ``beta = alpha^r`` with
  r = 2^u + 1 generates the multiplicative group of the subfield GF(2^u),
  which has 2^u - 1 = rbar elements.
* every gamma in GF(2^m) decomposes uniquely as gamma = g1 + g2*alpha with
  g1, g2 in GF(2^u); ``quad_decompose``/``quad_compose`` convert between the
  m-bit value and the pair (g1, g2) of u-bit subfield values.
* ``quad_sum(v)`` adds g1*g2 over the support of a bit vector v whose
  position p carries the label alpha^p.
* ``exp_planes`` and ``qterm_planes`` hold the position tables bit by bit:
  plane k has bit p set when bit k of the value at position p is, so the
  chain's parity rows are these planes and XORs of them.

Default polynomials (one primitive polynomial per degree, overridable):

    degree  2   x^2 + x + 1
    degree  3   x^3 + x + 1
    degree  4   x^4 + x + 1
    degree  5   x^5 + x^2 + 1
    degree  6   x^6 + x + 1
    degree  8   x^8 + x^4 + x^3 + x^2 + 1
    degree 10   x^10 + x^3 + 1
    degree 12   x^12 + x^6 + x^4 + x + 1

Instances are immutable after construction and safe to share between threads.
"""

from __future__ import annotations

import math
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

__all__ = [
    "PRIM_POLYS",
    "GF2Ext",
    "QuadPair",
    "FieldContext",
    "build_field_context",
]

PRIM_POLYS: Dict[int, int] = {
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    8: 0b100011101,
    10: 0b10000001001,
    12: 0b1000001010011,
}


class GF2Ext:
    """GF(2^e) with log/antilog tables built from a primitive polynomial."""

    def __init__(self, e: int, poly: Optional[int] = None):
        if poly is None:
            if e not in PRIM_POLYS:
                raise ValueError(f"no default primitive polynomial for degree {e}")
            poly = PRIM_POLYS[e]
        if poly.bit_length() != e + 1:
            raise ValueError(f"polynomial 0x{poly:x} does not have degree {e}")
        if poly & 1 == 0:
            raise ValueError(f"polynomial 0x{poly:x} is divisible by x")
        self.e = e
        self.poly = poly
        self.order = 1 << e
        n = self.order - 1
        exp = [0] * n
        log = [0] * self.order
        v = 1
        for k in range(n):
            if v == 1 and k > 0:
                raise ValueError(f"polynomial 0x{poly:x} is not primitive")
            exp[k] = v
            log[v] = k
            v <<= 1
            if v & self.order:
                v ^= poly
        if v != 1:
            raise ValueError(f"polynomial 0x{poly:x} is not primitive")
        self.exp = exp
        self.log = log

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        n = self.order - 1
        return self.exp[(self.log[a] + self.log[b]) % n]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        n = self.order - 1
        return self.exp[(n - self.log[a]) % n]

    def power(self, a: int, k: int) -> int:
        if a == 0:
            if k == 0:
                return 1
            if k < 0:
                raise ZeroDivisionError("negative power of 0")
            return 0
        n = self.order - 1
        return self.exp[(self.log[a] * k) % n]

    def element_order(self, a: int) -> int:
        if a == 0:
            raise ValueError("0 has no multiplicative order")
        n = self.order - 1
        return n // math.gcd(n, self.log[a])


class QuadPair(NamedTuple):
    """Quadratic decomposition (g1, g2) of a GF(2^m) value: g1 + g2*alpha.

    Both components are u-bit values of the subfield.  The pair (0, 0) is the
    zero element and labels no code position.
    """

    g1: int
    g2: int


class FieldContext:
    """Joint tables for GF(2^m) and GF(2^u), m = 2u, with 4 <= m <= 12."""

    def __init__(self, m: int, poly_m: Optional[int] = None, poly_u: Optional[int] = None):
        if m % 2 != 0:
            raise ValueError(f"m must be even, got {m}")
        if not 4 <= m <= 12:
            raise ValueError(f"m must lie in 4..12, got {m}")
        self.m = m
        self.u = u = m // 2
        self.q = 1 << u
        self.r = self.q + 1
        self.rbar = self.q - 1
        self.n = (1 << m) - 1
        self.gm = GF2Ext(m, poly_m)
        self.gu = GF2Ext(u, poly_u)
        self.alpha = 2
        self.beta = self.gm.exp[self.r]
        if self.gm.element_order(self.beta) != self.rbar:
            raise RuntimeError("alpha^r does not generate the subfield")
        self._build_embedding()
        self._build_quadratic_tables()

    # -- subfield embedding ------------------------------------------------

    def _build_embedding(self) -> None:
        # root of the GF(2^u) defining polynomial among the powers of beta
        for j in range(self.rbar):
            zeta = self.gm.power(self.beta, j)
            acc = 0
            for k in range(self.u, -1, -1):
                acc = self.gm.mul(acc, zeta) ^ (self.gu.poly >> k & 1)
            if acc == 0:
                break
        else:
            raise RuntimeError("subfield polynomial has no root among beta powers")
        self.zeta = zeta
        # bit k of a subfield value a stands for zeta^k
        embed = [0]
        for k in range(self.u):
            embed += [v ^ self.gm.power(zeta, k) for v in embed]
        if len(set(embed)) != self.q:
            raise RuntimeError("subfield embedding is not injective")
        self._embed: List[int] = embed

    # -- quadratic decomposition ------------------------------------------

    def _build_quadratic_tables(self) -> None:
        pair_of_value: List[Optional[QuadPair]] = [None] * (1 << self.m)
        for g2 in range(self.q):
            t2 = self.gm.mul(self._embed[g2], self.alpha)
            for g1 in range(self.q):
                value = self._embed[g1] ^ t2
                if pair_of_value[value] is not None:
                    raise RuntimeError("quadratic decomposition is not unique")
                pair_of_value[value] = QuadPair(g1, g2)
        self._pair_of_value = pair_of_value
        self.quad_pairs: Tuple[QuadPair, ...] = tuple(
            pair_of_value[self.gm.exp[i]] for i in range(self.n)  # type: ignore[misc]
        )
        self._pos_of_pair: Dict[QuadPair, int] = {
            p: i for i, p in enumerate(self.quad_pairs)
        }
        self.qterm: Tuple[int, ...] = tuple(
            self.gu.mul(p.g1, p.g2) for p in self.quad_pairs
        )
        self.exp_planes = _bit_planes(self.gm.exp, self.m)
        self.qterm_planes = _bit_planes(self.qterm, self.u)

    def quad_decompose(self, value: int) -> QuadPair:
        if not 0 <= value < (1 << self.m):
            raise ValueError(f"value 0x{value:x} outside GF(2^{self.m})")
        return self._pair_of_value[value]  # type: ignore[return-value]

    def quad_compose(self, pair: QuadPair) -> int:
        g1, g2 = pair
        if not (0 <= g1 < self.q and 0 <= g2 < self.q):
            raise ValueError(f"pair {pair} outside GF(2^{self.u})^2")
        return self._embed[g1] ^ self.gm.mul(self._embed[g2], self.alpha)

    def position_of_pair(self, pair: QuadPair) -> int:
        """Coordinate position labeled by the nonzero element g1 + g2*alpha."""
        try:
            return self._pos_of_pair[QuadPair(*pair)]
        except KeyError:
            raise ValueError(f"pair {pair} does not label a position") from None

    def quad_sum(self, v: int) -> int:
        """Sum of g1*g2 over the support of v; position p is labeled alpha^p."""
        if not 0 <= v < (1 << self.n):
            raise ValueError("vector does not have length n")
        acc = 0
        qterm = self.qterm
        while v:
            low = v & -v
            acc ^= qterm[low.bit_length() - 1]
            v ^= low
        return acc


def _bit_planes(values: Sequence[int], width: int) -> Tuple[int, ...]:
    """Plane k has bit p set when bit k of values[p] is."""
    digits = [format(v, f"0{width}b") for v in reversed(values)]
    return tuple(int("".join(column), 2) for column in zip(*digits))[::-1]


def build_field_context(m: int, poly_m: Optional[int] = None, poly_u: Optional[int] = None) -> FieldContext:
    """Construct the shared field tables for an even extension degree m."""
    return FieldContext(m, poly_m, poly_u)
