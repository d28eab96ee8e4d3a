"""Construction of the nested code chain and its basic code-level operations.

The chain lives inside F_2^n, n = 2^m - 1, with coordinate p labeled by
alpha^p.  The base code (level u) is cut out of the Hamming code by the
condition quad_sum(v) = 0; level i keeps the Hamming condition and relaxes
quad_sum to a subspace of F_2^u of dimension u - i.  Level 0 is the Hamming
code itself.  Extension appends a parity coordinate at index 0, labeled by
the zero field element.

Syndromes are packed ints: bits [0, m) hold the field sum over the support,
bits [m, m+i) hold the projection of quad_sum onto a complement of the
subspace, and extended codes add one parity bit on top.  A vector belongs to
the code iff its syndrome is 0.  All objects are immutable after construction.
"""

from __future__ import annotations

from itertools import islice
from typing import TYPE_CHECKING, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

if TYPE_CHECKING:
    import numpy as np

from .field import FieldContext
from .gf2 import gf2_nullspace, gf2_rank, gf2_wht

__all__ = [
    "LinearCode",
    "DualSpectrum",
    "build_chain",
    "check_membership",
    "extend_code",
    "dual_weights",
    "dual_spectrum",
    "save_code",
]


class LinearCode:
    """One level of the chain, optionally extended by a parity coordinate.

    level i means: Hamming condition plus quad_sum(v) constrained to the span
    of ``syndrome_targets`` (u - i independent vectors of F_2^u).
    """

    def __init__(
        self,
        ctx: FieldContext,
        level: int,
        syndrome_targets: Sequence[int],
        adjoined_reps: Sequence[int],
        extended: bool = False,
    ):
        if not 0 <= level <= ctx.u:
            raise ValueError(f"level must lie in 0..{ctx.u}, got {level}")
        if len(syndrome_targets) != ctx.u - level:
            raise ValueError("need u - level syndrome targets")
        if len(adjoined_reps) != len(syndrome_targets):
            raise ValueError("adjoined representatives must match targets")
        self.ctx = ctx
        self.level = level
        self.extended = extended
        self.syndrome_targets = tuple(syndrome_targets)
        self.adjoined_reps = tuple(adjoined_reps)
        if gf2_rank(self.syndrome_targets, ctx.u) != len(self.syndrome_targets):
            raise ValueError("syndrome targets are dependent")
        # functionals on F_2^u vanishing exactly on the span of the targets
        self.proj_masks: Tuple[int, ...] = tuple(
            gf2_nullspace(self.syndrome_targets, ctx.u)
        )
        assert len(self.proj_masks) == level
        self.base: Optional[LinearCode] = None
        if extended:
            self.base = LinearCode(ctx, level, syndrome_targets, adjoined_reps)
        self.length = ctx.n + 1 if extended else ctx.n
        self.syndrome_width = ctx.m + level + (1 if extended else 0)
        self.dimension = self.length - self.syndrome_width
        self.unit_syndromes: Tuple[int, ...] = self._build_unit_syndromes()
        self.parity_rows: Tuple[int, ...] = self._build_parity_rows()
        # independent rows leave a code of dimension length - syndrome_width
        if gf2_rank(self.parity_rows, self.length) != self.syndrome_width:
            raise RuntimeError("parity rows are not independent")

    def _build_unit_syndromes(self) -> Tuple[int, ...]:
        ctx = self.ctx
        units = []
        for p in range(ctx.n):
            e = 0
            for t, mask in enumerate(self.proj_masks):
                e |= ((mask & ctx.qterm[p]).bit_count() & 1) << t
            units.append(ctx.gm.exp[p] | (e << ctx.m))
        if not self.extended:
            return tuple(units)
        par = 1 << (ctx.m + self.level)
        return (par,) + tuple(s | par for s in units)

    def _build_parity_rows(self) -> Tuple[int, ...]:
        rows = [0] * self.syndrome_width
        for p, s in enumerate(self.unit_syndromes):
            while s:
                low = s & -s
                rows[low.bit_length() - 1] |= 1 << p
                s ^= low
        return tuple(rows)

    def describe(self) -> Dict[str, object]:
        ctx = self.ctx
        return {
            "m": ctx.m,
            "u": ctx.u,
            "poly_m": hex(ctx.gm.poly),
            "poly_u": hex(ctx.gu.poly),
            "level": self.level,
            "extended": self.extended,
            "length": self.length,
            "dimension": self.dimension,
            "syndrome_targets": list(self.syndrome_targets),
            "adjoined_reps": [hex(v) for v in self.adjoined_reps],
        }

    def __repr__(self) -> str:
        tag = "*" if self.extended else ""
        return (
            f"LinearCode(m={self.ctx.m}, level={self.level}{tag}, "
            f"[{self.length},{self.dimension}])"
        )


def _support_xor(values: Sequence[int], packed: np.ndarray) -> np.ndarray:
    """XOR of values[p] over the support of each row of packed vectors.

    Row t of ``packed`` holds one vector as little-endian bytes, so bit k of
    byte j is position 8j + k.  Byte j contributes entry [j, byte] of a
    256-entry table of XORs over that byte's eight positions.
    """
    import numpy as np

    nbytes = packed.shape[1]
    per_bit = np.zeros(nbytes * 8, dtype=np.int64)
    per_bit[:len(values)] = values
    table = np.zeros((nbytes, 256), dtype=np.int64)
    for k in range(8):
        table[:, 1 << k:2 << k] = table[:, :1 << k] ^ per_bit[k::8, None]
    acc = np.zeros(len(packed), dtype=np.int64)
    for j in range(nbytes):
        acc ^= table[j, packed[:, j]]
    return acc


# vectors packed and checked at a time, so memory stays flat in their number
_BLOCK = 8192


def check_membership(code: LinearCode, vectors: Iterable[int]) -> bool:
    """Is every vector a codeword exactly when its field sum and its weight
    sum (quad_sum) are both zero?  Vectors are ints of the code's length.

    Position p carries U[p] | exp[p] << r | qterm[p] << (r + m) in one int,
    and XOR keeps the three fields apart, so one table pass per block gives
    the syndrome (low r bits) and the field and weight sums (the rest).
    """
    import numpy as np

    if code.extended:
        raise ValueError("the membership check is about unextended codes")
    ctx, r = code.ctx, code.syndrome_width
    packed_sums = [us | (e << r) | (qt << (r + ctx.m))
                   for us, e, qt in zip(code.unit_syndromes, ctx.gm.exp, ctx.qterm)]
    nbytes = -(-code.length // 8)
    vectors = iter(vectors)
    agree = True
    while buf := b"".join(v.to_bytes(nbytes, "little") for v in islice(vectors, _BLOCK)):
        packed = np.frombuffer(buf, dtype=np.uint8).reshape(-1, nbytes)
        if (packed[:, -1] >> (code.length - 8 * (nbytes - 1))).any():
            raise ValueError(f"vector does not have length {code.length}")
        acc = _support_xor(packed_sums, packed)
        agree &= bool(np.all((acc & ((1 << r) - 1) == 0) == (acc >> r == 0)))
    return agree


def _smallest_weight3_rep(ctx: FieldContext, target: int) -> int:
    """Lexicographically smallest (by sorted support) weight-3 vector with
    field sum 0 and quad_sum equal to target."""
    exp, log = ctx.gm.exp, ctx.gm.log
    qterm = ctx.qterm
    for a in range(ctx.n):
        for b in range(a + 1, ctx.n):
            t = log[exp[a] ^ exp[b]]
            if t <= b:
                continue
            if qterm[a] ^ qterm[b] ^ qterm[t] == target:
                return (1 << a) | (1 << b) | (1 << t)
    raise RuntimeError(f"no weight-3 vector with quad_sum {target}")


def build_chain(
    ctx: FieldContext, syndrome_targets: Optional[Sequence[int]] = None
) -> List[LinearCode]:
    """The full nested chain; entry i of the result is the level-i code.

    ``syndrome_targets`` fixes the order in which quad_sum values are adjoined
    (defaults to the standard basis 1, 2, 4, ...).  A partial list is
    completed canonically with the smallest independent values.
    """
    targets: List[int] = []
    if syndrome_targets is not None:
        for t in syndrome_targets:
            if not 0 < t < ctx.q:
                raise ValueError(f"syndrome target {t} outside F_2^{ctx.u}")
            targets.append(t)
        if gf2_rank(targets, ctx.u) != len(targets):
            raise ValueError("syndrome targets are dependent")
        if len(targets) > ctx.u:
            raise ValueError("more targets than the subfield dimension")
    else:
        targets = [1 << k for k in range(ctx.u)]
    cand = 1
    while len(targets) < ctx.u:
        if gf2_rank(targets + [cand], ctx.u) > len(targets):
            targets.append(cand)
        cand += 1
    reps = [_smallest_weight3_rep(ctx, t) for t in targets]
    chain = []
    for level in range(ctx.u + 1):
        k = ctx.u - level
        chain.append(LinearCode(ctx, level, targets[:k], reps[:k]))
    return chain


def extend_code(code: LinearCode) -> LinearCode:
    """Append the parity coordinate at index 0 (labeled by the element 0)."""
    if code.extended:
        raise ValueError("code is already extended")
    return LinearCode(
        code.ctx, code.level, code.syndrome_targets, code.adjoined_reps, extended=True
    )


class DualSpectrum(NamedTuple):
    """Nonzero dual weights with multiplicities; s is the external distance."""

    counts: Dict[int, int]

    @property
    def weights(self) -> Tuple[int, ...]:
        return tuple(sorted(self.counts))

    @property
    def s(self) -> int:
        return len(self.counts)


def dual_weights(code: LinearCode) -> np.ndarray:
    """Weight of every dual word, indexed by the mask t of the parity rows
    it sums.  Dual word t holds position p when t . U[p] is odd, so with
    h = WHT(1_U) over the unit syndromes U its weight is (n - h(t)) / 2."""
    import numpy as np

    units = np.bincount(code.unit_syndromes, minlength=1 << code.syndrome_width)
    return (code.length - gf2_wht(units)) // 2


def dual_spectrum(code: LinearCode) -> DualSpectrum:
    import numpy as np

    counts = np.bincount(dual_weights(code)[1:]).tolist()
    return DualSpectrum({w: c for w, c in enumerate(counts) if c})


def save_code(code: LinearCode, path_prefix: str) -> Tuple[str, str]:
    """Write ``<prefix>.json`` (descriptor) and ``<prefix>.pchk`` (0/1 rows)."""
    import json

    desc_path = path_prefix + ".json"
    pchk_path = path_prefix + ".pchk"
    with open(desc_path, "w", encoding="utf-8") as fh:
        json.dump(code.describe(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(pchk_path, "w", encoding="utf-8") as fh:
        for row in code.parity_rows:
            fh.write("".join("1" if (row >> p) & 1 else "0" for p in range(code.length)))
            fh.write("\n")
    return desc_path, pchk_path
