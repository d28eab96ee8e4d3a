"""Command line front end: build chains, verify claims, export graphs.

Exit codes: 0 no selected check failed, 2 at least one check failed,
3 configuration error (bad flags, polynomials or subspace bases), 4
internal error: any other exception, reported as one ``internal error:``
line on stderr with no traceback.  A one-sided check that can only confirm a claim
reads ``undetermined`` when it does not, and fails nothing.  Reports are
deterministic for a fixed config; the JSON report schema is described in
the README.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .codes import build_chain, check_membership, dual_spectrum, extend_code, save_code
from .field import build_field_context
from .regularity import (
    CosetTable,
    check_design,
    cria_array,
    design_lambda,
    distributions_uniform,
    extended_cria_array,
    verify_completely_regular,
    verify_extended_array,
    verify_extension_condition,
    verify_mu_identity,
    verify_uniformly_packed,
)
from .transitivity import certify_transitivity

SCHEMA = "crcodes-report/2"
SUITES = ("cr", "up", "designs", "duals", "ct", "graph", "cover", "extended")
PASS, FAIL, UNDETERMINED = "pass", "fail", "undetermined"
_WORD = {PASS: "PASS", FAIL: "FAIL", UNDETERMINED: "UNDET"}

# what a suite yields per check: claim, level, extended, verdict, expected,
# computed, and the report's witness (kept only when the verdict is fail)
Row = Tuple[str, int, bool, str, str, str, object]


class ConfigError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep exit code 3 for bad flags
        raise ConfigError(message)


@dataclass
class Check:
    claim: str
    m: int
    level: int
    extended: bool
    verdict: str
    expected: str
    computed: str
    witness: object
    seconds: float

    @property
    def ok(self) -> bool:
        return self.verdict == PASS

    def as_dict(self) -> Dict[str, object]:
        return {
            "claim": self.claim,
            "m": self.m,
            "level": self.level,
            "extended": self.extended,
            "ok": self.ok,
            "verdict": self.verdict,
            "expected": self.expected,
            "computed": self.computed,
            "witness": self.witness,
            "seconds": round(self.seconds, 4),
        }

    def line(self) -> str:
        tag = f"m={self.m} i={self.level}" + ("*" if self.extended else "")
        return f"{_WORD[self.verdict]:<5} {self.claim:<28} {tag:<10} {self.computed}"


class Workspace:
    """Caches per-m chains, coset tables (an extended one is doubled from
    the plain one) and transitivity reports, and holds the settings every
    suite reads."""

    def __init__(self, targets: Optional[Sequence[int]] = None,
                 poly_m: Optional[int] = None, poly_u: Optional[int] = None,
                 seed: int = 0, exhaustive: bool = False):
        self.targets = targets
        self.poly_m = poly_m
        self.poly_u = poly_u
        self.seed = seed
        self.exhaustive = exhaustive
        self._cache: Dict[Tuple, object] = {}

    def _get(self, key, builder):
        if key not in self._cache:
            self._cache[key] = builder()
        return self._cache[key]

    def chain(self, m):
        # a bad polynomial or subspace basis is an error in the input, not
        # in the program
        def build():
            try:
                return build_chain(build_field_context(m, self.poly_m, self.poly_u),
                                   self.targets)
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc

        return self._get(("chain", m), build)

    def code(self, m, i, ext=False):
        if ext:
            return self._get(("ext", m, i), lambda: extend_code(self.chain(m)[i]))
        return self.chain(m)[i]

    def table(self, m, i, ext=False):
        return self._get(("table", m, i, ext), lambda: CosetTable(
            self.code(m, i, ext), self.table(m, i) if ext else None))

    def ct(self, m, i, ext=False):
        return self._get(("ct", m, i, ext), lambda: certify_transitivity(
            self.code(m, i, ext), self.table(m, i, ext)))


def _verdict(ok) -> str:
    return PASS if ok else FAIL


def _distribution_rows(ws: Workspace, m: int, i: int, ext: bool) -> Iterator[Row]:
    """Are coset weight distributions constant on each weight class?"""
    uniform = distributions_uniform(ws.code(m, i, ext), ws.table(m, i, ext))
    yield ("coset-distributions-uniform", i, ext, _verdict(uniform),
           "one distribution per coset weight", f"uniform={uniform}", None)


def suite_cr(ws: Workspace, m: int) -> Iterator[Row]:
    chain = ws.chain(m)
    for i in range(len(chain)):
        table = ws.table(m, i)
        rep = verify_completely_regular(table)
        expected = cria_array(m, i)
        got = str(rep.array) if rep.array else "not completely regular"
        yield ("cria-array", i, False,
               _verdict(rep.completely_regular and rep.array == expected),
               str(expected), got, rep.witness)
        mu_rep = verify_mu_identity(table, expected)
        yield ("mu-identity", i, False, _verdict(mu_rep.ok),
               "b_l*mu_l = c_(l+1)*mu_(l+1)", f"mu={mu_rep.mu}", None)
        yield from _distribution_rows(ws, m, i, False)
    top = chain[-1]
    if ws.exhaustive and m == 4:
        vectors = range(1 << top.length)
        label = "exhaustive 2^15"
    else:
        count = 100_000
        rng = random.Random(ws.seed)
        vectors = (rng.getrandbits(top.length) for _ in range(count))
        label = f"{count} random vectors"
    yield ("membership-syndrome", top.level, False,
           _verdict(check_membership(top, vectors)),
           "parity membership = zero field sum and zero weight sum", label, None)


def suite_up(ws: Workspace, m: int) -> Iterator[Row]:
    for i in range(m // 2 + 1):
        for ext in (False, True):
            rep = verify_uniformly_packed(ws.code(m, i, ext), ws.table(m, i, ext))
            yield ("uniformly-packed", i, ext, _verdict(rep.uniformly_packed),
                   "rho = s", f"rho={rep.rho} s={rep.s}", None)


def suite_duals(ws: Workspace, m: int) -> Iterator[Row]:
    half = 1 << (m - 1)
    quarter = 1 << (m // 2 - 1)
    for i, code in enumerate(ws.chain(m)):
        sp = dual_spectrum(code)
        expected = (half,) if i == 0 else (half - quarter, half, half + quarter)
        yield ("dual-spectrum", i, False, _verdict(sp.weights == expected),
               str(expected), str(sp.weights), None)
        if i > 0:
            cond = verify_extension_condition(code)
            yield ("extension-condition", i, False, _verdict(cond is True),
                   "w1+w3 = 2*w2 = n+1", f"verdict={cond}", None)


def suite_designs(ws: Workspace, m: int) -> Iterator[Row]:
    n = (1 << m) - 1
    for i, code in enumerate(ws.chain(m)):
        lam = design_lambda(m, i)
        rep = check_design(code)
        yield ("design-weight3", i, False, _verdict(rep.ok and rep.lam == lam),
               f"T({n},3,1,{lam})", f"{rep.blocks} blocks, lambda={rep.lam}",
               rep.counterexample)
        rep4 = check_design(ws.code(m, i, ext=True))
        yield ("design-weight4", i, True, _verdict(rep4.ok and rep4.lam == lam),
               f"T({n + 1},4,2,{lam})", f"{rep4.blocks} blocks, lambda={rep4.lam}",
               rep4.counterexample)


def suite_ct(ws: Workspace, m: int) -> Iterator[Row]:
    # the orbits are counted under a subgroup of Aut(C), so reaching rho+1
    # certifies complete transitivity and any larger count decides nothing
    for i in range(m // 2 + 1):
        for ext in (False, True):
            rep = ws.ct(m, i, ext)
            yield ("complete-transitivity", i, ext,
                   PASS if rep.certified else UNDETERMINED, f"{rep.rho + 1} orbits",
                   f"{rep.orbit_count} orbits via {rep.group}", None)


def suite_graph(ws: Workspace, m: int) -> Iterator[Row]:
    from .graphs import check_antipodal, fold  # loaded only where a graph path runs
    # a coset graph is distance-regular with its code's intersection array,
    # and distance-transitive when the code is completely transitive
    for i in range(m // 2 + 1):
        for ext in (False, True):
            code, table = ws.code(m, i, ext), ws.table(m, i, ext)
            rep = verify_completely_regular(table)
            expected = extended_cria_array(m, i) if ext else cria_array(m, i)
            want_d = (2 if i == 0 else 4) if ext else (1 if i == 0 else 3)
            ok = (rep.completely_regular and rep.array == expected
                  and table.rho == want_d)
            note = f"D={table.rho} {rep.array}"
            if ws.ct(m, i, ext).certified:
                note += " distance-transitive"
            yield ("graph-distance-regular", i, ext, _verdict(ok),
                   f"D={want_d} {expected}", note, rep.witness)
            if i > 0:
                anti = check_antipodal(table)
                yield ("graph-antipodal", i, ext,
                       _verdict(anti.antipodal and anti.fibre_size == 1 << i),
                       f"fibre {1 << i}", f"fibre {anti.fibre_size}", anti.witness)
                if not ext and anti.antipodal:
                    folded = fold(code, anti.fibres)
                    yield ("graph-fold-complete", i, ext, _verdict(folded.is_complete),
                           f"complete on {1 << m}", f"{folded.vertex_count} vertices", None)


def suite_cover(ws: Workspace, m: int) -> Iterator[Row]:
    from .graphs import verify_antipodal_cover_array, verify_cover
    u = m // 2
    for ext in (False, True):
        for i in range(1, u + 1):
            for j in range(i):
                rep = verify_cover(ws.code(m, i, ext), ws.code(m, j, ext))
                yield ("graph-cover", i, ext,
                       _verdict(rep.verdict and rep.fibre_size == 1 << (i - j)),
                       f"-> level {j}, fibre {1 << (i - j)}",
                       f"fibre {rep.fibre_size}, bijective={rep.locally_bijective}",
                       rep.witness)
    for i in range(1, u + 1):
        rep = verify_antipodal_cover_array(ws.code(m, i), ws.table(m, i))
        yield ("cover-array-shape", i, False, _verdict(rep.applicable and rep.matches),
               "(N-1,(r-1)c2,1;1,c2,N-1)",
               f"N={rep.folded_vertices} r={rep.fibre_size} {rep.array}", None)


def suite_extended(ws: Workspace, m: int) -> Iterator[Row]:
    for i in range(m // 2 + 1):
        star = ws.code(m, i, ext=True)
        table = ws.table(m, i, ext=True)
        if i == 0:
            rep = verify_completely_regular(table)
            ok = rep.completely_regular and rep.array == extended_cria_array(m, 0)
        else:
            ext_rep = verify_extended_array(star, table)
            rep = ext_rep.regularity
            ok = rep.completely_regular and ext_rep.matches_extended_form
        yield ("extended-array", i, True, _verdict(ok),
               str(extended_cria_array(m, i)), str(rep.array), rep.witness)
        if i > 0:
            yield ("extended-array-variant-nonmatch", i, True,
                   _verdict(not ext_rep.matches_variant_form),
                   "computed array differs from the +1 variant",
                   f"matches_variant={ext_rep.matches_variant_form}", None)
        yield from _distribution_rows(ws, m, i, True)


_SUITE_FN = {
    "cr": suite_cr,
    "up": suite_up,
    "designs": suite_designs,
    "duals": suite_duals,
    "ct": suite_ct,
    "graph": suite_graph,
    "cover": suite_cover,
    "extended": suite_extended,
}


def _workspace(args, **settings) -> Workspace:
    """A workspace for the chain that the common flags ask for."""
    return Workspace(_parse_targets(args.subspace_basis), args.prim_poly_m,
                     args.prim_poly_u, **settings)


def _parse_targets(raw: Optional[str]) -> Optional[List[int]]:
    if raw is None:
        return None
    try:
        return [int(part, 2) for part in raw.split(",") if part]
    except ValueError as exc:
        raise ConfigError(f"bad subspace basis {raw!r}: {exc}") from exc


def _pick_levels(raw: Optional[str], u: int) -> List[int]:
    """The requested levels, all of them checked before any work is done."""
    if raw is None:
        return list(range(u + 1))
    try:
        levels = sorted({int(part) for part in raw.split(",") if part})
    except ValueError as exc:
        raise ConfigError(f"bad level list {raw!r}") from exc
    for i in levels:
        if not 0 <= i <= u:
            raise ConfigError(f"level {i} out of range 0..{u}")
    return levels


def _validate_m(m: int, cap: int) -> None:
    if m % 2 or not 4 <= m <= cap:
        raise ConfigError(f"m must be even with 4 <= m <= {cap}, got {m}")


def _emit(report: Dict[str, object], checks: List[Check], fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for check in checks:
            print(check.line())
        summary = report["summary"]
        undet = f", {summary['undetermined']} undetermined" if summary["undetermined"] else ""
        print(f"{summary['passed']}/{summary['checks']} checks passed{undet} "
              f"({report['seconds']}s)")


def cmd_verify(args) -> int:
    ms = [args.m] if args.m else [4, 6]
    for m in ms:
        _validate_m(m, 8)
    suites = SUITES if args.suite is None else tuple(args.suite.split(","))
    for name in suites:
        if name not in SUITES:
            raise ConfigError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    if args.exhaustive and (4 not in ms or "cr" not in suites or args.extended):
        raise ConfigError("--exhaustive applies only to the m = 4 membership row of "
                          "the cr suite, which this run does not report")
    ws = _workspace(args, seed=args.seed, exhaustive=args.exhaustive)
    t_start = last = time.perf_counter()
    checks: List[Check] = []
    for m in ms:
        for name in suites:
            for claim, level, ext, verdict, expected, computed, witness in _SUITE_FN[name](ws, m):
                # seconds since the previous row: the check and the cache
                # builds it triggered
                now = time.perf_counter()
                if ext or not args.extended:
                    checks.append(Check(claim, m, level, ext, verdict, expected, computed,
                                        witness if verdict == FAIL else None, now - last))
                last = now
    counts = Counter(c.verdict for c in checks)
    overall = FAIL if counts[FAIL] else UNDETERMINED if counts[UNDETERMINED] else PASS
    report = {
        "schema": SCHEMA,
        "command": "verify",
        "config": {
            "m": ms,
            "suites": list(suites),
            "seed": args.seed,
            "exhaustive": args.exhaustive,
            "subspace_basis": args.subspace_basis,
        },
        "results": [c.as_dict() for c in checks],
        "summary": {
            "checks": len(checks),
            "passed": counts[PASS],
            "failed": counts[FAIL],
            "undetermined": counts[UNDETERMINED],
            "verdict": overall,
        },
        "seconds": round(time.perf_counter() - t_start, 3),
    }
    _emit(report, checks, args.format)
    return 2 if counts[FAIL] else 0


def cmd_build(args) -> int:
    _validate_m(args.m, 12)
    ws = _workspace(args)
    picked = _pick_levels(args.levels, args.m // 2)
    chain = ws.chain(args.m)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for i in picked:
        written.extend(save_code(chain[i], str(out_dir / f"code_m{args.m}_i{i}")))
        if args.extended:
            written.extend(save_code(ws.code(args.m, i, ext=True),
                                     str(out_dir / f"code_m{args.m}_i{i}_ext")))
    report = {
        "schema": SCHEMA,
        "command": "build",
        "config": {"m": args.m, "levels": picked,
                   "subspace_basis": args.subspace_basis,
                   "extended": args.extended},
        "files": written,
        "dimensions": {i: chain[i].dimension for i in picked},
    }
    if args.format == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for path in written:
            print(path)
    return 0


_EXPORT_EXT = {"graph6": "g6", "edge-list": "edges", "json": "json"}


def cmd_export(args) -> int:
    from .graphs import build_coset_graph, export_graph
    _validate_m(args.m, 8)
    ws = _workspace(args)
    picked = _pick_levels(args.levels, args.m // 2)
    codes = [ws.code(args.m, i, args.extended) for i in picked]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for i, code in zip(picked, codes):
        graph = build_coset_graph(code)
        suffix = "_ext" if args.extended else ""
        name = f"gamma_m{args.m}_i{i}{suffix}.{_EXPORT_EXT[args.format]}"
        path = out_dir / name
        path.write_bytes(export_graph(graph, args.format))
        written.append(str(path))
    for path in written:
        print(path)
    return 0


def cmd_conjecture(args) -> int:
    _validate_m(args.m, 8)
    ws = _workspace(args)
    rows = []
    for i in _pick_levels(args.levels, args.m // 2):
        rep = ws.ct(args.m, i)
        verdict = "certified" if rep.certified else "undetermined"
        rows.append({
            "level": rep.level,
            "rho": rep.rho,
            "predicted": rep.predicted,
            "orbit_count": rep.orbit_count,
            "group": rep.group,
            "verdict": verdict,
        })
    if args.format == "json":
        print(json.dumps({
            "schema": SCHEMA,
            "command": "conjecture",
            "config": {"m": args.m, "subspace_basis": args.subspace_basis},
            "results": rows,
        }, indent=2, sort_keys=True))
    else:
        print(f"m={args.m}: completely transitive predicted for levels where "
              f"i in {{0, 1, u}} or 2^i <= u+1")
        for row in rows:
            print(f"  i={row['level']}: predicted={row['predicted']} "
                  f"orbits={row['orbit_count']} via {row['group']} -> {row['verdict']}")
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--subspace-basis", metavar="BITS[,BITS...]",
                        help="syndrome subspace basis as binary strings, e.g. 011,101")
    parser.add_argument("--prim-poly-m", type=lambda s: int(s, 0), default=None,
                        help="primitive polynomial for the big field (int, 0x.. ok)")
    parser.add_argument("--prim-poly-u", type=lambda s: int(s, 0), default=None,
                        help="primitive polynomial for the subfield")


def _add_levels(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--levels", help="comma-separated level list, default all")


def _add_file_output(parser: argparse.ArgumentParser) -> None:
    _add_levels(parser)
    parser.add_argument("--extended", action="store_true", help="emit the extended codes")
    parser.add_argument("--out", default=".", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="crcodes",
                     description="nested completely regular codes: build, verify, export")
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="construct a chain and save descriptors")
    p_build.add_argument("--m", type=int, required=True)
    p_build.add_argument("--format", choices=("text", "json"), default="text")
    _add_common(p_build)
    _add_file_output(p_build)

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument("--m", type=int, default=None,
                          help="field exponent; default runs m=4 and m=6")
    p_verify.add_argument("--suite", help=f"comma list from: {', '.join(SUITES)}")
    p_verify.add_argument("--seed", type=int, default=20240901)
    p_verify.add_argument("--exhaustive", action="store_true",
                          help="check every vector in the m = 4 cr membership row")
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.add_argument("--extended", action="store_true",
                          help="report only the checks of extended codes")
    _add_common(p_verify)

    p_export = sub.add_parser("export", help="write coset graphs to files")
    p_export.add_argument("--m", type=int, required=True)
    p_export.add_argument("--format", choices=tuple(_EXPORT_EXT), default="graph6")
    _add_common(p_export)
    _add_file_output(p_export)

    p_conj = sub.add_parser("conjecture", help="transitivity survey per level")
    p_conj.add_argument("--m", type=int, required=True)
    p_conj.add_argument("--format", choices=("text", "json"), default="text")
    _add_common(p_conj)
    _add_levels(p_conj)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        handler = {
            "build": cmd_build,
            "verify": cmd_verify,
            "export": cmd_export,
            "conjecture": cmd_conjecture,
        }[args.command]
        return handler(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # a fault of the program, not of its input
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
