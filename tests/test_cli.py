"""End-to-end checks for the command line interface."""

import dataclasses
import json
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from crcodes import cli, regularity
from crcodes.graphs import build_coset_graph
from crcodes.regularity import IntersectionArray
from oracles import load_code, parse_graph6


def run_cli(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, argv):
    code, out = run_cli(capsys, argv + ["--format", "json"])
    return code, json.loads(out)


def test_verify_small_suites_pass(capsys):
    code, out = run_cli(capsys, ["verify", "--m", "4", "--suite", "cr,duals"])
    assert code == 0
    assert "FAIL" not in out
    assert "cria-array" in out and "dual-spectrum" in out


def test_verify_json_report_shape(capsys):
    code, report = run_json(capsys, ["verify", "--m", "4", "--suite", "duals"])
    assert code == 0
    assert report["schema"] == "crcodes-report/2"
    assert report["summary"]["verdict"] == "pass"
    assert report["summary"]["checks"] == len(report["results"])
    assert report["summary"]["undetermined"] == 0
    assert "threads" not in report["config"]
    for row in report["results"]:
        assert set(row) == {
            "claim", "m", "level", "extended", "ok", "verdict", "expected",
            "computed", "witness", "seconds",
        }
        assert row["ok"] is True
        assert row["verdict"] == "pass"
        assert row["witness"] is None


def test_verify_exhaustive_flag(capsys):
    code, report = run_json(
        capsys, ["verify", "--m", "4", "--suite", "cr", "--exhaustive"]
    )
    assert code == 0
    rows = [r for r in report["results"] if r["claim"] == "membership-syndrome"]
    assert rows and "exhaustive" in rows[0]["computed"]


def test_verify_exhaustive_default_ms(capsys):
    # the default m list holds 4, so the flag reaches the m = 4 cr row
    code, report = run_json(capsys, ["verify", "--suite", "cr", "--exhaustive"])
    assert code == 0
    labels = [(r["m"], r["computed"]) for r in report["results"]
              if r["claim"] == "membership-syndrome"]
    assert labels == [(4, "exhaustive 2^15"), (6, "100000 random vectors")]


def test_verify_extended_filter(capsys):
    code, report = run_json(
        capsys, ["verify", "--m", "4", "--suite", "up", "--extended"]
    )
    assert code == 0
    assert report["results"]
    assert all(row["extended"] for row in report["results"])


def test_verify_mismatch_exits_2(capsys, monkeypatch):
    # poison the expected array so a correct computation reads as a failure
    real = cli.cria_array

    def fake(m, i):
        arr = real(m, i)
        return IntersectionArray((arr.b[0] + 1,) + arr.b[1:], arr.c)

    monkeypatch.setattr(cli, "cria_array", fake)
    code, report = run_json(capsys, ["verify", "--m", "4", "--suite", "cr"])
    assert code == 2
    assert report["summary"]["verdict"] == "fail"
    assert any(not row["ok"] for row in report["results"])


def test_verify_failure_carries_witness(capsys, monkeypatch):
    # a design report that names a bad point must hand it to the failed row
    real = cli.check_design

    def fake(code):
        return dataclasses.replace(real(code), ok=False, counterexample=(0,))

    monkeypatch.setattr(cli, "check_design", fake)
    code, report = run_json(capsys, ["verify", "--m", "4", "--suite", "designs,duals"])
    assert code == 2
    assert report["summary"]["failed"] == 6
    for row in report["results"]:
        if row["claim"].startswith("design-"):
            assert (row["verdict"], row["witness"]) == ("fail", [0])
        else:
            assert (row["verdict"], row["witness"]) == ("pass", None)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--m", "5"],
        ["verify", "--m", "4", "--suite", "nope"],
        ["verify", "--m", "4", "--subspace-basis", "01x"],
        ["build", "--m", "14"],
        ["export", "--m", "4", "--levels", "7"],
        ["no-such-command"],
        ["verify", "--bogus-flag"],
        ["verify", "--m", "4", "--suite", "duals", "--threads", "0"],
        ["verify", "--m", "4", "--suite", "duals", "--threads", "-3"],
        ["conjecture", "--m", "6", "--levels", "7"],
        ["verify", "--levels", "9", "--out", "/nonexistent/x"],
        ["verify", "--m", "4", "--suite", "duals", "--out", "/nonexistent/x"],
        ["conjecture", "--m", "4", "--prim-poly-m", "0x5"],
        ["conjecture", "--m", "4", "--out", "/nonexistent/x"],
        ["conjecture", "--m", "4", "--extended"],
        ["verify", "--m", "6", "--exhaustive"],
        ["verify", "--m", "8", "--suite", "duals", "--exhaustive"],
        ["verify", "--m", "4", "--suite", "cr", "--exhaustive", "--extended"],
        ["verify", "--subspace-basis", "01,01"],
        ["conjecture", "--m", "10"],
    ],
)
def test_config_errors_exit_3(capsys, argv):
    code = cli.main(argv)
    assert code == 3
    assert "error:" in capsys.readouterr().err


def test_internal_error_exits_4(capsys, monkeypatch):
    # an exception raised past the input checks is a fault of the program,
    # a ValueError included: one line on stderr, no traceback, and its own
    # exit code
    for exc in (RuntimeError("orbit mixes coset weights"),
                ValueError("generator does not stabilize the code")):
        def broken(ws, m):
            raise exc
            yield

        monkeypatch.setitem(cli._SUITE_FN, "cr", broken)
        code = cli.main(["verify", "--m", "4", "--suite", "cr"])
        assert code == 4
        captured = capsys.readouterr()
        assert captured.err == f"internal error: {type(exc).__name__}: {exc}\n"
        assert captured.out == ""


@pytest.mark.parametrize("command", ["build", "export"])
def test_bad_level_writes_no_file(capsys, tmp_path, command):
    code = cli.main([command, "--m", "4", "--levels", "0,9", "--out", str(tmp_path)])
    assert code == 3
    assert "level 9" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_build_writes_descriptor_files(capsys, tmp_path):
    code, out = run_cli(
        capsys, ["build", "--m", "4", "--extended", "--out", str(tmp_path)]
    )
    assert code == 0
    names = sorted(p.name for p in tmp_path.iterdir())
    assert "code_m4_i2.json" in names and "code_m4_i2.pchk" in names
    assert "code_m4_i1_ext.json" in names
    assert len(names) == 12
    loaded = load_code(str(tmp_path / "code_m4_i2.json"))
    assert loaded.level == 2 and not loaded.extended
    loaded_ext = load_code(str(tmp_path / "code_m4_i1_ext.json"))
    assert loaded_ext.extended and loaded_ext.length == 16


def test_build_level_filter(capsys, tmp_path):
    code, _ = run_cli(
        capsys, ["build", "--m", "4", "--levels", "1", "--out", str(tmp_path)]
    )
    assert code == 0
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["code_m4_i1.json", "code_m4_i1.pchk"]


def test_build_alternate_basis_dimensions(capsys, tmp_path):
    code, report = run_json(
        capsys,
        ["build", "--m", "6", "--subspace-basis", "001,011,101",
         "--out", str(tmp_path)],
    )
    assert code == 0
    assert report["dimensions"] == {"0": 57, "1": 56, "2": 55, "3": 54}


def test_export_graph6_roundtrip(capsys, tmp_path, ctx4, chain4):
    code, _ = run_cli(
        capsys,
        ["export", "--m", "4", "--levels", "1", "--out", str(tmp_path)],
    )
    assert code == 0
    data = (tmp_path / "gamma_m4_i1.g6").read_bytes()
    graph = build_coset_graph(chain4[1])
    assert parse_graph6(data) == [tuple(row) for row in graph.adjacency.tolist()]


def test_export_is_deterministic(capsys, tmp_path):
    args = ["export", "--m", "4", "--levels", "2", "--extended"]
    run_cli(capsys, args + ["--out", str(tmp_path / "a")])
    run_cli(capsys, args + ["--out", str(tmp_path / "b")])
    first = (tmp_path / "a" / "gamma_m4_i2_ext.g6").read_bytes()
    second = (tmp_path / "b" / "gamma_m4_i2_ext.g6").read_bytes()
    assert first == second


def test_export_edge_list_size(capsys, tmp_path):
    code, _ = run_cli(
        capsys,
        ["export", "--m", "4", "--levels", "2", "--format", "edge-list",
         "--out", str(tmp_path)],
    )
    assert code == 0
    lines = (tmp_path / "gamma_m4_i2.edges").read_text().strip().splitlines()
    assert len(lines) == 64 * 15 // 2


def test_conjecture_text_names_the_group(capsys):
    code, out = run_cli(capsys, ["conjecture", "--m", "6"])
    assert code == 0
    assert out.count("certified") == 4
    assert "SL2+frob" in out


def test_conjecture_json(capsys):
    code, report = run_json(capsys, ["conjecture", "--m", "4"])
    assert code == 0
    assert [row["level"] for row in report["results"]] == [0, 1, 2]
    assert all(row["verdict"] == "certified" for row in report["results"])
    assert all(row["predicted"] for row in report["results"])


def test_conjecture_m8(capsys):
    t0 = time.perf_counter()
    code, report = run_json(capsys, ["conjecture", "--m", "8"])
    elapsed = time.perf_counter() - t0
    assert code == 0
    got = [(r["level"], r["rho"], r["orbit_count"], r["group"], r["predicted"], r["verdict"])
           for r in report["results"]]
    assert got == [
        (0, 1, 2, "GL2", True, "certified"),
        (1, 3, 4, "SL2", True, "certified"),
        (2, 3, 6, "SL2+frob", True, "undetermined"),
        (3, 3, 8, "SL2+frob", False, "undetermined"),
        (4, 3, 4, "GL2", True, "certified"),
    ]
    assert elapsed < 30.0, f"m=8 conjecture survey took {elapsed:.1f}s"


def test_conjecture_alternate_polynomial(capsys):
    # x^4 + x^3 + 1 is primitive, so the survey runs over that field
    code, report = run_json(capsys, ["conjecture", "--m", "4", "--prim-poly-m", "0x19"])
    assert code == 0
    assert all(row["verdict"] == "certified" for row in report["results"])


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "crcodes.cli", "build", "--m", "3"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 3
    assert "error:" in proc.stderr


def test_import_loads_no_numpy():
    # the package and a chain build load no numpy, dataclasses, inspect or
    # json; the other layers load them on first use of one of their names
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import crcodes\n"
        "crcodes.build_chain(crcodes.build_field_context(8))\n"
        "heavy = {'numpy', 'dataclasses', 'inspect', 'json'} & (set(sys.modules) - before)\n"
        "assert not heavy, f'loaded {sorted(heavy)}'\n"
        "missing = [n for n in crcodes.__all__ if getattr(crcodes, n, None) is None]\n"
        "assert not missing, missing\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_algebra_suites_load_no_masked_arrays_or_graphs():
    # np.unique without return_index imports numpy.ma, and only the graph
    # and cover suites and export read crcodes.graphs
    script = (
        "import contextlib, io, sys\n"
        "from crcodes import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['verify', '--m', '4', '--suite', 'cr,up,duals,designs,ct,extended'])\n"
        "assert code == 0, code\n"
        "loaded = {'numpy.ma', 'crcodes.graphs'} & set(sys.modules)\n"
        "assert not loaded, f'loaded {sorted(loaded)}'\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_verify_m8_graph_suites(capsys):
    t0 = time.perf_counter()
    code, report = run_json(capsys, ["verify", "--m", "8", "--suite", "graph,cover"])
    elapsed = time.perf_counter() - t0
    assert code == 0
    assert report["summary"] == {
        "checks": 46, "passed": 46, "failed": 0, "undetermined": 0, "verdict": "pass",
    }
    assert elapsed < 60.0, f"m=8 graph and cover suites took {elapsed:.1f}s"


def test_verify_builds_no_graph(capsys, monkeypatch):
    def refuse(code):
        raise AssertionError("verify built a coset graph")

    monkeypatch.setattr("crcodes.graphs.build_coset_graph", refuse)
    code, report = run_json(capsys, ["verify", "--m", "6", "--suite", "graph,cover"])
    assert code == 0
    assert report["summary"] == {
        "checks": 32, "passed": 32, "failed": 0, "undetermined": 0, "verdict": "pass",
    }


def test_workspace_searches_only_plain_codes(capsys, monkeypatch):
    # an extended table is doubled from the cached plain one: the BFS never
    # sees an extended code, whose length 2^m is the only even one
    searched = []
    real = regularity._bfs_weights

    def plain_only(units, width):
        if len(units) % 2 == 0:
            raise AssertionError("BFS ran on an extended code")
        searched.append(width)
        return real(units, width)

    monkeypatch.setattr(regularity, "_bfs_weights", plain_only)
    code, report = run_json(capsys, ["verify", "--m", "6"])
    assert code == 0 and report["summary"]["failed"] == 0
    assert sorted(searched) == [6, 7, 8, 9]
    ws = cli.Workspace()
    for i in range(3):
        assert ws.table(4, i, True).rho == ws.table(4, i).rho + 1
    assert sorted(searched) == [4, 5, 6, 6, 7, 8, 9]


def test_workspace_counts_each_plain_table_once(capsys, monkeypatch):
    # neighbour counts are made once per plain table, by every suite that
    # reads them, and derived for extended tables, whose unit lists are the
    # only even-length ones
    counted = []
    real = regularity._neighbour_counts

    def plain_only(weight, units):
        if len(units) % 2 == 0:
            raise AssertionError("neighbour counts taken for an extended code")
        counted.append(len(weight))
        return real(weight, units)

    monkeypatch.setattr(regularity, "_neighbour_counts", plain_only)
    code, report = run_json(capsys, ["verify", "--m", "6"])
    assert code == 0 and report["summary"]["failed"] == 0
    assert sorted(counted) == [1 << 6, 1 << 7, 1 << 8, 1 << 9]


def test_workspace_certifies_each_code_once(capsys, monkeypatch):
    # the ct rows and the graph rows' distance-transitive notes read one
    # cached report per level and extension
    calls = []
    real = cli.certify_transitivity

    def counted(code, table):
        calls.append((code.level, code.extended))
        return real(code, table)

    monkeypatch.setattr(cli, "certify_transitivity", counted)
    code, report = run_json(capsys, ["verify", "--m", "6", "--suite", "ct,graph"])
    assert code == 0 and report["summary"]["failed"] == 0
    assert sorted(calls) == [(i, ext) for i in range(4) for ext in (False, True)]
    notes = [r for r in report["results"] if r["claim"] == "graph-distance-regular"]
    assert len(notes) == 8
    assert all(r["computed"].endswith(" distance-transitive") for r in notes)


def test_verify_m8_designs_and_membership(capsys):
    t0 = time.perf_counter()
    code, report = run_json(capsys, ["verify", "--m", "8", "--suite", "designs,cr"])
    elapsed = time.perf_counter() - t0
    assert code == 0
    assert report["summary"] == {
        "checks": 26, "passed": 26, "failed": 0, "undetermined": 0, "verdict": "pass",
    }
    computed = {(r["claim"], r["level"]): r["computed"] for r in report["results"]}
    for i in range(5):
        assert computed["coset-distributions-uniform", i] == "uniform=True"
    lams = (127, 63, 31, 15, 7)
    for i, lam in enumerate(lams):
        assert computed["design-weight3", i] == f"{255 * lam // 3} blocks, lambda={lam}"
        assert computed["design-weight4", i] == f"{lam * 32640 // 6} blocks, lambda={lam}"
    assert computed["design-weight4", 0] == "690880 blocks, lambda=127"
    assert computed["membership-syndrome", 4] == "100000 random vectors"
    assert elapsed < 60.0, f"m=8 design and cr suites took {elapsed:.1f}s"


def test_verify_m8_transitivity_undetermined(capsys):
    # the orbit count is one-sided, so levels 2 and 3 decide nothing at m = 8
    code, report = run_json(capsys, ["verify", "--m", "8", "--suite", "ct"])
    assert code == 0
    rows = report["results"]
    assert sum(r["verdict"] == "pass" for r in rows) == 6
    undetermined = [r for r in rows if r["verdict"] == "undetermined"]
    assert sorted((r["level"], r["extended"]) for r in undetermined) == [
        (2, False), (2, True), (3, False), (3, True),
    ]
    assert all(r["ok"] is False and r["witness"] is None for r in undetermined)
    assert report["summary"]["undetermined"] == 4
    assert report["summary"]["failed"] == 0


_BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.mark.parametrize(
    "workload, argv",
    [
        pytest.param("verify-default", ["verify"], id="verify-default"),
        pytest.param(
            "m8-algebra",
            ["verify", "--m", "8", "--suite", "cr,up,duals,designs,ct,extended"],
            id="m8-algebra",
        ),
    ],
)
def test_verify_rows_match_bench_reference(capsys, workload, argv):
    # every benchmarked row (claim, m, level, extended, ok) is still reported
    # with its pass state; rows sharing a key are matched by count
    reference = json.loads((_BENCH / "reference.json").read_text())
    want = Counter(tuple(row) for row in reference[workload]["rows"])
    _, report = run_json(capsys, argv + ["--seed", "1"])
    got = Counter(
        (r["claim"], r["m"], r["level"], r["extended"], r["ok"]) for r in report["results"]
    )
    assert not want - got, f"missing or changed rows: {sorted((want - got).elements())}"
