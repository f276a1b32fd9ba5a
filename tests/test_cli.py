import json
import math
import os
import subprocess
import sys
import types
from fractions import Fraction

import numpy as np
import pytest

import algdyn
from algdyn import __version__, cli, independence
from algdyn.cli import _build_parser, main


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_expansive_poly_report(capsys):
    code, out = run_cli(capsys, ["expansive", "--poly", "3 - u1 - u1^-1"])
    assert code == 0
    rep = json.loads(out)
    assert rep["report"]["verdict"] == "Expansive"
    assert rep["report"]["expansive_constant"] == "1/5"
    assert rep["report"]["certificate"]["verdict"] == "Invertible"


def test_expansive_not_expansive_exit_zero(capsys):
    code, out = run_cli(capsys, ["expansive", "--poly", "4 - u1 - u1^-1 - u2 - u2^-1"])
    assert code == 0  # definite verdict
    rep = json.loads(out)
    assert rep["report"]["verdict"] == "NotExpansive"
    assert rep["report"]["certificate"]["witness"] == ["0", "0"]


def test_expansive_dominant_term_of_high_degree(capsys):
    # the grid's Lipschitz bound is 6.3e6 here, but |3| > ||f - 3||_1 = 1
    code, out = run_cli(capsys, ["expansive", "--poly", "3 - u1^1000000"])
    assert code == 0
    rep = json.loads(out)["report"]
    assert rep["verdict"] == "Expansive"
    assert rep["certificate"]["margin"] == 2.0
    assert "term 3" in rep["certificate"]["note"]


def test_expansive_unknown_exit_two(capsys):
    code, out = run_cli(capsys, ["expansive", "--poly", "2 + 3*u1 + 2*u1^2"])
    assert code == 2
    assert json.loads(out)["report"]["verdict"] == "Unknown"


def test_expansive_matrix_past_the_det_cap_is_unknown_exit_two(tmp_path, capsys, monkeypatch):
    from algdyn import groupring

    monkeypatch.setattr(groupring, "DET_TERM_CAP", 2)
    path = tmp_path / "m.json"
    path.write_text(json.dumps([["2 - u1 + u1^2", "1 + u1"], ["3 + u1^-1", "2 - u1"]]))
    code, out = run_cli(capsys, ["expansive", "--matrix", str(path)])
    assert code == 2
    rep = json.loads(out)["report"]
    assert rep["verdict"] == "Unknown" and rep["expansive_constant"] is None
    assert rep["note"] == "an elimination entry of 4 terms exceeds the cap of 2 terms"


def test_entropy_mahler(capsys):
    code, out = run_cli(
        capsys, ["entropy", "--method", "mahler", "--poly", "u1 - 2", "--grid", "65536"]
    )
    assert code == 0
    rep = json.loads(out)
    assert abs(rep["estimate"]["value"] - math.log(2)) < 1e-8


@pytest.mark.parametrize("grid", ["1", "2", "3"])
@pytest.mark.parametrize("cmd", [["entropy", "--method", "mahler"], ["duality"]])
def test_mahler_grid_below_four_is_refused(capsys, cmd, grid):
    # the error bound compares with the m // 2 grid, which must be strictly coarser
    assert main([*cmd, "--poly", "3 - u1", "--grid", grid]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "at least 4" in captured.err


def test_mahler_grid_four_compares_with_two(capsys):
    code, out = run_cli(capsys, ["entropy", "--method", "mahler", "--poly", "3 - u1", "--grid", "4"])
    assert code == 0
    est = json.loads(out)["estimate"]
    assert est["parameters"]["grid"] == 4
    assert est["error_bound"] > 0
    assert abs(est["value"] - math.log(3)) <= est["error_bound"]


def test_entropy_peters_csv(capsys):
    code, out = run_cli(
        capsys,
        ["entropy", "--method", "peters", "--poly", "u1 - 1", "--nmax", "6", "--format", "csv"],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,count,log,diff"
    assert lines[1].startswith("1,2,")
    assert lines[2].count(",") == 3
    assert len(lines) == 7


@pytest.mark.parametrize("argv", [
    ["expansive", "--poly", "3 - u1 - u1^-1"],
    ["entropy", "--method", "mahler", "--poly", "u1 - 2"],
    ["entropy", "--method", "packing", "--poly", "3 - u1 - u1^-1", "--window", "4"],
    ["homoclinic", "--poly", "3 - u1 - u1^-1"],
    ["ie", "--poly", "3 - u1 - u1^-1", "--eps", "0.1", "--window", "5"],
    ["duality", "--poly", "3 - u1 - u1^-1"],
])
def test_csv_without_a_series_is_refused(capsys, argv):
    assert main([*argv, "--format", "csv"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --format csv")


def _kernel_witness_off(monkeypatch):
    # the witness row, moved off the kernel before the exact re-check
    from algdyn import expansive
    from algdyn.groupring import GroupRingElement, GroupRingMatrix

    monkeypatch.setattr(expansive, "GroupRingMatrix", lambda rows: GroupRingMatrix(
        [[e + GroupRingElement.one(e.d) for e in rows[0]]]
    ))


def _direct_violations_off(monkeypatch):
    from algdyn import independence

    direct = independence._direct_violations
    monkeypatch.setattr(independence, "_direct_violations", lambda *a: [v + 1 for v in direct(*a)])


def _star_det_off(monkeypatch):
    # A* moved by one in every entry, so that det(A*) is no longer det(A)*
    from algdyn.groupring import GroupRingElement, GroupRingMatrix

    star = GroupRingMatrix.star
    monkeypatch.setattr(GroupRingMatrix, "star", lambda A: GroupRingMatrix(
        [[e + GroupRingElement.one(e.d) for e in row] for row in star(A).entries]
    ))


def _lift_array_shifted(monkeypatch):
    # the first lift_array read (the witness tensor) takes its first site one
    # step along; the targets and the re-check read the point as it is
    from algdyn.homoclinic import LiftedPoint

    lift_array, reads = LiftedPoint.lift_array, []

    def shifted(x, sites):
        sites = list(sites)
        if not reads:
            sites[0] = tuple(v + 1 for v in sites[0])
        reads.append(len(sites))
        return lift_array(x, sites)

    monkeypatch.setattr(LiftedPoint, "lift_array", shifted)


def _family_value_moved(monkeypatch):
    # one value of the main path's witness tensor moves by 0.01
    family_values = independence.family_values

    def moved(*args):
        vals = family_values(*args)
        vals[0, 0, 0] += 0.01
        return vals

    monkeypatch.setattr(independence, "family_values", moved)


def _recheck_value_moved(monkeypatch):
    # the re-check's first read (its targets) sees one value moved by 0.01
    from algdyn.homoclinic import LiftedPoint

    values, reads = LiftedPoint.values, []

    def moved(x, sites):
        out = values(x, sites)
        if not reads:
            out[0, 0] += 0.01
        reads.append(len(sites))
        return out

    monkeypatch.setattr(LiftedPoint, "values", moved)


@pytest.mark.parametrize("break_check, argv", [
    (_kernel_witness_off, ["expansive", "--matrix", "singular.json", "--check-entropy"]),
    (_direct_violations_off, ["ie", "--poly", "3 - u1 - u1^-1", "--eps", "0.1", "--window", "5"]),
    (_star_det_off, ["duality", "--poly", "3 - u1 - u1^-1"]),
    (_lift_array_shifted, ["ie", "--poly", "3 - u1 - u1^-1", "--eps", "0.1", "--window", "5"]),
    (_family_value_moved, ["ie", "--poly", "3 - u1 - u1^-1", "--eps", "0.1", "--window", "30"]),
    (_recheck_value_moved, ["ie", "--poly", "3 - u1 - u1^-1", "--eps", "0.1", "--window", "30"]),
])
def test_failed_internal_check_exits_one(tmp_path, monkeypatch, capsys, break_check, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "singular.json").write_text(json.dumps([["u1 - 2", "u1 - 2"], ["u1 - 2", "u1 - 2"]]))
    assert main(argv) == 0
    capsys.readouterr()
    break_check(monkeypatch)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "verif" in captured.err


@pytest.mark.parametrize("argv, what, unreached", [
    # 4 * 10^8 window sites, refused before any of them is built
    (["ie", "--poly", "5 - u1 - u1^-1 - u2 - u2^-1", "--eps", "0.1", "--window", "20000"],
     "a window of 20000^2 sites needs about 25600 MB", "window"),
    # 10^14 pattern codes on a window of 64 sites, refused before they are drawn
    (["ie", "--poly", "20 - u1 - u1^-1", "--eps", "0.3", "--window", "64", "--cap", "100000000000000"],
     "a set of 100000000000000 pattern codes on 64 separated sites needs about", "codes"),
    # a family of 2^12 members over 5 * 10^6 sites, refused before the window is scanned
    (["entropy", "--method", "packing", "--poly", "3 - u1 - u1^-1", "--window", "5000000"],
     "the family on at least 263158 separated sites of a window of 5000000 sites needs about 163840 MB",
     "scan"),
    # a window past the float range: its size is still named in integers
    (["ie", "--poly", "3 - u1 - u1^-1", "--eps", "0.1", "--window", "1" + "0" * 400],
     f"a window of 1{'0' * 400}^1 sites needs about 56{'0' * 394} MB", "window"),
])
def test_oversized_windows_and_caps_are_one_error_line(monkeypatch, capsys, argv, what, unreached):
    # what each refusal must come before, made to fail if it is reached
    def unreachable(*args, **kwargs):
        raise AssertionError(f"the {unreached} was reached")

    monkeypatch.setattr(*{"window": (cli, "itertools", types.SimpleNamespace(product=unreachable)),
                          "codes": (np.random, "default_rng", unreachable),
                          "scan": (independence, "greedy_separated_subset", unreachable)}[unreached])
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {what}") and captured.err.endswith(" MB, over ALGDYN_MEM_CAP_MB\n")
    assert captured.err.count("\n") == 1


def test_entropy_peters_coefficients_beyond_int64(capsys):
    code, out = run_cli(capsys, [
        "entropy", "--method", "peters", "--poly", "u1^2 - 10000000000000000000000*u1 - 1",
        "--nmax", "4",
    ])
    assert code == 0
    assert [row["count"] for row in json.loads(out)["estimate"]["series"]] == [2, 4, 8, 16]


def test_usage_error_exit_one(capsys):
    assert main(["expansive", "--no-such-flag"]) == 1
    capsys.readouterr()


def test_homoclinic_report(capsys):
    code, out = run_cli(capsys, ["homoclinic", "--poly", "u1 - 2"])
    assert code == 0
    rep = json.loads(out)
    assert abs(rep["delta1"]["total"] - 1.0) < 1e-8
    assert rep["annihilation_residual"] <= rep["membership_tolerance"]


def test_ie_report(capsys):
    code, out = run_cli(
        capsys,
        ["ie", "--poly", "3 - u1 - u1^-1", "--eps", "0.1", "--window", "30"],
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["report"]["all_pass"]
    assert rep["report"]["density"] >= 1.0 / (2 * len(rep["report"]["K"]) + 1)


def test_shadow_from_config(tmp_path, capsys):
    cfg = {
        "poly": "3 - u1 - u1^-1",
        "eps": 0.05,
        "blocks": [
            {"window": [0, 1, 2, 3, 4], "m": "u1^2"},
            {"window": [40, 41, 42, 43, 44], "m": "u1^42"},
        ],
    }
    path = tmp_path / "blocks.json"
    path.write_text(json.dumps(cfg))
    code, out = run_cli(capsys, ["shadow", "--config", str(path)])
    assert code == 0
    rep = json.loads(out)
    assert rep["all_blocks_within_eps"]
    assert all(e <= 0.05 for e in rep["result"]["block_errors"])


def test_duality_matrix_file(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps([["2", "u1"], ["u1^-1", "2"]]))
    code, out = run_cli(capsys, ["duality", "--matrix", str(path), "--grid", "4096"])
    assert code == 0
    rep = json.loads(out)
    assert rep["report"]["difference"] <= 1e-12
    assert abs(rep["report"]["entropy"] - math.log(3)) < 1e-8


def test_matrix_file_element_object_sums_repeated_exponents(tmp_path, capsys):
    # 2 + 1 - u1 at one site is 3 - u1 (entropy log 3); the last repeat alone gave 1 - u1
    path = tmp_path / "m.json"
    entry = {"d": 1, "terms": [{"exp": [0], "coef": 2}, {"exp": [0], "coef": 1}, {"exp": [1], "coef": -1}]}
    path.write_text(json.dumps([[entry]]))
    code, out = run_cli(capsys, ["duality", "--matrix", str(path)])
    assert code == 0
    assert abs(json.loads(out)["report"]["entropy"] - math.log(3)) < 1e-8


def test_packing_levels_over_the_family_cap_are_refused(capsys):
    assert main(["entropy", "--method", "packing", "--poly", "3 - u1 - u1^-1", "--levels", "20000"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: M_levels = 20000 exceeds PACKING_FAMILY_CAP = 4096")


def test_duality_eliminates_a_and_its_star_once_each(capsys, monkeypatch):
    from algdyn import _sparse

    calls = []
    gauss_jordan = _sparse.gauss_jordan
    monkeypatch.setattr(_sparse, "gauss_jordan", lambda *a: calls.append(a) or gauss_jordan(*a))
    code, _ = run_cli(capsys, ["duality", "--poly", "3 - u1 - u1^-1"])
    assert code == 0 and len(calls) == 2


def test_freegroup_check(capsys):
    code, out = run_cli(capsys, ["freegroup-check", "--rank", "2", "--order", "3", "--radius", "4"])
    assert code == 0
    assert json.loads(out)["report"]["all_zero"]


def test_pipeline_combined(tmp_path, capsys):
    cfg = [
        {"command": "expansive", "args": {"poly": "3 - u1 - u1^-1"}},
        {"command": "entropy", "args": {"poly": "3 - u1 - u1^-1", "method": "mahler", "grid": 4096}},
        {"command": "homoclinic", "args": {"poly": "3 - u1 - u1^-1"}},
    ]
    path = tmp_path / "pipe.json"
    path.write_text(json.dumps(cfg))
    code, out = run_cli(capsys, ["pipeline", "--config", str(path)])
    assert code == 0
    rep = json.loads(out)
    assert [s["command"] for s in rep["stages"]] == ["expansive", "entropy", "homoclinic"]
    assert rep["stages"][0]["report"]["report"]["verdict"] == "Expansive"


def test_pipeline_empty(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text("[]")
    code, out = run_cli(capsys, ["pipeline", "--config", str(path)])
    assert code == 0
    assert json.loads(out)["stages"] == []


def test_pipeline_invalid_stage(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([{"command": "frobnicate", "args": {}}]))
    code, out = run_cli(capsys, ["pipeline", "--config", str(path)])
    assert code == 1
    rep = json.loads(out)
    assert "unknown stage" in rep["stages"][0]["error"]


def test_pipeline_aborts_with_partial_report(tmp_path, capsys):
    cfg = [
        {"command": "expansive", "args": {"poly": "u1 - 2"}},
        {"command": "entropy", "args": {"poly": "u1 - (", "method": "mahler"}},
        {"command": "expansive", "args": {"poly": "u1 - 2"}},
    ]
    path = tmp_path / "pipe.json"
    path.write_text(json.dumps(cfg))
    code, out = run_cli(capsys, ["pipeline", "--config", str(path)])
    assert code == 1
    rep = json.loads(out)
    assert len(rep["stages"]) == 2  # aborted at the failing stage
    assert "error" in rep["stages"][1]


def test_parse_error_exit_one(capsys):
    code = main(["expansive", "--poly", "3 + + u1"])
    assert code == 1
    err = capsys.readouterr().err
    assert "error" in err


def test_stray_star_is_a_parse_error(capsys):
    # 1 - u1 vanishes at theta = 0; the stray '*' used to make this read as u1, Expansive, exit 0
    code = main(["expansive", "--poly", "1 + u1*-1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: parse error at position 7: '-1'")


@pytest.mark.parametrize("poly", ["u10000000000000 - 3", "u12 - 3"])
def test_dimension_over_the_cap_fails_before_the_torus_scan(capsys, monkeypatch, poly):
    # the first used to raise MemoryError out of main, the second to run the exact scan for minutes
    from algdyn import torus

    def scan(d):
        raise AssertionError("the torus scan ran")

    monkeypatch.setattr(torus, "_scan_points", scan)
    assert main(["expansive", "--poly", poly]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: the dimension d must be from 1 to DIMENSION_CAP")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


def test_variable_index_zero_exit_one(capsys):
    code = main(["expansive", "--poly", "5 - u0 - u2"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: variable u0")


def test_missing_input_exit_one(capsys):
    code = main(["expansive"])
    assert code == 1


@pytest.mark.parametrize("argv", [
    ["expansive", "--matrix", "."],  # a directory: IsADirectoryError
    ["expansive", "--poly", "3 - u1 - u1^-1", "--out", "missing-dir/x.json"],  # written after the run
])
def test_os_error_exit_one(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


@pytest.mark.parametrize("poly,eps", [("9 - u1 - u1^-1", "0.3"), ("3 - u1 - u1^-1", "0.1")])
def test_ie_empty_window_exit_one(capsys, poly, eps):
    # --window 0 is the empty window, whatever the interaction radius
    assert main(["ie", "--poly", poly, "--eps", eps, "--window", "0"]) == 1
    assert capsys.readouterr().err == "error: F must be nonempty\n"


@pytest.mark.parametrize("poly,eps,window,nf1", [
    ("3 - u1 - u1^-1", "0.5", "200", 67),
    ("5 - u1 - u1^-1 - u2 - u2^-1", "0.9", "9", 81),
])
def test_ie_past_64_separated_sites_exit_one(capsys, poly, eps, window, nf1):
    # pattern codes are 64-bit masks
    assert main(["ie", "--poly", poly, "--eps", eps, "--window", window]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: F1 has {nf1} separated sites, over the 64-site limit of the pattern codes; "
                            "use a window of at most 64 sites\n")


def test_ie_window_sure_to_pass_64_separated_sites_is_refused_before_the_scan(capsys, monkeypatch):
    # the greedy scan keeps at least 200000 / (2 * 9 + 1) sites of a window
    # whose conflict ball K - K has 9 sites, so it is not run
    def unreachable(*args, **kwargs):
        raise AssertionError("the greedy scan was reached")

    monkeypatch.setattr(independence, "greedy_separated_subset", unreachable)
    assert main(["ie", "--poly", "3 - u1 - u1^-1", "--eps", "0.1", "--window", "200000"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: F1 has at least 10527 separated sites, over the 64-site limit of the pattern codes; "
                            "use a window of at most 64 sites\n")


def test_ie_at_64_separated_sites(capsys):
    code, out = run_cli(capsys, ["ie", "--poly", "3 - u1 - u1^-1", "--eps", "0.9", "--window", "64"])
    assert code == 0
    rep = json.loads(out)["report"]
    assert len(rep["F1"]) == 64 and rep["subsampled"]


def test_expansive_point_too_fine_to_check_is_unknown(capsys):
    # the grid minimum's near points reach common denominators past 256
    poly = "7 - 2*u1 - 2*u1^-1 - 3*u2 - 3*u2^-1 - u3 - u3^-1"
    code, out = run_cli(capsys, ["expansive", "--poly", poly])
    assert code == 2
    assert json.loads(out)["report"]["verdict"] == "Unknown"


def test_deterministic_output(tmp_path, capsys):
    argv = ["entropy", "--method", "mahler", "--poly", "3 - u1 - u1^-1", "--grid", "1024"]
    _, out1 = run_cli(capsys, argv)
    _, out2 = run_cli(capsys, argv)
    assert out1 == out2


@pytest.mark.parametrize("argv", [
    ["entropy", "--method", "mahler", "--poly", "7 - u1 - u1^-1 - u2 - u2^-1 - 2*u3 - u3^-1 + u1*u2"],
    ["expansive", "--poly", "7 - u1 - 2*u1^-1 - u2 + u1*u2^-1"],
])
def test_report_bytes_do_not_depend_on_blas_threads(argv):
    # the grid stages are matmuls; a report must not change with the BLAS split
    src = os.path.dirname(os.path.dirname(os.path.abspath(algdyn.__file__)))
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "algdyn", *argv], env=env,
                              capture_output=True, timeout=120, check=True)
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])


def test_out_file(tmp_path, capsys):
    dest = tmp_path / "report.json"
    code, out = run_cli(
        capsys, ["expansive", "--poly", "u1 - 2", "--out", str(dest)]
    )
    assert code == 0
    assert out == ""
    rep = json.loads(dest.read_text())
    assert rep["report"]["verdict"] == "Expansive"


def test_out_file_overwrites_a_longer_report_exactly(tmp_path, capsys):
    argv = ["expansive", "--poly", "u1 - 2"]
    _, want = run_cli(capsys, argv)
    dest = tmp_path / "report.json"
    run_cli(capsys, argv + ["--format", "pretty", "--out", str(dest)])
    assert len(dest.read_bytes()) > len(want)
    assert run_cli(capsys, argv + ["--out", str(dest)]) == (0, "")
    assert dest.read_bytes() == want.encode()


@pytest.mark.skipif(os.geteuid() == 0, reason="root reads any file")
def test_out_file_needs_no_read_permission(tmp_path, capsys):
    argv = ["expansive", "--poly", "u1 - 2"]
    _, want = run_cli(capsys, argv)
    dest = tmp_path / "report.json"
    dest.write_text("x" * 1000)
    dest.chmod(0o200)
    assert run_cli(capsys, argv + ["--out", str(dest)]) == (0, "")
    dest.chmod(0o600)
    assert dest.read_bytes() == want.encode()


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_homoclinic_explicit_radius_zero_is_honoured(capsys):
    code, out = run_cli(
        capsys, ["homoclinic", "--poly", "3 + 2*u1 + 2*u1^2", "--radius", "0"]
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["parameters"]["radius"] == 0
    assert rep["window_size"] == 1
    assert rep["certificate_chain"]["inverse_tail_bound"] is None
    assert rep["delta1"]["finite"] is False


def test_pipeline_stage_missing_required_argument(tmp_path, capsys):
    path = tmp_path / "pipe.json"
    path.write_text(json.dumps([{"command": "ie", "args": {"poly": "3 - u1 - u1^-1"}}]))
    code, out = run_cli(capsys, ["pipeline", "--config", str(path)])
    assert code == 1
    rep = json.loads(out)
    assert "--eps" in rep["stages"][0]["error"]


def test_pipeline_stage_args_parse_like_the_command_line(tmp_path, capsys):
    cfg = [
        {"command": "expansive", "args": {"poly": "-3 + u1 + u1^-1", "check_entropy": True}},
        {"command": "homoclinic", "args": {"poly": "3 - u1 - u1^-1", "radius": 0}},
    ]
    path = tmp_path / "pipe.json"
    path.write_text(json.dumps(cfg))
    code, out = run_cli(capsys, ["pipeline", "--config", str(path)])
    assert code == 0
    first, second = (s["report"] for s in json.loads(out)["stages"])
    assert first["report"]["verdict"] == "Expansive"
    assert "finite_entropy" in first
    assert second["window_size"] == 1


def test_entropy_peters_memory_cap_before_two_terms_exits_one(capsys, monkeypatch):
    monkeypatch.setenv("ALGDYN_MEM_CAP_MB", "0")
    assert main(["entropy", "--method", "peters", "--poly", "u1^2 - u1 - 1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "ALGDYN_MEM_CAP_MB" in captured.err


@pytest.mark.parametrize(
    "argv, option",
    [
        (["homoclinic", "--poly", "3 - u1 - u1^-1", "--radius", "-1"], "--radius"),
        (["homoclinic", "--poly", "3 - u1 - u1^-1", "--tol", "-1"], "--tol"),
        (["homoclinic", "--poly", "3 - u1 - u1^-1", "--tol", "nan"], "--tol"),
        (["entropy", "--method", "peters", "--poly", "u1 - 1", "--nmax", "-2"], "--nmax"),
        (["entropy", "--method", "peters", "--poly", "u1 - 1", "--nmax", "1"], "--nmax"),
        (["entropy", "--method", "packing", "--poly", "u1 - 2", "--levels", "0"], "--levels"),
        (["entropy", "--method", "packing", "--poly", "u1 - 2", "--eps", "inf"], "--eps"),
        (["entropy", "--method", "mahler", "--poly", "u1 - 2", "--grid", "0"], "--grid"),
        (["ie", "--poly", "3 - u1 - u1^-1", "--eps", "0", "--window", "5"], "--eps"),
        (["ie", "--poly", "3 - u1 - u1^-1", "--eps", "0.1", "--window", "-5"], "--window"),
        (["ie", "--poly", "3 - u1 - u1^-1", "--eps", "0.1", "--cap", "0"], "--cap"),
        (["freegroup-check", "--rank", "1", "--order", "2", "--radius", "3"], "--rank"),
        (["freegroup-check", "--rank", "2", "--order", "-1", "--radius", "3"], "--order"),
        (["freegroup-check", "--rank", "2", "--order", "2", "--radius", "x"], "--radius"),
        (["ie", "--poly", "3 - u1 - u1^-1", "--eps", "0.1", "--cap", "64", "--seed", "-1"], "--seed"),
    ],
)
def test_out_of_range_values_exit_one(capsys, argv, option):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert f"argument {option}: expected" in captured.err


def test_pipeline_stage_out_of_range_value(tmp_path, capsys):
    cfg = [
        {"command": "expansive", "args": {"poly": "u1 - 2"}},
        {"command": "homoclinic", "args": {"poly": "3 - u1 - u1^-1", "radius": -1}},
    ]
    path = tmp_path / "pipe.json"
    path.write_text(json.dumps(cfg))
    code, out = run_cli(capsys, ["pipeline", "--config", str(path)])
    assert code == 1
    stages = json.loads(out)["stages"]
    assert len(stages) == 2
    assert "argument --radius: expected an integer >= 0" in stages[1]["error"]


@pytest.mark.parametrize("command, args, key", [
    ("expansive", {"poly": 5}, "poly"),
    ("expansive", {"poly": "u1 - 2", "grid": "32"}, "grid"),
    ("homoclinic", {"poly": "3 - u1 - u1^-1", "element": 3}, "element"),
    ("homoclinic", {"poly": "3 - u1 - u1^-1", "tol": False}, "tol"),
    ("homoclinic", {"poly": "3 - u1 - u1^-1", "radius": True}, "radius"),
    ("ie", {"poly": "3 - u1 - u1^-1", "eps": "0.1"}, "eps"),
    ("ie", {"poly": "3 - u1 - u1^-1", "eps": 0.1, "window": False}, "window"),
    ("ie", {"poly": "3 - u1 - u1^-1", "eps": 0.1, "seed": None}, "seed"),
    ("entropy", {"method": "packing", "poly": "u1 - 2", "eps": True}, "eps"),
    ("expansive", {"poly": "u1 - 2", "check_entropy": 1}, "check_entropy"),
])
def test_pipeline_stage_argument_of_the_wrong_json_type_is_refused(tmp_path, capsys, command, args, key):
    path = tmp_path / "pipe.json"
    path.write_text(json.dumps([{"command": "expansive", "args": {"poly": "u1 - 2"}},
                                {"command": command, "args": args}]))
    code, out = run_cli(capsys, ["pipeline", "--config", str(path)])
    assert code == 1
    first, second = json.loads(out)["stages"]
    assert first["status"] == 0
    assert second["error"].startswith(f"stage argument {key!r} must be ")


def test_pipeline_stage_values_of_their_json_types_are_read(tmp_path, capsys):
    cfg = [
        {"command": "expansive", "args": {"poly": "u1 - 2", "grid": 32, "check_entropy": None}},
        {"command": "homoclinic", "args": {"poly": "3 - u1 - u1^-1", "tol": 1, "radius": 8}},
        {"command": "ie", "args": {"poly": "3 - u1 - u1^-1", "eps": 0.1, "window": 6}},
    ]
    path = tmp_path / "pipe.json"
    path.write_text(json.dumps(cfg))
    code, out = run_cli(capsys, ["pipeline", "--config", str(path)])
    assert code == 0
    stages = json.loads(out)["stages"]
    assert [s["status"] for s in stages] == [0, 0, 0]
    assert "finite_entropy" not in stages[0]["report"]
    assert stages[1]["report"]["window_size"] > 1


def test_freegroup_check_reports_the_radial_method(capsys):
    code, out = run_cli(capsys, ["freegroup-check", "--rank", "3", "--order", "5", "--radius", "8"])
    assert code == 0
    rep = json.loads(out)["report"]
    assert rep["method"] == "radial"
    assert rep["all_zero"] and rep["checked_words"] == 1 + 6 * (5**8 - 1) // 4


def test_freegroup_check_huge_order_and_radius_is_a_cap_error(capsys):
    code = main(["freegroup-check", "--rank", "2", "--order", str(10**12), "--radius", str(10**12)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: radius 1000000000000 at rank 2 needs integers")


def _outcome(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # --version
        code = ("exit", exc.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_reused_parser_leaks_no_state(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([{"command": "homoclinic", "args": {"poly": "3 - u1 - u1^-1", "radius": -1}}]))
    sequence = [
        ["ie", "--poly", "3 - u1 - u1^-1", "--eps", "0.1", "--window", "5"],
        ["ie", "--poly", "3 - u1 - u1^-1", "--eps", "0.1"],
        ["pipeline", "--config", str(bad)],
        ["homoclinic", "--poly", "3 - u1 - u1^-1"],
        ["--version"],
        ["expansive", "--poly", "3 - u1 - u1^-1"],
    ]
    _build_parser.cache_clear()
    shared = [_outcome(capsys, argv) for argv in sequence]
    assert _build_parser.cache_info().misses == 1  # main and the pipeline stage share one parser
    assert json.loads(shared[1][1])["parameters"]["window"] == 60
    assert shared[2][0] == 1 and "--radius" in json.loads(shared[2][1])["stages"][0]["error"]
    assert shared[4] == (("exit", 0), f"algdyn {__version__}\n", "")
    for argv, got in zip(sequence, shared):
        _build_parser.cache_clear()
        assert got == _outcome(capsys, argv), argv


@pytest.mark.parametrize("argv", [
    ["expansive", "--poly", "u1^99999999999999999999 - 3"],
    ["entropy", "--method", "mahler", "--poly", "u1^99999999999999999999 - 3"],
    ["homoclinic", "--poly", "3 - u1^99999999999999999999"],
])
def test_exponent_beyond_int64_is_an_error_line(capsys, argv):
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and "int64" in err
    assert "Traceback" not in err


def test_peters_companion_matrices_over_the_memory_cap(monkeypatch, capsys):
    monkeypatch.setenv("ALGDYN_MEM_CAP_MB", "1")
    code = main(["entropy", "--method", "peters", "--poly", "u1^400 - u1 - 1", "--nmax", "2"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: companion matrices of degree 400")


def _refuse_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


_SHADOW_CONFIG = {
    "poly": "3 - u1 - u1^-1",
    "eps": 0.05,
    "blocks": [
        {"window": [0, 1, 2, 3, 4], "m": "u1^2"},
        {"window": [40, 41, 42, 43, 44], "m": "u1^42"},
    ],
    "periodic": [64],
}
_STAGES = [
    {"command": "expansive", "args": {"poly": "3 - u1 - u1^-1", "check_entropy": True}},
    {"command": "homoclinic", "args": {"poly": "3 - u1 - u1^-1"}},
    {"command": "ie", "args": {"poly": "3 - u1 - u1^-1", "eps": 0.1, "window": 20}},
]
# case -> (argv, input files named in argv)
_STRICT_CASES = {
    "expansive": (["expansive", "--poly", "3 - u1 - u1^-1", "--check-entropy"], {}),
    "mahler": (["entropy", "--method", "mahler", "--poly", "u1 - 2", "--grid", "65536"], {}),
    "peters": (["entropy", "--method", "peters", "--poly", "u1^2 - u1 - 1", "--nmax", "30"], {}),
    "packing": (["entropy", "--method", "packing", "--poly", "3 - u1 - u1^-1", "--window", "20"], {}),
    "homoclinic": (["homoclinic", "--poly", "3 - u1 - u1^-1"], {}),
    "ie": (["ie", "--poly", "3 - u1 - u1^-1", "--eps", "0.1", "--window", "60"], {}),
    "shadow": (["shadow", "--config", "blocks.json"], {"blocks.json": _SHADOW_CONFIG}),
    "duality": (["duality", "--matrix", "matrix.json"],
                {"matrix.json": [["2", "u1"], ["u1^-1", "2"]]}),
    "freegroup-check": (["freegroup-check", "--rank", "2", "--order", "5", "--radius", "8"], {}),
    "pipeline": (["pipeline", "--config", "stages.json"], {"stages.json": _STAGES}),
    "uncertified": (["homoclinic", "--poly", "3 + 2*u1 + 2*u1^2", "--radius", "0"], {}),
}


@pytest.mark.parametrize("case", list(_STRICT_CASES))
def test_every_report_is_strict_json(tmp_path, capsys, case):
    argv, files = _STRICT_CASES[case]
    for name, obj in files.items():
        (tmp_path / name).write_text(json.dumps(obj))
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    code, out = run_cli(capsys, argv)
    assert code == 0
    assert "NaN" not in out and "Infinity" not in out
    rep = json.loads(out, parse_constant=_refuse_constant)
    if case in ("packing", "ie", "shadow"):
        assert rep["certificate_chain"]["inverse_converged"] is True
    if case == "uncertified":
        assert rep["certificate_chain"]["inverse_tail_bound"] is None
        assert rep["point"]["tail_bound"] is None
        assert rep["delta1"]["tail_bound"] is None
        assert rep["delta1"]["total"] is None


@pytest.mark.parametrize("poly, converged", [
    ("3 - u1 - u1^-1", True),
    # radius 40 reaches five nonzero multiples of 7 on each side: residual 1.0e-2
    ("3 - u1^7 - u1^-7", False),
    # radius 40 reaches no nonzero multiple of 10^6: residual 1/3
    ("3 - u1^1000000", False),
])
def test_homoclinic_chain_says_whether_the_inverse_converged(capsys, poly, converged):
    code, out = run_cli(capsys, ["homoclinic", "--poly", poly])
    assert code == 0
    rep = json.loads(out)
    assert rep["certificate_chain"]["inverse_converged"] is converged
    assert (rep["annihilation_residual"] <= rep["membership_tolerance"]) is converged


@pytest.mark.parametrize("argv, radius", [
    (["homoclinic", "--poly", "3 - u1 - u1^-1"], 27),  # the seed's tail needs 27 of the cap's 40
    (["homoclinic", "--poly", "3 - u1 - u1^-1", "--radius", "10"], 10),  # --radius caps it
    (["homoclinic", "--poly", "3 - u1^7 - u1^-7"], 40),  # the tail never gets below tol / 4
    (["ie", "--poly", "6 - u1 - u1^-1 - u2 - u2^-1", "--eps", "0.2", "--window", "2"], 20),
])
def test_certificate_chain_reports_the_inverse_radius(capsys, argv, radius):
    code, out = run_cli(capsys, argv)
    assert code == 0
    assert json.loads(out)["certificate_chain"]["inverse_radius"] == radius


@pytest.mark.parametrize("element, norm", [("100000000*u1", 10**8), ("100000*u1", 10**5)])
def test_homoclinic_membership_tolerance_scales_with_the_provenance(capsys, element, norm):
    # a converged inverse proves annihilation_residual <= ||m||_1 tol; 10 tol ||A||_1
    # = 5e-9 was below the residual reached from these elements (6.6e-9 and 2.3e-7)
    code, out = run_cli(capsys, ["homoclinic", "--poly", "3 - u1 - u1^-1", "--element", element])
    assert code == 0
    rep = json.loads(out)
    assert rep["certificate_chain"]["inverse_converged"] is True
    assert rep["membership_tolerance"] == float(norm * Fraction(1e-10))
    assert rep["annihilation_residual"] <= rep["membership_tolerance"]


def test_homoclinic_inverse_refined_below_the_seed_residual(capsys):
    # the float seed leaves residual 1.5e-15; refinement steps reach --tol
    code, out = run_cli(capsys, ["homoclinic", "--poly", "3 - u1 - u1^-1", "--tol", "1e-30", "--radius", "80"])
    assert code == 0
    chain = json.loads(out)["certificate_chain"]
    assert chain["inverse_converged"] is True
    assert Fraction(chain["inverse_residual"]) <= Fraction(1e-30)


def test_shadow_config_matrix_reads_like_a_matrix_file(tmp_path, capsys):
    # "matrix" takes nested lists or {"d", "entries"}, as --matrix files do
    f = "3 - u1 - u1^-1"
    base = {k: v for k, v in _SHADOW_CONFIG.items() if k != "poly"}
    path = tmp_path / "blocks.json"
    reports = []
    for source in ({"poly": f}, {"matrix": [[f]]}, {"matrix": {"d": 1, "entries": [[f]]}}):
        path.write_text(json.dumps({**base, **source}))
        code, out = run_cli(capsys, ["shadow", "--config", str(path)])
        assert code == 0
        reports.append(json.loads(out))
    assert reports[0] == reports[1] == reports[2]


@pytest.mark.parametrize("eps", ["0", "-0.1", "NaN", "1e400", "null", "\"small\"", "true", "\"0.05\"",
                                 pytest.param("1" + "0" * 400, id="10^400")])
def test_shadow_eps_must_be_a_finite_positive_number(tmp_path, capsys, eps):
    # 1e400 reads as inf; null and a string are not numbers at all; true used
    # to run with eps = 1.0 and "0.05" with 0.05; 10^400 is over the float range
    base = json.dumps({**_SHADOW_CONFIG, "eps": 0.05})
    path = tmp_path / "blocks.json"
    path.write_text(base.replace('"eps": 0.05', f'"eps": {eps}'))
    assert main(["shadow", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: eps must be a finite number > 0")


def test_shadow_eps_may_be_an_integer(tmp_path, capsys):
    path = tmp_path / "blocks.json"
    path.write_text(json.dumps({**_SHADOW_CONFIG, "eps": 1}))
    assert main(["shadow", "--config", str(path)]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["result"]["eps"] == 1.0 and rep["all_blocks_within_eps"] is True


@pytest.mark.parametrize("poly, blocks, periodic", [
    ("3 - u1 - u1^-1", [], [0]),
    ("5 - u1 - u1^-1 - u2 - u2^-1", [{"window": [[0, 0], [0, 1]], "m": "u1*u2"}],
     [[40, 40], [20, 20]]),
])
def test_shadow_singular_periodic_basis_is_refused(tmp_path, capsys, poly, blocks, periodic):
    # no move of the blocks makes a rank-deficient subgroup periodize them
    path = tmp_path / "blocks.json"
    path.write_text(json.dumps({"poly": poly, "eps": 0.2, "blocks": blocks, "periodic": periodic}))
    assert main(["shadow", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: the periodic basis") and "full rank" in captured.err


_SHADOW_2D = {"poly": "5 - u1 - u1^-1 - u2 - u2^-1", "eps": 0.2,
              "blocks": [{"window": [[0, 0], [0, 1]], "m": "u1*u2"}]}


@pytest.mark.parametrize("command, obj, form", [
    ("expansive --matrix", [[1]], "a matrix entry is"),
    ("expansive --matrix", [[None]], "a matrix entry is"),
    ("expansive --matrix", [], "a matrix is a nonempty list"),
    ("expansive --matrix", "3 - u1", "a matrix is a nonempty list"),
    ("expansive --matrix", {"d": 1}, "a matrix is a nonempty list"),
    ("expansive --matrix", [[{"d": 1, "terms": 5}]], "an element object is"),
    ("shadow --config", {**_SHADOW_2D, "periodic": 64}, "the periodic basis is 2 integers"),
    ("shadow --config", {**_SHADOW_2D, "periodic": [64.5, 64]}, "the periodic basis is 2 integers"),
    ("shadow --config", {**_SHADOW_2D, "blocks": [{"window": 5, "m": "1"}]}, "a shadow config is"),
    ("shadow --config", [_SHADOW_2D], "a shadow config is"),
    ("shadow --config", {"poly": "3 - u1 - u1^-1", "eps": 0.2}, "a shadow config is"),
    ("shadow --config", {**_SHADOW_2D, "poly": 5}, "a polynomial is a string"),
    ("pipeline --config", {"command": "expansive"}, "a pipeline config is a list"),
    ("pipeline --config", [1], "a pipeline config is a list"),
    ("pipeline --config", [{"command": "expansive", "args": 5}], "a pipeline config is a list"),
    # non-integers are refused, not truncated to 3 - u1 or read as d = 1
    ("expansive --matrix", [[{"d": 1, "terms": [{"exp": [0], "coef": 3.7}, {"exp": [1.9], "coef": -1}]}]],
     "a coefficient must be an integer, got 3.7"),
    ("expansive --matrix", [[{"d": 1, "terms": [{"exp": [0], "coef": 3}, {"exp": [1.9], "coef": -1}]}]],
     "an exponent must be an integer, got 1.9"),
    ("expansive --matrix", {"d": True, "entries": [["3 - u1 - u1^-1"]]}, 'a matrix\'s "d" must be an integer'),
    ("shadow --config", {**_SHADOW_2D, "periodic": [True, 64]}, "the periodic basis is 2 integers"),
    ("shadow --config", {**_SHADOW_2D, "blocks": [{"window": [[0, True]], "m": "1"}]}, "an exponent must be an integer"),
    ("shadow --config", {**_SHADOW_2D, "blocks": [{"window": [[0, 0.5]], "m": "1"}]}, "an exponent must be an integer"),
    ("shadow --config", {**_SHADOW_2D, "blocks": [{"window": ["0"], "m": "1"}]}, "an exponent must be an integer"),
])
def test_malformed_json_input_is_an_error_line(tmp_path, capsys, command, obj, form):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj))
    assert main([*command.split(), str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {form}")


def test_shadow_windows_are_checked_before_any_inverse_is_built(tmp_path, monkeypatch, capsys):
    from algdyn import homoclinic

    calls = []
    star_inverse = homoclinic._star_inverse
    monkeypatch.setattr(homoclinic, "_star_inverse", lambda *a: calls.append(a) or star_inverse(*a))
    cfg = {**_SHADOW_CONFIG, "blocks": [{"window": [0, 1], "m": "u1"}, {"window": [[40, 0]], "m": "u1^40"}]}
    path = tmp_path / "blocks.json"
    path.write_text(json.dumps(cfg))
    assert main(["shadow", "--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: exponent (40, 0) has length 2, expected 1")
    assert calls == []
