"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import laurent as L  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from algdyn import cli, homoclinic  # noqa: E402


def test_generator_is_deterministic_per_seed():
    for name in workloads.WORKLOADS:
        a = workloads.generate(name, 7)
        assert json.dumps(a) == json.dumps(workloads.generate(name, 7))
        assert json.dumps(a) != json.dumps(workloads.generate(name, 8))
        assert len(a) % 2 == 1


def test_cold_presentations_are_pairwise_distinct():
    reqs = workloads.generate("homoclinic_cold", 3)
    keys = [json.dumps(r["check"]["matrix"]) for r in reqs]
    assert len(set(keys)) == len(keys)


def _inverse_residual(poly, *extra):
    _, rep = _run_inprocess({"argv": ["homoclinic", "--poly=" + poly, *extra], "files": {}})
    return float(Fraction(rep["certificate_chain"]["inverse_residual"]))


def test_truncation_bound_matches_program_and_excludes_slow_decay():
    # with the tolerance out of reach the program's residual is that of the
    # cut exact inverse; 7 - 3u - 3u^-1 cannot meet 1e-10 within radius 40
    got = _inverse_residual("3*u1^-1 - 7 + 3*u1")
    assert got == pytest.approx(workloads._truncation_residual(7, 3, 3), rel=1e-6)
    assert got > workloads._TOL
    got = _inverse_residual("-3*u1^-1 + 6 - u1", "--tol", "1e-17")
    assert got == pytest.approx(workloads._truncation_residual(6, 1, 3), rel=1e-6)
    for tier in (workloads._IE_LIGHT, workloads._IE_HEAVY, workloads._PACKING):
        assert all(workloads._truncation_residual(*t) <= workloads._TOL / 2 for t in tier)
    for seed in range(40):
        for req in workloads.generate("homoclinic_cold", seed):
            m = req["check"]["matrix"]
            if len(m) == 1 and req["check"]["d"] == 1:
                coef = {e[0]: c for e, c in L.from_json(m[0][0]).items()}
                s = 1 if coef[0] > 0 else -1
                assert workloads._truncation_residual(s * coef[0], -s * coef[1], -s * coef[-1]) <= workloads._TOL / 2


def _run_inprocess(req):
    """One request through cli.main with a cold inverse cache."""
    homoclinic._star_inverse.cache_clear()
    with tempfile.TemporaryDirectory() as tmp:
        for name, obj in req["files"].items():
            with open(os.path.join(tmp, name), "w") as fh:
                fh.write(json.dumps(obj).replace("{tmp}", tmp))
        out = os.path.join(tmp, "out.json")
        code = cli.main([a.replace("{tmp}", tmp) for a in req["argv"]] + ["--out", out])
        with open(out) as fh:
            return code, json.load(fh)


def _lift0(point):
    return next(e for e in point["lift"][0] if e["exp"] == [0] * len(e["exp"]))


def _corrupt_homoclinic(rep):
    _lift0(rep["point"])["value"] += 1e-6


def _corrupt_stage(rep):
    stage = rep["stages"][2]["report"]
    stage["report"]["all_pass"] = False


# kind -> a corruption an honest oracle must catch
CORRUPTIONS = {
    "expansive": lambda rep: rep["report"]["certificate"].__setitem__(
        "grid_min", rep["report"]["certificate"]["grid_min"] * 1.001 + 1e-3),
    "mahler": lambda rep: rep["estimate"].__setitem__("value", rep["estimate"]["value"] + 1e-6),
    "duality": lambda rep: rep["report"].__setitem__("entropy_star", rep["report"]["entropy_star"] + 1e-9),
    "homoclinic": _corrupt_homoclinic,
    "element": _corrupt_homoclinic,
    "ie": lambda rep: rep["report"].__setitem__("all_pass", False),
    "shadow": lambda rep: rep.__setitem__("all_blocks_within_eps", False),
    "packing": lambda rep: rep["estimate"].__setitem__("value", 5.0),
    "pipeline": _corrupt_stage,
    "peters": lambda rep: rep["estimate"]["series"][3].__setitem__("count", rep["estimate"]["series"][3]["count"] + 1),
    "freegroup": lambda rep: rep["report"].__setitem__("checked_words", rep["report"]["checked_words"] + 1),
}


def _smoke_requests():
    seen = {}
    for name in workloads.WORKLOADS:
        for req in workloads.generate(name, 11, smoke=True):
            seen.setdefault(req["kind"], req)
    return seen


@pytest.mark.parametrize("kind", sorted(CORRUPTIONS))
def test_oracle_accepts_real_report_and_rejects_corrupted_one(kind):
    req = _smoke_requests()[kind]
    code, rep = _run_inprocess(req)
    problems, _ = oracles.check(req, code, rep)
    assert problems == []
    bad = copy.deepcopy(rep)
    CORRUPTIONS[kind](bad)
    problems, _ = oracles.check(req, code, bad)
    assert problems, f"corrupted {kind} report passed the oracle"


def test_planted_verdicts_are_enforced():
    reqs = workloads.generate("spectral", 2)
    factor = next(r for r in reqs if r["kind"] == "expansive" and r["check"]["plant"] == "factor")
    code, rep = _run_inprocess(factor)
    assert rep["report"]["verdict"] == "NotExpansive"
    bad = copy.deepcopy(rep)
    bad["report"]["verdict"] = "Expansive"
    bad["report"]["certificate"]["verdict"] = "Invertible"
    assert oracles.check(factor, 0, bad)[0]
    irr = next(r for r in reqs if r["kind"] == "expansive" and r["check"]["plant"] == "irrational")
    code, rep = _run_inprocess(irr)
    problems, verdicts = oracles.check(irr, code, rep)
    assert problems == [] and verdicts == ["Unknown"] and code == 2


def test_peters_recount_matches_golden_mean():
    # x^2 - x - 1: |S_n| = F(n+3) - 1 with F the Fibonacci numbers
    assert oracles.peters_recount([-1, -1, 1], limit=300)[:8] == [2, 4, 7, 12, 20, 33, 54, 88]


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_completes_at_smoke_size(name):
    out = _bench("--workload", name, "--seed", "3", "--seconds", "1", "--trace", "0", "--smoke")
    assert out.returncode == 0, out.stderr
    last = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0
    assert set(last["metrics"]) == {n for n, _ in run.END_TO_END}
    assert all(m["value"] > 0 for m in last["metrics"].values())


def test_traced_smoke_run_reports_every_layer():
    out = _bench("--workload", "homoclinic_shared", "--seed", "3", "--seconds", "1", "--trace", "1", "--smoke")
    assert out.returncode == 0, out.stderr
    metrics = json.loads(out.stdout.strip().splitlines()[-1])["metrics"]
    assert set(metrics) == {n for n, _, _ in run.PER_LAYER} | {n for n, _ in run.PER_LAYER_RUN}
    # group_element is reached through independence's own binding of it
    assert metrics["homoclinic.group_element.self_s"]["value"] > 0
    assert metrics["homoclinic.inverse_reuse"]["value"] > 1
    assert metrics["torus.matrix_l1_inverse.calls_per_request"]["value"] == 1


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    layers = [(n, u) for n, u, _ in run.PER_LAYER] + run.PER_LAYER_RUN
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers


def test_refuses_to_run_without_the_source_tree():
    with tempfile.TemporaryDirectory() as tmp:
        out = _bench("--workload", "spectral", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp)
    assert out.returncode != 0 and out.stdout == ""
