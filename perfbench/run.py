"""algdyn benchmark: seeded workloads through ``algdyn.cli.main``.

Usage, from the root of a source checkout:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Load model: closed loop, one client.  Each pass runs the workload's whole
request list in a fresh worker process (so the inverse LRU cache and the
cyclotomic cache never carry over between passes), sending each request
only after the previous one returned.  A run makes max(3, S/B) passes, B
the workload's pass time at the baseline (PASS_BUDGET_S).

Every report is checked by an oracle that does not use the timed code path
(see oracles.py).  The last stdout line is one JSON object:
    {"correct", "attempted", "failed", "metrics"}
with the end-to-end metrics for --trace 0 and the per-layer metrics for
--trace 1.  The traced run alternates untraced and traced passes; spans,
per-request latencies and run metadata go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

import oracles
import tracing
import workloads

# Seconds one pass takes at the baseline; a run makes seconds/budget passes
# (at least 3), so many short passes give the medians their samples.
PASS_BUDGET_S = {"spectral": 3.3, "homoclinic_cold": 2.7, "homoclinic_shared": 3.5, "counting": 2.7}
DEADLINE_S = 170.0
TAIL_BEYOND = 10
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("request_s.p50", "s"),
    ("request_s.tail", "s"),
    ("peak_rss_mb", "MB"),
]


def _self(name):
    return lambda t, n: t.get(name, {}).get("self_s", 0.0)


def _count(name, key):
    return lambda t, n: t.get(name, {}).get(key, 0)


def _ratio(num, den):
    def f(t, n):
        d = t.get(den, {}).get("calls", 0)
        return t.get(num, {}).get("calls", 0) / d if d else 0.0
    return f


PER_LAYER = [
    ("kernels.grid_abs_values.self_s", "s", _self("kernels.grid_abs_values")),
    ("kernels.grid_abs_values.calls", "count", _count("kernels.grid_abs_values", "calls")),
    ("kernels.grid_abs_values.ops", "count", _count("kernels.grid_abs_values", "ops")),
    ("torus.certify_invertible.self_s", "s", _self("torus.certify_invertible")),
    ("torus.certify_invertible.calls", "count", _count("torus.certify_invertible", "calls")),
    ("torus.certify_invertible.grid_points", "count", _count("torus.certify_invertible", "grid_points")),
    ("torus.certify_invertible.unknown", "count", _count("torus.certify_invertible", "unknown")),
    ("entropy.mahler_measure.self_s", "s", _self("entropy.mahler_measure")),
    ("entropy.mahler_measure.excluded_points", "count", _count("entropy.mahler_measure", "excluded_points")),
    ("entropy.duality_check.self_s", "s", _self("entropy.duality_check")),
    ("groupring.det.self_s", "s", _self("groupring.det")),
    ("groupring.det.calls", "count", _count("groupring.det", "calls")),
    ("groupring.det.terms", "count", _count("groupring.det", "terms")),
    ("groupring.adjugate.self_s", "s", _self("groupring.adjugate")),
    ("expansive.has_finite_entropy.self_s", "s", _self("expansive.has_finite_entropy")),
    ("expansive.has_finite_entropy.calls", "count", _count("expansive.has_finite_entropy", "calls")),
    ("expansive.is_expansive.self_s", "s",
     lambda t, n: _self("expansive.is_expansive_principal")(t, n) + _self("expansive.is_expansive_square")(t, n)),
    ("torus.l1_inverse.self_s", "s", _self("torus.l1_inverse")),
    ("torus.l1_inverse.calls", "count", _count("torus.l1_inverse", "calls")),
    ("torus.l1_inverse.terms", "count", _count("torus.l1_inverse", "terms")),
    ("torus.matrix_l1_inverse.self_s", "s", _self("torus.matrix_l1_inverse")),
    ("torus.matrix_l1_inverse.calls", "count", _count("torus.matrix_l1_inverse", "calls")),
    ("torus.matrix_l1_inverse.calls_per_request", "calls/request",
     lambda t, n: _count("torus.matrix_l1_inverse", "calls")(t, n) / n),
    ("homoclinic.inverse_reuse", "ratio", _ratio("homoclinic.star_inverse", "torus.matrix_l1_inverse")),
    ("homoclinic.fundamental_homoclinic.self_s", "s", _self("homoclinic.fundamental_homoclinic")),
    ("homoclinic.group_element.self_s", "s", _self("homoclinic.group_element")),
    ("homoclinic.annihilation_residual.self_s", "s", _self("homoclinic.annihilation_residual")),
    ("homoclinic.delta1_membership.self_s", "s", _self("homoclinic.delta1_membership")),
    ("independence.independence_witnesses.self_s", "s", _self("independence.independence_witnesses")),
    ("independence.independence_witnesses.witnesses_checked", "count",
     _count("independence.independence_witnesses", "witnesses_checked")),
    ("independence.shadow.self_s", "s", _self("independence.shadow")),
    ("entropy.packing_lower_bound.self_s", "s", _self("entropy.packing_lower_bound")),
    ("entropy.packing_lower_bound.family_size", "count", _count("entropy.packing_lower_bound", "family_size")),
    ("entropy.packing_lower_bound.separated_count", "count",
     _count("entropy.packing_lower_bound", "separated_count")),
    ("kernels.greedy_separated.self_s", "s", _self("kernels.greedy_separated")),
    ("kernels.greedy_separated.rows", "count", _count("kernels.greedy_separated", "rows")),
    ("entropy.peters_entropy.self_s", "s", _self("entropy.peters_entropy")),
    ("entropy.peters_entropy.calls", "count", _count("entropy.peters_entropy", "calls")),
    ("entropy.peters_entropy.rows", "count", _count("entropy.peters_entropy", "rows")),
    ("freegroup.verify_annihilator.self_s", "s", _self("freegroup.verify_annihilator")),
    ("freegroup.verify_annihilator.checked_words", "count", _count("freegroup.verify_annihilator", "checked_words")),
    ("freegroup.sphere.self_s", "s", _self("freegroup.sphere")),
    ("freegroup.mul_truncated.self_s", "s", _self("freegroup.mul_truncated")),
    ("cli.report.self_s", "s", _self("cli.main")),
]
# filled in from the pass timings, not from the spans
PER_LAYER_RUN = [("trace.overhead_s", "s")]


class BenchError(RuntimeError):
    pass


def _worker_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(THREAD_ENV)
    return env


def run_pass(root, tmp, workload, seed, smoke, trace, deadline) -> dict:
    """One fresh worker, one pass; returns its result plus the setup time."""
    result_path = os.path.join(tmp, "result.json")
    work_tmp = os.path.join(tmp, "inputs")
    shutil.rmtree(work_tmp, ignore_errors=True)
    cmd = [sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py"),
           workload, str(seed), "1" if smoke else "0", "1" if trace else "0", work_tmp, result_path]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=_worker_env(root), stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        setup = time.perf_counter() - t0
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("worker exceeded the run deadline")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"worker failed (exit {proc.returncode})")
    with open(result_path) as fh:
        res = json.load(fh)
    os.remove(result_path)
    res["setup_s"] = setup
    return res


def _tail(values: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with TAIL_BEYOND samples beyond it."""
    s = sorted(values)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0
    return s[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def metadata(root: str, backend: str) -> dict:
    sha = None
    try:
        top = subprocess.run(["git", "-C", root, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and os.path.samefile(lines[0], root):
            sha = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    src_lines = 0
    for dirpath, _, files in os.walk(os.path.join(root, "src")):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f)) as fh:
                    src_lines += sum(1 for _ in fh)
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_available": importlib.util.find_spec("numba") is not None,
        "kernels_backend": backend,
        "blas_threads": THREAD_ENV,
        "git_sha": sha,
        "src_lines": src_lines,
        "load": "closed loop, 1 client, fresh worker process per pass",
    }


def check_reports(requests, passes) -> tuple[int, int, list[str], int, int]:
    """Oracle checks; identical report texts are checked once."""
    failed = attempted = 0
    problems: list[str] = []
    seen: dict = {}
    certs = unknown = 0
    for pi, res in enumerate(passes):
        for req, code, text, err in zip(requests, res["codes"], res["reports"], res["errors"]):
            attempted += 1
            key = (req["id"], code, text)
            if key not in seen:
                report = json.loads(text) if text else None
                probs, verdicts = oracles.check(req, code, report)
                if err:
                    probs = probs + [err.strip().splitlines()[-1]]
                seen[key] = (probs, verdicts)
            probs, verdicts = seen[key]
            if pi == 0:
                certs += len(verdicts)
                unknown += sum(v == "Unknown" for v in verdicts)
            if probs:
                failed += 1
                problems.append(f"pass {pi} request {req['id']} {' '.join(req['argv'][:3])}: {probs[0]}")
    return attempted, failed, problems, certs, unknown


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny request lists, for the benchmark's tests")
    args = ap.parse_args(argv)

    # a terminated run still reaches the finally blocks that stop its worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "algdyn", "cli.py")):
        print("error: run from the root of an algdyn checkout (src/algdyn not found)", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    requests = workloads.generate(args.workload, args.seed, args.smoke)
    npass = max(3, round(args.seconds / PASS_BUDGET_S[args.workload]))
    modes = [False] * npass if not args.trace else [False, True] * max(2, npass // 2)

    tmp = os.path.join(root, ".perfbench_tmp", str(os.getpid()))
    os.makedirs(tmp, exist_ok=True)
    try:
        passes = [run_pass(root, tmp, args.workload, args.seed, args.smoke, m, deadline) for m in modes]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted, failed, problems, certs, unknown = check_reports(requests, passes)
    plain = [p for p, m in zip(passes, modes) if not m]
    traced = [p for p, m in zip(passes, modes) if m]
    lat = [x for p in plain for x in p["latencies"]]
    tail, pct = _tail(lat)
    e2e = {
        "setup_s": statistics.median(p["setup_s"] for p in plain),
        "wall_s": statistics.median(p["wall_s"] for p in plain),
        "request_s.p50": statistics.median(lat),
        "request_s.tail": tail,
        "peak_rss_mb": statistics.median(p["maxrss_mb"] for p in plain),
    }
    extra = {
        "failed_frac": failed / attempted,
        "unknown_frac": unknown / certs if certs else 0.0,
        "request_s.tail_percentile": pct,
        "request_s.samples": len(lat),
    }
    layer, shares = {}, []
    if traced:
        per_pass = []
        for p in traced:
            tot = tracing.layer_totals(p["spans"])
            per_pass.append({name: fn(tot, len(requests)) for name, _, fn in PER_LAYER})
        layer = {name: statistics.median(pp[name] for pp in per_pass) for name, _, _ in PER_LAYER}
        layer["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced) - e2e["wall_s"])
        tot = tracing.layer_totals(traced[0]["spans"])
        busy = sum(v["self_s"] for v in tot.values())
        shares = sorted(((v["self_s"] / busy, k) for k, v in tot.items()), reverse=True)[:5]

    meta = metadata(root, passes[0]["backend"])
    units = dict(END_TO_END + [(n, u) for n, u, _ in PER_LAYER] + PER_LAYER_RUN)
    print(f"workload {args.workload} seed {args.seed}: {len(modes)} passes x {len(requests)} requests"
          f" ({'traced and untraced' if args.trace else 'untraced'}); {meta['load']}")
    print("metadata " + json.dumps(meta, sort_keys=True))
    for name, unit in END_TO_END:
        note = f" (p{pct:.1f} of {len(lat)} requests, {TAIL_BEYOND} beyond)" if name == "request_s.tail" else ""
        print(f"{name} {e2e[name]:.6g} {unit}{note}")
    print(f"failed_frac {extra['failed_frac']:.6g} ratio ({failed} of {attempted} requests)")
    print(f"unknown_frac {extra['unknown_frac']:.6g} ratio ({unknown} of {certs} certificates per pass)")
    for name in layer:
        print(f"{name} {layer[name]:.6g} {units[name]}")
    if shares:
        print("self time leaders: " + ", ".join(f"{k} {s:.0%}" for s, k in shares))
    for line in problems[:20]:
        print("FAILED " + line)

    out_dir = os.path.join(root, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "why": workloads.WHY[args.workload],
        "metadata": meta, "end_to_end": {**e2e, **extra}, "per_layer": layer, "problems": problems,
        "passes": [{"traced": m, "setup_s": p["setup_s"], "wall_s": p["wall_s"], "maxrss_mb": p["maxrss_mb"],
                    "latencies": p["latencies"]} for p, m in zip(passes, modes)],
        "requests": [{"id": r["id"], "kind": r["kind"], "argv": r["argv"]} for r in requests],
        "spans": [p["spans"] for p in traced],
    }
    with open(os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh)

    chosen = layer if args.trace else e2e
    metrics = {name: {"value": v, "unit": units[name]} for name, v in chosen.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
