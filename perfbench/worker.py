"""One pass of a workload in a fresh interpreter: the closed-loop client.

Usage (started by run.py, which times the start-up):
    python3 perfbench/worker.py WORKLOAD SEED SMOKE TRACE TMPDIR RESULT

It imports algdyn, generates the request list from the seed, writes the
input files, prints "ready", then sends each request to ``cli.main`` only
after the previous one returned.  Latencies, exit codes, raw report texts,
peak RSS and (with TRACE=1) the spans go to the RESULT file as JSON.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback

import workloads


def _materialize(requests: list[dict], tmp: str) -> None:
    token = json.dumps(tmp)[1:-1]
    for req in requests:
        for name, obj in req["files"].items():
            with open(os.path.join(tmp, name), "w") as fh:
                fh.write(json.dumps(obj).replace("{tmp}", token))


def main(argv: list[str]) -> int:
    workload, seed, smoke, trace, tmp, result_path = argv
    from algdyn import _kernels, cli

    requests = workloads.generate(workload, int(seed), smoke == "1")
    os.makedirs(tmp, exist_ok=True)
    _materialize(requests, tmp)
    tracer = None
    if trace == "1":
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    out_path = os.path.join(tmp, "report.out")
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    os.dup2(2, 1)  # run.py reads only this line; later output goes to stderr

    latencies, codes, texts, errors = [], [], [], []
    clock = time.perf_counter
    start = clock()
    for req in requests:
        args = [a.replace("{tmp}", tmp) for a in req["argv"]] + ["--out", out_path]
        if os.path.exists(out_path):
            os.remove(out_path)
        if tracer is not None:
            tracer.request = req["id"]
        t0 = clock()
        try:
            code = cli.main(args)
            err = None
        except Exception:  # an uncaught error is a failed request, not a crash of the pass
            code, err = -1, traceback.format_exc(limit=3)
        t1 = clock()
        latencies.append(t1 - t0)
        codes.append(code)
        errors.append(err)
        text = None
        if os.path.exists(out_path):
            with open(out_path) as fh:
                text = fh.read()
        texts.append(text)
    wall = clock() - start

    result = {
        "wall_s": wall,
        "latencies": latencies,
        "codes": codes,
        "errors": errors,
        "reports": texts,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "backend": _kernels.BACKEND,
        "spans": tracer.spans if tracer is not None else None,
    }
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
