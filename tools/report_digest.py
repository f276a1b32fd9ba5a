"""Digest of every benchmark report, for checking that a change keeps them.

Usage, from the root of a source checkout:
    python3 tools/report_digest.py [--repo PATH] [--seeds 1 2 3] [--workload NAME ...]
    python3 tools/report_digest.py --compare OTHER [--seeds ...] [--workload ...]

For each workload of perfbench/workloads.py (imported, not modified) and
each seed, it builds the pass's request list, writes the request files
into one fixed temporary directory (so that file paths echoed in the
reports are the same on every checkout) and runs each request in-process
through ``algdyn.cli.main`` with ``--out``.  It prints one line per
workload: the request count, a histogram of exit codes and the sha256 of
the concatenated reports.  Run it on two checkouts (``--repo`` picks the
one whose ``src`` and ``perfbench`` are imported) and compare the lines,
or let ``--compare OTHER`` do it: the digest of OTHER runs in a subprocess,
so each checkout imports its own ``algdyn``, and each workload prints
``same`` or ``DIFFERENT``; the exit status is 1 on any difference.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile

WORKDIR = os.path.join(tempfile.gettempdir(), "algdyn-report-digest")


def _materialize(requests: list[dict], tmp: str) -> None:
    token = json.dumps(tmp)[1:-1]
    for req in requests:
        for name, obj in req["files"].items():
            with open(os.path.join(tmp, name), "w") as fh:
                fh.write(json.dumps(obj).replace("{tmp}", token))


def digest(workload: str, seeds: list[int]) -> tuple[int, dict[int, int], str]:
    """(request count, exit-code histogram, sha256 of the reports) over the seeds."""
    import workloads
    from algdyn import cli

    os.makedirs(WORKDIR, exist_ok=True)
    out_path = os.path.join(WORKDIR, "report.out")
    codes: collections.Counter = collections.Counter()
    sha = hashlib.sha256()
    count = 0
    for seed in seeds:
        requests = workloads.generate(workload, seed)
        _materialize(requests, WORKDIR)
        for req in requests:
            if os.path.exists(out_path):
                os.remove(out_path)
            argv = [a.replace("{tmp}", WORKDIR) for a in req["argv"]] + ["--out", out_path]
            with contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            codes[code] += 1
            count += 1
            text = b"<no report>\n"
            if os.path.exists(out_path):
                with open(out_path, "rb") as fh:
                    text = fh.read()
            sha.update(f"{workload}:{seed}:{req['id']}:{code}\n".encode() + text)
    return count, dict(sorted(codes.items())), sha.hexdigest()


def main(argv=None) -> int:
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--repo", default=here, help="checkout whose src and perfbench are used")
    p.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    p.add_argument("--workload", nargs="+")
    p.add_argument("--compare", metavar="OTHER", help="checkout whose digests to compare with --repo's")
    args = p.parse_args(argv)
    for path in filter(None, (args.repo, args.compare)):
        if not os.path.isfile(os.path.join(path, "src", "algdyn", "cli.py")):
            p.error(f"{path} is not an algdyn checkout (src/algdyn/cli.py not found)")
    repo = os.path.abspath(args.repo)
    sys.path[:0] = [os.path.join(repo, "src"), os.path.join(repo, "perfbench")]
    import workloads

    names = args.workload or list(workloads.WORKLOADS)
    lines = {}
    for name in names:
        count, codes, sha = digest(name, args.seeds)
        hist = " ".join(f"{c}:{n}" for c, n in codes.items())
        lines[name] = f"requests {count}\texit {hist}\tsha256 {sha}"
    if args.compare is None:
        for name, line in lines.items():
            print(f"{name}\t{line}")
        return 0

    seeds = [str(s) for s in args.seeds]
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--repo", args.compare, "--seeds", *seeds, "--workload", *names],
        capture_output=True, text=True,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return 1
    other = dict(line.split("\t", 1) for line in proc.stdout.splitlines())
    differ = False
    for name, line in lines.items():
        if other.get(name) == line:
            print(f"{name}\tsame\t{line}")
        else:
            differ = True
            print(f"{name}\tDIFFERENT\t{line}\tvs {args.compare}: {other.get(name)}")
    return int(differ)


if __name__ == "__main__":
    raise SystemExit(main())
