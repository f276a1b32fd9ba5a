"""Digest of every benchmark report, for checking that a change keeps them.

Usage, from the root of a source checkout:
    python3 tools/report_digest.py [--repo PATH] [--seeds 1 2 3] [--workload NAME ...]
    python3 tools/report_digest.py --compare OTHER [--diff] [--seeds ...] [--workload ...]
    python3 tools/report_digest.py --diff OTHER [--seeds ...] [--workload ...]

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

``--diff`` (with ``--compare OTHER``, or as ``--diff OTHER``) also prints,
for each report that differs, its seed, request id and argv, then each
changed JSON field as ``path: old -> new``, old being OTHER's and new the
``--repo`` checkout's, with the relative change of a float (the absolute
one when old is 0).  A differing exit code prints as the field ``exit``.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import io
import json
import os
import shlex
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


def run_reports(workload: str, seeds: list[int]) -> list[dict]:
    """One record {key, argv, code, text} per request of the workload over the seeds."""
    import workloads
    from algdyn import cli

    os.makedirs(WORKDIR, exist_ok=True)
    out_path = os.path.join(WORKDIR, "report.out")
    records = []
    for seed in seeds:
        requests = workloads.generate(workload, seed)
        _materialize(requests, WORKDIR)
        for req in requests:
            if os.path.exists(out_path):
                os.remove(out_path)
            argv = [a.replace("{tmp}", WORKDIR) for a in req["argv"]]
            with contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv + ["--out", out_path])
            text = "<no report>\n"
            if os.path.exists(out_path):
                with open(out_path, "rb") as fh:
                    text = fh.read().decode()
            records.append({"key": f"{workload}:{seed}:{req['id']}", "argv": argv, "code": code, "text": text})
    return records


def summary(records: list[dict]) -> str:
    """The request count, the exit-code histogram and the sha256 of the reports."""
    codes = collections.Counter(r["code"] for r in records)
    sha = hashlib.sha256()
    for r in records:
        sha.update(f"{r['key']}:{r['code']}\n{r['text']}".encode())
    hist = " ".join(f"{c}:{n}" for c, n in sorted(codes.items()))
    return f"requests {len(records)}\texit {hist}\tsha256 {sha.hexdigest()}"


def _leaves(obj, path: str = "") -> dict:
    """The JSON value as {dotted path: leaf}."""
    if isinstance(obj, dict):
        items = ((f"{path}.{k}" if path else str(k), v) for k, v in obj.items())
    elif isinstance(obj, list):
        items = ((f"{path}[{i}]", v) for i, v in enumerate(obj))
    else:
        return {path: obj}
    out = {}
    for p, v in items:
        out.update(_leaves(v, p))
    return out


def _change(old, new) -> str:
    text = f"{json.dumps(old)} -> {json.dumps(new)}"
    if isinstance(old, float) and isinstance(new, (int, float)) and not isinstance(new, bool):
        text += f" (rel {(new - old) / abs(old):+.2e})" if old else f" (abs {new - old:+.2e})"
    return text


def field_changes(old: dict, new: dict) -> list[str]:
    """The lines `path: old -> new` for every field in which two records differ."""
    lines = [f"exit: {old['code']} -> {new['code']}"] if old["code"] != new["code"] else []
    try:
        a, b = _leaves(json.loads(old["text"])), _leaves(json.loads(new["text"]))
    except ValueError:  # not JSON: compare the texts whole
        return lines + ([f"report: {old['text']!r} -> {new['text']!r}"] if old["text"] != new["text"] else [])
    missing = "<missing>"
    for path in dict.fromkeys([*a, *b]):
        if a.get(path, missing) != b.get(path, missing):
            lines.append(f"{path}: " + (_change(a[path], b[path]) if path in a and path in b
                                          else f"{a.get(path, missing)} -> {b.get(path, missing)}"))
    return lines


def main(argv=None) -> int:
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--repo", default=here, help="checkout whose src and perfbench are used")
    p.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    p.add_argument("--workload", nargs="+")
    p.add_argument("--compare", metavar="OTHER", help="checkout whose digests to compare with --repo's")
    p.add_argument("--diff", nargs="?", const=True, metavar="OTHER",
                   help="also print the changed fields of each differing report (OTHER implies --compare OTHER)")
    p.add_argument("--records", action="store_true", help=argparse.SUPPRESS)  # JSON output for --compare
    args = p.parse_args(argv)
    if isinstance(args.diff, str):
        if args.compare not in (None, args.diff):
            p.error("--diff OTHER and --compare name different checkouts")
        args.compare = args.diff
    elif args.diff and args.compare is None:
        p.error("--diff needs a checkout to compare with: --compare OTHER --diff, or --diff OTHER")
    for path in filter(None, (args.repo, args.compare)):
        if not os.path.isfile(os.path.join(path, "src", "algdyn", "cli.py")):
            p.error(f"{path} is not an algdyn checkout (src/algdyn/cli.py not found)")
    repo = os.path.abspath(args.repo)
    sys.path[:0] = [os.path.join(repo, "src"), os.path.join(repo, "perfbench")]
    import workloads

    names = args.workload or list(workloads.WORKLOADS)
    records = {name: run_reports(name, args.seeds) for name in names}
    lines = {name: summary(recs) for name, recs in records.items()}
    if args.records:
        json.dump(records, sys.stdout)
        return 0
    if args.compare is None:
        for name, line in lines.items():
            print(f"{name}\t{line}")
        return 0

    seeds = [str(s) for s in args.seeds]
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--repo", args.compare, "--seeds", *seeds,
         "--workload", *names, "--records"],
        capture_output=True, text=True,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return 1
    other = json.loads(proc.stdout)
    differ = False
    for name, line in lines.items():
        other_line = summary(other.get(name, []))
        if other_line == line:
            print(f"{name}\tsame\t{line}")
            continue
        differ = True
        print(f"{name}\tDIFFERENT\t{line}\tvs {args.compare}: {other_line}")
        if not args.diff:
            continue
        theirs = {r["key"]: r for r in other.get(name, [])}
        for rec in records[name]:
            old = theirs.pop(rec["key"], None)
            if old is None:
                print(f"  {rec['key']}\tonly in {args.repo}: {shlex.join(rec['argv'])}")
            elif old["code"] != rec["code"] or old["text"] != rec["text"]:
                print(f"  {rec['key']}\t{shlex.join(rec['argv'])}")
                for change in field_changes(old, rec):
                    print(f"    {change}")
        for key, old in theirs.items():
            print(f"  {key}\tonly in {args.compare}: {shlex.join(old['argv'])}")
    return int(differ)


if __name__ == "__main__":
    raise SystemExit(main())
