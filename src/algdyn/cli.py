"""Command-line orchestration with machine-readable reports.

Every subcommand echoes its parameters into the report and emits
deterministic JSON (sorted keys, fixed site enumeration); exit status is
0 for definite verdicts, 2 when a verdict is Unknown, 1 on errors.  The
only randomness anywhere (witness subsampling past the cap) is seeded and
the seed is part of the report.
"""

from __future__ import annotations

import argparse
import functools
import gc
import itertools
import json
import math
import os
import stat
import sys

from . import __version__, _sparse, entropy, expansive, freegroup, homoclinic, independence, torus
from ._report import plain
from .groupring import CapExceeded, GroupRingMatrix, norm_sites, parse_element

# The ~24,000 objects made by the imports live as long as the process; frozen,
# they no longer make each full collection a rescan that stalls some request.
gc.freeze()

OK, UNKNOWN_STATUS, ERROR = 0, 2, 1


def _input_matrix(args) -> tuple[GroupRingMatrix, dict]:
    if args.poly and args.matrix:
        raise ValueError("give exactly one input source (--poly or --matrix)")
    if args.poly:
        f = parse_element(args.poly)
        return GroupRingMatrix([[f]]), {"poly": args.poly}
    if args.matrix:
        with open(args.matrix) as fh:
            return GroupRingMatrix.from_obj(json.load(fh)), {"matrix": args.matrix}
    raise ValueError("an input source is required (--poly or --matrix)")


def _window_box(n: int, d: int) -> list:
    """The window [0, n)^d as site tuples, charged against ALGDYN_MEM_CAP_MB
    (a list entry and a tuple a site) before it is built."""
    _sparse.charge(n ** d * (8 + sys.getsizeof((0,) * d)), f"a window of {n}^{d} sites")
    return list(itertools.product(range(n), repeat=d))


# -- subcommand handlers: each takes the parsed arguments of its subcommand ----


def run_expansive(args: argparse.Namespace) -> tuple[dict, int]:
    A, src = _input_matrix(args)
    rep = expansive.is_expansive_square(A, args.grid)
    out = {"input": src, "report": rep.to_obj()}
    if args.check_entropy:
        fin, text = expansive.entropy_finiteness_equals_one_expansiveness_note(A)
        out["finite_entropy"] = fin.to_obj()
        out["equivalence_note"] = text
    return out, UNKNOWN_STATUS if rep.verdict == "Unknown" else OK


def run_entropy(args: argparse.Namespace) -> tuple[dict, int]:
    method = args.method
    A, src = _input_matrix(args)
    chain = None
    if method == "mahler":
        det, chain = _det_chain(A)
        est = entropy.mahler_measure(det, args.grid)
    elif method == "peters":
        if A.rows != 1 or A.cols != 1:
            raise ValueError("peters counting expects a single polynomial input")
        cm = entropy.CompanionModule(A.entries[0][0])
        est = entropy.peters_entropy(cm, n_max=args.nmax)
        chain = {"exact_counting": True}
    elif method == "packing":
        x = _first_point(A)
        est = entropy.packing_lower_bound(x, _window_box(args.window, A.d), eps=args.eps, M_levels=args.levels)
        chain = _certificate_chain(x.inverse)
    else:
        raise ValueError(f"unknown entropy method {method!r}")
    return {"input": src, "certificate_chain": chain, "estimate": est.to_obj()}, OK


def _det_chain(A: GroupRingMatrix) -> tuple:
    """The exact determinant of A and its torus certificate, the chain of
    the reports that rest on det A alone."""
    det = A.det()
    return det, {"torus_certificate": torus.certify_invertible(det).to_obj()}


def _first_point(A: GroupRingMatrix) -> homoclinic.HomoclinicPoint:
    """The homoclinic point e_1 (A*)^-1, at the default tolerance and radius."""
    return homoclinic.group_element(A, [1] + [0] * (A.rows - 1))


def _certificate_chain(inv: torus.MatrixL1Inverse) -> dict:
    """Torus certificate of the presenting matrix plus the residual of the
    inverse of A* that every downstream verdict rests on, and the radius
    it was cut to."""
    return plain({
        "torus_certificate": inv.det_certificate,
        "inverse_residual": inv.residual,
        "inverse_tail_bound": inv.tail_bound,
        "inverse_converged": inv.converged,
        "inverse_radius": inv.radius,
    })


def run_homoclinic(args: argparse.Namespace) -> tuple[dict, int]:
    A, src = _input_matrix(args)
    if args.element:
        m = [parse_element(t, A.d) for t in args.element.split(";")]
    else:
        m = [1] + [0] * (A.rows - 1)
    x = homoclinic.group_element(A, m, args.tol, args.radius)
    cert = homoclinic.delta1_membership(x)
    residual = homoclinic.annihilation_residual(x)
    return {
        "input": src,
        "certificate_chain": _certificate_chain(x.inverse),
        "point": x.to_obj(),
        "delta1": cert.to_obj(),
        "annihilation_residual": residual,
        "membership_tolerance": homoclinic.membership_tolerance(x),
        "window_size": len(x.support()),
    }, OK


def run_ie(args: argparse.Namespace) -> tuple[dict, int]:
    A, src = _input_matrix(args)
    x = _first_point(A)
    rep = independence.independence_witnesses(
        x, args.eps, _window_box(args.window, A.d), cap=args.cap, seed=args.seed
    )
    return {
        "input": src,
        "certificate_chain": _certificate_chain(x.inverse),
        "report": rep.to_obj(),
    }, OK


def run_shadow(args: argparse.Namespace) -> tuple[dict, int]:
    path = args.config
    with open(path) as fh:
        cfg = json.load(fh)
    if not (isinstance(cfg, dict) and isinstance(cfg.get("blocks"), list) and all(
        isinstance(b, dict) and isinstance(b.get("window"), list) and isinstance(b.get("m"), (str, list))
        for b in cfg["blocks"]
    )):
        raise ValueError('a shadow config is an object with "poly" (or "matrix"), "eps", "blocks": '
                         '[{"window": list of sites, "m": polynomial or list of them}, ...] and '
                         'optionally "periodic"')
    A = GroupRingMatrix([[parse_element(cfg["poly"])]]) if "poly" in cfg else GroupRingMatrix.from_obj(cfg.get("matrix"))
    eps = cfg.get("eps")  # an int or a float, not a bool or a string
    if isinstance(eps, bool) or not isinstance(eps, (int, float)) or not 0 < eps <= sys.float_info.max:
        raise ValueError(f"eps must be a finite number > 0, got {eps!r}")
    eps = float(eps)
    windows = [norm_sites(b["window"], A.d) for b in cfg["blocks"]]  # checked before any inverse is built
    blocks = []
    for b, window in zip(cfg["blocks"], windows):
        mspec = [b["m"]] if isinstance(b["m"], str) else b["m"]
        x = homoclinic.group_element(A, [parse_element(t, A.d) for t in mspec])
        blocks.append(independence.ShadowBlock(window, x))
    req = independence.ShadowRequest(blocks, eps, cfg.get("periodic"))
    res = independence.shadow(A, req)
    passed = all(e <= eps for e in res.block_errors)
    inv = blocks[0].point.inverse if blocks else _first_point(A).inverse
    return {
        "input": {"config": path},
        "certificate_chain": _certificate_chain(inv),
        "result": res.to_obj(),
        "all_blocks_within_eps": passed,
    }, OK


def run_duality(args: argparse.Namespace) -> tuple[dict, int]:
    A, src = _input_matrix(args)
    _, chain = _det_chain(A)
    rep = entropy.duality_check(A, args.grid)  # reuses the elimination of A, adds that of A*
    return {"input": src, "certificate_chain": chain, "report": rep.to_obj()}, OK


def run_freegroup_check(args: argparse.Namespace) -> tuple[dict, int]:
    rep = freegroup.verify_annihilator(args.rank, args.order, args.radius)
    return {"report": rep.to_obj()}, OK


_HANDLERS = {
    "expansive": run_expansive,
    "entropy": run_entropy,
    "homoclinic": run_homoclinic,
    "ie": run_ie,
    "shadow": run_shadow,
    "duality": run_duality,
    "freegroup-check": run_freegroup_check,
}


# the JSON values a stage argument may take, by the kind of its option
_STAGE_VALUES = {
    "flag": ("true, false or null", lambda v: v is None or type(v) is bool),
    str: ("a string", lambda v: type(v) is str),
    int: ("an integer", lambda v: type(v) is int),
    float: ("a number", lambda v: type(v) in (int, float)),
}


def _stage_argv(name: str, params: dict) -> list[str]:
    """A pipeline stage's args as the argv of its subcommand: --key=value (a
    polynomial may start with '-'), a bare flag for true, nothing for
    false or null.  A value must have the JSON type of its option (a bool
    is not a number); an unknown key is left to the parser to refuse."""
    options = _build_parser().stage_options[name]
    argv = [name]
    for key, val in params.items():
        opt = options.get(key.replace("-", "_"))
        if opt is not None:
            what, ok = _STAGE_VALUES["flag" if opt.nargs == 0 else getattr(opt.type, "kind", str)]
            if not ok(val):
                raise ValueError(f"stage argument {key!r} must be {what}, got {val!r}")
        flag = "--" + key.replace("_", "-")
        if val is True:
            argv.append(flag)
        elif val is not False and val is not None:
            argv.append(f"{flag}={val}")
    return argv


def run_pipeline(args: argparse.Namespace) -> tuple[dict, int]:
    path = args.config
    with open(path) as fh:
        stages = json.load(fh)
    if not (isinstance(stages, list) and all(isinstance(s, dict) and isinstance(s.get("args", {}), dict) for s in stages)):
        raise ValueError('a pipeline config is a list of stages {"command": name, "args": {...}}')
    parser = _build_parser()
    report = {"stages": []}
    for stage in stages:
        name = stage.get("command")
        if name not in _HANDLERS:
            report["stages"].append({"command": name, "error": f"unknown stage {name!r}"})
            return report, ERROR
        try:
            stage_args = parser.parse_args(_stage_argv(name, stage.get("args", {})))
            out, status = _HANDLERS[name](stage_args)
        except Exception as exc:  # first failure aborts with partial report
            report["stages"].append({"command": name, "error": str(exc)})
            return report, ERROR
        report["stages"].append({"command": name, "status": status, "report": out})
        if status == ERROR:
            return report, ERROR
    return report, OK


def _emit(report: dict, args) -> None:
    fmt = args.format
    if fmt == "csv":  # main allows it only for the Peters series
        lines = ["n,count,log,diff"]
        prev = None
        for row in report["estimate"]["series"]:
            diff = "" if prev is None else repr(row["log"] - prev)
            lines.append(f"{row['n']},{row['count']},{row['log']},{diff}")
            prev = row["log"]
        text = "\n".join(lines) + "\n"
    elif fmt == "pretty":
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    else:
        text = json.dumps(report, sort_keys=True) + "\n"
    if args.out:
        # An existing regular file is overwritten in place and cut after the
        # report: truncating it on open, or renaming a new file over it,
        # makes ext4 (auto_da_alloc) flush it, about 45 ms per report.
        fd = os.open(args.out, os.O_WRONLY | os.O_CREAT, 0o666)
        with open(fd, "w") as fh:
            fh.write(text)
            if stat.S_ISREG(os.fstat(fd).st_mode):
                fh.truncate()
    else:
        sys.stdout.write(text)


def _checked(kind, ok, what: str):
    """argparse type: kind(text), refused unless ok(value)."""

    def check(text: str):
        try:
            v = kind(text)
            if ok(v):
                return v
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")

    check.kind = kind
    return check


_nonneg_int = _checked(int, lambda v: v >= 0, "an integer >= 0")
_pos_int = _checked(int, lambda v: v >= 1, "an integer >= 1")
_int_from_2 = _checked(int, lambda v: v >= 2, "an integer >= 2")
_pos_float = _checked(float, lambda v: 0 < v < math.inf, "a finite number > 0")


class _ArgumentParser(argparse.ArgumentParser):
    """Raises ValueError on bad arguments instead of exiting, so that a
    pipeline stage reports them as a stage error."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use: parse_args leaves
    it unchanged and every default is an immutable scalar, so main and
    pipeline stages share it."""
    p = _ArgumentParser(
        prog="algdyn",
        description="Certified computations for algebraic Z^d shift actions",
    )
    p.add_argument("--version", action="version", version=f"algdyn {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def add_io(sp):
        sp.add_argument("--poly", help="inline polynomial, e.g. '3 - u1 - u1^-1'")
        sp.add_argument("--matrix", help="path to a JSON matrix file")
        sp.add_argument("--out", help="write the report to this path")
        sp.add_argument("--format", choices=["json", "csv", "pretty"], default="json")

    sp = sub.add_parser("expansive", help="expansiveness verdict with certificate")
    add_io(sp)
    sp.add_argument("--grid", type=_pos_int)
    sp.add_argument("--check-entropy", action="store_true", dest="check_entropy")

    sp = sub.add_parser("entropy", help="entropy by mahler, peters, or packing")
    add_io(sp)
    sp.add_argument("--method", choices=["mahler", "peters", "packing"], required=True)
    sp.add_argument("--grid", type=_pos_int)
    sp.add_argument("--nmax", type=_int_from_2, default=30)  # the estimate needs two terms
    sp.add_argument("--window", type=_nonneg_int, default=20)
    sp.add_argument("--eps", type=_pos_float)
    sp.add_argument("--levels", type=_pos_int, default=2)

    sp = sub.add_parser("homoclinic", help="fundamental homoclinic point and certificates")
    add_io(sp)
    sp.add_argument("--element", help="group-ring vector m (';'-separated components)")
    sp.add_argument("--tol", type=_pos_float, default=1e-10)
    sp.add_argument("--radius", type=_nonneg_int, default=40,
                    help="cap on the max-norm radius of the truncated inverse; the float seed's tail picks the radius")

    sp = sub.add_parser("ie", help="independence witnesses over a window")
    add_io(sp)
    sp.add_argument("--eps", type=_pos_float, required=True)
    sp.add_argument("--window", type=_nonneg_int, default=60)
    sp.add_argument("--cap", type=_pos_int, default=4096)
    sp.add_argument("--seed", type=_nonneg_int, default=0)

    sp = sub.add_parser("shadow", help="trace homoclinic blocks by one point")
    sp.add_argument("--config", required=True, help="JSON block description")
    sp.add_argument("--out")
    sp.add_argument("--format", choices=["json", "pretty"], default="json")

    sp = sub.add_parser("duality", help="entropy of a presentation vs its involution")
    add_io(sp)
    sp.add_argument("--grid", type=_pos_int)

    sp = sub.add_parser("freegroup-check", help="free-group annihilator identity")
    sp.add_argument("--rank", type=_int_from_2, required=True)
    sp.add_argument("--order", type=_nonneg_int, required=True)
    sp.add_argument("--radius", type=_nonneg_int, required=True)
    sp.add_argument("--out")
    sp.add_argument("--format", choices=["json", "pretty"], default="json")

    sp = sub.add_parser("pipeline", help="run a list of stages from a config file")
    sp.add_argument("--config", required=True)
    sp.add_argument("--out")
    sp.add_argument("--format", choices=["json", "pretty"], default="json")

    p.stage_options = {name: {a.dest: a for a in sp._actions} for name, sp in sub.choices.items()}
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except ValueError as exc:  # usage errors exit 1; 2 is reserved for Unknown verdicts
        print(f"error: {exc}", file=sys.stderr)
        return ERROR
    name = args.command
    handler = _HANDLERS.get(name) if name != "pipeline" else run_pipeline
    params = {
        k: v for k, v in vars(args).items()
        if k not in ("command", "out", "format") and v is not None
    }
    try:
        if args.format == "csv" and not (name == "entropy" and args.method == "peters"):
            raise ValueError("--format csv needs a series; only entropy --method peters has one")
        report, status = handler(args)
        _emit({"command": name, "parameters": params, **report}, args)
    except (OSError, ValueError, KeyError, CapExceeded,
            torus.NotInvertibleError, torus.MemoryCapError, torus.VerificationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ERROR
    return status


if __name__ == "__main__":
    raise SystemExit(main())
