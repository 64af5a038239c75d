"""Command-line front end.

Exit codes: 0 success/feasible/holds, 3 infeasible/refuted, 4 tolerance
exceeded, 1 usage or I/O error, 2 internal solver failure.  Reports are
deterministic for a fixed command line (seeds included), human-readable by
default and machine JSON with --json.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import io
from .core import SignedStepKernel, StepGraphon, edge_density, int_f
from .errors import ScalingDiverged, SolverFailure, StepGraphonError
from .measures import DiscreteMeasure, check_flatter
from .metrics import cut_distance, cut_norm, weak_star_distance
from .multiway import MultiwayMatrixSet, multiway_hausdorff, sample_multiway_set
from .named import NAMED, build_named_graphon
from .order import chi_estimate, order_check, sample_envelope
from .scenarios import SCENARIOS, reproduce

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SOLVER = 2
EXIT_REFUTED = 3
EXIT_TOLERANCE = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise StepGraphonError(message)


def _fmt(value, depth=0):
    pad = "  " * depth
    if isinstance(value, dict):
        lines = []
        for key in sorted(value):
            item = value[key]
            if isinstance(item, (dict, list)):
                lines.append(f"{pad}{key}:")
                lines.append(_fmt(item, depth + 1))
            else:
                lines.append(f"{pad}{key}: {_scalar(item)}")
        return "\n".join(lines)
    if isinstance(value, list):
        lines = []
        for item in value:
            if isinstance(item, (dict, list)):
                lines.append(f"{pad}-")
                lines.append(_fmt(item, depth + 1))
            else:
                lines.append(f"{pad}- {_scalar(item)}")
        return "\n".join(lines)
    return f"{pad}{_scalar(value)}"


def _scalar(x):
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _emit(args, report, obj=None):
    if getattr(args, "out", None) and obj is not None:
        io.save(obj, args.out)
    if getattr(args, "json", False):
        print(json.dumps(report, sort_keys=True))
    else:
        print(_fmt(report))


def _budget(text):
    if not text:
        return None
    try:
        cfg = json.loads(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not JSON: {exc}")
    if not isinstance(cfg, dict):
        raise argparse.ArgumentTypeError("budget must be a JSON object")
    return cfg


def _masses(text):
    try:
        return [float(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not comma-separated numbers: {text!r}")


def _int_from(low):
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return parse


def build_parser():
    p = _Parser(prog="stepgraphon",
                description="step-kernel calculus: metrics, orders, cut sets")
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="construct a named kernel")
    b.add_argument("--name", required=True, choices=NAMED)
    b.add_argument("--c", type=float, default=None, help="constant level")
    b.add_argument("--eps", type=float, default=None, help="2**-k, 3 <= k <= 10")
    b.add_argument("--out")
    b.add_argument("--json", action="store_true")

    d = sub.add_parser("density", help="edge density of a kernel")
    d.add_argument("--w", required=True)
    d.add_argument("--json", action="store_true")

    f = sub.add_parser("intf", help="integral of f(W) over the square")
    f.add_argument("--w", required=True)
    f.add_argument("--f", required=True, choices=("x2", "abs", "exp"))
    f.add_argument("--json", action="store_true")

    cn = sub.add_parser("cutnorm", help="cut norm of a signed kernel")
    cn.add_argument("--y", required=True)
    mode = cn.add_mutually_exclusive_group()
    mode.add_argument("--exact", action="store_true")
    mode.add_argument("--heuristic", action="store_true")
    cn.add_argument("--seed", type=_int_from(0), default=0)
    cn.add_argument("--out")
    cn.add_argument("--json", action="store_true")

    cd = sub.add_parser("cutdist", help="cut distance upper bound over couplings")
    cd.add_argument("--u", required=True)
    cd.add_argument("--w", required=True)
    cd.add_argument("--budget", type=_budget, default=None,
                    help='JSON, e.g. {"restarts":32,"max_iters":200,"tol":1e-9}')
    cd.add_argument("--seed", type=_int_from(0), default=0)
    cd.add_argument("--out", help="write the best coupling")
    cd.add_argument("--json", action="store_true")

    ws = sub.add_parser("wstar", help="truncated weak* distance")
    ws.add_argument("--u", required=True)
    ws.add_argument("--w", required=True)
    ws.add_argument("--depth", type=_int_from(0), required=True)
    ws.add_argument("--json", action="store_true")

    fl = sub.add_parser("flatness", help="flatness-order feasibility")
    fl.add_argument("--l1", required=True)
    fl.add_argument("--l2", required=True)
    fl.add_argument("--exact-rational", action="store_true")
    fl.add_argument("--out", help="write the witness")
    fl.add_argument("--json", action="store_true")

    o = sub.add_parser("order", help="structuredness-order probes")
    osub = o.add_subparsers(dest="order_command", required=True)
    oc = osub.add_parser("check", help="necessary conditions for u below w")
    oc.add_argument("--u", required=True)
    oc.add_argument("--w", required=True)
    oc.add_argument("--json", action="store_true")
    oe = osub.add_parser("envelope", help="sampled envelope signatures")
    oe.add_argument("--w", required=True)
    oe.add_argument("--n", type=_int_from(1), required=True)
    oe.add_argument("--count", type=_int_from(0), default=500)
    oe.add_argument("--depth", type=_int_from(0), default=4)
    oe.add_argument("--seed", type=_int_from(0), default=7)
    oe.add_argument("--out")
    oe.add_argument("--json", action="store_true")
    och = osub.add_parser("chi", help="hyperspace distance estimate")
    och.add_argument("--u", required=True)
    och.add_argument("--w", required=True)
    och.add_argument("--n", type=_int_from(1), required=True)
    och.add_argument("--count", type=_int_from(0), default=200)
    och.add_argument("--depth", type=_int_from(0), default=4)
    och.add_argument("--seed", type=_int_from(0), default=7)
    och.add_argument("--json", action="store_true")

    m = sub.add_parser("multiway", help="multiway cut matrix sets")
    msub = m.add_subparsers(dest="multiway_command", required=True)
    ms = msub.add_parser("sample", help="sample the cut set")
    ms.add_argument("--w", required=True)
    ms.add_argument("--a", required=True, type=_masses, help="comma-separated part masses")
    ms.add_argument("--count", type=_int_from(0), default=200)
    ms.add_argument("--seed", type=_int_from(0), default=1)
    ms.add_argument("--out")
    ms.add_argument("--json", action="store_true")
    mh = msub.add_parser("hausdorff", help="l1-Hausdorff distance of two sets")
    mh.add_argument("--su", required=True)
    mh.add_argument("--sw", required=True)
    mh.add_argument("--json", action="store_true")

    r = sub.add_parser("reproduce", help="run a worked-example scenario")
    r.add_argument("--which", required=True, choices=SCENARIOS)
    r.add_argument("--eps", type=float, default=None)
    r.add_argument("--seed", type=_int_from(0), default=0)
    r.add_argument("--json", action="store_true")

    return p


def _run(args):
    """Run the parsed command and return its exit code."""
    if args.command == "build":
        g = build_named_graphon(args.name, c=args.c, eps=args.eps)
        report = {"name": args.name, "blocks": g.k, "density": edge_density(g)}
        if not args.out:
            report["graphon"] = g.to_dict()
        _emit(args, report, obj=g)
        return EXIT_OK

    if args.command == "density":
        g = io.load(args.w, StepGraphon)
        report = {"density": edge_density(g)}
        _emit(args, report)
        return EXIT_OK

    if args.command == "intf":
        g = io.load(args.w, StepGraphon)
        funcs = {"x2": lambda x: x * x,
                 "abs": lambda x: abs(x - 0.5),
                 "exp": math.exp}
        report = {"f": args.f, "value": int_f(g, funcs[args.f])}
        _emit(args, report)
        return EXIT_OK

    if args.command == "cutnorm":
        kernel = io.load(args.y, SignedStepKernel)
        mode = "heuristic" if args.heuristic else "exact"
        res = cut_norm(kernel, mode=mode, seed=args.seed)
        report = res.to_dict()
        _emit(args, report, obj=res)
        return EXIT_OK

    if args.command == "cutdist":
        u = io.load(args.u, StepGraphon)
        w = io.load(args.w, StepGraphon)
        val, coupling = cut_distance(u, w, budget=args.budget,
                                     seed=args.seed)
        report = {"cut_distance_upper_bound": val}
        if not args.out:
            report["coupling"] = coupling.to_dict()
        _emit(args, report, obj=coupling)
        return EXIT_OK

    if args.command == "wstar":
        u = io.load(args.u, StepGraphon)
        w = io.load(args.w, StepGraphon)
        report = {"weak_star_distance": weak_star_distance(u, w, args.depth),
                  "depth": args.depth}
        _emit(args, report)
        return EXIT_OK

    if args.command == "flatness":
        l1 = io.load(args.l1, DiscreteMeasure)
        l2 = io.load(args.l2, DiscreteMeasure)
        witness = check_flatter(l1, l2, exact=args.exact_rational)
        report = witness.to_dict()
        _emit(args, report, obj=witness)
        code = EXIT_OK if witness.feasible else EXIT_REFUTED
        return code

    if args.command == "order":
        if args.order_command == "check":
            u = io.load(args.u, StepGraphon)
            w = io.load(args.w, StepGraphon)
            verdict = order_check(u, w)
            report = verdict.to_dict()
            _emit(args, report)
            code = EXIT_REFUTED if verdict.refuted else EXIT_OK
            return code
        if args.order_command == "envelope":
            w = io.load(args.w, StepGraphon)
            sample = sample_envelope(w, args.n, args.count, args.depth, args.seed)
            report = {"resolution": sample.resolution, "depth": sample.depth,
                      "count": len(sample)}
            if not args.out:
                report["signatures"] = sample.signatures.tolist()
            _emit(args, report, obj=sample)
            return EXIT_OK
        if args.order_command == "chi":
            u = io.load(args.u, StepGraphon)
            w = io.load(args.w, StepGraphon)
            val = chi_estimate(u, w, args.n, args.count, args.depth, args.seed)
            report = {"chi_estimate": val}
            _emit(args, report)
            return EXIT_OK

    if args.command == "multiway":
        if args.multiway_command == "sample":
            w = io.load(args.w, StepGraphon)
            sample = sample_multiway_set(w, args.a, args.count, args.seed)
            report = {"a": sample.a.tolist(), "count": len(sample)}
            if not args.out:
                report["matrices"] = [m.tolist() for m in sample.matrices]
            _emit(args, report, obj=sample)
            return EXIT_OK
        if args.multiway_command == "hausdorff":
            su = io.load(args.su, MultiwayMatrixSet)
            sw = io.load(args.sw, MultiwayMatrixSet)
            report = {"hausdorff": multiway_hausdorff(su, sw)}
            _emit(args, report)
            return EXIT_OK

    if args.command == "reproduce":
        passed, report = reproduce(args.which, eps=args.eps, seed=args.seed)
        report["passed"] = passed
        _emit(args, report)
        return EXIT_OK if passed else EXIT_TOLERANCE

    raise StepGraphonError(f"unhandled command {args.command!r}")


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _run(args)
    except (SolverFailure, ScalingDiverged) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except StepGraphonError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
