"""Command-line front end.

Exit codes: 0 success/feasible/holds, 3 infeasible/refuted, 4 tolerance
exceeded, 1 usage or I/O error, 2 internal solver failure.  Reports are
deterministic for a fixed command line (seeds included), human-readable by
default and machine JSON with --json.
"""

from __future__ import annotations

import argparse
import contextlib
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
    """Indented text: dict keys sorted, each followed by ':'; list items after '-'."""
    pad = "  " * depth
    if isinstance(value, dict):
        rows = [(f"{key}:", value[key]) for key in sorted(value)]
    elif isinstance(value, list):
        rows = [("-", item) for item in value]
    else:
        return f"{pad}{_scalar(value)}"
    lines = []
    for label, item in rows:
        if isinstance(item, (dict, list)):
            lines += [pad + label, _fmt(item, depth + 1)]
        else:
            lines.append(f"{pad}{label} {_scalar(item)}")
    return "\n".join(lines)


def _scalar(x):
    if isinstance(x, float):
        return repr(x)
    return str(x)


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


_INTF = {"x2": lambda x: x * x, "abs": lambda x: abs(x - 0.5), "exp": math.exp}


def _graphon(path):
    """io.load(path, StepGraphon), refusing a signed kernel.

    io.load reads a file flagged "signed" as a SignedStepKernel; graphon
    commands need values in [0, 1], so they raise StepGraphonError instead.
    """
    g = io.load(path, StepGraphon)
    if isinstance(g, SignedStepKernel):
        raise StepGraphonError(f"{path} holds a signed kernel, not a graphon")
    return g


def _build(args):
    g = build_named_graphon(args.name, c=args.c, eps=args.eps)
    report = {"name": args.name, "blocks": g.k, "density": edge_density(g)}
    if not args.out:
        report["graphon"] = g.to_dict()
    return report, g, EXIT_OK


def _density(args):
    return {"density": edge_density(_graphon(args.w))}, None, EXIT_OK


def _intf(args):
    value = int_f(_graphon(args.w), _INTF[args.f])
    return {"f": args.f, "value": value}, None, EXIT_OK


def _cutnorm(args):
    kernel = io.load(args.y, SignedStepKernel)
    res = cut_norm(kernel, mode="heuristic" if args.heuristic else "exact", seed=args.seed)
    return res.to_dict(), res, EXIT_OK


def _cutdist(args):
    u, w = _graphon(args.u), _graphon(args.w)
    val, coupling = cut_distance(u, w, budget=args.budget, seed=args.seed)
    report = {"cut_distance_upper_bound": val}
    if not args.out:
        report["coupling"] = coupling.to_dict()
    return report, coupling, EXIT_OK


def _wstar(args):
    u, w = _graphon(args.u), _graphon(args.w)
    report = {"weak_star_distance": weak_star_distance(u, w, args.depth), "depth": args.depth}
    return report, None, EXIT_OK


def _flatness(args):
    l1, l2 = io.load(args.l1, DiscreteMeasure), io.load(args.l2, DiscreteMeasure)
    witness = check_flatter(l1, l2, exact=args.exact_rational)
    return witness.to_dict(), witness, EXIT_OK if witness.feasible else EXIT_REFUTED


def _order_check(args):
    verdict = order_check(_graphon(args.u), _graphon(args.w))
    return verdict.to_dict(), None, EXIT_REFUTED if verdict.refuted else EXIT_OK


def _order_envelope(args):
    w = _graphon(args.w)
    sample = sample_envelope(w, args.n, args.count, args.depth, args.seed)
    report = {"resolution": sample.resolution, "depth": sample.depth, "count": len(sample)}
    if not args.out:
        report["signatures"] = sample.signatures.tolist()
    return report, sample, EXIT_OK


def _order_chi(args):
    u, w = _graphon(args.u), _graphon(args.w)
    val = chi_estimate(u, w, args.n, args.count, args.depth, args.seed)
    return {"chi_estimate": val}, None, EXIT_OK


def _multiway_sample(args):
    sample = sample_multiway_set(_graphon(args.w), args.a, args.count, args.seed)
    report = {"a": sample.a.tolist(), "count": len(sample)}
    if not args.out:
        report["matrices"] = [m.tolist() for m in sample.matrices]
    return report, sample, EXIT_OK


def _multiway_hausdorff(args):
    su, sw = io.load(args.su, MultiwayMatrixSet), io.load(args.sw, MultiwayMatrixSet)
    return {"hausdorff": multiway_hausdorff(su, sw)}, None, EXIT_OK


def _reproduce(args):
    passed, report = reproduce(args.which, eps=args.eps, seed=args.seed)
    report["passed"] = passed
    return report, None, EXIT_OK if passed else EXIT_TOLERANCE


def build_parser():
    """The parser; every leaf command sets `run` to its handler."""

    @contextlib.contextmanager
    def leaf(parent, name, help, run):
        """Add a leaf command; --json follows its own options, last in its usage line."""
        cmd = parent.add_parser(name, help=help)
        yield cmd
        cmd.add_argument("--json", action="store_true")
        cmd.set_defaults(run=run)

    p = _Parser(prog="stepgraphon",
                description="step-kernel calculus: metrics, orders, cut sets")
    sub = p.add_subparsers(dest="command", required=True)

    with leaf(sub, "build", "construct a named kernel", _build) as b:
        b.add_argument("--name", required=True, choices=NAMED)
        b.add_argument("--c", type=float, default=None, help="constant level")
        b.add_argument("--eps", type=float, default=None, help="2**-k, 3 <= k <= 10")
        b.add_argument("--out")

    with leaf(sub, "density", "edge density of a kernel", _density) as d:
        d.add_argument("--w", required=True)

    with leaf(sub, "intf", "integral of f(W) over the square", _intf) as f:
        f.add_argument("--w", required=True)
        f.add_argument("--f", required=True, choices=_INTF)

    with leaf(sub, "cutnorm", "cut norm of a signed kernel", _cutnorm) as cn:
        cn.add_argument("--y", required=True)
        mode = cn.add_mutually_exclusive_group()
        mode.add_argument("--exact", action="store_true")
        mode.add_argument("--heuristic", action="store_true")
        cn.add_argument("--seed", type=_int_from(0), default=0)
        cn.add_argument("--out")

    with leaf(sub, "cutdist", "cut distance upper bound over couplings", _cutdist) as cd:
        cd.add_argument("--u", required=True)
        cd.add_argument("--w", required=True)
        cd.add_argument("--budget", type=_budget, default=None,
                        help='JSON, e.g. {"restarts":32,"max_iters":200,"tol":1e-9}')
        cd.add_argument("--seed", type=_int_from(0), default=0)
        cd.add_argument("--out", help="write the best coupling")

    with leaf(sub, "wstar", "truncated weak* distance", _wstar) as ws:
        ws.add_argument("--u", required=True)
        ws.add_argument("--w", required=True)
        ws.add_argument("--depth", type=_int_from(0), required=True)

    with leaf(sub, "flatness", "flatness-order feasibility", _flatness) as fl:
        fl.add_argument("--l1", required=True)
        fl.add_argument("--l2", required=True)
        fl.add_argument("--exact-rational", action="store_true",
                        help="decide the inputs' exact binary expansions (no LP); "
                             "measures computed in floats, such as averages or "
                             "frequency measures of a stepping, need the float route")
        fl.add_argument("--out", help="write the witness")

    osub = sub.add_parser("order", help="structuredness-order probes").add_subparsers(
        dest="order_command", required=True)
    with leaf(osub, "check", "necessary conditions for u below w", _order_check) as oc:
        oc.add_argument("--u", required=True)
        oc.add_argument("--w", required=True)
    with leaf(osub, "envelope", "sampled envelope signatures", _order_envelope) as oe:
        oe.add_argument("--w", required=True)
        oe.add_argument("--n", type=_int_from(1), required=True)
        oe.add_argument("--count", type=_int_from(0), default=500)
        oe.add_argument("--depth", type=_int_from(0), default=4)
        oe.add_argument("--seed", type=_int_from(0), default=7)
        oe.add_argument("--out")
    with leaf(osub, "chi", "hyperspace distance estimate", _order_chi) as och:
        och.add_argument("--u", required=True)
        och.add_argument("--w", required=True)
        och.add_argument("--n", type=_int_from(1), required=True)
        och.add_argument("--count", type=_int_from(0), default=200)
        och.add_argument("--depth", type=_int_from(0), default=4)
        och.add_argument("--seed", type=_int_from(0), default=7)

    msub = sub.add_parser("multiway", help="multiway cut matrix sets").add_subparsers(
        dest="multiway_command", required=True)
    with leaf(msub, "sample", "sample the cut set", _multiway_sample) as ms:
        ms.add_argument("--w", required=True)
        ms.add_argument("--a", required=True, type=_masses, help="comma-separated part masses")
        ms.add_argument("--count", type=_int_from(0), default=200)
        ms.add_argument("--seed", type=_int_from(0), default=1)
        ms.add_argument("--out")
    with leaf(msub, "hausdorff", "l1-Hausdorff distance of two sets", _multiway_hausdorff) as mh:
        mh.add_argument("--su", required=True)
        mh.add_argument("--sw", required=True)

    with leaf(sub, "reproduce", "run a worked-example scenario", _reproduce) as r:
        r.add_argument("--which", required=True, choices=SCENARIOS)
        r.add_argument("--eps", type=float, default=None)
        r.add_argument("--seed", type=_int_from(0), default=0)

    return p


def main(argv=None):
    """Run one command and return its exit code.

    A handler returns (report, obj, exit code); main saves obj to --out,
    then prints the report as JSON with --json or as indented text.
    """
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        report, obj, code = args.run(args)
        if getattr(args, "out", None):
            io.save(obj, args.out)
        print(json.dumps(report, sort_keys=True) if args.json else _fmt(report))
        return code
    except (SolverFailure, ScalingDiverged) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except StepGraphonError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
