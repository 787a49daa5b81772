"""Command-line front end: load models and morphism files, run the
decision procedure, print convolution tables and motive accounting,
emit deterministic JSON reports.

Reports are byte-identical for identical inputs and version: keys are
sorted, enumeration orders are fixed, rationals appear as [num, den]
integer pairs, and wall-clock timing is only embedded on request.
"""

import argparse
import functools
import hashlib
import json
import sys
import time
from fractions import Fraction as Rat

from . import __version__
from .cmlat import (
    endo_from_jsonable,
    endo_to_jsonable,
    endo_zero,
    exponent,
    is_integral,
    model_from_dict,
    model_to_dict,
    proper_nonempty_subsets,
    rat_to_jsonable,
)
from .corr import build_grids, conv
from .decomp import (
    EXHAUSTIVE,
    INDECOMPOSABLE,
    PROOFTRACE,
    decide,
    probes_for,
    verdict_to_dict,
)
from .errors import HypothesisError, InvalidInput, MotivixError, UnsupportedQuery
from .fermat import (
    DECLARED_EXPONENTS,
    build_c6_instance,
    c6_generator_morphisms,
    canonical_form,
    degree,
    per_morphism,
    pullback,
    rep_membership,
)
from .motcalc import (
    blowup_rows,
    ck_curve,
    ck_surface,
    cubic_rationality_ledger,
    hypersurface_ck,
    product_of_curves,
)


def _load_json(path):
    """(value, digest): the JSON value of the file at path and its inputs
    entry, both from one read of its bytes, so the sha256 names the bytes
    that were parsed. The text parsed is what a UTF-8 reader in universal
    newlines mode sees."""
    with open(path, "rb") as fh:
        data = fh.read()
    digest = {"file": str(path), "sha256": hashlib.sha256(data).hexdigest()}
    try:
        text = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
        return json.loads(text), digest
    except json.JSONDecodeError as exc:
        raise InvalidInput("%s is not valid JSON: %s" % (path, exc)) from None
    except (RecursionError, ValueError) as exc:
        # nesting past the recursion limit, an integer past the digit
        # limit, or bytes that are not UTF-8
        raise InvalidInput("%s cannot be read as JSON: %s" % (path, exc)) from None


def _load_model(path):
    """(model, digest) of the model file at path."""
    data, digest = _load_json(path)
    return model_from_dict(data), digest


def _report(args, inputs, results):
    return {
        "version": __version__,
        "command": args.command_echo,
        "inputs": inputs,
        "results": results,
    }


def _emit(report, args):
    text = json.dumps(report, indent=1, sort_keys=True)
    print(text)
    out = getattr(args, "json_out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _apply_trace(verdict_dict, level):
    if level == "full":
        return verdict_dict
    out = dict(verdict_dict)
    if level == "none":
        out.pop("steps", None)
        return out
    out["steps"] = [
        {k: v for k, v in step.items() if k != "query"}
        for step in out.get("steps", ())
    ]
    return out


# ---------------------------------------------------------------------------
# subcommands


def cmd_decide(args):
    model, digest = _load_model(args.model)
    mode = EXHAUSTIVE if args.mode == "exhaustive" else PROOFTRACE
    t0 = time.perf_counter()
    verdict = decide(model, mode)
    results = _apply_trace(verdict_to_dict(verdict), args.trace)
    if args.timing:
        results["timing_seconds"] = round(time.perf_counter() - t0, 3)
    code = 0 if verdict.status == INDECOMPOSABLE else 2
    return _report(args, [digest], results), code


# the conv-table report grows as g^5: 1.4 MB in 0.4 s at g = 6, and
# 18 MB in 8 s at g = 10, on a 2-vCPU host
CONV_TABLE_MAX_G = 6


def cmd_conv_table(args):
    model, digest = _load_model(args.model)
    if model.g > CONV_TABLE_MAX_G:
        raise InvalidInput("conv-table is bounded to g <= %d" % CONV_TABLE_MAX_G)
    grids = build_grids(model)
    probes = probes_for(model)
    zero = endo_zero(model)
    kinds = (("theta", grids.theta), ("a1", grids.a1), ("a2", grids.a2))

    def row(probe):
        cells = {}
        for kind, grid in kinds:
            hits = []
            for i in range(model.g):
                for j in range(model.g):
                    val = conv(probe.endo, grid[i][j])
                    if val != zero:
                        hits.append([i + 1, j + 1, endo_to_jsonable(val)])
            cells[kind] = hits
        return {"probe": probe.name, "nonzero": cells}

    table = [row(probe) for probe in probes]
    results = {
        "g": model.g,
        "mode": model.mode.lower(),
        "probe_count": len(probes),
        "table": table,
    }
    return _report(args, [digest], results), 0


def cmd_motive(args):
    if args.shape == "curve":
        expr = ck_curve(args.g)
        results = {
            "shape": "curve",
            "g": args.g,
            "dims": list(expr.dims()),
            "total_dim": expr.total_dim(),
        }
    elif args.shape == "surface":
        expr = ck_surface(args.b2, args.rho, args.q)
        results = {
            "shape": "surface",
            "b2": args.b2,
            "rho": args.rho,
            "q": args.q,
            "dims": list(expr.dims()),
            "dim_m2_tr": args.b2 - args.rho,
            "dim_m2_alg": args.rho,
        }
    elif args.shape == "product":
        expr, rep = product_of_curves(args.g, elliptically_split=args.split)
        results = {"shape": "product", **rep}
    elif args.shape == "hypersurface":
        ring = hypersurface_ck(args.n, args.d)
        results = {
            "shape": "hypersurface",
            "n": args.n,
            "d": args.d,
            "off_middle_weights": [2 * j for j in ring.off_middle_indices()],
            "projector_coefficient": rat_to_jsonable(Rat(1, args.d)),
            "middle_dim": ring.middle_dim(),
            "prim_middle_dim": ring.prim_middle_dim(),
            "verified": True,
        }
    elif args.shape == "blowup":
        genera = _parse_int_list(args.curves)
        triples = _parse_triples(args.surfaces)
        results = {
            "shape": "blowup",
            "points": args.points,
            "curve_genera": genera,
            "surfaces": [list(t) for t in triples],
            "rows": blowup_rows(triples, genera, args.points),
        }
        if args.ledger:
            results["ledger"] = cubic_rationality_ledger(triples, genera, args.points)
    else:
        raise InvalidInput("unknown motive shape %r" % args.shape)
    return _report(args, [], results), 0


def _parse_int_list(text):
    if not text:
        return []
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError:
        raise InvalidInput("expected a comma-separated integer list, got %r" % text)


def _parse_triples(text):
    if not text:
        return []
    out = []
    for chunk in text.split(";"):
        parts = _parse_int_list(chunk)
        if len(parts) != 3:
            raise InvalidInput("surface triple %r is not b2,rho,q" % chunk)
        out.append(tuple(parts))
    return out


def cmd_fermat(args):
    if args.what == "pullback":
        phis = c6_generator_morphisms()
        if args.phi not in (1, 2, 3):
            raise InvalidInput("--phi must be 1, 2 or 3")
        phi = phis[args.phi - 1]
        form = pullback(phi, canonical_form(phi.target))
        results = {
            "phi": args.phi,
            "coefficient": repr(form.poly),
            "display": repr(form),
            "class": rep_membership(form),
        }
    elif args.what == "degrees":
        computed = per_morphism(*map(degree, c6_generator_morphisms()))
        declared = list(DECLARED_EXPONENTS)
        results = {
            "computed": computed,
            "declared": declared,
            "match": computed == declared,
        }
    elif args.what == "instance":
        inst = build_c6_instance(check_degrees=not args.skip_degrees)
        results = dict(inst.report)
        if args.emit_model:
            payload = json.dumps(
                model_to_dict(inst.model), indent=1, sort_keys=True
            )
            with open(args.emit_model, "w", encoding="utf-8") as fh:
                fh.write(payload + "\n")
            results["model_written"] = str(args.emit_model)
        if args.decide:
            verdict = decide(inst.model, PROOFTRACE)
            results["verdict"] = _apply_trace(
                verdict_to_dict(verdict), args.trace
            )
            code = 0 if verdict.status == INDECOMPOSABLE else 2
            return _report(args, [], results), code
    else:
        raise InvalidInput("unknown fermat subcommand %r" % args.what)
    return _report(args, [], results), 0


def _parse_subset(text, g):
    try:
        atoms = [int(tok) for tok in text.split(",")]
    except ValueError:
        raise InvalidInput("subset must be comma-separated 1-based indices")
    if any(i < 1 or i > g for i in atoms):
        raise InvalidInput("subset indices must lie in 1..%d" % g)
    return frozenset(i - 1 for i in atoms)


def cmd_av(args):
    model, digest = _load_model(args.model)
    if args.query == "exponents":
        if args.subset:
            subsets = [
                _parse_subset(chunk, model.g) for chunk in args.subset.split(";")
            ]
        else:
            if model.g > 12:
                raise InvalidInput(
                    "full exponent scan is capped at g = 12; pass --subset"
                )
            subsets = proper_nonempty_subsets(model.g)
        entries = []
        for K in subsets:
            item = {"subset": sorted(i + 1 for i in K)}
            try:
                item["exponent"] = exponent(model, K)
            except UnsupportedQuery as exc:
                item["exponent"] = None
                item["note"] = str(exc)
            entries.append(item)
        results = {"g": model.g, "mode": model.mode.lower(), "exponents": entries}
    elif args.query == "integrality":
        payload, endo_digest = _load_json(args.endo)
        x = endo_from_jsonable(payload, model)
        results = {
            "g": model.g,
            "mode": model.mode.lower(),
            "endo": endo_to_jsonable(x),
            "integral": bool(is_integral(model, x)),
        }
        return _report(args, [digest, endo_digest], results), 0
    else:
        raise InvalidInput("unknown av query %r" % args.query)
    return _report(args, [digest], results), 0


# ---------------------------------------------------------------------------
# parser wiring


@functools.cache
def build_parser():
    """The argument parser, built on the first call and shared after.

    parse_args returns a fresh Namespace per call, so one parser serves
    every main call of the process. It is not built at import."""
    parser = argparse.ArgumentParser(
        prog="motivix",
        description="Decide integral indecomposability of product-surface "
        "transcendental motives and audit the supporting computations.",
    )
    parser.add_argument("--json", dest="json_out", metavar="PATH",
                        help="also write the JSON report to PATH")
    parser.add_argument("--timing", action="store_true",
                        help="embed wall-clock timing (breaks byte-identity)")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("decide", help="run the decision procedure on a model file")
    p.add_argument("model")
    p.add_argument("--mode", choices=("exhaustive", "prooftrace"),
                   default="prooftrace")
    p.add_argument("--trace", choices=("none", "steps", "full"), default="steps")
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("conv-table", help="print probe convolution tables")
    p.add_argument("model")
    p.set_defaults(func=cmd_conv_table)

    p = sub.add_parser("motive", help="dimension accounting for motives")
    shapes = p.add_subparsers(dest="shape", required=True)
    s = shapes.add_parser("curve")
    s.add_argument("--g", type=int, required=True)
    s = shapes.add_parser("surface")
    s.add_argument("--b2", type=int, required=True)
    s.add_argument("--rho", type=int, required=True)
    s.add_argument("--q", type=int, default=0)
    s = shapes.add_parser("product")
    s.add_argument("--g", type=int, required=True)
    s.add_argument("--split", action="store_true",
                   help="factors pairwise isogenous CM elliptic curves")
    s = shapes.add_parser("hypersurface")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--d", type=int, required=True)
    s = shapes.add_parser("blowup")
    s.add_argument("--points", type=int, default=0)
    s.add_argument("--curves", default="", help="comma-separated genera")
    s.add_argument("--surfaces", default="",
                   help="semicolon-separated b2,rho,q triples")
    s.add_argument("--ledger", action="store_true",
                   help="append the rationality bookkeeping table")
    p.set_defaults(func=cmd_motive)

    p = sub.add_parser("fermat", help="the explicit genus-10 instance")
    what = p.add_subparsers(dest="what", required=True)
    s = what.add_parser("pullback")
    s.add_argument("--phi", type=int, required=True)
    s = what.add_parser("degrees")
    s = what.add_parser("instance")
    s.add_argument("--decide", action="store_true")
    s.add_argument("--skip-degrees", action="store_true")
    s.add_argument("--emit-model", metavar="PATH")
    s.add_argument("--trace", choices=("none", "steps", "full"), default="steps")
    p.set_defaults(func=cmd_fermat)

    p = sub.add_parser("av", help="exponent and integrality queries")
    queries = p.add_subparsers(dest="query", required=True)
    s = queries.add_parser("exponents")
    s.add_argument("model")
    s.add_argument("--subset", default="",
                   help="semicolon-separated, comma-joined 1-based subsets")
    s = queries.add_parser("integrality")
    s.add_argument("model")
    s.add_argument("--endo", required=True, metavar="PATH",
                   help="JSON matrix of [[an,ad],[bn,bd]] entries")
    p.set_defaults(func=cmd_av)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    args.command_echo = list(argv) if argv is not None else sys.argv[1:]
    try:
        report, code = args.func(args)
    except (MotivixError, OSError) as exc:
        error = {"kind": type(exc).__name__, "message": str(exc)}
        _emit({"version": __version__, "command": args.command_echo, "error": error}, args)
        return 3 if isinstance(exc, HypothesisError) else 1
    _emit(report, args)
    return code


if __name__ == "__main__":
    sys.exit(main())
