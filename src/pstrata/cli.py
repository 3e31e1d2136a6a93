"""Command line front end.

Verbs: series, stratify, hdim, spectrum, catalog.  Instances come either
from the built-in catalog (--catalog NAME, with "random" drawing a seeded
instance) or from a JSON file (--input).  Reports go to stdout or --out,
as JSON (default) or CSV.

Exit codes: 0 success, 2 precision exhausted (or a usage error), 3
invalid input, 4 domain failure (no period within the bound, rejected frame,
out-of-range rates, enumeration too large).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import random
import sys
from fractions import Fraction

from . import __version__
from .catalog import catalog_names, get_bundle, random_block_action, random_sizes
from .errors import (
    InvalidShape,
    NoStableFit,
    NotContained,
    NotInvariant,
    PrecisionExhausted,
    PstrataError,
    RankDeficient,
)
from .gmodule import GroupAction, lower_p_series, restrict_action
from .hausdorff import SubgroupSpec, dimension_report, spectrum
from .lattice import Lattice
from .padic import _freeze, _integer, mat_mul
from .strata import run_stratification

_EXIT_PRECISION = 2
_EXIT_INPUT = 3
_EXIT_DOMAIN = 4

_INPUT_ERRORS = (
    NotContained,
    NotInvariant,
    InvalidShape,
    RankDeficient,
    ValueError,
    KeyError,
    OSError,
)


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="pstrata",
        description="exact lower p-series, stratifications and Hausdorff dimensions",
    )
    ap.add_argument("--version", action="version", version=f"pstrata {__version__}")
    sub = ap.add_subparsers(dest="verb", required=True)

    def common(sp, needs_instance=True):
        if needs_instance:
            src = sp.add_mutually_exclusive_group()
            src.add_argument("--catalog", help="built-in instance name, or 'random'")
            src.add_argument("--input", help="instance JSON file")
        sp.add_argument("--p", type=int, default=2, help="prime (default 2)")
        sp.add_argument("--precision", type=int, default=None, help="digits p^N (default imax+2)")
        sp.add_argument("--imax", type=int, default=64, help="series window length")
        sp.add_argument("--seed", type=int, default=0, help="seed for --catalog random")
        sp.add_argument("--format", choices=("json", "csv"), default="json")
        sp.add_argument("--out", help="output file (default stdout)")

    common(sub.add_parser("series", help="compute the lower p-series"))
    stf = sub.add_parser("stratify", help="rates, frame and certificate")
    hd = sub.add_parser("hdim", help="Hausdorff dimension of a subgroup")
    spv = sub.add_parser("spectrum", help="all straight-subgroup dimensions")
    for sp in (stf, hd, spv):  # the verbs that fit rates
        common(sp)
        sp.add_argument("--denom-bound", type=int, default=None,
                        help="bound on the profile period m (the rate denominator), "
                             "read only when some coordinate block has no period by "
                             "imax (default min(64, (imax-2)//2), at least 1)")
    hd.add_argument("--tolerance", type=float, default=0.01,
                    help="numeric agreement tolerance")
    hd.add_argument("--subgroup", required=True, help="subgroup JSON file")
    hd.add_argument("--lattice-only", action="store_true",
                    help="ignore extra weights attached to the instance")
    spv.add_argument("--lattice-only", action="store_true",
                     help="ignore extra weights attached to the instance")
    cat = sub.add_parser("catalog", help="list or export built-in instances")
    common(cat, needs_instance=False)
    cat.add_argument("--catalog", dest="catalog", default=None,
                     help="export one entry instead of listing")
    return ap


def _bundle(name: str, args, N: int):
    """A catalog entry, or the seeded random instance for name 'random'."""
    if name == "random":
        sizes = random_sizes(random.Random(args.seed))
        return random_block_action(sizes, args.seed, p=args.p, N=N)
    return get_bundle(name, p=args.p, N=N)


def _load_instance(args):
    """Returns (lattice, action, extra_weights, source_label)."""
    N = args.precision if args.precision is not None else args.imax + 2
    if N < args.imax + 2:
        raise ValueError(
            f"precision {N} is too small for imax {args.imax}; need at least imax+2"
        )
    if args.input:
        with open(args.input) as fh:
            obj = json.load(fh)
        if isinstance(obj, dict) and "instance" in obj:
            # a previously emitted report; reuse its embedded instance
            obj = obj["instance"]
        if not isinstance(obj, dict):
            raise ValueError(f"{args.input} does not hold a JSON object")
        p = _integer(obj.get("p", args.p), "p")
        n = _integer(obj.get("N", N), "N")
        if n < args.imax + 2:
            raise ValueError(
                f"instance precision {n} is too small for imax {args.imax}"
            )
        if not isinstance(obj.get("extra_weights", []), list):
            raise ValueError("extra_weights must be a JSON list")
        if "generators" not in obj:
            raise ValueError(f'{args.input} has no "generators" field')
        action = GroupAction.build(p, n, obj["generators"])
        if "lattice" in obj:
            lat = Lattice.from_rows(p, n, action.d, _freeze(obj["lattice"]))
        else:
            lat = Lattice.standard(p, n, action.d)
        try:
            extras = tuple(Fraction(str(w)) for w in obj.get("extra_weights", ()))
        except ZeroDivisionError:
            raise ValueError("an extra weight has denominator 0") from None
        return lat, action, extras, args.input
    bundle = _bundle(args.catalog or "trivial", args, N)
    return bundle.lattice, bundle.action, bundle.extra_weights, bundle.name


def _instance_block(lat: Lattice, action: GroupAction, extras) -> dict:
    """The one instance format: what --input reads, every report embeds and catalog exports."""
    return {
        "p": action.p,
        "N": action.N,
        "generators": [[list(row) for row in g] for g in action.generators],
        "lattice": [list(row) for row in lat.basis],
        "extra_weights": [str(Fraction(w)) for w in extras],
    }


def _provenance(args, source: str, action: GroupAction):
    return {
        "tool": "pstrata",
        "version": __version__,
        "source": source,
        "p": action.p,
        "N": action.N,
        "d": action.d,
        "imax": args.imax,
        "seed": args.seed,
    }


def _csv(header, rows) -> str:
    """CSV text: the header line, then one line per row."""
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def _emit(args, payload, csv_text: str | None):
    if args.format == "csv":
        text = csv_text
    else:
        text = json.dumps(payload, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _frac(f: Fraction):
    return {"fraction": f"{f.numerator}/{f.denominator}", "value": float(f)}


def _denom_bound(args) -> int:
    """--denom-bound, refused below 1, or by default min(64, (imax - 2) // 2), maybe below 1."""
    bound = args.denom_bound
    if bound is None:
        return min(64, (args.imax - 2) // 2)
    if bound < 1:
        raise ValueError(f"denominator bound {bound} is below 1")
    return bound


def _series(args):
    """(lattice, action, extra_weights, source, trace): the series runs in the lattice's basis.

    The action restricted to L (`restrict_action`) keeps N - lower_level(L) digits.
    """
    lat, action, extras, source = _load_instance(args)
    need = args.imax + 2 + lat.lower_level
    if lat.N < need:
        raise PrecisionExhausted(f"restricting to the lattice costs its lower level "
                                 f"{lat.lower_level} in digits; imax {args.imax} needs "
                                 f"precision at least {need}")
    inner = restrict_action(lat, action)
    trace = lower_p_series(Lattice.standard(inner.p, inner.N, inner.d), inner, args.imax)
    return lat, action, extras, source, trace


def _run_series(args):
    lat, action, extras, source, trace = _series(args)
    payload = {
        "provenance": _provenance(args, source, action),
        "instance": _instance_block(lat, action, extras),
        "profiles": [list(prof) for prof in trace.profiles],
        "log_indices": list(trace.log_indices),
    }
    header = ["i"] + [f"m_{k + 1}" for k in range(trace.ambient.d)] + ["log_index"]
    rows = [[i] + list(prof) + [sum(prof)] for i, prof in enumerate(trace.profiles)]
    _emit(args, payload, _csv(header, rows))
    return 0


def _envelope_check(trace, strat) -> dict:
    """Deviation of log|L : lambda_i| from floor(i*sigma) across the window.

    A certified (rates, c) pair must keep it within d*(c+1): the model term
    and lambda_i contain each other up to p^c, and the floors disagree from
    i*sigma by less than one unit per coordinate.
    """
    sig = strat.rates.sigma
    worst = 0
    for i in range(1, trace.i_max + 1):
        pred = (i * sig.numerator) // sig.denominator
        dev = abs(trace.log_indices[i] - pred)
        if dev > worst:
            worst = dev
    bound = trace.ambient.d * (strat.c + 1)
    return {"max_deviation": worst, "bound": bound, "ok": worst <= bound}


def _stratified(args):
    """(lattice, action, extra_weights, source, trace, strat, cert) of the instance.

    A default bound below 1 runs as 1: a trace whose blocks all have a
    period reads no bound, and a short one may fit with it.  Only when
    that fit finds no period is the window blamed on --imax.
    """
    bound = _denom_bound(args)
    lat, action, extras, source, trace = _series(args)
    try:
        strat, cert = run_stratification(trace, denom_bound=max(bound, 1))
    except NoStableFit:
        if bound >= 1:
            raise
        raise ValueError(f"imax {args.imax} is too short to fit a rate; "
                         f"--imax must be at least 4") from None
    return lat, action, extras, source, trace, strat, cert


def _stratify(args):
    lat, action, extras, source, trace, strat, cert = _stratified(args)
    payload = {
        "provenance": _provenance(args, source, action),
        "instance": _instance_block(lat, action, extras),
        "rates": [_frac(r) for r in strat.rates.rates],
        "sigma": _frac(strat.rates.sigma),
        "frame": mat_mul(strat.frame, lat.basis, lat.p**lat.N),  # F B, in the ambient
        "c": strat.c,
        "window": list(strat.window),
        "status": strat.status,
        "cycle": None if cert is None else {"j": cert.j, "m": cert.m, "n": cert.n},
        "envelope": _envelope_check(trace, strat),
    }
    # CSV: observed divisor exponents next to the fitted-model predictions
    d = lat.d
    header = (["i"] + [f"m_{k}" for k in range(1, d + 1)]
              + [f"pred_{k}" for k in range(1, d + 1)])
    rows = []
    for i in range(1, trace.i_max + 1):
        preds = [(i * r.numerator) // r.denominator for r in strat.rates.rates]
        rows.append([i] + list(trace.profiles[i]) + preds)
    _emit(args, payload, _csv(header, rows))
    return 0


def _load_subgroup(path: str, lat: Lattice, N: int, strat):
    """The subgroup at the series' precision N; ambient rows are solved in lat first."""
    with open(path) as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ValueError(f"{path} does not hold a JSON object")
    if "rows" not in obj:
        raise ValueError(f'{path} has no "rows" field')
    rows = _freeze(obj["rows"])
    coords = obj.get("coordinates", "ambient")
    if coords == "frame":
        return SubgroupSpec(lat.p, N, rows)
    if coords == "ambient":
        if any(len(row) != lat.d for row in rows):
            raise ValueError(f"ambient subgroup rows must have length {lat.d}")
        solved = [lat.solve(row) for row in rows]
        if None in solved:
            raise NotContained("a subgroup row does not lie in the instance's lattice")
        return SubgroupSpec.from_ambient(lat.p, N, solved, strat)
    raise ValueError(f"unknown coordinate convention {coords!r}")


def _hdim(args):
    lat, action, extras, source, trace, strat, _ = _stratified(args)
    if args.lattice_only:
        extras = ()
    H = _load_subgroup(args.subgroup, lat, trace.precision, strat)
    tol = Fraction(str(args.tolerance))
    report = dimension_report(H, trace, strat, extras, tol)
    payload = {
        "provenance": _provenance(args, source, action),
        "exact": _frac(report.exact),
        "pivots": list(report.pivots),
        "last_quotient": _frac(report.quotients[-1]),
        "strong": report.strong,
    }
    rows = [[i, q.numerator, q.denominator, float(q)]
            for i, q in enumerate(report.quotients, start=1)]
    _emit(args, payload, _csv(["i", "quotient_num", "quotient_den", "value"], rows))
    return 0


def _spectrum(args):
    _, action, extras, source, _, strat, _ = _stratified(args)
    if args.lattice_only:
        extras = ()
    values = spectrum(strat.rates, extras)
    payload = {
        "provenance": _provenance(args, source, action),
        "count": len(values),
        "values": [_frac(v) for v in values],
    }
    rows = [[v.numerator, v.denominator, float(v)] for v in values]
    _emit(args, payload, _csv(["num", "den", "value"], rows))
    return 0


def _catalog(args):
    if args.catalog:
        N = args.precision if args.precision is not None else args.imax + 2
        bundle = _bundle(args.catalog, args, N)
        payload = {
            "name": bundle.name,
            "description": bundle.description,
            **_instance_block(bundle.lattice, bundle.action, bundle.extra_weights),
            "expected_rates": None
            if bundle.expected_rates is None
            else [f"{Fraction(r).numerator}/{Fraction(r).denominator}"
                  for r in bundle.expected_rates],
        }
        _emit(args, payload, None)  # main refuses --format csv here
        return 0
    entries = []
    for name in catalog_names():
        b = get_bundle(name)
        entries.append({"name": name, "d": b.action.d, "description": b.description})
    rows = [[e["name"], e["d"], e["description"]] for e in entries]
    _emit(args, {"catalog": entries}, _csv(["name", "d", "description"], rows))
    return 0


_VERBS = {
    "series": _run_series,
    "stratify": _stratify,
    "hdim": _hdim,
    "spectrum": _spectrum,
    "catalog": _catalog,
}


def main(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    for flag in ("imax", "tolerance"):
        if not getattr(args, flag, 0) >= 0:  # NaN fails too; 0 for a verb without the flag
            ap.error(f"--{flag} must be at least 0")
    if args.verb == "catalog" and args.catalog and args.format == "csv":
        ap.error("a catalog export has no CSV form; drop --format csv")
    try:
        return _VERBS[args.verb](args)
    except PrecisionExhausted as err:
        print(f"pstrata: precision exhausted: {err}", file=sys.stderr)
        return _EXIT_PRECISION
    except _INPUT_ERRORS as err:
        # str() of a KeyError is the repr of its message, quotes included
        msg = err.args[0] if isinstance(err, KeyError) and err.args else err
        print(f"pstrata: invalid input: {msg}", file=sys.stderr)
        return _EXIT_INPUT
    except PstrataError as err:
        print(f"pstrata: {type(err).__name__}: {err}", file=sys.stderr)
        return _EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
