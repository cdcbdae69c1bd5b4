"""Command-line surface.

Subcommands: compute, scan, balanced, bp, faltings, validate.
Exit codes: 0 ok, 2 validation error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from fractions import Fraction

from .errors import HeightsError, NumericError, ValidationError
from .heightvalue import HeightValue
from .intersection import IntersectionModel, _read_json

# each subcommand imports what only it runs: functionals (compute),
# scans (scan), numpy and the spectral modules (balanced), mpmath
# (faltings), and families where a family is built or bp or faltings runs

EXIT_OK, EXIT_VALIDATION, EXIT_NUMERIC = 0, 2, 3


def _parse_ints(option: str, s: str):
    """Comma-separated integers; a bad token names the option."""
    out = []
    for tok in s.split(","):
        if tok.strip():
            try:
                out.append(int(tok))
            except ValueError:
                raise ValidationError(
                    f"{option}: {tok.strip()!r} is not an integer") from None
    return tuple(out)


def _parse_primes(s: str):
    """--primes: at least one comma-separated integer."""
    if primes := _parse_ints("--primes", s):
        return primes
    raise ValidationError("--primes: no prime given")


def _load_family(args):
    if args.model:
        return IntersectionModel.load(args.model), None
    fam = args.family
    if fam in ("p1-fs", "p1"):
        from .families import build_p1_fs

        return build_p1_fs(), None
    if fam == "p2-blowup":
        from .families import build_p2_blowup_family

        pair = build_p2_blowup_family(vars(args).get("primes") or (2, 3, 5))
        return pair.model, pair
    raise ValidationError(f"unknown family {fam!r}; pass --family or --model")


def _height_report(name: str, v) -> dict:
    if isinstance(v, HeightValue):
        return {"functional": name, "symbolic": v, "value": v.evaluate()}
    if isinstance(v, Fraction):
        return {"functional": name, "symbolic": v, "value": float(v)}
    return {"functional": name, "symbolic": "", "value": v}


def _emit(rows, emit: str, stream=None):
    stream = stream or sys.stdout
    if emit == "json":
        # default=str: a rational or the complex tau prints as in a table
        json.dump(rows, stream, indent=1, default=str)
        stream.write("\n")
        return
    cols = list(rows[0].keys())
    if emit == "csv":
        w = csv.DictWriter(stream, fieldnames=cols, lineterminator="\r\n")
        w.writeheader()
        w.writerows(rows)
        return
    widths = {c: max(len(str(c)), *(len(str(r[c])) for r in rows))
              for c in cols}
    stream.write("  ".join(str(c).ljust(widths[c]) for c in cols) + "\n")
    for r in rows:
        stream.write("  ".join(str(r[c]).ljust(widths[c]) for c in cols)
                     + "\n")


def run_compute(args) -> list:
    from .functionals import (arakelov_calabi, arakelov_energy, aubin_I_rel,
                              aubin_J_rel, entropy_rel, modular_height,
                              na_scalar_curvature, normalized_df,
                              relative_modular_height, ricci_energy_rel,
                              slope_semistability_test)

    model, pair = _load_family(args)
    if args.relative_to and pair is None:
        raise ValidationError(
            "--relative-to needs a family with a reference model")
    rows = []
    for fn in args.functional.split(","):
        fn = fn.strip()
        if fn == "hk":
            if args.relative_to:
                rows.append(_height_report(
                    "hk(rel)", relative_modular_height(model, pair.ref)))
            else:
                rows.append(_height_report("hk", modular_height(model)))
        elif fn == "energy":
            rows.append(_height_report("energy", arakelov_energy(model)))
        elif fn in ("ricci", "entropy", "I", "J"):
            if pair is None:
                raise ValidationError(f"{fn} needs a model-pair family")
            op = {"ricci": ricci_energy_rel, "entropy": entropy_rel,
                  "I": aubin_I_rel, "J": aubin_J_rel}[fn]
            rows.append(_height_report(fn, op(pair)))
        elif fn == "snA":
            if args.prime is None:
                raise ValidationError("snA needs --prime")
            for comp, v in na_scalar_curvature(model, args.prime).items():
                rows.append(_height_report(f"snA[{comp}]", v))
        elif fn == "ndf":
            rows.append(_height_report(
                "ndf", normalized_df(model, args.cover_degree)))
        elif fn == "calabi":
            primes = args.primes or sorted({f.prime for f in model.fibers})
            rows.append(_height_report(
                "calabi", arakelov_calabi(model, primes, args.arch_term)))
        elif fn == "slope":
            rows.append({"functional": "slope",
                         "symbolic": slope_semistability_test(model),
                         "value": ""})
        else:
            raise ValidationError(f"unknown functional {fn!r}")
    return rows


def run_scan(args) -> list:
    model, _ = _load_family(args)
    from .scans import dequantization_scan, hilbert_samuel_residual

    if args.kind == "dequantization":
        res = dequantization_scan(model, args.m_max)
        rows = [dict(zip(res.columns, r)) for r in res.table]
        fit = {"fitted_constant": res.fitted_constant,
               "fitted_log_slope": res.fitted_log_slope}
    else:
        table = hilbert_samuel_residual(model, args.m_max)
        rows = [{"m": m, "residual": r, "residual_over_m": r / m}
                for m, r in table]
        fit = {"last_residual_over_m": rows[-1]["residual_over_m"]}
    if args.out:
        with open(args.out, "w", newline="") as fh:
            _emit(rows, "csv", fh)
        with open(args.out + ".fit.json", "w") as fh:
            json.dump(fit, fh, indent=1)
    return [fit]


def run_balanced(args) -> list:
    if args.seed < 0:       # numpy's generator takes no negative seed
        raise ValidationError("--seed must be >= 0")
    if not math.isfinite(args.perturb):
        raise ValidationError("--perturb must be finite")
    # the family (and the families module) before numpy: compiled after
    # numpy's allocations, the module raised the peak RSS by 0.3-0.8 MB
    model, _ = _load_family(args)
    import numpy as np

    from .geometry import SphereGeometry
    from .quantize import VOL_M_OMEGA, SectionGram, balanced_iterate, l2_gram

    g0 = l2_gram(model.family, args.m, "fs", VOL_M_OMEGA)
    geometry = SphereGeometry(args.grid)
    if args.gram:
        try:
            raw = np.array(_read_json(args.gram, "--gram"), float)
        # OverflowError: an integer literal past the float range
        except (OverflowError, TypeError, ValueError):
            raise ValidationError(
                "--gram: expected a square list of numbers") from None
        g0 = SectionGram(g0.m, g0.basis, raw, g0.volume_convention)
    elif args.perturb:
        rng = np.random.default_rng(args.seed)
        r = g0.rank
        sym = rng.standard_normal((r, r))
        sym = (sym + sym.T) / 2.0
        sym -= np.trace(sym) / r * np.eye(r)
        # past the float range: inf or nan entries, which SectionGram refuses
        with np.errstate(over="ignore", invalid="ignore"):
            raw = g0.gram * np.exp(args.perturb * sym)
        g0 = SectionGram(g0.m, g0.basis, raw, g0.volume_convention)
    g, iters, converged, trace = balanced_iterate(
        g0, geometry, tol=args.tol, max_iter=args.max_iter, model=model)
    rows = [{"iteration": it, "distance": d, "htilde_C": h}
            for it, d, h in trace]
    rows.append({"iteration": "converged", "distance": converged,
                 "htilde_C": iters})
    if args.out:
        with open(args.out, "w", newline="") as fh:
            _emit(rows, "csv", fh)
    return rows if args.emit != "table" else rows[-3:]


def run_bp(args) -> dict:
    from .families import BrieskornPhamSpec, brieskorn_pham_analyze

    weights = _parse_ints("--weights", args.weights)
    spec = BrieskornPhamSpec(weights, args.prime)
    return brieskorn_pham_analyze(spec, j_max=args.degree_bound)


def run_faltings(args) -> list:
    from .families import (EllipticCurveData, curve_from_label, curve_periods,
                           faltings_from_periods, faltings_to_hk)

    if args.curve:
        E = curve_from_label(args.curve)
    elif args.a_invariants:
        a = _parse_ints("--a-invariants", args.a_invariants)
        if args.delta_min is None:
            raise ValidationError("--a-invariants needs --delta-min")
        E = EllipticCurveData(a, args.delta_min)
    else:
        raise ValidationError("pass --curve or --a-invariants")
    per = curve_periods(E)
    rows = []
    methods = ("qexp", "agm") if args.method == "both" else (args.method,)
    for meth in methods:
        h = faltings_from_periods(E, per, meth)
        row = {"method": meth, "h_faltings": h}
        if args.polarization is not None:
            row["h_K"] = faltings_to_hk(h, args.polarization)
        rows.append(row)
    rows.append({"method": "tau", "h_faltings": per["tau"],
                 **({"h_K": ""} if args.polarization is not None else {})})
    return rows


def run_validate(args) -> list:
    model = IntersectionModel.load(args.model)
    return [{"check": "ok", "n": model.n, "classes": len(model.classes),
             "deg_Ln": model.deg_Ln, "deg_LK": model.deg_LK,
             "Sbar": model.Sbar()}]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="heights",
        description="height functionals on polarized integral models")
    sub = p.add_subparsers(dest="command", required=True)

    family = argparse.ArgumentParser(add_help=False)
    family.add_argument("--family", default=None)
    family.add_argument("--model", default=None)
    emit = argparse.ArgumentParser(add_help=False)
    emit.add_argument("--emit", choices=("json", "csv", "table"),
                      default="table")

    c = sub.add_parser("compute", parents=[family, emit],
                       help="evaluate functionals")
    c.add_argument("--functional", default="hk")
    c.add_argument("--primes", type=_parse_primes, default=None)
    c.add_argument("--prime", type=int, default=None)
    c.add_argument("--relative-to", choices=("base",), default=None)
    c.add_argument("--cover-degree", type=int, default=1)
    c.add_argument("--arch-term", type=float, default=0.0)
    c.set_defaults(func=run_compute)

    s = sub.add_parser("scan", parents=[family, emit],
                       help="dequantization / Hilbert-Samuel scans")
    s.add_argument("--kind", choices=("dequantization", "hilbert-samuel"),
                   default="dequantization")
    s.add_argument("--m-max", type=int, required=True)
    s.add_argument("--out", default=None)
    s.set_defaults(func=run_scan)

    b = sub.add_parser("balanced", parents=[family, emit],
                       help="balanced-metric iteration")
    b.add_argument("--m", type=int, default=5)
    b.add_argument("--gram", default=None,
                   help="JSON file with a starting Gram matrix")
    b.add_argument("--perturb", type=float, default=0.1)
    b.add_argument("--tol", type=float, default=1e-10)
    b.add_argument("--max-iter", type=int, default=200)
    b.add_argument("--grid", type=int, default=128)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--out", default=None)
    b.set_defaults(func=run_balanced)

    q = sub.add_parser("bp", help="quotient-point multiplicity analyzer")
    q.add_argument("--weights", required=True)
    q.add_argument("--prime", type=int, required=True)
    q.add_argument("--degree-bound", type=int, default=12)
    q.set_defaults(func=run_bp, emit="json")

    f = sub.add_parser("faltings", parents=[emit],
                       help="elliptic Faltings heights")
    f.add_argument("--curve", default=None)
    f.add_argument("--a-invariants", default=None)
    f.add_argument("--delta-min", type=int, default=None)
    f.add_argument("--method", choices=("qexp", "agm", "both"),
                   default="both")
    f.add_argument("--polarization", type=int, default=None)
    f.set_defaults(func=run_faltings)

    v = sub.add_parser("validate", parents=[emit],
                       help="load a model file and check invariants")
    v.add_argument("--model", required=True)
    v.set_defaults(func=run_validate)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _emit(args.func(args), args.emit)
        return EXIT_OK
    except (NumericError, OverflowError) as exc:   # past the float range
        print(f"numeric failure: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_NUMERIC
    except (HeightsError, OSError) as exc:
        print(f"validation error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
