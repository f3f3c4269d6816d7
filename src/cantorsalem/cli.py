"""Command-line orchestration for building trees and running verifications.

Subcommands map one-to-one onto the library pipelines:

    behrend          digit-sphere set construction plus the spanning-AP oracle
    build            construct a random measure tree and save it as JSON
    fourier          coefficients of a saved tree at one level, written as CSV
    decay            dyadic-band decay profile with optional SVG plot
    increments       level-to-level coefficient increments vs. the tail bound
    regularity       two-sided mass regularity scan, or the factorial-radius
                     mass band check for growing-base trees
    verify-ap        finite-depth progression-freeness certificate
    uniformity-demo  Fourier-uniformity implies a modular progression, checked
                     exhaustively or on random subsets

Exit codes: 0 success or certified, 1 verification failure, 2 usage error,
3 I/O or schema error.  With --json all errors go to stderr as one JSON line.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from fractions import Fraction
from itertools import combinations
from random import Random
from typing import Iterator, List, Optional, Sequence, Tuple

from .ap_verifier import ap_report
from .cantor_tree import (
    MeasureTree,
    TreeLoadError,
    build_tree,
    custom_schedule,
    derive_run_seed,
    level_intervals,
    load_tree,
    save_tree,
    schedule_a,
    schedule_b,
)
from .discrete_ap import (
    _DFT_MAX_ENTRIES,
    ResidueSet,
    behrend_sphere,
    double_embed,
    is_ap_free,
    property_ii_oracle,
    uniformity_demo,
)
from .fourier import (
    DEFAULT_K_CAP,
    check_work,
    decay_profile,
    increment_scan,
    mu_hat_batch,
    write_coeffs_csv,
)
from .regularity import _ratio_float, _row_blocks, ball_mass, frostman_scan, variant_b_mass_check
from .svgplot import emit_svg

__all__ = ["run", "main"]

# uniformity-demo checks at most 2^20 - 1 subsets, the exhaustive sweep at n = 20, at about 57 us each
_MAX_SUBSET_BITS = 20


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # raise instead of sys.exit so run() can honor the exit-code contract
    def error(self, message):
        raise _UsageError(message)


def _arg_type(conv):
    """argparse type applying conv and reporting conv's own error message."""

    def parse(text: str):
        try:
            return conv(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


def _list_of(conv, what: str):
    """argparse type for a comma-separated list of conv values; an empty list is an error."""

    def parse(s: str) -> tuple:
        parts = [p for p in s.replace(" ", "").split(",") if p]
        if not parts:
            raise ValueError(f"empty {what} list")
        return tuple(conv(p) for p in parts)

    return _arg_type(parse)


@functools.cache  # one lookup per report type, not one per encoded object
def _json_fields(cls: type) -> Optional[Tuple[str, ...]]:
    """The fields a dataclass type writes to JSON (all but json=False ones); None for other types."""
    if not dataclasses.is_dataclass(cls):
        return None
    return tuple(f.name for f in dataclasses.fields(cls) if f.metadata.get("json", True))


def _json_default(obj):
    """JSON form of dataclass instances (minus json=False fields) and Fractions ("p/q")."""
    names = _json_fields(type(obj))
    if names is not None:
        return {name: getattr(obj, name) for name in names}
    if isinstance(obj, Fraction):
        return str(obj)
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _dumps(payload: dict, indent: Optional[int] = None) -> str:
    # every float a payload carries is finite, so a NaN or infinity is a bug
    return json.dumps(payload, default=_json_default, allow_nan=False, indent=indent, sort_keys=True)


def _emit(payload: dict, args: argparse.Namespace) -> None:
    print(_dumps(payload, None if args.json else 2))


def _fail(code: int, message: str, json_mode: bool) -> int:
    if json_mode:
        print(json.dumps({"code": code, "error": message}, sort_keys=True), file=sys.stderr)
    else:
        print(f"error: {message}", file=sys.stderr)
    return code


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text if text.endswith("\n") else text + "\n")


# --- subcommands ---


def _cmd_behrend(args: argparse.Namespace) -> int:
    base = behrend_sphere(args.m_prime)
    payload = {
        "m_prime": args.m_prime,
        "base": list(base),
        "base_size": len(base),
        "base_ap_free": is_ap_free(base),
    }
    rc = 0
    if args.m is not None:
        X = double_embed(base, args.m)
        verdict = property_ii_oracle(X)
        payload.update(
            {
                "m": args.m,
                "elements": list(X.elements),
                "size": len(X),
                "density": len(X) / args.m,
                "oracle_holds": verdict.holds,
                "witness": verdict.witness,
            }
        )
        rc = 0 if verdict.holds else 1
    _emit(payload, args)
    return rc


def _cmd_build(args: argparse.Namespace) -> int:
    if args.variant == "A":
        if args.m is None or args.elements is None and args.m < 5:
            raise ValueError("variant A requires --m, at least 5 for the default base set (the doubled digit sphere)")
        if args.t is None:
            raise ValueError("variant A requires --t")
    elif args.variant == "B":
        if args.m is not None or args.t is not None or args.elements is not None:
            raise ValueError("variant B derives its own schedule; drop --m/--t/--elements")
    else:
        if args.m is None or args.elements is None:
            raise ValueError("custom schedules require --m and --elements")
        if args.t is not None:
            raise ValueError("--t only applies to variant A")
    if args.depth < 1:
        raise ValueError("build requires --depth >= 1")

    if args.variant == "B":
        sched = schedule_b(args.depth)
    else:
        if args.elements:
            X = ResidueSet.from_elements(args.m, args.elements)
        else:  # variant A's default: the doubled digit sphere
            X = double_embed(behrend_sphere(args.m // 5), args.m)
        if args.variant == "A":
            sched = schedule_a(args.m, X, args.t, args.depth)
        else:
            sched = custom_schedule(args.m, X, args.depth)
    tree = build_tree(sched, args.seed, args.depth)
    save_tree(tree, args.out)
    payload = {
        "out": args.out,
        "variant": sched.variant,
        "depth": args.depth,
        "seed": args.seed,
        "branching": list(sched.L),
        "bases": list(sched.M),
        "cells": sched.P(args.depth),
        "resolution": sched.Q(args.depth),
        "base_sets": [  # a single-child level carries no base set
            None if bs is None else {"modulus": bs.modulus, "size": len(bs), "method": bs.method}
            for bs in sched.base_sets
        ],
    }
    _emit(payload, args)
    return 0


def _check_freq_count(count: int) -> None:
    """Refuse, before allocating them, more than DEFAULT_K_CAP frequencies."""
    if count > DEFAULT_K_CAP:
        raise ValueError(f"{count} frequencies requested, limit is {DEFAULT_K_CAP}")


def _freq_range(args: argparse.Namespace, start: int) -> range:
    """Frequencies start..--k-max once --k-min <= --k-max, within DEFAULT_K_CAP."""
    if args.k_min > args.k_max:
        raise ValueError("--k-min must not exceed --k-max")
    _check_freq_count(args.k_max - start + 1)
    return range(start, args.k_max + 1)


def _cmd_fourier(args: argparse.Namespace) -> int:
    ks = _freq_range(args, args.k_min)
    tree = load_tree(args.tree)
    check_work(tree, (args.level,), ks)
    coeffs = mu_hat_batch(tree, args.level, ks)
    write_coeffs_csv(coeffs, args.out)
    _emit({"out": args.out, "level": args.level, "rows": len(coeffs)}, args)
    return 0


def _cmd_decay(args: argparse.Namespace) -> int:
    if args.sigma is not None and not math.isfinite(args.sigma):
        raise ValueError(f"--sigma must be finite, got {args.sigma}")
    # bands start at powers of two and decay_profile drops those below --k-min;
    # starting at --k-max when no band fits keeps its "need >= 3 bands" error
    start = min(1 << (args.k_min - 1).bit_length(), args.k_max) if args.k_min > 1 else 1
    ks = _freq_range(args, start)
    tree = load_tree(args.tree)
    check_work(tree, (args.level,), ks)
    coeffs = mu_hat_batch(tree, args.level, ks)
    profile = decay_profile(coeffs, k_min=args.k_min)
    payload = {"level": args.level, "profile": profile}
    if args.svg:
        _write_text(args.svg, emit_svg(profile, sigma=args.sigma))
        payload["svg"] = args.svg
    if args.out:
        _write_text(args.out, _dumps(payload, 2))
    _emit(payload, args)
    return 0


def _cmd_increments(args: argparse.Namespace) -> int:
    if args.seeds < 1:
        raise ValueError("--seeds must be >= 1")
    tree = load_tree(args.tree)
    if 0 <= args.level < tree.depth:  # increment_scan reports any other level
        k_hi = min(tree.schedule.Q(args.level + 1) - 1, args.k_cap)
        _check_freq_count(k_hi)
        check_work(tree, (args.level, args.level + 1), range(1, k_hi + 1), args.seeds)
    if args.seeds == 1:
        trees = [(tree.seed, tree)]
    else:  # derived trees, built one at a time and only to level n + 1, the deepest level the scan reads
        depth = args.level + 1 if 0 <= args.level < tree.depth else tree.depth
        seeds = (derive_run_seed(tree.seed, i) for i in range(args.seeds))
        trees = ((seed, build_tree(tree.schedule, seed, depth)) for seed in seeds)
    runs, head = [], {}
    for seed, run_tree in trees:
        rep = increment_scan(run_tree, args.level, args.sigma, args.k_cap)
        head = head or {"threshold": rep.threshold, "coverage": rep.coverage, "bound_per_k": rep.bound.per_k,
                        "bound_union_proxy": rep.bound.union_proxy}
        runs.append({"seed": seed, "scanned": rep.scanned, "exceedances": rep.exceedances,
                     "max_increment": rep.max_increment})
        del rep, run_tree  # a report holds every scanned frequency; only its summary outlives the next scan
    total_scanned = sum(run["scanned"] for run in runs)
    total_exceed = sum(run["exceedances"] for run in runs)
    payload = {
        "level": args.level,
        "sigma": args.sigma,
        "k_cap": args.k_cap,
        **head,
        "runs": runs,
        "total_scanned": total_scanned,
        "total_exceedances": total_exceed,
        "exceedance_frequency": total_exceed / total_scanned if total_scanned else 0.0,
    }
    if args.out:
        _write_text(args.out, _dumps(payload, 2))
    _emit(payload, args)
    return 0


def _dump_regularity_rows(tree: MeasureTree, n: int, t: Fraction, radii, circle: bool, path: str) -> None:
    step = level_intervals(tree, n)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,r,mass,ratio\n")
        for _, cells in _row_blocks(step.offsets, len(radii)):  # one ball_mass matrix per block of midpoints
            xs = [Fraction(2 * c + 1, 2 * step.Q) for c in cells.tolist()]
            for x, masses in zip(xs, ball_mass(tree, n, xs, radii, circle=circle)):
                fh.writelines(f"{x},{r},{mass},{_ratio_float(mass, r, t)!r}\n" for r, mass in zip(radii, masses))


def _cmd_regularity(args: argparse.Namespace) -> int:
    if args.check != "massband" and args.level is None:
        raise ValueError("regularity requires --level unless --check massband")
    tree = load_tree(args.tree)
    if args.check == "massband":
        report = variant_b_mass_check(tree, levels=args.levels, epsilon=args.epsilon)
        _emit({"check": "massband", "report": report}, args)
        return 0 if report.all_within else 1
    report = frostman_scan(tree, args.level, t=args.t, radii=args.radii, circle=not args.line, grid=args.grid)
    if report.upper_ok is False or report.lower_ok is False:
        return _fail(1, f"regularity bound violated: {report.violation}", args.json)
    payload = {"level": args.level, "report": report}
    if args.dump:
        _dump_regularity_rows(tree, args.level, report.t, report.radii, not args.line, args.dump)
        payload["dump"] = args.dump
    if args.svg:
        _write_text(args.svg, emit_svg(report))
        payload["svg"] = args.svg
    _emit(payload, args)
    return 0


def _cmd_verify_ap(args: argparse.Namespace) -> int:
    cert = ap_report(load_tree(args.tree), args.depth, line=args.line)
    _emit({"certificate": cert}, args)
    return 0 if cert.certified else 1


def _subset_report(n: int, elements: Sequence[int]):
    rep = uniformity_demo(ResidueSet.from_elements(n, elements))
    violation = rep.condition_holds and rep.ap is None
    return rep, violation


def _random_subsets(n: int, samples: int, rng: Random) -> Iterator[Tuple[int, ...]]:
    """samples nonempty subsets of range(n), each element kept with probability 1/2."""
    for _ in range(samples):
        subset: Tuple[int, ...] = ()
        while not subset:
            subset = tuple(x for x in range(n) if rng.random() < 0.5)
        yield subset


def _cmd_uniformity(args: argparse.Namespace) -> int:
    n = args.n
    if n < 2 or args.samples < 1:  # dft_uniformity needs a modulus of at least 2
        raise ValueError(f"uniformity-demo needs --n >= 2 and --samples >= 1, got {n} and {args.samples}")
    if args.mode == "single":
        if not args.elements:
            raise ValueError("single mode requires --elements")
        rep, violation = _subset_report(n, args.elements)
        _emit(
            {
                "mode": "single",
                "n": n,
                "elements": list(args.elements),
                "report": rep,
                "violation": violation,
            },
            args,
        )
        return 1 if violation else 0

    if args.mode == "exhaustive":
        if n > _MAX_SUBSET_BITS:
            raise ValueError(f"2^{n} - 1 subsets requested, limit is 2^{_MAX_SUBSET_BITS} - 1")
        subsets = (subset for size in range(1, n + 1) for subset in combinations(range(n), size))
    else:
        if args.samples >= 1 << _MAX_SUBSET_BITS:
            raise ValueError(f"{args.samples} subsets requested, limit is 2^{_MAX_SUBSET_BITS} - 1")
        if n - 1 > _DFT_MAX_ENTRIES:  # every nonempty subset's DFT matrix has at least n - 1 entries
            raise ValueError(f"at least {n - 1} DFT matrix entries per subset, limit is {_DFT_MAX_ENTRIES}")
        subsets = _random_subsets(n, args.samples, Random(args.seed))
    checked = holds = 0
    violations: List[Tuple[int, ...]] = []
    for subset in subsets:
        rep, violation = _subset_report(n, subset)
        checked += 1
        holds += rep.condition_holds
        if violation:
            violations.append(subset)
    payload = {
        "mode": args.mode,
        "n": n,
        "checked": checked,
        "condition_holds": holds,
        "violations": len(violations),
        "first_violation": list(violations[0]) if violations else None,
    }
    _emit(payload, args)
    return 1 if violations else 0


@functools.cache  # built on the first run, not at import, and reused by every later run
def _build_parser() -> _Parser:
    parser = _Parser(prog="cantorsalem", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", metavar="subcommand")

    def add(name: str, help_text: str, func) -> _Parser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="machine-readable single-line output")
        p.set_defaults(func=func)
        return p

    fraction = _arg_type(Fraction)
    ints = _list_of(int, "integer")

    p = add("behrend", "digit-sphere base set, optionally embedded and oracle-checked", _cmd_behrend)
    p.add_argument("--m-prime", dest="m_prime", type=int, required=True)
    p.add_argument("--m", type=int, help="embed doubled into residues mod m and run the oracle")

    p = add("build", "construct a random measure tree and save it", _cmd_build)
    p.add_argument("--variant", choices=("A", "B", "custom"), required=True)
    p.add_argument("--m", type=int)
    p.add_argument("--t", type=fraction, help="target dimension, decimal or p/q")
    p.add_argument("--elements", type=ints, help="comma-separated residues (default: doubled digit sphere)")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=str, required=True)

    p = add("fourier", "coefficients at one level, written as CSV", _cmd_fourier)
    p.add_argument("--tree", type=str, required=True)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--k-min", dest="k_min", type=int, default=0)
    p.add_argument("--k-max", dest="k_max", type=int, required=True)
    p.add_argument("--out", type=str, required=True)

    p = add("decay", "dyadic-band decay profile with optional SVG", _cmd_decay)
    p.add_argument("--tree", type=str, required=True)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--k-min", dest="k_min", type=int, default=1)
    p.add_argument("--k-max", dest="k_max", type=int, required=True)
    p.add_argument("--svg", type=str)
    p.add_argument("--sigma", type=float, help="target exponent for the SVG envelope overlay")
    p.add_argument("--out", type=str, help="write the profile as JSON here as well")

    p = add("increments", "level-to-level increment scan over one or more seeds", _cmd_increments)
    p.add_argument("--tree", type=str, required=True)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--k-cap", dest="k_cap", type=int, default=DEFAULT_K_CAP)
    p.add_argument("--seeds", type=int, default=1, help="derive this many seeds from the tree seed")
    p.add_argument("--out", type=str)

    p = add("regularity", "mass regularity scan or factorial mass band check", _cmd_regularity)
    p.add_argument("--tree", type=str, required=True)
    p.add_argument("--level", type=int, help="scan level (required unless --check massband)")
    p.add_argument("--t", type=fraction)
    p.add_argument("--radii", type=_list_of(Fraction, "radius"), help="comma-separated radii, decimal or p/q")
    p.add_argument("--grid", type=int, default=64)
    p.add_argument("--line", action="store_true", help="interval balls instead of circle arcs")
    p.add_argument("--check", choices=("massband",))
    p.add_argument("--levels", type=ints, help="massband: comma-separated levels")
    p.add_argument("--epsilon", type=float, default=0.2)
    p.add_argument("--dump", type=str, help="CSV of per-midpoint ball masses (line balls under --line)")
    p.add_argument("--svg", type=str)

    p = add("verify-ap", "progression-freeness certificate; exit 0 iff certified", _cmd_verify_ap)
    p.add_argument("--tree", type=str, required=True)
    p.add_argument("--depth", type=int)
    p.add_argument("--line", action="store_true")

    p = add("uniformity-demo", "uniform Fourier smallness forces a modular progression", _cmd_uniformity)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", choices=("single", "exhaustive", "random"), default="single")
    p.add_argument("--elements", type=ints)
    p.add_argument("--samples", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)

    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    json_mode = "--json" in argv
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        return _fail(2, str(exc), json_mode)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.subcommand is None:
        return _fail(2, "a subcommand is required (see --help)", json_mode)
    try:
        return args.func(args)
    except (TreeLoadError, OSError) as exc:
        return _fail(3, str(exc), json_mode)
    except ValueError as exc:
        return _fail(2, str(exc), json_mode)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
