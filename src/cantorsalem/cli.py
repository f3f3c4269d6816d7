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
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from random import Random
from typing import List, Optional, Sequence, Tuple

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
    ResidueSet,
    behrend_sphere,
    double_embed,
    is_ap_free,
    property_ii_oracle,
    uniformity_demo,
)
from .fourier import (
    DEFAULT_K_CAP,
    decay_profile,
    increment_scan,
    mu_hat_batch,
    write_coeffs_csv,
)
from .regularity import _ratio_float, ball_mass, frostman_scan, variant_b_mass_check
from .svgplot import emit_svg

__all__ = ["RunConfig", "run", "main", "emit_svg"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # raise instead of sys.exit so run() can honor the exit-code contract
    def error(self, message):
        raise _UsageError(message)


@dataclass(frozen=True)
class RunConfig:
    """Validated bundle of everything one subcommand invocation needs."""

    subcommand: str
    variant: Optional[str] = None
    m: Optional[int] = None
    m_prime: Optional[int] = None
    n: Optional[int] = None
    t: Optional[Fraction] = None
    depth: Optional[int] = None
    seed: Optional[int] = None
    seeds: Optional[int] = None
    level: Optional[int] = None
    sigma: Optional[float] = None
    k_min: Optional[int] = None
    k_max: Optional[int] = None
    k_cap: Optional[int] = None
    epsilon: Optional[float] = None
    grid: Optional[int] = None
    samples: Optional[int] = None
    mode: Optional[str] = None
    check: Optional[str] = None
    elements: Optional[Tuple[int, ...]] = None
    radii: Optional[Tuple[Fraction, ...]] = None
    levels: Optional[Tuple[int, ...]] = None
    line: bool = False
    tree_path: Optional[str] = None
    out_path: Optional[str] = None
    svg_path: Optional[str] = None
    dump_path: Optional[str] = None
    json_mode: bool = False

    def __post_init__(self):
        if self.subcommand == "build":
            if self.variant == "A":
                if self.m is None:
                    raise ValueError("variant A requires --m")
                if self.t is None:
                    raise ValueError("variant A requires --t")
            elif self.variant == "B":
                if self.m is not None or self.t is not None or self.elements is not None:
                    raise ValueError("variant B derives its own schedule; drop --m/--t/--elements")
            elif self.variant == "custom":
                if self.m is None or self.elements is None:
                    raise ValueError("custom schedules require --m and --elements")
                if self.t is not None:
                    raise ValueError("--t only applies to variant A")
            if self.depth is None or self.depth < 1:
                raise ValueError("build requires --depth >= 1")
        if self.subcommand == "uniformity-demo" and self.mode == "single" and not self.elements:
            raise ValueError("single mode requires --elements")
        if self.k_min is not None and self.k_max is not None and self.k_min > self.k_max:
            raise ValueError("--k-min must not exceed --k-max")
        if self.seeds is not None and self.seeds < 1:
            raise ValueError("--seeds must be >= 1")

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "RunConfig":
        def get(name, conv=None):
            v = getattr(args, name, None)
            return conv(v) if (v is not None and conv) else v

        return cls(
            subcommand=args.subcommand,
            variant=get("variant"),
            m=get("m"),
            m_prime=get("m_prime"),
            n=get("n"),
            t=get("t", Fraction),
            depth=get("depth"),
            seed=get("seed"),
            seeds=get("seeds"),
            level=get("level"),
            sigma=get("sigma"),
            k_min=get("k_min"),
            k_max=get("k_max"),
            k_cap=get("k_cap"),
            epsilon=get("epsilon"),
            grid=get("grid"),
            samples=get("samples"),
            mode=get("mode"),
            check=get("check"),
            elements=get("elements", _parse_ints),
            radii=get("radii", _parse_fractions),
            levels=get("levels", _parse_ints),
            line=bool(getattr(args, "line", False)),
            tree_path=get("tree"),
            out_path=get("out"),
            svg_path=get("svg"),
            dump_path=get("dump"),
            json_mode=bool(getattr(args, "json", False)),
        )


def _parse_ints(s: str) -> Tuple[int, ...]:
    parts = [p for p in s.replace(" ", "").split(",") if p]
    if not parts:
        raise ValueError("empty integer list")
    return tuple(int(p) for p in parts)


def _parse_fractions(s: str) -> Tuple[Fraction, ...]:
    parts = [p for p in s.replace(" ", "").split(",") if p]
    if not parts:
        raise ValueError("empty radius list")
    return tuple(Fraction(p) for p in parts)


def _to_jsonable(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _to_jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, (list, tuple)):
        return [_to_jsonable(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): _to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def _emit(payload: dict, cfg: RunConfig) -> None:
    doc = _to_jsonable(payload)
    if cfg.json_mode:
        print(json.dumps(doc, sort_keys=True))
    else:
        print(json.dumps(doc, indent=2, sort_keys=True))


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


def _cmd_behrend(cfg: RunConfig) -> int:
    base = behrend_sphere(cfg.m_prime)
    payload = {
        "m_prime": cfg.m_prime,
        "base": list(base),
        "base_size": len(base),
        "base_ap_free": is_ap_free(base),
    }
    rc = 0
    if cfg.m is not None:
        X = double_embed(base, cfg.m)
        verdict = property_ii_oracle(X)
        payload.update(
            {
                "m": cfg.m,
                "elements": list(X.elements),
                "size": len(X),
                "density": len(X) / cfg.m,
                "oracle_holds": verdict.holds,
                "witness": verdict.witness,
            }
        )
        rc = 0 if verdict.holds else 1
    _emit(payload, cfg)
    return rc


def _default_variant_a_set(m: int) -> ResidueSet:
    return double_embed(behrend_sphere(m // 5), m)


def _cmd_build(cfg: RunConfig) -> int:
    if cfg.variant == "A":
        if cfg.elements:
            X = ResidueSet.from_elements(cfg.m, cfg.elements)
        else:
            X = _default_variant_a_set(cfg.m)
        sched = schedule_a(cfg.m, X, cfg.t, cfg.depth)
    elif cfg.variant == "B":
        sched = schedule_b(cfg.depth)
    else:
        X = ResidueSet.from_elements(cfg.m, cfg.elements)
        sched = custom_schedule(cfg.m, X, cfg.depth)
    seed = cfg.seed if cfg.seed is not None else 0
    tree = build_tree(sched, seed, cfg.depth)
    save_tree(tree, cfg.out_path)
    payload = {
        "out": cfg.out_path,
        "variant": sched.variant,
        "depth": cfg.depth,
        "seed": seed,
        "branching": list(sched.L),
        "bases": list(sched.M),
        "cells": sched.P(cfg.depth),
        "resolution": sched.Q(cfg.depth),
        "base_sets": [
            {"modulus": bs.modulus, "size": len(bs), "method": bs.method}
            for bs in sched.base_sets
        ],
    }
    _emit(payload, cfg)
    return 0


def _freq_range(k_min: int, k_max: int) -> range:
    """Frequencies k_min..k_max, refused before allocation past DEFAULT_K_CAP."""
    if k_max - k_min + 1 > DEFAULT_K_CAP:
        raise ValueError(f"{k_max - k_min + 1} frequencies requested, limit is {DEFAULT_K_CAP}")
    return range(k_min, k_max + 1)


def _cmd_fourier(cfg: RunConfig) -> int:
    ks = _freq_range(cfg.k_min if cfg.k_min is not None else 0, cfg.k_max)
    tree = load_tree(cfg.tree_path)
    coeffs = mu_hat_batch(tree, cfg.level, ks)
    write_coeffs_csv(coeffs, cfg.out_path)
    _emit({"out": cfg.out_path, "level": cfg.level, "rows": len(coeffs)}, cfg)
    return 0


def _cmd_decay(cfg: RunConfig) -> int:
    ks = _freq_range(1, cfg.k_max)
    tree = load_tree(cfg.tree_path)
    k_min = cfg.k_min if cfg.k_min is not None else 1
    coeffs = mu_hat_batch(tree, cfg.level, ks)
    profile = decay_profile(coeffs, k_min=k_min)
    payload = {"level": cfg.level, "profile": profile}
    if cfg.svg_path:
        _write_text(cfg.svg_path, emit_svg(profile, sigma=cfg.sigma))
        payload["svg"] = cfg.svg_path
    if cfg.out_path:
        _write_text(cfg.out_path, json.dumps(_to_jsonable(payload), indent=2, sort_keys=True))
    _emit(payload, cfg)
    return 0


def _cmd_increments(cfg: RunConfig) -> int:
    tree = load_tree(cfg.tree_path)
    k_cap = cfg.k_cap if cfg.k_cap is not None else DEFAULT_K_CAP
    runs = []
    if cfg.seeds and cfg.seeds > 1:
        for i in range(cfg.seeds):
            seed_i = derive_run_seed(tree.seed, i)
            tree_i = build_tree(tree.schedule, seed_i, tree.depth)
            runs.append((seed_i, increment_scan(tree_i, cfg.level, cfg.sigma, k_cap)))
    else:
        runs.append((tree.seed, increment_scan(tree, cfg.level, cfg.sigma, k_cap)))
    total_scanned = sum(rep.scanned for _, rep in runs)
    total_exceed = sum(rep.exceedances for _, rep in runs)
    first = runs[0][1]
    payload = {
        "level": cfg.level,
        "sigma": cfg.sigma,
        "threshold": first.threshold,
        "k_cap": k_cap,
        "coverage": first.coverage,
        "bound_per_k": first.bound.per_k,
        "bound_union_proxy": first.bound.union_proxy,
        "runs": [
            {
                "seed": seed,
                "scanned": rep.scanned,
                "exceedances": rep.exceedances,
                "max_increment": rep.max_increment,
            }
            for seed, rep in runs
        ],
        "total_scanned": total_scanned,
        "total_exceedances": total_exceed,
        "exceedance_frequency": total_exceed / total_scanned if total_scanned else 0.0,
    }
    if cfg.out_path:
        _write_text(cfg.out_path, json.dumps(_to_jsonable(payload), indent=2, sort_keys=True))
    _emit(payload, cfg)
    return 0


def _dump_regularity_rows(tree: MeasureTree, n: int, t: Fraction, radii, path: str) -> None:
    step = level_intervals(tree, n)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,r,mass,ratio\n")
        for c in step.offsets:
            x = Fraction(2 * c + 1, 2 * step.Q)
            for r in radii:
                mass = ball_mass(tree, n, x, r)
                fh.write(f"{x},{r},{mass},{_ratio_float(mass, r, t)!r}\n")


def _cmd_regularity(cfg: RunConfig) -> int:
    tree = load_tree(cfg.tree_path)
    if cfg.check == "massband":
        report = variant_b_mass_check(
            tree,
            levels=cfg.levels,
            epsilon=cfg.epsilon if cfg.epsilon is not None else 0.2,
        )
        _emit({"check": "massband", "report": report}, cfg)
        return 0 if report.all_within else 1
    try:
        report = frostman_scan(
            tree,
            cfg.level,
            t=cfg.t,
            radii=cfg.radii,
            circle=not cfg.line,
            grid=cfg.grid if cfg.grid is not None else 64,
        )
    except AssertionError as exc:
        return _fail(1, f"regularity bound violated: {exc}", cfg.json_mode)
    payload = {"level": cfg.level, "report": report}
    if cfg.dump_path:
        _dump_regularity_rows(tree, cfg.level, report.t, report.radii, cfg.dump_path)
        payload["dump"] = cfg.dump_path
    if cfg.svg_path:
        _write_text(cfg.svg_path, emit_svg(report))
        payload["svg"] = cfg.svg_path
    _emit(payload, cfg)
    return 0


def _cmd_verify_ap(cfg: RunConfig) -> int:
    tree = load_tree(cfg.tree_path)
    depth = cfg.depth if cfg.depth is not None else tree.depth
    cert = ap_report(tree, depth, line=cfg.line)
    _emit({"certificate": cert}, cfg)
    return 0 if cert.certified else 1


def _subset_report(n: int, elements: Sequence[int]):
    rep = uniformity_demo(ResidueSet.from_elements(n, elements))
    violation = rep.condition_holds and rep.ap is None
    return rep, violation


def _cmd_uniformity(cfg: RunConfig) -> int:
    n = cfg.n
    if cfg.mode == "single":
        rep, violation = _subset_report(n, cfg.elements)
        _emit(
            {
                "mode": "single",
                "n": n,
                "elements": list(cfg.elements),
                "report": rep,
                "violation": violation,
            },
            cfg,
        )
        return 1 if violation else 0

    checked = holds = 0
    violations: List[Tuple[int, ...]] = []
    if cfg.mode == "exhaustive":
        universe = list(range(n))
        for size in range(1, n + 1):
            for subset in combinations(universe, size):
                rep, violation = _subset_report(n, subset)
                checked += 1
                holds += rep.condition_holds
                if violation:
                    violations.append(subset)
    else:
        rng = Random(cfg.seed if cfg.seed is not None else 0)
        samples = cfg.samples if cfg.samples is not None else 2000
        for _ in range(samples):
            subset: Tuple[int, ...] = ()
            while not subset:
                subset = tuple(x for x in range(n) if rng.random() < 0.5)
            rep, violation = _subset_report(n, subset)
            checked += 1
            holds += rep.condition_holds
            if violation:
                violations.append(subset)
    payload = {
        "mode": cfg.mode,
        "n": n,
        "checked": checked,
        "condition_holds": holds,
        "violations": len(violations),
        "first_violation": list(violations[0]) if violations else None,
    }
    _emit(payload, cfg)
    return 1 if violations else 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="cantorsalem", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", metavar="subcommand")

    def add(name: str, help_text: str, func) -> _Parser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="machine-readable single-line output")
        p.set_defaults(func=func)
        return p

    p = add("behrend", "digit-sphere base set, optionally embedded and oracle-checked", _cmd_behrend)
    p.add_argument("--m-prime", dest="m_prime", type=int, required=True)
    p.add_argument("--m", type=int, help="embed doubled into residues mod m and run the oracle")

    p = add("build", "construct a random measure tree and save it", _cmd_build)
    p.add_argument("--variant", choices=("A", "B", "custom"), required=True)
    p.add_argument("--m", type=int)
    p.add_argument("--t", type=str, help="target dimension, decimal or p/q")
    p.add_argument("--elements", type=str, help="comma-separated residues (default: doubled digit sphere)")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=str, required=True)

    p = add("fourier", "coefficients at one level, written as CSV", _cmd_fourier)
    p.add_argument("--tree", type=str, required=True)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--k-min", dest="k_min", type=int)
    p.add_argument("--k-max", dest="k_max", type=int, required=True)
    p.add_argument("--out", type=str, required=True)

    p = add("decay", "dyadic-band decay profile with optional SVG", _cmd_decay)
    p.add_argument("--tree", type=str, required=True)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--k-min", dest="k_min", type=int)
    p.add_argument("--k-max", dest="k_max", type=int, required=True)
    p.add_argument("--svg", type=str)
    p.add_argument("--sigma", type=float, help="target exponent for the SVG envelope overlay")
    p.add_argument("--out", type=str, help="write the profile as JSON here as well")

    p = add("increments", "level-to-level increment scan over one or more seeds", _cmd_increments)
    p.add_argument("--tree", type=str, required=True)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--k-cap", dest="k_cap", type=int)
    p.add_argument("--seeds", type=int, help="derive this many seeds from the tree seed")
    p.add_argument("--out", type=str)

    p = add("regularity", "mass regularity scan or factorial mass band check", _cmd_regularity)
    p.add_argument("--tree", type=str, required=True)
    p.add_argument("--level", type=int)
    p.add_argument("--t", type=str)
    p.add_argument("--radii", type=str, help="comma-separated radii, decimal or p/q")
    p.add_argument("--grid", type=int)
    p.add_argument("--line", action="store_true", help="interval balls instead of circle arcs")
    p.add_argument("--check", choices=("massband",))
    p.add_argument("--levels", type=str, help="massband: comma-separated levels")
    p.add_argument("--epsilon", type=float)
    p.add_argument("--dump", type=str, help="CSV of per-midpoint ball masses")
    p.add_argument("--svg", type=str)

    p = add("verify-ap", "progression-freeness certificate; exit 0 iff certified", _cmd_verify_ap)
    p.add_argument("--tree", type=str, required=True)
    p.add_argument("--depth", type=int)
    p.add_argument("--line", action="store_true")

    p = add("uniformity-demo", "uniform Fourier smallness forces a modular progression", _cmd_uniformity)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", choices=("single", "exhaustive", "random"), default="single")
    p.add_argument("--elements", type=str)
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int)

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
    if getattr(args, "subcommand", None) is None or not hasattr(args, "func"):
        return _fail(2, "a subcommand is required (see --help)", json_mode)
    try:
        cfg = RunConfig.from_args(args)
        return args.func(cfg)
    except (TreeLoadError, OSError, json.JSONDecodeError) as exc:
        return _fail(3, str(exc), json_mode)
    except ValueError as exc:
        return _fail(2, str(exc), json_mode)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
