"""The four benchmark workloads: CLI steps of one op and the checks on them.

One op is one tree seed's whole pipeline, run as `cantorsalem` CLI
commands.  `steps` lists the commands; `check` validates their outputs
with the independent oracles and returns one message per failed check.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Sequence, Tuple

import oracles

FIXTURE = ("--variant", "A", "--m", "25", "--t", "0.4", "--elements", "2,4,8,10")
FIXTURE_C_UPPER = 51  # 2M + 1
FIXTURE_C_LOWER = 25 ** -0.4 / 4  # 1 / (M^t |X|)
SAMPLE_ROWS = 6


@dataclass(frozen=True)
class Sizes:
    spectral_depth: int = 4
    decay_k_max: int = 4095
    coeff_level: int = 4
    coeff_k_max: int = 4096  # 4097 frequencies: the batch engages the thread pool
    increments_depth: int = 2
    certify_depth: int = 5
    regularity_depth: int = 4
    dump_depth: int = 3
    b_depth: int = 14
    b_verify_depth: int = 12
    b_massband_levels: Tuple[int, int] = (4, 14)
    b_k_min: int = 10 ** 8  # |k| * 2Q above 2^63: the big-integer route
    b_k_count: int = 256
    control_depth: int = 6


FULL = Sizes()
TINY = Sizes(
    spectral_depth=3,
    decay_k_max=255,
    coeff_level=2,
    coeff_k_max=64,
    increments_depth=2,
    certify_depth=3,
    regularity_depth=3,
    dump_depth=2,
    b_depth=7,
    b_verify_depth=6,
    b_massband_levels=(4, 6),
    b_k_min=10 ** 15,
    b_k_count=8,
    control_depth=3,
)


class Step(NamedTuple):
    name: str
    argv: Tuple[str, ...]
    rc: int = 0


class Outcome(NamedTuple):
    rc: int
    out: str
    err: str

    def payload(self) -> dict:
        return json.loads(self.out)


def tree_seed(workload: str, seed: int, index: int) -> int:
    """Tree seed of the index-th op, a pure function of the workload seed."""
    digest = hashlib.sha256(f"{workload}/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def _build(out: Path, depth: int, seed: int, schedule: Sequence[str] = FIXTURE) -> Tuple[str, ...]:
    return ("build", *schedule, "--depth", str(depth), "--seed", str(seed), "--out", str(out), "--json")


def steps(workload: str, sizes: Sizes, seed: int, work: Path) -> List[Step]:
    s, w = sizes, work
    if workload == "spectral":
        return [
            Step("build", _build(w / "a.json", s.spectral_depth, seed)),
            Step("decay", ("decay", "--tree", str(w / "a.json"), "--level", str(s.spectral_depth),
                           "--k-max", str(s.decay_k_max), "--sigma", "0.4", "--svg", str(w / "decay.svg"), "--json")),
            Step("fourier", ("fourier", "--tree", str(w / "a.json"), "--level", str(s.coeff_level),
                             "--k-max", str(s.coeff_k_max), "--out", str(w / "coeffs.csv"), "--json")),
            Step("build_small", _build(w / "small.json", s.increments_depth, seed)),
            Step("increments", ("increments", "--tree", str(w / "small.json"), "--level",
                                str(s.increments_depth - 1), "--sigma", "0.4", "--json")),
        ]
    if workload == "certify":
        return [
            Step("build", _build(w / "a.json", s.certify_depth, seed)),
            Step("verify", ("verify-ap", "--tree", str(w / "a.json"), "--depth", str(s.certify_depth), "--json")),
        ]
    if workload == "regularity":
        return [
            Step("build", _build(w / "a.json", s.regularity_depth, seed)),
            Step("scan", ("regularity", "--tree", str(w / "a.json"), "--level", str(s.regularity_depth), "--json")),
            Step("build_small", _build(w / "small.json", s.dump_depth, seed)),
            Step("dump", ("regularity", "--tree", str(w / "small.json"), "--level", str(s.dump_depth),
                          "--dump", str(w / "dump.csv"), "--svg", str(w / "reg.svg"), "--json")),
        ]
    if workload == "factorial":
        lo, hi = s.b_massband_levels
        return [
            Step("build", _build(w / "b.json", s.b_depth, seed, ("--variant", "B"))),
            Step("verify", ("verify-ap", "--tree", str(w / "b.json"), "--depth", str(s.b_verify_depth), "--json")),
            Step("massband", ("regularity", "--tree", str(w / "b.json"), "--check", "massband",
                              "--levels", ",".join(str(n) for n in range(lo, hi + 1)), "--json")),
            Step("fourier", ("fourier", "--tree", str(w / "b.json"), "--level", str(s.b_depth),
                             "--k-min", str(s.b_k_min), "--k-max", str(s.b_k_min + s.b_k_count - 1),
                             "--out", str(w / "coeffs.csv"), "--json")),
            Step("build_control", _build(w / "control.json", s.control_depth, seed,
                                         ("--variant", "custom", "--m", "10", "--elements", "0,1,2"))),
            Step("verify_control", ("verify-ap", "--tree", str(w / "control.json"), "--json"), rc=1),
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("spectral", "certify", "regularity", "factorial")


# --- checks: each returns a list of failure messages ---


def _expect(errors: List[str], cond: bool, message: str) -> None:
    if not cond:
        errors.append(message)


def _check_build(errors: List[str], res: Outcome, facts: oracles.TreeFacts) -> None:
    cells = res.payload()["cells"]
    _expect(errors, cells == len(facts.offsets(facts.depth)), f"build reports {cells} cells")


def _check_certified(errors: List[str], res: Outcome, facts: oracles.TreeFacts) -> None:
    cert = res.payload()["certificate"]
    _expect(errors, cert["certified"] is True, "tree not certified")
    _expect(errors, cert["feasible_triples"] == [], "certified tree reports feasible triples")
    _expect(errors, cert["node_checks"]["internal_nodes"] == facts.internal_nodes, "internal node count differs")


def _check_svg(errors: List[str], path: Path) -> None:
    text = path.read_text(encoding="utf-8")
    _expect(errors, text.startswith("<svg") and text.rstrip().endswith("</svg>"), f"{path.name} is not an SVG document")


def _sample(rng: random.Random, n: int, k: int) -> List[int]:
    return sorted(rng.sample(range(n), min(k, n)))


def _check_spectral(s: Sizes, w: Path, res: Dict[str, Outcome], rng: random.Random) -> List[str]:
    errors: List[str] = []
    tree = oracles.TreeFacts(str(w / "a.json"))
    _check_build(errors, res["build"], tree)
    profile = res["decay"].payload()["profile"]
    _expect(errors, len(profile["band_lows"]) == s.decay_k_max.bit_length(), "decay profile misses bands")
    _expect(errors, isinstance(profile["sigma_hat"], float) and math.isfinite(profile["sigma_hat"]), "no decay fit")
    _check_svg(errors, w / "decay.svg")
    n = s.coeff_level
    csv = (w / "coeffs.csv").read_text(encoding="utf-8")
    _expect(errors, len(csv.splitlines()) == s.coeff_k_max + 2, "coefficient CSV has the wrong row count")
    errors += oracles.check_coeff_rows(csv, tree.offsets(n), tree.Q(n), [0] + _sample(rng, s.coeff_k_max + 1, SAMPLE_ROWS))
    small = oracles.TreeFacts(str(w / "small.json"))
    _check_build(errors, res["build_small"], small)
    inc = res["increments"].payload()
    scanned = 2 * min(small.Q(s.increments_depth) - 1, 1 << 20)
    _expect(errors, inc["total_scanned"] == scanned, f"increments scanned {inc['total_scanned']}, expected {scanned}")
    _expect(errors, 0 <= inc["total_exceedances"] <= scanned, "exceedance count out of range")
    return errors


def _check_certify(s: Sizes, w: Path, res: Dict[str, Outcome], rng: random.Random) -> List[str]:
    errors: List[str] = []
    tree = oracles.TreeFacts(str(w / "a.json"))
    _check_build(errors, res["build"], tree)
    _check_certified(errors, res["verify"], tree)
    return errors


def _check_frostman(errors: List[str], res: Outcome) -> dict:
    report = res.payload()["report"]
    _expect(errors, report["upper_ok"] is True and report["lower_ok"] is True, "regularity verdict failed")
    _expect(errors, report["c_upper"] <= FIXTURE_C_UPPER, f"C_upper {report['c_upper']} above {FIXTURE_C_UPPER}")
    _expect(errors, report["c_lower"] >= FIXTURE_C_LOWER, f"C_lower {report['c_lower']} below {FIXTURE_C_LOWER}")
    return report


def _check_regularity(s: Sizes, w: Path, res: Dict[str, Outcome], rng: random.Random) -> List[str]:
    errors: List[str] = []
    _check_build(errors, res["build"], oracles.TreeFacts(str(w / "a.json")))
    _check_frostman(errors, res["scan"])
    small = oracles.TreeFacts(str(w / "small.json"))
    _check_build(errors, res["build_small"], small)
    report = _check_frostman(errors, res["dump"])
    _check_svg(errors, w / "reg.svg")
    n = s.dump_depth
    offsets = small.offsets(n)
    rows = (w / "dump.csv").read_text(encoding="utf-8").splitlines()
    _expect(errors, rows[0] == "x,r,mass,ratio", "dump header is wrong")
    _expect(errors, len(rows) - 1 == len(offsets) * len(report["radii"]), "dump has the wrong row count")
    for i in _sample(rng, len(rows) - 1, 2 * SAMPLE_ROWS):
        x, r, mass, _ = rows[1 + i].split(",")
        want = oracles.naive_ball_mass(offsets, small.Q(n), Fraction(x), Fraction(r))
        _expect(errors, Fraction(mass) == want, f"dump mass at x={x}, r={r} is {mass}, cell sum gives {want}")
    return errors


def _check_factorial(s: Sizes, w: Path, res: Dict[str, Outcome], rng: random.Random) -> List[str]:
    errors: List[str] = []
    tree = oracles.TreeFacts(str(w / "b.json"))
    _check_build(errors, res["build"], tree)
    _check_certified(errors, res["verify"], tree)

    band = res["massband"].payload()["report"]
    _expect(errors, band["all_within"] is True, "mass band check failed")
    lo, hi = s.b_massband_levels
    _expect(errors, [c["level"] for c in band["checks"]] == list(range(lo, hi + 1)), "mass band levels differ")
    for c in band["checks"]:
        n = c["level"]
        q, offsets = tree.Q(n), tree.offsets(n)
        r = Fraction(1, math.factorial(n + 1))
        # for n >= 3, 2r <= 1/Q_n: a ball centred in a surviving cell is the heaviest
        heaviest = Fraction(2 * r * q, len(offsets))
        _expect(errors, Fraction(c["max_mass"]) == heaviest, f"level {n}: max mass {c['max_mass']} != {heaviest}")
        _expect(errors, Fraction(c["cell_bound"]) == Fraction(2, len(offsets)), f"level {n}: wrong cell bound")
    for n in _sample(rng, hi - lo + 1, 2):
        n += lo
        q, offsets = tree.Q(n), tree.offsets(n)
        r = Fraction(1, math.factorial(n + 1))
        c = offsets[rng.randrange(len(offsets))]
        mid = oracles.naive_ball_mass(offsets, q, Fraction(2 * c + 1, 2 * q), r)
        _expect(errors, mid == Fraction(2 * r * q, len(offsets)), f"level {n}: midpoint ball mass {mid}")
        edge = oracles.naive_ball_mass(offsets, q, Fraction(c, q), r)
        halves = 1 + ((c - 1) % q in set(offsets))
        _expect(errors, edge == Fraction(halves * r * q, len(offsets)), f"level {n}: endpoint ball mass {edge}")

    n = s.b_depth
    csv = (w / "coeffs.csv").read_text(encoding="utf-8")
    _expect(errors, len(csv.splitlines()) == s.b_k_count + 1, "coefficient CSV has the wrong row count")
    # one row: the closed form costs P_n = 20,736 mpmath terms per frequency
    errors += oracles.check_coeff_rows(csv, tree.offsets(n), tree.Q(n), _sample(rng, s.b_k_count, 1))

    control = oracles.TreeFacts(str(w / "control.json"))
    _check_build(errors, res["build_control"], control)
    cert = res["verify_control"].payload()["certificate"]
    _expect(errors, cert["certified"] is False, "progression-carrying control was certified")
    q, offsets = control.Q(control.depth), control.offsets(control.depth)
    reported = {tuple(t) for t in cert["feasible_triples"]}
    _expect(errors, len(reported) == len(cert["feasible_triples"]), "control triples repeat")
    inset = set(offsets)
    for t in reported:
        try:
            x, y, z = oracles.realize_triple(t, q)
        except ValueError as exc:
            errors.append(str(exc))
            continue
        _expect(errors, (x + z - 2 * y) % 1 == 0 and all(v in inset for v in t), f"triple {t} is not realized")
    found = oracles.spanning_triples(offsets, q)
    _expect(errors, reported == found, f"control reports {len(reported)} triples, search finds {len(found)}")
    return errors


CHECKS: Dict[str, Callable[[Sizes, Path, Dict[str, Outcome], random.Random], List[str]]] = {
    "spectral": _check_spectral,
    "certify": _check_certify,
    "regularity": _check_regularity,
    "factorial": _check_factorial,
}


def check(workload: str, sizes: Sizes, seed: int, work: Path, res: Dict[str, Outcome]) -> List[str]:
    """Exit codes of every step, then the workload's output checks."""
    errors = [
        f"{st.name}: exit code {res[st.name].rc}, expected {st.rc}: {res[st.name].err.strip()[:200]}"
        for st in steps(workload, sizes, seed, work)
        if res[st.name].rc != st.rc
    ]
    if errors:
        return errors
    return CHECKS[workload](sizes, work, res, random.Random(seed))
