"""Fourier kernel timings: one window, one contiguous batch and one scalar call, one case per fresh process.

    python tools/fourier_windows.py                      # this checkout, 3 rounds
    python tools/fourier_windows.py --checkout ../parent --checkout . --rounds 5

Each case runs in its own interpreter on one level of a seed-42 tree:

    readme4  the README tree (variant A, m = 25, t = 2/5, X = {2, 4, 8, 10}), level 4, P = 256
    b12      variant B at depth 14, level 12, P = 128
    b14      variant B at depth 14, level 14, P = 768

and times one of three calls:

    window   fourier._WindowedLevel(level).window(0), the level's kernel built beforehand
    batch    mu_hat_batch(tree, n, range(1, 4096)), 4,095 contiguous frequencies
    scalar   mu_hat(tree, n, 1000)

A case makes one untimed call, then times --repeats calls (perf_counter)
and reports their median and minimum.  With several checkouts, each round
runs every case on every checkout, the checkout that goes first rotating
from one (round, level, call) to the next, and the batch values are
compared across checkouts (largest difference).  The last line of stdout
is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LEVELS = {"readme4": ("A", 4, 4), "b12": ("B", 14, 12), "b14": ("B", 14, 14)}  # schedule, depth, level
CALLS = ("window", "batch", "scalar")
SEED = 42


def _child(checkout: str, level: str, call: str, repeats: int) -> dict:
    sys.path.insert(0, str(Path(checkout) / "src"))
    import cantorsalem as cs
    from cantorsalem import fourier

    variant, depth, n = LEVELS[level]
    if variant == "A":
        sched = cs.schedule_a(25, cs.ResidueSet.from_elements(25, (2, 4, 8, 10)), Fraction(2, 5), depth)
    else:
        sched = cs.schedule_b(depth)
    tree = cs.build_tree(sched, SEED, depth)
    if call == "window":
        kernel = fourier._WindowedLevel(cs.level_intervals(tree, n))
        run = lambda: kernel.window(0)  # noqa: E731
    elif call == "batch":
        run = lambda: cs.mu_hat_batch(tree, n, range(1, 4096))  # noqa: E731
    else:
        run = lambda: cs.mu_hat(tree, n, 1000)  # noqa: E731
    result = run()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        run()
        times.append(time.perf_counter() - t0)
    out = {"median_ms": round(statistics.median(times) * 1e3, 4), "min_ms": round(min(times) * 1e3, 4)}
    if call == "batch":
        out["values"] = [[v.real, v.imag] for v in result.values]
    return out


def _run_case(checkout: Path, level: str, call: str, repeats: int) -> dict:
    argv = [sys.executable, __file__, "--child", str(checkout), level, call, str(repeats)]
    proc = subprocess.run(argv, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", action="append", type=Path, help="repository root to time (repeatable)")
    parser.add_argument("--levels", nargs="+", choices=sorted(LEVELS), default=list(LEVELS))
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--repeats", type=int, default=20)
    parser.add_argument("--child", nargs=4, metavar=("CHECKOUT", "LEVEL", "CALL", "REPEATS"), help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        checkout, level, call, repeats = args.child
        print(json.dumps(_child(checkout, level, call, int(repeats))))
        return

    checkouts = [c.resolve() for c in args.checkout or [ROOT]]
    results = {str(c): {lv: {call: {} for call in CALLS} for lv in args.levels} for c in checkouts}
    batches = {}
    turn = 0
    for _ in range(args.rounds):
        for level in args.levels:
            for call in CALLS:
                order = checkouts[turn % len(checkouts):] + checkouts[:turn % len(checkouts)]
                turn += 1
                for checkout in order:
                    got = _run_case(checkout, level, call, args.repeats)
                    if "values" in got:
                        batches[checkout, level] = got.pop("values")
                    slot = results[str(checkout)][level][call]
                    for key, value in got.items():
                        slot.setdefault(key, []).append(value)
                    print(checkout, level, call, got, file=sys.stderr)
    moves = {}
    for level in args.levels:
        first = batches[checkouts[0], level]
        moves[level] = max((max(abs(complex(*a) - complex(*b)) for a, b in zip(first, batches[c, level]))
                            for c in checkouts[1:]), default=0.0)
    command = " ".join([os.path.relpath(__file__, ROOT), *sys.argv[1:]])
    print(json.dumps({"command": command, "seed": SEED, "rounds": args.rounds, "repeats": args.repeats,
                      "batch_max_difference": moves, "runs": results}))


if __name__ == "__main__":
    main()
