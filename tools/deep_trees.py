"""Deep-tree timings: build, save, load, verify and mass band of variant-B trees, one phase per fresh process.

    python tools/deep_trees.py                      # this checkout, depths 18 and 20, seed 42, 3 rounds
    python tools/deep_trees.py --checkout ../parent --checkout . --rounds 3

Each phase runs in its own interpreter on `schedule_b(depth)`:

    build     build_tree, the tree held
    save      build_tree, then save_tree
    load      load_tree of the file that checkout's save phase wrote
    bsl       build_tree, save_tree and load_tree in one process
    verify    build_tree, then ap_report to the full depth (what verify-ap runs)
    massband  build_tree, then variant_b_mass_check over levels 4..depth
              (what regularity --check massband runs)

A phase reports the wall time of each call (perf_counter) and the process
peak (ru_maxrss); verify and massband also report a SHA-256 of their
report's repr.  With several checkouts, each round runs every phase on
every checkout, the checkout that goes first rotating from one (round,
depth, phase) to the next, and the saved files and the reports are
compared byte for byte.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PHASES = ("build", "save", "load", "bsl", "verify", "massband")
REPORTS = {"verify": "ap_report", "massband": "variant_b_mass_check"}


def _child(checkout: str, phase: str, depth: int, seed: int, path: str) -> dict:
    sys.path.insert(0, str(Path(checkout) / "src"))
    import cantorsalem as cs

    sched = cs.schedule_b(depth)
    times, tree = {}, None

    def timed(name, call, *args):
        t0 = time.perf_counter()
        result = call(*args)
        times[f"{name}_s"] = round(time.perf_counter() - t0, 4)
        return result

    if phase != "load":
        tree = timed("build", cs.build_tree, sched, seed, depth)
    if phase in ("save", "bsl"):
        timed("save", cs.save_tree, tree, path)
    if phase in ("load", "bsl"):
        loaded = timed("load", cs.load_tree, path)
        if tree is not None and loaded != tree:
            raise SystemExit("the loaded tree differs from the built one")
    if phase in REPORTS:
        report = timed(phase, getattr(cs, REPORTS[phase]), tree)
        times["report_sha256"] = hashlib.sha256(repr(report).encode()).hexdigest()
    # ru_maxrss is in KiB on Linux
    return dict(times, maxrss_mb=round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1))


def _run_phase(checkout: Path, phase: str, depth: int, seed: int, path: Path) -> dict:
    argv = [sys.executable, __file__, "--child", str(checkout), phase, str(depth), str(seed), str(path)]
    proc = subprocess.run(argv, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", action="append", type=Path, help="repository root to time (repeatable)")
    parser.add_argument("--depths", type=int, nargs="+", default=[18, 20])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--child", nargs=5, metavar=("CHECKOUT", "PHASE", "DEPTH", "SEED", "FILE"), help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        checkout, phase, depth, seed, path = args.child
        print(json.dumps(_child(checkout, phase, int(depth), int(seed), path)))
        return

    checkouts = [c.resolve() for c in args.checkout or [ROOT]]
    results = {str(c): {f"depth_{d}": {p: {} for p in PHASES} for d in args.depths} for c in checkouts}
    turn = 0
    with tempfile.TemporaryDirectory(prefix="deep_trees_") as tmp:
        files = {(c, d): Path(tmp) / f"{i}_{d}.json" for i, c in enumerate(checkouts) for d in args.depths}
        for _ in range(args.rounds):
            for depth in args.depths:
                for phase in PHASES:
                    order = checkouts[turn % len(checkouts):] + checkouts[:turn % len(checkouts)]
                    turn += 1
                    for checkout in order:
                        got = _run_phase(checkout, phase, depth, args.seed, files[checkout, depth])
                        slot = results[str(checkout)][f"depth_{depth}"][phase]
                        for key, value in got.items():
                            slot.setdefault(key, []).append(value)
                        print(checkout, depth, phase, got, file=sys.stderr)
        same = {f"depth_{d}": len({files[c, d].read_bytes() for c in checkouts}) == 1 for d in args.depths}
    reports_same = {
        f"depth_{d}": {p: len({h for c in checkouts for h in results[str(c)][f"depth_{d}"][p]["report_sha256"]}) == 1
                       for p in REPORTS}
        for d in args.depths
    }
    command = " ".join([os.path.relpath(__file__, ROOT), *sys.argv[1:]])
    print(json.dumps({"command": command, "seed": args.seed, "rounds": args.rounds,
                      "saved_bytes_equal": same, "reports_equal": reports_same, "runs": results}))


if __name__ == "__main__":
    main()
