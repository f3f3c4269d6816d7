"""Benchmark of the cantorsalem CLI pipelines.

    python3 perfbench/run.py --workload spectral --seed 1 --seconds 22 --trace 0

Run from a checkout: the program is imported from `src/` next to this
directory.  One op is one tree seed's whole pipeline, run in this process
through `cantorsalem.cli.run(argv)` with stdout captured and files written
under `.perfbench_out/`.  A run cycles through a pool of POOL tree
seeds derived from `--seed`, after one untimed warm-up op.  The loop is
closed with a single client: the next op starts when the previous one
ends, and no op starts that the median op time says would end more than
half an op past `--seconds` of measured time.  Outputs are checked after
the timed region: the first op of each tree seed by the oracles in
workloads.py, every later op of that seed by byte identity with it.
`python3 -m pytest perfbench` tests the benchmark.

`--trace 0` reports the end-to-end metrics.  Their times are scaled to a
reference host speed by calibration runs beside each op and set-up probe
(see calibrate.py); the unscaled figures are printed in the report.
`--trace 1` runs half the time untraced, then the same seeds with span
wrappers installed, and reports the per-layer metrics (unscaled), the
tracing overhead and one span file.
The last line of stdout is the JSON result; the lines before it are the
human-readable report and the run record.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import Dict, List, NamedTuple, Tuple

import numpy as np

import calibrate
import workloads
from tracer import TRACED, Recorder, median_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 5
POOL = 8  # distinct tree seeds per run
# setup probe: a fresh interpreter imports the package and makes op 0's inputs
PROBE = """
import sys, time
from pathlib import Path
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import cantorsalem.cli
import workloads
name, seed = sys.argv[3], int(sys.argv[4])
workloads.steps(name, workloads.FULL, workloads.tree_seed(name, seed, 0), Path(sys.argv[5]))
print(time.perf_counter())
"""

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
UNITS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}


class Op(NamedTuple):
    index: int
    tree_seed: int
    work: Path
    wall_s: float
    outcomes: Dict[str, workloads.Outcome]
    error: str  # exception raised inside the timed region, or ""
    digest: str  # of every output, taken after the timed region


def run_op(workload: str, sizes: workloads.Sizes, index: int, tree_seed: int, work: Path) -> Op:
    from cantorsalem import cli

    work.mkdir(parents=True, exist_ok=True)
    outcomes: Dict[str, workloads.Outcome] = {}
    error = ""
    t0 = time.perf_counter()
    try:
        for step in workloads.steps(workload, sizes, tree_seed, work):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                rc = cli.run(list(step.argv))
            outcomes[step.name] = workloads.Outcome(rc, out.getvalue(), err.getvalue())
    except Exception as exc:  # any exception fails the op, never the run
        error = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    return Op(index, tree_seed, work, wall, outcomes, error, digest(work, outcomes))


def digest(work: Path, outcomes: Dict[str, workloads.Outcome]) -> str:
    """Hash of every printed byte and output file, with the op's directory masked."""
    h = hashlib.sha256()
    for name, oc in sorted(outcomes.items()):
        h.update(f"{name}\0{oc.rc}\0{oc.out}\0{oc.err}\0".replace(str(work), "<work>").encode())
    for path in sorted(work.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def keep(ops: List[Op], op: Op) -> None:
    """Append an op.  A repeat of an earlier op's tree seed is checked by its
    digest alone, so its outputs are dropped and memory does not grow with
    the number of ops."""
    if any(o.tree_seed == op.tree_seed for o in ops):
        shutil.rmtree(op.work, ignore_errors=True)
        op = op._replace(outcomes={})
    ops.append(op)


def verify(workload: str, sizes: workloads.Sizes, ops: List[Op]) -> Dict[int, List[str]]:
    """Failures per op.  The first op of a tree seed is checked by the
    oracles; a later op of that seed must reproduce its outputs byte for
    byte, and then shares its verdict."""
    failures: Dict[int, List[str]] = {}
    first: Dict[int, Tuple[str, List[str]]] = {}
    for op in ops:
        if op.error:
            failures[op.index] = [op.error]
            continue
        if op.tree_seed in first:
            d0, errs0 = first[op.tree_seed]
            failures[op.index] = list(errs0) if op.digest == d0 else [f"outputs for tree seed {op.tree_seed} differ between ops"]
            continue
        try:
            errs = workloads.check(workload, sizes, op.tree_seed, op.work, op.outcomes)
        except Exception as exc:  # a malformed output fails its op
            errs = [f"check raised {type(exc).__name__}: {exc}"]
        first[op.tree_seed] = (op.digest, errs)
        failures[op.index] = errs
    return failures


def loop(workload, sizes, seed, seconds, ops: List[Op], work_root: Path, recorder=None) -> Tuple[List[Op], List[float]]:
    """Closed loop over the tree seed pool until `seconds` of op and
    calibration time are spent or predicted, and at least one full pass.
    Returns the timed ops and the calibration kernel's times, one before
    each op and one after the last."""
    start, spent, walls, cal = len(ops), 0.0, [], []
    while True:
        index = len(ops)
        if recorder is not None:
            recorder.op = index
        ts = workloads.tree_seed(workload, seed, (index - start) % POOL)
        gc.collect()
        cal.append(calibrate.kernel())
        op = run_op(workload, sizes, index, ts, work_root / f"op{index}")
        keep(ops, op)
        walls.append(op.wall_s)
        spent += op.wall_s + cal[-1]
        # stop when the next op would likely end more than half an op late
        if len(walls) >= POOL and spent + statistics.median(walls) / 2 > seconds:
            cal.append(calibrate.kernel())
            return ops[start:], cal


def warm_up(workload, sizes, seed, ops: List[Op], work_root: Path) -> None:
    """One untimed op on the pool's first tree seed: it is checked, and the
    timed ops of that seed must reproduce its outputs."""
    index = len(ops)
    keep(ops, run_op(workload, sizes, index, workloads.tree_seed(workload, seed, 0), work_root / f"op{index}"))


def setup_times(workload: str, seed: int, work: Path) -> Tuple[List[float], List[float]]:
    """Fresh-interpreter set-up probes, and the reference probe's times, one
    before each set-up probe and one after the last."""
    times, cal = [], []
    for _ in range(SETUP_PROBES):
        cal.append(calibrate.reference_probe())
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", PROBE, str(SRC), str(Path(__file__).parent), workload, str(seed), str(work)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
        times.append(float(proc.stdout.split()[-1]) - t0)
    cal.append(calibrate.reference_probe())
    return times, cal


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def run_record(workload: str, seed: int, seconds: int, trace: int) -> dict:
    from cantorsalem import fourier

    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "fourier_worker_count": fourier.worker_count(),
        "salem_threads_set": "SALEM_THREADS" in os.environ,
        "src_lines": src_lines,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "cantorsalem" / "__init__.py").is_file():
        print(f"perfbench: no cantorsalem package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cantorsalem.cli  # noqa: F401  (imported before any timing)

    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


def _untraced(workload, sizes, seed, seconds, ops: List[Op], work: Path):
    setup, setup_cal = setup_times(workload, seed, work)
    warm_up(workload, sizes, seed, ops, work)
    timed, cal = loop(workload, sizes, seed, seconds, ops, work)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    failures = verify(workload, sizes, ops)
    failed = sum(1 for errs in failures.values() if errs)
    # every time at the reference host speed (see calibrate.py)
    walls = calibrate.scaled([op.wall_s for op in timed], cal, calibrate.REFERENCE_S)
    ok_walls = [w for op, w in zip(timed, walls) if not failures[op.index]] or walls
    setup_scaled = calibrate.scaled(setup, setup_cal, calibrate.REFERENCE_PROBE_S)
    values = {
        "seeds_per_s": sum(1 for op in timed if not failures[op.index]) / sum(walls),
        "seed_s_p50": statistics.median(ok_walls),
        "setup_s": statistics.median(setup_scaled),
        "peak_rss_mb": peak_kb / 1024,
    }
    raw = {
        "seeds_per_s": sum(1 for op in timed if not failures[op.index]) / sum(op.wall_s for op in timed),
        "seed_s_p50": statistics.median(op.wall_s for op in timed),
        "setup_s": statistics.median(setup),
    }
    counts = {
        "seeds_per_s": f"n={len(timed)}",
        "seed_s_p50": f"n={len(ok_walls)}",
        "setup_s": f"n={len(setup)}",
        "peak_rss_mb": "n=1",
    }
    lines = [f"  calibration kernel median {statistics.median(cal) * 1e3:.3f} ms (reference {calibrate.REFERENCE_S * 1e3:g} ms, n={len(cal)}),"
             f" reference probe median {statistics.median(setup_cal):.4f} s"
             f" (reference {calibrate.REFERENCE_PROBE_S:g} s, n={len(setup_cal)})"]
    for name, v in values.items():
        unscaled = f", unscaled {raw[name]:.6g}" if name in raw else ""
        lines.append(f"  {name:<12} {v:.6g} {UNITS[name]}  ({counts[name]}{unscaled})")
    # 0 whenever the program is correct, and a gated metric must never be 0:
    # it is reported here and through "attempted"/"failed" instead
    lines.append(f"  {'failed_frac':<12} {failed / len(ops):.6g} ratio  (n={len(ops)})")
    return values, failures, lines, {"calibration_s": cal, "setup_calibration_s": setup_cal, "setup_s": setup}


def _traced(workload, sizes, seed, seconds, ops: List[Op], work: Path):
    # the same tree seeds run untraced, then traced, each for half the time
    warm_up(workload, sizes, seed, ops, work)
    plain, cal = loop(workload, sizes, seed, seconds / 2, ops, work)
    recorder = Recorder()
    t0 = time.perf_counter()
    recorder.install()
    try:
        traced, traced_cal = loop(workload, sizes, seed, seconds / 2, ops, work, recorder)
    finally:
        recorder.uninstall()
    recorder.write(str(OUT / f"spans-{workload}-{seed}.jsonl"), t0)
    values = median_metrics([recorder.op_metrics(op.index, op.wall_s) for op in traced])
    values["trace.untraced_op_s"] = statistics.median(op.wall_s for op in plain)
    values["trace.overhead_s"] = values["trace.op_s"] - values["trace.untraced_op_s"]
    op_s = values["trace.op_s"]
    lines = [f"  traced ops {len(traced)}, untraced ops {len(plain)}; per-layer values are per-op medians"]
    for layer in [*TRACED, "cantor_tree.level_intervals"]:
        lines.append(f"  share of traced op  {layer:<28} {values[layer + '.self_s'] / op_s:7.1%}")
    lines += [f"  {k:<44} {v:.6g} {UNITS[k]}" for k, v in values.items()]
    return values, verify(workload, sizes, ops), lines, {"calibration_s": cal + traced_cal}


def run_workload(workload: str, seed: int, seconds: float, trace: int, sizes: workloads.Sizes = workloads.FULL) -> dict:
    """One benchmark run; prints the report and returns the result object."""
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{workload}-{seed}-{os.getpid()}"
    record = run_record(workload, seed, seconds, trace)
    ops: List[Op] = []
    try:
        values, failures, lines, samples = (_traced if trace else _untraced)(workload, sizes, seed, seconds, ops, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    names = [m["name"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]]
    if set(values) != set(names):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(names))}")

    failed = sum(1 for errs in failures.values() if errs)
    print(f"workload {workload}  seed {seed}  trace {trace}  ops {len(ops)}  failed {failed}"
          f"  failed_frac {failed / len(ops):.4g} ({failed}/{len(ops)})")
    for op in ops:
        errs = failures[op.index]
        print(f"  op {op.index}  tree seed {op.tree_seed}  {op.wall_s:.3f} s  "
              + ("FAILED: " + "; ".join(errs[:3]) if errs else "ok"))
    print("\n".join(lines))
    print("record " + json.dumps(record, sort_keys=True))
    metrics = {k: {"value": values[k], "unit": UNITS[k]} for k in names}
    result = {"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}
    with open(OUT / f"result-{workload}-{seed}-trace{trace}.json", "w", encoding="utf-8") as fh:
        json.dump({"record": record, "op_s": [op.wall_s for op in ops], **samples, **result}, fh, indent=2, sort_keys=True)
    return result


if __name__ == "__main__":
    sys.exit(main())
