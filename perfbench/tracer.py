"""Span recorder for the traced pass.

`Recorder.install` replaces each traced public function, in every
cantorsalem module namespace that binds it, with a wrapper that records a
span: name, start, end, process CPU time, parent span and op id.  Spans
stay in memory until `write`.  Self time is a span's duration minus its
children's.  Work counters are computed from the wrapped calls' arguments,
results and call counts, never from program internals.

The traced functions are all called on the thread that runs the CLI (the
Fourier thread pool only runs a private per-frequency kernel), so one span
stack suffices.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import statistics
import time
from collections import defaultdict
from fractions import Fraction
from typing import Callable, Dict, List, Optional

# defining module -> public functions wrapped
TRACED = {
    "cli": ("run",),
    "fourier": ("mu_hat_batch", "decay_profile", "increment_scan", "write_coeffs_csv"),
    "regularity": ("frostman_scan", "ball_mass", "variant_b_mass_check"),
    "ap_verifier": ("node_certificates", "cross_cell_scan"),
    "cantor_tree": ("build_tree", "save_tree", "load_tree", "level_intervals"),
    "discrete_ap": ("property_ii_oracle", "max_property_ii"),
    "svgplot": ("emit_svg",),
}
# module namespaces whose bindings are patched
NAMESPACES = ("cli", "fourier", "regularity", "ap_verifier", "cantor_tree")

INT64_LIMIT = 1 << 63


def _count_above(ks, limit: int) -> int:
    """How many k satisfy |k| >= limit."""
    if isinstance(ks, range) and ks.step == 1:
        return len(range(max(ks.start, limit), ks.stop)) + len(range(ks.start, min(ks.stop, 1 - limit)))
    return sum(1 for k in ks if abs(k) >= limit)


def _mu_hat_batch(a, result):
    sched, n = a["tree"].schedule, a["n"]
    q, ks = sched.Q(n), a["k_set"]
    return {
        "freqs": len(ks),
        "cell_terms": len(ks) * sched.P(n),
        "above_int64": _count_above(ks, -(-INT64_LIMIT // (2 * q))),
        "q_bits": q.bit_length(),
    }


def _node_certificates(a, result):
    sched, depth = a["tree"].schedule, a["tree"].depth
    return {
        "internal": result.internal_nodes,
        "distinct": result.distinct_sets,
        "multi_child": sum(sched.P(level) for level in range(depth) if sched.L[level] > 1),
    }


def _cross_cell_scan(a, result):
    p = a["tree"].schedule.P(a["n"])
    return {"pairs": p * (p + 1) // 2, "triples": len(result)}


def _file_bytes(a, result):
    return {"bytes": os.path.getsize(a["path"])}


# counters kept with a span; values that are not JSON (trees) are resolved
# after the op by `op_metrics`
HOOKS: Dict[str, Callable] = {
    "fourier.mu_hat_batch": _mu_hat_batch,
    "fourier.write_coeffs_csv": _file_bytes,
    "ap_verifier.node_certificates": _node_certificates,
    "ap_verifier.cross_cell_scan": _cross_cell_scan,
    "regularity.frostman_scan": lambda a, r: {"tree": a["tree"], "n": a["n"], "grid": a["grid"], "radii": len(r.radii)},
    "cantor_tree.level_intervals": lambda a, r: {"tree": a["tree"], "n": a["n"]},
    "cantor_tree.save_tree": _file_bytes,
}


class Recorder:
    def __init__(self):
        self.spans: List[dict] = []
        self.op: Optional[int] = None
        self._stack: List[int] = []
        self._patched: list = []
        self._originals: Dict[str, Callable] = {}

    def _wrap(self, name: str, fn: Callable) -> Callable:
        hook = HOOKS.get(name)
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {
                "name": name,
                "id": len(self.spans),
                "parent": self._stack[-1] if self._stack else None,
                "op": self.op,
                "start": time.perf_counter(),
                "cpu0": time.process_time(),
            }
            self.spans.append(span)
            self._stack.append(span["id"])
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                span["cpu1"] = time.process_time()
                self._stack.pop()
            if hook is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span["info"] = hook(bound.arguments, result)
            return result

        return wrapper

    def install(self) -> None:
        wrappers = {}
        for mod, names in TRACED.items():
            module = importlib.import_module(f"cantorsalem.{mod}")
            for fname in names:
                fn = getattr(module, fname)
                self._originals[f"{mod}.{fname}"] = fn
                wrappers[fn] = self._wrap(f"{mod}.{fname}", fn)
        for ns in NAMESPACES:
            module = importlib.import_module(f"cantorsalem.{ns}")
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def write(self, path: str, t0: float) -> None:
        """One JSON line per span, times relative to t0."""
        with open(path, "w", encoding="utf-8") as fh:
            for sp in self.spans:
                info = {k: v for k, v in sp.get("info", {}).items() if k != "tree"}
                fh.write(json.dumps({
                    "name": sp["name"], "id": sp["id"], "parent": sp["parent"], "op": sp["op"],
                    "start": sp["start"] - t0, "end": sp["end"] - t0, "cpu_s": sp["cpu1"] - sp["cpu0"],
                    **info,
                }, sort_keys=True) + "\n")

    def _ball_evals(self, info) -> int:
        # frostman_scan evaluates every radius at the distinct upper points
        # (cell midpoints and endpoints, grid midpoints) and at the midpoints
        step = self._originals["cantor_tree.level_intervals"](info["tree"], info["n"])
        q, g = step.Q, info["grid"]
        mids = {Fraction(2 * c + 1, 2 * q) for c in step.offsets}
        upper = mids | {Fraction(c, q) for c in step.offsets} | {Fraction((c + 1) % q, q) for c in step.offsets}
        upper |= {Fraction(2 * i + 1, 2 * g) for i in range(g)}
        return (len(upper) + len(mids)) * info["radii"]

    def op_metrics(self, op: int, op_s: float) -> Dict[str, float]:
        """Per-layer metrics of one traced op (see BENCHMARK.json)."""
        spans = [sp for sp in self.spans if sp["op"] == op]
        child = defaultdict(float)
        for sp in spans:
            if sp["parent"] is not None:
                child[sp["parent"]] += sp["end"] - sp["start"]
        self_s, calls, wall, cpu = defaultdict(float), defaultdict(int), defaultdict(float), defaultdict(float)
        for sp in spans:
            dur = sp["end"] - sp["start"]
            self_s[sp["name"]] += dur - child[sp["id"]]
            calls[sp["name"]] += 1
            wall[sp["name"]] += dur
            cpu[sp["name"]] += sp["cpu1"] - sp["cpu0"]

        def total(name: str, key: str) -> int:
            return sum(sp["info"][key] for sp in spans if sp["name"] == name)

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        m: Dict[str, float] = {}
        for mod, names in TRACED.items():
            m[f"{mod}.self_s"] = sum(self_s[f"{mod}.{f}"] for f in names)
        for name in ("fourier.mu_hat_batch", "fourier.decay_profile", "fourier.increment_scan",
                     "fourier.write_coeffs_csv", "ap_verifier.cross_cell_scan", "ap_verifier.node_certificates",
                     "regularity.frostman_scan", "regularity.ball_mass", "regularity.variant_b_mass_check",
                     "cantor_tree.level_intervals", "cantor_tree.build_tree", "cantor_tree.save_tree",
                     "cantor_tree.load_tree", "discrete_ap.property_ii_oracle", "discrete_ap.max_property_ii",
                     "svgplot.emit_svg", "cli.run"):
            m[f"{name}.self_s"] = self_s[name]
        for name in ("fourier.mu_hat_batch", "regularity.ball_mass", "cantor_tree.level_intervals",
                     "discrete_ap.property_ii_oracle", "cli.run"):
            m[f"{name}.calls"] = calls[name]

        mhb = "fourier.mu_hat_batch"
        m[f"{mhb}.wall_s"] = wall[mhb]
        m[f"{mhb}.cpu_per_wall"] = ratio(cpu[mhb], wall[mhb])
        m["fourier.freqs"] = total(mhb, "freqs")
        m["fourier.cell_terms"] = total(mhb, "cell_terms")
        m["fourier.ns_per_cell_term"] = ratio(self_s[mhb] * 1e9, m["fourier.cell_terms"])
        m["fourier.freqs_above_int64"] = total(mhb, "above_int64")
        m["fourier.q_bits_max"] = max((sp["info"]["q_bits"] for sp in spans if sp["name"] == mhb), default=0)
        m["fourier.csv_bytes"] = total("fourier.write_coeffs_csv", "bytes")

        scan, certs = "ap_verifier.cross_cell_scan", "ap_verifier.node_certificates"
        m["ap_verifier.cell_pairs"] = total(scan, "pairs")
        m["ap_verifier.ns_per_pair"] = ratio(self_s[scan] * 1e9, m["ap_verifier.cell_pairs"])
        m["ap_verifier.triples_found"] = total(scan, "triples")
        m["ap_verifier.internal_nodes"] = total(certs, "internal")
        m["ap_verifier.multi_child_nodes"] = total(certs, "multi_child")
        m["ap_verifier.distinct_sets"] = total(certs, "distinct")
        m["ap_verifier.oracle_dedup_ratio"] = ratio(m["ap_verifier.distinct_sets"], m["ap_verifier.multi_child_nodes"])

        fs = "regularity.frostman_scan"
        m["regularity.ball_evals"] = sum(self._ball_evals(sp["info"]) for sp in spans if sp["name"] == fs)
        m["regularity.ns_per_ball_eval"] = ratio(self_s[fs] * 1e9, m["regularity.ball_evals"])

        li = "cantor_tree.level_intervals"
        distinct = {(id(sp["info"]["tree"]), sp["info"]["n"]) for sp in spans if sp["name"] == li}
        m[f"{li}.distinct"] = len(distinct)
        m[f"{li}.reuse_ratio"] = ratio(len(distinct), calls[li])
        m["cantor_tree.tree_json_bytes"] = total("cantor_tree.save_tree", "bytes")
        m["trace.op_s"] = op_s
        return m


def median_metrics(per_op: List[Dict[str, float]]) -> Dict[str, float]:
    return {k: statistics.median(d[k] for d in per_op) for k in per_op[0]}
