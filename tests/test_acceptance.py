"""Acceptance suite: one test per release criterion.

Each test prints a single [PASS]/[FAIL] summary line with its runtime
(visible even under output capture) and then asserts every sub-check, so
a red line always comes with a pytest failure naming what broke.
"""

import math
import random
import statistics
import time
from fractions import Fraction

from scipy.integrate import quad

import cantorsalem as cs
from cantorsalem import cli
from conftest import make_fixture_schedule
from discrete_oracle import spanning_ap_bruteforce


class Checks:
    """Collects labeled failures so one summary line covers all sub-checks."""

    def __init__(self):
        self.failures = []

    def expect(self, cond, label):
        if not cond:
            self.failures.append(label)
        return cond

    @property
    def ok(self):
        return not self.failures


def _finish(capsys, num, checks, elapsed, budget, detail):
    if budget is not None and elapsed >= budget:
        checks.failures.append(f"runtime {elapsed:.1f}s exceeded the {budget:.0f}s budget")
    tag = "PASS" if checks.ok else "FAIL"
    with capsys.disabled():
        print(f"[{tag}] criterion {num}: {detail} [{elapsed:.1f}s]", flush=True)
    assert checks.ok, "; ".join(checks.failures[:8])


def test_criterion_01_oracle_agreement_exhaustive(capsys):
    t0 = time.monotonic()
    c = Checks()
    checked = 0
    for m in range(1, 9):
        for mask in range(1 << m):
            els = tuple(i for i in range(m) if mask >> i & 1)
            X = cs.ResidueSet.from_elements(m, els)
            verdict = cs.property_ii_oracle(X)
            rational = spanning_ap_bruteforce(X)
            checked += 1
            c.expect(verdict.holds == (rational is None), f"disagreement at m={m}, X={els}")
    elapsed = time.monotonic() - t0
    _finish(capsys, 1, c, elapsed, 30.0,
            f"integer reduction and rational point search agree on all {checked} subsets with m <= 8")


def test_criterion_02_behrend_doubling_pipeline(capsys):
    t0 = time.monotonic()
    c = Checks()
    sizes = []
    for m in (25, 50, 100):
        base = sorted(cs.behrend_sphere(m // 5))
        X = cs.double_embed(base, m)
        c.expect(cs.property_ii_oracle(X).holds, f"m={m}: oracle rejects the doubled set")
        c.expect(cs.is_ap_free(set(X.elements)), f"m={m}: doubled set has an integer progression")
        c.expect(X.elements == tuple(2 * x for x in base), f"m={m}: not exact elementwise doubling")
        c.expect(len(X.elements) == len(base), f"m={m}: doubling changed the cardinality")
        sizes.append(f"|X|={len(X.elements)}/{m}")
    elapsed = time.monotonic() - t0
    # density against m is report-only at these sizes
    _finish(capsys, 2, c, elapsed, 5.0,
            f"doubled Behrend sets certified for m in {{25, 50, 100}}; density {', '.join(sizes)}")


def test_criterion_03_fixture_certification_ten_seeds(capsys):
    t0 = time.monotonic()
    c = Checks()
    sched = make_fixture_schedule(4)
    for seed in range(10):
        tree = cs.build_tree(sched, seed, 4)
        c.expect(cs.node_certificates(tree).all_pass, f"seed {seed}: a node certificate failed")
        for level in range(1, 5):
            triples = cs.cross_cell_scan(tree, level)
            c.expect(not triples, f"seed {seed}: level {level} scan found {len(triples)} triples")
    elapsed = time.monotonic() - t0
    _finish(capsys, 3, c, elapsed, 10.0,
            "10 seeds at depth 4 (256 cells): all node certificates pass and every level scan is empty")


def test_criterion_04_negative_control(tmp_path, capsys, bad_tree):
    t0 = time.monotonic()
    c = Checks()
    c.expect(not cs.node_certificates(bad_tree).all_pass, "certificates unexpectedly pass")
    c.expect(len(cs.cross_cell_scan(bad_tree, 1)) > 0, "depth-1 scan unexpectedly empty")
    out = tmp_path / "bad.json"
    built = cli.run(["build", "--variant", "custom", "--m", "10", "--elements", "0,1,2",
                     "--depth", "1", "--seed", "0", "--out", str(out)])
    c.expect(built == 0, f"control tree build exited {built}")
    code = cli.run(["verify-ap", "--tree", str(out), "--depth", "1"])
    capsys.readouterr()
    c.expect(code == 1, f"verify-ap exited {code}, wanted 1")
    elapsed = time.monotonic() - t0
    _finish(capsys, 4, c, elapsed, None,
            "progression-carrying control: certificates fail, depth-1 scan nonempty, verify-ap exits 1")


def test_criterion_05_fourier_exactness(capsys, fixture_tree, halves_tree, uniform_tree, b_tree):
    t0 = time.monotonic()
    c = Checks()
    trees = {"fixture": fixture_tree, "halves": halves_tree,
             "uniform": uniform_tree, "factorial": b_tree}
    rng = random.Random(51420)
    ells = [e for e in range(-20, 21) if e != 0]
    quad_opts = {"epsabs": 1e-13, "epsrel": 1e-12, "limit": 200}
    quads = 0
    for name, tree in trees.items():
        top = tree.depth
        for n in range(1, top + 1):
            v = cs.mu_hat(tree, n, 0)
            c.expect(abs(v - 1) <= 1e-12, f"{name} level {n}: mu_hat(0) = {v!r}")
        batch = cs.mu_hat_batch(tree, top, range(-64, 65))
        table = dict(zip(batch.ks, batch.values))
        for k in range(1, 65):
            defect = abs(table[-k] - table[k].conjugate())
            c.expect(defect <= 1e-12, f"{name}: Hermitian defect {defect:.2e} at k={k}")
        q_top = tree.schedule.Q(top)
        for _ in range(100):
            k = rng.randrange(1, min(q_top, 10 ** 6))
            if rng.random() < 0.5:
                k = -k
            ell = rng.choice(ells)
            res = cs.modulation_check(tree, top, k, ell)
            c.expect(res <= 1e-9, f"{name}: modulation residual {res:.2e} at k={k}, ell={ell}")
        for n in range(1, top + 1):
            step = cs.level_intervals(tree, n)
            if step.cell_count > 64:
                continue
            got = cs.mu_hat_batch(tree, n, range(-32, 33))
            density = float(step.mass_per_cell * step.Q)
            for k, v in zip(got.ks, got.values):
                re = im = 0.0
                for cell in step.offsets.tolist():
                    a, b = cell / step.Q, (cell + 1) / step.Q
                    re += quad(lambda x: density * math.cos(2 * math.pi * k * x), a, b, **quad_opts)[0]
                    im -= quad(lambda x: density * math.sin(2 * math.pi * k * x), a, b, **quad_opts)[0]
                quads += 1
                gap = abs(v - complex(re, im))
                c.expect(gap <= 1e-8, f"{name} level {n}, k={k}: quadrature gap {gap:.2e}")
    elapsed = time.monotonic() - t0
    _finish(capsys, 5, c, elapsed, None,
            f"4 trees: mu_hat(0)=1 and Hermitian symmetry to 1e-12, 400 modulation residuals <= 1e-9, "
            f"{quads} quadrature comparisons within 1e-8")


def test_criterion_06_decay_trend_seed_median(capsys):
    t0 = time.monotonic()
    c = Checks()
    sched = make_fixture_schedule(5)
    sigma_hats = []
    for seed in range(5):
        tree = cs.build_tree(sched, seed, 5)
        prof = cs.decay_profile(cs.mu_hat_batch(tree, 5, range(1, 100001)))
        if not c.expect(prof.sigma_hat is not None, f"seed {seed}: no fitted exponent"):
            continue
        sigma_hats.append(prof.sigma_hat)
        lo = prof.band_lows[-1]
        c.expect(lo == 32768, f"seed {seed}: top complete band starts at {lo}")
        mid = lo + lo // 2
        envelope = 5.0 * prof.C_hat * mid ** (-prof.sigma_hat / 2.0)
        c.expect(prof.band_sups[-1] <= envelope,
                 f"seed {seed}: top band sup {prof.band_sups[-1]:.3e} above envelope {envelope:.3e}")
    med = statistics.median(sigma_hats) if sigma_hats else float("nan")
    c.expect(-0.05 <= med <= 0.55, f"median sigma_hat {med:.3f} outside [-0.05, 0.55]")
    elapsed = time.monotonic() - t0
    _finish(capsys, 6, c, elapsed, 120.0,
            f"5 seeds, depth 5, k <= 1e5: median fitted exponent {med:.3f} in [-0.05, 0.55], "
            f"top dyadic band under the 5*C_hat envelope")


def test_criterion_07_increment_concentration(capsys):
    t0 = time.monotonic()
    c = Checks()
    sched = make_fixture_schedule(3)
    proxy = None
    worst = 0.0
    pooled_exc = pooled_scanned = 0
    for seed in range(100):
        tree = cs.build_tree(sched, seed, 3)
        rep = cs.increment_scan(tree, 2, 0.4)
        proxy = rep.bound.union_proxy
        c.expect(rep.coverage == 1.0, f"seed {seed}: coverage {rep.coverage} < 1")
        freq = rep.exceedances / rep.scanned
        worst = max(worst, freq)
        pooled_exc += rep.exceedances
        pooled_scanned += rep.scanned
        if proxy < 0.01:
            c.expect(rep.exceedances == 0, f"seed {seed}: {rep.exceedances} exceedances under a tight proxy")
        c.expect(freq <= max(proxy, 0.05) + 0.05, f"seed {seed}: frequency {freq:.4f} above allowance")
    elapsed = time.monotonic() - t0
    _finish(capsys, 7, c, elapsed, 120.0,
            f"100 seeds, level 2 -> 3, sigma 0.4: union proxy {proxy:.3g}, worst frequency {worst:.4f}, "
            f"pooled {pooled_exc}/{pooled_scanned}")


def test_criterion_08_regularity_constants_every_seed(capsys):
    t0 = time.monotonic()
    c = Checks()
    sched = make_fixture_schedule(4)
    ref_lower = 25.0 ** -0.4 / 4.0
    max_upper, min_lower = 0.0, float("inf")
    for seed in range(10):
        tree = cs.build_tree(sched, seed, 4)
        rep = cs.frostman_scan(tree, 4)
        c.expect(rep.radii[0] == 1 and rep.radii[-1] >= Fraction(25, 390625),
                 f"seed {seed}: dyadic radii leave [M/Q_4, 1]")
        c.expect(rep.upper_ok is True, f"seed {seed}: exact upper-bound comparison failed")
        c.expect(rep.lower_ok is True, f"seed {seed}: exact lower-bound comparison failed")
        c.expect(rep.c_upper <= 51.0 * (1 + 1e-9), f"seed {seed}: C_upper {rep.c_upper:.6f} > 51")
        c.expect(rep.c_lower >= ref_lower * (1 - 1e-9), f"seed {seed}: C_lower {rep.c_lower:.6f} < {ref_lower:.6f}")
        max_upper = max(max_upper, rep.c_upper)
        min_lower = min(min_lower, rep.c_lower)
    elapsed = time.monotonic() - t0
    _finish(capsys, 8, c, elapsed, 30.0,
            f"10 seeds, depth 4, dyadic radii: C_upper <= 51 (max {max_upper:.2f}) and "
            f"C_lower >= {ref_lower:.4f} (min {min_lower:.4f}) by exact rational comparison")


def test_criterion_09_factorial_mass_bound(capsys, b_tree):
    t0 = time.monotonic()
    c = Checks()
    rep = cs.variant_b_mass_check(b_tree)
    c.expect(tuple(ch.level for ch in rep.checks) == tuple(range(4, 13)), "wrong level range")
    for ch in rep.checks:
        p_n = math.prod(b_tree.schedule.L[:ch.level])
        c.expect(ch.radius == Fraction(1, math.factorial(ch.level + 1)), f"level {ch.level}: radius {ch.radius}")
        c.expect(ch.cell_bound == Fraction(2, p_n), f"level {ch.level}: bound {ch.cell_bound} != 2/{p_n}")
        c.expect(ch.max_mass <= ch.cell_bound, f"level {ch.level}: max mass {ch.max_mass} above 2/P_n")
    c.expect(rep.all_within, "report not flagged all_within")
    elapsed = time.monotonic() - t0
    _finish(capsys, 9, c, elapsed, 60.0,
            "depth-12 factorial tree, levels 4..12 at r = 1/(n+1)!: scanned ball mass <= 2/P_n exactly")


def _counting_ap_exists(elements, n):
    """Progression x, x+d, x+2d mod n with d != 0; repeated endpoints allowed."""
    in_set = set(elements)
    return any(x != y and (2 * y - x) % n in in_set for x in elements for y in elements)


def _distinct_ap_exists(elements, n):
    in_set = set(elements)
    for x in elements:
        for y in elements:
            if x != y:
                z = (2 * y - x) % n
                if z != x and z in in_set:
                    return True
    return False


def test_criterion_10_uniformity_forces_progressions(capsys):
    t0 = time.monotonic()
    c = Checks()
    checked = uniform = 0
    degenerate = set()

    def inspect(n, els):
        nonlocal checked, uniform
        checked += 1
        rep = cs.uniformity_demo(cs.ResidueSet.from_elements(n, els))
        if not rep.condition_holds:
            return
        uniform += 1
        c.expect(_counting_ap_exists(els, n), f"uniform subset with no progression: n={n}, A={els}")
        if rep.ap is not None:
            trip = (rep.ap.a, rep.ap.b, rep.ap.c)
            c.expect(len(set(trip)) == 3 and (rep.ap.a + rep.ap.c - 2 * rep.ap.b) % n == 0
                     and all(e in els for e in trip), f"invalid witness {trip} for n={n}, A={els}")
        else:
            # without a pairwise-distinct witness the only progressions left
            # are the antipodal pattern x, x + n/2, x, which needs n even
            c.expect(n % 2 == 0 and not _distinct_ap_exists(els, n),
                     f"witness missing despite a non-degenerate progression: n={n}, A={els}")
            degenerate.add((n, els))

    for n in range(2, 15):
        for mask in range(1 << n):
            inspect(n, tuple(i for i in range(n) if mask >> i & 1))
    for n in range(2, 21):
        rng = random.Random(1000 + n)
        for _ in range(2000):
            inspect(n, tuple(i for i in range(n) if rng.getrandbits(1)))
    elapsed = time.monotonic() - t0
    _finish(capsys, 10, c, elapsed, 120.0,
            f"{checked} subsets, {uniform} uniform, zero without a progression; "
            f"degenerate-only cases: {sorted(degenerate)}")
