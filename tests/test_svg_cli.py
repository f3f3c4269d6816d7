"""SVG emission and the command-line pipelines.

SVG checks parse emitted documents with ElementTree and invert the
calibration attributes on the root element to recover data coordinates
from pixel paths.  CLI checks drive run() in-process and assert on exit
codes, emitted files, and stream contents.
"""

import json
import math
import time
import tracemalloc
import xml.etree.ElementTree as ET
from fractions import Fraction
from random import Random

import pytest

import cantorsalem as cs
from cantorsalem import cantor_tree, cli, discrete_ap, fourier, regularity
from cantorsalem.cli import run

F = Fraction

W, H = 640.0, 480.0
ML, MR, MT, MB = 70.0, 20.0, 20.0, 50.0


def calibration(root):
    return tuple(float(root.attrib[f"data-{a}"]) for a in ("x0", "x1", "y0", "y1"))


def invert(root, px, py):
    """Map emitted pixel coordinates back to data coordinates."""
    x0, x1, y0, y1 = calibration(root)
    x = x0 + (px - ML) / (W - ML - MR) * (x1 - x0)
    y = y0 + (H - MB - py) / (H - MT - MB) * (y1 - y0)
    return x, y


def by_id(root, elem_id):
    for el in root.iter():
        if el.attrib.get("id") == elem_id:
            return el
    return None


def path_points(el):
    tokens = el.attrib["d"].replace("M", " ").replace("L", " ").split()
    vals = [float(t) for t in tokens]
    return list(zip(vals[::2], vals[1::2]))


def data_points(root, elem_id):
    el = by_id(root, elem_id)
    assert el is not None, f"missing element #{elem_id}"
    return [invert(root, px, py) for px, py in path_points(el)]


@pytest.fixture(scope="module")
def fixture_profile(fixture_tree):
    coeffs = cs.mu_hat_batch(fixture_tree, 4, range(1, 4097))
    return cs.decay_profile(coeffs)


# --- emit_svg: decay profiles ---


def test_minimal_three_band_profile_renders_wellformed():
    ks = tuple(range(1, 8))
    values = tuple(complex(k ** -0.25, 0) for k in ks)
    profile = cs.decay_profile(cs.FourierCoeffs(1, ks, values))
    root = ET.fromstring(cs.emit_svg(profile))
    assert root.tag == "{http://www.w3.org/2000/svg}svg"
    assert len(calibration(root)) == 4
    assert by_id(root, "fit-line") is not None
    dots = [el for el in root.iter() if el.attrib.get("class") == "band-sup"]
    assert len(dots) == 3


def test_fit_line_slope_encodes_fitted_exponent(fixture_profile):
    root = ET.fromstring(cs.emit_svg(fixture_profile))
    (xa, ya), (xb, yb) = data_points(root, "fit-line")
    slope = (yb - ya) / (xb - xa)
    assert slope == pytest.approx(-fixture_profile.sigma_hat / 2.0, abs=1e-3)
    # intercept pins the fitted constant
    assert ya == pytest.approx(math.log10(fixture_profile.C_hat) + slope * xa, abs=1e-3)


def test_target_line_uses_requested_envelope(fixture_profile):
    # the target envelope C_hat k^(-sigma/2) shares the fitted constant
    root = ET.fromstring(cs.emit_svg(fixture_profile, sigma=0.4))
    pts = data_points(root, "target-line")
    (xa, ya), (xb, yb) = pts
    assert (yb - ya) / (xb - xa) == pytest.approx(-0.2, abs=1e-3)
    assert ya == pytest.approx(math.log10(fixture_profile.C_hat) - 0.2 * xa, abs=2e-3)
    # without sigma no target line is drawn
    bare = ET.fromstring(cs.emit_svg(fixture_profile))
    assert by_id(bare, "target-line") is None


def test_flat_zero_profile_renders_annotation(uniform_tree):
    coeffs = cs.mu_hat_batch(uniform_tree, 3, range(1, 16))
    profile = cs.decay_profile(coeffs)
    assert profile.flat_zero
    root = ET.fromstring(cs.emit_svg(profile))
    note = by_id(root, "annotation")
    assert note is not None
    assert "no decay data" in note.text


# --- emit_svg: regularity reports ---


def test_regularity_svg_draws_curves_and_references(fixture_tree):
    report = cs.frostman_scan(fixture_tree, 3)
    root = ET.fromstring(cs.emit_svg(report))
    assert by_id(root, "upper-curve") is not None
    assert by_id(root, "lower-curve") is not None
    ref = data_points(root, "upper-reference")
    for _, y in ref:
        assert y == pytest.approx(math.log10(51.0), abs=1e-3)
    ref_lo = data_points(root, "lower-reference")
    for _, y in ref_lo:
        assert y == pytest.approx(math.log10(report.reference_lower), abs=1e-3)
    assert len(data_points(root, "upper-curve")) == len(report.radii)


def test_regularity_svg_without_structural_references(uniform_tree):
    report = cs.frostman_scan(uniform_tree, 3, t=1, radii=(F(1, 4), F(1, 8), F(1, 16)))
    root = ET.fromstring(cs.emit_svg(report))
    assert by_id(root, "upper-curve") is not None
    assert by_id(root, "upper-reference") is None
    assert by_id(root, "lower-reference") is None


def test_regularity_svg_without_curves_annotates():
    report = cs.RegularityReport(
        t=F(1, 2),
        radii=(F(1, 2),),
        c_upper=2.0,
        c_lower=1.0,
        upper_witness=(F(0), F(1, 2)),
        lower_witness=(F(0), F(1, 2)),
        variant="custom",
    )
    root = ET.fromstring(cs.emit_svg(report))
    assert "no per-radius data" in by_id(root, "annotation").text


def test_emit_svg_refuses_a_non_finite_sigma(fixture_profile):
    # the target line used to come out as d="M 70.000 nan L 620.000 nan"
    for sigma in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="sigma must be finite"):
            cs.emit_svg(fixture_profile, sigma=sigma)


def test_emit_svg_rejects_foreign_objects():
    with pytest.raises(ValueError):
        cs.emit_svg(42)
    with pytest.raises(ValueError):
        cs.emit_svg("not a report")


# --- CLI ---


GOOD_BUILD = [
    "build", "--variant", "A", "--m", "25", "--t", "0.4",
    "--elements", "2,4,8,10", "--depth", "4", "--seed", "42",
]
BAD_BUILD = [
    "build", "--variant", "custom", "--m", "10",
    "--elements", "0,1,2", "--depth", "1", "--seed", "0",
]


def build_tree_file(tmp_path, name="tree.json", argv=GOOD_BUILD, capsys=None):
    out = tmp_path / name
    assert run(argv + ["--out", str(out)]) == 0
    assert out.exists()
    if capsys is not None:
        capsys.readouterr()
    return out


def test_build_then_verify_certifies_fixture(tmp_path, capsys):
    out = build_tree_file(tmp_path, capsys=capsys)
    assert run(["verify-ap", "--tree", str(out), "--depth", "4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["certificate"]["certified"] is True
    assert payload["certificate"]["level"] == 4


def test_verify_rejects_progression_carrying_tree(tmp_path, capsys):
    out = build_tree_file(tmp_path, "bad.json", BAD_BUILD, capsys=capsys)
    assert run(["verify-ap", "--tree", str(out)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["certificate"]["certified"] is False
    assert payload["certificate"]["feasible_triples"]


def test_build_rejects_unreachable_dimension(tmp_path, capsys):
    out = tmp_path / "x.json"
    argv = [
        "build", "--variant", "A", "--m", "25", "--t", "0.9",
        "--elements", "2,4,8,10", "--depth", "3", "--out", str(out),
    ]
    assert run(argv) == 2
    assert not out.exists()
    assert "error" in capsys.readouterr().err


def test_build_names_the_flag_the_default_base_set_needs(tmp_path, capsys):
    # variant A's default base set is doubled from behrend_sphere(m // 5), which needs m // 5 >= 1
    out = tmp_path / "a.json"
    argv = ["build", "--variant", "A", "--m", "4", "--t", "0.5", "--depth", "2", "--out", str(out), "--json"]
    assert run(argv) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["code"] == 2 and "at least 5 for the default base set" in err["error"]
    assert "m_prime" not in err["error"]  # no flag the command does not have
    assert not out.exists()


def test_negative_levels_are_refused_as_outside_the_realized_depth(tmp_path, capsys):
    tree_path = build_tree_file(tmp_path, capsys=capsys)
    csv_path = tmp_path / "coeffs.csv"
    commands = [
        ["fourier", "--tree", str(tree_path), "--level", "-1", "--k-max", "8", "--out", str(csv_path)],
        ["verify-ap", "--tree", str(tree_path), "--depth", "-1"],
        ["increments", "--tree", str(tree_path), "--level", "-1", "--sigma", "0.4"],
    ]
    refusal = {"code": 2, "error": "level -1 outside [0, 4], the realized depth"}
    for argv in commands:
        assert run(argv + ["--json"]) == 2, argv
        assert json.loads(capsys.readouterr().err) == refusal
    assert not csv_path.exists()


def test_build_reports_single_child_levels_without_a_base_set(tmp_path, capsys):
    # L = (9, 9, 1): the last level keeps one child and carries no base set
    out = tmp_path / "single.json"
    argv = ["build", "--variant", "A", "--m", "100", "--t", "0.3", "--depth", "3", "--seed", "5", "--out", str(out), "--json"]
    assert run(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["branching"] == [9, 9, 1]
    assert payload["base_sets"][2] is None
    assert payload["base_sets"][0] == {"method": None, "modulus": 100, "size": 9}
    assert cs.load_tree(str(out)).schedule.L == (9, 9, 1)


def test_build_refuses_a_base_above_2_64_before_drawing(tmp_path, capsys):
    # no 64-bit word is accepted for such a base, so the draw would never end
    argv = ["build", "--variant", "custom", "--elements", "0,1,2", "--depth", "1", "--seed", "1"]
    out = tmp_path / "wide.json"
    start = time.perf_counter()
    assert run(argv + ["--m", str(2 ** 64 + 3), "--out", str(out)]) == 2
    assert time.perf_counter() - start < 1.0
    assert not out.exists()
    assert "exceeds 2^64" in capsys.readouterr().err
    with pytest.raises(ValueError):
        cs.derive_translation(1, (), 2 ** 64 + 1)
    assert run(argv + ["--m", str(2 ** 64), "--out", str(out)]) == 0
    assert cs.load_tree(str(out)).schedule.M == (2 ** 64,)


def test_missing_tree_file_is_io_error(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert run(["verify-ap", "--tree", missing]) == 3
    capsys.readouterr()
    assert run(["verify-ap", "--tree", missing, "--json"]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    doc = json.loads(err)
    assert doc["code"] == 3
    assert "error" in doc


def test_corrupt_and_schema_violating_trees_are_io_errors(tmp_path, capsys):
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json", encoding="utf-8")
    assert run(["verify-ap", "--tree", str(garbled)]) == 3
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"version": 1}), encoding="utf-8")
    assert run(["verify-ap", "--tree", str(wrong)]) == 3
    capsys.readouterr()


# files json.load cannot decode: each raises a ValueError subclass or RecursionError
_UNDECODABLE = {
    "non-utf8": b'\xff{"version": 1}',
    "over-long-integer": b'{"version": 1' + b"0" * 5000 + b"}",
    "deep-nesting": b"[" * 100_000 + b"]" * 100_000,
}


@pytest.mark.parametrize("content", _UNDECODABLE.values(), ids=_UNDECODABLE.keys())
def test_undecodable_tree_files_are_schema_errors(tmp_path, capsys, content):
    tree_path = tmp_path / "tree.json"
    tree_path.write_bytes(content)
    assert run(["verify-ap", "--tree", str(tree_path), "--json"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    err = json.loads(captured.err)
    assert err["code"] == 3 and err["error"].startswith("not valid JSON")


def test_usage_errors_exit_two(tmp_path, capsys):
    assert run([]) == 2
    assert run(["bogus"]) == 2
    assert run(["fourier", "--tree", "x.json", "--level", "1"]) == 2  # missing --k-max
    assert run(["build", "--variant", "B", "--m", "4", "--depth", "3", "--out", "x"]) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    out = capsys.readouterr().out
    assert "verify-ap" in out and "uniformity-demo" in out


def test_repeated_runs_in_one_process_are_identical(tmp_path, capsys):
    # help, usage, range, I/O and success paths give the same output on a
    # second pass through the same process
    missing = str(tmp_path / "nope.json")
    sequence = [
        ["--help"],
        ["build", "--help"],
        ["build", "--variant", "A", "--m", "25", "--t", "1/0", "--depth", "2", "--out", "unused.json"],
        ["fourier", "--tree", missing, "--level", "1", "--k-min", "5", "--k-max", "1", "--out", "unused.csv"],
        ["verify-ap", "--tree", missing],
        ["uniformity-demo", "--n", "9", "--elements", "0,3,6"],
    ]

    def one_pass():
        results = []
        for argv in sequence:
            rc = run(argv)
            captured = capsys.readouterr()
            results.append((rc, captured.out, captured.err))
        return results

    first = one_pass()
    assert [rc for rc, _, _ in first] == [0, 0, 2, 2, 3, 0]
    assert one_pass() == first


def test_repeated_builds_are_byte_identical(tmp_path, capsys):
    a = build_tree_file(tmp_path, "a.json")
    b = build_tree_file(tmp_path, "b.json")
    assert a.read_bytes() == b.read_bytes()
    capsys.readouterr()


def test_fourier_csv_matches_in_memory_pipeline(tmp_path, capsys):
    tree_path = build_tree_file(tmp_path, capsys=capsys)
    csv_path = tmp_path / "coeffs.csv"
    argv = [
        "fourier", "--tree", str(tree_path), "--level", "3",
        "--k-min", "0", "--k-max", "40", "--out", str(csv_path),
    ]
    assert run(argv) == 0
    capsys.readouterr()

    sched = cs.schedule_a(25, cs.ResidueSet.from_elements(25, (2, 4, 8, 10)), F(2, 5), 4)
    mem = cs.mu_hat_batch(cs.build_tree(sched, 42, 4), 3, range(0, 41))
    lines = csv_path.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "k,re,im,abs"
    assert len(lines) == 42
    for line in lines[1:]:
        k, re, im, mag = line.split(",")
        v = mem.value(int(k))
        assert float(re) == v.real and float(im) == v.imag
        assert float(mag) == abs(v)


def test_fourier_past_the_float_range_of_k_over_q_exits_zero(tmp_path, capsys):
    # k/Q = 10^400 / 390,625 overflows a float: one row holding a zero coefficient, not a traceback and exit 1
    tree_path = build_tree_file(tmp_path, capsys=capsys)
    csv_path = tmp_path / "coeffs.csv"
    k = str(10 ** 400 + 1)
    common = ["--tree", str(tree_path), "--level", "4", "--k-min", k, "--k-max", k, "--json"]
    assert run(["fourier", *common, "--out", str(csv_path)]) == 0
    assert json.loads(capsys.readouterr().out) == {"level": 4, "out": str(csv_path), "rows": 1}
    header, row = csv_path.read_text(encoding="utf-8").splitlines()
    assert header == "k,re,im,abs" and row.split(",")[0] == k
    assert [float(x) for x in row.split(",")[1:]] == [0.0, 0.0, 0.0]
    # decay reaches its fit and refuses the single frequency as too few bands
    assert run(["decay", *common]) == 2
    assert "need >= 3 complete dyadic bands" in json.loads(capsys.readouterr().err)["error"]


def test_huge_frequency_ranges_fail_fast(tmp_path, capsys):
    tree_path = build_tree_file(tmp_path, capsys=capsys)
    csv_path = tmp_path / "coeffs.csv"
    common = ["--tree", str(tree_path), "--level", "2"]
    fourier = ["fourier", *common, "--k-max", str(10 ** 12), "--out", str(csv_path)]
    assert run(fourier) == 2
    assert not csv_path.exists()
    assert "error" in capsys.readouterr().err
    assert run(fourier + ["--json"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    doc = json.loads(err)
    assert doc["code"] == 2
    assert str(cs.DEFAULT_K_CAP) in doc["error"]
    # one past the cap: k_min..k_max holds DEFAULT_K_CAP + 1 frequencies
    cap = cs.DEFAULT_K_CAP
    assert run(["fourier", *common, "--k-min", "5", "--k-max", str(cap + 5), "--out", str(csv_path)]) == 2
    capsys.readouterr()
    assert run(["decay", *common, "--k-max", str(cap + 1), "--json"]) == 2
    assert json.loads(capsys.readouterr().err)["code"] == 2


def test_fourier_work_above_the_budget_fails_fast(tmp_path, capsys, monkeypatch):
    tree_path = build_tree_file(tmp_path, capsys=capsys)
    tree = cs.load_tree(str(tree_path))
    one_seed = 16 + 1250 * 11 + 2 * (64 + 8192 * 13)  # increments 2 -> 3: one window at level 2, two at level 3
    monkeypatch.setattr(fourier, "MAX_WORK", one_seed)

    def refuse(*args):
        raise AssertionError("the kernel ran past MAX_WORK")

    monkeypatch.setattr(cli, "mu_hat_batch", refuse)
    common = ["--tree", str(tree_path), "--level", "4", "--json"]
    # 48 windows of 8,192 residues over Q_4 = 390,625 hold k = 0..10^6, and decay's bands 1..2^19 - 1
    for argv in (["fourier", *common, "--k-max", str(10 ** 6), "--out", str(tmp_path / "c.csv")],
                 ["decay", *common, "--k-max", str(2 ** 19 - 1)]):
        assert run(argv) == 2
        work = 48 * (256 + 8192 * 13)
        assert json.loads(capsys.readouterr().err) == {
            "code": 2, "error": f"Fourier work of {work} (windows x (P + W log2 W)) requested, limit is {one_seed}"}
    assert not (tmp_path / "c.csv").exists()
    # increments multiplies by --seeds: one seed fits the budget exactly, two do not
    increments = ["increments", "--tree", str(tree_path), "--level", "2", "--sigma", "0.4", "--json"]
    assert run(increments) == 0
    assert json.loads(capsys.readouterr().out)["total_scanned"] == 2 * (tree.schedule.Q(3) - 1)
    monkeypatch.setattr(cli, "increment_scan", refuse)
    assert run(increments + ["--seeds", "2"]) == 2
    assert f"work of {2 * one_seed} " in json.loads(capsys.readouterr().err)["error"]


def test_decay_pipeline_writes_svg_and_profile(tmp_path, capsys):
    tree_path = build_tree_file(tmp_path, capsys=capsys)
    svg_path = tmp_path / "decay.svg"
    json_path = tmp_path / "profile.json"
    argv = [
        "decay", "--tree", str(tree_path), "--level", "3", "--k-max", "512",
        "--svg", str(svg_path), "--sigma", "0.4", "--out", str(json_path), "--json",
    ]
    assert run(argv) == 0
    stdout = capsys.readouterr().out
    assert stdout.count("\n") == 1
    payload = json.loads(stdout)
    assert payload["profile"]["sigma_hat"] is not None

    root = ET.fromstring(svg_path.read_text(encoding="utf-8"))
    assert by_id(root, "fit-line") is not None
    assert by_id(root, "target-line") is not None
    saved = json.loads(json_path.read_text(encoding="utf-8"))
    assert saved["profile"]["band_lows"] == payload["profile"]["band_lows"]

    # determinism: a rerun reproduces the profile byte for byte
    rerun = tmp_path / "profile2.json"
    assert run(argv[:-2] + [str(rerun), "--json"]) == 0
    capsys.readouterr()
    assert rerun.read_bytes() == json_path.read_bytes()


def test_decay_refuses_a_non_finite_sigma_before_loading_the_tree(tmp_path, capsys):
    # the tree file is missing, so loading it first would exit 3
    svg = tmp_path / "decay.svg"
    for sigma in ("nan", "inf"):
        argv = ["decay", "--tree", str(tmp_path / "missing.json"), "--level", "3", "--k-max", "512",
                "--sigma", sigma, "--svg", str(svg), "--json"]
        assert run(argv) == 2
        assert json.loads(capsys.readouterr().err) == {"code": 2, "error": f"--sigma must be finite, got {sigma}"}
    assert not svg.exists()


def test_decay_evaluates_only_bands_at_or_above_k_min(tmp_path, capsys, monkeypatch):
    tree_path = build_tree_file(tmp_path, capsys=capsys)
    batches = []
    batch = cli.mu_hat_batch
    monkeypatch.setattr(cli, "mu_hat_batch", lambda tree, n, ks: batches.append(list(ks)) or batch(tree, n, ks))
    argv = ["decay", "--tree", str(tree_path), "--level", "4", "--k-min", "512", "--k-max", "4095", "--json"]
    assert run(argv) == 0
    assert batches == [list(range(512, 4096))]
    tree = cs.load_tree(str(tree_path))
    expected = cs.decay_profile(cs.mu_hat_batch(tree, 4, range(1, 4096)), k_min=512)
    assert capsys.readouterr().out == cli._dumps({"level": 4, "profile": expected}) + "\n"
    # no band fits between --k-min and --k-max: the profile still reports it
    assert run(argv[:5] + ["--k-min", "513", "--k-max", "600", "--json"]) == 2
    assert batches[1] == [600]
    assert "need >= 3 complete dyadic bands above k_min, got 0" in capsys.readouterr().err


def test_increments_k_cap_fails_fast(tmp_path, capsys, monkeypatch):
    deep = build_tree_file(tmp_path, "deep.json", GOOD_BUILD[:-4] + ["--depth", "5", "--seed", "42"], capsys)
    small = build_tree_file(tmp_path, "small.json", GOOD_BUILD[:-4] + ["--depth", "2", "--seed", "42"], capsys)
    scan = cli.increment_scan

    def refuse(*args):
        raise AssertionError("increment_scan ran past DEFAULT_K_CAP")

    monkeypatch.setattr(cli, "increment_scan", refuse)
    # level 4 -> 5 holds Q_5 - 1 = 25^5 - 1 frequencies, all under --k-cap 10^7
    for seeds in ("1", "3"):
        argv = ["increments", "--tree", str(deep), "--level", "4", "--sigma", "0.4",
                "--k-cap", str(10 ** 7), "--seeds", seeds, "--json"]
        assert run(argv) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["code"] == 2
        assert err["error"] == f"{25 ** 5 - 1} frequencies requested, limit is {cs.DEFAULT_K_CAP}"
    # a large --k-cap on a shallow tree still scans every 0 < k < Q_2
    monkeypatch.setattr(cli, "increment_scan", scan)
    argv = ["increments", "--tree", str(small), "--level", "1", "--sigma", "0.4", "--k-cap", str(10 ** 7), "--json"]
    assert run(argv) == 0
    assert json.loads(capsys.readouterr().out)["total_scanned"] == 2 * 624


def test_increments_multi_seed_aggregation(tmp_path, capsys):
    tree_path = build_tree_file(tmp_path, capsys=capsys)
    argv = [
        "increments", "--tree", str(tree_path), "--level", "2", "--sigma", "0.4",
        "--k-cap", "200", "--seeds", "3", "--json",
    ]
    assert run(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["runs"]) == 3
    seeds = [r["seed"] for r in payload["runs"]]
    assert seeds == [13679457532755275413, 2949826092126892291, 5139283748462763858]
    assert seeds == [cs.derive_run_seed(42, i) for i in range(3)]
    assert payload["total_scanned"] == sum(r["scanned"] for r in payload["runs"])
    assert 0.0 <= payload["exceedance_frequency"] <= 1.0


def test_increments_builds_derived_trees_only_to_the_scanned_levels(tmp_path, capsys, monkeypatch):
    # the scan reads levels n and n + 1, which a derived tree's seed decides whatever its depth
    tree_path = build_tree_file(tmp_path, capsys=capsys)
    argv = ["increments", "--tree", str(tree_path), "--level", "1", "--sigma", "0.4", "--seeds", "5", "--json"]
    depths = []
    monkeypatch.setattr(cli, "build_tree", lambda sched, seed, depth: depths.append(depth) or cs.build_tree(sched, seed, depth))
    assert run(argv) == 0
    shallow = capsys.readouterr().out
    assert depths == [2] * 5
    monkeypatch.setattr(cli, "build_tree", lambda sched, seed, depth: cs.build_tree(sched, seed, 4))
    assert run(argv) == 0
    assert capsys.readouterr().out == shallow


def test_increments_keeps_one_report_at_a_time(tmp_path, capsys):
    # each run's report holds all its scanned frequencies; several seeds must
    # peak near one seed, not grow by a report per seed
    tree_path = build_tree_file(tmp_path, capsys=capsys)
    argv = ["increments", "--tree", str(tree_path), "--level", "3", "--sigma", "0.4", "--k-cap", "20000", "--json"]
    peaks = []
    for seeds in ("1", "4"):
        tracemalloc.start()
        try:
            assert run(argv + ["--seeds", seeds]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert len(json.loads(capsys.readouterr().out)["runs"]) == int(seeds)
    assert peaks[1] < 1.2 * peaks[0]


def test_regularity_scan_with_dump_and_svg(tmp_path, capsys):
    tree_path = build_tree_file(tmp_path, capsys=capsys)
    dump = tmp_path / "rows.csv"
    svg = tmp_path / "reg.svg"
    argv = [
        "regularity", "--tree", str(tree_path), "--level", "3",
        "--dump", str(dump), "--svg", str(svg),
    ]
    assert run(argv) == 0
    capsys.readouterr()
    lines = dump.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "x,r,mass,ratio"
    # 64 level-3 cell midpoints x 10 dyadic radii above the floor 25/Q_3
    assert len(lines) == 1 + 64 * 10
    x, r, mass, ratio = lines[1].split(",")
    assert F(mass) <= 1 and F(r) <= 1 and 0 <= F(x) < 1
    float(ratio)
    root = ET.fromstring(svg.read_text(encoding="utf-8"))
    assert by_id(root, "upper-curve") is not None


def test_regularity_dump_builds_each_level_once(tmp_path, capsys, monkeypatch):
    # every dump row reads the level the tree realized when it loaded; a
    # rebuild per row made the dump O(P^2 R)
    tree_path = build_tree_file(tmp_path, capsys=capsys)
    built = []
    step_measure = cantor_tree.StepMeasure
    monkeypatch.setattr(cantor_tree, "StepMeasure", lambda n, *rest: built.append(n) or step_measure(n, *rest))
    argv = ["regularity", "--tree", str(tree_path), "--level", "3", "--dump", str(tmp_path / "rows.csv")]
    assert run(argv + ["--svg", str(tmp_path / "reg.svg")]) == 0
    assert run(argv + ["--line"]) == 0
    capsys.readouterr()
    assert built == [0, 1, 2, 3, 4] * 2  # levels 0..depth once per run, each run loading its own tree


def test_regularity_oversize_grid_fails_fast(tmp_path, capsys, monkeypatch):
    def no_points(*args):
        raise AssertionError("scan points built before the grid check")

    monkeypatch.setattr(regularity, "_Lattice", no_points)
    tree_path = build_tree_file(tmp_path, capsys=capsys)
    assert run(["regularity", "--tree", str(tree_path), "--level", "3", "--grid", str(10 ** 9), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    err = json.loads(captured.err)
    assert err["code"] == 2 and "limit is" in err["error"]


def test_regularity_line_dump_uses_line_balls(tmp_path, capsys):
    seed_1 = GOOD_BUILD[:-2] + ["--seed", "1"]
    tree_path = build_tree_file(tmp_path, "seed1.json", seed_1, capsys=capsys)
    dump = tmp_path / "rows.csv"
    assert run(["regularity", "--tree", str(tree_path), "--level", "3", "--line", "--dump", str(dump)]) == 0
    capsys.readouterr()
    tree = cs.load_tree(str(tree_path))
    rows = [line.split(",") for line in dump.read_text(encoding="utf-8").splitlines()[1:]]
    assert len(rows) == 64 * 10
    for x, r, mass, _ in rows:
        assert F(mass) == cs.ball_mass(tree, 3, F(x), F(r), circle=False)


@pytest.mark.parametrize("line", [False, True])
def test_regularity_dump_past_one_block_matches_scalar_ball_masses(tmp_path, capsys, monkeypatch, line):
    # level 5: 1,024 midpoints x 19 radii = 19,456 masses, more than two kernel blocks
    depth_5 = GOOD_BUILD[:-4] + ["--depth", "5", "--seed", "42"]
    tree_path = build_tree_file(tmp_path, "depth5.json", depth_5, capsys=capsys)
    shapes, kernel = [], []
    ball_mass, masses = cli.ball_mass, regularity._Lattice.masses

    def recording_ball_mass(*args, **kwargs):
        result = ball_mass(*args, **kwargs)
        shapes.append(result.shape)
        return result

    def recording_masses(self, xs, rs, circle):
        kernel.append(len(xs) * len(rs))
        return masses(self, xs, rs, circle)

    monkeypatch.setattr(cli, "ball_mass", recording_ball_mass)
    monkeypatch.setattr(regularity._Lattice, "masses", recording_masses)
    dump = tmp_path / "rows.csv"
    argv = ["regularity", "--tree", str(tree_path), "--level", "5", "--dump", str(dump), "--json"]
    assert run(argv + ["--line"] * line) == 0
    report = json.loads(capsys.readouterr().out)["report"]
    monkeypatch.undo()
    tree = cs.load_tree(str(tree_path))
    step = cs.level_intervals(tree, 5)
    radii, t = [F(r) for r in report["radii"]], F(report["t"])
    assert len(step.offsets) * len(radii) == 1024 * 19 > 2 * regularity._BLOCK_ELEMS
    assert shapes == [(431, 19), (431, 19), (162, 19)]  # one ball_mass matrix per block of midpoints
    assert max(kernel) <= regularity._BLOCK_ELEMS
    rows = [line.split(",") for line in dump.read_text(encoding="utf-8").splitlines()[1:]]
    assert [(F(x), F(r)) for x, r, _, _ in rows] == [
        (F(2 * c + 1, 2 * step.Q), r) for c in step.offsets.tolist() for r in radii
    ]
    for x, r, mass, ratio in rows:
        want = cs.ball_mass(tree, 5, F(x), F(r), circle=not line)
        assert (F(mass), ratio) == (want, repr(regularity._ratio_float(want, F(r), t)))


def test_regularity_without_level_is_usage_error(tmp_path, capsys):
    tree_path = build_tree_file(tmp_path, capsys=capsys)
    assert run(["regularity", "--tree", str(tree_path)]) == 2
    assert "--level" in capsys.readouterr().err
    assert run(["regularity", "--tree", str(tree_path), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert json.loads(captured.err)["code"] == 2


def test_regularity_bound_violation_exits_one(tmp_path, capsys):
    tree_path = build_tree_file(tmp_path, capsys=capsys)
    assert run(["regularity", "--tree", str(tree_path), "--level", "3", "--t", "0.01", "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    doc = json.loads(captured.err)
    assert doc["code"] == 1
    assert "regularity bound violated" in doc["error"]
    # the line names the first failed bound (lower at t = 0.01, upper at t = 1)
    tree = cs.load_tree(str(tree_path))
    assert doc["error"] == f"regularity bound violated: {cs.frostman_scan(tree, 3, t=F('0.01')).violation}"
    assert run(["regularity", "--tree", str(tree_path), "--level", "3", "--t", "1", "--json"]) == 1
    upper = cs.frostman_scan(tree, 3, t=1).violation
    assert json.loads(capsys.readouterr().err)["error"] == f"regularity bound violated: {upper}"
    # a passing scan keeps the violation out of its JSON report
    assert run(["regularity", "--tree", str(tree_path), "--level", "3", "--json"]) == 0
    assert "violation" not in json.loads(capsys.readouterr().out)["report"]


def test_oversize_trees_fail_fast(tmp_path, capsys):
    out = tmp_path / "huge.json"
    argv = GOOD_BUILD[:-4] + ["--depth", "20", "--out", str(out), "--json"]
    assert run(argv) == 2
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert json.loads(captured.err)["code"] == 2
    # a hand-edited tree file whose schedule asks for 4^20 cells
    tree_path = build_tree_file(tmp_path, capsys=capsys)
    doc = json.loads(tree_path.read_text(encoding="utf-8"))
    doc.update(variant="custom", t=None, depth=20, M=[25] * 20, L=[4] * 20, base_sets=doc["base_sets"][:1] * 20)
    tree_path.write_text(json.dumps(doc), encoding="utf-8")
    assert run(["verify-ap", "--tree", str(tree_path), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    err = json.loads(captured.err)
    assert err["code"] == 2 and "limit is" in err["error"]


def _alias_beside(doc):
    key = next(k for k in doc["translations"] if len(k.split(".")[0]) == 2)
    doc["translations"]["0" + key] = doc["translations"][key]


# edit -> start of the error message
_HAND_EDITS = {
    "alias": (_alias_beside, "malformed path key"),
    "bool-seed": (lambda doc: doc.update(seed=True), "seed and depth must be integers"),
    "zero-denominator-t": (lambda doc: doc.update(t="1/0"), "invalid schedule"),
    "float-base-set-modulus": (lambda doc: doc["base_sets"][0].update(m=25.7), "invalid schedule"),
    "float-bases": (lambda doc: doc.update(M=[float(m) for m in doc["M"]]), "invalid schedule"),
    "bool-element": (lambda doc: doc["base_sets"][0]["elements"].__setitem__(0, True), "invalid schedule"),
    # variant A's dimension t lies strictly between 0 and 1, as schedule_a requires
    **{f"variant-A-t-{t}": (lambda doc, t=t: doc.update(t=t), "invalid schedule") for t in (-0.4, 0, 1, 1e308, "7/3")},
}


@pytest.mark.parametrize("edit, message", _HAND_EDITS.values(), ids=_HAND_EDITS.keys())
def test_hand_edited_tree_documents_are_schema_errors(tmp_path, capsys, edit, message):
    tree_path = build_tree_file(tmp_path, capsys=capsys)
    doc = json.loads(tree_path.read_text(encoding="utf-8"))
    edit(doc)
    tree_path.write_text(json.dumps(doc), encoding="utf-8")
    assert run(["verify-ap", "--tree", str(tree_path), "--json"]) == 3
    captured = capsys.readouterr()
    err = json.loads(captured.err)
    assert captured.out == "" and err["code"] == 3 and err["error"].startswith(message)


def test_malformed_option_values_are_usage_errors(capsys):
    build = ["build", "--variant", "A", "--m", "25", "--depth", "2", "--out", "unused.json", "--json"]
    for argv in (
        build + ["--t", "1/0"],
        build + ["--t", "0.4", "--elements", "2,x"],
        build + ["--t", "0.4", "--elements", ","],
        ["regularity", "--tree", "unused.json", "--level", "2", "--radii", "1/2,1/0", "--json"],
    ):
        assert run(argv) == 2
        doc = json.loads(capsys.readouterr().err)
        assert doc["code"] == 2 and doc["error"].startswith("argument --")


def test_regularity_massband_check(tmp_path, capsys):
    out = tmp_path / "b.json"
    assert run(["build", "--variant", "B", "--depth", "6", "--seed", "1", "--out", str(out)]) == 0
    capsys.readouterr()
    argv = [
        "regularity", "--tree", str(out), "--check", "massband",
        "--levels", "4,5,6", "--json",
    ]
    assert run(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["check"] == "massband"
    assert payload["report"]["all_within"] is True
    assert [c["level"] for c in payload["report"]["checks"]] == [4, 5, 6]


def test_uniformity_demo_modes(capsys):
    assert run(["uniformity-demo", "--n", "9", "--mode", "single", "--elements", "0,3,6", "--json"]) == 0
    single = json.loads(capsys.readouterr().out)
    assert single["violation"] is False

    assert run(["uniformity-demo", "--n", "6", "--mode", "exhaustive", "--json"]) == 0
    exhaustive = json.loads(capsys.readouterr().out)
    assert exhaustive == {
        "mode": "exhaustive", "n": 6, "checked": 63, "condition_holds": 7, "violations": 0, "first_violation": None,
    }

    assert run(["uniformity-demo", "--n", "12", "--mode", "random", "--samples", "50", "--seed", "3", "--json"]) == 0
    random_mode = json.loads(capsys.readouterr().out)
    assert random_mode == {
        "mode": "random", "n": 12, "checked": 50, "condition_holds": 19, "violations": 0, "first_violation": None,
    }


def test_uniformity_demo_refuses_an_oversize_exhaustive_sweep_before_enumerating(monkeypatch, capsys):
    # 2^40 - 1 subsets at about 57 us each would never return
    def refuse(A):
        raise AssertionError("uniformity_demo ran before the subset bound was checked")

    monkeypatch.setattr(cli, "uniformity_demo", refuse)
    for n in ("21", "40"):
        assert run(["uniformity-demo", "--n", n, "--mode", "exhaustive", "--json"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"code": 2, "error": f"2^{n} - 1 subsets requested, limit is 2^20 - 1"}


def test_uniformity_demo_refuses_a_degenerate_n_or_sample_count_in_every_mode(monkeypatch, capsys):
    # --mode random --n 0 used to draw empty subsets forever; n = 1 has no DFT
    def refuse(*args):
        raise AssertionError("subsets enumerated before --n and --samples were checked")

    monkeypatch.setattr(cli, "uniformity_demo", refuse)
    monkeypatch.setattr(cli, "_random_subsets", refuse)
    for argv, n, samples in (
        (["--mode", "single", "--elements", "0"], "1", "2000"),
        (["--mode", "exhaustive"], "0", "2000"),
        (["--mode", "exhaustive"], "1", "2000"),
        (["--mode", "random"], "0", "2000"),
        (["--mode", "random"], "-3", "2000"),
        (["--mode", "random", "--samples", "0"], "12", "0"),
    ):
        assert run(["uniformity-demo", "--n", n, *argv, "--json"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"code": 2, "error": f"uniformity-demo needs --n >= 2 and --samples >= 1, got {n} and {samples}"}


def test_uniformity_demo_random_mode_is_bounded_before_drawing(monkeypatch, capsys):
    # --n 3000000 --samples 1 drew about 1.5 million elements before the DFT cap refused them,
    # and --samples had no bound at about 57 us per subset
    def refuse(*args):
        raise AssertionError("a subset was drawn before the random-mode bounds were checked")

    monkeypatch.setattr(cli, "_random_subsets", refuse)
    for n, samples, error in (
        (3_000_000, 1, f"at least 2999999 DFT matrix entries per subset, limit is {1 << 20}"),
        (2 ** 20 + 2, 1, f"at least {2 ** 20 + 1} DFT matrix entries per subset, limit is {1 << 20}"),
        (12, 2 ** 20, f"{2 ** 20} subsets requested, limit is 2^20 - 1"),
    ):
        assert run(["uniformity-demo", "--n", str(n), "--mode", "random", "--samples", str(samples), "--json"]) == 2
        assert json.loads(capsys.readouterr().err) == {"code": 2, "error": error}
    # both limits themselves are accepted
    monkeypatch.setattr(cli, "_random_subsets", lambda n, samples, rng: iter(()))
    argv = ["uniformity-demo", "--n", str(2 ** 20 + 1), "--mode", "random", "--samples", str(2 ** 20 - 1), "--json"]
    assert run(argv) == 0
    assert json.loads(capsys.readouterr().out)["checked"] == 0


def test_uniformity_demo_refuses_an_oversize_dft_matrix(capsys):
    # one element against 2^20 + 1 frequencies: one entry past the cap
    assert run(["uniformity-demo", "--n", str(2 ** 20 + 2), "--elements", "0", "--json"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {"code": 2, "error": f"{2 ** 20 + 1} DFT matrix entries requested, limit is {1 << 20}"}


def test_behrend_subcommand_reports_base_and_embedding(capsys):
    assert run(["behrend", "--m-prime", "5", "--json"]) == 0
    base = json.loads(capsys.readouterr().out)
    assert base["base"] == [1, 2, 4, 5]
    assert base["base_ap_free"] is True

    assert run(["behrend", "--m-prime", "5", "--m", "25", "--json"]) == 0
    embedded = json.loads(capsys.readouterr().out)
    assert embedded["elements"] == [2, 4, 8, 10]
    assert embedded["oracle_holds"] is True
    assert embedded["density"] == pytest.approx(4 / 25)


def test_behrend_refuses_m_prime_above_its_limit_before_enumerating(tmp_path, monkeypatch, capsys):
    def enumerate_shells(m_prime):
        raise AssertionError("the digit-sphere scan ran")

    monkeypatch.setattr(discrete_ap, "_best_sphere_shell", enumerate_shells)
    limit = discrete_ap._SPHERE_MAX_M_PRIME
    assert run(["behrend", "--m-prime", str(limit + 1), "--json"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {"code": 2, "error": f"digit sphere over 1..{limit + 1} requested, limit is {limit}"}
    # variant A without --elements takes its base set from behrend_sphere(m // 5)
    out = tmp_path / "a.json"
    argv = ["build", "--variant", "A", "--m", str(5 * (limit + 1)), "--t", "0.4", "--depth", "2", "--out", str(out)]
    assert run(argv + ["--json"]) == 2
    assert json.loads(capsys.readouterr().err)["code"] == 2 and not out.exists()


def test_commands_refuse_a_base_set_past_the_spanning_search_limit(tmp_path, monkeypatch, capsys):
    # with the limit lowered below 9^3, the 9-element set of behrend --m-prime 20 --m 100 is refused
    tree = tmp_path / "a.json"
    assert run(["build", "--variant", "A", "--m", "100", "--t", "0.4", "--depth", "2", "--out", str(tree)]) == 0
    capsys.readouterr()
    monkeypatch.setattr(discrete_ap, "_ORACLE_MAX_TRIPLES", 9 ** 3 - 1)
    refusal = {"code": 2, "error": f"spanning search over 9^3 triples refused, limit is {9 ** 3 - 1} triples"}
    for argv in (
        ["behrend", "--m-prime", "20", "--m", "100"],
        ["build", "--variant", "A", "--m", "100", "--t", "0.4", "--depth", "2", "--out", str(tmp_path / "b.json")],
        ["verify-ap", "--tree", str(tree)],
    ):
        assert run(argv + ["--json"]) == 2, argv
        assert json.loads(capsys.readouterr().err) == refusal
    assert not (tmp_path / "b.json").exists()
