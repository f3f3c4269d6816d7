"""SVG emission and the command-line pipelines.

SVG checks parse emitted documents with ElementTree and invert the
calibration attributes on the root element to recover data coordinates
from pixel paths.  CLI checks drive run() in-process and assert on exit
codes, emitted files, and stream contents.
"""

import json
import math
import xml.etree.ElementTree as ET
from fractions import Fraction
from random import Random

import pytest

import cantorsalem as cs
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
    root = ET.fromstring(cs.emit_svg(fixture_profile, sigma=0.4, C=2.0))
    pts = data_points(root, "target-line")
    (xa, ya), (xb, yb) = pts
    assert (yb - ya) / (xb - xa) == pytest.approx(-0.2, abs=1e-3)
    assert ya == pytest.approx(math.log10(2.0) - 0.2 * xa, abs=2e-3)
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
    assert len(set(seeds)) == 3
    assert payload["total_scanned"] == sum(r["scanned"] for r in payload["runs"])
    assert 0.0 <= payload["exceedance_frequency"] <= 1.0


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
    assert exhaustive["checked"] == 63
    assert exhaustive["violations"] == 0

    assert run(["uniformity-demo", "--n", "12", "--mode", "random", "--samples", "50", "--seed", "3", "--json"]) == 0
    random_mode = json.loads(capsys.readouterr().out)
    assert random_mode["checked"] == 50
    assert random_mode["violations"] == 0


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
