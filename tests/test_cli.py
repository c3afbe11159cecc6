import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from dp1 import engine, surface
from dp1.cli import main, sample_params, search_params
from dp1.rational import InvariantError
from dp1.surface import OracleDisagreementError, SurfaceParams

SRC = Path(__file__).resolve().parent.parent / "src"
WORKED = {"a": "0", "b": "0", "c": "1", "d": "2", "e": "3", "f": ["0", "0", "0", "1"]}
WORKED_2 = {"a": "0", "b": "0", "c": "1", "d": "0", "e": "2", "f": ["0", "0", "0", "1"]}
SINGULAR = {"a": "0", "b": "0", "c": "1", "d": "2", "e": "1", "f": ["0", "0", "0", "1"]}
DEGENERATE = {"a": "0", "b": "0", "c": "0", "d": "0", "e": "0", "f": ["0", "0", "0", "1"]}
# from the seed [1:-2:0:1], the sweep finds (−1, 0), of order 2 on t = −2, and
# it enters the frontier
TWO_TORSION = {"a": "-2", "b": "-1", "c": "-1", "d": "1", "e": "4", "f": ["0", "-2", "2", "1"]}
# witnesses in both charts; b = e = f0 = 0, so A and B have no constant term
# and their reversals in the chart at infinity end in zeros
TRIMMED_CHART = {"a": "-1", "b": "0", "c": "-1", "d": "0", "e": "0", "f": ["0", "1", "2", "-1"]}
# c = 0: singular at t = ∞ only, whose witness is s
C_ZERO = {"a": "1", "b": "-1", "c": "0", "d": "2", "e": "1", "f": ["1", "0", "-1", "2"]}
# [-1:0:0:1] has y = 0, so order 2: its tangent line is vertical, and the
# sweep refuses it
VERTICAL_SWEEP = {"a": "1", "b": "2", "c": "1", "d": "1", "e": "3", "f": ["0", "-1", "-1", "1"]}


@pytest.fixture
def surface_file(tmp_path):
    def write(obj, name="surface.json"):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip().startswith(("{", "[")) else out


def test_check_worked(surface_file, capsys):
    code, out = run(
        capsys, "check", "--surface", surface_file(WORKED), "--seed", "[-1:1:-1:1]"
    )
    assert code == 0
    assert out["overall"] is True


def test_check_failing_seed_exit_one(surface_file, capsys):
    code, out = run(
        capsys, "check", "--surface", surface_file(WORKED), "--seed", "[1:2:0:1]"
    )
    assert code == 1
    assert out["separable"] is False and out["slope_condition"] is False


def test_classify_worked(surface_file, capsys):
    code, out = run(capsys, "classify", "--surface", surface_file(WORKED))
    assert code == 0
    assert out["type"] == "2xA2"
    assert out["identity_verified"] is True


def test_smooth_singular_fixture(surface_file, capsys):
    code, out = run(capsys, "smooth", "--surface", surface_file(SINGULAR))
    assert code == 1
    assert out["verdict"] == "singular"
    assert out["witnesses"]


def test_smooth_with_primes(surface_file, capsys):
    code, out = run(
        capsys, "smooth", "--surface", surface_file(WORKED), "--primes", "7,11"
    )
    assert code == 0
    assert out["cross_check"]["7"] == "smooth" or out["cross_check"][7] == "smooth"


def test_smooth_primes_skips_a_prime_dividing_a_denominator(surface_file, capsys):
    params = dict(WORKED, a="1/5")
    code, out = run(capsys, "smooth", "--surface", surface_file(params), "--primes", "5,7")
    assert code == 0
    assert out["verdict"] == "smooth"
    assert out["cross_check"] == {"5": "skipped", "7": "smooth"}


@pytest.mark.parametrize("argv", [
    ["smooth", "--primes", "7,11"],
    ["search-params", "--samples", "1", "--primes", "7,11"],
], ids=["smooth", "search-params"])
def test_rational_witness_smooth_mod_p_exit_three(surface_file, capsys, monkeypatch, argv):
    # SINGULAR's witness t³ + 1 has the rational root −1, so its singular
    # point reduces mod every prime: a scan that answers "smooth" contradicts
    # the symbolic verdict, and unlike the known false alarm the census does
    # not record it in the row and go on
    monkeypatch.setattr(surface, "modp_singular_scan", lambda S, p: "smooth")
    code = main(argv + ["--surface", surface_file(SINGULAR)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "rational singular witness does not reduce mod [7, 11]" in captured.err


def test_smooth_primes_records_false_alarm(surface_file, capsys):
    # smooth over Q, bad reduction at 7, 11 and 13: the cross-check's known
    # false alarm is reported, not raised
    params = {"a": "2/5", "b": "-1/2", "c": "-1", "d": "-2", "e": "-1/5",
              "f": ["1/4", "1", "5/3", "-4"]}
    code, out = run(
        capsys, "smooth", "--surface", surface_file(params), "--primes", "7,11,13"
    )
    assert code == 0
    assert out["verdict"] == "smooth"
    assert out["cross_check"].startswith(
        "OracleDisagreementError: declared smooth but singular mod every prime"
    )


@pytest.mark.parametrize("f0", ["1/4", "1/3"])
@pytest.mark.parametrize("primes", ["2,4", "7,4", "4,7"])
def test_smooth_refuses_invalid_primes_on_every_surface(surface_file, capsys, f0, primes):
    # a bad value is refused whether or not it divides f0's denominator
    for params in (WORKED, DEGENERATE):
        path = surface_file(dict(params, f=[f0, "0", "0", "1"]))
        assert main(["smooth", "--surface", path, "--primes", primes]) == 2
        assert "prime p >= 5" in capsys.readouterr().err


@pytest.mark.parametrize("command, extra", [
    ("smooth", []),
    ("classify", []),
    ("fibers", []),
    ("check", ["--seed", "[1:1:0:1]"]),
    ("generate", ["--seed", "[1:1:0:1]"]),
])
def test_degenerate_surface_exit_one(surface_file, capsys, command, extra):
    code, out = run(capsys, command, "--surface", surface_file(DEGENERATE), *extra)
    assert code == 1
    assert out == {"verdict": "degenerate", "detail": "discriminant vanishes identically"}


def test_generate_json_roundtrip(surface_file, capsys):
    code, out = run(
        capsys,
        "generate", "--surface", surface_file(WORKED), "--seed", "[-1:1:-1:1]",
        "--n", "5", "--t-height", "3", "--depth", "1",
    )
    assert code == 0
    assert out["all_verified"] is True
    assert len(out["points"]) >= 6
    reparsed = SurfaceParams.from_json(out["surface"])
    assert reparsed == SurfaceParams.from_json(WORKED)


def test_generate_max_points_caps_output(surface_file, capsys):
    code, out = run(
        capsys,
        "generate", "--surface", surface_file(WORKED), "--seed", "[-1:1:-1:1]",
        "--max-points", "2", "--t-height", "2",
    )
    assert code == 0
    assert [p["provenance"] for p in out["points"]] == ["seed", "multiple(2)"]
    assert out["truncated"] is True


def test_generate_csv(surface_file, tmp_path, capsys):
    out_path = tmp_path / "points.csv"
    code = main([
        "generate", "--surface", surface_file(WORKED), "--seed", "[-1:1:-1:1]",
        "--n", "3", "--t-height", "2", "--format", "csv", "--out", str(out_path),
    ])
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "t,x,y,provenance"
    assert any("tangent" in line for line in lines[1:])


@pytest.mark.parametrize("extra, rows, note", [
    (["--max-points", "2"], ["seed", "multiple(2)"], "truncated: stopped early, 0 skipped\n"),
    (["--bit-cap", "6"], ["seed"], "truncated: stopped early, 3 skipped\n"),
])
def test_generate_csv_says_when_truncated(surface_file, capsys, extra, rows, note):
    code = main([
        "generate", "--surface", surface_file(WORKED), "--seed", "[-1:1:-1:1]",
        "--t-height", "2", "--format", "csv", *extra,
    ])
    captured = capsys.readouterr()
    lines = captured.out.strip().splitlines()
    assert code == 0
    assert lines[0] == "t,x,y,provenance" and [r.split(",")[-1] for r in lines[1:]] == rows
    assert captured.err == note


@pytest.mark.parametrize("params, seed, key, text", [
    (WORKED, "[1:2:0:1]", "error", "fails hypotheses"),
    (DEGENERATE, "[1:1:0:1]", "detail", "discriminant vanishes identically"),
])
def test_generate_csv_puts_reports_without_points_on_stderr(
    surface_file, capsys, params, seed, key, text
):
    # stdout holds only CSV rows; a payload with no points is one stderr line
    code = main(["generate", "--surface", surface_file(params), "--seed", seed, "--format", "csv"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and text in json.loads(err[0])[key]


@pytest.mark.parametrize("command, extra", [
    ("sweep", ["--seed", "[-1:1:-1:1]", "--t-height", "2"]),
    ("oracle", []),
])
def test_point_lists_csv(surface_file, capsys, command, extra):
    code = main([command, "--surface", surface_file(WORKED), *extra, "--format", "csv"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    assert lines[0] == "t,x,y,provenance" and len(lines) > 1


def test_format_only_on_point_lists(surface_file, capsys):
    # a report with no point list has no CSV form
    code = main(["smooth", "--surface", surface_file(WORKED), "--format", "csv"])
    assert code == 2 and capsys.readouterr().out == ""


def test_sweep_command(surface_file, capsys):
    code, out = run(
        capsys, "sweep", "--surface", surface_file(WORKED), "--seed", "[-1:1:-1:1]",
        "--t-height", "2",
    )
    assert code == 0
    assert any(p["x"] == "17/4" for p in out["points"])


def test_sweep_rejects_seed_off_surface(surface_file, capsys):
    code, _ = run(
        capsys, "sweep", "--surface", surface_file(WORKED), "--seed", "[1:1:1:1]",
    )
    assert code == 2


def test_sweep_rejects_seed_with_w_zero(surface_file, capsys):
    # [2:3:1:0] is on the surface; its tangent plane X3 = 0 meets no affine fiber
    code = main(["sweep", "--surface", surface_file(WORKED), "--seed", "[2:3:1:0]"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "" and "w != 0" in captured.err


def test_sweep_from_a_singular_point_of_its_fiber(surface_file, capsys):
    # [0:0:1:1] is the cusp (0, 0) of the fiber t = 1 of y² = x³ + z⁶ − w⁶:
    # a singular point of a fiber has y = 0, so order 2, and the sweep refuses it
    params = {"a": "0", "b": "0", "c": "1", "d": "0", "e": "-1", "f": ["0", "0", "0", "1"]}
    code = main(["sweep", "--surface", surface_file(params), "--seed", "[0:0:1:1]"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "" and "order 2" in captured.err


def test_oracle_command(surface_file, capsys):
    code, out = run(
        capsys, "oracle", "--surface", surface_file(WORKED),
        "--x-num", "5", "--x-den", "1", "--t-num", "1", "--t-den", "1",
    )
    assert code == 0
    fibers = {p["t"] for p in out["points"]}
    assert {"0", "-1"} <= fibers


def test_fibers_command(surface_file, capsys):
    code, out = run(capsys, "fibers", "--surface", surface_file(WORKED))
    assert code == 0
    assert out["total_multiplicity"] == 12
    assert out["z12_coefficient"] == "-432"


def test_input_error_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    code = main(["classify", "--surface", str(bad)])
    assert code == 2


def test_undecidable_seed_exit_two(surface_file, capsys):
    # den x = 1009·1013·1019 is above 1000³ and no square, and den y = 1 holds
    # none of its primes: trial division below 1000 cannot tell p·q·r from p²·q
    code = main(["check", "--surface", surface_file(WORKED), "--seed", "[1/1041537223:1:1:1]"])
    err = capsys.readouterr().err
    assert code == 2
    assert "trial-division bound 1000" in err


def test_off_family_base_seed_exit_two(surface_file, capsys):
    # z = w = 0 leaves y² = x³ on every member of the family
    code = main(["check", "--surface", surface_file(WORKED), "--seed", "[0:1:0:0]"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == ("error: [0:1:0:0] is on no member of the family, "
                            "where z = w = 0 needs y^2 = x^3 != 0\n")


def test_seed_over_large_parameter_denominator(surface_file, capsys):
    # f0 = 1/1009: at t = 0, x = 0 and y = 1/1009 leave den y = 1009 with
    # den x = 1, and at t = -1 the census seed has den y = 1009³
    params = {"a": "1", "b": "1", "c": "1", "d": "0", "e": "0", "f": ["1/1009", "1", "0", "1"]}
    code, out = run(capsys, "check", "--surface", surface_file(params), "--seed", "[0:1/1009:0:1]")
    assert code == 1 and out["smooth"] is True and out["slope_condition"] is False
    row, = search_params([SurfaceParams.from_json(params)], (1, 1, 1, 1))["rows"]
    assert row["certified"] is True and row["seed"] == "[0:2053469377:-1009:1009]"


def test_runtime_imports_no_sympy(surface_file):
    # a fresh interpreter: the tests themselves import sympy as an oracle
    script = (
        "import sys, dp1.cli\n"
        f"assert dp1.cli.main(['generate', '--surface', {surface_file(WORKED)!r}, "
        "'--seed', '[-1:1:-1:1]', '--out', 'points.json', '--t-height', '2']) == 0\n"
        "assert dp1.cli.main(['search-params', '--samples', '5', '--primes', '7,11', "
        "'--out', 'census.json']) == 0\n"
        "sys.exit('sympy' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", script], env=env, cwd=os.path.dirname(surface_file(WORKED)),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("obj, message", [
    (dict(WORKED, a=0), "must be strings"),  # a JSON number
    (dict(WORKED, c=0.1), "must be strings"),  # a binary float, not 1/10
    (dict(WORKED, f=["0", "0", "0", 1]), "must be strings"),
    ([1, 2], "JSON object"),
    (dict(WORKED, f="0001"), "list f"),
    (dict(WORKED, f=["0", "0", "1"]), "list f"),
    ({k: v for k, v in WORKED.items() if k != "e"}, "must be strings"),
    (dict(WORKED, e="1/0"), "zero denominator in '1/0'"),
], ids=["number", "float", "number-in-f", "list", "f-string", "f-short", "missing-key",
        "zero-denominator"])
def test_malformed_surface_file_exit_two(surface_file, capsys, obj, message):
    code = main(["smooth", "--surface", surface_file(obj)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("command", ["check", "generate"])
def test_seed_off_its_fiber_exit_two(surface_file, capsys, command):
    # y² = 1 ≠ x³ + B(1) = 7 on the fiber t = 1: refused before any hypothesis
    code = main([command, "--surface", surface_file(WORKED), "--seed", "[1:1:1:1]"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: (1, 1) is not an affine point of the fiber t=1\n"


def test_seed_off_its_fiber_with_long_coefficients_exit_two(surface_file, capsys):
    # (t, x, y) = (1/W, 1/W², 1/W³) prints, but B(1/W) = 1/W⁶ + 2/W³ + 3 has
    # 8,600 digits: the refusal names the fiber by t, not by its A and B
    W = 2 * 10 ** 1433
    start = time.perf_counter()
    code = main(["check", "--surface", surface_file(WORKED), "--seed", f"[1:1:1:{W}]"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (f"error: (1/{W ** 2}, 1/{W ** 3}) is not an affine point "
                            f"of the fiber t=1/{W}\n")
    assert elapsed < 1.0


@pytest.mark.parametrize("extra", [["--depth", "1", "--n", "200", "--t-height", "1"], ["--depth", "0"]],
                         ids=["depth-1", "depth-0"])
def test_generate_refuses_bit_cap_that_cannot_print(surface_file, capsys, monkeypatch, extra):
    # over 14,284 bits a kept point could have an integer of more than 4,300
    # digits, which str() refuses: the cap is refused before anything is
    # generated, even where the run would never reach it
    def refuse(S, P, cfg):
        raise AssertionError("generation ran")

    monkeypatch.setattr(engine, "generate", refuse)
    argv = ["generate", "--surface", surface_file(WORKED), "--seed", "[-1:1:-1:1]"] + extra
    code = main(argv + ["--bit-cap", str(engine.MAX_BIT_CAP + 1)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (f"error: bit cap must be <= 14284: a point over it may have an integer "
                            f"of more than 4300 digits, which cannot be printed\n")
    with pytest.raises(AssertionError, match="generation ran"):
        main(argv + ["--bit-cap", str(engine.MAX_BIT_CAP)])


def test_long_integer_in_seed_exit_two(surface_file, capsys):
    code = main(["check", "--surface", surface_file(WORKED), "--seed", f"[1:1:{'1' * 5000}:1]"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: a rational text holds an integer of 5,000 digits, over the limit of 4,300\n"


@pytest.mark.parametrize("seed, message", [
    ("[1:2:3]", "expected four coordinates, got '[1:2:3]'"),
    ("1:2:3:4", "expected [x:y:z:w], got '1:2:3:4'"),
    ("[1:2:1:0]", "[1:2:1:0] is not on the surface"),
], ids=["three-coordinates", "no-brackets", "w-zero-off-surface"])
def test_malformed_or_off_surface_seed_exit_two(surface_file, capsys, seed, message):
    code = main(["check", "--surface", surface_file(WORKED), "--seed", seed])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_zero_denominator_seed_exit_two(surface_file, capsys):
    code = main(["check", "--surface", surface_file(WORKED), "--seed", "[1/0:1:1:1]"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: zero denominator in '1/0'\n"


@pytest.mark.parametrize("argv, message", [
    (["oracle", "--t-den", "0"], "t-den 0"),
    (["oracle", "--x-den", "-1"], "x-den -1"),
    (["oracle", "--x-num", "-3"], "x-num -3"),
    (["search-params", "--samples", "3", "--x-den", "0"], "x-den 0"),
    (["search-params", "--samples", "3", "--height", "0"], "height must be >= 1"),
    (["sweep", "--seed", "[-1:1:-1:1]", "--t-height", "0"], "height bound must be >= 1"),
], ids=["oracle-t-den", "oracle-x-den", "oracle-x-num", "search-x-den", "search-height",
        "sweep-t-height"])
def test_empty_search_range_exit_two(surface_file, capsys, argv, message):
    # an empty box or height range would search nothing and still exit 0
    if argv[0] != "search-params":
        argv = argv + ["--surface", surface_file(WORKED)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err
    assert captured.err.count("\n") == 1


def test_unknown_flag_exit_two(surface_file, capsys):
    code = main(["classify", "--surface", surface_file(WORKED), "--bogus"])
    assert code == 2


@pytest.mark.parametrize("error", [InvariantError, OracleDisagreementError])
def test_internal_error_exit_three(surface_file, capsys, monkeypatch, error):
    def broken(S, P, cfg):
        raise error("invariant broken")

    monkeypatch.setattr(engine, "generate", broken)
    code = main(["generate", "--surface", surface_file(WORKED), "--seed", "[-1:1:-1:1]"])
    assert code == 3
    assert "invariant broken" in capsys.readouterr().err


# SHA-256 of stdout and the exit code of commands the benchmark does not
# digest, recorded before the weighted forms, mul and the second
# square-and-multiply left the library
CLI_PINS = [
    ("check", WORKED, ["--seed", "[-1:1:-1:1]"], 0,
     "d55465b68540e95082e47ee942c161c8a9cb1cf85123fe93cd50190412130eca"),
    ("check", WORKED, ["--seed", "[0:1:1:0]"], 1,
     "f8f609d817794bc884ea0440da3ec730533fd5fbd88f8741d681fb20a09c51b5"),
    ("classify", WORKED, [], 0,
     "fc142acdfe934a44a35633465e8530c70f66dfff81a7f6f627c9b343893ad870"),
    ("classify", SINGULAR, [], 1,
     "6d02e229e484acfe9ecc88fc33b4a0f52b1393b567b9c8bdf5bbff432eda59e8"),
    ("smooth", SINGULAR, ["--primes", "7,11"], 1,
     "7ca083bd67989feae3a36aba4b9a7e7f7b780165a7e73ce88fc1e974368e472d"),
    ("fibers", WORKED, [], 0,
     "5cf958d46966a9dcb7b86b758092c4b98a19c7f6fc84c6eea277ec7ec2e7f781"),
    ("sweep", WORKED, ["--seed", "[-1:1:-1:1]", "--t-height", "4"], 0,
     "102c998978026f40c09ebdd74f5c6c2311df71dda14080598bcd482052d3daf5"),
    ("oracle", WORKED, [], 0,
     "53ccf043d147c4e94b4e578b851fa104b6c2d80ee17ea5a6072fc31a1eb79c8b"),
    ("generate", WORKED, ["--seed", "[-1:1:-1:1]", "--depth", "2", "--t-height", "5"], 0,
     "4e041e769328da011ae601b8816df0cf9d009928dae17035b7f1e6f4cc3602cd"),
    # 33 points on 3 fibers: of the reports here, the one whose time goes
    # most to the sweep's cubic root search
    ("generate", WORKED, ["--seed", "[-1:1:-1:1]", "--depth", "2", "--t-height", "40",
                          "--n", "10"], 0,
     "f599554a284728f0be5114a3045adc9251a8b1031cadc1d95b3b00cd5d953aab"),
    # skips "torsion point on fiber t=-2" once: its y = 0, so it has order 2
    ("generate", TWO_TORSION, ["--seed", "[1:-2:0:1]", "--depth", "2", "--t-height", "2",
                               "--n", "3"], 0,
     "11cada5841951f19b766c0c976d752deda6b4c922beee0bd791e67837fb7a3a1"),
    # 4 fibers; skips "bit cap exceeded (multiple(4))" at level 2 and is cut
    # by --max-points partway through a level
    ("generate", WORKED_2, ["--seed", "[1:2:1:1]", "--depth", "3", "--t-height", "3",
                            "--n", "5", "--bit-cap", "64", "--max-points", "15"], 0,
     "cfb9a362c33e5f38b54251218e2ee30d6c9e636c7054d5456034dbfb70cf7886"),
    # the seed (y = 2) is over the cap, skipped, and still expanded
    ("generate", WORKED_2, ["--seed", "[1:2:1:1]", "--bit-cap", "1", "--depth", "1"], 0,
     "eeb0d50321b8ad63405fbdc06b8901822ccafa413f45222bf900739ed24f58da"),
    # recorded before the charts and Δ moved to integer numerators
    ("smooth", TRIMMED_CHART, ["--primes", "7,11"], 1,
     "3aff70c9822be4d380a0ab27ab1c1baacd373e2ce19ecb4b72395b0783e50cd8"),
    ("fibers", TRIMMED_CHART, [], 0,
     "de2553229d24958fd77ece715d001115f2a16b01e2316d0647a6ce52c2a84352"),
    ("smooth", C_ZERO, [], 1,
     "0e16a8390b7a64e42a26eff6b8323a79ce4d22a8927ccc921e5688ffaeccf1a1"),
    # deg Δ = 9: multiplicity 3 at infinity and a zero z¹² coefficient
    ("fibers", C_ZERO, [], 0,
     "d84b7eb90df09c0121c12ddf9facca6f8c132144b98973843b63f0fccec0de1d"),
    # refused: y = 0, so order 2, and stdout is empty
    ("sweep", VERTICAL_SWEEP, ["--seed", "[-1:0:0:1]", "--t-height", "2"], 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    # the walk stops at [12]P, so [13]P is a checked addition
    ("generate", WORKED, ["--seed", "[-1:1:-1:1]", "--n", "13", "--t-height", "1"], 0,
     "19b06aa2f54756197acc90dee3881dfaa8adf4d450b32fc95f32dc4f44bbae39"),
]


def pin_id(command, params, extra):
    """The command, the name of the surface constant and the flags, as in
    "sweep-WORKED-seed=-1:1:-1:1-t-height=4": no digest, so that re-recording
    a pin keeps its name."""
    name = next(k for k, v in globals().items() if v is params)
    flags = [f"{k.lstrip('-')}={v.strip('[]')}" for k, v in zip(extra[::2], extra[1::2])]
    return "-".join([command, name, *flags])


PIN_IDS = [pin_id(*pin[:3]) for pin in CLI_PINS]


def test_pin_ids_are_unique():
    assert len(set(PIN_IDS)) == len(PIN_IDS) == len(CLI_PINS)
    assert all(len(pin[2]) % 2 == 0 for pin in CLI_PINS)


@pytest.mark.parametrize("command, params, extra, exit_code, digest", CLI_PINS, ids=PIN_IDS)
def test_cli_output_pinned(surface_file, capsys, command, params, extra, exit_code, digest):
    code = main([command, "--surface", surface_file(params), *extra])
    out = capsys.readouterr().out
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_search_params_includes_worked_tuple():
    worked = SurfaceParams.from_json(WORKED)
    out = search_params([worked], (5, 1, 2, 2))
    row = out["rows"][0]
    assert row["smooth"] == "smooth"
    assert row["certified"] is True
    assert row["seed"] == "[-1:1:-1:1]"
    assert row["picard_rank"] == "not computed"


def test_search_params_reproducible(surface_file, capsys):
    code1, out1 = run(
        capsys, "search-params", "--samples", "3", "--rng-seed", "42", "--height", "2",
        "--x-num", "2", "--t-num", "1", "--t-den", "1",
    )
    code2, out2 = run(
        capsys, "search-params", "--samples", "3", "--rng-seed", "42", "--height", "2",
        "--x-num", "2", "--t-num", "1", "--t-den", "1",
    )
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1["summary"]["scanned"] == 3


def test_search_params_output_unchanged_without_primes(capsys):
    # SHA-256 of this command's output as first released, before --primes
    code = main(["search-params", "--samples", "12", "--height", "3", "--rng-seed", "7"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "36073e9293bdd45591b3db6f4cdc1861b041abe0ea6db20789a47a48528310ae"
    )


def test_search_params_primes_records_cross_check(capsys):
    argv = ["search-params", "--samples", "2", "--height", "5", "--rng-seed", "8"]
    _, plain = run(capsys, *argv)
    code, out = run(capsys, *argv, "--primes", "7,11,13")
    assert code == 0
    rows = out["rows"]
    assert rows[0]["cross_check"] == {"7": "smooth", "11": "singular", "13": "smooth"}
    # smooth over Q, bad reduction at 7, 11 and 13: the known false alarm
    assert rows[1]["cross_check"].startswith(
        "OracleDisagreementError: declared smooth but singular mod every prime"
    )
    assert rows[1]["smooth"] == "smooth"
    assert [{k: v for k, v in r.items() if k != "cross_check"} for r in rows] == plain["rows"]
    assert out["summary"] == dict(plain["summary"], cross_checked=1)


# a smooth tuple whose certified seed (t, x, y) = (0, −5, 1/1041537223) the
# weighted lift refuses: 1041537223 = 1009·1013·1019 is past its trial
# division and no cube
UNLIFTED_SEED = {"a": "-2", "b": "1", "c": "1", "d": "-2",
                 "e": "141023972296291724771/1084799786894551729", "f": ["0", "2", "1", "-2"]}


def test_search_params_goes_on_when_the_lift_refuses_a_seed(surface_file, capsys):
    code, out = run(capsys, "search-params", "--surface", surface_file(UNLIFTED_SEED),
                    "--samples", "3", "--height", "2")
    assert code == 0
    row = out["rows"][0]
    assert row["smooth"] == "smooth" and row["certified"] is True and row["seed"] is None
    assert row["seed_error"].startswith("cannot lift to a weighted point: past the primes below")
    assert out["summary"]["scanned"] == 4
    assert all("seed_error" not in r for r in out["rows"][1:])


def test_search_params_primes_degenerate_tuple():
    out = search_params([SurfaceParams.from_json(DEGENERATE)], (5, 1, 2, 2), (7, 11))
    row = out["rows"][0]
    assert row["smooth"] == "degenerate" and row["cross_check"] == "degenerate"
    assert out["summary"]["cross_checked"] == 0


def test_search_params_refuses_invalid_primes():
    params = SurfaceParams.from_json(dict(WORKED, f=["1/4", "0", "0", "1"]))
    with pytest.raises(ValueError, match="prime p >= 5"):
        search_params([params], (5, 1, 2, 2), (2, 4))


def test_search_params_refuses_no_tuples():
    with pytest.raises(ValueError, match=r"^no parameter tuples to scan$"):
        search_params([], (5, 1, 2, 2))


def test_search_params_zero_samples_rejected(capsys):
    code = main(["search-params", "--samples", "0"])
    assert code == 2


def test_sample_params_height_bound():
    import random

    rng = random.Random(1)
    for _ in range(20):
        p = sample_params(rng, 3)
        for k in ("a", "b", "c", "d", "e", "f0", "f1", "f2", "f3"):
            v = getattr(p, k)
            assert abs(v.numerator) <= 3 * 3 and v.denominator <= 3
        assert p.f3 != 0
