import json
import math
import warnings

import numpy as np
import pytest

from hillgreen import (DEFAULT_TOL, ResonanceError, build_green, discriminant_samples,
                       find_eigenvalues, kernel_value, load_builtin, predicted_sign_interval,
                       solve_bvp, stability_intervals, verify_dominance, verify_identity)
from hillgreen.spectrum import DEFAULT_SCAN
from hillgreen.cli import main


def run(capsys, *args):
    rc = main(list(args))
    out = capsys.readouterr().out
    return rc, out


def test_spectrum_csv(capsys):
    rc, out = run(capsys, "spectrum", "--potential", "ex1", "--bc", "D", "--count", "3")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "bc,k,lambda,multiplicity"
    rows = [ln.split(",") for ln in lines[1:]]
    assert [r[0] for r in rows] == ["D", "D", "D"]
    assert float(rows[0][2]) == pytest.approx(math.pi ** 2, abs=1e-8)
    assert all(r[3] == "1" for r in rows)


def test_spectrum_csv_is_the_library_writer(capsys, tmp_path):
    rc, out = run(capsys, "spectrum", "--potential", "ex4", "--bc", "M1", "--count", "4")
    assert rc == 0
    path = tmp_path / "m1.csv"
    find_eigenvalues(load_builtin("ex4"), "M1", max_count=4, n_scan=DEFAULT_SCAN,
                     integrator_tol=DEFAULT_TOL, method="auto").to_csv(path)
    assert out.encode() == path.read_bytes()


def test_spectrum_all_json(capsys):
    rc, out = run(capsys, "spectrum", "--potential", "ex2", "--bc", "all",
                  "--count", "1", "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert set(doc["spectra"]) == {"P", "A", "N", "D", "M1", "M2"}
    assert doc["spectra"]["N"][0]["lambda"] == pytest.approx(-0.0508, abs=2e-3)
    assert doc["spectra"]["N"][0]["k"] == 0


def test_spectrum_range_filter(capsys):
    rc, out = run(capsys, "spectrum", "--potential", "ex1", "--bc", "D",
                  "--range", "5", "45", "--count-in-range", "2")
    assert rc == 0
    vals = [float(ln.split(",")[2]) for ln in out.strip().splitlines()[1:]]
    assert all(5.0 <= v <= 45.0 for v in vals)


def test_green_csv_deterministic(capsys):
    rc1, out1 = run(capsys, "green", "--potential", "ex1", "--lambda", "0.5",
                    "--bc", "N", "--n", "4")
    rc2, out2 = run(capsys, "green", "--potential", "ex1", "--lambda", "0.5",
                    "--bc", "N", "--n", "4")
    assert rc1 == rc2 == 0
    assert out1 == out2
    lines = out1.strip().splitlines()
    assert lines[0] == "t,s,G"
    assert len(lines) == 1 + 5 * 5


def test_green_csv_stdout_matches_output_file(capsys, tmp_path):
    path = tmp_path / "g.csv"
    args = ("green", "--potential", "ex3", "--lambda", "0.2", "--bc", "M1", "--n", "5")
    rc1, out = run(capsys, *args)
    rc2, _ = run(capsys, *args, "--output", str(path))
    assert rc1 == rc2 == 0
    assert path.read_bytes() == out.encode()


def test_green_json_fields(capsys):
    rc, out = run(capsys, "green", "--potential", "ex3", "--lambda", "0.2",
                  "--bc", "D", "--n", "6", "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["bc"] == "D"
    assert len(doc["grid"]) == 7
    assert len(doc["values"]) == 7
    assert doc["symmetry_error"] < 1e-8
    assert doc["resonance_margin"] > 0


def test_green_resonant_exit_code(capsys):
    rc, out = run(capsys, "green", "--potential", "ex1", "--lambda", "0.0",
                  "--bc", "N")
    assert rc == 3


def test_resonance_reason_prints_lambda_exactly(capsys):
    # pi^2/4 is an M1 eigenvalue of ex1 and a Neumann one of its even
    # extension; a rounded lambda in the message could not be told from a
    # nearby one.  Every entry point words a resonance the same way
    lam = "2.4674011002723395"
    p, x = load_builtin("ex1"), float(lam)
    want = f"u'(0)=0, u(T)=0 problem on [0, 1] (base interval) is resonant at lambda = {lam}"
    for call in (lambda: build_green(p, x, "M1", n=20),
                 lambda: kernel_value(p, x, "M1", 0.3, 0.6),
                 lambda: solve_bvp(p, x, "M1", 1.0, n=20),
                 lambda: verify_identity("M1A", p, x, n=20),
                 lambda: verify_dominance(p, x, "bound2_n", n=20)):
        with pytest.raises(ResonanceError) as info:
            call()
        assert str(info.value) == want
    assert main(["green", "--potential", "ex1", "--lambda", lam, "--bc", "M1"]) == 3
    assert capsys.readouterr().err == f"error: {want}\n"
    assert main(["compare", "--potential", "ex1", "--lambda", lam, "--n", "20"]) == 3
    assert capsys.readouterr().err == f"error: {want}\n"
    rc, out = run(capsys, "verify", "--potential", "ex1", "--lambda", lam, "--n", "20")
    assert rc == 0
    reasons = [r["reason"] for r in json.loads(out)["reports"] if r["skipped"]]
    assert reasons and all(r.endswith(f"is resonant at lambda = {lam}") for r in reasons)


def test_verify_json(capsys):
    rc, out = run(capsys, "verify", "--potential", "ex1", "--lambda", "0.37",
                  "--n", "40")
    assert rc == 0
    doc = json.loads(out)
    rows = doc["reports"]
    assert len(rows) == 20
    assert all(r["pass"] for r in rows)


def test_verify_selected_csv(capsys):
    rc, out = run(capsys, "verify", "--potential", "ex1", "--lambda", "0.37",
                  "--identity", "SUM", "--identity", "DIF", "--n", "40",
                  "--format", "csv")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "id,n,residual,lhs_scale,pass,skipped,reason"
    assert [ln.split(",")[0] for ln in lines[1:]] == ["SUM", "DIF"]


def test_verify_strict_semantics(capsys):
    # skipped identities at a resonant lambda are not failures even under
    # --strict; an unmeetable tolerance is
    rc_skip, _ = run(capsys, "verify", "--potential", "ex1", "--lambda", "0.0",
                     "--n", "30", "--strict")
    assert rc_skip == 0
    rc_loose, _ = run(capsys, "verify", "--potential", "ex1", "--lambda", "0.37",
                      "--n", "30", "--identity", "SUM",
                      "--identity-tol", "1e-18")
    rc_tight, _ = run(capsys, "verify", "--potential", "ex1", "--lambda", "0.37",
                      "--n", "30", "--identity", "SUM",
                      "--identity-tol", "1e-18", "--strict")
    assert rc_loose == 0
    assert rc_tight == 1


def test_compare_classifications(capsys):
    rc, out = run(capsys, "compare", "--potential", "ex1", "--lambda", "1.0",
                  "--n", "30")
    assert rc == 0
    doc = json.loads(out)
    cls = {bc: e["classification"] for bc, e in doc["classifications"].items()}
    assert cls["N"] == "strictly_positive"
    assert cls["D"] == "nonpositive_with_zeros"
    rels = {e["relation"]: e for e in doc["relations"]}
    assert rels["nd_nonneg"]["pass"] is True


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 13: below the spectrum every kernel carries rounding that grows "
    "like exp(2 mu L), and at lambda = -5 verify fails 14 of 20 identities on ex3"))
def test_verify_strict_passes_below_the_spectrum(capsys):
    rc, _ = run(capsys, "verify", "--potential", "ex3", "--lambda", "-5", "--strict")
    assert rc == 0


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 13: at lambda = -50 the P kernel's rounding swamps it, and compare "
    "calls it sign_changing where predicted_sign_interval puts -50 in its negative range"))
def test_compare_classifies_p_as_predicted_far_below_the_spectrum(capsys):
    negative = predicted_sign_interval(load_builtin("ex3"), "P")["negative"]
    assert negative[0] < -50.0 < negative[1]
    rc, out = run(capsys, "compare", "--potential", "ex3", "--lambda", "-50")
    assert rc == 0
    assert json.loads(out)["classifications"]["P"]["classification"] == "strictly_negative"


def test_compare_skips_unmet_hypotheses(capsys):
    rc, out = run(capsys, "compare", "--potential", "ex1", "--lambda", "5.0",
                  "--n", "30")
    assert rc == 0
    doc = json.loads(out)
    rels = {e["relation"]: e for e in doc["relations"]}
    assert rels["nd_nonneg"].get("skipped") is True
    assert rels["nd_nonneg"]["pass"] is None


def test_sweep_csv(capsys, tmp_path):
    out_file = tmp_path / "sweep.csv"
    rc, out = run(capsys, "sweep", "--potential", "ex1", "--range", "-1", "4",
                  "--points", "11", "--output", str(out_file))
    assert rc == 0
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == "lambda,delta"
    assert len(lines) == 12
    lam0, d0 = (float(x) for x in lines[1].split(","))
    assert lam0 == -1.0
    # discriminant of the doubled zero potential: 2 cos(2 sqrt(lam))
    assert d0 == pytest.approx(2.0 * math.cosh(2.0), abs=1e-5)


def test_sweep_intervals_match_library(capsys):
    want = stability_intervals(load_builtin("ex4"), search_range=(-1.0, 5.0))
    rc, out = run(capsys, "sweep", "--potential", "ex4", "--range", "-1", "5",
                  "--intervals")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "lo,hi,kind"
    rows = [ln.split(",") for ln in lines[1:]]
    assert [((float(a), float(b)), kind) for a, b, kind in rows] == want
    rc, out = run(capsys, "sweep", "--potential", "ex4", "--range", "-1", "5",
                  "--intervals", "--format", "json")
    assert rc == 0
    assert [((r["lo"], r["hi"]), r["kind"]) for r in json.loads(out)["intervals"]] == want


def _sweep_csv(lams, deltas) -> str:
    return "\n".join(["lambda,delta"] + [f"{float(a)!r},{float(d)!r}"
                                         for a, d in zip(lams, deltas)]) + "\n"


def test_sweep_tol_sets_sample_accuracy(capsys):
    args = ("sweep", "--potential", "ex3", "--range", "-1", "3", "--points", "9")
    p = load_builtin("ex3")
    outs = {}
    for tol in ("1e-5", "1e-10"):
        rc, outs[tol] = run(capsys, *args, "--tol", tol)
        assert rc == 0
        assert outs[tol] == _sweep_csv(*discriminant_samples(p, -1.0, 3.0, count=9,
                                                             accuracy=float(tol)))
    assert outs["1e-5"] != outs["1e-10"]
    # without --tol the samples keep the library's default accuracy
    rc, out = run(capsys, *args)
    assert rc == 0 and out == _sweep_csv(*discriminant_samples(p, -1.0, 3.0, count=9))
    assert main([*args, "--tol", "1e-2"]) == 2
    assert "tolerance" in capsys.readouterr().err


def test_sweep_beyond_scan_cap_exit_code(capsys):
    # float64 rounding of the cosine's phase at lambda = 1e12 exceeds the
    # accuracy; the refusal comes with no RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["sweep", "--potential", "ex3", "--range", "0", "1e12", "--points", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Magnus steps" in captured.err


@pytest.mark.parametrize("command", [["sweep"], ["spectrum"], ["sweep", "--intervals"]],
                         ids=" ".join)
def test_infinite_range_is_one_error_line(capsys, command):
    # refused before any grid: no RuntimeWarning, even as an error; a NaN end
    # is named as such, not as a range out of order
    for end in ("inf", "nan"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*command, "--potential", "ex3", "--range", "0", end]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: lambda values must be finite\n", end


def test_sweep_refusal_names_the_requested_accuracy(capsys):
    # the half interval is scanned at half the accuracy; the message leads with
    # the accuracy the caller asked for (the default 1e-9 of discriminant_samples)
    assert main(["sweep", "--potential", "ex3", "--range", "0", "1e12", "--points", "2"]) == 3
    assert "cannot certify accuracy 1e-09" in capsys.readouterr().err


def test_spectrum_refinement_refusal_exit_code(capsys):
    args = ["spectrum", "--potential", "ex3", "--bc", "N", "--range"]
    assert main([*args, "4e8", "4.0002e8"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "integrator_tol 1e-10" in captured.err and "--tol" in captured.err
    rc, out = run(capsys, *args, "4e6", "4.004e6", "--tol", "1e-9")
    assert rc == 0 and len(out.strip().splitlines()) == 2


def test_spectrum_refusals_keep_the_wording_of_their_level(capsys):
    # a scan that cannot certify its accuracy is refused bare, a refinement
    # that cannot certify --tol in its own wrapper; both exit 3
    scan = ("scan segment [0, 3.14159] cannot certify accuracy 1e-07: float64 rounding of the "
            "phase (omega = 3.16e+07) alone is about 2.2e-07, beyond any number of Magnus steps")
    refinement = (
        "eigenvalue refinement over lambda in [4e+08, 4.0002e+08] cannot certify integrator_tol "
        "1e-10 (scan segment [0, 3.14159] cannot certify accuracy 1e-10: float64 rounding of the "
        "phase (omega = 2e+04) alone is about 1.4e-10, beyond any number of Magnus steps); a "
        "larger integrator_tol (--tol on the command line) lifts the limit")
    args = ["spectrum", "--potential", "ex3", "--bc", "N", "--range"]
    for lo, hi, want in (("1e15", "1.0001e15", scan), ("4e8", "4.0002e8", refinement)):
        assert main([*args, lo, hi]) == 3
        assert capsys.readouterr() == ("", f"error: {want}\n")


def test_examples_single(capsys):
    rc, out = run(capsys, "examples", "--which", "1")
    assert rc == 0
    assert "overall ok" in out
    assert "FAIL" not in out


def test_examples_all_strict(capsys):
    rc, out = run(capsys, "examples", "--all", "--strict")
    assert rc == 0
    assert "FAIL" not in out


def test_examples_json(capsys):
    rc, out = run(capsys, "examples", "--which", "2", "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    rep = doc["examples"][0]
    assert rep["example"] == 2
    names = [c["name"] for c in rep["checks"]]
    assert "lambda_N" in names


@pytest.mark.parametrize("strict", [False, True], ids=["plain", "strict"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_examples_missing_eigenvalue_is_a_failed_check(capsys, fmt, strict):
    # one scan sample finds fewer eigenvalues of ex4 than its table quotes
    rc, out = run(capsys, "examples", "--which", "4", "--n-scan", "1", "--format", fmt,
                  *(["--strict"] if strict else []))
    assert rc == (1 if strict else 0)
    if fmt == "json":
        doc = json.loads(out)
        checks = {c["name"]: c for c in doc["examples"][0]["checks"]}
        missing = [c for c in checks.values() if c["computed"] is None]
        assert missing and doc["pass"] is False
        assert all(c["error"] is None and c["pass"] is False for c in missing)
        # a double root that was not found fails both its value and its multiplicity
        assert checks["A(2T) root 1 value"]["computed"] is None
        assert checks["A(2T) root 1 double"]["computed"] is None
    else:
        missing = [ln.split() for ln in out.splitlines() if " computed None " in ln]
        assert missing and out.endswith("ex4  overall FAIL\n")
        assert all(words[-3:] == ["error", "nan", "FAIL"] for words in missing)


def test_examples_needs_which_or_all(capsys):
    assert main(["examples"]) == 2
    assert capsys.readouterr() == ("", "error: examples needs --which K or --all\n")


@pytest.mark.parametrize("bad", ["-1", "0", "nan", "inf"])
def test_examples_match_tol_must_be_finite_and_positive(capsys, bad):
    assert main(["examples", "--all", "--match-tol", bad]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: --match-tol must be finite and positive, got {float(bad)}\n"


def test_usage_errors(capsys):
    assert main(["spectrum", "--potential", "no_such_file.json"]) == 2
    assert main(["green", "--potential", "ex1", "--lambda", "0.5",
                 "--bc", "Q"]) == 2
    assert main(["nonsense"]) == 2
    # bad values: non-finite lambdas, tolerances, sizes and ranges
    for argv in (["verify", "--potential", "ex1", "--lambda", "nan"],
                 ["green", "--potential", "ex1", "--lambda", "inf", "--bc", "D"],
                 ["sweep", "--potential", "ex1", "--range", "0", "nan"],
                 ["green", "--potential", "ex1", "--lambda", "0.5", "--bc", "D",
                  "--tol", "1"],
                 ["green", "--potential", "ex1", "--lambda", "0.5", "--bc", "D",
                  "--n", "-4"],
                 ["spectrum", "--potential", "ex1", "--range", "3", "1"],
                 ["spectrum", "--potential", "ex3", "--bc", "P", "--method", "union"],
                 ["spectrum", "--potential", "ex1", "--count", "0"],
                 ["spectrum", "--potential", "ex1", "--range", "0", "5",
                  "--count-in-range", "0"],
                 ["spectrum", "--potential", "ex1", "--n-scan", "0"],
                 ["sweep", "--potential", "ex1", "--range", "0", "5", "--points", "0"],
                 ["verify", "--potential", "ex1", "--lambda", "0.5", "--n", "0"],
                 ["verify", "--potential", "ex1", "--lambda", "0.3", "--identity-tol", "-1"],
                 ["verify", "--potential", "ex1", "--lambda", "0.3", "--identity-tol", "nan"],
                 ["verify", "--potential", "ex1", "--lambda", "0.3", "--identity", "NP",
                  "--identity-tol", "0"]):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert "error" in captured.err, argv



@pytest.mark.parametrize("where", ["potential is a directory", "output is a directory",
                                   "output's directory does not exist"])
def test_file_errors_are_one_error_line(capsys, tmp_path, where):
    argv = ["spectrum", "--potential", "ex1", "--bc", "D", "--count", "1"]
    path = {"potential is a directory": tmp_path, "output is a directory": tmp_path,
            "output's directory does not exist": tmp_path / "no" / "such.csv"}[where]
    if where.startswith("potential"):
        argv[2] = str(path)
    else:
        argv += ["--output", str(path)]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and str(path) in err and err.count("\n") == 1


@pytest.mark.parametrize("command", [
    ["spectrum", "--bc", "D"], ["green", "--lambda", "0.3", "--bc", "N"],
    ["verify", "--lambda", "0.3"], ["compare", "--lambda", "0.3"],
    ["sweep", "--range", "0", "5"], ["sweep", "--range", "0", "5", "--intervals"]],
    ids=" ".join)
def test_non_finite_descriptor_number_exits_2(capsys, tmp_path, command):
    path = tmp_path / "nan.json"
    path.write_text('{"T": 1.0, "pieces": [{"from": 0, "to": 1, "kind": "const", '
                    '"value": NaN}]}')
    assert main([*command, "--potential", str(path)]) == 2
    assert capsys.readouterr() == (
        "", f"error: bad potential descriptor {path}: const piece value must be finite, "
            "got nan\n")


_EVERY_FORMAT = [
    ("spectrum --potential ex4 --bc M1 --count 3", ("csv", "json")),
    ("green --potential ex3 --lambda 0.2 --bc M1 --n 5", ("csv", "json")),
    ("verify --potential ex1 --lambda 0.0 --n 20", ("csv", "json")),
    ("compare --potential ex1 --lambda 1.0 --n 20", ("json",)),
    ("sweep --potential ex1 --range -1 4 --points 7", ("csv", "json")),
    ("sweep --potential ex4 --range -1 5 --intervals", ("csv", "json")),
    ("examples --which 1", ("text", "json")),
]


@pytest.mark.parametrize("command, fmt", [(c, f) for c, fs in _EVERY_FORMAT for f in fs],
                         ids=lambda x: x)
def test_output_file_holds_the_bytes_of_stdout(capsys, tmp_path, command, fmt):
    path = tmp_path / "out"
    argv = [*command.split(), "--format", fmt]
    rc, out = run(capsys, *argv)
    assert (rc, out[-1:]) == (0, "\n")
    assert main([*argv, "--output", str(path)]) == 0
    assert capsys.readouterr() == ("", "")
    assert path.read_bytes() == out.encode()

def test_potential_from_file(capsys, tmp_path):
    desc = {"T": 1.0, "pieces": [{"from": 0.0, "to": 1.0, "kind": "const",
                                  "value": 0.0}]}
    path = tmp_path / "flat.json"
    path.write_text(json.dumps(desc))
    rc, out = run(capsys, "spectrum", "--potential", str(path), "--bc", "D",
                  "--count", "1")
    assert rc == 0
    val = float(out.strip().splitlines()[1].split(",")[2])
    assert val == pytest.approx(math.pi ** 2, abs=1e-8)


def test_restricted_domain(capsys):
    # --T 1 on ex2 keeps only the zero plateau: Dirichlet firsts become pi^2
    rc, out = run(capsys, "spectrum", "--potential", "ex2", "--T", "1",
                  "--bc", "D", "--count", "1")
    assert rc == 0
    val = float(out.strip().splitlines()[1].split(",")[2])
    assert val == pytest.approx(math.pi ** 2, abs=1e-8)
