"""Exit codes, report schema, and output formats of the command line."""

import json
import subprocess
import sys

import pytest

from germcone.cli import main

WORKED = """\
vars x, y, z;
x*(x - z^3)*(x - 2*z^2);
y*(y - z^3)*(y - 2*z^2);
(x + y)*(x + y - z^3);
"""

CIRCLE = "vars x, y;\nx^2 + y^2 - 1;\n"


@pytest.fixture
def worked_file(tmp_path):
    path = tmp_path / "worked.ideal"
    path.write_text(WORKED)
    return str(path)


@pytest.fixture
def circle_file(tmp_path):
    path = tmp_path / "circle.ideal"
    path.write_text(CIRCLE)
    return str(path)


# --- analyze ---

def test_analyze_worked_example(worked_file, tmp_path):
    out = tmp_path / "report.json"
    assert main(["analyze", worked_file, "-o", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["n"] == 3
    assert report["vars"] == ["x", "y", "z"]
    assert report["degrees"] == [6, 6, 4]
    assert report["dimension_d"] == 1
    assert report["multiplicity_mu"] == 3
    assert report["singular_dimension_s"] == 1
    assert report["tangent_cone_generators"] == [
        "x^2 + 2*x*y + y^2", "y^3", "x*y^2", "y^2*z^4", "x*y*z^4"]
    assert report["density_bound"] == 3
    assert report["op_baseline_density"] == 561
    assert report["pure_dimensional"] == {"value": "unknown",
                                          "source": "unknown"}
    assert report["per_k"] == [
        {"k": 2, "case": "zero_dim", "betti_sum_bound": 3}]
    assert report["sigma_bounds"] == [
        {"l": 1, "bound": 3}, {"l": 2, "bound": 0}, {"l": 3, "bound": 0}]
    assert report["lk_bounds"][0] == {"k": 1, "bound": 3.0}
    assert [row["bound"] for row in report["lk_bounds"]] == [3.0, 0.0, 0.0]
    assert report["flags"] == {"assume_pure_dimensional": False,
                               "lk_exponent": "default", "k_range": "2..2"}
    assert set(report["versions"]) == {"germcone", "python"}


def test_report_key_order(worked_file, tmp_path):
    out = tmp_path / "report.json"
    main(["analyze", worked_file, "-o", str(out)])
    pairs = json.loads(out.read_text(),
                       object_pairs_hook=lambda kv: kv)
    assert [k for k, _ in pairs] == [
        "input", "n", "vars", "degrees", "tangent_cone_generators",
        "dimension_d", "multiplicity_mu", "singular_dimension_s",
        "pure_dimensional", "per_k", "sigma_bounds", "lk_bounds",
        "density_bound", "op_baseline_density", "flags", "versions"]


def test_analyze_is_byte_identical(worked_file, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["analyze", worked_file, "-o", str(a)]) == 0
    assert main(["analyze", worked_file, "-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_analyze_unbounded_exit(tmp_path):
    ideal = tmp_path / "f2.ideal"
    assert main(["family", "f", "--l", "2", "-o", str(ideal)]) == 0
    out = tmp_path / "report.json"
    assert main(["analyze", str(ideal), "-o", str(out)]) == 4
    report = json.loads(out.read_text())
    assert report["per_k"] == [
        {"k": 2, "case": "unbounded", "betti_sum_bound": "unbounded"}]


def test_analyze_pure_flag_changes_nothing_for_hypersurface(tmp_path, capsys):
    ideal = tmp_path / "cusp.ideal"
    ideal.write_text("vars x, y;\nx^2 - y^3;\n")
    assert main(["analyze", str(ideal)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["pure_dimensional"] == {"value": True,
                                          "source": "hypersurface-auto"}
    # n = 2 leaves no k in [2, n-1]
    assert report["per_k"] == []
    assert report["flags"]["k_range"] == "empty"


def test_analyze_k_range_flag(worked_file, capsys):
    assert main(["analyze", worked_file, "--k", "2..5"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [row["k"] for row in report["per_k"]] == [2]
    # the flag records the effective range after clipping to [2, n-1]
    assert report["flags"]["k_range"] == "2..2"


def test_analyze_high_exponent_monomial(tmp_path, capsys):
    # the Hilbert recursion splits at x^500 and y^500, not 500 times at x
    ideal = tmp_path / "mono.ideal"
    ideal.write_text("vars x, y;\nx^500*y^500;\n")
    assert main(["analyze", str(ideal)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["dimension_d"], report["multiplicity_mu"],
            report["singular_dimension_s"]) == (1, 1000, 1)


def test_analyze_prints_a_coefficient_past_the_str_digit_limit(tmp_path,
                                                                capsys):
    # 10^5000 + 7 has 5001 digits, more than the interpreter turns into a
    # str by default; the cone generator is the input, exact
    ideal = tmp_path / "long.ideal"
    ideal.write_text("vars x, y;\nx + (10^5000 + 7)*y;\n")
    assert main(["analyze", str(ideal)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["tangent_cone_generators"] == ["x + 1" + "0" * 4999 + "7*y"]
    assert (report["dimension_d"], report["singular_dimension_s"]) == (1, -1)


def test_analyze_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.ideal"
    bad.write_text("vars x;\nx + ;\n")
    assert main(["analyze", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "line 2, col 5" in err


def test_analyze_missing_file(tmp_path):
    assert main(["analyze", str(tmp_path / "absent.ideal")]) == 2


def test_analyze_empty_germ(tmp_path):
    ideal = tmp_path / "off.ideal"
    ideal.write_text("vars x, y;\nx + 1;\n")
    assert main(["analyze", str(ideal)]) == 2


def test_analyze_zero_ideal(tmp_path):
    ideal = tmp_path / "zero.ideal"
    ideal.write_text("vars x, y;\n0;\n")
    assert main(["analyze", str(ideal)]) == 2


def test_analyze_budget_exhaustion(worked_file):
    assert main(["analyze", worked_file, "--budget", "3"]) == 3


def test_budget_must_be_positive(worked_file, capsys):
    assert main(["analyze", worked_file, "--budget", "0"]) == 2
    assert "budget" in capsys.readouterr().err


# --- family ---

def test_family_round_trip(tmp_path):
    for argv in (["family", "g", "--l", "3"],
                 ["family", "f", "--l", "2", "--n", "4"],
                 ["family", "union", "--l", "2"]):
        out = tmp_path / "fam.ideal"
        assert main(argv + ["-o", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("vars ")
        from germcone.parser import parse_ideal
        parse_ideal(text)


def test_family_bad_parameters(capsys):
    assert main(["family", "g", "--l", "1"]) == 2
    assert "l >= 2" in capsys.readouterr().err


# --- betti0 ---

def test_betti0_circle(circle_file, capsys, tmp_path):
    csv = tmp_path / "cells.csv"
    code = main(["betti0", circle_file, "--box=-2,2,-2,2", "--res", "1/64",
                 "--csv", str(csv)])
    assert code == 0
    assert capsys.readouterr().out == "1\n"
    lines = csv.read_text().splitlines()
    assert lines[0] == "cx,cy,wx,wy"
    # header plus one row per boundary cell kept at this resolution
    assert len(lines) == 533


def test_betti0_with_fix(tmp_path, capsys):
    ideal = tmp_path / "sphere.ideal"
    ideal.write_text("vars x, y, z;\nx^2 + y^2 + z^2 - 4;\n")
    code = main(["betti0", str(ideal), "--fix", "z=1",
                 "--box=-3,3,-3,3", "--res", "1/32"])
    assert code == 0
    assert capsys.readouterr().out == "1\n"


def test_betti0_auto_resolution(circle_file, capsys):
    code = main(["betti0", circle_file, "--box=-2,2,-2,2",
                 "--budget", "40000"])
    assert code == 0
    assert capsys.readouterr().out == "1\n"


def test_betti0_builds_cell_rows_only_for_csv(circle_file, capsys, monkeypatch):
    from germcone import numtopo

    def refuse(*args, **kwargs):
        raise AssertionError("component_cells called without --csv")

    monkeypatch.setattr(numtopo, "component_cells", refuse)
    assert main(["betti0", circle_file, "--box=-2,2,-2,2", "--res", "1/64"]) == 0
    assert capsys.readouterr().out == "1\n"


def test_betti0_rejects_multiple_generators(worked_file, tmp_path, capsys):
    bad = tmp_path / "two.ideal"
    bad.write_text("vars x, y;\nx;\ny;\n")
    assert main(["betti0", str(bad), "--box=-1,1,-1,1"]) == 2


def test_betti0_rejects_bad_fix(circle_file):
    assert main(["betti0", circle_file, "--box=-1,1,-1,1",
                 "--fix", "q=1"]) == 2


def test_betti0_rejects_bad_box(circle_file):
    assert main(["betti0", circle_file, "--box=-1,1,-1"]) == 2


@pytest.mark.parametrize("argv", [
    ["betti0", "CIRCLE", "--box=1,-1,-1,1"],                # reversed box
    ["betti0", "CONE", "--box=-1,1,-1,1"],                  # 3 free variables
    ["betti0", "CIRCLE", "--box=-1,1,-1,1",
     "--res", "1/1000000000000000"],                        # too fine
    ["crofton", "--n", "0"],
    ["crofton", "--n", "700"],                              # volumes underflow
    ["crofton", "--n", "2100"],
    ["analyze", "X700"],                                    # x1 in 700 variables
    ["betti0", "MISSING", "--box=-1,1,-1,1"],               # unreadable file
    ["analyze", "CONE", "-o", "NODIR"],                     # unwritable output
    ["family", "g", "--l", "2", "-o", "NODIR"],
    ["betti0", "CIRCLE", "--box=-2,2,-2,2", "--csv", "NODIR"],
    ["analyze", "PARENS400"],                               # nested too deep
    ["analyze", "MINUS2000"],
    ["analyze", "POWER"],                                   # degree past cap
    ["analyze", "BINOMIAL"],
    ["analyze", "PRODUCT"],                                 # terms past cap
    ["analyze", "QUARTIC"],
    ["betti0", "BIG", "--box=-1,1,-1,1"],                   # 10^400 past float
    ["betti0", "CIRCLE", "--box=-1e308,1e308,-2,2", "--res", "1e308"],
    ["betti0", "CIRCLE", "--box=-1e308,1e308,-2,2"],       # width past float
])
def test_out_of_range_arguments_exit_2(argv, circle_file, tmp_path, capsys):
    cone = tmp_path / "cone.ideal"
    cone.write_text("vars x, y, z;\nx^2 + y^2 - z^2;\n")
    wide = tmp_path / "wide.ideal"
    wide.write_text("vars " + ", ".join(f"x{i}" for i in range(1, 701))
                    + ";\nx1;\n")
    parens = tmp_path / "parens.ideal"
    parens.write_text("vars x;\n" + "(" * 400 + "x" + ")" * 400 + ";\n")
    minus = tmp_path / "minus.ideal"
    minus.write_text("vars x;\n" + "-" * 2000 + "x;\n")
    big = tmp_path / "big.ideal"
    big.write_text("vars x, y;\n10^400*x^2 + y^2 - 1;\n")
    power = tmp_path / "power.ideal"
    power.write_text("vars x;\nx^99999999999;\n")
    binomial = tmp_path / "binomial.ideal"
    binomial.write_text("vars x, y;\n(x+y)^99999999999;\n")
    product = tmp_path / "product.ideal"
    product.write_text("vars x, y, z, w;\n(x+y+z+w)^30*(x+y+z+w)^30;\n")
    quartic = tmp_path / "quartic.ideal"
    quartic.write_text("vars x, y, z, w;\n(x+y+z+w)^200;\n")
    files = {"CIRCLE": circle_file, "CONE": str(cone), "X700": str(wide),
             "PARENS400": str(parens), "MINUS2000": str(minus), "BIG": str(big),
             "POWER": str(power), "BINOMIAL": str(binomial),
             "PRODUCT": str(product), "QUARTIC": str(quartic),
             "MISSING": str(tmp_path / "missing.ideal"),
             "NODIR": str(tmp_path / "no" / "such" / "dir" / "out")}
    assert main([files.get(a, a) for a in argv]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_reversed_box_exits_2_under_optimize(circle_file):
    # input checks must not be asserts, which -O strips
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "germcone", "betti0", circle_file,
         "--box=1,-1,-1,1"], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")


def test_betti0_overflowing_enclosure_is_quiet(circle_file):
    # a fresh interpreter: pytest would capture numpy's warnings itself
    proc = subprocess.run(
        [sys.executable, "-m", "germcone", "betti0", circle_file,
         "--box=-1e200,1e200,-1e200,1e200", "--res", "1e199"],
        capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "1\n", "")


def test_betti0_budget(circle_file):
    assert main(["betti0", circle_file, "--box=-2,2,-2,2", "--res", "1/256",
                 "--budget", "50"]) == 3


# --- crofton ---

def test_crofton_output(capsys):
    assert main(["crofton", "--n", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert lines[0] == "1 0.570796326795 0.429203673205"
    assert lines[1].split()[0] == "0"
    assert lines[2] == "0 0 1"


# --- the installed module entry point ---

def test_module_invocation(worked_file):
    proc = subprocess.run(
        [sys.executable, "-m", "germcone", "analyze", worked_file],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["multiplicity_mu"] == 3


def test_cli_import_leaves_out_scipy_sparse():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, germcone.cli; "
         "print('scipy.sparse' in sys.modules, 'scipy' in sys.modules)"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stdout.split() == ["False", "False"]


@pytest.mark.parametrize("argv", [
    ["analyze", "WORKED", "-o", "OUT"],
    ["family", "g", "--l", "3", "-o", "OUT"],
    ["crofton", "--n", "4"],
])
def test_commands_but_betti0_leave_out_numpy_and_scipy(argv, worked_file, tmp_path):
    files = {"WORKED": worked_file, "OUT": str(tmp_path / "out")}
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from germcone.cli import main; code = main(sys.argv[1:]); "
         "print(code, 'numpy' in sys.modules, 'scipy' in sys.modules)",
         *[files.get(a, a) for a in argv]],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-3:] == ["0", "False", "False"]


def test_betti0_leaves_out_scipy(circle_file):
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from germcone.cli import main; "
         "code = main(sys.argv[1:]); print(code, 'scipy' in sys.modules)",
         "betti0", circle_file, "--box=-2,2,-2,2", "--res", "1/64"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "0", "False"]
