import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
from qdl import cli, discrimination, learning, povmdec, programmable, reading


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def parse_csv(text):
    lines = [line for line in text.strip().splitlines() if line]
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_programmable_single_pair_row():
    code, out, err = run_cli(["programmable", "--n", "1", "--nprime", "1"])
    assert code == 0 and not err
    header, rows = parse_csv(out)
    assert header == ["n", "nprime", "Q", "Pe"]
    row = dict(zip(header, rows[0]))
    assert float(row["Q"]) == pytest.approx(5 / 6, abs=1e-6)
    assert float(row["Pe"]) == pytest.approx(0.355662, abs=1e-6)


def test_programmable_purity_and_prior_rows():
    code, out, _ = run_cli(["programmable", "--n", "1", "--nprime", "1", "--purity", "0.6"])
    assert code == 0
    _, rows = parse_csv(out)
    assert float(rows[0][-1]) == pytest.approx(programmable.mixed_error(1, 1, 0.6), abs=1e-8)
    code, out, _ = run_cli(["programmable", "--n", "2", "--nprime", "2", "--prior", "hs"])
    assert code == 0
    _, rows = parse_csv(out)
    want = programmable.universal_error(programmable.PuritySpec(kind="hard-sphere"), 2, 2)
    assert float(rows[0][-1]) == pytest.approx(want, abs=1e-8)


@pytest.mark.parametrize(
    "modes",
    [
        ["--purity", "0.7", "--prior", "hs"],
        ["--purity", "0.7", "--margin", "0.1"],
        ["--na", "2", "--purity", "0.7"],
        ["--margin", "0.1", "--prior", "bures"],
    ],
)
def test_programmable_refuses_conflicting_modes(modes, capsys):
    code, out, err = run_cli(["programmable", "--n", "2", "--nprime", "1", *modes])
    assert code == 2 and not out
    assert "not allowed with argument" in err
    assert capsys.readouterr() == ("", "")


def test_discriminate_weak_margin_row():
    code, out, _ = run_cli(
        ["discriminate", "--overlap", "0.7", "--mode", "weak", "--margin", "0.05"]
    )
    assert code == 0
    header, rows = parse_csv(out)
    row = dict(zip(header, rows[0]))
    assert float(row["Ps"]) == pytest.approx((math.sqrt(0.05) + math.sqrt(0.3)) ** 2, abs=1e-8)
    assert row["regime"] == "margin-limited"


def test_learn_row():
    code, out, _ = run_cli(["learn", "--n", "4", "--strategy", "reversed"])
    assert code == 0
    _, rows = parse_csv(out)
    assert float(rows[0][1]) == pytest.approx((1 - 4 / 30) / 2, abs=1e-8)


def test_read_collective_row():
    code, out, _ = run_cli(["read", "--alpha0", "1", "--strategy", "collective"])
    assert code == 0
    _, rows = parse_csv(out)
    assert float(rows[0][-1]) == pytest.approx(0.0747, abs=5e-5)


def test_read_eyd_defaults_to_optimal_squeezing():
    code, out, _ = run_cli(["read", "--alpha0", "0.8", "--strategy", "eyd"])
    assert code == 0
    header, rows = parse_csv(out)
    row = dict(zip(header, rows[0]))
    assert float(row["squeeze"]) == pytest.approx(reading.optimal_squeezing(0.8), abs=1e-8)


@pytest.mark.parametrize(
    "argv, option, strategy, wanted",
    [
        (["learn", "--n", "3", "--strategy", "lm", "--purity", "0.5"], "--purity", "lm", "sdp"),
        (["learn", "--n", "3", "--purity", "0.5"], "--purity", "lm", "sdp"),
        (["learn", "--n", "3", "--strategy", "eyd", "--purity", "0.5"], "--purity", "eyd", "sdp"),
        (["learn", "--n", "3", "--strategy", "reversed", "--purity", "0.5"],
         "--purity", "reversed", "sdp"),
        (["read", "--alpha0", "1", "--strategy", "collective", "--squeeze", "0.3"],
         "--squeeze", "collective", "eyd"),
        (["read", "--alpha0", "1", "--squeeze", "0.3", "--oracle"],
         "--squeeze", "collective", "eyd"),
    ],
)
def test_option_the_strategy_would_ignore_is_refused(argv, option, strategy, wanted):
    assert run_cli(argv) == (
        1, "", f"error: {option} applies to --strategy {wanted} only, not {strategy}\n"
    )


@pytest.mark.parametrize(
    "argv, option, mode",
    [
        (["programmable", "--n", "3", "--nb", "7", "--purity", "0.5"], "--nb", "--na"),
        (["programmable", "--n", "3", "--nc", "2", "--prior", "bures"], "--nc", "--na"),
        (["programmable", "--n", "3", "--nb", "1"], "--nb", "--na"),
        (["programmable", "--n", "3", "--scheme", "strong", "--prior", "hs"], "--scheme",
         "--margin"),
        (["programmable", "--na", "2", "--scheme", "weak"], "--scheme", "--margin"),
        (["read", "--alpha0", "1", "--naux", "-5", "--quad", "-3", "--mu", "nan"], "--naux",
         "--oracle"),
        (["read", "--alpha0", "1", "--strategy", "eyd", "--mu", "0.5"], "--mu", "--oracle"),
        (["read", "--alpha0", "1", "--quad", "8"], "--quad", "--oracle"),
        (["table", "--figure", "fig6.2", "--xmin", "0.5", "--xmax", "0.5", "--overlap", "0.3",
          "--n", "7", "--nprime", "5"], "--overlap", "--figure fig3.5"),
        (["table", "--figure", "fig4.5", "--overlap", "0.7"], "--overlap", "--figure fig3.5"),
        (["table", "--figure", "fig3.5", "--n", "9"], "--n", "--figure fig4.5"),
        (["table", "--figure", "fig4.1", "--nprime", "-2"], "--nprime", "--figure fig4.5"),
        (["discriminate", "--overlap", "0.5", "--mode", "unambiguous", "--margin", "7"],
         "--margin", "--mode weak or strong"),
        (["discriminate", "--overlap", "0.5", "--margin", "0.1"], "--margin",
         "--mode weak or strong"),
        (["discriminate", "--overlap", "0.5", "--mode", "weak", "--margin", "0.1", "--prior",
          "0.3"], "--prior", "--mode minerr or unambiguous"),
        (["discriminate", "--overlap", "0.5", "--mode", "strong", "--prior", "nan"], "--prior",
         "--mode minerr or unambiguous"),
    ],
)
def test_option_the_mode_would_ignore_is_refused(argv, option, mode):
    # given or not, an option that the chosen mode never reads was once
    # ignored silently, even at an invalid value
    assert run_cli(argv) == (1, "", f"error: {option} applies to {mode} only\n")


def test_options_of_a_mode_keep_their_defaults():
    assert run_cli(["programmable", "--na", "2", "--nc", "3"])[1] == run_cli(
        ["programmable", "--na", "2", "--nb", "1", "--nc", "3"])[1]
    assert run_cli(["programmable", "--n", "9", "--nprime", "2", "--margin", "0"])[1] == run_cli(
        ["programmable", "--n", "9", "--nprime", "2", "--margin", "0", "--scheme", "weak"])[1]
    base = ["read", "--alpha0", "0.9", "--oracle", "--naux", "2", "--quad", "4"]
    assert run_cli(base)[1] == run_cli(base + ["--mu", "1"])[1]
    for mode in ("minerr", "unambiguous"):
        base = ["discriminate", "--overlap", "0.5", "--mode", mode]
        assert run_cli(base)[1] == run_cli(base + ["--prior", "0.5"])[1]
    base = ["table", "--figure", "fig3.5", "--xmin", "0.1", "--xmax", "0.2", "--step", "0.05"]
    assert run_cli(base)[1] == run_cli(base + ["--overlap", "0.7"])[1]
    base = ["table", "--figure", "fig4.5", "--xmin", "0.01", "--xmax", "0.03", "--step", "0.01"]
    assert run_cli(base)[1] == run_cli(base + ["--n", "9", "--nprime", "2"])[1]


def test_usage_errors_around_a_row_in_one_process():
    # one parser serves every command of a process: a usage error must leave
    # it as it was, for the next row and for the next error
    bad = ["programmable", "--purity", "0.7", "--prior", "hs"]
    first = run_cli(bad)
    row = run_cli(["learn", "--n", "4", "--strategy", "reversed"])
    again = run_cli(bad)
    assert first == again
    assert first[:2] == (2, "") and "not allowed with argument --purity" in first[2]
    assert row == (0, "n,Pe\n4,0.433333333\n", "")
    assert run_cli(["--help"]) == run_cli(["--help"])
    assert cli.build_parser() is cli.build_parser()


def pentagon_povm():
    elems = []
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    for k in range(5):
        th = 2 * math.pi * k / 5
        op = 0.4 * (np.eye(2) + math.cos(th) * sx + math.sin(th) * sy) / 2
        elems.append((f"p{k}", op))
    return povmdec.Povm(dim=2, elements=tuple(elems))


def random_d4_povm():
    ops = oracles.random_povm(np.random.default_rng(4), 4, 20)
    return povmdec.Povm(dim=4, elements=tuple((str(i), op) for i, op in enumerate(ops)))


def test_decompose_pentagon_json(tmp_path):
    src = tmp_path / "pentagon.json"
    src.write_text(json.dumps(povmdec.povm_to_json(pentagon_povm())))

    code, out, err = run_cli(["decompose", "--input", str(src)])
    assert code == 0 and not err
    data = json.loads(out)
    assert data["terms"][0]["probability"] == pytest.approx(1 / math.sqrt(5), abs=1e-6)

    dst = tmp_path / "out.json"
    code, out, _ = run_cli(["decompose", "--input", str(src), "--output", str(dst)])
    assert code == 0
    data = json.loads(dst.read_text())
    assert len(data["terms"]) == 3


@pytest.mark.parametrize(
    "make, flags",
    [(pentagon_povm, []), (pentagon_povm, ["--ordered"]), (random_d4_povm, [])],
    ids=["pentagon", "pentagon-ordered", "random-d4"],
)
def test_decompose_prints_the_indented_sorted_json_of_the_result(tmp_path, make, flags):
    povm = make()
    src = tmp_path / "povm.json"
    src.write_text(json.dumps(povmdec.povm_to_json(povm)))
    result = povmdec.ordered_decompose(povm) if flags else povmdec.decompose(povm)
    want = json.dumps(povmdec.decomposition_to_json(result), indent=2, sort_keys=True) + "\n"

    code, out, err = run_cli(["decompose", "--input", str(src), *flags])
    assert code == 0 and not err
    assert out == want

    dst = tmp_path / "out.json"
    code, out, err = run_cli(["decompose", "--input", str(src), *flags, "--output", str(dst)])
    assert code == 0 and not out and not err
    assert dst.read_bytes() == want.encode("utf-8")


@pytest.mark.parametrize(
    "document",
    [
        {"dim": 2, "elements": [{"label": "a", "matrix": [[["x", 0]]]}]},
        # well formed, but the elements sum to 2 I: refused by the decomposer
        {"dim": 2, "elements": [{"label": "a", "matrix": [[[2, 0], [0, 0]], [[0, 0], [2, 0]]]}]},
    ],
    ids=["malformed", "not-a-povm"],
)
def test_decompose_error_leaves_no_output_file(tmp_path, document):
    src = tmp_path / "bad.json"
    src.write_text(json.dumps(document))
    dst = tmp_path / "x.json"
    code, out, err = run_cli(["decompose", "--input", str(src), "--output", str(dst)])
    assert code == 1 and not out and err.startswith("error: ")
    assert not dst.exists()


def test_decompose_refuses_a_repeated_label_naming_it(tmp_path):
    # two outcomes of one name would merge in the relabel map, and the sum
    # through it would not reconstruct the input
    src = tmp_path / "twice.json"
    element = {"label": "a", "matrix": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]}
    src.write_text(json.dumps({"dim": 2, "elements": [element, element]}))
    code, out, err = run_cli(["decompose", "--input", str(src)])
    assert (code, out, err) == (1, "", "error: label 'a' names more than one element\n")


def test_decompose_missing_file_is_computation_error():
    code, out, err = run_cli(["decompose", "--input", "/nonexistent/povm.json"])
    assert code == 1
    assert "error" in err


def test_decompose_malformed_json_is_computation_error(tmp_path):
    src = tmp_path / "bad.json"
    src.write_text(json.dumps({"dim": 2, "elements": [{"label": "a", "matrix": [[["x", 0]]]}]}))
    code, out, err = run_cli(["decompose", "--input", str(src)])
    assert code == 1 and not out
    assert err.startswith("error: POVM JSON element 0 'a': could not convert string to float")


def test_unknown_command_usage_error():
    code, _, _ = run_cli(["discombobulate"])
    assert code == 2


def test_unknown_figure_is_computation_error():
    code, _, err = run_cli(["table", "--figure", "fig9.9"])
    assert code == 1
    assert "unknown figure" in err


def test_table_fig45_row_count_and_endpoints(tmp_path):
    out_file = tmp_path / "fig45.csv"
    code, _, _ = run_cli(
        ["table", "--figure", "fig4.5", "--out", str(out_file),
         "--xmin", "0", "--xmax", "0.2", "--step", "0.002"]
    )
    assert code == 0
    header, rows = parse_csv(out_file.read_text())
    assert header == ["R", "Ps_weak", "Ps_strong"]
    assert len(rows) == 101
    rates = programmable.pure_rates(9, 2)
    first = [float(v) for v in rows[0]]
    assert first[1] == pytest.approx(1 - rates.q, abs=1e-8)
    assert first[2] == pytest.approx(1 - rates.q, abs=1e-8)
    last = [float(v) for v in rows[-1]]
    assert last[1] == pytest.approx(1 - rates.pe, abs=1e-8)
    assert last[2] == pytest.approx(1 - rates.pe, abs=1e-8)


def test_table_fig35_curves_meet_at_extremes(tmp_path):
    out_file = tmp_path / "fig35.csv"
    code, _, _ = run_cli(
        ["table", "--figure", "fig3.5", "--out", str(out_file),
         "--xmin", "0", "--xmax", "0.15", "--step", "0.0025", "--overlap", "0.7"]
    )
    assert code == 0
    _, rows = parse_csv(out_file.read_text())
    first = [float(v) for v in rows[0]]
    assert first[1] == pytest.approx(first[2], abs=1e-9)
    rc = (1 - math.sqrt(1 - 0.49)) / 2
    past = [r for r in rows if float(r[0]) >= rc]
    assert float(past[0][1]) == pytest.approx(float(past[0][2]), abs=1e-9)


def test_table_fig63_endpoint_matches_closed_form(tmp_path):
    out_file = tmp_path / "fig63.csv"
    code, _, _ = run_cli(
        ["table", "--figure", "fig6.3", "--out", str(out_file),
         "--xmin", "1.0", "--xmax", "1.0", "--step", "1.0"]
    )
    assert code == 0
    _, rows = parse_csv(out_file.read_text())
    assert float(rows[0][1]) == pytest.approx(reading.collective_excess_risk(1.0), abs=1e-8)


def test_table_empty_grid_header_only(tmp_path):
    out_file = tmp_path / "empty.csv"
    code, _, _ = run_cli(
        ["table", "--figure", "fig4.5", "--out", str(out_file),
         "--xmin", "0.2", "--xmax", "0.1", "--step", "0.01"]
    )
    assert code == 0
    text = out_file.read_text()
    header, rows = parse_csv(text)
    assert header == ["R", "Ps_weak", "Ps_strong"]
    assert rows == []


@pytest.mark.parametrize(
    "flag, value",
    [("--step", "nan"), ("--xmax", "inf"), ("--xmin", "nan"), ("--xmin", "-inf")],
)
def test_table_refuses_non_finite_grid_bound(flag, value):
    bounds = {"--xmin": "0", "--xmax": "0.05", "--step": "0.01"}
    bounds[flag] = value
    # "--xmin=-inf": a separate "-inf" would parse as an option
    argv = ["table", "--figure", "fig4.5"] + [f"{k}={v}" for k, v in bounds.items()]
    code, out, err = run_cli(argv)
    assert code == 1 and not out
    assert err == f"error: {flag} {float(value)} is not a finite number\n"


@pytest.mark.parametrize(
    "figure, bounds, step",
    [
        ("fig6.2", [], "1e-300"),
        ("fig6.2", [], "1e-7"),
        ("fig4.5", ["--xmin=-1e308", "--xmax=1e308"], "1e300"),
    ],
)
def test_table_refuses_a_grid_past_a_million_points(figure, bounds, step):
    code, out, err = run_cli(["table", "--figure", figure, *bounds, "--step", step])
    assert code == 1 and not out
    assert err == f"error: --step {float(step)} gives more than 1000000 grid points\n"


@pytest.mark.parametrize("bounds", [("1e17", "100000000000000064", "1"),
                                    ("1e300", "1e300", "0.002")])
def test_table_refuses_a_step_below_the_float_spacing(bounds):
    # xmin + k step stops moving: at 1e17 + k the grid once held 73 points, 5
    # of them distinct, and at 1e300 it grew until memory ran out
    xmin, xmax, step = bounds
    code, out, err = run_cli(["table", "--figure", "fig4.5", "--xmin", xmin, "--xmax", xmax,
                              "--step", step])
    assert code == 1 and not out
    assert err == f"error: --step {float(step)} is below the float spacing at {float(xmin)}\n"


def test_single_row_grids_keep_their_row():
    # the benchmark's one-row tables, --xmin r --xmax r --step 0.1
    for r in (0.6086, 1.0, 0.3118):
        assert cli._grid(r, r, 0.1) == [r]
    assert cli._grid(2.0, 14.0, 1.0) == [float(n) for n in range(2, 15)]


@pytest.mark.parametrize(
    "bounds",
    [
        ["--step=nan"],
        # rows 0.2 to 1.0 succeed, then the margin 1.2 is refused
        ["--xmin", "0.2", "--xmax", "1.4", "--step", "0.2"],
    ],
)
def test_table_error_leaves_no_out_file(tmp_path, bounds):
    out_file = tmp_path / "x.csv"
    code, out, err = run_cli(["table", "--figure", "fig3.5", *bounds, "--out", str(out_file)])
    assert code == 1 and not out and err.startswith("error: ")
    assert not out_file.exists()


@pytest.mark.parametrize(
    "figure, bounds, message",
    [
        ("fig4.4", ["--xmin", "1", "--xmax", "3", "--step", "0.5"], "--step 0.5 puts n = 1.5"),
        ("fig4.2", ["--xmin", "2.5", "--xmax", "2.5"], "--xmin 2.5 puts n = 2.5"),
        ("fig4.2", ["--xmin", "1", "--xmax", "2.9999999999"],
         "--xmax 2.9999999999 puts n = 2.9999999999"),
    ],
)
def test_table_refuses_a_fractional_copy_count_on_the_grid(tmp_path, figure, bounds, message):
    # n counts copies: a fractional grid point was once rounded, printing
    # one row several times or under another n
    out_file = tmp_path / "x.csv"
    code, out, err = run_cli(["table", "--figure", figure, *bounds, "--out", str(out_file)])
    assert code == 1 and not out
    assert err == f"error: {message} on the grid, not a whole number\n"
    assert not out_file.exists()


def test_purity_sweeps_are_their_row_by_row_values_bit_for_bit():
    # fig4.1 and fig4.3 solve each load's column of purities in one pass;
    # the pass prunes each purity by its own mass, so r = 0 (nothing
    # pruned) beside r = 1 (nearly everything) leaves every value as alone
    rs = [0.0, 1e-300, 0.3, 0.55, 1 - 2.0**-53, 1.0]
    got = cli.FIGURES["fig4.1"][-1](None, rs)
    assert got == [[r] + [programmable.mixed_error(n, n, r) for n in (3, 11, 29)] for r in rs]
    rs = rs[1:]  # the asymptote refuses r = 0
    got = cli.FIGURES["fig4.3"][-1](None, rs)
    assert got == [[r] + [v for n in (20, 79) for v in (
        programmable.mixed_error(n, 1, r), programmable.mixed_asymptote(n, r))] for r in rs]


@pytest.mark.parametrize("threads", ["1", "3"])
def test_purity_sweep_refuses_with_its_first_failing_row(monkeypatch, threads):
    # the r = 0 row fails at its asymptote before the r = 1.2 row fails at
    # its purity, as in a row-by-row sweep
    monkeypatch.setenv("QDL_THREADS", threads)
    code, out, err = run_cli(["table", "--figure", "fig4.3", "--xmin", "0", "--xmax", "1.2",
                              "--step", "0.3"])
    assert code == 1 and not out
    assert err == "error: purity 0.0 outside (0, 1]; the r = 0 limit is singular\n"


def test_table_unwritable_out_is_an_error(tmp_path):
    target = tmp_path / "missing" / "x.csv"
    code, out, err = run_cli(["table", "--figure", "fig6.2", "--xmin", "1", "--xmax", "1",
                              "--out", str(target)])
    assert code == 1 and not out
    assert err.startswith("error: cannot write table: ")


@pytest.mark.parametrize("module", ["qdl", "qdl.cli"])
def test_running_the_package_as_a_module_reaches_the_cli(tmp_path, module):
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-m", module, "table", "--figure", "fig4.1",
                           "--step=nan"], env=env, cwd=tmp_path, capture_output=True, text=True)
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr == "error: --step nan is not a finite number\n"


def test_closed_stdout_pipe_exits_quietly(tmp_path):
    # `qdl table ... | head -1`: the reader leaves after the first line, and
    # the table (about 0.8 MB) is far larger than a pipe buffer
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    argv = [sys.executable, "-m", "qdl", "table", "--figure", "fig3.5", "--step", "0.00001"]
    with subprocess.Popen(argv, env=env, cwd=tmp_path, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert first == b"r,Ps_weak,Ps_strong\n"
    assert err == b"" and code == cli.BROKEN_PIPE_STATUS == 141


def test_importing_the_cli_leaves_scipy_unloaded():
    src = Path(cli.__file__).resolve().parents[1]
    probe = "import sys, qdl.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout == "[]\n"


def _cell(v):
    return f"{v:.9g}" if isinstance(v, float) else str(v)


def _lm_excess(n, r):
    return (1 - learning.lm_mixed_optimize(n, r).delta_lm / 2) / 2 - learning.known_pair_error(r)


FIGURE_CASES = {
    # id: (a cheap x, the documented header, its row from the library)
    "fig3.5": (0.05, ["r", "Ps_weak", "Ps_strong"], lambda r: [
        r, discrimination.weak_margin(0.7, r).p_success,
        discrimination.strong_margin(0.7, r).p_success]),
    "fig4.1": (0.6, ["r", "Pe_n3", "Pe_n11", "Pe_n29"], lambda r: [
        r, programmable.mixed_error(3, 3, r), programmable.mixed_error(11, 11, r),
        programmable.mixed_error(29, 29, r)]),
    "fig4.2": (3, ["n", "Pe_r0.2", "Pe_r0.5", "Pe_r0.7", "Pe_r1.0"], lambda n: [
        n, programmable.mixed_error(3, 3, 0.2), programmable.mixed_error(3, 3, 0.5),
        programmable.mixed_error(3, 3, 0.7), programmable.mixed_error(3, 3, 1.0)]),
    "fig4.3": (0.5, ["r", "Pe_n20", "asym_n20", "Pe_n79", "asym_n79"], lambda r: [
        r, programmable.mixed_error(20, 1, r), programmable.mixed_asymptote(20, r),
        programmable.mixed_error(79, 1, r), programmable.mixed_asymptote(79, r)]),
    "fig4.4": (2, ["n", "Pe_hs", "Pe_bures", "Pe_chernoff"], lambda n: [n] + [
        programmable.universal_error(programmable.PuritySpec(kind=k), 2, 2)
        for k in ("hard-sphere", "bures", "chernoff")]),
    "fig4.5": (0.05, ["R", "Ps_weak", "Ps_strong"], lambda big_r: [
        big_r, programmable.margin_success(9, 2, big_r, "weak").p_success,
        programmable.margin_success(9, 2, big_r, "strong").p_success]),
    "fig5.1": (0.5, ["r", "R_lm_n1", "R_opt_n1", "R_lm_n2", "R_opt_n2", "R_lm_n3", "R_opt_n3"],
               lambda r: [r] + [
                   v for n in (1, 2, 3)
                   for v in (_lm_excess(n, r),
                             programmable.mixed_error(n, 1, r) - learning.known_pair_error(r))]),
    "fig6.2": (1.0, ["alpha0", "squeeze_opt"], lambda a0: [a0, reading.optimal_squeezing(a0)]),
    "fig6.3": (1.0, ["alpha0", "R_collective", "R_eyd"], lambda a0: [
        a0, reading.collective_excess_risk(a0),
        reading.eyd_excess_risk(a0, reading.optimal_squeezing(a0))]),
}


@pytest.mark.parametrize("figure", sorted(cli.FIGURES))
def test_every_figure_row_is_its_documented_library_row(figure):
    x, header, row = FIGURE_CASES[figure]
    code, out, err = run_cli(["table", "--figure", figure, "--xmin", str(x), "--xmax", str(x),
                              "--step", "1"])
    assert code == 0 and not err
    assert out.splitlines() == [",".join(header), ",".join(_cell(v) for v in row(x))]


def test_table_output_byte_identical_across_runs(tmp_path):
    base = ["table", "--figure", "fig4.5",
            "--xmin", "0", "--xmax", "0.05", "--step", "0.005"]
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(base + ["--out", str(f1)])[0] == 0
    assert run_cli(base + ["--out", str(f2)])[0] == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_table_thread_env_does_not_change_bytes(tmp_path, monkeypatch):
    # fig4.2 and fig4.4 rows solve stacks of purities and priors at one n;
    # fig4.1 and fig4.3 spread their load columns over the workers
    grids = {"fig3.5": ("0", "0.1", "0.01"), "fig4.2": ("1", "4", "1"),
             "fig4.4": ("1", "4", "1"), "fig4.1": ("0", "1", "0.25"),
             "fig4.3": ("0.1", "1", "0.3")}
    for figure, (xmin, xmax, step) in grids.items():
        f1, f2 = tmp_path / f"{figure}-1.csv", tmp_path / f"{figure}-4.csv"
        base = ["table", "--figure", figure, "--xmin", xmin, "--xmax", xmax, "--step", step]
        monkeypatch.setenv("QDL_THREADS", "1")
        assert run_cli(base + ["--out", str(f1)])[0] == 0
        monkeypatch.setenv("QDL_THREADS", "4")
        assert run_cli(base + ["--out", str(f2)])[0] == 0
        assert f1.read_bytes() == f2.read_bytes(), figure


def test_prior_table_runs_one_eigensolve_per_dimension_slice(monkeypatch):
    # the benchmark's fig4.4 command: one pass over its eleven loads and
    # three priors solves each dimension's 3 x 3 to 13 x 13 matrices in one
    # eigvalsh call (one per table and load: 198 calls) and builds one
    # Lambda per distinct orbit label (one per load's orbit: 686 sectors
    # reach recoupling_batch); the stacks are counted, not the Gauss nodes
    # of the Chernoff prior
    solves, sectors = [], []
    eigvalsh, batch = np.linalg.eigvalsh, programmable.recoupling_batch
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: (
        solves.append(a.shape) if a.ndim == 3 else None, eigvalsh(a))[1])
    monkeypatch.setattr(programmable, "recoupling_batch", lambda *spins: (
        sectors.append(len(spins[0])), batch(*spins))[1])
    monkeypatch.delenv("QDL_THREADS", raising=False)
    code, out, _ = run_cli(["table", "--figure", "fig4.4", "--xmin", "2", "--xmax", "12",
                            "--step", "1"])
    assert code == 0 and len(out.splitlines()) == 12
    assert [shape[1] for shape in solves] == list(range(3, 14))
    assert sum(shape[0] for shape in solves) == 7884
    assert sum(sectors) == 686


@pytest.mark.parametrize("bad", ["abc", "0", "-2", "2.5"])
def test_table_refuses_malformed_thread_env(monkeypatch, bad):
    monkeypatch.setenv("QDL_THREADS", bad)
    code, out, err = run_cli(["table", "--figure", "fig3.5", "--xmin", "0", "--xmax", "0.01",
                              "--step", "0.01"])
    assert code == 1 and not out
    assert err.startswith(f"error: QDL_THREADS {bad!r} ")


def test_table_empty_thread_env_is_the_default(monkeypatch):
    base = ["table", "--figure", "fig3.5", "--xmin", "0", "--xmax", "0.01", "--step", "0.01"]
    monkeypatch.delenv("QDL_THREADS", raising=False)
    unset = run_cli(base)
    monkeypatch.setenv("QDL_THREADS", "")
    assert run_cli(base) == unset and unset[0] == 0


def test_table_svg_written(tmp_path):
    csv_file = tmp_path / "t.csv"
    svg_file = tmp_path / "t.svg"
    code, _, _ = run_cli(
        ["table", "--figure", "fig6.2", "--out", str(csv_file), "--svg", str(svg_file),
         "--xmin", "0.5", "--xmax", "1.5", "--step", "0.1"]
    )
    assert code == 0
    svg = svg_file.read_text()
    assert svg.startswith("<svg")
    assert svg.count("<polyline") == 1


def test_read_oracle_row():
    code, out, _ = run_cli(
        ["read", "--alpha0", "0.9", "--strategy", "collective", "--oracle",
         "--naux", "1", "--mu", "0.0001", "--quad", "8"]
    )
    assert code == 0
    _, rows = parse_csv(out)
    from qdl.discrimination import pure_overlap_error

    want = pure_overlap_error(math.exp(-0.81 / 2), 0.5)
    assert float(rows[0][-1]) == pytest.approx(want, abs=1e-6)


def test_number_format_nine_significant_digits():
    code, out, _ = run_cli(["programmable", "--n", "1", "--nprime", "1"])
    _, rows = parse_csv(out)
    assert rows[0][2] == "0.833333333"
    assert rows[0][3] == "0.355662433"
