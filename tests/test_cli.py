"""Tests for the qig command-line interface."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qig import acceptance, coding, infogeo, povm
from qig.cli import MAX_GRID, build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestScalarCommands:
    def test_bound_radius(self, capsys):
        code, out = run_cli(capsys, "bound-radius")
        assert code == 0
        assert json.loads(out) == pytest.approx(0.992348, abs=1e-4)

    def test_gm_trace_two_copies(self, capsys):
        code, out = run_cli(capsys, "gm-trace", "--metric", "helstrom",
                            "--n", "2", "--r", "0.7")
        assert code == 0
        assert json.loads(out) == pytest.approx(3.0, abs=1e-9)

    def test_gm_trace_yuen_lax(self, capsys):
        code, out = run_cli(capsys, "gm-trace", "--metric", "yuen-lax",
                            "--n", "2", "--r", "0.5")
        assert code == 0
        assert json.loads(out) == pytest.approx(2.5, abs=1e-9)

    def test_volume_two_copies(self, capsys):
        code, out = run_cli(capsys, "volume", "--n", "2")
        assert code == 0
        assert json.loads(out) == pytest.approx(math.pi ** 2, rel=1e-6)

    @pytest.mark.parametrize("order", ["47", "97", "100000000"])
    def test_volume_order_outside_range_is_usage_error(self, capsys, order):
        # parse only: an order above the cap must never reach the integral
        with pytest.raises(SystemExit) as err:
            build_parser().parse_args(["volume", "--n", "3", "--order", order])
        assert err.value.code == 2
        assert capsys.readouterr().err.count("error:") == 1


class TestMatrixCommands:
    def test_helstrom_cartesian(self, capsys):
        code, out = run_cli(capsys, "helstrom", "--point", "0.6,0,0")
        payload = json.loads(out)
        assert code == 0
        assert payload["coords"] == "cartesian"
        assert payload["matrix"][0][0] == pytest.approx(1.5625)

    def test_helstrom_spherical(self, capsys):
        code, out = run_cli(capsys, "helstrom", "--point", "0,0.5,0", "--spherical")
        payload = json.loads(out)
        assert payload["coords"] == "spherical"
        assert payload["matrix"][0][0] == pytest.approx(4 / 3)
        assert payload["matrix"][1][1] == pytest.approx(0.25)

    def test_fisher_matrix(self, capsys):
        code, out = run_cli(capsys, "fisher", "--n", "4", "--point", "0,0,0")
        payload = json.loads(out)
        assert payload["matrix"][0][0] == pytest.approx(29 / 12)

    def test_seven_copies(self, capsys):
        # F_7(0) = (449/96) I + (7/96) J, its diagonal the tabulated 456/96
        code, out = run_cli(capsys, "fisher", "--n", "7", "--point", "0,0,0")
        assert code == 0
        assert json.loads(out)["matrix"][0] == pytest.approx([4.75, 7 / 96, 7 / 96])
        code, out = run_cli(capsys, "gm-trace", "--metric", "helstrom", "--n", "7", "--r", "0.5")
        assert code == 0 and json.loads(out) == pytest.approx(
            acceptance._tabulated(acceptance._GM_TABLE, 7, 0.5))
        code, out = run_cli(capsys, "volume", "--n", "7")
        assert code == 0 and json.loads(out) == pytest.approx(88.8621, rel=5e-4)
        code, out = run_cli(capsys, "dominance", "--n", "7")
        assert code == 0 and json.loads(out)["n_violations"] == 0

    @pytest.mark.parametrize("command, smallest", [
        ("fisher", 2), ("gm-trace", 2), ("volume", 2), ("dominance", 3)])
    def test_copy_count_choices_are_the_supported_matrices(self, command, smallest):
        sub = build_parser()._subparsers._group_actions[0].choices[command]
        n_action = next(a for a in sub._actions if a.dest == "n")
        assert n_action.choices == tuple(n for n in povm.SUPPORTED_MATRICES if n >= smallest)

    def test_invalid_point_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["helstrom", "--point", "2,0,0"])
        assert err.value.code == 2


class TestDominanceCommand:
    def test_scan_with_given_scalar(self, capsys):
        code, out = run_cli(capsys, "dominance", "--n", "6", "--rmax", "0.999",
                            "--scalar", "4.99")
        payload = json.loads(out)
        assert code == 0
        assert payload["scalar_bound"] == pytest.approx(4.99)
        assert payload["n_violations"] > 0

    def test_scan_finds_tight_scalar(self, capsys):
        code, out = run_cli(capsys, "dominance", "--n", "4", "--rmax", "0.9")
        payload = json.loads(out)
        assert code == 0
        assert payload["scalar_bound"] <= 3.0 + 1e-3
        assert payload["violations"] == []

    def test_tight_scalar_scan_builds_no_matrices(self, capsys, monkeypatch):
        # the scalar and the scan both read closed-form spectra; neither needs H_q or F_N
        sizes = []

        def counting(kernel):
            def wrapped(*args):
                sizes.append(np.asarray(args[-1]).size // 3)
                return kernel(*args)
            return wrapped

        monkeypatch.setattr(povm, "closed_form_batch", counting(povm.closed_form_batch))
        monkeypatch.setattr(infogeo, "helstrom_batch", counting(infogeo.helstrom_batch))
        code, out = run_cli(capsys, "dominance", "--n", "6")
        assert code == 0 and json.loads(out)["n_violations"] == 0
        assert sizes == []

    def test_copy_count_beyond_the_cap_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["dominance", "--n", "21", "--scalar", "6"])
        assert err.value.code == 2
        stderr = capsys.readouterr().err
        assert stderr.count("error:") == 1 and "invalid choice: 21" in stderr

    @pytest.mark.parametrize("scalar", ["nan", "inf"])
    def test_non_finite_scalar_is_usage_error(self, capsys, scalar):
        with pytest.raises(SystemExit) as err:
            main(["dominance", "--n", "4", "--scalar", scalar])
        assert err.value.code == 2
        assert "must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("scalar", ["1e200", "-1e200", "1e308", "-1e308"])
    def test_huge_scalar_is_usage_error(self, capsys, scalar):
        # eigenvalues of order |c|/(1 - r^2) overflow when squared; the scan
        # must not report "no violation" from them
        with pytest.raises(SystemExit) as err:
            main(["dominance", "--n", "6", f"--scalar={scalar}"])
        assert err.value.code == 2
        stderr = capsys.readouterr().err
        assert stderr.count("error:") == 1 and "must be within +-1e+100" in stderr

    def test_largest_scalar_is_accepted(self, capsys):
        code, out = run_cli(capsys, "dominance", "--n", "6", "--scalar=-1e100")
        assert code == 0 and json.loads(out)["n_violations"] == 4864


class TestCurvesCommand:
    def test_figure_one_csv(self, capsys):
        code, out = run_cli(capsys, "curves", "--figure", "1", "--grid", "10")
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[0] == "r,value,label"
        assert len(lines) == 1 + 4 * 10

    @pytest.mark.parametrize("grid", [str(MAX_GRID + 1), "100000000"])
    def test_grid_above_cap_is_usage_error(self, capsys, grid):
        # parse only: a grid above the cap must never be allocated
        with pytest.raises(SystemExit) as err:
            build_parser().parse_args(["curves", "--figure", "2", "--grid", grid])
        assert err.value.code == 2
        assert capsys.readouterr().err.count("error:") == 1

    def test_grid_cap_is_accepted(self):
        args = build_parser().parse_args(["curves", "--figure", "2", "--grid", str(MAX_GRID)])
        assert args.grid == MAX_GRID

    def test_figure_three_ordering(self, capsys):
        code, out = run_cli(capsys, "curves", "--figure", "3", "--grid", "10")
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        by_label = {}
        for r, v, label in rows:
            by_label.setdefault(label, []).append(float(v))
        assert np.all(np.array(by_label["g_fit_N6"]) > np.array(by_label["g_fit_N4"]))

    def test_figure_two_quantum_below_classical(self, capsys):
        code, out = run_cli(capsys, "curves", "--figure", "2", "--grid", "20")
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        q = [float(v) for r, v, label in rows if label == "half_log_Iq"]
        c = [float(v) for r, v, label in rows if label == "half_log_classical"]
        assert all(a < b for a, b in zip(q, c))


class TestCodingCommands:
    def test_jeffreys_redundancy(self, capsys):
        code, out = run_cli(capsys, "coding", "--prior", "jeffreys", "--N", "100")
        payload = json.loads(out)
        want = 1.5 * math.log(100 / (2 * math.pi * math.e)) + math.log(8 * math.pi ** 2)
        assert payload["redundancy"] == pytest.approx(want, rel=1e-8)
        assert payload["units"] == "nats"

    def test_bits_flag(self, capsys):
        _, nats_out = run_cli(capsys, "coding", "--prior", "quasi-bures", "--N", "50",
                              "--r", "0.4")
        _, bits_out = run_cli(capsys, "coding", "--prior", "quasi-bures", "--N", "50",
                              "--r", "0.4", "--bits")
        nats = json.loads(nats_out)["redundancy"]
        bits = json.loads(bits_out)["redundancy"]
        assert bits == pytest.approx(nats / math.log(2), rel=1e-8)

    def test_normalize(self, capsys):
        code, out = run_cli(capsys, "normalize", "--prior", "quasi-bures")
        payload = json.loads(out)
        assert payload["integral"] == pytest.approx(1.0, abs=1e-4)
        assert payload["constant_tabulated"] == coding.QUASI_BURES_CONSTANT


class TestMonteCarloCommand:
    def test_byte_identical_reruns(self, capsys):
        args = ["mc", "--n", "2", "--truth", "0.3,0.2,0.1",
                "--M", "5000", "--R", "5", "--seed", "77"]
        code1, out1 = run_cli(capsys, *args)
        code2, out2 = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["seed"] == 77 and payload["R"] == 5

    def test_quadrinomial_model_selector(self, capsys):
        code, out = run_cli(capsys, "mc", "--n", "quad", "--truth", "0.3,0.2,0.1",
                            "--M", "5000", "--R", "3", "--seed", "5")
        assert code == 0
        assert json.loads(out)["model"] == "quadrinomial"

    def test_single_repetition_is_one_error_line(self, capsys):
        code = main(["mc", "--n", "2", "--truth", "0.3,0.2,0.1",
                     "--M", "5000", "--R", "1", "--seed", "5"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1

    def test_negative_seed_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["mc", "--n", "2", "--truth", "0.3,0.2,0.1",
                  "--M", "100", "--R", "3", "--seed", "-1"])
        assert err.value.code == 2
        assert "--seed: must be >= 0" in capsys.readouterr().err


class TestVerifyAll:
    def test_subset_passes(self, capsys):
        code, out = run_cli(capsys, "verify-all", "--ids", "X1", "X3")
        assert code == 0
        assert out.count("PASS") == 2
        assert "2/2 checks passed" in out

    def test_unknown_id_is_usage_error_naming_valid_ids(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["verify-all", "--ids", "99"])
        assert err.value.code == 2
        assert "'X4'" in capsys.readouterr().err

    def test_empty_selection_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["verify-all", "--ids"])
        assert err.value.code == 2

    def test_zero_checks_never_pass(self, capsys, monkeypatch):
        monkeypatch.setattr(acceptance, "run_all", lambda ids: [])
        code, out = run_cli(capsys, "verify-all")
        assert code == 1
        assert "0/0 checks passed" in out


class TestOutputHandling:
    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "radius.json"
        code, _ = run_cli(capsys, "--output", str(target), "bound-radius")
        assert code == 0
        assert json.loads(target.read_text()) == pytest.approx(0.992348, abs=1e-4)

    def test_precision_flag(self, capsys):
        _, out = run_cli(capsys, "--precision", "3", "bound-radius")
        assert out.strip() == "0.992"

    def test_runtime_error_exits_one(self, capsys):
        code = main(["dominance", "--n", "6", "--rmax", "1.5"])
        assert code == 1

    def test_precision_below_one_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["--precision", "0", "bound-radius"])
        assert err.value.code == 2

    def test_curve_grid_below_two_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["curves", "--figure", "1", "--grid", "0"])
        assert err.value.code == 2

    def test_unwritable_output_is_one_error_line(self, tmp_path, capsys):
        code = main(["--output", str(tmp_path / "missing" / "x"), "bound-radius"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1

    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2


# one run of each subcommand; none may load scipy
_EVERY_COMMAND = [
    ["helstrom", "--point", "0.3,0.2,0.1"],
    ["fisher", "--n", "5", "--point", "0.3,0.2,0.1"],
    ["gm-trace", "--metric", "quasi-bures", "--n", "4", "--r", "0.5"],
    ["bound-radius"],
    ["coding", "--prior", "quasi-bures", "--N", "100"],
    ["normalize", "--prior", "quasi-bures"],
    ["verify-all", "--ids", "1", "3"],
    ["dominance", "--n", "4"],
    ["curves", "--figure", "6"],
    ["volume", "--n", "4"],
    ["mc", "--n", "2", "--truth", "0.3,0.2,0.1", "--M", "1000", "--R", "3", "--seed", "1"],
    ["verify-all", "--ids", "7", "8"],
]

_TABLE_PROBE = """
import io
from contextlib import redirect_stdout
import qig.cli
from qig import analysis

def built():
    return [analysis._scan_table.cache_info().currsize,
            analysis._node_table.cache_info().currsize]

after_import = built()
with redirect_stdout(io.StringIO()):
    code = qig.cli.main(["bound-radius"])
print(*after_import, *built(), code)
"""

_IMPORT_PROBE = """
import io, json, sys
from contextlib import redirect_stdout
from qig.cli import main

def run(argv):
    with redirect_stdout(io.StringIO()):
        return main(argv)

codes = [run(argv) for argv in json.loads(sys.argv[1])]
scipy = sorted(name for name in sys.modules if name.startswith("scipy"))
print(json.dumps({"codes": codes, "scipy": scipy}))
"""


def _fresh_python(code, *args):
    """stdout of ``python -c code *args`` in a new interpreter, with src on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestImportBoundary:
    def test_cheap_commands_never_import_scipy(self):
        subcommands = build_parser()._subparsers._group_actions[0].choices
        assert {argv[0] for argv in _EVERY_COMMAND} == set(subcommands)
        out = _fresh_python(_IMPORT_PROBE, json.dumps(_EVERY_COMMAND))
        result = json.loads(out.splitlines()[-1])
        assert result["codes"] == [0] * len(_EVERY_COMMAND)
        assert result["scipy"] == []

    def test_import_leaves_fractions_unloaded(self):
        # fractions pulls in decimal; only the exact profile derivation needs it
        out = _fresh_python("import sys, qig.cli; print('fractions' in sys.modules)")
        assert out.strip() == "False"

    def test_import_and_bound_radius_build_no_tables(self):
        # cli-startup must never pay for the scan grid or the quadrature nodes
        out = _fresh_python(_TABLE_PROBE)
        assert out.split() == ["0"] * 5
