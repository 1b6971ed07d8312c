"""Command-line contract: frozen report bytes, sweep semantics, exit codes."""

import csv
import json
import math
import subprocess
import sys

import pytest

from ssqw import cli
from ssqw.model import canonical_json
from strategies import E1_DOCUMENT

E1_REPORT = (
    '{"fredholm":true,"d_plus":1,"d_minus":0,"index":1,'
    '"coin_type":"III","near_boundary":false}'
)


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_profile(tmp_path, document, name="profile.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(document))
    return str(path)


class TestIndexCommand:
    def test_e1_report_bytes(self, capsys, e1_profile_path):
        code, out, _ = run_cli(capsys, "index", "--profile", e1_profile_path)
        assert code == 0
        assert out == E1_REPORT + "\n"

    def test_non_fredholm_report(self, capsys, tmp_path):
        document = dict(E1_DOCUMENT, p=0.8)
        path = write_profile(tmp_path, document)
        code, out, _ = run_cli(capsys, "index", "--profile", path)
        assert code == 0
        assert out == (
            '{"fredholm":false,"reason":"|p| = |a(L)|",'
            '"coin_type":"III","near_boundary":true}\n'
        )

    def test_p_zero_gives_index_zero(self, capsys, tmp_path):
        document = {
            "p": 0.0,
            "left": {"a": 0.8, "b": [0.6, 0.0]},
            "right": {"a": 0.6, "b": [0.8, 0.0]},
        }
        path = write_profile(tmp_path, document)
        code, out, _ = run_cli(capsys, "index", "--profile", path)
        assert code == 0
        assert json.loads(out)["index"] == 0

    def test_json_round_trip_is_byte_identical(self, capsys, e1_profile_path):
        _, out, _ = run_cli(capsys, "index", "--profile", e1_profile_path)
        assert canonical_json(json.loads(out)) + "\n" == out

    def test_step_reduction_equality(self, capsys, tmp_path, e1_profile_path):
        perturbed = dict(
            E1_DOCUMENT,
            overrides=[
                {"x": 0, "a1": 0.28, "a2": -0.28, "b": [0.96, 0.0]},
                {"x": -3, "a1": 1.0, "a2": -1.0, "b": [0.0, 0.0]},
            ],
        )
        path = write_profile(tmp_path, perturbed)
        _, base_out, _ = run_cli(capsys, "index", "--profile", e1_profile_path)
        _, perturbed_out, _ = run_cli(capsys, "index", "--profile", path)
        assert base_out == perturbed_out

    def test_csv_format(self, capsys, e1_profile_path):
        code, out, _ = run_cli(capsys, "index", "--profile", e1_profile_path,
                               "--format", "csv")
        assert code == 0
        assert out.splitlines() == [
            "fredholm,coin_type,d_plus,d_minus,index,near_boundary,reason",
            "true,III,1,0,1,false,",
        ]

    def test_boundary_band_flag(self, capsys, tmp_path):
        path = write_profile(tmp_path, dict(E1_DOCUMENT, p=0.7999))
        _, out, _ = run_cli(capsys, "index", "--profile", path)
        assert json.loads(out)["near_boundary"] is False
        _, out, _ = run_cli(capsys, "index", "--profile", path,
                            "--boundary-band", "1e-3")
        assert json.loads(out)["near_boundary"] is True


class TestPhaseDiagram:
    def _rows(self, capsys, path, grid):
        code, out, _ = run_cli(capsys, "phase-diagram", "--profile", path,
                               "--p-grid", grid, "--format", "csv")
        assert code == 0
        rows = list(csv.reader(out.splitlines()))
        assert rows[0] == ["p", "fredholm", "d_plus", "d_minus", "index", "near_boundary"]
        return rows[1:]

    def test_e1_sweep_matches_the_index_theorem(self, capsys, e1_profile_path):
        rows = self._rows(capsys, e1_profile_path, "-0.99:0.99:0.01")
        assert len(rows) == 199
        for cells in rows:
            p = float(cells[0])
            if cells[1] == "true":
                expected = 1 if 0 < p < 0.8 else (-1 if -0.8 < p < 0 else 0)
                assert int(cells[4]) == expected, cells
                assert cells[5] == "false"
            else:
                # the sweep hits the gap closings |p| in {0, 0.8} exactly
                assert p in (-0.8, 0.0, 0.8)
                assert cells[2] == cells[3] == cells[4] == ""
                assert cells[5] == "true"

    def test_equal_limits_sweep_is_identically_zero(self, capsys, tmp_path):
        document = {
            "p": 0.5,
            "left": {"a": 0.6, "b": [0.8, 0.0]},
            "right": {"a": 0.6, "b": [0.8, 0.0]},
        }
        path = write_profile(tmp_path, document)
        for cells in self._rows(capsys, path, "-0.9:0.9:0.05"):
            if cells[1] == "true":
                assert cells[4] == "0"

    def test_diagonal_limits_sweep_is_identically_zero(self, capsys, tmp_path):
        document = {
            "p": 0.5,
            "left": {"a1": 1.0, "a2": -1.0, "b": [0.0, 0.0]},
            "right": {"a1": -1.0, "a2": 1.0, "b": [0.0, 0.0]},
        }
        path = write_profile(tmp_path, document)
        rows = self._rows(capsys, path, "-0.9:0.9:0.1")
        assert all(cells[4] == "0" for cells in rows)
        assert all(cells[1] == "true" for cells in rows)

    def test_json_round_trip(self, capsys, e1_profile_path):
        code, out, _ = run_cli(capsys, "phase-diagram", "--profile", e1_profile_path,
                               "--p-grid", "-0.5:0.5:0.25")
        assert code == 0
        assert canonical_json(json.loads(out)) + "\n" == out

    def test_row_order_follows_the_grid_with_threads(self, capsys, e1_profile_path,
                                                     monkeypatch):
        monkeypatch.setenv("SSQW_THREADS", "4")
        rows = self._rows(capsys, e1_profile_path, "-0.9:0.9:0.01")
        values = [float(cells[0]) for cells in rows]
        assert values == sorted(values)

    def test_determinism(self, capsys, e1_profile_path):
        _, first, _ = run_cli(capsys, "phase-diagram", "--profile", e1_profile_path,
                              "--p-grid", "-0.9:0.9:0.1")
        _, second, _ = run_cli(capsys, "phase-diagram", "--profile", e1_profile_path,
                               "--p-grid", "-0.9:0.9:0.1")
        assert first == second

    def test_out_file_matches_stdout(self, capsys, tmp_path, e1_profile_path):
        _, out, _ = run_cli(capsys, "phase-diagram", "--profile", e1_profile_path,
                            "--p-grid", "0.1:0.3:0.1", "--format", "csv")
        target = tmp_path / "sweep.csv"
        code, silent, _ = run_cli(capsys, "phase-diagram", "--profile", e1_profile_path,
                                  "--p-grid", "0.1:0.3:0.1", "--format", "csv",
                                  "--out", str(target))
        assert code == 0 and silent == ""
        assert target.read_text() == out


class TestSpectrumCommand:
    def test_homogeneous_real_parts_stay_inside_the_window(self, capsys, tmp_path):
        document = {
            "p": 0.5,
            "left": {"a": 0.0, "b": [1.0, 0.0]},
            "right": {"a": 0.0, "b": [1.0, 0.0]},
        }
        path = write_profile(tmp_path, document)
        code, out, _ = run_cli(capsys, "spectrum", "--profile", path, "--window", "48",
                               "--format", "csv")
        assert code == 0
        rows = list(csv.reader(out.splitlines()))
        assert rows[0] == ["re", "im"]
        res = [float(r[0]) for r in rows[1:]]
        assert len(res) == 2 * (2 * 48 + 1)
        assert all(-0.8661 <= re <= 0.8661 for re in res)

    def test_open_boundary_is_an_input_error(self, capsys, e1_profile_path):
        code, _, err = run_cli(capsys, "spectrum", "--profile", e1_profile_path,
                               "--boundary", "open")
        assert code == 2 and "periodic" in err


class TestTraceCommand:
    def test_e1_table(self, capsys, e1_profile_path):
        code, out, _ = run_cli(capsys, "trace", "--profile", e1_profile_path,
                               "--window", "200", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(out.splitlines()))
        assert rows[0] == ["t", "estimate"]
        estimates = {float(r[0]): float(r[1]) for r in rows[1:]}
        assert abs(estimates[50.0] - 1.0) < 0.1
        assert abs(estimates[5.0] - 1.0) < 0.1

    def test_json_payload(self, capsys, e1_profile_path):
        code, out, _ = run_cli(capsys, "trace", "--profile", e1_profile_path,
                               "--window", "150", "--t-grid", "2,8,32")
        assert code == 0
        payload = json.loads(out)
        assert payload["t_grid"] == [2.0, 8.0, 32.0]
        assert payload["monotone"] is True
        assert payload["basis"] == "canonical-epsilon"
        assert abs(payload["final"] - 1.0) < 0.01

    def test_bad_t_grid_is_an_input_error(self, capsys, e1_profile_path):
        code, _, err = run_cli(capsys, "trace", "--profile", e1_profile_path,
                               "--t-grid", "10,5")
        assert code == 2 and "increasing" in err

    def test_periodic_boundary_is_an_input_error(self, capsys, e1_profile_path):
        code, _, err = run_cli(capsys, "trace", "--profile", e1_profile_path,
                               "--boundary", "periodic")
        assert code == 2 and "open" in err


class TestBoundStateCommand:
    def test_fitted_rates_match_transfer_moduli(self, capsys, e1_profile_path):
        code, out, _ = run_cli(capsys, "bound-state", "--profile", e1_profile_path,
                               "--window", "120")
        assert code == 0
        payload = json.loads(out)
        third = 1.0 / 3.0 ** 0.5
        assert payload["present"] is True and payload["sign"] == "plus"
        assert abs(payload["fitted_left"] - third) < 1e-3
        assert abs(payload["fitted_right"] - third) < 1e-3
        assert payload["residual"] < 1e-8
        assert len(payload["samples"]) == 2 * 120 + 1

    def test_absent_kernel_is_reported_not_an_error(self, capsys, e1_profile_path):
        code, out, _ = run_cli(capsys, "bound-state", "--profile", e1_profile_path,
                               "--sign", "minus")
        assert code == 0
        assert json.loads(out) == {"present": False, "sign": "minus", "coin_type": "III"}

    def test_csv_samples_with_fit_on_stderr(self, capsys, e1_profile_path):
        code, out, err = run_cli(capsys, "bound-state", "--profile", e1_profile_path,
                                 "--window", "80", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(out.splitlines()))
        assert rows[0] == ["x", "re", "im"]
        assert len(rows) == 1 + 2 * 80 + 1
        assert "fitted decay" in err


class TestVerifyPlumbing:
    def test_injected_beta_sign_error_fails_the_algebra_check(self):
        config = cli.RunConfig(command="verify", window=16, draws=3,
                               inject_beta_sign=True)
        result = cli._check_algebra(config)
        assert not result.passed
        assert "injected" in result.detail

    def test_clean_config_passes_the_algebra_check(self):
        config = cli.RunConfig(command="verify", window=16, draws=3)
        result = cli._check_algebra(config)
        assert result.passed

    def test_seed_change_keeps_verdicts(self):
        for check in (cli._check_algebra, cli._check_sandwich):
            verdicts = {
                check(cli.RunConfig(command="verify", window=16, draws=5, seed=s)).passed
                for s in (7, 12345)
            }
            assert verdicts == {True}

    def test_exit_codes_follow_check_outcomes(self, capsys, monkeypatch):
        passing = cli.CheckResult("stub-pass", True, "ok")
        failing = cli.CheckResult("stub-fail", False, "broken")
        monkeypatch.setattr(cli, "VERIFY_CHECKS", (lambda c: passing,))
        assert cli.cmd_verify(cli.RunConfig(command="verify")) == 0
        monkeypatch.setattr(cli, "VERIFY_CHECKS", (lambda c: passing, lambda c: failing))
        assert cli.cmd_verify(cli.RunConfig(command="verify")) == 1
        out = capsys.readouterr().out
        assert "PASS stub-pass" in out and "FAIL stub-fail" in out


# every number a profile document can hold, each in a document where it is read
NON_FINITE_BASE = dict(
    E1_DOCUMENT,
    right={"a1": 1.0, "a2": -1.0, "b": [0.0, 0.0]},
    overrides=[{"x": 2, "a1": 0.28, "a2": -0.28, "b": [0.96, 0.0]}],
)


def _set(path, index=None):
    def place(document, value):
        target = document
        for step in path[:-1]:
            target = target[step]
        if index is None:
            target[path[-1]] = value
        else:
            target[path[-1]][index] = value
    return place


def _set_q(document, value):
    del document["theta"]
    document["q"] = [value, 0.0]


NON_FINITE_PLACES = [
    ("p", _set(["p"])),
    ("theta", _set(["theta"])),
    ("q", _set_q),
    ("left.a", _set(["left", "a"])),
    ("left.b", _set(["left", "b"], 1)),
    ("right.a1", _set(["right", "a1"])),
    ("right.a2", _set(["right", "a2"])),
    ("right.b", _set(["right", "b"], 0)),
    ("overrides[0].a1", _set(["overrides", 0, "a1"])),
    ("overrides[0].a2", _set(["overrides", 0, "a2"])),
    ("overrides[0].b", _set(["overrides", 0, "b"], 1)),
]


class TestInputErrors:
    def test_missing_profile_file(self, capsys):
        code, _, err = run_cli(capsys, "index", "--profile", "/does/not/exist.json")
        assert code == 2 and "cannot read profile" in err

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "index", "--profile", str(path))
        assert code == 2 and "not valid JSON" in err

    def test_schema_error_names_the_key(self, capsys, tmp_path):
        document = json.loads(json.dumps(E1_DOCUMENT))
        document["left"]["b"] = 0.6
        path = write_profile(tmp_path, document)
        code, _, err = run_cli(capsys, "index", "--profile", str(path))
        assert code == 2 and "key 'left.b'" in err

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("key, place", NON_FINITE_PLACES, ids=[k for k, _ in NON_FINITE_PLACES])
    def test_non_finite_number_names_the_key(self, capsys, tmp_path, key, place, value):
        document = json.loads(json.dumps(NON_FINITE_BASE))
        place(document, value)
        path = write_profile(tmp_path, document)
        code, out, err = run_cli(capsys, "index", "--profile", path)
        assert code == 2 and out == ""
        assert f"key '{key}': must be finite" in err

    @pytest.mark.parametrize("key, place", [
        ("q", _set_q),
        ("left", _set(["left", "b"], 0)),
        ("overrides[0]", _set(["overrides", 0, "b"], 0)),
    ], ids=["q", "left.b", "overrides[0].b"])
    def test_huge_finite_number_names_the_key(self, capsys, tmp_path, key, place):
        # abs(q) ** 2 and abs(b) ** 2 overflow a float here
        document = json.loads(json.dumps(NON_FINITE_BASE))
        place(document, 1e200)
        path = write_profile(tmp_path, document)
        code, out, err = run_cli(capsys, "index", "--profile", path)
        assert code == 2 and out == ""
        assert f"key '{key}': " in err and "residual inf" in err

    def test_missing_profile_flag(self, capsys):
        code, _, err = run_cli(capsys, "index")
        assert code == 2 and "--profile" in err

    @pytest.mark.parametrize("grid", ["0.5:1.5:0.1", "0.5:0.1:0.1", "0.1:0.5:-0.1",
                                      "0.1:0.5", "a:b:c"])
    def test_bad_grids(self, capsys, e1_profile_path, grid):
        code, _, err = run_cli(capsys, "phase-diagram", "--profile", e1_profile_path,
                               "--p-grid", grid)
        assert code == 2 and "--p-grid" in err

    def test_bad_threads_env(self, capsys, e1_profile_path, monkeypatch):
        monkeypatch.setenv("SSQW_THREADS", "zero")
        code, _, err = run_cli(capsys, "index", "--profile", e1_profile_path)
        assert code == 2 and "SSQW_THREADS" in err

    def test_bad_window(self, capsys, e1_profile_path):
        code, _, err = run_cli(capsys, "index", "--profile", e1_profile_path,
                               "--window", "0")
        assert code == 2 and "--window" in err

    @pytest.mark.parametrize("command", ["spectrum", "trace", "bound-state", "verify"])
    def test_window_beyond_memory_is_an_input_error(self, capsys, e1_profile_path, command):
        code, out, err = run_cli(capsys, command, "--profile", e1_profile_path,
                                 "--window", "1000000000")
        assert code == 2 and out == ""
        assert "--window 1000000000" in err and "physical memory" in err

    def test_window_guard_reads_the_physical_memory(self, capsys, e1_profile_path,
                                                    monkeypatch):
        # a 41x41 complex block takes 26896 bytes
        monkeypatch.setattr(cli, "_physical_memory", lambda: 26896)
        code, _, _ = run_cli(capsys, "spectrum", "--profile", e1_profile_path,
                             "--window", "20")
        assert code == 0
        monkeypatch.setattr(cli, "_physical_memory", lambda: 26895)
        code, _, err = run_cli(capsys, "spectrum", "--profile", e1_profile_path,
                               "--window", "20")
        assert code == 2 and "--window 20" in err

    @pytest.mark.parametrize("argv", [["index"], ["phase-diagram", "--p-grid", "0.1:0.3:0.1"]],
                             ids=["index", "phase-diagram"])
    def test_commands_without_a_window_ignore_it(self, capsys, e1_profile_path, argv):
        code, _, _ = run_cli(capsys, *argv, "--profile", e1_profile_path,
                             "--window", "1000000000")
        assert code == 0

    def test_unknown_flag_uses_argparse_code(self, capsys, e1_profile_path):
        code = cli.main(["index", "--profile", e1_profile_path, "--bogus"])
        capsys.readouterr()
        assert code == 2


class TestConsoleScript:
    def test_entry_point_help(self):
        result = subprocess.run(
            [sys.executable, "-m", "ssqw.cli", "--help"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        for name in ("index", "phase-diagram", "verify", "spectrum",
                     "trace", "bound-state"):
            assert name in result.stdout
