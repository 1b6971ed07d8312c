"""Command-line contract: frozen report bytes, sweep semantics, exit codes."""

import csv
import hashlib
import json
import math
import random
import re
import subprocess
import sys
from fractions import Fraction

import pytest

from ssqw import checks, cli
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


def _decimal(value: Fraction) -> str:
    # exact decimal text of a fraction whose denominator divides a power of ten
    k = 0
    while 10 ** k % value.denominator:
        k += 1
    return f"{value.numerator * 10 ** k // value.denominator}e-{k}"


_DIAGONAL = {"a1": 1.0, "a2": -1.0, "b": [0.0, 0.0]}
_ANTI_DIAGONAL = {"a1": -1.0, "a2": 1.0, "b": [0.0, 0.0]}

# (id, document, grid, extra flags, sha256 of the CSV output, sha256 of the
# JSON output), as written by commit 21a16fb
PINNED_SWEEPS = [
    ("type-I", {"p": 0.3, "left": _DIAGONAL, "right": _ANTI_DIAGONAL}, "-0.99:0.99:0.01", [],
     "f5c7b0715b8b7f4d3e780d990759f3e14666491b63934dc578327952d28fd611",
     "cdfcdd06704a6cd2875d9e0bbe7cd7490acaeb92f96fe10b19f4fc231bf71b4c"),
    ("type-II", {"p": 0.3, "theta": 1.1, "left": _ANTI_DIAGONAL,
                 "right": {"a": 0.6, "b": [0.48, 0.64]}}, "-0.99:0.99:0.01", [],
     "f64841bd89ce45c71af402ddb966d8d676ff4da90ceedb39ec6e3eb60910f249",
     "fe709a69ca7cd19852d6a1f0cbb9edf544751891fb7ec630e17123173d89a8f8"),
    ("type-II-prime", {"p": -0.2, "theta": -2.5, "left": {"a": 0.28, "b": [0.0, 0.96]},
                       "right": _DIAGONAL}, "-0.99:0.99:0.01", [],
     "e53a7945fd4a1c73aadbb85f3b10f91af4173884f6573a8f5318c10d4c0612ea",
     "aa855982199d726d4a9cc4d85e4fbc9ca58e8b1ac46fb7d3c4cc9e4007c11c11"),
    ("type-III", {"p": 0.5, "theta": 0.7, "left": {"a": -0.6, "b": [0.0, 0.8]},
                  "right": {"a": 0.28, "b": [0.96, 0.0]}}, "-0.99:0.99:0.01", [],
     "4a1e4fd3f72943d00c0be60b2c3bec4684efe627d0074e49cc8aaaae8e3930a4",
     "890ea4b9765e2cbcbc3916b2aed0b6f948536e707003c49543e82b5f12dff427"),
    ("trivial-limit", {"p": 0.5, "left": {"a1": 1.0, "a2": 1.0, "b": [0.0, 0.0]},
                       "right": {"a": 0.6, "b": [0.8, 0.0]}}, "-0.9:0.9:0.05", [],
     "fcd669a72f4139744293896fcbcea35e67cd70f03798210f41f02ef7e8f78589",
     "08532591ccfb0c784cb2610abc7d1105f485c4d260297e4bfe679139f5699539"),
    ("overrides", dict(E1_DOCUMENT, overrides=[
        {"x": 0, "a1": 0.28, "a2": -0.28, "b": [0.96, 0.0]},
        {"x": -3, "a1": 1.0, "a2": -1.0, "b": [0.0, 0.0]},
    ]), "-0.95:0.95:0.05", [],
     "a32a20fa7afc9963673c582bfbb29eff80f9cbcf14e5bfafa67daf31b816c0f8",
     "c1e24c51d304bf0a803324d014f8a2ffefb6bad018951108d72c6c92fe958281"),
    # steps of 1e-10 across |p| = |a(L)| = 0.8, with a band that flags some
    ("gap-closing", E1_DOCUMENT, "0.7999999995:0.8000000005:0.0000000001",
     ["--boundary-band", "3e-10"],
     "ecce572ef36cc331a62c75d12dac79d773c32e835ff27afa6cd05549b96f7e3f",
     "cee75a66d07309881091f216324e3b8acb538a91b1a40d2b45109d53cb781418"),
]


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

    def test_row_order_follows_the_grid(self, capsys, e1_profile_path):
        rows = self._rows(capsys, e1_profile_path, "-0.9:0.9:0.01")
        values = [float(cells[0]) for cells in rows]
        assert len(values) == 181 and values == sorted(values)

    @pytest.mark.parametrize("document, grid, extra, csv_sha, json_sha",
                             [case[1:] for case in PINNED_SWEEPS],
                             ids=[case[0] for case in PINNED_SWEEPS])
    def test_output_bytes_are_pinned(self, capsys, tmp_path, document, grid, extra,
                                     csv_sha, json_sha):
        path = write_profile(tmp_path, document)
        for fmt, expected in (("csv", csv_sha), ("json", json_sha)):
            code, out, _ = run_cli(capsys, "phase-diagram", "--profile", path,
                                   "--p-grid", grid, "--format", fmt, *extra)
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest() == expected, fmt

    def test_grid_values_match_exact_fractions(self):
        rng = random.Random(0)
        for _ in range(200):
            while True:
                start = Fraction(rng.randrange(-10**9, 10**9), 10 ** rng.randint(0, 18))
                step = Fraction(rng.randrange(1, 10**6), 10 ** rng.randint(1, 18))
                count = rng.randint(1, 60)
                stop = start + (count - 1) * step + step * rng.randrange(100) / 100
                if -1 < start and stop < 1:
                    break
            grid = cli._parse_p_grid(f"{_decimal(start)}:{_decimal(stop)}:{_decimal(step)}")
            oracle = [float(start + k * step) for k in range(count)]
            assert [repr(v) for v in cli._grid_values(grid)] == [repr(v) for v in oracle]

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


VERIFY_NAMES = (
    "operator-algebra", "transfer-eigenvalues", "wall-diagonalization", "kernel-count-grid",
    "bound-states", "heat-trace", "spectrum-sampling", "sign-flip-identities",
    "p-zero-slice", "compact-perturbations",
)


class TestVerifyPlumbing:
    def test_clean_config_passes_the_algebra_check(self):
        assert checks.operator_algebra(seed=7, half_width=16, draws=3).passed

    def test_seed_change_keeps_verdicts(self):
        for check in (lambda s: checks.operator_algebra(s, half_width=16, draws=5),
                      checks.wall_diagonalization):
            assert {check(s).passed for s in (7, 12345)} == {True}

    def test_exit_codes_follow_check_outcomes(self, capsys, monkeypatch):
        passing = checks.CheckResult("stub-pass", True, "ok")
        failing = checks.CheckResult("stub-fail", False, "broken")
        monkeypatch.setattr(checks, "run", lambda *args: iter([passing]))
        assert cli.main(["verify"]) == 0
        monkeypatch.setattr(checks, "run", lambda *args: iter([passing, failing]))
        assert cli.main(["verify"]) == 1
        out = capsys.readouterr().out
        assert "PASS stub-pass" in out and "FAIL stub-fail" in out

    def test_verify_prints_ten_passing_checks(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--seed", "7")
        lines = out.splitlines()
        assert code == 0 and len(lines) == 11
        assert [line.split(":")[0] for line in lines[:-1]] == [f"PASS {n}" for n in VERIFY_NAMES]
        assert lines[-1] == "verify: OK"

    def test_the_beta_sign_hook_is_gone(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--inject-beta-sign")
        assert code == 2 and out == ""


# the flags each command reads, in the order of its --help
FLAGS = {
    "index": ["--profile", "--format", "--out", "--boundary-band"],
    "phase-diagram": ["--profile", "--format", "--out", "--boundary-band", "--p-grid"],
    "verify": ["--window", "--seed", "--draws", "--full"],
    "spectrum": ["--profile", "--format", "--out", "--window"],
    "trace": ["--profile", "--format", "--out", "--window", "--t-grid"],
    "bound-state": ["--profile", "--format", "--out", "--window", "--sign"],
}
WINDOWED = [command for command, flags in FLAGS.items() if "--window" in flags]

# every command once accepted these seven flags, whether it read them or not
FORMER_COMMON_FLAGS = ("--profile", "--window", "--boundary", "--seed", "--format", "--out",
                       "--boundary-band")
REMOVED_FLAGS = [(command, flag) for command, flags in FLAGS.items()
                 for flag in FORMER_COMMON_FLAGS if flag not in flags]


def _argv(command, profile_path):
    """``command`` with the flags it requires, and no others."""
    argv = [command]
    if "--profile" in FLAGS[command]:
        argv += ["--profile", profile_path]
    if command == "phase-diagram":
        argv += ["--p-grid", "0.1:0.3:0.1"]
    return argv


class TestFlagSets:
    @pytest.mark.parametrize("command", FLAGS)
    def test_help_lists_exactly_the_flags_the_command_reads(self, capsys, command):
        code, out, _ = run_cli(capsys, command, "--help")
        assert code == 0
        assert re.findall(r"^  (?:-h, )?(--[a-z-]+)", out, re.M) == ["--help", *FLAGS[command]]

    @pytest.mark.parametrize("command, flag", REMOVED_FLAGS,
                             ids=[f"{command} {flag}" for command, flag in REMOVED_FLAGS])
    def test_a_flag_the_command_does_not_read_is_an_input_error(
            self, capsys, tmp_path, monkeypatch, e1_profile_path, command, flag):
        # each value is one the flag's own commands accept
        value = {"--profile": e1_profile_path, "--window": "8", "--boundary": "periodic",
                 "--seed": "7", "--format": "csv", "--out": str(tmp_path / "out.txt"),
                 "--boundary-band": "1e-3"}[flag]
        monkeypatch.setattr(checks, "run", lambda *args: iter([]))
        code, out, err = run_cli(capsys, *_argv(command, e1_profile_path), flag, value)
        assert code == 2 and out == ""
        assert f"unrecognized arguments: {flag} {value}" in err
        assert not (tmp_path / "out.txt").exists()


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

    def test_grid_value_rounding_to_one_is_an_input_error(self, capsys, e1_profile_path):
        # inside (-1, 1) as a fraction, but the float is 1.0 and leaves q = 0
        code, out, err = run_cli(capsys, "phase-diagram", "--profile", e1_profile_path,
                                 "--p-grid", "0.99999999999999999:0.99999999999999999:0.1")
        assert code == 2 and out == "" and "q must be nonzero" in err

    def test_grid_beyond_memory_is_an_input_error(self, capsys, e1_profile_path):
        # 1.8e15 rows: the guard must refuse before building the value list
        code, out, err = run_cli(capsys, "phase-diagram", "--profile", e1_profile_path,
                                 "--p-grid", "-0.9:0.9:1e-15")
        assert code == 2 and out == ""
        assert "--p-grid" in err and "physical memory" in err

    def test_grid_guard_reads_the_physical_memory(self, capsys, e1_profile_path,
                                                  monkeypatch):
        # a row is priced at its measured peak, which depends on the format
        for fmt, row_bytes in (("csv", 300), ("json", 700)):
            rows = ["phase-diagram", "--profile", e1_profile_path, "--p-grid", "0.1:0.3:0.1",
                    "--format", fmt]
            monkeypatch.setattr(cli, "_physical_memory", lambda: 3 * row_bytes)
            code, _, _ = run_cli(capsys, *rows)
            assert code == 0, fmt
            monkeypatch.setattr(cli, "_physical_memory", lambda: 3 * row_bytes - 1)
            code, out, err = run_cli(capsys, *rows)
            assert code == 2 and out == "" and "--p-grid: 3 rows" in err, fmt

    @pytest.mark.parametrize("band", ["nan", "inf", "-1"])
    @pytest.mark.parametrize("argv", [["index"], ["phase-diagram", "--p-grid", "0.1:0.3:0.1"]],
                             ids=["index", "phase-diagram"])
    def test_bad_boundary_band(self, capsys, e1_profile_path, argv, band):
        code, out, err = run_cli(capsys, *argv, "--profile", e1_profile_path,
                                 "--boundary-band", band)
        assert code == 2 and out == "" and "--boundary-band" in err

    @pytest.mark.parametrize("t_grid", ["nan,1", "1,inf", "-inf,1"])
    def test_non_finite_t_grid(self, capsys, e1_profile_path, t_grid):
        code, out, err = run_cli(capsys, "trace", "--profile", e1_profile_path,
                                 f"--t-grid={t_grid}")
        assert code == 2 and out == "" and "--t-grid" in err and "finite" in err

    @pytest.mark.parametrize("draws", ["0", "-3"])
    def test_draws_below_one(self, capsys, draws):
        code, out, err = run_cli(capsys, "verify", "--draws", draws)
        assert code == 2 and out == "" and "--draws" in err

    @pytest.mark.parametrize("command", WINDOWED)
    def test_bad_window(self, capsys, e1_profile_path, command):
        code, out, err = run_cli(capsys, *_argv(command, e1_profile_path), "--window", "0")
        assert code == 2 and out == "" and "--window must be >= 1" in err

    @pytest.mark.parametrize("command", WINDOWED)
    def test_window_beyond_memory_is_an_input_error(self, capsys, e1_profile_path, command):
        code, out, err = run_cli(capsys, *_argv(command, e1_profile_path),
                                 "--window", "1000000000")
        assert code == 2 and out == ""
        assert "--window 1000000000" in err and "physical memory" in err

    @pytest.mark.parametrize("command", WINDOWED)
    def test_window_guard_reads_the_physical_memory(self, capsys, e1_profile_path,
                                                    monkeypatch, command):
        # each command is priced at bytes * n**power for the n = 41 sites of
        # --window 20; verify's checks are stubbed, since only the guard is tested
        price, power = cli.WINDOW_BYTES[command]
        monkeypatch.setattr(checks, "run", lambda *args: iter([]))
        _assert_window_price(capsys, monkeypatch, price * 41 ** power,
                             *_argv(command, e1_profile_path))

    def test_bound_state_runs_on_a_window_beyond_a_dense_block(self, capsys, e1_profile_path,
                                                               tmp_path):
        # a dense 24001x24001 complex block would take 8.58 GiB
        out = str(tmp_path / "state.json")
        code, _, err = run_cli(capsys, "bound-state", "--profile", e1_profile_path,
                               "--window", "12000", "--out", out)
        assert code == 0, err
        with open(out) as fh:
            assert len(json.load(fh)["samples"]) == 24001

    def test_unknown_flag_uses_argparse_code(self, capsys, e1_profile_path):
        code = cli.main(["index", "--profile", e1_profile_path, "--bogus"])
        capsys.readouterr()
        assert code == 2


def _assert_window_price(capsys, monkeypatch, price, *argv):
    """At --window 20 the command runs with ``price`` bytes of memory, not one less."""
    monkeypatch.setattr(cli, "_physical_memory", lambda: price)
    code, _, _ = run_cli(capsys, *argv, "--window", "20")
    assert code == 0
    monkeypatch.setattr(cli, "_physical_memory", lambda: price - 1)
    code, _, err = run_cli(capsys, *argv, "--window", "20")
    assert code == 2 and "--window 20" in err


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
