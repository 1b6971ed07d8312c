"""Self-check of the benchmark harness at tiny sizes.

    python3 -m pytest perfbench/tests

Every workload runs with its gate passing; a corrupted reference must
count as a failed op; the tracer must restore what it rebinds.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH_DIR)

import ssqw  # noqa: E402
import ssqw.cli  # noqa: E402,F401
import tracing  # noqa: E402
import worker  # noqa: E402
from workloads import DIGEST_SEED, SWEEP_SHA256, Census, Spectrum, Sweep, Verify  # noqa: E402

QUICK_GRID = dict(p_values=(-0.7, -0.3, 0.3, 0.7), a_values=(-0.6, 0.0, 0.6))
TINY_GRID = "-0.9:0.9:0.01"


@pytest.fixture
def census(tmp_path):
    return Census(ssqw, 1, str(tmp_path), half_width=200, grid_kwargs=QUICK_GRID)


@pytest.fixture
def sweep(tmp_path):
    return Sweep(ssqw, 1, str(tmp_path), grid=TINY_GRID)


def _run(workload, ops):
    return [workload.check(i, workload.op(i)) for i in range(ops)]


def test_census_ops_pass_and_certify(census):
    assert len({ssqw.model.classify_coin(profile) for _, profile in census.points[:4]}) == 4
    outs = [census.op(i) for i in range(8)]
    assert [census.check(i, out) for i, out in enumerate(outs)] == ["ok"] * 8
    assert any(out["certificates"] for out in outs)


def test_census_flipped_table_entry_fails(census):
    (d_plus, d_minus), index = census.expected[0]
    census.expected[0] = ((1 - d_plus, d_minus), index)
    assert census.check(0, census.op(0)) not in ("ok", "inconclusive")


def test_spectrum_ops_pass(tmp_path):
    spectrum = Spectrum(ssqw, 3, str(tmp_path), half_width=32, pairs=3)
    assert [[case[2] for case in pair] for pair in spectrum.pairs] == [[True, False]] * 3
    assert _run(spectrum, 4) == ["ok"] * 4


@pytest.mark.parametrize("kind", [0, 1])
def test_spectrum_narrowed_band_fails(tmp_path, kind):
    spectrum = Spectrum(ssqw, 3, str(tmp_path), half_width=32, pairs=1)
    path, out_path, homogeneous, lo, hi = spectrum.pairs[0][kind]
    # for the step, a hull far inside the band leaves more outliers than allowed
    narrowed = (lo + 0.01, hi) if homogeneous else (0.5 * (lo + hi) - 1e-3, 0.5 * (lo + hi) + 1e-3)
    spectrum.pairs[0][kind] = (path, out_path, homogeneous, *narrowed)
    assert _run(spectrum, 1) != ["ok"]


def test_sweep_ops_pass(sweep):
    assert sweep.rows == 181
    assert _run(sweep, 3) == ["ok"] * 3


def test_sweep_altered_sample_row_fails(sweep):
    rows = sweep.profiles[1][1]
    k = next(iter(rows))
    rows[k] = rows[k] + ",extra"
    verdicts = _run(sweep, 2)
    assert verdicts[0] == "ok" and verdicts[1].startswith(f"row {k}:")


def test_sweep_pinned_digest_holds(tmp_path):
    sweep = Sweep(ssqw, DIGEST_SEED, str(tmp_path))
    assert sweep.sha256 == SWEEP_SHA256
    assert _run(sweep, 1) == ["ok"]


def test_sweep_wrong_digest_fails(sweep):
    sweep.sha256 = "0" * 64
    assert _run(sweep, 1) != ["ok"]


def test_verify_op_passes(tmp_path):
    verify = Verify(ssqw, 1, str(tmp_path), extra_args=["--draws", "2", "--window", "100"])
    rc, text = verify.op(0)
    assert verify.check(0, (rc, text)) == "ok", text
    dropped = "\n".join(line for line in text.splitlines() if "heat-trace" not in line)
    assert verify.check(0, (rc, dropped)) != "ok"
    assert verify.check(0, (1, text.replace("verify: OK", "verify: FAILED"))) != "ok"


def test_run_ops_counts_gate_failures_and_raises(census):
    census.expected[1] = ((9, 9), 0)
    real_op = census.op

    def op(i):
        if i == 2:
            raise AssertionError("guard tripped")
        return real_op(i)

    census.op = op
    _, verdicts, _ = worker.run_ops(census, count=3)
    assert verdicts[0] == "ok"
    assert worker._failed(verdicts) == 2


def test_host_speed_scales_each_op_by_the_readings_it_spans():
    with worker.HostSpeed() as speed:
        pass
    assert len(speed.readings) == 2 and all(v > 0 for _, v in speed.readings)
    ref = worker.REFERENCE_S
    speed.readings = [(1.0, 2 * ref), (2.0, ref), (3.0, 2 * ref), (10.0, ref)]
    # ops at twice and at two-thirds the reference time; the last spans no reading
    assert speed.scaled([(0.5, 2.5), (2.5, 3.5), (9.0, 9.5)]) == pytest.approx([4 / 3, 0.5, 0.5])


def test_tracer_rebinds_every_caller_and_restores(sweep):
    originals = {
        "lattice": ssqw.lattice.build_q_epsilon,
        "solver": ssqw.solver.build_q_epsilon,
        "cli": ssqw.cli.validate_parameters,
        "commands": dict(ssqw.cli.COMMANDS),
    }
    tracer = tracing.Tracer(ssqw)
    with tracer.installed():
        assert ssqw.solver.build_q_epsilon is not originals["solver"]
        assert ssqw.solver.build_q_epsilon is ssqw.lattice.build_q_epsilon
        assert ssqw.cli.validate_parameters is ssqw.model.validate_parameters
        assert _run(sweep, 1) == ["ok"]
    assert ssqw.lattice.build_q_epsilon is originals["lattice"]
    assert ssqw.solver.build_q_epsilon is originals["solver"]
    assert ssqw.cli.validate_parameters is originals["cli"]
    assert ssqw.cli.COMMANDS == originals["commands"]

    names = {span.name for span in tracer.spans}
    assert not any(n.startswith(("lattice.", "solver.")) for n in names)
    totals = tracer.self_times()
    assert totals["cli.command"][0] == 1
    assert totals["analytic.witten_index"][0] == sweep.rows
    # pool-thread spans hang under the command that started the pool
    command = next(s for s in tracer.spans if s.name == "cli.command")
    assert all(s.parent == command.id for s in tracer.spans
               if s.name == "analytic.witten_index")


def test_self_time_subtracts_the_union_of_children():
    parent = tracing.Span(1, "p", None, 0, 0.0, 10.0)
    kids = [tracing.Span(2, "a", 1, 1, 1.0, 4.0), tracing.Span(3, "b", 1, 2, 2.0, 5.0),
            tracing.Span(4, "c", 1, 1, 7.0, 8.0)]
    assert tracing._covered(parent, kids) == pytest.approx(5.0)


def _benchmark_metrics(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def test_traced_run_reports_every_per_layer_metric(sweep, tmp_path):
    result = worker.traced(ssqw, sweep, 0.001, str(tmp_path / "spans.jsonl"))
    assert result["failed"] == 0
    metrics = {name: unit for name, (_, unit) in result["per_layer"].items()}
    assert metrics == _benchmark_metrics("per_layer")
    assert (tmp_path / "spans.jsonl").stat().st_size > 0


def test_run_prints_every_end_to_end_metric():
    proc = subprocess.run([sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload",
                           "census", "--seed", "1", "--seconds", "0.1", "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] == 1 and result["failed"] == 0
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == _benchmark_metrics("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_run_refuses_without_the_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", ".work-*", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "census",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_run_refuses_optimized_python():
    proc = subprocess.run([sys.executable, "-O", os.path.join(BENCH_DIR, "run.py"),
                           "--workload", "census", "--seed", "1", "--seconds", "1"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
