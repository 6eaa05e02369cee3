"""The benchmark's own test.

    python3 -m pytest -q crownbench/test_bench.py

Runs every workload at ``--quick`` size, twice per mode on one seed, and
checks that the metrics printed are exactly those of BENCHMARK.json and
that the exact quantities (instance summary, digest, profit percentages,
per-layer counts, verdict counts) repeat bit for bit.
"""

import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
DESIGN = json.loads((HERE / "design.json").read_text(encoding="utf-8"))
EXACT_LINES = ("instances ", "digest ", "quality ")


def _run(workload, trace, seed=DESIGN["seeds"]["default"]):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--trace", str(trace), "--quick"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=ROOT, check=False)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    return [line for line in lines if line.startswith(EXACT_LINES)], json.loads(lines[-1])


def _exact_metrics(result, units):
    return {
        name: m["value"]
        for name, m in result["metrics"].items()
        if units[name] == "count" or name == "stars.planar.kept_ratio"
    }


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_metric_names_and_exact_repeats(workload, trace, section):
    units = {m["name"]: m["unit"] for m in SPEC[section]}
    first_lines, first = _run(workload, trace)
    second_lines, second = _run(workload, trace)
    assert first["correct"] and first["failed"] == 0 and first["attempted"] >= 1
    assert {name: m["unit"] for name, m in first["metrics"].items()} == units
    assert first_lines == second_lines
    assert any(line.startswith("digest sha256:") for line in first_lines)
    assert _exact_metrics(first, units) == _exact_metrics(second, units)


def test_design_notes_cover_the_spec():
    assert set(DESIGN["layer_to_end_to_end"]) == {m["name"] for m in SPEC["per_layer"]}
    assert set(DESIGN["layer_self_time_shares"]["by_workload"]) == {w["name"] for w in SPEC["workloads"]}
    assert DESIGN["seeds"]["default"] != DESIGN["seeds"]["held_out"]


def test_tracer_restores_and_times_nested_calls():
    sys.path.insert(0, str(HERE))
    import spans

    mod = types.ModuleType("fake")
    mod.inner = lambda n: n + 1
    mod.outer = lambda n: mod.inner(n) * 2
    originals = (mod.inner, mod.outer)
    targets = ((mod, "outer", "fake.outer", None),
               (mod, "inner", "fake.inner", lambda args, out: {"fake.seen": args[0]}))
    tracer = spans.Tracer(targets)
    with tracer:
        assert spans.installed(targets) == [("fake", "outer"), ("fake", "inner")]
        assert mod.outer(3) == 8
    assert (mod.inner, mod.outer) == originals and spans.installed(targets) == []
    got = tracer.metrics()
    assert got["fake.outer.calls"] == got["fake.inner.calls"] == 1 and got["fake.seen"] == 3
    assert got["fake.outer.self_s"] == pytest.approx(got["fake.outer.s"] - got["fake.inner.s"])
    assert tracer.spans[1]["parent"] == tracer.spans[0]["id"]


def test_incomplete_checkout_fails_without_a_result(tmp_path):
    (tmp_path / "crownbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "crownbench" / path.name).write_bytes(path.read_bytes())
    cmd = [sys.executable, "crownbench/run.py", "--workload", "exact-solvers", "--seconds", "1"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60, cwd=tmp_path, check=False)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_sampler_scales_to_the_reference_speed_and_restores_the_handler():
    sys.path.insert(0, str(HERE))
    import signal

    import calib

    assert calib.scale(1000, [calib.REF_NS]) == 1000
    assert calib.scale(1000, [calib.REF_NS, 2 * calib.REF_NS]) == pytest.approx(750)
    previous = signal.getsignal(signal.SIGALRM)
    sampler = calib.Sampler()
    out, wall, ref = sampler.time(lambda n: sum(calib.kernel() for _ in range(n)), 40)
    assert out == 40 * calib.CHECKSUM and wall > 0 and ref > 0
    assert len(sampler._samples) >= 3  # before, at least one timer sample, after
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    out, _, _ = sampler.time(lambda _: 1 / 0, None)
    assert isinstance(out, ZeroDivisionError)
