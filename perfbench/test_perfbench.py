"""Smoke tests for the benchmark: each workload and its checks on tiny inputs.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import actkit as ak  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def run_bench(*args: str, script: Path = BENCH / "run.py", cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(script), *args], capture_output=True, text=True, timeout=300, cwd=cwd
    )


def declared(section: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_reports_every_declared_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0.05", "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    section = "per_layer" if trace == "1" else "end_to_end"
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared(section)
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_all_prints_one_row_per_workload():
    proc = run_bench("--workload", "all", "--seed", "1", "--seconds", "0.05", "--smoke")
    assert proc.returncode == 0, proc.stderr
    rows = [line for line in proc.stdout.splitlines() if line.split(" ", 1)[0] in run.WORKLOADS]
    assert [row.split()[0] for row in rows] == list(run.WORKLOADS)
    for row in rows:
        assert "setup_s=" in row and "peak_rss_mb=" in row and "failed_op_ratio=0 " in row


def test_refuses_to_run_without_actkit_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(
        "--workload", "grid-x3d", "--seed", "1", "--seconds", "1", "--smoke",
        script=tmp_path / "perfbench" / "run.py", cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_inputs_follow_the_seed():
    a = workloads.PhaseStream(5, True, BENCH / "out")
    b = workloads.PhaseStream(5, True, BENCH / "out")
    assert a.stream_params(3) == b.stream_params(3)
    assert a.stream_params(3) != a.stream_params(4)
    k1, k2 = workloads.KernelsLarge(5, True), workloads.KernelsLarge(5, True)
    k1.CHUNK = 999  # chunking must not change the buffers
    k1.setup()
    k2.setup()
    assert k1.x.tobytes() == k2.x.tobytes() == ak.make_bench_input(k1.n, 5).tobytes()
    assert k1.up.tobytes() == k2.up.tobytes()


class RaisingGrid(workloads.GridX3D):
    def op(self, i):
        raise ak.DomainError("activation batch contains non-finite elements (swish)")


def test_ops_that_raise_fail_the_run_in_bounded_time(monkeypatch, capsys):
    monkeypatch.setattr(workloads, "make", lambda name, seed, smoke, work_dir: RaisingGrid(seed, smoke))
    t0 = time.perf_counter()
    code = run.main(["--workload", "grid-x3d", "--seed", "1", "--seconds", "3600", "--smoke"])
    assert time.perf_counter() - t0 < 60
    assert code == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert not result["correct"] and result["failed"] == result["attempted"] == run.MAX_PROBLEMS


def test_traced_run_alternates_untraced_and_traced_rounds():
    wl = workloads.KernelsLarge(2, True)
    wl.setup()
    tracer = tracing.Tracer()
    m = run.measure(wl, 0.0, tracer)
    assert m.problems == [] and tracer._restore == []
    rounds = [m.traced[i] for i in range(0, m.attempted, wl.round_ops)]
    assert rounds == [False, False, True]  # warm-up, then one untraced and one traced round
    assert m.count(traced=True) == wl.round_ops
    assert {s[4] for s in tracer.spans} == set(range(2 * wl.round_ops, 3 * wl.round_ops))


def first_op(wl):
    wl.setup()
    out = wl.op(0)
    assert wl.check(0, out) is None
    return out


def test_grid_check_catches_changed_accuracy():
    wl = workloads.GridX3D(2, True)
    reports = first_op(wl)
    run = reports[2].runs[0]
    cell = replace(reports[2], runs=(replace(run, test_accuracy=abs(run.test_accuracy - 0.01)),))
    changed = reports[:2] + [cell] + reports[3:]
    assert "accuracies" in wl.check(1, changed)
    assert "fingerprints" in wl.check(1, reports[:1] * 5)


def test_infer_check_catches_nonfinite_and_changed_logits():
    wl = workloads.InferX3DFull(2, True)
    logits = first_op(wl)
    nudged = logits.copy()
    nudged[0, 0] = np.nextafter(nudged[0, 0], np.float32(np.inf))
    assert "bitwise" in wl.check(1, nudged)
    nudged[0, 0] = np.nan
    assert "finite" in wl.check(1, nudged)


def test_phase_check_catches_a_lossy_round_trip():
    wl = workloads.PhaseStream(2, True, BENCH / "out")
    seq, loaded, rows = first_op(wl)
    probs = loaded.probs.copy()
    probs[0, 0] += 1e-6
    assert "loaded probs" in wl.check(1, (seq, ak.PhaseSequence(probs, loaded.truth), rows))
    assert "truth" in wl.check(1, (seq, ak.PhaseSequence(loaded.probs, (loaded.truth + 1) % 10), rows))


def test_kernel_check_catches_wrong_values_and_checksum_drift():
    wl = workloads.KernelsLarge(2, True)
    wl.setup()
    kind, fwd, bwd = wl.op(3)  # swish
    wrong = fwd.copy()
    wrong[7] += 1e-3
    assert "forward" in wl.check(3, (kind, wrong, bwd))
    assert wl.check(3, (kind, fwd, bwd)) is None
    assert "checksums" in wl.check(8, (kind, wrong, bwd))


def test_self_time_excludes_children():
    # op 0: a bare conv and a relu; op 1: forward [200, 300) holding a conv [200, 270)
    spans = [
        ["op", 0, 100, -1, 0, None],
        ["tensor.conv2d_forward", 10, 40, 0, 0, {"flop": 2e9, "im2col_bytes": 8}],
        ["kernels.activate_batch", 50, 60, 0, 0, {"kind": "relu", "elems": 5}],
        ["modelspec.forward", 200, 300, -1, 1, None],
        ["tensor.conv2d_forward", 200, 270, 3, 1, {"flop": 2e9, "im2col_bytes": 8}],
    ]
    metrics = tracing.layer_metrics(spans, n_ops=2, copy_gb_per_s=10.0, overhead_pct=1.0)
    assert metrics["modelspec.forward.self_ms"] == pytest.approx(30e-6 / 2)
    assert metrics["tensor.conv2d_forward.calls"] == 1
    assert metrics["tensor.conv2d_forward.gflop"] == 2
    assert metrics["tensor.conv2d_forward.gflop_per_s"] == pytest.approx(4 / 100e-9)
    assert metrics["kernels.relu.fwd_ns_per_elem"] == 2
    assert metrics["kernels.swish.fwd_ns_per_elem"] == 0


def test_tracer_wraps_names_at_each_call_site_and_restores_them():
    original = ak.modelspec.conv2d_forward
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert ak.modelspec.conv2d_forward is not original
        assert ak.tensor.conv2d_forward is ak.modelspec.conv2d_forward
        with tracer.span("op"):
            ak.forward(ak.build_model(ak.preset("mini-x3d"), ak.Rng(1)), np.zeros((1, 3, 32, 32), np.float32))
    finally:
        tracer.uninstall()
    assert ak.modelspec.conv2d_forward is original
    names = {s[0] for s in tracer.spans}
    assert {"tensor.conv2d_forward", "kernels.activate_batch", "modelspec.forward", "tensor.rng_uniforms"} <= names
