"""The benchmark's own tests: tiny runs of every workload, the oracle, the contract.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import dataclasses
import fnmatch
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import hostspeed, tracing, workloads
from perfbench.run import ROOT, load_spec

SPEC = load_spec()
NAMES = [w["name"] for w in SPEC["workloads"]]


def _run(name: str, tmp_path: Path, traced: bool = False, seed: int = 3) -> workloads.Report:
    return workloads.run_workload(
        name, seed, 0.0, traced, size=workloads.TINY, workdir=tmp_path
    )


@pytest.mark.parametrize("name", NAMES)
def test_tiny_run_reports_every_end_to_end_metric(name, tmp_path):
    report = _run(name, tmp_path)
    for metric in SPEC["end_to_end"]:
        assert report.metrics[metric["name"]] > 0, metric["name"]
    assert report.attempted >= 1
    assert report.provenance["telemetry_enabled"] is False


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_is_transparent_and_reports_every_layer(name, tmp_path):
    # run_workload raises OracleError when traced and untraced results differ.
    report = _run(name, tmp_path, traced=True)
    declared = {m["name"] for m in SPEC["per_layer"]}
    assert declared <= set(report.metrics)
    if name == "trace_replay":
        # The channel renders the traces in set-up only.
        assert report.metrics["channel.captures"] == 0
        assert report.metrics["layer.channel.share"] == 0
        assert report.metrics["io.trace.write.calls"] > 0
    else:
        assert report.metrics["layer.channel.share"] > 0.5
    assert report.metrics["core.decoder.extract.calls"] > 0


def test_lazy_sharpness_pass_is_charged_to_sync(tmp_path):
    report = _run("trace_replay", tmp_path, traced=True)
    assert report.metrics["core.sync.sharpness.calls"] == report.metrics["core.sync.add_capture.calls"]
    assert report.metrics["core.sync.sharpness.self_ms"] > 0


def test_quality_is_a_function_of_the_seed(tmp_path):
    first = _run("trace_replay", tmp_path / "a")
    second = _run("trace_replay", tmp_path / "b")
    keys = ("decoding_rate", "capture_drop_ratio", "delivery_ratio")
    assert [first.details[k] for k in keys] == [second.details[k] for k in keys]


def test_different_seeds_make_different_inputs(tmp_path):
    a = workloads.TraceReplay(1, workloads.TINY, tmp_path)
    b = workloads.TraceReplay(2, workloads.TINY, tmp_path)
    assert a.op_seed(0) != b.op_seed(0)
    fa = workloads.FaultCampaign(1, workloads.TINY, tmp_path)
    fb = workloads.FaultCampaign(2, workloads.TINY, tmp_path)
    assert fa.sessions(0) != fb.sessions(0)
    assert [s["scenario"] for s in fa.sessions(0)] == list(workloads.FAULT_MIX)


@pytest.mark.parametrize("name", ["trial_sweep", "trace_replay"])
def test_oracle_rejects_one_flipped_payload_byte(name, tmp_path, monkeypatch):
    from repro.core import sync

    original = sync.assemble_frame

    def flip_frame_zero(config, header, symbols):
        # A decoder bug that still reports ok: frame 0 loses one byte.
        result = original(config, header, symbols)
        if result.ok and result.sequence == 0:
            payload = bytes([result.payload[0] ^ 0xFF]) + result.payload[1:]
            return dataclasses.replace(result, payload=payload)
        return result

    monkeypatch.setattr(sync, "assemble_frame", flip_frame_zero)
    with pytest.raises(workloads.OracleError, match=rf"{name} seed=3 .* frame 0: reported ok"):
        _run(name, tmp_path)


def test_oracle_rejects_a_session_that_lies_about_delivery():
    from repro.bench.faults_campaign import FaultTrialResult

    batch = workloads.Batch()
    result = FaultTrialResult("clean", 7, True, 1, 2, 2, 0, 6, 0)
    with pytest.raises(workloads.OracleError, match="session=clean:7"):
        workloads.check_session("fault_campaign seed=3", result, b"abc", b"abd", batch)


def test_batches_are_scaled_by_the_kernel_time_around_them(tmp_path):
    class TwoBatches(workloads.Workload):
        name = "two_batches"
        quality_batches = 2  # with --seconds 0, exactly two batches
        walls = iter([1.0, 3.0])

        def batch(self, index, serial=False):
            wall = next(self.walls)
            return workloads.Batch(wall_s=wall, captures=2, op_ms=[wall * 1e3],
                                   capture_ms=[wall * 1e3 / 2])

    class Host(hostspeed.HostSpeed):
        # Kernel times before, between and after the two batches.
        kernel_s = iter([0.1, 0.3, 0.2])

        def __init__(self):
            self.samples = []
            self.reference_s = 0.1

        def sample(self):
            self.samples.append(next(self.kernel_s))
            return self.samples[-1]

    report = workloads._measure(TwoBatches(1, workloads.TINY, tmp_path), 0.0, Host())
    scales = [0.1 / 0.2, 0.1 / 0.25]
    assert report.metrics["captures_per_s"] == pytest.approx(
        4 / (1.0 * scales[0] + 3.0 * scales[1]))
    assert report.metrics["capture_ms_p50"] == pytest.approx(
        (500 * scales[0] + 1500 * scales[1]) / 2)
    assert report.details["captures_per_s_measured"] == 1.0


def test_kernel_is_deterministic_and_timed():
    inputs = hostspeed._inputs(48, 80)
    assert hostspeed.kernel(*inputs) == hostspeed.kernel(*hostspeed._inputs(48, 80))
    host = hostspeed.HostSpeed(height=48, width=80)
    assert host.sample() > 0 and len(host.samples) == 1


def test_self_time_subtracts_children(monkeypatch):
    clock = iter([0.0, 1.0, 3.0, 10.0])
    monkeypatch.setattr(tracing, "perf_counter", lambda: next(clock))
    rec = tracing.SpanRecorder()
    rec.phase = "timed"
    inner = rec.wrap("inner", lambda: None)
    outer = rec.wrap("outer", lambda: inner())
    outer()
    times = rec.self_times("timed")
    assert times["inner"] == [1, 2.0, 0]
    assert times["outer"] == [1, 8.0, 0]


def test_instrument_restores_every_site():
    from repro.channel import link
    from repro.core import decoder, sync

    before = (link.warp_perspective, sync.StreamReassembler.add_capture,
              decoder.DecodeDiagnostics.__dict__["sharpness"])
    with tracing.instrument(tracing.SpanRecorder()):
        assert link.warp_perspective is not before[0]
    after = (link.warp_perspective, sync.StreamReassembler.add_capture,
             decoder.DecodeDiagnostics.__dict__["sharpness"])
    assert after == before


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert "setup_s" in [m["name"] for m in SPEC["end_to_end"]]
    assert max(m["bound"] for m in SPEC["end_to_end"]) == next(
        m["bound"] for m in SPEC["end_to_end"] if m["name"] == "setup_s")


def test_record_covers_every_workload_and_per_layer_metric():
    record = json.loads((ROOT / "perfbench" / "record.json").read_text())
    assert set(record["workloads"]) == set(NAMES)
    patterns = [p for entry in record["predictions"] for p in entry["metrics"]]
    for metric in SPEC["per_layer"]:
        name = metric["name"]
        if name.startswith(("quality.", "tracing.")):
            continue
        assert any(fnmatch.fnmatch(name, p) for p in patterns), name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_runs", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "trial_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
