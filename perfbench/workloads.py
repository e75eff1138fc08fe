"""The three benchmark workloads, their output oracle and the run harness.

Every workload is a closed loop driven by one caller in one process:
the next operation starts when the previous one has returned.  Inputs
derive from the run's seed alone.  Each workload runs *batches*; the
first :attr:`Workload.quality_batches` of them form the fixed set the
quality ratios and the traced run are computed over, so those values
depend on the seed only, never on how fast the host is.  Their
timings are scaled to a reference host (see :mod:`perfbench.hostspeed`).

* ``trial_sweep`` — ``run_rainbar_trial`` at the headline condition of
  ``benchmarks/sweeps.rainbar_point``; one batch is one trial.
* ``trace_replay`` — set-up records uint8 capture traces of an
  f_d = 20 stream; one batch replays one trace through the receiver
  loop of a phone (read, normalize, extract, reassemble, flush).
* ``fault_campaign`` — ``run_trials_parallel`` fans one mix of faulted
  transfer sessions across the ``serve`` pool; one batch is one mix.
"""

from __future__ import annotations

import multiprocessing
import statistics
from multiprocessing import resource_tracker
import tempfile
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any

import numpy as np

from repro import telemetry
from repro.bench import faults_campaign, parallel, runner
from repro.bench.workloads import paper_link_config, random_payload
from repro.channel.link import ScreenCameraLink
from repro.channel.screen import FrameSchedule
from repro.core.decoder import FrameDecoder
from repro.core.encoder import FrameEncoder
from repro.core.sync import StreamReassembler
from repro.io import trace
from repro.serve import available_cpus, close_shared_pools, effective_processes, shared_pool
from sweeps import _dispersed, rainbar_config

from . import jobs
from .hostspeed import PASSES, HostSpeed
from .tracing import SpanRecorder, instrument, layer_metrics

#: Headline view angle of the figure sweeps (handheld, indoor, 12 cm).
VIEW_ANGLE_DEG = 15.0
#: Scenario mix of one fault-campaign batch, in job order.
FAULT_MIX = ("clean", "glare", "occlusion_finger", "combined", "capture_drops")
#: Seeds of one run are ``seed * SEED_STRIDE + k``; warm-up uses the top of the range.
SEED_STRIDE = 100_000


class OracleError(RuntimeError):
    """A program output the benchmark can prove wrong."""


@dataclass(frozen=True)
class Size:
    """How much work one run does, apart from its ``--seconds``."""

    setups: int = 3  # set-ups per run; setup_s is their median
    trial_frames: int = 2  # frames per trial_sweep trial
    quality_trials: int = 4  # trials in trial_sweep's quality set
    stream_frames: int = 12  # frames per recorded trace_replay stream
    session_seeds: int = 2  # seeds per scenario in one fault_campaign batch


#: The smallest run that still takes every code path (for the smoke tests).
TINY = Size(setups=1, trial_frames=1, quality_trials=1, stream_frames=3, session_seeds=1)


@dataclass
class Batch:
    """Counters of one batch; ``results`` is compared bit for bit."""

    captures: int = 0
    dropped: int = 0
    units_sent: int = 0  # frames (trials, replays) or sessions
    units_ok: int = 0
    bytes_sent: int = 0
    bytes_ok: int = 0
    op_ms: list[float] = field(default_factory=list)  # per trial, capture or session
    capture_ms: list[float] = field(default_factory=list)  # per trial, replay or session
    results: list[Any] = field(default_factory=list)
    job_s: float = 0.0  # summed job time (pool batches)
    busiest_s: float = 0.0  # job time of the busiest pool worker
    wall_s: float = 0.0  # wall time of the whole batch
    rounds: int = 0
    frames_sent: int = 0
    frames_total: int = 0


def _byte_accuracy(sent: bytes, received: bytes) -> int:
    n = min(len(sent), len(received))
    a = np.frombuffer(sent[:n], dtype=np.uint8)
    b = np.frombuffer(received[:n], dtype=np.uint8)
    return int(np.sum(a == b))


def check_frames(
    where: str, results: list[Any], expected: dict[int, bytes], batch: Batch
) -> None:
    """Oracle: every frame reported ok carries its sent payload byte for byte.

    Also scores the batch the way ``run_rainbar_trial`` does: the first
    result of each sequence counts, partial payloads get byte credit.
    """
    seen: set[int] = set()
    for result in results:
        if result.ok and expected.get(result.sequence) != result.payload:
            raise OracleError(
                f"{where} frame {result.sequence}: reported ok but its payload "
                "differs from the payload sent"
            )
        if result.sequence in seen or result.sequence not in expected:
            continue
        seen.add(result.sequence)
        batch.units_ok += int(result.ok)
        batch.bytes_ok += _byte_accuracy(expected[result.sequence], result.payload)
    batch.units_sent += len(expected)
    batch.bytes_sent += sum(len(p) for p in expected.values())


def check_session(
    where: str, result: Any, sent: bytes, recovered: bytes | None, batch: Batch
) -> None:
    """Oracle: a session is delivered exactly when it returned the payload sent."""
    exact = recovered == sent
    if result.delivered != exact:
        raise OracleError(
            f"{where} session={result.scenario}:{result.seed}: reported "
            f"delivered={result.delivered} but the payload returned "
            f"{'matches' if exact else 'differs from'} the payload sent"
        )
    batch.units_sent += 1
    batch.units_ok += int(exact)
    batch.bytes_sent += len(sent)
    batch.bytes_ok += len(sent) if exact else 0


class Workload:
    """One benchmark workload: set-ups, then batches, then :meth:`close`."""

    name = ""
    quality_batches = 1

    def __init__(self, seed: int, size: Size, workdir: Path):
        self.seed = seed
        self.size = size
        self.workdir = workdir

    def op_seed(self, index: int) -> int:
        return self.seed * SEED_STRIDE + index

    def warm_seed(self, index: int) -> int:
        return self.seed * SEED_STRIDE + SEED_STRIDE - 1 - index

    def setup(self, index: int) -> None:
        raise NotImplementedError

    def batch(self, index: int, serial: bool = False) -> Batch:
        raise NotImplementedError

    def host_speed(self) -> HostSpeed:
        """The calibration the timed phase samples between batches."""
        return HostSpeed()

    def close(self) -> None:
        pass

    #: Pool processes the timed phase ran on (0: no pool).
    processes = 0


class TrialSweep(Workload):
    name = "trial_sweep"

    def __init__(self, seed: int, size: Size, workdir: Path):
        super().__init__(seed, size, workdir)
        self.quality_batches = size.quality_trials
        self.codec = rainbar_config(display_rate=10, block_px=12)

    def _job(self, trial_seed: int, num_frames: int) -> dict[str, Any]:
        # Exactly the job rainbar_point builds for one seed.
        return dict(
            codec=self.codec,
            link_config=paper_link_config(
                **_dispersed({"view_angle_deg": VIEW_ANGLE_DEG}, trial_seed)
            ),
            num_frames=num_frames,
            brightness=1.0,
            seed=trial_seed,
            measure_raw_symbols=True,
            decoder_kwargs=None,
        )

    def setup(self, index: int) -> None:
        self.codec = rainbar_config(display_rate=10, block_px=12)
        jobs.install_taps()
        runner.run_rainbar_trial(**self._job(self.warm_seed(index), num_frames=1))
        jobs.FRAME_RESULTS.clear()

    def batch(self, index: int, serial: bool = False) -> Batch:
        trial_seed = self.op_seed(index)
        job = self._job(trial_seed, self.size.trial_frames)
        start = perf_counter()
        trial = runner.run_rainbar_trial(**job)
        elapsed = perf_counter() - start
        frames = jobs.FRAME_RESULTS.pop()
        size = self.codec.payload_bytes_per_frame
        expected = {
            i: random_payload(size, seed=trial_seed * 1000 + i)
            for i in range(self.size.trial_frames)
        }
        batch = Batch(captures=trial.captures, dropped=trial.captures_dropped,
                      op_ms=[elapsed * 1e3], capture_ms=[elapsed * 1e3 / trial.captures],
                      results=[trial, frames], wall_s=elapsed)
        check_frames(f"{self.name} seed={self.seed} trial={trial_seed}", frames, expected, batch)
        return batch


@dataclass
class _Stream:
    path: Path
    payloads: dict[int, bytes]
    reference: list[Any] | None = None  # results of the first replay


class TraceReplay(Workload):
    name = "trace_replay"

    def __init__(self, seed: int, size: Size, workdir: Path):
        super().__init__(seed, size, workdir)
        self.quality_batches = size.setups  # one replay of every recorded stream
        self.codec = rainbar_config(display_rate=20, block_px=12)
        self.streams: list[_Stream] = []

    def setup(self, index: int) -> None:
        self.codec = codec = rainbar_config(display_rate=20, block_px=12)
        stream_seed = self.op_seed(index)
        count = self.size.stream_frames
        payloads = {
            k: random_payload(codec.payload_bytes_per_frame, seed=stream_seed * 1000 + k)
            for k in range(count)
        }
        encoder = FrameEncoder(codec)
        frames = [encoder.encode_frame(payloads[k], sequence=k, is_last=k == count - 1)
                  for k in range(count)]
        schedule = FrameSchedule([f.render() for f in frames], display_rate=codec.display_rate)
        link = ScreenCameraLink(
            paper_link_config(view_angle_deg=VIEW_ANGLE_DEG),
            rng=np.random.default_rng(stream_seed + 0xC0FFEE),
        )
        # The streams start at evenly spaced phases of the capture period: the
        # phase decides which captures the rolling-shutter split crosses at the
        # header row, so a random phase would make the decode cost a lottery.
        phase = (index + 0.5) / self.size.setups
        captures = link.capture_stream(
            schedule, start_offset=phase * link.config.timing.capture_period
        )
        where = f"{self.name} seed={self.seed} stream={index}"
        path = self.workdir / f"stream-{index}"
        writer = trace.TraceWriter(path, metadata=link.trace_metadata({"seed": stream_seed}))
        for k, capture in enumerate(captures):
            # CameraPipeline quantizes to 8-bit levels, so uint8 is lossless.
            pixels = np.round(capture.image * 255.0).astype(np.uint8)
            if not np.array_equal(trace.normalize_frame(pixels), capture.image):
                raise OracleError(f"{where} capture {k}: live capture is not 8-bit quantized")
            writer.append(pixels, capture.time)
        reader = writer.close()
        for k, (frame, capture) in enumerate(zip(reader, captures)):
            if not np.array_equal(trace.normalize_frame(frame.image), capture.image):
                raise OracleError(
                    f"{where} capture {k}: the uint8 trace does not decode to the live capture"
                )
        FrameDecoder(codec).extract_diagnosed(captures[0].image)  # warm-up
        self.streams.append(_Stream(path, payloads))

    def batch(self, index: int, serial: bool = False) -> Batch:
        stream = self.streams[index % len(self.streams)]
        decoder = FrameDecoder(self.codec)
        reassembler = StreamReassembler(self.codec)
        batch = Batch()
        results: list[Any] = []
        outcomes: list[str] = []
        mark = start = perf_counter()
        for frame in trace.TraceReader(stream.path, verify=True):
            image = trace.normalize_frame(frame.image)
            extraction, diagnostics = decoder.extract_diagnosed(image)
            if extraction is None:
                batch.dropped += 1
                outcomes.append(diagnostics.failure.stage if diagnostics.failure else "capture")
            else:
                results.extend(reassembler.add_capture(extraction))
                outcomes.append("ok")
            now = perf_counter()
            batch.op_ms.append((now - mark) * 1e3)
            mark = now
        results.extend(reassembler.flush())
        end = perf_counter()
        batch.op_ms[-1] += (end - mark) * 1e3
        batch.wall_s = end - start
        # Per-capture times cycle through three modes (a capture that finalizes
        # a frame runs RS; one that does not; a dropped one), so their median
        # jumps between modes with the stream; the replay's mean does not.
        batch.capture_ms = [sum(batch.op_ms) / len(batch.op_ms)]
        batch.captures = len(outcomes)
        batch.results = [outcomes, results]
        where = f"{self.name} seed={self.seed} stream={index % len(self.streams)}"
        check_frames(where, results, stream.payloads, batch)
        if stream.reference is None:
            stream.reference = batch.results
        elif stream.reference != batch.results:
            raise OracleError(f"{where}: replay differs from the first replay of this trace")
        return batch


class FaultCampaign(Workload):
    name = "fault_campaign"

    def __init__(self, seed: int, size: Size, workdir: Path):
        super().__init__(seed, size, workdir)
        self.workers = available_cpus()
        self.processes = effective_processes(self.workers)
        self.spinup_s: list[float] = []

    def setup(self, index: int) -> None:
        jobs.install_taps()
        close_shared_pools()  # every set-up pays a fresh pool spin-up
        if self.processes > 1:
            start = perf_counter()
            shared_pool(self.workers)
            self.spinup_s.append(perf_counter() - start)
        warm = [{"scenario": "clean", "seed": self.warm_seed(k)} for k in range(self.processes)]
        parallel.run_trials_parallel(jobs.session_job, warm, workers=self.workers, chunksize=1)

    def sessions(self, index: int) -> list[dict[str, Any]]:
        seeds = [self.op_seed(index * self.size.session_seeds + k)
                 for k in range(self.size.session_seeds)]
        return [{"scenario": name, "seed": s} for name in FAULT_MIX for s in seeds]

    def batch(self, index: int, serial: bool = False) -> Batch:
        sessions = self.sessions(index)
        start = perf_counter()
        if serial:
            outs = [jobs.session_job(**job) for job in sessions]
        else:
            # One session per message: default chunks of same-scenario sessions
            # leave one worker idle behind a long chunk at the end of a batch.
            outs = parallel.run_trials_parallel(
                jobs.session_job, sessions, workers=self.workers, chunksize=1
            )
        batch = Batch(wall_s=perf_counter() - start)
        busy: dict[int, float] = defaultdict(float)
        for out in outs:
            result = out.result
            check_session(f"{self.name} seed={self.seed}", result, out.sent, out.recovered, batch)
            busy[out.pid] += out.elapsed_s
            batch.job_s += out.elapsed_s
            batch.op_ms.append(out.elapsed_s * 1e3)
            if result.captures:
                batch.capture_ms.append(out.elapsed_s * 1e3 / result.captures)
            batch.captures += result.captures
            batch.dropped += result.captures_dropped
            batch.rounds += result.rounds
            batch.frames_sent += result.frames_sent
            batch.frames_total += result.frames_total
            batch.results.append((result, out.recovered))
        batch.busiest_s = max(busy.values())
        return batch

    def host_speed(self) -> HostSpeed:
        return PoolHostSpeed(self.workers, self.processes)

    def close(self) -> None:
        close_shared_pools()
        # The fork pool started multiprocessing's resource tracker; wait for it too.
        resource_tracker._resource_tracker._stop()


class PoolHostSpeed(HostSpeed):
    """Samples the kernel in every pool worker at once, at the campaign's sensor size.

    A pooled batch runs on every CPU, so the host is sampled on every
    CPU too, with the same parallelism; a sample is the median of
    :data:`~perfbench.hostspeed.PASSES` passes per worker.
    """

    def __init__(self, workers: int, processes: int):
        super().__init__(*faults_campaign.CAMPAIGN_SENSOR)
        self.workers = workers
        self.processes = processes

    def sample(self) -> float:
        height, width = self.shape
        times = parallel.run_trials_parallel(
            jobs.kernel_job, [{"height": height, "width": width}] * (PASSES * self.processes),
            workers=self.workers, chunksize=1,
        )
        self.samples.append(statistics.median(times))
        return self.samples[-1]


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (TrialSweep, TraceReplay, FaultCampaign)
}


# -- the harness -------------------------------------------------------------


def _vm_hwm_kb(pid: int | str) -> int:
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its live children, MiB."""
    pids: list[int | str] = ["self"] + [p.pid for p in multiprocessing.active_children()]
    total_kb = 0
    for pid in pids:
        try:
            total_kb += _vm_hwm_kb(pid)
        except OSError:  # a child that exited in between
            continue
    return total_kb / 1024.0


def quality(batches: list[Batch]) -> dict[str, float]:
    """Decoding, drop and delivery ratios of a fixed set of batches."""
    sent = sum(b.bytes_sent for b in batches)
    captures = sum(b.captures for b in batches)
    units = sum(b.units_sent for b in batches)
    return {
        "decoding_rate": sum(b.bytes_ok for b in batches) / sent if sent else 0.0,
        "capture_drop_ratio": sum(b.dropped for b in batches) / captures if captures else 0.0,
        "delivery_ratio": sum(b.units_ok for b in batches) / units if units else 0.0,
    }


@dataclass
class Report:
    """Everything one run measured; ``metrics`` holds the reported values."""

    traced: bool
    attempted: int
    metrics: dict[str, float]
    details: dict[str, Any]
    provenance: dict[str, Any] = field(default_factory=dict)


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    traced: bool,
    *,
    size: Size = Size(),
    workdir: Path,
    import_s: float = 0.0,
    spans_out: Path | None = None,
) -> Report:
    """Set up, measure and check one workload; raises :class:`OracleError`."""
    workdir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=workdir) as scratch:
        workload = WORKLOADS[name](seed, size, Path(scratch))
        rec = SpanRecorder() if traced else None
        host = workload.host_speed()
        try:
            setup_s = []
            for index in range(size.setups):
                with instrument(rec) if rec is not None else nullcontext():
                    start = perf_counter()
                    workload.setup(index)
                    setup_s.append(perf_counter() - start)
            if telemetry.enabled():
                raise RuntimeError("the benchmark must run with REPRO_TELEMETRY off")
            if rec is None:
                report = _measure(workload, seconds, host)
            else:
                report = _measure_traced(workload, rec)
            # End-to-end in an untraced run; context in a traced one.
            target = report.details if traced else report.metrics
            target["setup_s"] = import_s + statistics.median(setup_s)
            target["peak_rss_mb"] = peak_rss_mb()
            report.details["setup_runs_s"] = setup_s
            report.details["import_s"] = import_s
        finally:
            workload.close()
    if rec is not None and spans_out is not None:
        rec.write(spans_out)
    report.provenance = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "nproc": available_cpus(),
        "effective_processes": workload.processes or 1,
        "comparable": not (name == "fault_campaign" and workload.processes <= 1),
        "telemetry_enabled": telemetry.enabled(),
    }
    return report


def _p90_with_tail(samples: list[float]) -> float | None:
    """p90 when at least ten samples lie beyond it, else None."""
    if len(samples) < 2:
        return None
    p90 = statistics.quantiles(samples, n=10)[-1]
    return p90 if sum(s > p90 for s in samples) >= 10 else None


def _measure(workload: Workload, seconds: float, host: HostSpeed) -> Report:
    batches: list[Batch] = []
    host.sample()
    start = perf_counter()
    while len(batches) < workload.quality_batches or perf_counter() - start < seconds:
        batches.append(workload.batch(len(batches)))
        host.sample()
    wall = perf_counter() - start
    scales = host.scales()
    captures = sum(b.captures for b in batches)
    busy_s = sum(b.wall_s for b in batches)
    op_ms = [ms for b in batches for ms in b.op_ms]
    capture_ms = [ms for b in batches for ms in b.capture_ms]
    details: dict[str, Any] = {
        "batches": len(batches),
        "timed_s": wall,
        "operations": len(op_ms),
        # As measured on this host: op_ms is never scaled.
        "captures_per_s_measured": captures / busy_s,
        "capture_ms_p50_measured": statistics.median(capture_ms),
        "op_ms_p50": statistics.median(op_ms),
        "op_ms_p90": _p90_with_tail(op_ms),
        "host_kernel_ms_p50": host.median_s() * 1e3,
        "host_scale_p50": statistics.median(scales),
        **quality(batches[: workload.quality_batches]),
    }
    return Report(
        traced=False,
        attempted=len(op_ms),
        metrics={
            "captures_per_s": captures / sum(
                b.wall_s * scale for b, scale in zip(batches, scales)),
            "capture_ms_p50": statistics.median(
                ms * scale for b, scale in zip(batches, scales) for ms in b.capture_ms),
        },
        details=details,
    )


def _measure_traced(workload: Workload, rec: SpanRecorder) -> Report:
    count = workload.quality_batches
    start = perf_counter()
    plain = [workload.batch(i) for i in range(count)]
    plain_s = perf_counter() - start
    rec.phase = "timed"
    with instrument(rec):
        start = perf_counter()
        traced = [workload.batch(i, serial=True) for i in range(count)]
        traced_s = perf_counter() - start
    for i, (a, b) in enumerate(zip(plain, traced)):
        if a.results != b.results:
            raise OracleError(
                f"{workload.name} seed={workload.seed} batch={i}: the traced run's "
                "results differ from the untraced run's"
            )
    captures = sum(b.captures for b in plain)
    pooled = workload.processes > 1
    # A pooled batch's wall time hides its parallelism; compare per-process rates.
    plain_busy = sum(b.job_s for b in plain) if pooled else plain_s
    metrics = layer_metrics(rec, traced_s)
    metrics.update({
        "link.session.rounds": sum(b.rounds for b in traced),
        "link.session.frames_sent": sum(b.frames_sent for b in traced),
        "link.session.useful_ratio": (
            sum(b.frames_total for b in traced) / sum(b.frames_sent for b in traced)
            if any(b.frames_sent for b in traced) else 0.0
        ),
        "serve.processes": workload.processes if pooled else 0,
        "serve.spinup_s": statistics.median(workload.spinup_s) if pooled else 0.0,
        "serve.parallel_efficiency": (
            sum(b.job_s for b in plain) / (plain_s * workload.processes) if pooled else 0.0
        ),
        "serve.dispatch_overhead_s": (
            sum(b.wall_s - b.busiest_s for b in plain) if pooled else 0.0
        ),
        "serve.speedup_vs_serial": traced_s / plain_s if pooled else 0.0,
        "tracing.captures_per_s_untraced": captures / plain_busy,
        "tracing.captures_per_s_traced": captures / traced_s,
        "tracing.overhead_ratio": traced_s / plain_busy,
    })
    metrics.update({f"quality.{k}": v for k, v in quality(plain).items()})
    return Report(
        traced=True,
        attempted=sum(len(b.op_ms) for b in plain + traced),
        metrics=metrics, details={"timed_s": plain_s + traced_s},
    )
