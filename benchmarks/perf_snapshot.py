"""Machine-readable performance snapshot of the receive pipeline.

Writes ``BENCH_decode.json`` (perf-ledger schema v1: ``schema_version``,
``git_rev``, ``host`` identity) with:

* the per-stage decode breakdown of one capture (from
  ``DecodeDiagnostics.stage_ms``; best-of over ``--repeats``),
* per-stage wall/self-time p50/p95/p99 over traced repeat decodes
  (:class:`repro.telemetry.perf.StageAggregate`),
* end-to-end single-worker trial time (render -> capture -> decode),
  with the mean per-capture wall time of each channel span,
* a seed-sweep wall-clock comparison at 1 vs 4 workers, including a
  check that the pooled counters are bit-identical, and
* ``decode_stream`` timing at 1 vs 4 workers.

Each run also appends the snapshot to the append-only JSONL perf ledger
(``--ledger``, default ``benchmarks/results/perf_ledger.jsonl``;
``--no-ledger`` skips it), so ``repro perf diff ledger.jsonl@-2
ledger.jsonl@-1`` can compare any two recorded runs and ``repro perf
check`` can gate against any of them.

Worker speedups depend on the host core count (recorded per entry as
``host_cpus`` next to ``expected_ceiling``); parallel runs go through
the persistent shared-memory decode service (:mod:`repro.serve`), which
caps worker *processes* at the available cores — on a single-core
container the 4-worker numbers therefore measure the service's
overhead floor (~1.0x) rather than speedup, and `repro perf check`
holds them to the host-aware floor budget, not the multi-core one.

Run from the repo root::

    PYTHONPATH=src:benchmarks python benchmarks/perf_snapshot.py
    PYTHONPATH=src:benchmarks python benchmarks/perf_snapshot.py --seeds 16 --frames 2
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from sweeps import rainbar_config, rainbar_point  # noqa: E402

from repro import telemetry  # noqa: E402
from repro.bench import paper_link_config, run_rainbar_trial  # noqa: E402
from repro.channel import FrameSchedule, ScreenCameraLink  # noqa: E402
from repro.core.decoder import FrameDecoder  # noqa: E402
from repro.core.encoder import FrameEncoder  # noqa: E402
from repro.serve import available_cpus, close_shared_pools, effective_processes  # noqa: E402
from repro.telemetry.perf import StageAggregate, append_record, stamp_snapshot  # noqa: E402


def _best_of(n, fn):
    best = float("inf")
    for __ in range(n):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _best_of_pair(n, fn_a, fn_b):
    """Interleaved A/B timing: ``(best_a, best_b, a_over_b)``.

    Shared/burstable hosts drift by double-digit percentages over a few
    seconds (CPU-quota throttling), so timing all of A then all of B —
    or even comparing two independent best-ofs — lets one side sample a
    slow period and skews the ratio.  Each round here times A and B
    back to back (order alternating per round, so neither side always
    runs first into a fresh quota), and the reported ratio is the
    *median of per-round ratios*: adjacent measurements see the same
    load, and the median discards rounds where throttling flipped
    mid-pair.  ``best_a``/``best_b`` are informational best-ofs.
    """
    best_a = best_b = float("inf")
    ratios = []
    for i in range(max(n, 1)):
        first, second = (fn_a, fn_b) if i % 2 == 0 else (fn_b, fn_a)
        t0 = time.perf_counter()
        first()
        t_first = time.perf_counter() - t0
        t0 = time.perf_counter()
        second()
        t_second = time.perf_counter() - t0
        a, b = (t_first, t_second) if i % 2 == 0 else (t_second, t_first)
        best_a = min(best_a, a)
        best_b = min(best_b, b)
        ratios.append(a / max(b, 1e-9))
    ratios.sort()
    mid = len(ratios) // 2
    if len(ratios) % 2:
        ratio = ratios[mid]
    else:
        ratio = 0.5 * (ratios[mid - 1] + ratios[mid])
    return best_a, best_b, ratio


def stage_breakdown(repeats: int = 3) -> tuple[dict, dict]:
    """Stage decode milliseconds plus traced percentiles over repeats.

    Returns ``(decode_stages, stage_percentiles)``.  The breakdown is
    the best-of over *repeats* untraced decodes — exactly what `repro
    perf check` measures live, so the committed baseline and the gate
    see the same pipeline (no ``diagnostics`` stage: the sharpness pass
    is lazy without telemetry).  The percentiles come from a second set
    of *traced* decodes folded through the associative aggregator; the
    trace includes the eager ``diagnostics`` stage.
    """
    config = rainbar_config(display_rate=10)
    encoder = FrameEncoder(config)
    payload = (np.arange(config.payload_bytes_per_frame) % 256).astype(np.uint8).tobytes()
    image = encoder.encode_frame(payload, sequence=0).render()
    link = ScreenCameraLink(paper_link_config(), rng=np.random.default_rng(3))
    capture = link.capture_at(FrameSchedule([image], 10), 0.01)

    decoder = FrameDecoder(config)
    decoder.extract(capture.image)  # warm warp/coordinate caches
    best = None
    for __ in range(max(repeats, 1)):
        extraction = decoder.extract(capture.image)
        stage_ms = {k: round(v, 3) for k, v in extraction.diagnostics.stage_ms.items()}
        if best is None or sum(stage_ms.values()) < sum(best.values()):
            best = stage_ms

    aggregate = StageAggregate()
    for __ in range(max(repeats, 1)):
        tracer = telemetry.Tracer("perf_snapshot")
        with telemetry.scoped(tracer=tracer):
            decoder.extract(capture.image)
        for root in tracer.roots:
            aggregate.add_tree(root.as_dict())
    return (
        {"stage_ms": best, "total_ms": round(sum(best.values()), 3)},
        aggregate.summary(),
    )


def single_worker_trial(num_frames: int, repeats: int) -> dict:
    """End-to-end trial time: render -> capture -> decode, serial.

    ``channel_stage_ms`` is informational (no budget gates it): the mean
    wall milliseconds per capture of each ``channel.*`` span, from one
    more traced run of the same trial.
    """
    config = rainbar_config(display_rate=10)
    link = paper_link_config(view_angle_deg=15.0)
    kwargs = dict(codec=config, link_config=link, num_frames=num_frames, seed=2)
    run_rainbar_trial(**kwargs)  # warm
    best = _best_of(repeats, lambda: run_rainbar_trial(**kwargs))
    tracer = telemetry.Tracer("perf_snapshot")
    with telemetry.scoped(tracer=tracer):
        run_rainbar_trial(**kwargs)
    captures = max(len(tracer.find("channel.capture")), 1)
    return {
        "num_frames": num_frames,
        "trial_ms": round(best * 1000, 1),
        "per_frame_ms": round(best * 1000 / num_frames, 1),
        "channel_stage_ms": {
            name: round(seconds * 1000 / captures, 2)
            for name, seconds in sorted(tracer.stage_totals().items())
            if name.startswith("channel.")
        },
    }


def sweep_comparison(seeds: list[int], num_frames: int, repeats: int = 1) -> dict:
    """One sweep point at 1 vs 4 requested workers; counters must agree.

    The 4-worker run goes through the persistent shared pool
    (:mod:`repro.serve`); a tiny warm call first spins the workers up
    so the timed region measures the steady-state service, not a
    one-time fork.  Both sides are interleaved best-of *repeats*
    (see :func:`_best_of_pair`).  ``processes`` records how many
    worker processes the engine actually fans over (capped at the
    host's cores; at one effective process it runs serially
    in-process), and ``expected_ceiling`` the best speedup this host
    could reach.
    """
    host_cpus = available_cpus()
    kwargs = dict(num_frames=num_frames, view_angle_deg=15.0)

    rainbar_point(seeds[:1], workers=1, **kwargs)  # warm caches
    rainbar_point(seeds[:2], workers=4, **kwargs)  # spin up + warm the pool
    serial_s, fanned_s, speedup = _best_of_pair(
        repeats,
        lambda: rainbar_point(seeds, workers=1, **kwargs),
        lambda: rainbar_point(seeds, workers=4, **kwargs),
    )

    serial = rainbar_point(seeds, workers=1, **kwargs)
    fanned = rainbar_point(seeds, workers=4, **kwargs)
    return {
        "seeds": len(seeds),
        "num_frames": num_frames,
        "workers": 4,
        "host_cpus": host_cpus,
        "processes": effective_processes(4),
        "expected_ceiling": float(min(4, host_cpus)),
        "serial_s": round(serial_s, 3),
        "workers4_s": round(fanned_s, 3),
        "speedup": round(speedup, 2),
        "bit_identical": dataclasses.asdict(serial) == dataclasses.asdict(fanned),
    }


def decode_stream_comparison(num_captures: int, repeats: int = 1) -> dict:
    """decode_stream over one capture burst at 1 vs 4 requested workers.

    With more than one effective process, frames travel through the
    shared-memory ring of the persistent decode service (warmed first:
    persistent-service steady state); at one effective process the
    dispatcher decodes serially in-process.  Both sides are interleaved
    best-of *repeats* (see :func:`_best_of_pair`).  ``bit_identical``
    asserts the fanned results match the serial ones field for field.
    """
    host_cpus = available_cpus()
    config = rainbar_config(display_rate=10)
    encoder = FrameEncoder(config)
    payload = (np.arange(config.payload_bytes_per_frame) % 256).astype(np.uint8).tobytes()
    images = [encoder.encode_frame(payload, sequence=i).render() for i in range(num_captures)]
    link = ScreenCameraLink(paper_link_config(), rng=np.random.default_rng(3))
    captures = link.capture_stream(FrameSchedule(images, 10))

    decoder = FrameDecoder(config)
    decoder.decode_stream(captures, workers=1)  # warm caches
    decoder.decode_stream(captures[:2], workers=4)  # spin up + warm the pool

    serial_s, fanned_s, speedup = _best_of_pair(
        repeats,
        lambda: decoder.decode_stream(captures, workers=1),
        lambda: decoder.decode_stream(captures, workers=4),
    )

    def _as_comparable(results):
        return [None if r is None else dataclasses.asdict(r) for r in results]

    serial = decoder.decode_stream(captures, workers=1)
    fanned = decoder.decode_stream(captures, workers=4)
    return {
        "captures": len(captures),
        "workers": 4,
        "host_cpus": host_cpus,
        "processes": effective_processes(4),
        "expected_ceiling": float(min(4, host_cpus)),
        "workers1_s": round(serial_s, 3),
        "workers4_s": round(fanned_s, 3),
        "speedup": round(speedup, 2),
        "bit_identical": _as_comparable(serial) == _as_comparable(fanned),
    }


def baseline_trial_ms(root: Path, num_frames: int, repeats: int) -> float:
    """Time the same single-worker trial in another checkout (subprocess)."""
    import subprocess

    code = (
        "import sys, time\n"
        f"sys.path.insert(0, {str(root / 'src')!r})\n"
        f"sys.path.insert(0, {str(root / 'benchmarks')!r})\n"
        "from sweeps import rainbar_config\n"
        "from repro.bench import paper_link_config, run_rainbar_trial\n"
        "kwargs = dict(codec=rainbar_config(10),\n"
        "              link_config=paper_link_config(view_angle_deg=15.0),\n"
        f"              num_frames={num_frames}, seed=2)\n"
        "run_rainbar_trial(**kwargs)\n"
        "best = float('inf')\n"
        f"for _ in range({repeats}):\n"
        "    t0 = time.perf_counter(); run_rainbar_trial(**kwargs)\n"
        "    best = min(best, time.perf_counter() - t0)\n"
        "print(best * 1000)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    return float(out.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=16, help="seeds in the sweep comparison")
    parser.add_argument("--frames", type=int, default=2, help="frames per trial")
    parser.add_argument("--repeats", type=int, default=3, help="best-of repeats for timings")
    parser.add_argument(
        "--compare-root",
        type=Path,
        default=None,
        help="another checkout of this repo to time the same trial against "
        "(e.g. a pre-optimization worktree); records the speedup",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).resolve().parents[1] / "BENCH_decode.json",
        help="output JSON path",
    )
    parser.add_argument(
        "--ledger",
        type=Path,
        default=Path(__file__).resolve().parent / "results" / "perf_ledger.jsonl",
        help="append the snapshot to this JSONL perf ledger",
    )
    parser.add_argument(
        "--no-ledger", action="store_true", help="skip the ledger append"
    )
    parser.add_argument(
        "--no-scaling",
        action="store_true",
        help="skip the 1-vs-4-worker comparisons (reduced CI runs: a "
        "2-seed sweep cannot show real scaling, and `repro perf check` "
        "then gates the committed baseline's scaling evidence instead)",
    )
    args = parser.parse_args(argv)

    decode_stages, stage_percentiles = stage_breakdown(args.repeats)
    snapshot = {
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "cpu_count": os.cpu_count() or 1,
        },
        "decode_stages": decode_stages,
        "stage_percentiles": stage_percentiles,
        "single_worker_trial": single_worker_trial(args.frames, args.repeats),
    }
    if not args.no_scaling:
        snapshot["sweep_1_vs_4_workers"] = sweep_comparison(
            list(range(1, args.seeds + 1)), args.frames, args.repeats
        )
        snapshot["decode_stream_1_vs_4_workers"] = decode_stream_comparison(
            12, args.repeats
        )
    stamp_snapshot(snapshot)
    if args.compare_root is not None:
        base_ms = baseline_trial_ms(args.compare_root, args.frames, args.repeats)
        here_ms = snapshot["single_worker_trial"]["trial_ms"]
        snapshot["baseline_comparison"] = {
            "baseline_root": str(args.compare_root),
            "baseline_trial_ms": round(base_ms, 1),
            "trial_ms": here_ms,
            "speedup": round(base_ms / max(here_ms, 1e-9), 2),
        }
    args.out.write_text(json.dumps(snapshot, indent=2) + "\n")
    print(json.dumps(snapshot, indent=2))
    print(f"\nwrote {args.out}")
    if not args.no_ledger:
        append_record(args.ledger, snapshot)
        print(f"appended to {args.ledger}")
    close_shared_pools()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
