"""The traced run: spans around each layer's public functions.

:func:`instrument` replaces each layer entry point at the site the
program looks it up (a module attribute such as
``repro.channel.link.warp_perspective``, or a class attribute such as
``repro.core.sync.StreamReassembler.add_capture``) with a wrapper that
records one span per call, and puts the originals back on exit.  The
program's own telemetry (``REPRO_TELEMETRY``) stays off: the wrappers
only read the clock, so a traced run draws exactly the same random
numbers as an untraced one, which the harness checks bit for bit.

Spans are kept in memory and written when the run ends.  A span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator

#: Decode stages reported from the public ``DecodeDiagnostics.stage_ms``.
STAGES = ("input", "brightness", "corners", "locators", "classify", "header",
          "tracking", "diagnostics")
#: Stages an extraction can fail in (``DECODE_STAGES`` minus the
#: frame-level ``assemble`` step, which never raises out of ``extract``).
FAILURE_STAGES = ("input", "brightness", "corners", "locators", "classify",
                  "header", "tracking", "capture")

#: Span names reported as ``<name>.calls`` and ``<name>.self_ms``.
TIMED_SPANS = (
    "channel.camera.compose_rolling_shutter",
    "channel.project.warp_perspective",
    "channel.optics.lens_apply",
    "channel.mobility.motion_blur",
    "channel.environment.degrade",
    "imaging.sensor.pipeline_apply",
    "faults.apply_image",
    "core.encoder.encode_frame",
    "core.encoder.render",
    "core.decoder.extract",
    "core.sync.add_capture",
    "core.sync.flush",
    "core.sync.sharpness",
    "coding.reed_solomon.decode",
    "io.trace.read",
    "io.trace.normalize",
)

#: Layer of a span, by name prefix; the first match wins.
LAYERS = (
    ("channel", ("channel.", "imaging.sensor.", "faults.")),
    ("core.encoder", ("core.encoder.",)),
    ("core.decoder", ("core.decoder.",)),
    ("core.sync", ("core.sync.",)),
    ("coding", ("coding.",)),
    ("io", ("io.",)),
)

# Span fields, stored as lists for speed: parent index, name, start,
# end, request id, phase, exception class name ("" when it returned).
_PARENT, _NAME, _START, _END, _REQUEST, _PHASE, _ERROR = range(7)


class SpanRecorder:
    """In-memory span store for one traced run (single-threaded)."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        #: ``phase -> name -> total`` of counts recorded at the wrapped sites.
        self.counters: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        #: Request id stamped on new spans: trial seed, capture index or session.
        self.request: str = ""
        #: ``setup`` or ``timed``; per-layer metrics read the timed phase.
        self.phase: str = "setup"
        self._stack: list[int] = []

    def count(self, name: str, value: float = 1) -> None:
        self.counters[self.phase][name] += value

    def _open(self, name: str) -> list[Any]:
        parent = self._stack[-1] if self._stack else -1
        span = [parent, name, 0.0, 0.0, self.request, self.phase, ""]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[_START] = perf_counter()
        return span

    def _close(self, span: list[Any], error: BaseException | None) -> None:
        span[_END] = perf_counter()
        if error is not None:
            span[_ERROR] = type(error).__name__
        self._stack.pop()

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        *,
        request: Callable[..., str] | None = None,
        on_return: Callable[[Any], None] | None = None,
        on_error: Callable[[BaseException], None] | None = None,
    ) -> Callable[..., Any]:
        """*fn* with one span per call; *request* derives a request id."""

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            outer = self.request
            if request is not None:
                self.request = request(*args, **kwargs)
            span = self._open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(span, exc)
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                if request is not None:
                    self.request = outer
            self._close(span, None)
            if on_return is not None:
                on_return(out)
            return out

        return traced

    def wrap_iter(
        self, name: str, fn: Callable[..., Iterator[Any]],
        request: Callable[[Any, Any], str], on_item: Callable[[Any], None],
    ) -> Callable[..., Iterator[Any]]:
        """A generator method with one span per ``next``.

        ``request(owner, item)`` derives the request id from each item.
        """

        @functools.wraps(fn)
        def traced(owner: Any, *args: Any, **kwargs: Any) -> Iterator[Any]:
            inner = fn(owner, *args, **kwargs)
            while True:
                span = self._open(name)
                try:
                    item = next(inner)
                except StopIteration:
                    self._close(span, None)
                    return
                except BaseException as exc:
                    self._close(span, exc)
                    raise
                self._close(span, None)
                self.request = request(owner, item)
                on_item(item)
                yield item

        return traced

    # -- reduction -------------------------------------------------------

    def self_times(self, phase: str) -> dict[str, list[float]]:
        """``name -> [calls, self seconds, failed calls]`` over *phase*."""
        child_s = [0.0] * len(self.spans)
        for span in self.spans:
            if span[_PARENT] >= 0:
                child_s[span[_PARENT]] += span[_END] - span[_START]
        out: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0])
        for index, span in enumerate(self.spans):
            if span[_PHASE] != phase:
                continue
            entry = out[span[_NAME]]
            entry[0] += 1
            entry[1] += span[_END] - span[_START] - child_s[index]
            entry[2] += bool(span[_ERROR])
        return out

    def write(self, path: Path) -> None:
        """One JSON line per span, start/end in ms from the first span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][_START] if self.spans else 0.0
        with path.open("w", encoding="utf-8") as fh:
            for index, span in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": index,
                    "parent": span[_PARENT],
                    "name": span[_NAME],
                    "start_ms": round((span[_START] - t0) * 1e3, 4),
                    "end_ms": round((span[_END] - t0) * 1e3, 4),
                    "request": span[_REQUEST],
                    "phase": span[_PHASE],
                    "error": span[_ERROR],
                }) + "\n")


@contextlib.contextmanager
def _patched(sites: list[tuple[Any, str, Any]]) -> Iterator[None]:
    """Set each ``(owner, attribute, value)``; restore the originals on exit."""
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in sites]
    try:
        for owner, attr, value in sites:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


@contextlib.contextmanager
def instrument(rec: SpanRecorder) -> Iterator[SpanRecorder]:
    """Wrap every layer entry point for the duration of the block."""
    from repro.bench import faults_campaign, runner
    from repro.channel import environment, link, optics
    from repro.coding import reed_solomon
    from repro.core import decoder, encoder, sync
    from repro.faults import plan
    from repro.imaging import sensor
    from repro.io import trace

    def record_extract(extraction: Any) -> None:
        rec.count("core.decoder.ok")
        for stage, ms in extraction.diagnostics.stage_ms.items():
            rec.count(f"core.decoder.stage.{stage}_ms", ms)

    def record_failure(exc: BaseException) -> None:
        stage = getattr(exc, "stage", "capture")
        rec.count(f"core.decoder.failures.{stage}")

    sharpness = decoder.DecodeDiagnostics.__dict__["sharpness"]
    timed_sharpness = rec.wrap("core.sync.sharpness", sharpness.fget)

    def deferred_sharpness(diagnostics: Any) -> float:
        # Only a first read runs the blur pass; later reads are memoized.
        if diagnostics.sharpness_materialized:
            return float(sharpness.fget(diagnostics))
        return float(timed_sharpness(diagnostics))

    def method(owner: Any, attr: str, name: str, **kw: Any) -> tuple[Any, str, Any]:
        return owner, attr, rec.wrap(name, owner.__dict__[attr], **kw)

    sites = [
        method(runner, "run_rainbar_trial", "bench.trial",
               request=lambda *a, **k: f"trial:{k['seed']}"),
        method(faults_campaign, "run_fault_trial", "bench.session",
               request=lambda scenario, seed, **k: f"session:{scenario}:{seed}"),
        method(link.ScreenCameraLink, "capture_at", "channel.capture"),
        method(link, "compose_rolling_shutter", "channel.camera.compose_rolling_shutter"),
        method(link, "warp_perspective", "channel.project.warp_perspective"),
        method(link, "motion_blur", "channel.mobility.motion_blur"),
        method(optics.LensModel, "apply", "channel.optics.lens_apply"),
        method(environment.EnvironmentProfile, "degrade", "channel.environment.degrade"),
        method(sensor.CameraPipeline, "apply", "imaging.sensor.pipeline_apply"),
        method(plan.FaultPlan, "apply_image", "faults.apply_image"),
        method(encoder.FrameEncoder, "encode_frame", "core.encoder.encode_frame"),
        method(encoder.Frame, "render", "core.encoder.render"),
        method(decoder.FrameDecoder, "extract", "core.decoder.extract",
               on_return=record_extract, on_error=record_failure),
        (decoder.DecodeDiagnostics, "sharpness", property(deferred_sharpness)),
        method(sync.StreamReassembler, "add_capture", "core.sync.add_capture"),
        method(sync.StreamReassembler, "flush", "core.sync.flush"),
        method(reed_solomon.ReedSolomon, "decode", "coding.reed_solomon.decode"),
        method(trace, "normalize_frame", "io.trace.normalize"),
        method(trace.TraceWriter, "append", "io.trace.write"),
        method(trace.TraceWriter, "close", "io.trace.write"),
        (trace.TraceReader, "__iter__", rec.wrap_iter(
            "io.trace.read", trace.TraceReader.__dict__["__iter__"],
            request=lambda reader, frame: f"{reader.path.name}:capture:{frame.index}",
            on_item=lambda frame: rec.count("io.trace.bytes_read", frame.image.nbytes))),
    ]
    with _patched(sites):
        yield rec


def layer_metrics(rec: SpanRecorder, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of the timed phase (``io.trace.write`` is set-up work)."""
    timed = rec.self_times("timed")
    setup = rec.self_times("setup")
    counts = rec.counters["timed"]
    out: dict[str, float] = {}
    for name in TIMED_SPANS:
        calls, self_s, _ = timed.get(name, (0, 0.0, 0))
        out[f"{name}.calls"] = calls
        out[f"{name}.self_ms"] = self_s * 1e3
    calls, self_s, _ = setup.get("io.trace.write", (0, 0.0, 0))
    out["io.trace.write.calls"] = calls
    out["io.trace.write.self_ms"] = self_s * 1e3
    out["channel.captures"] = timed.get("channel.capture", (0, 0.0, 0))[0]
    out["channel.capture.self_ms"] = timed.get("channel.capture", (0, 0.0, 0))[1] * 1e3
    out["coding.reed_solomon.decode.failed_codewords"] = (
        timed.get("coding.reed_solomon.decode", (0, 0.0, 0))[2]
    )
    extracts = out["core.decoder.extract.calls"]
    for stage in STAGES:
        out[f"core.decoder.stage.{stage}_ms"] = counts[f"core.decoder.stage.{stage}_ms"]
    for stage in FAILURE_STAGES:
        out[f"core.decoder.failures.{stage}"] = counts[f"core.decoder.failures.{stage}"]
    out["core.decoder.ok_ratio"] = (
        counts["core.decoder.ok"] / extracts if extracts else 0.0
    )
    out["io.trace.bytes_read"] = counts["io.trace.bytes_read"]
    layer_s: dict[str, float] = defaultdict(float)
    for name, (_, self_s, _) in timed.items():
        for layer, prefixes in LAYERS:
            if name.startswith(prefixes):
                layer_s[layer] += self_s
                break
    for layer, _ in LAYERS:
        out[f"layer.{layer}.share"] = layer_s[layer] / wall_s if wall_s > 0 else 0.0
    return out
