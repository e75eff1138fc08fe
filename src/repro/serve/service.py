"""Batched decode service on top of the persistent worker pool.

:class:`DecodeService` binds one :class:`~repro.core.decoder.
FrameDecoder` to a :class:`~repro.serve.pool.WorkerPool` and exposes the
application-facing surface the paper's receiver scenario needs — a
screen-camera link that keeps producing captures while decode runs
elsewhere:

* :meth:`submit` — hand over a *batch* of frames, get a
  :class:`~concurrent.futures.Future` back immediately; the frames are
  staged into shared memory up front, so the caller may reuse or drop
  its arrays right away;
* :meth:`map_ordered` — decode a whole capture sequence with automatic
  chunking, results in input order (``None`` for undecodable frames,
  exactly like serial :meth:`~repro.core.decoder.FrameDecoder.
  decode_stream`);
* ``close``/``join`` and context-manager lifecycle: when the service
  *owns* its pool, closing the service tears the workers and every
  shared-memory segment down; a service wrapping a shared pool leaves
  the pool running for the next caller.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional, Sequence, Union

import numpy as np

from .. import telemetry
from .pool import WorkerPool, shared_pool

if TYPE_CHECKING:
    from concurrent.futures import Future

    from ..core.decoder import FrameDecoder, FrameResult

__all__ = ["DecodeService", "FRAMES_PER_JOB", "decode_batch"]

#: Default frames per job.  The shared-memory ring already batches
#: frames, and a chunk larger than one worker's share of the ring
#: spills its extra frames into the job queue as pickled copies: on a
#: 2-CPU host, 7-frame chunks made a 108-capture ``decode_stream``
#: slower than serial (4.6 s vs 2.8 s), one frame per job faster (1.8 s).
FRAMES_PER_JOB = 1

#: One capture's collected metrics: (deterministic, timing-only) snapshots.
CaptureMetrics = tuple[dict[str, Any], dict[str, Any]]
BatchResult = Union[
    list[Optional["FrameResult"]],
    tuple[list[Optional["FrameResult"]], list[CaptureMetrics]],
]


def decode_batch(
    frames: Sequence[np.ndarray],
    *,
    decoder: "FrameDecoder",
    with_metrics: bool = False,
) -> BatchResult:
    """Worker-side batch decode (module level => picklable).

    ``frames`` arrive as zero-copy shared-memory views (or inline
    copies); undecodable captures map to ``None`` — the same contract
    as serial ``decode_stream``.  With ``with_metrics=True`` each
    capture decodes under a private registry and the return value is
    ``(results, per_capture_snapshots)``: the caller folds the
    snapshots in capture order, which keeps merged quality metrics
    bit-identical to the serial path for any worker count.
    """
    from ..core.decoder import _decode_one_collected, _decode_one_or_none

    if not with_metrics:
        return [_decode_one_or_none(decoder, frame) for frame in frames]
    results: list[Optional["FrameResult"]] = []
    captures: list[CaptureMetrics] = []
    for frame in frames:
        result, det, timing = _decode_one_collected(decoder, frame)
        results.append(result)
        captures.append((det, timing))
    return results, captures


class DecodeService:
    """Asynchronous, batched decoding bound to one decoder.

    Parameters
    ----------
    decoder:
        The :class:`FrameDecoder` applied to every frame.  It is
        pickled once per submitted batch (it is a small config object;
        the frames are what travel through shared memory).
    workers:
        Requested concurrency, resolved like everywhere else
        (explicit > ``REPRO_WORKERS`` > cores).  Ignored when *pool*
        is given.
    pool:
        An existing :class:`WorkerPool` to run on.  The service does
        **not** close a pool it was handed — pass ``None`` (default)
        to own a private pool, or e.g. ``shared_pool(4)`` to join the
        process-wide service.
    chunksize:
        Default frames-per-job for :meth:`map_ordered`; ``None`` sends
        one frame per job (see :data:`FRAMES_PER_JOB`).
    queue_depth, ring_slots, slot_bytes:
        Forwarded to the private :class:`WorkerPool` (ignored with an
        external *pool*).
    """

    def __init__(
        self,
        decoder: "FrameDecoder",
        workers: Optional[int] = None,
        *,
        pool: Optional[WorkerPool] = None,
        chunksize: Optional[int] = None,
        queue_depth: Optional[int] = None,
        ring_slots: Optional[int] = None,
        slot_bytes: Optional[int] = None,
    ):
        self.decoder = decoder
        if pool is not None:
            self._pool = pool
            self._owns_pool = False
        else:
            self._pool = WorkerPool(
                workers,
                queue_depth=queue_depth,
                ring_slots=ring_slots,
                slot_bytes=slot_bytes,
            )
            self._owns_pool = True
        self.chunksize = chunksize

    @classmethod
    def shared(
        cls, decoder: "FrameDecoder", workers: Optional[int] = None
    ) -> "DecodeService":
        """A service view over the process-wide shared pool."""
        return cls(decoder, pool=shared_pool(workers))

    @property
    def pool(self) -> WorkerPool:
        return self._pool

    @property
    def workers(self) -> int:
        """Requested concurrency (the pool may run fewer processes)."""
        return self._pool.requested

    # -- decoding --------------------------------------------------------

    def submit(
        self, frames: Sequence[np.ndarray], *, with_metrics: bool = False
    ) -> "Future[Any]":
        """Queue one batch of frames; resolves to per-frame results.

        Frames are copied into shared-memory slots *before* this call
        returns (blocking for slot/queue capacity — that is the
        back-pressure), so the caller's arrays are free to be reused.
        With ``with_metrics=True`` the future resolves to ``(results,
        per_capture_snapshots)`` instead (see :func:`decode_batch`).
        """
        arrays = [np.asarray(getattr(f, "image", f)) for f in frames]
        return self._pool.submit(
            decode_batch,
            frames=arrays,
            decoder=self.decoder,
            with_metrics=with_metrics,
        )

    def map_ordered(
        self,
        frames: Sequence[Any],
        *,
        chunksize: Optional[int] = None,
        timeout: Optional[float] = None,
    ) -> list[Optional["FrameResult"]]:
        """Decode every capture; results in input order.

        Accepts raw arrays or objects with an ``image`` attribute
        (e.g. :class:`repro.channel.link.Capture`), mirroring
        ``decode_stream``.  Chunks of consecutive frames ship as one
        job each, so ordering — and therefore bit-identity with the
        serial path — is structural, not scheduled.
        """
        images = [np.asarray(getattr(f, "image", f)) for f in frames]
        if not images:
            return []
        if chunksize is None:
            chunksize = self.chunksize or FRAMES_PER_JOB
        chunksize = max(1, int(chunksize))
        registry = telemetry.registry()
        collect = bool(registry)
        if collect:
            from ..core.decoder import _fold_capture_metrics
        futures = [
            self.submit(images[start : start + chunksize], with_metrics=collect)
            for start in range(0, len(images), chunksize)
        ]
        out: list[Optional["FrameResult"]] = []
        for future in futures:
            payload = future.result(timeout)
            if collect:
                results, captures = payload
                # Folding per capture, in submission order, keeps the
                # merged metrics bit-identical to the serial decode.
                for det, timing in captures:
                    _fold_capture_metrics(registry, det, timing)
                out.extend(results)
            else:
                out.extend(payload)
        return out

    def decode_trace(
        self,
        trace: Any,
        *,
        chunksize: Optional[int] = None,
        verify: bool = True,
    ) -> list[Optional["FrameResult"]]:
        """Replay a recorded capture trace on this service's pool.

        *trace* is a trace directory (see :mod:`repro.io.trace`) or an
        open :class:`~repro.io.trace.TraceReader`.  Frames stream from
        the trace straight into shared-memory job batches — the pool's
        back-pressure bounds reader memory — and results come back in
        frame order, bit-identical to the serial replay.
        """
        from ..io.trace import TraceReader

        reader = trace if isinstance(trace, TraceReader) else TraceReader(
            trace, verify=verify
        )
        return self.decoder._decode_trace_pooled(reader, self, chunksize)

    # -- lifecycle -------------------------------------------------------

    def join(self, timeout: Optional[float] = None) -> None:
        """Wait for in-flight work, then :meth:`close`."""
        if self._owns_pool:
            self._pool.join(timeout)
        self.close()

    def close(self) -> None:
        """Release the service; closes the pool only when owned."""
        if self._owns_pool:
            self._pool.close()

    def __enter__(self) -> "DecodeService":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
