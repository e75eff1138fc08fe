"""Telemetry threaded through the whole pipeline.

The tentpole acceptance checks live here: one traced end-to-end
transfer yields a single hierarchical trace covering
encode -> channel -> corners/locators -> sync -> classify -> link;
the golden-corpus fixtures produce the same trace stage set capture
after capture; and campaign metric snapshots merge identically no
matter how the trials were grouped across workers.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro import telemetry
from repro.channel.link import LinkConfig
from repro.core.decoder import DecodeError, FrameDecoder
from repro.core.encoder import FrameCodecConfig
from repro.core.layout import FrameLayout
from repro.io import read_png
from repro.link.session import TransferSession
from repro.telemetry import EventSink, MetricsRegistry, Tracer

CORPUS_DIR = Path(__file__).parent.parent / "fixtures" / "corpus"

#: Span names one fully decoded traced session must contain — the
#: tentpole's stage-coverage contract across all pipeline layers.
PIPELINE_SPANS = {
    "link.transmit",
    "link.round",
    "encode.frame",
    "encode.render",
    "channel.emit",
    "channel.capture",
    "channel.rolling_shutter",
    "channel.project",
    "channel.optics",
    "channel.environment",
    "channel.motion_blur",
    "channel.photometric",
    "channel.sensor",
    "decode.extract",
    "corners",
    "locators",
    "locators.walk",
    "classify",
    "header",
    "tracking",
    "sync.add_capture",
    "sync.finalize",
    "decode.assemble",
}


def _codec() -> FrameCodecConfig:
    layout = FrameLayout(grid_rows=24, grid_cols=44, block_px=8)
    return FrameCodecConfig(layout=layout, display_rate=10)


@pytest.fixture(autouse=True)
def _disabled_default():
    telemetry.configure(False)
    yield
    telemetry.configure(None)


class TestHierarchicalTrace:
    def test_traced_session_covers_every_pipeline_layer(self):
        codec = _codec()
        session = TransferSession(
            codec,
            link_config=LinkConfig(sensor_size=(300, 480)),
            rng=np.random.default_rng(3),
        )
        payload = bytes(range(codec.payload_bytes_per_frame))
        sink = EventSink(meta={"seed": 3})
        with telemetry.scoped(
            tracer=Tracer(), registry=MetricsRegistry(), sink=sink
        ) as ctx:
            recovered, stats = session.transmit(payload, max_rounds=3)

        assert recovered == payload
        missing = PIPELINE_SPANS - ctx.tracer.span_names()
        assert not missing, f"trace lost pipeline stages: {sorted(missing)}"

        # One trace tree: transmit is the root, everything nests below.
        roots = [r.name for r in ctx.tracer.roots]
        assert roots == ["link.transmit"]
        transmit = ctx.tracer.roots[0]
        round_spans = [c for c in transmit.children if c.name == "link.round"]
        assert len(round_spans) == stats.rounds
        capture_spans = ctx.tracer.find("channel.capture")
        assert {c.name for r in round_spans for c in r.children} >= {
            "encode.render", "channel.capture", "decode.extract",
        }
        assert all(
            {c.name for c in span.children}
            >= {"channel.rolling_shutter", "channel.project", "channel.environment"}
            for span in capture_spans
        )
        for environment in ctx.tracer.find("channel.environment"):
            assert [c.name for c in environment.children] == [
                "channel.motion_blur", "channel.photometric", "channel.sensor",
            ]

        # Metrics and events agree with the session accounting.
        counters = ctx.registry.snapshot()["counters"]
        assert counters["channel.captures"] == stats.captures
        assert counters["link.frames_sent"] == stats.frames_sent
        events = [e["event"] for e in sink.buffer]
        assert events[0] == "run"
        assert events.count("round") == stats.rounds
        assert "session_start" in events and "session_end" in events

    def test_failed_capture_records_failure_stage(self):
        decoder = FrameDecoder(_codec())
        noise = np.zeros((300, 480, 3))
        with telemetry.scoped(tracer=Tracer(), registry=MetricsRegistry()) as ctx:
            with pytest.raises(DecodeError):
                decoder.extract(noise)
        (extract,) = ctx.tracer.find("decode.extract")
        assert extract.status == "error"
        families = ctx.registry.counter_family("decode.failures")
        assert sum(families.values()) == 1
        assert all(key.startswith("stage=") for key in families)

    def test_disabled_telemetry_still_fills_stage_ms(self):
        # Backward compatibility for bench E10: diagnostics carry the
        # per-stage breakdown even with no telemetry context at all.
        from repro.core.encoder import FrameEncoder

        codec = _codec()
        image = FrameEncoder(codec).encode_frame(b"x", sequence=1).render()
        extraction = FrameDecoder(codec).extract(image)
        stage_ms = extraction.diagnostics.stage_ms
        assert {"corners", "locators", "classify", "header", "tracking"} <= set(stage_ms)
        assert all(v >= 0.0 for v in stage_ms.values())


class TestGoldenCorpusTrace:
    def test_every_fixture_produces_the_same_stage_set(self):
        """Decoding any successfully-decoding fixture traces the same
        stage sequence — the trace is a stable pipeline contract, not a
        per-image accident."""
        expected = json.loads((CORPUS_DIR / "expected.json").read_text())
        decoder = FrameDecoder(_codec())
        stage_sets = {}
        for name, pin in sorted(expected.items()):
            if not pin["decodes"]:
                continue
            image = read_png(CORPUS_DIR / f"{name}.png").astype(np.float64) / 255.0
            with telemetry.scoped(tracer=Tracer()) as ctx:
                decoder.extract(image)
            names = ctx.tracer.span_names()
            assert {"decode.extract", "corners", "locators", "classify",
                    "header", "tracking"} <= names, name
            stage_sets[name] = frozenset(names)
        assert len(stage_sets) >= 2
        assert len(set(stage_sets.values())) == 1, stage_sets


class TestCampaignMetrics:
    def test_trial_snapshot_matches_drop_reasons(self):
        from repro.bench.faults_campaign import run_fault_trial, summarize

        trial = run_fault_trial("glare", seed=1)
        assert trial.metrics["counters"], "trial collected no metrics"
        (summary,) = summarize([trial])
        # failure_stages ⊇ drop_reasons: the registry additionally sees
        # frame-level assemble failures; capture-level stages must agree.
        capture_level = {
            k: v for k, v in summary.failure_stages.items() if k != "assemble"
        }
        assert capture_level == trial.drop_reasons

        # The snapshot is deterministic: re-running the same trial in
        # the same process reproduces it bit for bit.
        again = run_fault_trial("glare", seed=1)
        assert again.metrics == trial.metrics

    def test_summary_merge_is_grouping_independent(self):
        from repro.bench.faults_campaign import run_fault_trial, summarize
        from repro.telemetry.metrics import merge_snapshots

        trials = [run_fault_trial("capture_drops", seed=s) for s in range(3)]
        (summary,) = summarize(trials)
        serial = merge_snapshots([t.metrics for t in trials])
        split = merge_snapshots(
            [merge_snapshots([trials[0].metrics, trials[1].metrics]), trials[2].metrics]
        )
        assert summary.metrics == serial == split


@pytest.mark.slow
class TestCampaignMetricsAcrossWorkersSlow:
    def test_four_worker_campaign_metrics_bit_identical_to_serial(self):
        from repro.bench.faults_campaign import run_campaign, summarize

        scenarios = ["clean", "glare"]
        serial = summarize(run_campaign(scenarios=scenarios, seeds=4, workers=1))
        quad = summarize(run_campaign(scenarios=scenarios, seeds=4, workers=4))
        assert [s.metrics for s in serial] == [s.metrics for s in quad]
        assert [s.failure_stages for s in serial] == [s.failure_stages for s in quad]
