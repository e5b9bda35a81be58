"""Per-record event lineage and SWM-forecast accuracy audit.

Klink's claim is that progress-aware scheduling removes *queueing* delay
ahead of window deadlines. The aggregate metrics (latency CDFs, per-operator
profiles) show that it happens; this module shows *where*: a
:class:`LineageTracker` follows a deterministic sample of records from
source generation to sink delivery, recording a contiguous span chain on
the virtual clock —

``network`` (generation → ingestion) → per-hop ``emit`` (cross-node channel
transfer) and ``queue`` (channel wait) → ``execute`` (operator processing;
zero-width by construction, because execution within a scheduling cycle is
instantaneous on the virtual clock) → ``window`` (residency in pane state
until the pane fires) → … → sink delivery.

Because consecutive spans share their boundary timestamps exactly, the
five waterfall components sum to the record's end-to-end latency *exactly*
whenever the virtual-clock arithmetic is closed (integer-valued cycle,
generation, and window grids — true for every pinned benchmark config).

Sampling is hash-based and seeded (:func:`repro.spe.events.record_identity`
hashed with a keyed blake2b): the same records are traced across reruns
and across ``jobs=N`` worker processes, and no RNG stream is consumed, so
enabling tracing leaves run summaries, scheduler decisions, and checkpoint
fingerprints byte-identical to an untraced run.

The companion :class:`SwmForecastAudit` hooks into every Klink slack
evaluation: each call of the SWM-ingestion estimator logs its predicted
arrival (and a naive last-period baseline) against the deadline it covers;
when the sweeping watermark actually arrives, the logged predictions
resolve into signed errors, aggregated into calibration statistics
(mean/percentile error, over-/under-prediction episodes) for the report.

In-flight lineage state of sampled rows survives checkpoint/restore via
the ``capture_lineage`` / ``restore_lineage`` codec pair in
:mod:`repro.resilience.checkpoint` (statecheck entry ``lineage``).
"""

from __future__ import annotations

from collections import deque
from hashlib import blake2b
from typing import TYPE_CHECKING, Any, Deque, Dict, List, Optional, Tuple

from repro.spe.events import EventBatch, record_identity
from repro.spe.metrics import percentile
from repro.spe.operators import (
    CountWindowedAggregate,
    Operator,
    SinkOperator,
    _WindowedOperatorBase,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.estimator import SwmEstimate
    from repro.spe.engine import Engine
    from repro.spe.query import Query, SourceBinding
    from repro.spe.streams import Channel

#: waterfall component kinds, in decomposition order
SPAN_KINDS: Tuple[str, ...] = ("network", "queue", "execute", "window", "emit")

#: terminal statuses a sampled record can end in
RECORD_STATUSES: Tuple[str, ...] = (
    "delivered",
    "dropped-late",
    "filtered",
    "window-no-output",
    "count-window",
    "no-downstream",
    "in-flight",
)

_TWO_POW_64 = 1 << 64


class _Record:
    """In-flight lineage state of one sampled record."""

    __slots__ = ("rid", "query_id", "source_id", "t_end", "absorbed_at", "spans")

    def __init__(
        self,
        rid: str,
        query_id: str,
        source_id: int,
        t_end: float,
    ) -> None:
        self.rid = rid
        self.query_id = query_id
        self.source_id = source_id
        self.t_end = t_end
        self.absorbed_at = 0.0  # window-absorption time while parked on a pane
        # (kind, operator name or None, start, end) — contiguous chain
        self.spans: List[Tuple[str, Optional[str], float, float]] = []

    def encode(self) -> Dict[str, Any]:
        return {
            "rid": self.rid,
            "query_id": self.query_id,
            "source_id": self.source_id,
            "t_end": self.t_end,
            "absorbed_at": self.absorbed_at,
            "spans": [list(span) for span in self.spans],
        }

    @classmethod
    def decode(cls, state: Dict[str, Any]) -> "_Record":
        rec = cls(
            str(state["rid"]),
            str(state["query_id"]),
            int(state["source_id"]),
            float(state["t_end"]),
        )
        rec.absorbed_at = float(state["absorbed_at"])
        rec.spans = [
            (
                str(kind),
                None if op is None else str(op),
                float(start),
                float(end),
            )
            for kind, op, start, end in state["spans"]
        ]
        return rec


class _OpInfo:
    """Static per-operator wiring the tracker resolves once at attach."""

    __slots__ = ("query_id", "name", "downstream", "is_sink", "assigner", "is_count")

    def __init__(
        self,
        query_id: str,
        name: str,
        downstream: Optional[str],
        is_sink: bool,
        assigner: Any,
        is_count: bool,
    ) -> None:
        self.query_id = query_id
        self.name = name
        self.downstream = downstream
        self.is_sink = is_sink
        self.assigner = assigner  # WindowAssigner for event-time windowed ops
        self.is_count = is_count


class SwmForecastAudit:
    """Predicted-vs-actual next-SWM arrival calibration (per source).

    Klink's scheduler calls :meth:`on_prediction` on every slack
    evaluation (pure logging — the scheduler's arithmetic and decisions
    are untouched); the engine calls :meth:`on_actual` when a sweeping
    watermark is ingested. Each pending deadline then resolves every
    logged evaluation into a signed arrival error
    ``predicted_mean - actual_ingest_time`` (positive = over-prediction:
    the estimator expected the SWM later than it came), plus the same
    error for a naive last-period baseline
    (``last SWM ingestion + watermark period``).
    """

    def __init__(self) -> None:
        self.evaluations = 0
        #: (query_id, source_id) -> static source metadata
        self._sources: Dict[Tuple[str, int], Dict[str, Any]] = {}
        #: (query_id, source_id) -> deadline -> [(predicted_mean, naive)]
        self._pending: Dict[
            Tuple[str, int], Dict[float, List[Tuple[float, Optional[float]]]]
        ] = {}
        #: (query_id, source_id) -> all resolved per-evaluation errors
        self._errors: Dict[Tuple[str, int], List[float]] = {}
        self._naive_errors: Dict[Tuple[str, int], List[float]] = {}
        #: (query_id, source_id) -> [(deadline, last-evaluation error)]
        self._deadline_errors: Dict[Tuple[str, int], List[Tuple[float, float]]] = {}

    # -- wiring --------------------------------------------------------------

    def register_source(
        self,
        query_id: str,
        source_id: int,
        watermark_period_ms: float,
        delay_model: Dict[str, Any],
    ) -> None:
        self._sources[(query_id, source_id)] = {
            "watermark_period_ms": watermark_period_ms,
            "delay_model": delay_model,
        }

    # -- hooks ---------------------------------------------------------------

    def on_prediction(
        self,
        query_id: str,
        source_id: int,
        estimate: "SwmEstimate",
        binding: "SourceBinding",
        now: float,
    ) -> None:
        """Log one slack evaluation's prediction for its deadline."""
        progress = binding.progress
        naive: Optional[float] = None
        if progress is not None and progress.last_swm_ingest_time is not None:
            naive = (
                progress.last_swm_ingest_time + binding.spec.watermark_period_ms
            )
        key = (query_id, source_id)
        self._pending.setdefault(key, {}).setdefault(
            estimate.deadline, []
        ).append((estimate.mean, naive))
        self.evaluations += 1

    def on_actual(
        self, query_id: str, source_id: int, wm_timestamp: float, now: float
    ) -> None:
        """Resolve pending deadlines swept by an ingested SWM at ``now``."""
        key = (query_id, source_id)
        pending = self._pending.get(key)
        if not pending:
            return
        swept = sorted(d for d in pending if d <= wm_timestamp)
        if not swept:
            return
        errors = self._errors.setdefault(key, [])
        naive_errors = self._naive_errors.setdefault(key, [])
        per_deadline = self._deadline_errors.setdefault(key, [])
        for deadline in swept:
            evaluations = pending.pop(deadline)
            last_error = 0.0
            for predicted, naive in evaluations:
                last_error = predicted - now
                errors.append(last_error)
                if naive is not None:
                    naive_errors.append(naive - now)
            per_deadline.append((deadline, last_error))

    # -- output --------------------------------------------------------------

    @staticmethod
    def _episodes(signed: List[float]) -> Tuple[int, int]:
        """(over, under) maximal runs of same-signed consecutive errors."""
        over = under = 0
        current = 0
        for err in signed:
            sign = 1 if err > 0 else (-1 if err < 0 else 0)
            if sign != current:
                if sign > 0:
                    over += 1
                elif sign < 0:
                    under += 1
                current = sign
        return over, under

    def rows(self) -> List[Dict[str, Any]]:
        """One ``swm_forecast`` trace record per audited source."""
        rows: List[Dict[str, Any]] = []
        keys = sorted(set(self._errors) | set(self._pending) | set(self._sources))
        for key in keys:
            errors = self._errors.get(key, [])
            if not errors and not self._pending.get(key):
                continue
            naive = self._naive_errors.get(key, [])
            abs_errors = [abs(e) for e in errors]
            by_deadline = self._deadline_errors.get(key, [])
            over, under = self._episodes([e for _, e in by_deadline])
            meta = self._sources.get(key, {})
            rows.append(
                {
                    "type": "swm_forecast",
                    "query_id": key[0],
                    "source_id": key[1],
                    "evaluations": len(errors),
                    "deadlines_resolved": len(by_deadline),
                    "deadlines_unresolved": len(self._pending.get(key, {})),
                    "mean_error_ms": (
                        sum(errors) / len(errors) if errors else None
                    ),
                    "mean_abs_error_ms": (
                        sum(abs_errors) / len(abs_errors) if abs_errors else None
                    ),
                    "p50_abs_error_ms": (
                        percentile(abs_errors, 50) if abs_errors else None
                    ),
                    "p90_abs_error_ms": (
                        percentile(abs_errors, 90) if abs_errors else None
                    ),
                    "p99_abs_error_ms": (
                        percentile(abs_errors, 99) if abs_errors else None
                    ),
                    "over_predictions": sum(1 for e in errors if e > 0),
                    "under_predictions": sum(1 for e in errors if e < 0),
                    "over_episodes": over,
                    "under_episodes": under,
                    "naive_evaluations": len(naive),
                    "naive_mean_abs_error_ms": (
                        sum(abs(e) for e in naive) / len(naive) if naive else None
                    ),
                    "watermark_period_ms": meta.get("watermark_period_ms"),
                    "delay_model": meta.get("delay_model"),
                }
            )
        return rows

    # -- checkpoint codec support (driven by capture/restore_lineage) ---------

    def encode(self) -> Dict[str, Any]:
        return {
            "evaluations": self.evaluations,
            "pending": [
                [qid, sid, [[d, [list(e) for e in evs]] for d, evs in sorted(by_d.items())]]
                for (qid, sid), by_d in self._pending.items()
            ],
            "errors": [
                [qid, sid, list(errs)] for (qid, sid), errs in self._errors.items()
            ],
            "naive_errors": [
                [qid, sid, list(errs)]
                for (qid, sid), errs in self._naive_errors.items()
            ],
            "deadline_errors": [
                [qid, sid, [list(item) for item in rows]]
                for (qid, sid), rows in self._deadline_errors.items()
            ],
        }

    def restore(self, state: Dict[str, Any]) -> None:
        self.evaluations = int(state["evaluations"])
        self._pending = {
            (str(qid), int(sid)): {
                float(d): [(float(m), None if n is None else float(n)) for m, n in evs]
                for d, evs in by_d
            }
            for qid, sid, by_d in state["pending"]
        }
        self._errors = {
            (str(qid), int(sid)): [float(e) for e in errs]
            for qid, sid, errs in state["errors"]
        }
        self._naive_errors = {
            (str(qid), int(sid)): [float(e) for e in errs]
            for qid, sid, errs in state["naive_errors"]
        }
        self._deadline_errors = {
            (str(qid), int(sid)): [(float(d), float(e)) for d, e in rows]
            for qid, sid, rows in state["deadline_errors"]
        }


class LineageTracker:
    """Deterministic sampled per-record causal tracing.

    Wire one tracker per engine via ``Engine(..., lineage=tracker)``; the
    engine attaches it to every operator. All hooks are observers: they
    read simulation state but never mutate it, consume no randomness, and
    perform no float arithmetic the simulation could observe — the
    byte-identity contract of PR 8 is preserved by construction (a
    dedicated test compares summaries, decisions, and checkpoint bytes
    with tracing on and off).
    """

    def __init__(self, sample_rate: float, seed: int = 0) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(f"sample rate must be in [0, 1]: {sample_rate}")
        self.sample_rate = float(sample_rate)
        self.seed = int(seed)
        # Keyed hash threshold: a record is sampled iff the 64-bit keyed
        # blake2b of its identity falls below rate * 2^64.
        self._threshold = int(round(self.sample_rate * _TWO_POW_64))
        self._key = seed.to_bytes(8, "little", signed=True)
        #: id(operator) -> static wiring info, built by attach()
        self._ops: Dict[int, _OpInfo] = {}
        #: (query_id, operator name, flowing t_end) -> FIFO of rider groups
        self._inflight: Dict[Tuple[str, str, float], Deque[List[_Record]]] = {}
        #: (query_id, operator name, pane end) -> records parked in the pane
        self._window_wait: Dict[Tuple[str, str, float], List[_Record]] = {}
        self._completed: List[Dict[str, Any]] = []
        self.rows_sampled = 0
        self.spans_recorded = 0
        self.forecast = SwmForecastAudit()

    # -- wiring --------------------------------------------------------------

    def attach(self, engine: "Engine") -> None:
        """Resolve operator wiring and install hook pointers."""
        for query in engine.queries:
            for op in query.operators:
                downstream: Optional[str] = None
                if op.output is not None and op.output._owner is not None:
                    downstream = op.output._owner.name
                assigner = None
                if isinstance(op, _WindowedOperatorBase):
                    assigner = op.assigner
                self._ops[id(op)] = _OpInfo(  # klink: transient[build-time wiring, fixed for the life of the topology]
                    query.query_id,
                    op.name,
                    downstream,
                    isinstance(op, SinkOperator),
                    assigner,
                    isinstance(op, CountWindowedAggregate),
                )
                op.lineage = self
            for binding in query.bindings:
                self.forecast.register_source(
                    query.query_id,
                    binding.source_id,
                    binding.spec.watermark_period_ms,
                    binding.spec.delay_model.describe(),
                )

    # -- sampling ------------------------------------------------------------

    def sampled(self, query_id: str, source_id: int, t_end: float) -> bool:
        """Deterministic keyed-hash sampling decision for one record."""
        if self._threshold <= 0:
            return False
        digest = blake2b(
            record_identity(query_id, source_id, t_end),
            digest_size=8,
            key=self._key,
        ).digest()
        return int.from_bytes(digest, "big") < self._threshold

    # -- engine hooks ----------------------------------------------------------

    def on_ingested(
        self,
        query: "Query",
        binding: "SourceBinding",
        batch: EventBatch,
        now: float,
    ) -> None:
        """A generated payload batch entered its source channel at ``now``."""
        t_end = batch.t_end
        query_id = query.query_id
        if not self.sampled(query_id, binding.source_id, t_end):
            return
        rid = f"{query_id}:{binding.source_id}:{t_end!r}"
        rec = _Record(rid, query_id, binding.source_id, t_end)
        # Generation happens at t_end (the batch's final event is created
        # the instant the batch closes and enters the network).
        rec.spans.append(("network", None, t_end, now))
        self.rows_sampled += 1
        owner = binding.channel._owner
        first_op = owner.name if owner is not None else binding.operator.name
        key = (query_id, first_op, t_end)
        self._inflight.setdefault(key, deque()).append([rec])

    def on_swm_ingested(
        self, query_id: str, source_id: int, wm_timestamp: float, now: float
    ) -> None:
        """A sweeping watermark was ingested (forecast-audit actual)."""
        self.forecast.on_actual(query_id, source_id, wm_timestamp, now)

    # -- operator hooks --------------------------------------------------------

    def on_consumed(
        self,
        op: Operator,
        t_start: float,
        t_end: float,
        enqueued_at: float,
        channel: "Channel",
        now: float,
    ) -> None:
        """``op`` fully consumed a queued batch ``[t_start, t_end)``."""
        info = self._ops.get(id(op))
        if info is None:
            return
        key = (info.query_id, info.name, t_end)
        groups = self._inflight.get(key)
        if not groups:
            return
        group = groups.popleft()
        if not groups:
            del self._inflight[key]
        transfer = channel.transfer_interval(enqueued_at)
        name = info.name
        for rec in group:
            if transfer is not None:
                rec.spans.append(("emit", name, transfer[0], transfer[1]))
            rec.spans.append(("queue", name, enqueued_at, now))
            rec.spans.append(("execute", name, now, now))
        if info.is_sink:
            for rec in group:
                self._finish(rec, "delivered", now)
            return
        if info.is_count:
            # Count windows close by arrival order; whether this record's
            # events sit in the fired or the accumulating window is not
            # defined, so the chain ends at absorption.
            for rec in group:
                self._finish(rec, "count-window", now)
            return
        if info.assigner is not None:
            clock = op._input_watermarks[channel._consumer_index]  # type: ignore[attr-defined]
            if t_end <= clock:
                for rec in group:
                    self._finish(rec, "dropped-late", now)
                return
            pane = info.assigner.final_event_pane(t_start, t_end)
            if pane is None:
                for rec in group:
                    self._finish(rec, "count-window", now)
                return
            for rec in group:
                rec.absorbed_at = now
            wait_key = (info.query_id, info.name, pane[1])
            self._window_wait.setdefault(wait_key, []).extend(group)
            return
        if op.selectivity <= 0.0:
            for rec in group:
                self._finish(rec, "filtered", now)
            return
        downstream = info.downstream
        if downstream is None:
            for rec in group:
                self._finish(rec, "no-downstream", now)
            return
        self._inflight.setdefault(
            (info.query_id, downstream, t_end), deque()
        ).append(group)

    def on_pane_fire(
        self, op: Operator, pane_end: float, out_count: float, now: float
    ) -> None:
        """A window pane ``[.., pane_end)`` of ``op`` fired at ``now``."""
        info = self._ops.get(id(op))
        if info is None:
            return
        waiting = self._window_wait.pop((info.query_id, info.name, pane_end), None)
        if not waiting:
            return
        name = info.name
        for rec in waiting:
            rec.spans.append(("window", name, rec.absorbed_at, now))
        if out_count <= 0:
            for rec in waiting:
                self._finish(rec, "window-no-output", now)
            return
        downstream = info.downstream
        if downstream is None:
            for rec in waiting:
                self._finish(rec, "no-downstream", now)
            return
        # Every parked record now rides the single pane-output batch,
        # whose event-time boundary is the pane end.
        self._inflight.setdefault(
            (info.query_id, downstream, pane_end), deque()
        ).append(waiting)

    # -- completion ------------------------------------------------------------

    def _finish(self, rec: _Record, status: str, now: float) -> None:
        components = {kind: 0.0 for kind in SPAN_KINDS}
        for kind, _, start, end in rec.spans:
            components[kind] += end - start
        self._completed.append(
            {
                "type": "lineage",
                "rid": rec.rid,
                "query_id": rec.query_id,
                "source_id": rec.source_id,
                "t_end": rec.t_end,
                "status": status,
                "completed_at": now,
                "end_to_end_ms": now - rec.t_end,
                "components": components,
                "spans": [
                    {"kind": kind, "op": op, "start": start, "end": end}
                    for kind, op, start, end in rec.spans
                ],
            }
        )
        self.spans_recorded += len(rec.spans)

    def finalize(self, now: float) -> None:
        """Close records still in flight at end-of-run."""
        for key in list(self._window_wait):
            records = self._window_wait.pop(key)
            for rec in records:
                rec.spans.append(("window", key[1], rec.absorbed_at, now))
                self._finish(rec, "in-flight", now)
        for key in list(self._inflight):
            for group in self._inflight.pop(key):
                for rec in group:
                    self._finish(rec, "in-flight", now)

    # -- output ----------------------------------------------------------------

    def lineage_rows(self) -> List[Dict[str, Any]]:
        """Completed ``lineage`` trace records, in completion order."""
        return list(self._completed)

    def swm_forecast_rows(self) -> List[Dict[str, Any]]:
        return self.forecast.rows()

    def summary_row(self) -> Dict[str, Any]:
        """The ``lineage_summary`` trace record (self-overhead accounting).

        ``trace_bytes`` is filled by the trace writer with the bytes of
        lineage-attributable records it wrote (0 until then).
        """
        statuses = {status: 0 for status in RECORD_STATUSES}
        for row in self._completed:
            statuses[str(row["status"])] = statuses.get(str(row["status"]), 0) + 1
        return {
            "type": "lineage_summary",
            "sample_rate": self.sample_rate,
            "seed": self.seed,
            "rows_sampled": self.rows_sampled,
            "span_records": self.spans_recorded,
            "statuses": statuses,
            "forecast_evaluations": self.forecast.evaluations,
            "trace_bytes": 0,
        }


def waterfall(rows: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Aggregate lineage records into the latency-waterfall report section.

    Only delivered records decompose end-to-end latency exactly; the
    section reports their mean per-component milliseconds and percentage
    shares, overall and per query.
    """

    def aggregate(subset: List[Dict[str, Any]]) -> Dict[str, Any]:
        n = len(subset)
        sums = {kind: 0.0 for kind in SPAN_KINDS}
        total = 0.0
        for row in subset:
            components = row["components"]
            for kind in SPAN_KINDS:
                sums[kind] += float(components[kind])
            total += float(row["end_to_end_ms"])
        means = {kind: (sums[kind] / n if n else 0.0) for kind in SPAN_KINDS}
        shares = {
            kind: (100.0 * sums[kind] / total if total > 0 else 0.0)
            for kind in SPAN_KINDS
        }
        return {
            "records": n,
            "mean_end_to_end_ms": (total / n if n else 0.0),
            "components_ms": means,
            "shares_pct": shares,
        }

    delivered = [row for row in rows if row["status"] == "delivered"]
    by_query: Dict[str, List[Dict[str, Any]]] = {}
    for row in delivered:
        by_query.setdefault(str(row["query_id"]), []).append(row)
    return {
        "sampled": len(rows),
        "delivered": len(delivered),
        "overall": aggregate(delivered),
        "by_query": [
            {"query_id": qid, **aggregate(subset)}
            for qid, subset in sorted(by_query.items())
        ],
    }
