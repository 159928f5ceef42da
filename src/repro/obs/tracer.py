"""Structured event tracing for the simulation pipeline.

The tracer is the "flight recorder" of the observability layer: components
emit typed event records (access resolved, stage insert/evict, commit
decision with its Eq. 1 cost terms, remap-cache probe, writeback) into
a bounded ring buffer, optionally mirrored to a JSONL sink as they
happen.

Design constraints, in order:

1. **Zero cost when disabled.** Every hook site is guarded by a single
   ``if tracer.enabled:`` test against :data:`NULL_TRACER`, whose
   ``enabled`` is ``False``; the ``emit`` call is never reached on the
   hot path of an untraced run.
2. **Bounded memory.** The ring buffer (``collections.deque`` with
   ``maxlen``) silently drops the oldest events; ``emitted`` vs
   ``len(tracer)`` tells you how much history survived. Attach a
   ``sink`` for a complete stream.
3. **Plain dict events.** An event is ``{"seq": int, "type": str,
   ...fields}`` — trivially JSON-serializable and cheap to build.

The known event types and their fields are documented in
:data:`EVENT_SCHEMA`; emitting an unknown type is allowed (the schema is
documentation and validation support, not a straitjacket).
"""

from __future__ import annotations

import json
from collections import Counter, deque
from typing import Any, Dict, Iterable, Iterator, List, Optional, TextIO

#: Event types emitted by the built-in hook points, with their fields.
#: Every event also carries ``seq`` (global emission number, 1-based)
#: and ``type``.
EVENT_SCHEMA: Dict[str, tuple] = {
    # One memory-level access fully resolved by a controller.
    "access": ("t", "addr", "block", "case", "write", "latency", "fast", "overflow"),
    # A range slot entered the stage area.
    "stage_insert": ("set", "way", "blk_off", "sub_start", "cf", "dirty", "zero"),
    # A stage tag entry was dropped (commit or eviction emptied it).
    "stage_evict": ("set", "way", "tag", "occupied"),
    # Eq. 1 evaluated for a block-level replacement victim.
    "commit_decision": (
        "commit", "benefit", "stability", "dirty",
        "mru_miss_cnt", "victim_miss_cnt", "dirty_stage", "dirty_area",
    ),
    # Remap-cache probe (super-block line granularity).
    "remap_cache": ("super", "hit"),
    # Dirty data moved back toward slow memory.
    "writeback": ("block", "bytes", "kind"),
    # A fault-injection draw fired (see repro.resilience.faults).
    "fault": ("site", "kind"),
    # A recovery action ran (retry, repair, quarantine, degraded serve);
    # events may carry extra context fields beyond these.
    "recovery": ("action", "site", "attempt"),
}


class NullTracer:
    """The disabled tracer: ``enabled`` is False and every call no-ops.

    Hook sites test ``tracer.enabled`` before building event fields, so a
    :class:`NullTracer` never costs more than one attribute load and a
    branch per hook.
    """

    enabled = False

    def emit(self, etype: str, **fields: Any) -> None:  # pragma: no cover
        pass

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass

    def __len__(self) -> int:
        return 0


#: Shared no-op tracer; components default their ``obs`` attribute to it.
NULL_TRACER = NullTracer()


class EventTracer:
    """Ring-buffered, optionally sampled, JSONL-capable event recorder.

    ``capacity``
        Ring-buffer size in events; the oldest events are dropped first.
    ``sample_every``
        Keep one event in every ``sample_every`` emissions (global
        counter). ``1`` keeps everything — required when the stream must
        reconstruct exact counter totals.
    ``sink``
        Optional text file object; sampled events are written to it as
        JSON lines immediately (in addition to the ring buffer).
    """

    enabled = True

    def __init__(
        self,
        capacity: int = 65536,
        sample_every: int = 1,
        sink: Optional[TextIO] = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError("tracer capacity must be positive")
        if sample_every <= 0:
            raise ValueError("sample_every must be positive")
        self.capacity = capacity
        self.sample_every = sample_every
        self.ring: "deque[Dict[str, Any]]" = deque(maxlen=capacity)
        self.emitted = 0
        self.sampled = 0
        self._sink = sink

    # -- emission -----------------------------------------------------------
    def emit(self, etype: str, **fields: Any) -> None:
        """Record one event; sampling and ring bounds applied here."""
        self.emitted += 1
        if self.sample_every > 1 and self.emitted % self.sample_every:
            return
        self.sampled += 1
        event: Dict[str, Any] = {"seq": self.emitted, "type": etype}
        event.update(fields)
        self.ring.append(event)
        if self._sink is not None:
            self._sink.write(json.dumps(event, separators=(",", ":")) + "\n")

    def flush(self) -> None:
        """Push buffered sink writes to the OS without detaching.

        :meth:`SystemSimulator._finalize <repro.sim.system.SystemSimulator>`
        calls this at the end of every run, so a short traced run whose
        caller never reaches :meth:`close` still has its tail events on
        disk deterministically.
        """
        if self._sink is not None:
            self._sink.flush()

    def close(self) -> None:
        """Flush and detach the sink (the caller owns closing the file).

        Idempotent: closing an already-closed tracer is a no-op.
        """
        if self._sink is not None:
            self._sink.flush()
            self._sink = None

    def clear(self) -> None:
        self.ring.clear()
        self.emitted = 0
        self.sampled = 0

    # -- inspection ---------------------------------------------------------
    def __len__(self) -> int:
        return len(self.ring)

    @property
    def dropped(self) -> int:
        """Sampled events that fell off the ring buffer."""
        return self.sampled - len(self.ring)

    def events(self, etype: Optional[str] = None) -> Iterator[Dict[str, Any]]:
        """Iterate buffered events, optionally filtered by type."""
        if etype is None:
            return iter(self.ring)
        return (e for e in self.ring if e["type"] == etype)

    def counts_by_type(self) -> Dict[str, int]:
        return dict(Counter(e["type"] for e in self.ring))

    def case_breakdown(self) -> Dict[str, int]:
        """Fig. 3-style access-case counts reconstructed from the stream."""
        return case_breakdown(self.ring)

    # -- persistence --------------------------------------------------------
    def dump_jsonl(self, path: str) -> int:
        """Write the buffered events to ``path`` as JSONL; returns count."""
        with open(path, "w", encoding="utf-8") as fh:
            for event in self.ring:
                fh.write(json.dumps(event, separators=(",", ":")) + "\n")
        return len(self.ring)


def load_jsonl(path: str) -> List[Dict[str, Any]]:
    """Read a JSONL trace back into a list of event dicts.

    A truncated or otherwise malformed line raises
    :class:`~repro.common.errors.ConfigurationError` naming the line, so
    a half-written trace (e.g. from a crashed run) fails loudly instead
    of silently yielding a partial event list.
    """
    from repro.common.errors import ConfigurationError

    events: List[Dict[str, Any]] = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    event = json.loads(line)
                except json.JSONDecodeError as err:
                    raise ConfigurationError(
                        f"trace file {path!r} is corrupt at line {lineno}: {err}"
                    ) from err
                if not isinstance(event, dict):
                    raise ConfigurationError(
                        f"trace file {path!r} line {lineno} is not an event "
                        f"object (got {type(event).__name__})"
                    )
                events.append(event)
    except OSError as err:
        raise ConfigurationError(f"cannot read trace file {path!r}: {err}") from err
    return events


def case_breakdown(events: Iterable[Dict[str, Any]]) -> Dict[str, int]:
    """Access-case counts from any event iterable (stream or ring)."""
    return dict(
        Counter(e["case"] for e in events if e.get("type") == "access")
    )
