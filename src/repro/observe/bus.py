"""The bounded trace bus: where every layer reports what it did.

One :class:`TraceBus` per writer (a campaign, or an audit run).
Emitting is cheap and bounded:

* a disabled bus (no trace directory configured) rejects events on the
  first branch — the campaign pays one attribute load and a compare;
* ``exec`` events — the high-rate kind — are *sampled* 1-in-N
  (``--trace-sample``), everything else is always kept;
* kept events buffer in a bounded ring (:class:`collections.deque` with
  ``maxlen``); if the writer cannot drain fast enough the *oldest*
  buffered events are dropped and counted, never blocking the campaign;
* the ring drains to the JSONL sink every ``flush_every`` events and on
  :meth:`close`.

The bus never touches campaign state and draws no campaign randomness
(sampling is a modulo counter), so tracing on vs off cannot perturb a
seeded campaign — the determinism contract the test suite enforces.

The sequence counter and sampling phase are checkpointable
(:meth:`getstate` / :meth:`setstate`): a campaign resumed from its
checkpoint replays the interrupted tail with identical ``seq`` labels,
which is what lets the shard merge deduplicate the replay.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

from repro.observe.events import TraceEvent
from repro.observe.sink import JsonlTraceSink

DEFAULT_RING = 4096
DEFAULT_FLUSH_EVERY = 256


class TraceBus:
    """Bounded, sampled event buffer draining to a JSONL sink."""

    def __init__(
        self,
        sink: Optional[JsonlTraceSink] = None,
        sink_factory: Optional[Callable[[], JsonlTraceSink]] = None,
        sample: int = 1,
        ring: int = DEFAULT_RING,
        flush_every: int = DEFAULT_FLUSH_EVERY,
    ) -> None:
        if sample < 1:
            raise ValueError(f"trace sample must be >= 1, got {sample}")
        self._sink = sink
        #: Lazy sink construction: the trace directory is only created
        #: once the first batch drains.
        self._sink_factory = sink_factory
        self.sample = sample
        self.flush_every = max(1, flush_every)
        self.enabled = sink is not None or sink_factory is not None
        self._ring: deque = deque(maxlen=max(1, ring))
        self._seq = 0
        self._exec_count = 0
        self.dropped = 0  #: ring overflows (oldest event evicted)
        self.sampled_out = 0  #: exec events skipped by the sampling knob

    # ------------------------------------------------------------------
    def emit(self, kind: str, vtime: float, **payload) -> None:
        """Record one event (or cheaply do nothing when disabled)."""
        if not self.enabled:
            return
        if kind == "exec":
            self._exec_count += 1
            if (self._exec_count - 1) % self.sample:
                self.sampled_out += 1
                return
        if len(self._ring) == self._ring.maxlen:
            self.dropped += 1
        self._ring.append(TraceEvent(kind=kind, vtime=vtime, seq=self._seq,
                                     payload=payload))
        self._seq += 1
        if len(self._ring) >= min(self.flush_every, self._ring.maxlen):
            self.flush()

    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Drain the ring to the sink (constructing it lazily)."""
        if not self._ring:
            return
        sink = self._resolve_sink()
        if sink is None:
            return
        events = list(self._ring)
        self._ring.clear()
        sink.write_events(events)

    def close(self) -> None:
        self.flush()

    def _resolve_sink(self) -> Optional[JsonlTraceSink]:
        if self._sink is None and self._sink_factory is not None:
            self._sink = self._sink_factory()
            self._sink_factory = None
        return self._sink

    # ------------------------------------------------------------------
    # Checkpoint support (replay-identical sequence labels)
    # ------------------------------------------------------------------
    def getstate(self):
        return (self._seq, self._exec_count)

    def setstate(self, state) -> None:
        self._seq, self._exec_count = state


#: A shared inert bus for layers constructed without tracing.  Emitting
#: on it is a no-op; it is never enabled and holds no buffer.
NULL_BUS = TraceBus()
