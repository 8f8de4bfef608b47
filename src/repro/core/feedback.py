"""Task 4: the abstract Feedback Manager with namespace-move tagging.

§4.4: "Generically, a feedback iteration collects data from all running
simulations, processes it, and reports the analysis. A new abstract
API, the Feedback Manager was developed to allow controlling the
specific details. ... we use an alternate strategy of moving each
processed frame out of the relevant namespace (i.e., moving files to
tar archives or renaming keys in the database). ... this cost scales
only with the number of ongoing simulations, and not with the total
simulation frames ever generated."

Concrete managers (CG→continuum RDF aggregation, AA→CG secondary-
structure voting) live in :mod:`repro.app.feedback`; this module owns
the iteration protocol, the tagging strategy, and the timing records
that feed Figs. 7 and 8.
"""

from __future__ import annotations

import abc
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import trace
from repro.datastore.base import DataStore, StoreUnavailable

__all__ = ["FeedbackReport", "FeedbackManager", "StoreFeedbackMixin"]


@dataclass(frozen=True)
class FeedbackReport:
    """Timing and volume of one feedback iteration (a Fig. 8 point)."""

    time: float  # when the iteration ran (virtual or wall)
    n_items: int  # frames processed
    collect_seconds: float
    process_seconds: float
    tag_seconds: float
    # Non-empty when the store was unreachable and the iteration was
    # skipped; untagged items are simply re-collected next time.
    error: str = ""

    @property
    def total_seconds(self) -> float:
        return self.collect_seconds + self.process_seconds + self.tag_seconds


class FeedbackManager(abc.ABC):
    """The abstract feedback protocol: collect → process → report → tag."""

    def __init__(self) -> None:
        self.reports: List[FeedbackReport] = []
        self.total_items = 0

    # --- the four customization points (§4.4 Task 4) -----------------------

    @abc.abstractmethod
    def collect(self) -> List[Tuple[str, Any]]:
        """Gather unprocessed items as (key, payload) pairs."""

    @abc.abstractmethod
    def process(self, items: Sequence[Tuple[str, Any]]) -> Any:
        """Application-specific analysis of the collected items."""

    @abc.abstractmethod
    def report(self, result: Any) -> None:
        """Deliver the aggregate to its consumer (the coarser model)."""

    @abc.abstractmethod
    def tag(self, keys: Sequence[str]) -> None:
        """Mark items processed by moving them out of the live namespace."""

    # --- the iteration driver --------------------------------------------------

    def run_iteration(self, now: float = 0.0) -> FeedbackReport:
        """One full feedback iteration, with per-phase timing.

        A store outage (:class:`StoreUnavailable`) does not kill the
        workflow loop: the iteration is recorded as skipped (``error``
        set, zero items) and the untagged frames are picked up again
        once the store recovers. Tagging is the last phase precisely so
        that an interrupted iteration re-processes rather than loses
        frames (at-least-once feedback).
        """
        t0 = time.perf_counter()
        with trace.span("feedback.iteration") as sp:
            if sp:
                sp.set(manager=type(self).__name__)
            try:
                with trace.span("feedback.collect"):
                    items = self.collect()
                t1 = time.perf_counter()
                with trace.span("feedback.process"):
                    result = self.process(items) if items else None
                    if result is not None:
                        self.report(result)
                t2 = time.perf_counter()
                with trace.span("feedback.tag"):
                    self.tag([k for k, _ in items])
                t3 = time.perf_counter()
                rep = FeedbackReport(
                    time=now,
                    n_items=len(items),
                    collect_seconds=t1 - t0,
                    process_seconds=t2 - t1,
                    tag_seconds=t3 - t2,
                )
                if sp:
                    sp.set(items=len(items))
            except StoreUnavailable as exc:
                # The outage is an annotated point on the iteration span,
                # so a trace of a fault-injection run shows exactly which
                # iterations the store cost the workflow.
                sp.event("store_unavailable", error=str(exc))
                rep = FeedbackReport(
                    time=now,
                    n_items=0,
                    collect_seconds=time.perf_counter() - t0,
                    process_seconds=0.0,
                    tag_seconds=0.0,
                    error=str(exc),
                )
        self.reports.append(rep)
        self.total_items += rep.n_items
        return rep


class StoreFeedbackMixin:
    """Store-backed collect/tag over a live and a done namespace.

    Works against *any* DataStore backend — the S3 ablation (file-based
    vs Redis-based feedback) is literally this mixin pointed at two
    different stores.
    """

    def __init__(
        self,
        store: DataStore,
        live_prefix: str,
        done_prefix: str,
        fetch_workers: int = 1,
    ) -> None:
        if not live_prefix.endswith("/") or not done_prefix.endswith("/"):
            raise ValueError("prefixes must end with '/'")
        if fetch_workers < 1:
            raise ValueError("fetch_workers must be >= 1")
        self.store = store
        self.live_prefix = live_prefix
        self.done_prefix = done_prefix
        self.fetch_workers = fetch_workers

    def collect(self) -> List[Tuple[str, bytes]]:
        """Scan the live namespace, then read each new item.

        §4.4 Task 4: "New frames can be fetched in parallel (when
        reading from files) or serial (when using a high-throughput
        database)" — ``fetch_workers > 1`` is the parallel path, suited
        to filesystem backends where each read pays real latency. The
        serial path batches through :meth:`DataStore.read_present`,
        which pipelined backends turn into one multi-key round trip per
        shard; either way a key tagged by a concurrent iteration
        between the scan and the read is skipped, not a crash.
        """
        keys = self.store.keys(self.live_prefix)
        if self.fetch_workers == 1 or len(keys) < 2:
            present = self.store.read_present(keys)
            return [(k, present[k]) for k in keys if k in present]
        with ThreadPoolExecutor(max_workers=self.fetch_workers) as pool:
            # trace.wrap carries the collect span into the pool threads,
            # so parallel reads still parent to this iteration's trace.
            payloads = list(pool.map(trace.wrap(self.store.read), keys))
        return list(zip(keys, payloads))

    def tag(self, keys: Sequence[str]) -> None:
        """Move each processed key from the live to the done namespace.

        Cost is proportional to this iteration's item count only — the
        scalability property §4.4 calls out. The moves are one
        :meth:`DataStore.move_many`, which NetKV pipelines as a batch.
        """
        n = len(self.live_prefix)
        self.store.move_many([(key, self.done_prefix + key[n:]) for key in keys])
