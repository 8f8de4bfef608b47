"""The invariant catalog: what must stay true, no matter the faults.

Each checker inspects live campaign state and returns
:class:`Violation` rows (empty = healthy). The catalog encodes the
paper's coordination guarantees:

- ``counter_conservation`` — the WM pipeline neither invents nor loses
  work: every patch created is selected, queued, dropped, deduplicated,
  or pruned (same for CG frames). A miscounted pipeline is how stranded
  work hides for weeks at scale.
- ``acked_write_lost`` / ``stale_read`` — a write the store
  acknowledged must stay readable at its acked value across failovers;
  losing one silently corrupts the feedback loops.
- ``tombstone_resurrection`` — a delete the store acknowledged must not
  come back when a dead replica rejoins with its stale copy.
- ``durability_after_crash`` — every shard's memory must equal a replay
  of its WAL, so a crash-restart recovers exactly what the shard
  served; ack-after-write is the contract the persistent NetKV shards
  make.
- ``jobs_terminal`` — every job the WM launched ends COMPLETED, FAILED
  (retried/abandoned), or CANCELLED; a job in limbo means the tracker
  leaks resources forever.
- ``selector_equivalence`` — checkpoint + restore reproduces the
  selectors *exactly* (candidates, histograms, rng state), so a
  restarted campaign selects the same configurations the dead one
  would have.
- ``trace_tree`` — the exported span tree is well-formed: no orphan
  parents, no dropped spans, monotone sequence numbers, t1 >= t0. The
  observability layer is only trustworthy if chaos cannot corrupt it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.sampling.persistence import binned_state, fps_state

__all__ = ["Violation", "InvariantSuite", "selector_equivalence"]

# Terminal job states by name (avoids importing JobState at check time).
_TERMINAL = {"COMPLETED", "FAILED", "CANCELLED"}


@dataclass(frozen=True)
class Violation:
    """One invariant breach, attributed to a campaign round."""

    invariant: str
    round: int
    detail: str

    def to_json(self) -> Dict[str, object]:
        return {"invariant": self.invariant, "round": self.round,
                "detail": self.detail}

    @classmethod
    def from_json(cls, row: Dict[str, object]) -> "Violation":
        return cls(invariant=str(row["invariant"]), round=int(row["round"]),
                   detail=str(row["detail"]))


def selector_equivalence(old_wm, new_wm, round_no: int) -> List[Violation]:
    """Compare selector state across a checkpoint/restore handover.

    The persistence layer's own state dicts are the comparison basis:
    they capture candidates (ids + coords, in order), per-queue
    drop/duplicate counters, the binned histogram, and the binned
    sampler's rng state — so equality here means the restored WM will
    produce the *same id sequence* the old one would have.
    """
    out: List[Violation] = []
    if fps_state(old_wm.patch_selector) != fps_state(new_wm.patch_selector):
        out.append(Violation(
            "selector_equivalence", round_no,
            "patch selector state diverged across checkpoint/restore"))
    if binned_state(old_wm.frame_selector) != binned_state(new_wm.frame_selector):
        out.append(Violation(
            "selector_equivalence", round_no,
            "frame selector state diverged across checkpoint/restore"))
    return out


class InvariantSuite:
    """Runs the catalog after every round and once more at campaign end."""

    def check_round(self, campaign, round_no: int) -> List[Violation]:
        out: List[Violation] = []
        out += self._counter_conservation(campaign.wm, round_no)
        out += self._acked_state(campaign.store, round_no, strict=False)
        out += self._durability(campaign.store, round_no)
        out += self._trace_tree(campaign.tracer, round_no)
        return out

    def check_final(self, campaign, round_no: int) -> List[Violation]:
        """End-of-campaign pass: the store has been healed and the
        adapter drained, so nothing is excusably unverifiable."""
        out: List[Violation] = []
        out += self._counter_conservation(campaign.wm, round_no)
        out += self._acked_state(campaign.store, round_no, strict=True)
        out += self._durability(campaign.store, round_no)
        out += self._jobs_terminal(campaign, round_no)
        out += self._trace_tree(campaign.tracer, round_no)
        return out

    # --- individual checkers ----------------------------------------------

    def _counter_conservation(self, wm, round_no: int) -> List[Violation]:
        out: List[Violation] = []
        c = wm.counters_snapshot()
        created = c["patches"]
        accounted = (c["patches_selected"] + wm.patch_selector.ncandidates()
                     + wm.patch_selector.dropped()
                     + wm.patch_selector.duplicates() + c["patches_pruned"])
        if created != accounted:
            out.append(Violation(
                "counter_conservation", round_no,
                f"patches: created={created} != selected+queued+dropped+"
                f"duplicates+pruned={accounted}"))
        seen = c["frames_seen"]
        accounted = (c["frames_selected"] + wm.frame_selector.ncandidates()
                     + wm.frame_selector.duplicates + c["frames_pruned"])
        if seen != accounted:
            out.append(Violation(
                "counter_conservation", round_no,
                f"frames: seen={seen} != selected+queued+duplicates+"
                f"pruned={accounted}"))
        return out

    def _acked_state(self, store, round_no: int, strict: bool) -> List[Violation]:
        out: List[Violation] = []
        for problem in store.verify_acked(strict=strict):
            if "tombstone" in problem:
                name = "tombstone_resurrection"
            elif "stale read" in problem:
                name = "stale_read"
            else:
                name = "acked_write_lost"
            out.append(Violation(name, round_no, problem))
        return out

    def _durability(self, store, round_no: int) -> List[Violation]:
        """Each shard's memory must equal a replay of its WAL."""
        return [Violation("durability_after_crash", round_no, problem)
                for problem in store.verify_durable()]

    def _jobs_terminal(self, campaign, round_no: int) -> List[Violation]:
        out: List[Violation] = []
        for name, tracker in campaign.wm.trackers.items():
            if tracker.nactive():
                out.append(Violation(
                    "jobs_terminal", round_no,
                    f"{name}: {tracker.nactive()} job(s) never reached a "
                    f"terminal state (tags {sorted(tracker.tags_active())})"))
        for record in campaign.adapter.records():
            if record.state.name not in _TERMINAL:
                out.append(Violation(
                    "jobs_terminal", round_no,
                    f"job {record.spec.tag or record.job_id} stuck in "
                    f"{record.state.name}"))
        return out

    def _trace_tree(self, tracer, round_no: int) -> List[Violation]:
        out: List[Violation] = []
        if tracer is None:
            return out
        rows = tracer.rows()
        if tracer.dropped:
            out.append(Violation(
                "trace_tree", round_no,
                f"{tracer.dropped} span(s) dropped from the ring buffer"))
        ids = {row["span"] for row in rows}
        seqs = [row["seq"] for row in rows]
        if len(set(seqs)) != len(seqs):
            out.append(Violation("trace_tree", round_no,
                                 "duplicate span sequence numbers"))
        if seqs != sorted(seqs):
            out.append(Violation("trace_tree", round_no,
                                 "span rows are not in sequence order"))
        # A check may run while ancestor spans are still open (they have
        # no row yet); those are legitimate parents, not orphans.
        open_parents = {span.span_id for span in _open_spans(tracer)}
        for row in rows:
            parent: Optional[int] = row["parent"]
            if parent is not None and parent not in ids and parent not in open_parents:
                out.append(Violation(
                    "trace_tree", round_no,
                    f"span {row['span']} ({row['name']}) has orphan parent "
                    f"{parent}"))
            if row["t1"] < row["t0"]:
                out.append(Violation(
                    "trace_tree", round_no,
                    f"span {row['span']} ({row['name']}) ends before it "
                    f"starts ({row['t1']} < {row['t0']})"))
        return out


def _open_spans(tracer) -> List[object]:
    """Spans still open on the checking thread's context stack."""
    return list(getattr(tracer._local, "stack", None) or [])
