"""Campaign handles and the multi-tenant registry.

This module is the WM refactor the service forces: *all* state of a
hosted campaign — identity, tenancy, lifecycle, the workflow objects,
progress counters, error detail — is owned by one addressable
:class:`CampaignHandle`, never by module or process globals. A handle
moves through a strict lifecycle FSM::

    PENDING ──► RUNNING ──► DONE
       │          │  ▲        (terminal)
       │          ▼  │
       │        PAUSED ───► CANCELLED (terminal)
       │          │
       └──────────┴───────► CANCELLED / FAILED (terminal)

Transitions are validated (``IllegalTransition`` carries the offending
edge), take effect at round boundaries, and every terminal state drains
the campaign's in-flight jobs before the handle reports it.

:class:`CampaignRegistry` owns the shared substrate — one store
backend, one :class:`~repro.sched.shares.FairShareAdapter` pool — and
enforces tenancy: per-tenant campaign quotas, per-tenant fair-share
weights, and per-campaign key namespaces
(``tenants/<tenant>/<campaign>/`` on the shared store).
"""

from __future__ import annotations

import enum
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro import trace
from repro.core.config import workflow_config
from repro.core.telemetry import collect_telemetry
from repro.core.wm import WorkflowConfig
from repro.datastore.base import DataStore, StoreError, StoreUnavailable
from repro.datastore.namespaced import NamespacedStore, validate_namespace_segment
from repro.sched.shares import FairShareAdapter

__all__ = [
    "CampaignState", "CampaignHandle", "CampaignRegistry", "ServiceConfig",
    "CampaignSpec", "RegistryError", "UnknownCampaign", "IllegalTransition",
    "QuotaExceeded", "Draining", "StoreDegraded",
]


class RegistryError(RuntimeError):
    """Base class for control-plane errors; carries an HTTP status."""

    http_status = 400


class UnknownCampaign(RegistryError):
    """No campaign with that id (or it was already deleted)."""

    http_status = 404


class IllegalTransition(RegistryError):
    """The lifecycle FSM forbids the requested edge."""

    http_status = 409


class QuotaExceeded(RegistryError):
    """The tenant is at its campaign quota."""

    http_status = 429


class Draining(RegistryError):
    """The daemon is draining and refuses new campaigns."""

    http_status = 503


class StoreDegraded(RegistryError):
    """The shared store cannot complete the request right now (for
    example a replica window is fully down, so a purge scan would be
    blind to part of the keyspace). Retryable: the campaign stays
    registered so a later DELETE can finish the job."""

    http_status = 503


class CampaignState(enum.Enum):
    """Lifecycle of a hosted campaign."""

    PENDING = "pending"
    RUNNING = "running"
    PAUSED = "paused"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def is_terminal(self) -> bool:
        return self in (CampaignState.DONE, CampaignState.FAILED,
                        CampaignState.CANCELLED)


#: The FSM edge set. Anything not listed raises IllegalTransition.
_TRANSITIONS = {
    CampaignState.PENDING: {CampaignState.RUNNING, CampaignState.CANCELLED,
                            CampaignState.FAILED},
    CampaignState.RUNNING: {CampaignState.PAUSED, CampaignState.DONE,
                            CampaignState.FAILED, CampaignState.CANCELLED},
    CampaignState.PAUSED: {CampaignState.RUNNING, CampaignState.CANCELLED,
                           CampaignState.FAILED},
    CampaignState.DONE: set(),
    CampaignState.FAILED: set(),
    CampaignState.CANCELLED: set(),
}


@dataclass(frozen=True)
class ServiceConfig:
    """Daemon-level knobs (see OPERATIONS.md, "Configuration")."""

    max_campaigns_per_tenant: int = 4
    """Non-terminal campaigns one tenant may hold at once."""

    max_campaigns_total: int = 16
    """Non-terminal campaigns across all tenants."""

    default_rounds: int = 4
    """Rounds a submission runs when the request omits ``rounds``."""

    max_rounds: int = 10_000
    """Upper bound on a single submission's ``rounds`` request."""

    pool_workers: int = 4
    """Worker slots in the shared fair-share job pool."""

    shares: Dict[str, float] = field(default_factory=dict)
    """Initial per-tenant fair-share weights (default 1.0 each)."""

    grid: int = 12
    """Continuum grid for hosted workflows (small: many tenants share
    one process; raise it for fidelity, lower it for density)."""


@dataclass(frozen=True)
class CampaignSpec:
    """A validated submission, normalized from the POST body."""

    tenant: str
    name: str
    rounds: int
    seed: int
    advance_us: float
    workflow: WorkflowConfig

    @classmethod
    def from_request(cls, body: Dict[str, Any],
                     config: ServiceConfig) -> "CampaignSpec":
        if not isinstance(body, dict):
            raise RegistryError("request body must be a JSON object")
        unknown = set(body) - {"tenant", "name", "rounds", "seed",
                               "advance_us", "workflow"}
        if unknown:
            raise RegistryError(f"unknown field(s): {sorted(unknown)}")
        tenant = body.get("tenant")
        if not tenant:
            raise RegistryError("'tenant' is required")
        try:
            tenant = validate_namespace_segment(tenant, "tenant")
        except StoreError as exc:
            raise RegistryError(str(exc)) from None
        rounds = body.get("rounds", config.default_rounds)
        if not isinstance(rounds, int) or not 1 <= rounds <= config.max_rounds:
            raise RegistryError(
                f"'rounds' must be an integer in [1, {config.max_rounds}]")
        seed = body.get("seed", 0)
        if not isinstance(seed, int):
            raise RegistryError("'seed' must be an integer")
        advance_us = body.get("advance_us", 1.0)
        if not isinstance(advance_us, (int, float)) or advance_us <= 0:
            raise RegistryError("'advance_us' must be a positive number")
        overrides = body.get("workflow", {})
        if not isinstance(overrides, dict):
            raise RegistryError("'workflow' must be an object")
        doc = {
            # Laptop-scale defaults: rounds stay tens of milliseconds so
            # one daemon can host many concurrent campaigns.
            "beads_per_type": 6, "cg_chunks_per_job": 1,
            "cg_steps_per_chunk": 8, "aa_chunks_per_job": 1,
            "aa_steps_per_chunk": 8, "seed": seed,
        }
        doc.update(overrides)
        try:
            wf = workflow_config({"workflow": doc})
        except Exception as exc:
            raise RegistryError(f"bad workflow config: {exc}") from None
        name = body.get("name") or ""
        if not isinstance(name, str) or len(name) > 128:
            raise RegistryError("'name' must be a string of at most 128 chars")
        return cls(tenant=tenant, name=name, rounds=rounds, seed=seed,
                   advance_us=float(advance_us), workflow=wf)


class CampaignHandle:
    """The addressable owner of one campaign's state and lifecycle.

    The handle runs its campaign's coordination rounds on a dedicated
    control thread; simulation job bodies go through the registry's
    shared fair-share pool under the handle's tenant. Every public
    method is thread-safe; FSM edges are validated under the handle's
    condition variable and take effect at round boundaries (an in-flight
    round always completes — rounds are the service's unit of atomicity,
    exactly as allocation runs were the paper's).
    """

    def __init__(self, campaign_id: str, spec: CampaignSpec, app,
                 store_view: NamespacedStore) -> None:
        self.campaign_id = campaign_id
        self.spec = spec
        self.app = app
        self.store_view = store_view
        self.state = CampaignState.PENDING
        self.error: Optional[str] = None
        self.submitted_at = time.time()
        self.finished_at: Optional[float] = None
        self._cond = threading.Condition()
        self._thread = threading.Thread(
            target=self._drive, name=f"campaign-{campaign_id}", daemon=True)

    # --- FSM --------------------------------------------------------------

    def _transition(self, to: CampaignState) -> None:
        """Move the FSM (caller holds the condition)."""
        if to not in _TRANSITIONS[self.state]:
            raise IllegalTransition(
                f"campaign {self.campaign_id}: illegal transition "
                f"{self.state.value} -> {to.value}")
        self.state = to
        if to.is_terminal:
            self.finished_at = time.time()
        self._cond.notify_all()

    def request(self, action: str) -> None:
        """Apply a lifecycle verb: ``pause`` | ``resume`` | ``cancel``."""
        target = {"pause": CampaignState.PAUSED,
                  "resume": CampaignState.RUNNING,
                  "cancel": CampaignState.CANCELLED}.get(action)
        if target is None:
            raise RegistryError(f"unknown lifecycle action {action!r}")
        with self._cond:
            if action == "pause" and self.state is not CampaignState.RUNNING:
                raise IllegalTransition(
                    f"campaign {self.campaign_id}: cannot pause from "
                    f"{self.state.value}")
            if action == "resume" and self.state is not CampaignState.PAUSED:
                raise IllegalTransition(
                    f"campaign {self.campaign_id}: cannot resume from "
                    f"{self.state.value}")
            self._transition(target)

    # --- the control thread ----------------------------------------------

    def start(self) -> None:
        self._thread.start()

    def _drive(self) -> None:
        wm = self.app.wm
        try:
            with self._cond:
                if self.state is CampaignState.PENDING:
                    self._transition(CampaignState.RUNNING)
            while True:
                with self._cond:
                    while self.state is CampaignState.PAUSED:
                        self._cond.wait()
                    if self.state is not CampaignState.RUNNING:
                        break  # cancelled (or failed externally)
                    if wm.rounds >= self.spec.rounds:
                        self._transition(CampaignState.DONE)
                        break
                with trace.span("campaign.round", campaign=self.campaign_id,
                                tenant=self.spec.tenant):
                    wm.round(advance_us=self.spec.advance_us)
        except Exception as exc:  # campaign failure is contained, not fatal
            with self._cond:
                if not self.state.is_terminal:
                    self.error = f"{type(exc).__name__}: {exc}"
                    self._transition(CampaignState.FAILED)
        finally:
            try:
                wm.close()  # drains this campaign's in-flight jobs
            except Exception:
                pass

    def join(self, timeout: Optional[float] = None) -> None:
        """Wait for the control thread to exit (terminal states only)."""
        if self._thread.is_alive():
            self._thread.join(timeout=timeout)

    def wait(self, timeout: float = 30.0) -> CampaignState:
        """Block until the campaign reaches a terminal state."""
        deadline = time.monotonic() + timeout
        with self._cond:
            while not self.state.is_terminal:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._cond.wait(timeout=remaining)
            return self.state

    # --- introspection ----------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """The campaign resource the HTTP API serves."""
        with self._cond:
            state, error = self.state, self.error
        wm = self.app.wm
        return {
            "id": self.campaign_id,
            "tenant": self.spec.tenant,
            "name": self.spec.name,
            "state": state.value,
            "error": error,
            "rounds_target": self.spec.rounds,
            "rounds_done": wm.rounds,
            "counters": wm.counters_snapshot(),
            "store_prefix": self.store_view.prefix,
            "submitted_at": self.submitted_at,
            "finished_at": self.finished_at,
        }

    def telemetry(self) -> Dict[str, Any]:
        return collect_telemetry(self.app.wm).to_json()

    def trace_tail(self, limit: int = 100) -> List[Dict[str, Any]]:
        """Recent spans belonging to *this* campaign.

        Every round runs under a ``campaign.round`` root span carrying
        the campaign id; child spans (including job bodies executing on
        shared pool threads, which inherit their parent across threads)
        are collected by walking parent links from those roots.
        """
        tracer = trace.get_tracer()
        if tracer is None:
            return []
        rows = tracer.rows()
        roots = {r["span"] for r in rows
                 if r["name"] == "campaign.round"
                 and r["attrs"].get("campaign") == self.campaign_id}
        if not roots:
            return []
        mine: set = set(roots)
        # Rows are finish-ordered, so children may finish before parents;
        # iterate until the reachable set stops growing.
        grew = True
        while grew:
            grew = False
            for row in rows:
                if row["span"] not in mine and row["parent"] in mine:
                    mine.add(row["span"])
                    grew = True
        tail = [r for r in rows if r["span"] in mine]
        return tail[-limit:]


class CampaignRegistry:
    """Owns the shared substrate and every campaign handle.

    Parameters
    ----------
    store:
        The shared backend (any :class:`DataStore`, typically a NetKV
        cluster). The registry namespaces it per campaign; it closes the
        backend on :meth:`shutdown` only if ``owns_store``.
    config:
        Daemon knobs (quotas, pool size, default shares).
    """

    def __init__(self, store: DataStore, config: Optional[ServiceConfig] = None,
                 owns_store: bool = True) -> None:
        self.store = store
        self.config = config or ServiceConfig()
        self.owns_store = owns_store
        self.adapter = FairShareAdapter(max_workers=self.config.pool_workers,
                                        shares=dict(self.config.shares))
        self.started_at = time.time()
        self.draining = False
        self._lock = threading.Lock()
        self._handles: Dict[str, CampaignHandle] = {}
        self._next_id = 0

    # --- submission -------------------------------------------------------

    def _active_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for handle in self._handles.values():
            if not handle.state.is_terminal:
                counts[handle.spec.tenant] = counts.get(handle.spec.tenant, 0) + 1
        return counts

    def submit(self, body: Dict[str, Any]) -> CampaignHandle:
        """Validate, admit (quota), build, and start one campaign."""
        spec = CampaignSpec.from_request(body, self.config)
        with self._lock:
            if self.draining:
                raise Draining("daemon is draining; not accepting campaigns")
            active = self._active_counts()
            if sum(active.values()) >= self.config.max_campaigns_total:
                raise QuotaExceeded(
                    f"daemon at capacity ({self.config.max_campaigns_total} "
                    "active campaigns)")
            if active.get(spec.tenant, 0) >= self.config.max_campaigns_per_tenant:
                raise QuotaExceeded(
                    f"tenant {spec.tenant!r} at quota "
                    f"({self.config.max_campaigns_per_tenant} active campaigns)")
            self._next_id += 1
            campaign_id = f"c{self._next_id:06d}"
            handle = self._build(campaign_id, spec)
            self._handles[campaign_id] = handle
        handle.start()
        return handle

    def _build(self, campaign_id: str, spec: CampaignSpec) -> CampaignHandle:
        from repro.app.builder import build_application

        view = NamespacedStore(self.store, spec.tenant, campaign_id)
        app = build_application(
            store=view,
            grid=self.config.grid,
            adapter=self.adapter.view(spec.tenant),
            workflow=spec.workflow,
            seed=spec.seed,
        )
        return CampaignHandle(campaign_id, spec, app, view)

    # --- lookup and steering ---------------------------------------------

    def get(self, campaign_id: str) -> CampaignHandle:
        with self._lock:
            handle = self._handles.get(campaign_id)
        if handle is None:
            raise UnknownCampaign(f"no campaign {campaign_id!r}")
        return handle

    def list(self, tenant: Optional[str] = None) -> List[Dict[str, Any]]:
        with self._lock:
            handles = list(self._handles.values())
        rows = [h.snapshot() for h in handles
                if tenant is None or h.spec.tenant == tenant]
        return sorted(rows, key=lambda r: r["id"])

    def delete(self, campaign_id: str) -> Dict[str, Any]:
        """Forget a *terminal* campaign and purge its keyspace."""
        with self._lock:
            handle = self._handles.get(campaign_id)
            if handle is None:
                raise UnknownCampaign(f"no campaign {campaign_id!r}")
            if not handle.state.is_terminal:
                raise IllegalTransition(
                    f"campaign {campaign_id} is {handle.state.value}; only "
                    "terminal campaigns can be deleted (cancel it first)")
            del self._handles[campaign_id]
        handle.join(timeout=30.0)
        try:
            purged = handle.store_view.purge()
        except StoreUnavailable as exc:
            # A fully-down replica window makes the purge scan blind to
            # part of the keyspace. Reinstate the handle (unless a
            # concurrent create reused the id) so the client can retry
            # the DELETE once the store heals, and answer 503 rather
            # than an opaque 500.
            with self._lock:
                self._handles.setdefault(campaign_id, handle)
            raise StoreDegraded(
                f"campaign {campaign_id} not purged: {exc}; "
                "retry the DELETE when the store is healthy") from exc
        return {"id": campaign_id, "purged_keys": purged}

    # --- tenancy ----------------------------------------------------------

    def tenants(self) -> List[Dict[str, Any]]:
        """Per-tenant usage: campaigns by state, quota, fair-share stats."""
        with self._lock:
            handles = list(self._handles.values())
        shares = self.adapter.share_stats()
        by_tenant: Dict[str, Dict[str, Any]] = {}
        for handle in handles:
            tenant = handle.spec.tenant
            row = by_tenant.setdefault(tenant, {
                "tenant": tenant,
                "campaigns": {},
                "active": 0,
                "quota": self.config.max_campaigns_per_tenant,
            })
            state = handle.state.value
            row["campaigns"][state] = row["campaigns"].get(state, 0) + 1
            if not handle.state.is_terminal:
                row["active"] += 1
        for tenant, stats in shares.items():
            by_tenant.setdefault(tenant, {
                "tenant": tenant, "campaigns": {}, "active": 0,
                "quota": self.config.max_campaigns_per_tenant,
            })["share"] = stats
        return sorted(by_tenant.values(), key=lambda r: r["tenant"])

    # --- daemon lifecycle -------------------------------------------------

    def drain(self) -> Dict[str, Any]:
        """Refuse new submissions; running campaigns finish naturally."""
        with self._lock:
            self.draining = True
            active = sum(self._active_counts().values())
        return {"draining": True, "active_campaigns": active}

    def health(self) -> Dict[str, Any]:
        with self._lock:
            states: Dict[str, int] = {}
            for handle in self._handles.values():
                states[handle.state.value] = states.get(handle.state.value, 0) + 1
            draining = self.draining
        health_fn = getattr(self.store, "replica_health", None)
        replicas = health_fn() if callable(health_fn) else {}
        store_ok = (replicas.get("up", 1) == replicas.get("nshards", 1)) \
            if replicas else True
        return {
            "status": "ok" if store_ok else "degraded",
            "uptime_seconds": time.time() - self.started_at,
            "draining": draining,
            "campaigns": states,
            "store": {"ok": store_ok, "replicas": replicas},
            "pool": self.adapter.share_stats(),
        }

    def ready(self) -> bool:
        """Readiness = accepting submissions (healthy and not draining)."""
        with self._lock:
            return not self.draining

    def shutdown(self, timeout: float = 30.0) -> None:
        """Cancel whatever still runs, drain workers, release the store."""
        with self._lock:
            self.draining = True
            handles = list(self._handles.values())
        for handle in handles:
            with handle._cond:
                if not handle.state.is_terminal:
                    try:
                        handle._transition(CampaignState.CANCELLED)
                    except IllegalTransition:  # pragma: no cover - racing DONE
                        pass
        for handle in handles:
            handle.join(timeout=timeout)
        self.adapter.shutdown()
        if self.owns_store:
            self.store.close()
