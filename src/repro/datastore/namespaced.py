"""Per-tenant namespaced views over one shared store.

The control plane (``repro.service``) multiplexes many campaigns onto a
single shared backend — one NetKV cluster, one filesystem tree — the
way REANA multiplexes thousands of user workflows onto shared
infrastructure. Isolation is by *key prefix*: every campaign sees the
store through a :class:`NamespacedStore` view that transparently maps
``rdf/live/{cg00001-000}`` to
``tenants/<tenant>/<campaign>/rdf/live/{cg00001-000}`` on the shared
backend, so two tenants can run the identical workflow against the same
cluster with provably disjoint keyspaces. The prefix leaves a key's
``{hash tag}``, and so its slot, unchanged.

The view is a real :class:`~repro.datastore.base.DataStore` (it passes
the backend contract suite), so every component that takes a store —
the WM, feedback managers, samplers, checkpoints — works unchanged
inside a namespace. Batched operations delegate to the backend's
batched paths, keeping NetKV pipelining intact.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, List, Mapping, Tuple, Union

from repro.datastore.base import DataStore, StoreError, validate_key

__all__ = ["NamespacedStore", "validate_namespace_segment", "TENANT_ROOT"]

#: Root prefix under which every tenant's keys live on the shared store.
TENANT_ROOT = "tenants"

_SEGMENT = re.compile(r"^[a-z0-9][a-z0-9._-]{0,63}$")


def validate_namespace_segment(segment: str, what: str = "segment") -> str:
    """Reject tenant/campaign identifiers that could escape their prefix.

    Namespace segments become literal key components on the shared
    backend, so they must be safe as a single path segment: lowercase
    alphanumerics plus ``.``, ``_``, ``-``, at most 64 characters, and
    no leading punctuation (``..`` and hidden-file-style names are
    rejected by construction).
    """
    if not isinstance(segment, str) or not _SEGMENT.match(segment):
        raise StoreError(
            f"invalid {what} {segment!r}: must match [a-z0-9][a-z0-9._-]*, "
            "max 64 chars"
        )
    return segment


class NamespacedStore(DataStore):
    """A :class:`DataStore` view confined to one key prefix.

    Parameters
    ----------
    base:
        The shared backend every namespace maps onto.
    tenant, campaign:
        Namespace coordinates; both are validated as safe key segments.
        The resulting prefix is ``tenants/<tenant>/<campaign>/``.

    The view never closes the shared backend — lifetime of the backend
    belongs to whoever opened it (the control plane daemon).
    """

    def __init__(self, base: DataStore, tenant: str, campaign: str) -> None:
        self.base = base
        self.tenant = validate_namespace_segment(tenant, "tenant")
        self.campaign = validate_namespace_segment(campaign, "campaign id")
        self.prefix = f"{TENANT_ROOT}/{self.tenant}/{self.campaign}/"

    # --- key mapping -----------------------------------------------------

    def _abs(self, key: str) -> str:
        return self.prefix + validate_key(key)

    def _rel(self, key: str) -> str:
        return key[len(self.prefix):]

    # --- primitives ------------------------------------------------------

    def write(self, key: str, data: bytes) -> None:
        self.base.write(self._abs(key), data)

    def read(self, key: str) -> bytes:
        return self.base.read(self._abs(key))

    def delete(self, key: str) -> None:
        self.base.delete(self._abs(key))

    def keys(self, prefix: str = "") -> List[str]:
        # Prefixes are plain string matches in the flat key space, so a
        # caller-supplied prefix cannot escape self.prefix by construction.
        return [self._rel(k) for k in self.base.keys(self.prefix + prefix)]

    def move(self, src: str, dst: str) -> None:
        self.base.move(self._abs(src), self._abs(dst))

    # --- batched paths (keep NetKV pipelining) ---------------------------

    def read_many(self, keys: Iterable[str]) -> Dict[str, bytes]:
        rows = self.base.read_many([self._abs(k) for k in keys])
        return {self._rel(k): v for k, v in rows.items()}

    def read_present(self, keys: Iterable[str]) -> Dict[str, bytes]:
        rows = self.base.read_present([self._abs(k) for k in keys])
        return {self._rel(k): v for k, v in rows.items()}

    def write_many(self, items: Union[Mapping[str, bytes],
                                      Iterable[Tuple[str, bytes]]]) -> None:
        pairs = items.items() if hasattr(items, "items") else items
        self.base.write_many([(self._abs(k), v) for k, v in pairs])

    def delete_many(self, keys: Iterable[str]) -> int:
        return self.base.delete_many([self._abs(k) for k in keys])

    def exists(self, key: str) -> bool:
        return self.base.exists(self._abs(key))

    # --- namespace accounting -------------------------------------------

    def nkeys(self) -> int:
        """Live keys inside this namespace (one shared-store scan)."""
        return len(self.base.keys(self.prefix))

    def purge(self) -> int:
        """Delete every key in this namespace; returns the count removed."""
        return self.base.delete_many(self.base.keys(self.prefix))

    def close(self) -> None:
        """Views do not own the shared backend; closing is a no-op."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"NamespacedStore({self.prefix!r} over {type(self.base).__name__})"
