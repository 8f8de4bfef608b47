"""Hierarchical resource graph: cluster → node → socket/core + GPU.

The matcher's cost model depends on the graph's shape — "R essentially
traverses the resource graph in its entirety for each job" (§5.2) — so
nodes expose both cheap feasibility checks (free counts) and explicit
per-resource enumeration (which is what makes exhaustive ranking
expensive and is counted in :class:`~repro.sched.matcher.MatchStats`).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from itertools import compress, islice
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["Node", "Allocation", "ResourceGraph", "summit_like", "lassen_like"]


class ResourceError(RuntimeError):
    """Raised on infeasible or inconsistent resource operations."""


@dataclass(frozen=True)
class Allocation:
    """A concrete placement: per-node core and GPU ids.

    ``items`` maps node id -> (core ids, gpu ids). Allocations are
    immutable; releasing goes through :meth:`ResourceGraph.release`.
    """

    items: Tuple[Tuple[int, Tuple[int, ...], Tuple[int, ...]], ...]

    @property
    def nnodes(self) -> int:
        return len(self.items)

    @property
    def ncores(self) -> int:
        return sum(len(cores) for _, cores, _ in self.items)

    @property
    def ngpus(self) -> int:
        return sum(len(gpus) for _, _, gpus in self.items)

    def node_ids(self) -> List[int]:
        return [nid for nid, _, _ in self.items]


class Node:
    """One compute node: ``ncores`` CPU cores and ``ngpus`` GPUs.

    Cores are split evenly across ``nsockets`` sockets; core ids are
    global within the node (0..ncores-1), socket s owning the contiguous
    block ``[s*ncores/nsockets, (s+1)*ncores/nsockets)``. GPUs are
    associated with the socket ``gpu_id * nsockets // ngpus`` — close
    enough to Summit's topology to express the paper's affinity rules
    (simulation cores share cache with their GPU; analysis cores sit
    nearest the PCIe bus, i.e. lowest ids on the GPU's socket).
    """

    __slots__ = ("node_id", "ncores", "ngpus", "nsockets", "_core_free", "_gpu_free",
                 "free_cores", "free_gpus", "drained")

    def __init__(self, node_id: int, ncores: int, ngpus: int, nsockets: int = 2) -> None:
        if ncores < 1 or ngpus < 0 or nsockets < 1 or ncores % nsockets:
            raise ResourceError(
                f"bad node shape: ncores={ncores}, ngpus={ngpus}, nsockets={nsockets}"
            )
        self.node_id = node_id
        self.ncores = ncores
        self.ngpus = ngpus
        self.nsockets = nsockets
        self._core_free = [True] * ncores
        self._gpu_free = [True] * ngpus
        self.free_cores = ncores
        self.free_gpus = ngpus
        self.drained = False

    # --- feasibility (cheap, count-based) -------------------------------

    def can_fit(self, ncores: int, ngpus: int) -> bool:
        return (not self.drained) and self.free_cores >= ncores and self.free_gpus >= ngpus

    @property
    def vacant(self) -> bool:
        return self.free_cores == self.ncores and self.free_gpus == self.ngpus

    # --- enumeration (explicit, counted by the matcher) -------------------

    def subtree_size(self) -> int:
        """Vertices under this node: sockets + cores + GPUs + itself."""
        return 1 + self.nsockets + self.ncores + self.ngpus

    def free_core_ids(self) -> List[int]:
        return [i for i, free in enumerate(self._core_free) if free]

    def free_gpu_ids(self) -> List[int]:
        return [i for i, free in enumerate(self._gpu_free) if free]

    def socket_of_core(self, core_id: int) -> int:
        return core_id // (self.ncores // self.nsockets)

    def socket_of_gpu(self, gpu_id: int) -> int:
        return gpu_id * self.nsockets // max(self.ngpus, 1)

    # --- claim/release ------------------------------------------------------

    def pick(self, ncores: int, ngpus: int) -> Tuple[List[int], List[int]]:
        """Choose lowest-id free cores/GPUs with GPU-socket affinity.

        When GPUs are requested, cores are taken from the first GPU's
        socket when possible (the "share cache with the simulation" rule);
        remaining demand falls back to any free core.
        """
        if not self.can_fit(ncores, ngpus):
            raise ResourceError(f"node {self.node_id} cannot fit {ncores}c/{ngpus}g")
        gpu_ids = self.free_gpu_ids()[:ngpus]
        core_ids: List[int] = []
        if gpu_ids:
            # Only the GPU's socket block [lo, lo + per) can hold its cores.
            per = self.ncores // self.nsockets
            lo = self.socket_of_gpu(gpu_ids[0]) * per
            block = compress(range(lo, lo + per), self._core_free[lo:lo + per])
            core_ids = list(islice(block, ncores))
        if len(core_ids) < ncores:
            chosen = set(core_ids)
            for c in self.free_core_ids():
                if len(core_ids) >= ncores:
                    break
                if c not in chosen:
                    core_ids.append(c)
                    chosen.add(c)
        return core_ids, gpu_ids

    def claim(self, core_ids: Sequence[int], gpu_ids: Sequence[int]) -> None:
        for c in core_ids:
            if not self._core_free[c]:
                raise ResourceError(f"core {c} on node {self.node_id} already claimed")
        for g in gpu_ids:
            if not self._gpu_free[g]:
                raise ResourceError(f"gpu {g} on node {self.node_id} already claimed")
        for c in core_ids:
            self._core_free[c] = False
        for g in gpu_ids:
            self._gpu_free[g] = False
        self.free_cores -= len(core_ids)
        self.free_gpus -= len(gpu_ids)

    def release(self, core_ids: Sequence[int], gpu_ids: Sequence[int]) -> None:
        for c in core_ids:
            if self._core_free[c]:
                raise ResourceError(f"core {c} on node {self.node_id} double-released")
        for g in gpu_ids:
            if self._gpu_free[g]:
                raise ResourceError(f"gpu {g} on node {self.node_id} double-released")
        for c in core_ids:
            self._core_free[c] = True
        for g in gpu_ids:
            self._gpu_free[g] = True
        self.free_cores += len(core_ids)
        self.free_gpus += len(gpu_ids)


class ResourceGraph:
    """The cluster: an ordered list of nodes plus aggregate accounting.

    Per-node free counts are mirrored in NumPy arrays so the matcher can
    run feasibility scans vectorized at 4000-node scale. The arrays are
    maintained only by the graph-level operations (:meth:`claim`,
    :meth:`release`, :meth:`drain`); mutating a :class:`Node` directly
    bypasses them and is unsupported. The aggregates are read from them
    too: ``free_*`` excludes drained nodes, ``used_*`` counts claims on
    every node, so ``used + free == total`` only while none is drained.

    On top of the flat arrays the graph keeps a *partition index*:
    nodes are grouped into fixed-size partitions (``partition_size``)
    and each partition carries a max-free-core/max-free-GPU watermark
    plus a count of vacant (exclusive-feasible) nodes. A request that
    exceeds a partition's watermark cannot place anywhere inside it, so
    :meth:`first_feasible` skips the whole partition at the cost of one
    summary check — what keeps first-match sublinear at 40k-node scale —
    and :meth:`watermark_admits` gives the low-id policy the same
    per-partition charge. The watermarks are read off per-partition
    histograms of undrained nodes by free-core and free-GPU count:
    claim/release move each touched node between buckets, so their
    upkeep costs O(nodes touched), not O(partition_size). A watermark
    rises at once and falls only when its top bucket empties, walking
    down to the next occupied one. Only drain/undrain recompute a
    partition from the flat arrays.
    """

    def __init__(self, nnodes: int, cores_per_node: int, gpus_per_node: int,
                 nsockets: int = 2, partition_size: int = 256) -> None:
        if nnodes < 1:
            raise ResourceError("graph needs at least one node")
        if partition_size < 1:
            raise ResourceError("partition_size must be >= 1")
        self.nodes = [Node(i, cores_per_node, gpus_per_node, nsockets) for i in range(nnodes)]
        self.cores_per_node = cores_per_node
        self.gpus_per_node = gpus_per_node
        self._fc = np.full(nnodes, cores_per_node, dtype=np.int32)
        self._fg = np.full(nnodes, gpus_per_node, dtype=np.int32)
        self._drained_mask = np.zeros(nnodes, dtype=bool)
        self.node_subtree_size = self.nodes[0].subtree_size()
        # --- partition index -------------------------------------------
        self.partition_size = partition_size
        self.npartitions = (nnodes + partition_size - 1) // partition_size
        sizes = [min(partition_size, nnodes - lo) for lo in range(0, nnodes, partition_size)]
        # C-int arrays: the upkeep touches one entry at a time, cheaply,
        # and the low-id pass views them as NumPy arrays without a copy.
        self._part_max_fc = array("i", [cores_per_node]) * self.npartitions
        self._part_max_fg = array("i", [gpus_per_node]) * self.npartitions
        # Vacant (fully free, undrained) nodes per partition: exclusive
        # requests can only land on these.
        self._part_nvacant = array("i", sizes)
        # Undrained nodes per partition by free-core / free-GPU count.
        self._part_hist_fc = [[0] * cores_per_node + [size] for size in sizes]
        self._part_hist_fg = [[0] * gpus_per_node + [size] for size in sizes]

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self) -> Iterator[Node]:
        return iter(self.nodes)

    # --- aggregate accounting (used by the occupancy profiler) -----------------

    @property
    def total_cores(self) -> int:
        return len(self.nodes) * self.cores_per_node

    @property
    def total_gpus(self) -> int:
        return len(self.nodes) * self.gpus_per_node

    @property
    def free_cores(self) -> int:
        """Free cores on undrained nodes."""
        return int(self._fc.sum(where=~self._drained_mask))

    @property
    def free_gpus(self) -> int:
        """Free GPUs on undrained nodes."""
        return int(self._fg.sum(where=~self._drained_mask))

    @property
    def used_cores(self) -> int:
        """Claimed cores on all nodes, drained ones included."""
        return self.total_cores - int(self._fc.sum())

    @property
    def used_gpus(self) -> int:
        """Claimed GPUs on all nodes, drained ones included."""
        return self.total_gpus - int(self._fg.sum())

    def total_vertices(self) -> int:
        """All vertices in the graph (the matcher's worst-case traversal)."""
        return 1 + sum(n.subtree_size() for n in self.nodes)

    # --- partition index maintenance ------------------------------------

    def partition_of(self, node_id: int) -> int:
        return node_id // self.partition_size

    def _partition_bounds(self, p: int) -> Tuple[int, int]:
        lo = p * self.partition_size
        return lo, min(lo + self.partition_size, len(self.nodes))

    def _refresh_partition(self, p: int) -> None:
        """Rebuild one partition's histograms and summaries from the flat
        arrays (only drain/undrain need this; claim/release move nodes
        between buckets in :meth:`_reindex`).

        Drained nodes are left out of the histograms, so they can never
        satisfy a watermark (or look vacant); a fully drained partition
        has watermarks of -1.
        """
        lo, hi = self._partition_bounds(p)
        up = ~self._drained_mask[lo:hi]
        fc = self._fc[lo:hi][up]
        fg = self._fg[lo:hi][up]
        hist_fc = np.bincount(fc, minlength=self.cores_per_node + 1)
        hist_fg = np.bincount(fg, minlength=self.gpus_per_node + 1)
        self._part_hist_fc[p] = hist_fc.tolist()
        self._part_hist_fg[p] = hist_fg.tolist()
        self._part_max_fc[p] = int(fc.max()) if fc.size else -1
        self._part_max_fg[p] = int(fg.max()) if fg.size else -1
        self._part_nvacant[p] = int(np.count_nonzero(
            (fc == self.cores_per_node) & (fg == self.gpus_per_node)
        ))

    @staticmethod
    def _move(hist: List[int], tops: array, p: int, old: int, new: int) -> None:
        """Move one node from bucket ``old`` to ``new`` of partition
        ``p``'s histogram and keep its watermark ``tops[p]`` exact."""
        hist[old] -= 1
        hist[new] += 1
        top = tops[p]
        if new > top:
            tops[p] = new
        elif old == top and not hist[old]:
            # The node itself sits in ``new`` < ``old``, so the walk
            # stops there at the latest.
            top = old - 1
            while not hist[top]:
                top -= 1
            tops[p] = top

    def _reindex(self, node_id: int, dcores: int, dgpus: int) -> None:
        """Record that node ``node_id``'s free counts just changed by
        ``(dcores, dgpus)``: update its flat-array entries and move it
        between its partition's buckets."""
        node = self.nodes[node_id]
        new_c, new_g = node.free_cores, node.free_gpus
        old_c, old_g = new_c - dcores, new_g - dgpus
        self._fc[node_id] = new_c
        self._fg[node_id] = new_g
        if node.drained:
            return  # not in the histograms; undrain rebuilds them
        p = node_id // self.partition_size
        if new_c != old_c:
            self._move(self._part_hist_fc[p], self._part_max_fc, p, old_c, new_c)
        if new_g != old_g:
            self._move(self._part_hist_fg[p], self._part_max_fg, p, old_g, new_g)
        cpn, gpn = self.cores_per_node, self.gpus_per_node
        was_vacant = old_c == cpn and old_g == gpn
        if was_vacant != (new_c == cpn and new_g == gpn):
            self._part_nvacant[p] += -1 if was_vacant else 1

    def partition_feasible(self, p: int, ncores: int, ngpus: int,
                           exclusive: bool = False) -> bool:
        """Watermark check: could *any* node in partition ``p`` host one
        unit of the request? False means the whole partition is safely
        skippable."""
        if exclusive:
            return bool(self._part_nvacant[p] > 0
                        and self.cores_per_node >= ncores
                        and self.gpus_per_node >= ngpus)
        return bool(self._part_max_fc[p] >= ncores and self._part_max_fg[p] >= ngpus)

    # --- allocation lifecycle ------------------------------------------------

    def claim(self, placement: Sequence[Tuple[int, Sequence[int], Sequence[int]]]) -> Allocation:
        """Claim an explicit placement; all-or-nothing."""
        claimed: List[Tuple[int, Sequence[int], Sequence[int]]] = []
        try:
            for node_id, cores, gpus in placement:
                self.nodes[node_id].claim(cores, gpus)
                self._reindex(node_id, -len(cores), -len(gpus))
                claimed.append((node_id, cores, gpus))
        except ResourceError:
            self.release(Allocation(items=tuple(claimed)))
            raise
        return Allocation(
            items=tuple((nid, tuple(c), tuple(g)) for nid, c, g in placement)
        )

    def release(self, alloc: Allocation) -> None:
        for node_id, cores, gpus in alloc.items:
            self.nodes[node_id].release(cores, gpus)
            self._reindex(node_id, len(cores), len(gpus))

    # --- vectorized feasibility (the matcher's fast path) ------------------

    def feasible_mask(self, ncores: int, ngpus: int, exclusive: bool = False) -> np.ndarray:
        """Boolean mask of nodes that can host one unit of the request.

        Exclusive mode means "the whole node", but the node must still
        be *big enough*: a vacant node with fewer cores/GPUs than the
        per-node request would silently under-provision the job, so it
        is not feasible.
        """
        if exclusive:
            if ncores > self.cores_per_node or ngpus > self.gpus_per_node:
                return np.zeros(len(self.nodes), dtype=bool)
            mask = (self._fc == self.cores_per_node) & (self._fg == self.gpus_per_node)
        else:
            mask = (self._fc >= ncores) & (self._fg >= ngpus)
        return mask & ~self._drained_mask

    def feasible_ids(self, ncores: int, ngpus: int, exclusive: bool = False) -> np.ndarray:
        """Feasible node ids in ascending (low-id-first) order."""
        return np.nonzero(self.feasible_mask(ncores, ngpus, exclusive))[0]

    def first_feasible(
        self,
        start: int,
        need: int,
        ncores: int,
        ngpus: int,
        exclusive: bool = False,
    ) -> Tuple[List[int], int, int]:
        """First ``need`` feasible nodes scanning circularly from ``start``.

        Walks the circular node order from ``start`` in partition-aligned
        segments and stops as soon as enough nodes are found, which is
        what makes the first-match policy cheap on a lightly loaded
        machine. A segment whose partition watermark cannot satisfy the
        request is skipped wholesale (its nodes are never inspected),
        which keeps it cheap on a nearly full one. Returns ``(node ids,
        nodes scanned, partitions skipped)``; the skip rule only drops
        partitions with no feasible node, so the ids are those a
        node-by-node walk would find.
        """
        n = len(self.nodes)
        if exclusive and (ncores > self.cores_per_node or ngpus > self.gpus_per_node):
            return [], 0, 0
        psize = self.partition_size
        nodes = self.nodes
        # No node has more free than it owns, so "vacant" is ">= whole node".
        if exclusive:
            want_c, want_g = self.cores_per_node, self.gpus_per_node
        else:
            want_c, want_g = ncores, ngpus
        start %= n
        found: List[int] = []
        scanned = 0
        skipped = 0
        # Circular walk [start, n) ++ [0, start), cut at partition edges.
        pos, end = start, start + n
        while pos < end and len(found) < need:
            lo = pos % n
            p = lo // psize
            seg_hi = min(min((p + 1) * psize, n) - lo, end - pos)
            pos += seg_hi
            hi = lo + seg_hi
            if not self.partition_feasible(p, ncores, ngpus, exclusive):
                skipped += 1
                continue
            for i, node in enumerate(nodes[lo:hi], lo):
                if (node.free_cores >= want_c and node.free_gpus >= want_g
                        and not node.drained):
                    found.append(i)
                    if len(found) >= need:
                        return found, scanned + i - lo + 1, skipped
            scanned += hi - lo
        return found, scanned, skipped

    def watermark_admits(self, ncores: int, ngpus: int,
                         exclusive: bool = False) -> Tuple[int, int]:
        """``(nodes in admitting partitions, partitions skipped)``.

        A partition admits the request when its watermark says some
        node in it could host one unit. This is what a low-id walk that
        checks each partition summary first would examine: every node
        of an admitting partition, and only the summary of the others.
        """
        if exclusive:
            if ncores > self.cores_per_node or ngpus > self.gpus_per_node:
                return 0, 0
            admit = np.frombuffer(self._part_nvacant, dtype=np.intc) > 0
        else:
            admit = ((np.frombuffer(self._part_max_fc, dtype=np.intc) >= ncores)
                     & (np.frombuffer(self._part_max_fg, dtype=np.intc) >= ngpus))
        nadmit = int(np.count_nonzero(admit))
        examined = nadmit * self.partition_size
        if admit[-1]:  # the last partition may be short
            examined -= self.npartitions * self.partition_size - len(self.nodes)
        return examined, self.npartitions - nadmit

    # --- resilience -------------------------------------------------------------

    def drain(self, node_id: int) -> None:
        """Mark a node failed/draining: no new work lands on it (§4.4)."""
        self.nodes[node_id].drained = True
        self._drained_mask[node_id] = True
        self._refresh_partition(self.partition_of(node_id))

    def undrain(self, node_id: int) -> None:
        self.nodes[node_id].drained = False
        self._drained_mask[node_id] = False
        self._refresh_partition(self.partition_of(node_id))

    def drained_nodes(self) -> List[int]:
        return [n.node_id for n in self.nodes if n.drained]


def summit_like(nnodes: int, partition_size: int = 256) -> ResourceGraph:
    """A Summit-shaped partition: 2×22-core POWER9 + 6 V100 per node."""
    return ResourceGraph(nnodes, cores_per_node=44, gpus_per_node=6, nsockets=2,
                         partition_size=partition_size)


def lassen_like(nnodes: int, partition_size: int = 256) -> ResourceGraph:
    """A Lassen/Sierra-shaped partition: 2×22-core + 4 V100 per node."""
    return ResourceGraph(nnodes, cores_per_node=44, gpus_per_node=4, nsockets=2,
                         partition_size=partition_size)
