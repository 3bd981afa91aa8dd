"""The shard-set store: one store made of independent trees, one per shard.

The tutorial's partitioning discussion (§2.2.2) — realized by PebblesDB's
guards and Nova-LSM's shard-per-component design — observes that splitting
the key space into independent trees makes each tree shallower *and* makes
the trees independent failure and concurrency domains. The
:class:`~repro.partition.PartitionedStore` exploits the first property on
one simulated device; :class:`ShardedStore` exploits the second: every
shard owns its *own* write-ahead log, write mutex, simulated device, and
(in background mode) background flush/compaction coordinator, so commits,
flushes, and compactions on different shards proceed genuinely in
parallel. This is the engine the serving layer's per-shard group commit
(:class:`~repro.server.KVServer`) fans out over.

It is also the only shard-set implementation in the package. Trees are
keyed by *global* shard index, and a store may hold a subset of them: a
standalone store holds every shard, while a cluster node
(:class:`~repro.cluster.NodeStore`) holds the shards its map assigns it.
Subclasses adapt the store through a handful of hooks — the lookup for a
shard this store does not hold (:meth:`ShardedStore._owned_tree`), an
admission check run under the shard's write lock
(:meth:`ShardedStore._admit`), named per-shard commit taps
(:meth:`ShardedStore.set_commit_tap`), and the directory layout record
(:meth:`ShardedStore._persist_layout`) — and inherit everything else:
validation, two-phase commit, snapshots, scatter-gather scans,
quarantine, recovery, and introspection.

Routing is pluggable:

* ``"hash"`` (default) — ``crc32(key) % num_shards``. Spreads any
  workload evenly, including sequential writers; scans must scatter to
  every shard and k-way merge.
* ``"range"`` — sorted split keys (reuse
  :func:`repro.partition.range_boundaries` to derive them). Keys stay
  clustered, so scans touch only the shards they overlap — range routing
  beats hash whenever scans dominate and the key distribution is known.

Atomicity contract: :meth:`ShardedStore.write_batch` validates the whole
batch up front, then splits it by shard — and is atomic **store-wide**.
A batch whose keys all route to one shard takes the plain fast path (one
write-mutex acquisition, one WAL sync, no coordinator). A batch spanning
shards commits through two-phase commit: every touched shard durably
journals a PREPARE record for its sub-batch, the store appends one
COMMIT decision to its :class:`~repro.core.wal.TxnDecisionLog`
(``txn.log``, beside ``shards.json``), and only then do the shards apply
their sub-batches. A crash anywhere in that window resolves
deterministically on :meth:`recover`: a durable COMMIT decision rolls
every prepared sub-batch forward; no (or a torn) decision rolls them all
back — never half a batch. :meth:`snapshot` serializes against the
coordinator, so consistent multi-shard reads (``get``/``scan`` with
``at=``) see whole batches or nothing.

Failure isolation (degraded mode): shards are independent failure domains,
and the store treats them that way. When a shard's background workers die
(:class:`~repro.errors.BackgroundError`), the shard is *quarantined* — a
per-shard :class:`HealthState` flips to ``"quarantined"``, operations
routed to it raise :class:`~repro.errors.ShardUnavailableError`, and the
other shards keep serving reads and writes. The serving layer maps the
error to a retryable ``ERR UNAVAILABLE <shard>`` reply and exposes the
rollup through its ``HEALTH`` command.
"""

from __future__ import annotations

import bisect
import json
import os
import threading
import time
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from heapq import merge as heap_merge
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, TypeVar

from ..api import PartialScanResult, Snapshot, SnapshotLike
from ..core.config import LSMConfig
from ..core.entry import Entry, EntryKind
from ..core.merge_operator import MergeOperator
from ..core.stats import TreeStats
from ..core.tree import LSMTree
from ..core.wal import TXN_ABORT, TXN_COMMIT, TXN_LOG_NAME, TxnDecisionLog
from ..errors import (
    BackgroundError,
    ClosedError,
    ConfigError,
    CorruptionError,
    ShardFencedError,
    ShardUnavailableError,
    TxnConflictError,
)
from ..faults.registry import fault_point

#: One batched write: ("put" | "delete", key, value-or-None).
BatchOp = Tuple[str, str, Optional[str]]

#: Observer of one shard's committed WAL groups (see
#: :meth:`ShardedStore.set_commit_tap`).
CommitTap = Callable[[List[Entry]], None]

#: Name of the routing manifest written next to the shard WAL directories.
MANIFEST_NAME = "shards.json"

_ROUTINGS = ("hash", "range")

#: Backpressure states ordered from healthy to write-stopped.
_STATE_SEVERITY = {"ok": 0, "slowdown": 1, "stop": 2}

HEALTHY = "healthy"
QUARANTINED = "quarantined"

_T = TypeVar("_T")


@dataclass
class HealthState:
    """Failure-domain status of one shard.

    ``since_s`` is a monotonic timestamp (``time.monotonic()``) of the
    quarantine moment, letting operators and the availability benchmark
    compute time-to-detection.
    """

    state: str = HEALTHY
    reason: Optional[str] = None
    since_s: float = field(default_factory=time.monotonic)

    @property
    def healthy(self) -> bool:
        return self.state == HEALTHY


def hash_shard_index(key: str, num_shards: int) -> int:
    """Stable hash routing: ``crc32(key) % num_shards``.

    Deliberately not Python's builtin ``hash`` — that is salted per
    process (``PYTHONHASHSEED``), which would route the same key to
    different shards across restarts and break WAL recovery.
    """
    return zlib.crc32(key.encode("utf-8")) % num_shards


def entries_to_batch_ops(
    entries: Sequence[Entry], *, context: str = "replication"
) -> List[BatchOp]:
    """Convert committed WAL entries into wire-shippable batch ops.

    The lingua franca between a commit tap and any remote applier (a
    cluster replica or a migration destination): put/delete survive the
    translation losslessly, while merge and range-delete entries are
    refused — shipping a merge operand without its base (or a range
    tombstone as point ops) would change its meaning on the other side.
    """
    converted: List[BatchOp] = []
    for entry in entries:
        if entry.kind is EntryKind.PUT:
            converted.append(("put", entry.key, entry.value))
        elif entry.kind in (EntryKind.DELETE, EntryKind.SINGLE_DELETE):
            converted.append(("delete", entry.key, None))
        else:
            raise ConfigError(
                f"{context} cannot ship {entry.kind.name} entries; "
                "use put/delete workloads on shipped shards"
            )
    return converted


def _fan_out(taps: Tuple[CommitTap, ...]) -> CommitTap:
    """One WAL hook calling every tap; the first failure is re-raised
    after all ran, so a failing tap never hides a group from another."""
    if len(taps) == 1:
        return taps[0]

    def fan_out(entries: List[Entry]) -> None:
        failure: Optional[BaseException] = None
        for tap in taps:
            try:
                tap(entries)
            except BaseException as exc:  # noqa: BLE001 — InjectedCrash too
                if failure is None:
                    failure = exc
        if failure is not None:
            raise failure

    return fan_out


# -- shard-set directories ---------------------------------------------------


def _load_manifest(path: str) -> Dict[str, object]:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except json.JSONDecodeError as exc:
            raise CorruptionError(
                "shard manifest is not valid JSON",
                path=path,
                byte_offset=exc.pos,
            ) from exc


def read_manifest(wal_dir: str) -> Dict[str, object]:
    """The routing facts ``wal_dir``'s ``shards.json`` records."""
    path = os.path.join(wal_dir, MANIFEST_NAME)
    if not os.path.exists(path):
        raise ConfigError(
            f"no {MANIFEST_NAME} in {wal_dir}; not a sharded WAL directory"
        )
    return _load_manifest(path)


def write_manifest(
    wal_dir: str, manifest: Dict[str, object], *, replica: bool = False
) -> None:
    """Atomically write ``wal_dir``'s ``shards.json``.

    An existing manifest is validated instead: a directory recording a
    different sharding is refused, since replaying its logs with other
    routing would misplace keys. ``replica`` selects the
    ``repl.manifest.*`` failpoints (a replicated store's standby side)
    over the ``shard.manifest.*`` ones.
    """
    path = os.path.join(wal_dir, MANIFEST_NAME)
    if os.path.exists(path):
        existing = _load_manifest(path)
        if existing != manifest:
            raise ConfigError(
                f"{path} records a different sharding ({existing}); "
                "recover it with the store's recover() or use a fresh "
                "directory"
            )
        return
    blob = json.dumps(manifest)
    temporary = path + ".tmp"
    with open(temporary, "w", encoding="utf-8") as handle:
        handle.write(blob)
    fault_point(
        "repl.manifest.tmp" if replica else "shard.manifest.tmp",
        path=temporary,
        tail_bytes=len(blob),
    )
    os.replace(temporary, path)  # atomic: readers never see a torn file
    fault_point(
        "repl.manifest.done" if replica else "shard.manifest.done", path=path
    )


def committed_txns(wal_dir: str) -> frozenset:
    """Ids of the cross-shard transactions whose COMMIT decision is
    durable in ``wal_dir``'s ``txn.log``; every other prepared
    sub-batch rolls back on replay (presumed abort)."""
    decisions = TxnDecisionLog.replay(os.path.join(wal_dir, TXN_LOG_NAME))
    return frozenset(
        txn for txn, verdict in decisions.items() if verdict == TXN_COMMIT
    )


class ShardedStore:
    """N independent :class:`~repro.core.tree.LSMTree` shards, one store.

    Args:
        num_shards: Shard count (>= 1). Derived from ``boundaries`` when
            those are given instead.
        config: Per-shard configuration (shared instance). With
            ``background_mode=True`` every shard runs its own flush and
            compaction workers.
        routing: ``"hash"`` (default) or ``"range"``.
        boundaries: Sorted split keys for range routing
            (``len(boundaries) + 1`` shards); reuse
            :func:`repro.partition.range_boundaries` to derive them.
        wal_dir: Directory for durable WALs. Each shard journals into its
            own ``shard-NN/`` subdirectory, and a ``shards.json`` manifest
            records the routing so :meth:`recover` replays each shard's
            log with the same key placement.
        merge_operator: Passed through to every shard.

    Example:
        >>> store = ShardedStore(4)
        >>> store.put("user42", "hello")
        >>> store.get("user42")
        'hello'
        >>> store.num_shards
        4
    """

    def __init__(
        self,
        num_shards: Optional[int] = None,
        config: Optional[LSMConfig] = None,
        *,
        routing: str = "hash",
        boundaries: Optional[Sequence[str]] = None,
        wal_dir: Optional[str] = None,
        merge_operator: Optional[MergeOperator] = None,
        _recover: bool = False,
        _committed_txns: Optional[frozenset] = None,
        _owned: Optional[Iterable[int]] = None,
    ) -> None:
        if routing not in _ROUTINGS:
            raise ConfigError(f"routing must be one of {_ROUTINGS}")
        if boundaries is not None:
            routing = "range"
            ordered = list(boundaries)
            if ordered != sorted(ordered) or len(set(ordered)) != len(ordered):
                raise ValueError("boundaries must be sorted and distinct")
            derived = len(ordered) + 1
            if num_shards is not None and num_shards != derived:
                raise ValueError(
                    f"num_shards={num_shards} contradicts "
                    f"{len(ordered)} boundaries ({derived} shards)"
                )
            num_shards = derived
            self.boundaries: List[str] = ordered
        elif routing == "range":
            raise ConfigError("range routing needs explicit boundaries")
        else:
            self.boundaries = []
        if num_shards is None or num_shards < 1:
            raise ValueError("num_shards must be at least 1")
        self.routing = routing
        self._num_shards = num_shards
        self._config = config
        self._merge_operator = merge_operator
        self._wal_dir = wal_dir
        self._closed = False
        owned = range(num_shards) if _owned is None else sorted(_owned)
        if wal_dir is not None:
            os.makedirs(wal_dir, exist_ok=True)
            for index in owned:
                os.makedirs(self._shard_dir(index), exist_ok=True)
            self._persist_layout()
        #: Serving trees, keyed by *global* shard index, plus each one's
        #: failure-domain status and write lock (see :meth:`_adopt_tree`).
        self.trees: Dict[int, LSMTree] = {}
        self._health: Dict[int, HealthState] = {}
        self._health_lock = threading.Lock()
        self._write_locks: Dict[int, threading.Lock] = {}
        self._commit_taps: Dict[int, Dict[str, CommitTap]] = {}
        for index in owned:
            path = None if wal_dir is None else self._shard_dir(index)
            self._adopt_tree(
                index, self._open_tree(path, _recover, _committed_txns)
            )
        #: Serializes the two-phase-commit coordinator and snapshot
        #: capture: one multi-shard transaction at a time, and a snapshot
        #: can never land between a transaction's sub-batches.
        self._txn_lock = threading.Lock()
        #: Durable coordinator decision log at the WAL root (never inside
        #: a shard directory); ``None`` for in-memory stores, which have
        #: no crash-recovery story to coordinate.
        self._txn_log: Optional[TxnDecisionLog] = None
        if wal_dir is not None:
            self._txn_log = TxnDecisionLog(
                os.path.join(wal_dir, TXN_LOG_NAME),
                fsync=config.wal_fsync if config is not None else False,
            )
        #: Commits sub-batches (and hash-routed scans) concurrently; one
        #: worker per shard, so every shard can have a commit in flight.
        self._executor = ThreadPoolExecutor(
            max_workers=num_shards, thread_name_prefix="shard"
        )

    def _shard_dir(self, index: int) -> str:
        assert self._wal_dir is not None
        return os.path.join(self._wal_dir, f"shard-{index:02d}")

    def _open_tree(
        self,
        path: Optional[str],
        recover: bool = False,
        committed: Optional[frozenset] = None,
    ) -> LSMTree:
        """A fresh tree journaling into ``path`` — or, with ``recover``,
        the tree ``path``'s WAL replays to."""
        if recover:
            return LSMTree.recover(
                self._config,
                path,  # type: ignore[arg-type]
                merge_operator=self._merge_operator,
                committed_txns=committed,
            )
        return LSMTree(
            self._config, wal_dir=path, merge_operator=self._merge_operator
        )

    def _manifest(self) -> Dict[str, object]:
        return {
            "num_shards": self.num_shards,
            "routing": self.routing,
            "boundaries": self.boundaries,
        }

    def _persist_layout(self) -> None:
        """Record the routing in the WAL root before any tree opens."""
        assert self._wal_dir is not None
        write_manifest(self._wal_dir, self._manifest())

    def _adopt_tree(self, index: int, tree: LSMTree) -> None:
        """Start serving ``tree`` as shard ``index`` (healthy, unlocked).

        The lock is published before the tree, so a writer that finds
        the tree also finds its lock.
        """
        self._write_locks[index] = threading.Lock()
        self._health[index] = HealthState()
        self.trees[index] = tree

    def _drop_tree(self, index: int) -> LSMTree:
        """Stop serving shard ``index``; returns its (still open) tree."""
        tree = self.trees.pop(index)
        self._health.pop(index, None)
        self._write_locks.pop(index, None)
        self._commit_taps.pop(index, None)
        return tree

    def _scope(self, index: int) -> str:
        """Failpoint scope naming shard ``index``."""
        return f"shard-{index:02d}"

    # -- routing -------------------------------------------------------------

    @property
    def num_shards(self) -> int:
        """Number of shards the routing spreads keys over."""
        return self._num_shards

    @property
    def shards(self) -> List[LSMTree]:
        """The serving trees in shard order (every shard's, when this
        store holds them all)."""
        return [self.trees[index] for index in sorted(self.trees)]

    def shard_index(self, key: str) -> int:
        """Index of the shard owning ``key`` (stable across restarts)."""
        if self.routing == "hash":
            return hash_shard_index(key, self._num_shards)
        return bisect.bisect_right(self.boundaries, key)

    def shard_for(self, key: str) -> LSMTree:
        """The tree owning ``key``."""
        return self._owned_tree(self.shard_index(key))

    def _owned_tree(self, index: int) -> LSMTree:
        """The serving tree of shard ``index``.

        The one lookup every shard-routed operation goes through, and the
        hook for shards this store does not hold (a cluster node answers
        with a redirect to the owner).
        """
        tree = self.trees.get(index)
        if tree is None:
            raise ShardUnavailableError(index, "not held by this store")
        return tree

    def _admit(self, index: int) -> None:
        """Admission hook for writes to shard ``index``.

        Runs once up front and again under the shard's write lock, right
        before the commit; raising refuses the write with nothing
        applied. A flag flipped under the same lock is therefore a
        linearization point: every write admitted before it has fully
        committed (and fired the commit taps) once the flip returns.
        """

    def _write_lock(self, index: int) -> threading.Lock:
        lock = self._write_locks.get(index)
        if lock is None:
            # The shard left this store after the up-front checks: the
            # lookup hook answers, else a retryable fence.
            self._owned_tree(index)
            raise ShardFencedError(index)
        return lock

    # -- commit taps ----------------------------------------------------------

    def set_commit_tap(
        self, index: int, name: str, tap: Optional[CommitTap]
    ) -> None:
        """Attach ``tap`` as shard ``index``'s commit observer ``name``;
        ``None`` detaches it.

        Taps fire on the committing thread, under the tree's write mutex,
        after the group's WAL sync — with exactly the entries the
        durability contract acknowledged — so a blocking tap gives
        synchronous shipping. The tree's hook setter takes the same
        mutex, which makes this call a barrier: every group committed
        after it returns reaches the new tap set, and none reaches a
        detached tap.
        """
        current = self._commit_taps.get(index, {})
        if tap is None and name not in current:
            return
        taps = {key: value for key, value in current.items() if key != name}
        if tap is not None:
            taps[name] = tap
        if taps:
            self._commit_taps[index] = taps
        else:
            self._commit_taps.pop(index, None)
        tree = self.trees.get(index)
        if tree is not None:
            tree.set_wal_commit_hook(
                _fan_out(tuple(taps.values())) if taps else None
            )

    # -- failure isolation ----------------------------------------------------

    def _quarantine(self, index: int, cause: BaseException) -> None:
        with self._health_lock:
            health = self._health.get(index)
            if health is not None and health.healthy:
                health.state = QUARANTINED
                health.reason = str(cause) or type(cause).__name__
                health.since_s = time.monotonic()

    def _check_available(self, index: int) -> None:
        health = self._health.get(index)
        if health is not None and not health.healthy:
            raise ShardUnavailableError(
                index, health.reason or "quarantined"
            )

    def _shard_op(self, index: int, op: Callable[[LSMTree], _T]) -> _T:
        """Run one shard-routed operation with quarantine semantics.

        ``op`` receives the shard's serving tree, looked up afresh. A
        shard whose background workers have died is unavailable for
        reads *and* writes: reads would serve from a tree whose
        maintenance stopped (unbounded staleness of structure, stalled
        flushes), so the degraded contract is explicit unavailability
        rather than silent best-effort.
        """
        self._check_available(index)
        tree = self._owned_tree(index)
        error = tree.background_error()
        if error is not None:
            self._quarantine(index, error)
            raise ShardUnavailableError(
                index, f"background workers died: {error}"
            )
        try:
            return op(tree)
        except BackgroundError as exc:
            self._quarantine(index, exc)
            raise ShardUnavailableError(index, str(exc)) from exc

    def _poll_health(self) -> None:
        """Quarantine every shard whose background pool reports an error."""
        for index, tree in list(self.trees.items()):
            health = self._health.get(index)
            if health is not None and health.healthy:
                error = tree.background_error()
                if error is not None:
                    self._quarantine(index, error)

    def _healthy_shards(self) -> List[int]:
        return sorted(
            index for index, health in self._health.items() if health.healthy
        )

    def check_health(self) -> Dict[str, object]:
        """Poll every shard for dead workers; return the health rollup.

        Quarantines any shard whose background pool reports an error, so
        a failure is detected even if no operation has routed to that
        shard since it died. ``state`` is ``"healthy"`` (all shards up),
        ``"degraded"`` (some quarantined), or ``"failed"`` (all
        quarantined).
        """
        self._check_open()
        self._poll_health()
        quarantined = self.quarantined_shards()
        if not quarantined:
            state = "healthy"
        elif len(quarantined) == len(self.trees):
            state = "failed"
        else:
            state = "degraded"
        return {
            "state": state,
            "num_shards": self.num_shards,
            "quarantined": quarantined,
            "shards": [
                {
                    "shard": index,
                    "state": health.state,
                    "reason": health.reason,
                }
                for index, health in sorted(self._health.items())
            ],
        }

    def quarantined_shards(self) -> List[int]:
        """Indices of currently quarantined shards."""
        return sorted(
            index
            for index, health in self._health.items()
            if not health.healthy
        )

    # -- external operations -------------------------------------------------

    def put(self, key: str, value: str) -> None:
        """Insert or update ``key`` in its owning shard."""
        self.write_batch([("put", key, value)])

    def get(
        self, key: str, at: Optional[SnapshotLike] = None
    ) -> Optional[str]:
        """Point lookup in the owning shard only; ``at=`` reads as of a
        store-wide snapshot (the shard answers at its pinned seqno)."""
        self._check_open()
        index = self.shard_index(key)
        if at is None:
            return self._shard_op(index, lambda tree: tree.get(key))
        snap = Snapshot.coerce(at)
        return self._shard_op(
            index, lambda tree: tree.get(key, at=snap.seqno_for(index))
        )

    def snapshot(self) -> Snapshot:
        """Capture a store-wide consistent read point.

        Pins every healthy shard's tip seqno under the transaction lock,
        so the capture can never land between a cross-shard batch's
        sub-batches: a multi-shard read at the returned handle sees every
        atomic batch entirely or not at all. Seqnos are keyed by global
        shard index, so the snapshots of stores holding disjoint shards
        merge into one (:meth:`repro.cluster.ClusterClient.snapshot`).
        Quarantined shards are not covered — reading them at this
        snapshot raises :class:`~repro.errors.SnapshotExpiredError`.
        Release the handle (``close()``/``with``) so the shards can stop
        pinning overwritten versions.
        """
        self._check_open()
        with self._txn_lock:
            pinned = {
                index: self.trees[index] for index in self._healthy_shards()
            }
            pins = {
                index: tree.snapshot_pin() for index, tree in pinned.items()
            }

        def release() -> None:
            for index, seq in pins.items():
                try:
                    pinned[index].snapshot_release(seq)
                except Exception:
                    pass  # a dying shard's pins die with it

        return Snapshot(pins, release=release)

    def delete(self, key: str) -> None:
        """Logical delete in the owning shard."""
        self.write_batch([("delete", key, None)])

    def write_batch(self, ops: Sequence[BatchOp]) -> None:
        """Apply a batch atomically, across shards if it spans them.

        The whole batch is validated before anything is submitted, so a
        malformed op raises ``ValueError`` with nothing applied — and a
        batch touching a shard this store does not hold, one the
        admission hook refuses, or a *known-quarantined* shard raises up
        front, also with nothing applied.

        A batch whose keys all route to **one shard** commits with one
        write-mutex acquisition, one WAL sync, and no coordinator
        involvement — the hot path the perf gate pins.

        A batch spanning **several shards** goes through two-phase
        commit (:meth:`_commit_cross_shard`): all-or-nothing even across
        a crash. A failure before the commit decision rolls every
        prepared sub-batch back (a coordinator-log failure surfaces as
        the retryable :class:`~repro.errors.TxnConflictError`); once the
        decision is durable the batch is committed — a crash after it
        rolls forward on :meth:`recover`.
        """
        self._check_open()
        if not ops:
            return
        for op, key, value in ops:
            if not key:
                raise ValueError("keys must be non-empty")
            if op == "put":
                if value is None:
                    raise ValueError("put ops need a value")
            elif op != "delete":
                raise ValueError(f"unknown batch op {op!r}")
        by_shard: Dict[int, List[BatchOp]] = {}
        for batch_op in ops:
            by_shard.setdefault(
                self.shard_index(batch_op[1]), []
            ).append(batch_op)
        for index in by_shard:
            self._owned_tree(index)
            self._admit(index)
            self._check_available(index)
        if len(by_shard) > 1:
            self._commit_cross_shard(by_shard)
            return
        index, sub_ops = next(iter(by_shard.items()))
        fault_point("shard.commit", scope=self._scope(index))
        with self._write_lock(index):
            self._admit(index)
            self._shard_op(index, lambda tree: tree.write_batch(sub_ops))

    def _commit_cross_shard(
        self, by_shard: Dict[int, List[BatchOp]]
    ) -> None:
        """Two-phase commit of a batch that spans shards.

        Under the transaction lock (one coordinator at a time, and
        :meth:`snapshot` can never interleave) every involved shard's
        write lock is taken in index order — so concurrent coordinators
        cannot deadlock — and its admission re-checked; the locks are
        held through the apply. Then every touched shard durably
        journals a PREPARE record for its sub-batch — keeping its tree's
        write mutex held so nothing can slip between prepare and apply —
        one COMMIT decision is appended to the coordinator log, and every
        shard applies. Any prepare failure aborts all prepared shards
        and re-raises the original error (nothing applied); a
        decision-write failure likewise rolls back and raises
        :class:`~repro.errors.TxnConflictError`. A *crash* anywhere in
        the window resolves on recovery by the decision log alone.

        The whole protocol runs inline on the calling thread: the tree
        write mutexes are reentrant locks, so prepare and settle must be
        thread-affine. (Serialized prepares cost the multi-shard case its
        sub-batch parallelism; that is the price of atomicity, and the
        single-shard fast path is untouched.)
        """
        indices = sorted(by_shard)
        locks = [self._write_lock(index) for index in indices]
        with self._txn_lock:
            acquired: List[threading.Lock] = []
            try:
                for lock in locks:
                    lock.acquire()
                    acquired.append(lock)
                for index in indices:
                    self._admit(index)
                if self._txn_log is None:
                    # In-memory store: no crash to defend against, but
                    # snapshots still must not observe half a batch —
                    # apply under the lock snapshot capture takes.
                    for index in indices:
                        self._shard_op(
                            index,
                            lambda tree, index=index: tree.write_batch(
                                by_shard[index]
                            ),
                        )
                    return
                self._two_phase_commit(self._txn_log, by_shard, indices)
            finally:
                for lock in reversed(acquired):
                    lock.release()

    def _two_phase_commit(
        self,
        txn_log: TxnDecisionLog,
        by_shard: Dict[int, List[BatchOp]],
        indices: List[int],
    ) -> None:
        txn_id = txn_log.next_txn_id()
        prepared: List[int] = []
        try:
            for index in indices:
                fault_point("txn.prepare", scope=self._scope(index))
                self._shard_op(
                    index,
                    lambda tree, index=index: tree.txn_prepare(
                        txn_id, by_shard[index]
                    ),
                )
                prepared.append(index)
        except Exception:
            self._rollback_prepared(txn_id, prepared)
            raise
        try:
            txn_log.append(txn_id, TXN_COMMIT)
        except Exception as exc:
            self._rollback_prepared(txn_id, prepared)
            try:
                txn_log.append(txn_id, TXN_ABORT)
            except Exception:
                pass  # absent decision already means abort on recovery
            raise TxnConflictError(
                "cross-shard batch rolled back: the coordinator "
                "decision could not be made durable"
            ) from exc
        failure: Optional[BaseException] = None
        for index in prepared:
            fault_point("txn.commit", scope=self._scope(index))
            try:
                self._shard_op(
                    index, lambda tree: tree.txn_commit(txn_id)
                )
            except Exception as exc:
                # The decision is durable: the transaction IS committed.
                # Keep applying the other shards; surface the first
                # failure (e.g. a replication ack) after.
                if failure is None:
                    failure = exc
        if failure is not None:
            raise failure

    def _rollback_prepared(self, txn_id: int, prepared: List[int]) -> None:
        for index in reversed(prepared):
            try:
                self.trees[index].txn_abort(txn_id)
            except Exception:
                pass  # recovery rolls an undecided prepare back anyway

    def scan(
        self,
        lo: str,
        hi: str,
        limit: Optional[int] = None,
        *,
        at: Optional[SnapshotLike] = None,
        allow_partial: bool = False,
    ) -> List[Tuple[str, str]]:
        """Scatter-gather range lookup, k-way merged across shards.

        Only shards this store holds are read: a cluster node answers for
        its slice of the key space, and the cluster-wide merge across
        nodes is the :class:`~repro.cluster.ClusterClient`'s job.

        Range routing touches only the shards overlapping ``[lo, hi)``, in
        key order, stopping as soon as ``limit`` pairs are collected. Hash
        routing must scatter to every shard (any shard may own any key in
        the range) — the per-shard scans run concurrently on the store's
        executor, each individually capped at ``limit``, and the sorted
        partial results are k-way merged (shards own disjoint keys, so the
        merge never sees duplicates).

        ``at=`` reads every shard as of its seqno pinned in the snapshot,
        so a multi-shard scan sees each cross-shard batch entirely or not
        at all — the snapshot was captured under the same lock the
        two-phase-commit coordinator holds.

        Quarantined shards: by default (``allow_partial=False``) any
        quarantined shard the scan would touch makes it fail with
        :class:`~repro.errors.ShardUnavailableError` — a partial scan
        *silently* missing one shard's keys would be corruption, not
        degradation. With ``allow_partial=True`` the dead shards are
        skipped instead and the result is a :class:`PartialScanResult`
        whose ``partial`` flag and ``skipped_shards`` list say exactly
        what is missing — explicit degradation the caller opted into.
        """
        self._check_open()
        if limit is not None and limit < 0:
            raise ValueError("limit must be non-negative (or None)")
        snap = None if at is None else Snapshot.coerce(at)
        if lo >= hi or limit == 0:
            return PartialScanResult([], []) if allow_partial else []
        involved = sorted(self.trees)
        if self.routing == "range":
            first = bisect.bisect_right(self.boundaries, lo)
            # hi is exclusive: bisect_left keeps a scan ending exactly on
            # a boundary from involving the next shard, which owns only
            # keys >= hi and so can never contribute (and must not fail
            # or degrade the scan when quarantined).
            last = bisect.bisect_left(self.boundaries, hi)
            involved = [index for index in involved if first <= index <= last]
        available: List[int] = []
        skipped: List[int] = []
        for index in involved:
            try:
                self._check_available(index)
            except ShardUnavailableError:
                if not allow_partial:
                    raise
                skipped.append(index)
                continue
            available.append(index)

        def scan_shard(
            index: int, remaining: Optional[int]
        ) -> List[Tuple[str, str]]:
            try:
                if snap is None:
                    return self._shard_op(
                        index, lambda tree: tree.scan(lo, hi, remaining)
                    )
                return self._shard_op(
                    index,
                    lambda tree: tree.scan(
                        lo, hi, remaining, at=snap.seqno_for(index)
                    ),
                )
            except ShardUnavailableError:
                # Quarantined mid-scan (after the up-front check).
                if not allow_partial:
                    raise
                skipped.append(index)
                return []

        if self.routing == "range":
            merged: List[Tuple[str, str]] = []
            for index in available:
                remaining = None if limit is None else limit - len(merged)
                if remaining == 0:
                    break
                merged.extend(scan_shard(index, remaining))
        elif len(available) <= 1:
            merged = scan_shard(available[0], limit) if available else []
        else:
            partials = list(
                self._executor.map(
                    lambda index: scan_shard(index, limit), available
                )
            )
            merged = list(heap_merge(*partials))
            if limit is not None:
                merged = merged[:limit]
        if allow_partial:
            return PartialScanResult(merged, skipped)
        return merged

    # -- lifecycle -----------------------------------------------------------

    def flush(self) -> None:
        """Force every *healthy* shard's active buffer to disk.

        Quarantined shards are skipped: their workers are gone, so a
        flush would only re-raise the failure the quarantine already
        recorded.
        """
        self._check_open()
        self.check_health()
        for index in self._healthy_shards():
            self._shard_op(index, lambda tree: tree.flush())

    def compact_all(self) -> None:
        """Major compaction on every healthy shard."""
        self._check_open()
        self.check_health()
        for index in self._healthy_shards():
            self._shard_op(index, lambda tree: tree.compact_all())

    def _standby_trees(self) -> List[LSMTree]:
        """Trees held but not serving; abandoned on close (nothing was
        ever acknowledged from them)."""
        return []

    def close(self) -> None:
        """Close every shard and release the commit executor. Idempotent.

        Shards close concurrently on the commit executor: each close
        drains that shard's rotated buffers and pending compactions
        (:meth:`LSMTree.close`), so the drains overlap exactly like the
        background work itself did. Shard close errors are collected so
        every shard still gets closed. A
        :class:`~repro.errors.BackgroundError` from an
        *already-quarantined* shard is swallowed — the failure was
        surfaced when the shard was quarantined, and degraded-mode
        shutdown must succeed — while an unexpected first-time failure is
        re-raised.
        """
        if self._closed:
            return
        self._poll_health()
        self._closed = True
        for tree in self._standby_trees():
            tree.kill()
        failure: Optional[BaseException] = None
        futures = [
            (index, self._executor.submit(tree.close))
            for index, tree in sorted(self.trees.items())
        ]
        for index, future in futures:
            try:
                future.result()
            except BackgroundError as exc:
                # Not quarantined before close: a genuinely new failure
                # the caller has never seen. Surface it.
                if self._health[index].healthy and failure is None:
                    failure = exc
            except BaseException as exc:
                if failure is None:
                    failure = exc
        self._executor.shutdown(wait=True)
        if self._txn_log is not None:
            self._txn_log.close()
        if failure is not None:
            raise failure

    def kill(self) -> None:
        """Abandon every shard as a process crash would. Idempotent.

        The sharded counterpart of :meth:`LSMTree.kill`: no drains, no
        flushes, no error propagation — used by the crash-consistency
        harness to model whole-process death.
        """
        if self._closed:
            return
        self._closed = True
        for tree in self._standby_trees() + list(self.trees.values()):
            tree.kill()
        if self._txn_log is not None:
            self._txn_log.close()
        self._executor.shutdown(wait=False)

    def __enter__(self) -> "ShardedStore":
        return self

    def __exit__(self, *_exc_info: object) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise ClosedError("store is closed")

    # -- recovery ------------------------------------------------------------

    @classmethod
    def recover(
        cls,
        config: Optional[LSMConfig],
        wal_dir: str,
        *,
        merge_operator: Optional[MergeOperator] = None,
    ) -> "ShardedStore":
        """Rebuild every shard from its own WAL after a crash.

        The ``shards.json`` manifest fixes shard count and routing, so
        keys re-route exactly as they did before the crash; each shard
        then replays only the segments in its own ``shard-NN/`` directory
        (:meth:`LSMTree.recover`), preserving its independent sequence
        numbers. Shards recover independently — one shard's surviving
        writes are never visible to, or blocked by, another's replay.

        The coordinator decision log is read *first*
        (:func:`committed_txns`): every PREPARE record found during a
        shard's replay rolls forward exactly when ``txn.log`` holds a
        durable COMMIT decision for its transaction, and rolls back
        otherwise (presumed abort) — so a crash mid two-phase commit
        never resurfaces half a batch.
        """
        return cls._reopen(
            wal_dir, config, wal_dir=wal_dir, merge_operator=merge_operator
        )

    @classmethod
    def _reopen(
        cls, layout_dir: str, config: Optional[LSMConfig], **options: object
    ) -> "ShardedStore":
        """Recover a store from ``layout_dir``'s manifest and ``txn.log``;
        ``options`` go to the constructor."""
        manifest = read_manifest(layout_dir)
        return cls(
            manifest["num_shards"],  # type: ignore[arg-type]
            config,
            routing=manifest["routing"],  # type: ignore[arg-type]
            boundaries=manifest["boundaries"] or None,  # type: ignore[arg-type]
            _recover=True,
            _committed_txns=committed_txns(layout_dir),
            **options,
        )

    # -- introspection -------------------------------------------------------

    @property
    def stats(self) -> TreeStats:
        """Rollup of every shard's counters (:meth:`TreeStats.merged`)."""
        held = [tree.stats for tree in self.trees.values()]
        return TreeStats.merged(held) if held else TreeStats()

    def backpressure(self) -> Dict[str, object]:
        """Aggregate admission snapshot: the *worst healthy* shard governs.

        ``state`` is the most severe of the healthy shard states (``stop``
        beats ``slowdown`` beats ``ok``) — conservative on purpose, since
        a serving layer that admits a write cannot know which shard it
        will route to until it parses the key. Quarantined shards are
        excluded from the backpressure verdict (their unavailability is
        reported per-operation, not as store-wide pushback) and listed
        under ``quarantined_shards``; with *no* healthy shard left the
        state degrades to ``"stop"``, and a store holding no shard at all
        (a drained cluster member) reports ``"ok"``. The raw quantities
        aggregate (max Level-0 depth, summed immutable buffers) and
        ``shards`` carries the full per-shard breakdown for operators.
        """
        per_shard = []
        for index, tree in sorted(self.trees.items()):
            snapshot = tree.backpressure()
            snapshot["healthy"] = self._health[index].healthy
            per_shard.append({"shard": index, **snapshot})
        healthy = [s for s in per_shard if s["healthy"]]
        if healthy:
            worst = max(
                healthy, key=lambda s: _STATE_SEVERITY.get(str(s["state"]), 0)
            )
            state = worst["state"]
        elif per_shard:
            worst, state = per_shard[0], "stop"
        else:  # a store holding no shard at all (a drained cluster member)
            worst, state = {"slowdown_trigger": 0, "stop_trigger": 0}, "ok"
        return {
            "state": state,
            "level0_runs": max(
                (int(s["level0_runs"]) for s in per_shard), default=0
            ),
            "immutable_buffers": sum(
                int(s["immutable_buffers"]) for s in per_shard
            ),
            "slowdown_trigger": worst["slowdown_trigger"],
            "stop_trigger": worst["stop_trigger"],
            "quarantined_shards": self.quarantined_shards(),
            "shards": per_shard,
        }

    def shard_summary(self) -> List[Dict[str, object]]:
        """Per-shard breakdown served through the server's ``INFO``."""
        return [
            {
                "shard": index,
                "routing": self.routing,
                "levels": len(tree.levels),
                "disk_bytes": tree.total_disk_bytes(),
                "seqno": tree.seqno,
                "puts": tree.stats.puts,
                "deletes": tree.stats.deletes,
                "flushes": tree.stats.flushes,
                "compactions": tree.stats.compactions,
                "backpressure": tree.backpressure()["state"],
                "health": self._health[index].state,
                "health_reason": self._health[index].reason,
            }
            for index, tree in sorted(self.trees.items())
        ]

    def total_disk_bytes(self) -> int:
        """Payload bytes across all shards."""
        return sum(tree.total_disk_bytes() for tree in self.trees.values())

    def max_depth(self) -> int:
        """Deepest shard's level count."""
        return max((len(tree.levels) for tree in self.trees.values()), default=0)

    def write_amplification(self) -> float:
        """Aggregate device bytes written per user byte, across shards."""
        trees = list(self.trees.values())
        user_bytes = sum(tree.stats.user_bytes_written for tree in trees)
        if user_bytes == 0:
            return 0.0
        device_bytes = sum(tree.disk.counters.bytes_written for tree in trees)
        return device_bytes / user_bytes

    def memory_footprint_bits(self) -> int:
        """Aggregate buffer + filter + fence memory across shards."""
        return sum(tree.memory_footprint_bits() for tree in self.trees.values())
