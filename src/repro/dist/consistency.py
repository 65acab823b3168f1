"""A deterministic, Jepsen-style consistency harness for replication.

:class:`ConsistencyHarness` drives one :class:`~repro.dist.replication.
ReplicatedContext` through a *seeded* schedule of client writes, shipping
rounds, replica reads, crash/partition windows (on the fault injector's
simulated clock), epoch-fenced failovers and -- for a durable primary --
mid-commit WAL process crashes with recovery.  Everything is drawn from
one ``random.Random(seed)`` and the injector's own seeded RNG, so a
(seed, configuration) pair replays the *exact* same history: a failing
schedule is a reproducible bug report, not an anecdote.

While the schedule runs the harness keeps an **oracle**: the lineage of
committed change records (by lsn) and the subset of lsns that were
acknowledged to the client at the configured ack level.  At the end --
and at checkpoints along the way -- it checks the invariants the design
promises:

- **acked-write durability** -- at ``ack="quorum"``/``"all"`` no
  acknowledged write is ever lost by a failover or a primary crash
  (at ``ack="primary"`` such loss is *expected* and only counted);
- **no split-brain** -- a deposed primary's writes and ships are fenced,
  never accepted;
- **prefix consistency** -- every replica's state equals the oracle's
  replay of the lineage up to that replica's applied lsn (a diverged
  node is quarantined behind ``needs_resync`` until resynced, which is
  itself part of the invariant);
- **monotone (epoch, lsn)** -- per replica, shipped batches never go
  backwards in epoch nor overlap within an epoch;
- **bounded staleness** -- a read served through the
  :class:`~repro.dist.replication.AvailabilityRouter` never came from a
  replica lagging past the read's ``max_lag``;
- **convergence** -- after the final heal + sync rounds every node's
  state equals the oracle's full replay.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from typing import Any, Dict, List, Optional, Set, Tuple

from ..filters.ast import MatchAll
from ..model.dn import DN
from ..query.ast import AtomicQuery, Scope
from ..txn.records import ChangeRecord
from ..txn.wal import CrashPlan, SimulatedCrash
from ..workload import synthetic_schema
from .errors import ReplicationError
from .faults import FaultInjector, FaultPlan
from .replication import AvailabilityRouter, ReplicatedContext

__all__ = ["ConsistencyHarness", "ConsistencyReport", "run_matrix"]

CONTEXT = "ou=replicated, o=paper"


def _entry_digest(entry) -> Tuple:
    """An order-insensitive, comparison-stable image of one entry."""
    return (
        tuple(sorted(entry.classes)),
        tuple(
            sorted(
                (attr, tuple(sorted(repr(v) for v in entry.values(attr))))
                for attr in entry.attributes()
            )
        ),
    )


class ConsistencyReport:
    """What one schedule did and which invariants held."""

    def __init__(self, seed: int, ack: str, durable: bool):
        self.seed = seed
        self.ack = ack
        self.durable = durable
        self.steps = 0
        self.writes_acked = 0
        self.writes_unacked = 0
        self.writes_lost_unacked = 0
        #: Acked writes lost on failover -- only possible (and only
        #: tolerated) at ack="primary".
        self.writes_lost_acked = 0
        self.reads = 0
        self.syncs = 0
        self.failovers = 0
        self.fenced_rejections = 0
        self.process_crashes = 0
        self.resyncs = 0
        self.final_epoch = 1
        #: Invariant name -> held?  (filled by the final check pass).
        self.checks: Dict[str, bool] = {}
        self.violations: List[str] = []

    @property
    def ok(self) -> bool:
        return not self.violations

    def violate(self, message: str) -> None:
        self.violations.append(message)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "ack": self.ack,
            "durable": self.durable,
            "ok": self.ok,
            "steps": self.steps,
            "writes_acked": self.writes_acked,
            "writes_unacked": self.writes_unacked,
            "writes_lost_acked": self.writes_lost_acked,
            "writes_lost_unacked": self.writes_lost_unacked,
            "reads": self.reads,
            "syncs": self.syncs,
            "failovers": self.failovers,
            "fenced_rejections": self.fenced_rejections,
            "process_crashes": self.process_crashes,
            "resyncs": self.resyncs,
            "final_epoch": self.final_epoch,
            "checks": dict(self.checks),
            "violations": list(self.violations),
        }

    def __repr__(self) -> str:
        return "ConsistencyReport(seed=%d, %s, steps=%d, epoch=%d, %s)" % (
            self.seed, self.ack, self.steps, self.final_epoch,
            "ok" if self.ok else "%d VIOLATIONS" % len(self.violations),
        )


class ConsistencyHarness:
    """One seeded schedule over one replication group.

    ``steps`` bounds the schedule length; ``durable_dir`` (a fresh
    directory path) puts a real WAL under the primary and adds mid-commit
    process crashes + recovery to the fault mix.  ``metrics`` should be a
    private :class:`~repro.obs.metrics.MetricsRegistry` when harnesses
    run in bulk.
    """

    def __init__(
        self,
        seed: int = 0,
        secondaries: int = 2,
        steps: int = 48,
        ack: str = "quorum",
        durable_dir: Optional[str] = None,
        metrics=None,
        log=None,
    ):
        self.seed = seed
        self.steps = steps
        self.rng = random.Random(seed)
        self.schema = synthetic_schema()
        self.context = DN.parse(CONTEXT)
        self.plan = FaultPlan(seed=seed + 1)
        self.injector = FaultInjector(self.plan, metrics=metrics)
        self.replicated = ReplicatedContext(
            self.context,
            self.schema,
            secondaries=secondaries,
            network=self.injector,
            ack=ack,
            durable_dir=durable_dir,
            metrics=metrics,
            log=log,
        )
        self.router = AvailabilityRouter(self.replicated)
        self.report = ConsistencyReport(seed, ack, durable_dir is not None)
        #: lsn -> committed record of the *current* lineage (truncated to
        #: the fork lsn on every failover).
        self.lineage: Dict[int, ChangeRecord] = {}
        #: lsns acknowledged to the client at the configured ack level.
        self.acked: Set[int] = set()
        #: node name -> simulated-clock time its crash window ends.
        self.down: Dict[str, float] = {}
        #: Latest end of any fault window (crash or partition) -- the
        #: final heal must run the clock past it.
        self._fault_horizon = 0.0
        self._next_id = 0

    # -- the oracle ----------------------------------------------------------

    def _replay(self, upto_lsn: Optional[int] = None) -> Dict[DN, Tuple]:
        """The oracle's state: the lineage folded up to ``upto_lsn``."""
        state: Dict[DN, Tuple] = {}
        for lsn in sorted(self.lineage):
            if upto_lsn is not None and lsn > upto_lsn:
                break
            record = self.lineage[lsn]
            if record.kind == "delete":
                if record.subtree:
                    for dn in [d for d in state if record.dn.is_prefix_of(d)]:
                        del state[dn]
                else:
                    state.pop(record.dn, None)
            else:
                state[record.dn] = _entry_digest(record.entry)
        return state

    def _node_state(self, node) -> Dict[DN, Tuple]:
        node.directory.compact()
        return {
            entry.dn: _entry_digest(entry)
            for entry in node.directory.store.scan_all()
        }

    @contextmanager
    def _capture(self):
        """Collect the records the primary commits inside the block: the
        oracle learns each write from the primary's own record stream."""
        committed: List[ChangeRecord] = []
        directory = self.replicated.primary.directory
        directory.add_record_listener(committed.append)
        try:
            yield committed
        finally:
            directory.remove_record_listener(committed.append)

    def _record_commit(self, committed: List[ChangeRecord], acked: bool) -> None:
        record = committed[-1]
        self.lineage[record.lsn] = record
        if acked:
            self.acked.add(record.lsn)
            self.report.writes_acked += 1
        else:
            self.report.writes_unacked += 1

    # -- schedule steps ------------------------------------------------------

    def _write(self) -> None:
        ctx = self.replicated
        state = self._replay()
        roll = self.rng.random()
        with self._capture() as committed:
            try:
                if roll < 0.6 or not state:
                    parent = (
                        self.rng.choice(sorted(state))
                        if state and self.rng.random() < 0.3
                        else self.context
                    )
                    name = "w%d" % self._next_id
                    self._next_id += 1
                    ctx.add(
                        parent.child("name=%s" % name),
                        ["item"],
                        {"name": [name], "weight": [self.rng.randint(0, 99)]},
                    )
                elif roll < 0.85:
                    dn = self.rng.choice(sorted(state))
                    ctx.modify(dn, replace={"weight": [self.rng.randint(0, 99)]})
                else:
                    dn = self.rng.choice(sorted(state))
                    has_children = any(
                        dn.is_prefix_of(other) and other != dn for other in state
                    )
                    ctx.delete(dn, recursive=has_children)
            except ReplicationError as exc:
                if exc.code != ReplicationError.ACK_FAILED:
                    raise
                # Committed locally but under-replicated: NOT acknowledged.
                self._record_commit(committed, acked=False)
                return
            except SimulatedCrash:
                self._recover_primary()
                return
        self._record_commit(committed, acked=True)

    def _sync(self) -> None:
        self.replicated.sync()
        self.report.syncs += 1

    def _read(self) -> None:
        ctx = self.replicated
        limit = self.rng.choice((0, 1, 2, 4))
        query = AtomicQuery(self.context, Scope.SUB, MatchAll())
        try:
            self.router.evaluate(query, max_lag=limit)
        except ReplicationError as exc:
            if exc.code != ReplicationError.NO_REPLICA:
                raise
            return
        self.report.reads += 1
        served = self.router.served_by[-1]
        lag = ctx.lag(served)
        if lag > limit:
            self.report.violate(
                "seed %d: read served by %s at lag %d > max_lag %d"
                % (self.seed, served, lag, limit)
            )
        self._check_prefix(ctx.node(served))

    def _check_prefix(self, node) -> None:
        """A (non-diverged) replica's state must equal the oracle's replay
        up to exactly the replica's applied lsn."""
        if node.needs_resync or node.role == "deposed":
            return  # quarantined until resync -- by design
        expected = self._replay(node.applied_lsn)
        actual = self._node_state(node)
        if actual != expected:
            self.report.violate(
                "seed %d: %s at lsn %d diverges from the oracle prefix "
                "(%d vs %d entries)"
                % (self.seed, node.name, node.applied_lsn,
                   len(actual), len(expected))
            )

    def _fault(self) -> None:
        ctx = self.replicated
        now = self.injector.now
        window = now + self.rng.uniform(2.0, 6.0)
        names = list(ctx.nodes)
        allowed_down = len(names) - ctx.quorum()
        self._fault_horizon = max(self._fault_horizon, window)
        if self.rng.random() < 0.6 and len(self.down) < allowed_down:
            up = [n for n in names if n not in self.down]
            name = self.rng.choice(up)
            self.plan.crash(name, start=now, end=window)
            self.down[name] = window
            self.router.mark_down(name)
        else:
            secondary = self.rng.choice(
                [n.name for n in ctx.secondaries]
            )
            self.plan.partition(ctx.primary_name, secondary, now, window)

    def _expire_downs(self) -> None:
        now = self.injector.now
        for name in [n for n, end in self.down.items() if end <= now]:
            del self.down[name]
            self.router.mark_up(name)

    def _promote(self) -> None:
        ctx = self.replicated
        try:
            new_primary = ctx.promote(exclude=set(self.down))
        except ReplicationError as exc:
            if exc.code != ReplicationError.NO_CANDIDATE:
                raise
            return
        self.report.failovers += 1
        fork_lsn = ctx.node(new_primary).applied_lsn
        lost_acked = sorted(l for l in self.acked if l > fork_lsn)
        lost_unacked = sorted(
            l for l in self.lineage
            if l > fork_lsn and l not in self.acked
        )
        if lost_acked:
            if self.replicated.ack == "primary":
                # Async replication loses the unshipped tail: counted,
                # tolerated -- this is exactly what quorum acks buy you.
                self.report.writes_lost_acked += len(lost_acked)
            else:
                self.report.violate(
                    "seed %d: failover to %s at fork lsn %d lost ACKED "
                    "writes %s under ack=%s"
                    % (self.seed, new_primary, fork_lsn, lost_acked,
                       self.replicated.ack)
                )
        self.report.writes_lost_unacked += len(lost_unacked)
        self.lineage = {
            l: r for l, r in self.lineage.items() if l <= fork_lsn
        }
        self.acked = {l for l in self.acked if l <= fork_lsn}

    def _deposed_attempt(self) -> None:
        """Split-brain probe: a deposed primary tries to write, then to
        ship.  Both must be fenced."""
        ctx = self.replicated
        deposed = [
            n for n in ctx.nodes.values()
            if n.role == "deposed" and n.name not in self.down
        ]
        if not deposed:
            return
        node = self.rng.choice(deposed)
        name = "stale%d" % self._next_id
        self._next_id += 1
        for action, call in (
            ("write", lambda: ctx.write_via(
                node.name, "add", self.context.child("name=%s" % name),
                ["item"], {"name": [name]},
            )),
            ("ship", lambda: ctx.ship_via(node.name)),
        ):
            try:
                call()
            except ReplicationError as exc:
                if exc.code == ReplicationError.FENCED:
                    self.report.fenced_rejections += 1
                    continue
                raise
            self.report.violate(
                "seed %d: SPLIT BRAIN -- deposed %s %s was accepted "
                "at epoch %d" % (self.seed, node.name, action, ctx.epoch)
            )

    def _crash_primary_process(self) -> None:
        """Durable mode only: kill the primary's WAL mid-flush on its next
        write, then recover it from checkpoint + log."""
        wal = getattr(self.replicated.primary.directory, "wal", None)
        if wal is None:
            # After a failover the acting primary may be a plain in-memory
            # secondary: nothing to crash.
            self._write()
            return
        wal.crash_plan = CrashPlan(
            crash_at_flush=wal.flushes,
            torn_bytes=self.rng.randint(0, 48),
        )
        name = "c%d" % self._next_id
        self._next_id += 1
        with self._capture() as committed:
            try:
                self.replicated.add(
                    self.context.child("name=%s" % name), ["item"], {"name": [name]}
                )
            except (SimulatedCrash, ReplicationError):
                # The crash may surface directly or -- at quorum -- as a
                # failed ship from the crashed WAL; either way: recover.
                self._recover_primary()
                return
        # The plan's flush index had already passed: no crash, a normal
        # acked write.
        wal.crash_plan = None
        self._record_commit(committed, acked=True)

    def _recover_primary(self) -> None:
        ctx = self.replicated
        self.report.process_crashes += 1
        node = ctx.reopen_primary()
        head = node.applied_lsn
        survived = {r.lsn: r for r in node.applied}
        # Records that were durable but never acknowledged (the crash beat
        # the ack) are still part of the lineage -- they will ship.
        for lsn, record in survived.items():
            self.lineage.setdefault(lsn, record)
        lost_acked = sorted(l for l in self.acked if l > head)
        if lost_acked:
            self.report.violate(
                "seed %d: primary crash recovery at lsn %d lost ACKED "
                "writes %s (ack precedes durability?)"
                % (self.seed, head, lost_acked)
            )
        self.lineage = {l: r for l, r in self.lineage.items() if l <= head}
        self.acked = {l for l in self.acked if l <= head}

    # -- the run -------------------------------------------------------------

    def run(self) -> ConsistencyReport:
        ctx = self.replicated
        durable = self.report.durable
        for _step in range(self.steps):
            self.report.steps += 1
            self._expire_downs()
            if ctx.primary_name in self.down:
                self._promote()
                self.injector.sleep(1.0)
                continue
            roll = self.rng.random()
            if roll < 0.40:
                self._write()
            elif roll < 0.60:
                self._sync()
            elif roll < 0.75:
                self._read()
            elif roll < 0.85:
                self._fault()
            elif roll < 0.93 or not durable:
                self._deposed_attempt()
            else:
                self._crash_primary_process()
            self.injector.sleep(1.0)
        self._finish()
        return self.report

    def _finish(self) -> None:
        ctx = self.replicated
        # Heal: run the clock past every open window, bring routing back.
        horizon = max(
            [self.injector.now, self._fault_horizon] + list(self.down.values())
        )
        self.injector.sleep(horizon - self.injector.now + 1.0)
        self._expire_downs()
        before = len(self.report.violations)
        # Converge: resyncs land in round one, suffixes in round two.
        for _round in range(3):
            self._sync()
            if all(ctx.lag(n.name) == 0 for n in ctx.secondaries):
                break
        oracle = self._replay()
        for node in ctx.nodes.values():
            if ctx.lag(node.name) != 0 or node.needs_resync:
                self.report.violate(
                    "seed %d: %s never converged (lag %d, needs_resync=%r)"
                    % (self.seed, node.name, ctx.lag(node.name),
                       node.needs_resync)
                )
                continue
            state = self._node_state(node)
            if state != oracle:
                self.report.violate(
                    "seed %d: %s converged to a different state than the "
                    "oracle (%d vs %d entries)"
                    % (self.seed, node.name, len(state), len(oracle))
                )
        self.report.checks["convergence"] = (
            len(self.report.violations) == before
        )
        self._check_ship_log()
        self.report.checks["acked_write_durability"] = not any(
            "ACKED" in v for v in self.report.violations
        )
        self.report.checks["no_split_brain"] = not any(
            "SPLIT BRAIN" in v for v in self.report.violations
        )
        self.report.checks["bounded_staleness"] = not any(
            "max_lag" in v for v in self.report.violations
        )
        self.report.checks["prefix_consistency"] = not any(
            "oracle prefix" in v for v in self.report.violations
        )
        self.report.resyncs = ctx.resyncs
        self.report.final_epoch = ctx.epoch

    def _check_ship_log(self) -> None:
        """Per replica, shipped batches must move forward: epochs never
        decrease and within one epoch batches never overlap."""
        ok = True
        group_epoch = 0
        last: Dict[str, Tuple[int, int]] = {}
        for kind, epoch, name, from_lsn, to_lsn in self.replicated.ship_log:
            if epoch < group_epoch:
                self.report.violate(
                    "seed %d: group epoch went backwards (%d after %d)"
                    % (self.seed, epoch, group_epoch)
                )
                ok = False
            group_epoch = max(group_epoch, epoch)
            if kind == "promote":
                continue
            prev_epoch, prev_to = last.get(name, (0, -1))
            if epoch < prev_epoch:
                self.report.violate(
                    "seed %d: %s shipped at epoch %d after epoch %d"
                    % (self.seed, name, epoch, prev_epoch)
                )
                ok = False
            if kind == "ship" and epoch == prev_epoch and from_lsn <= prev_to:
                self.report.violate(
                    "seed %d: overlapping ship to %s within epoch %d "
                    "(lsn %d after %d)"
                    % (self.seed, name, epoch, from_lsn, prev_to)
                )
                ok = False
            last[name] = (epoch, to_lsn)
        self.report.checks["monotone_epoch_lsn"] = ok


def run_matrix(
    seeds,
    secondaries: int = 2,
    steps: int = 48,
    ack: str = "quorum",
    durable_root: Optional[str] = None,
    log=None,
) -> List[ConsistencyReport]:
    """Run one harness per seed (each with a private metrics registry);
    ``durable_root`` gives every schedule its own durable data dir under
    it.  Returns the reports in seed order."""
    import os

    from ..obs.metrics import MetricsRegistry

    reports = []
    for seed in seeds:
        durable_dir = None
        if durable_root is not None:
            durable_dir = os.path.join(durable_root, "seed%d" % seed)
        harness = ConsistencyHarness(
            seed=seed,
            secondaries=secondaries,
            steps=steps,
            ack=ack,
            durable_dir=durable_dir,
            metrics=MetricsRegistry(),
            log=log,
        )
        reports.append(harness.run())
    return reports
