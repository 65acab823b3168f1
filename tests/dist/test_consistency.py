"""The replication group as a hypothesis state machine.

:class:`ReplicationMachine` drives one :class:`ReplicatedContext` over a
:class:`FaultInjector`: client writes (add, modify, subtree delete),
``sync``, ``max_lag`` reads through the :class:`AvailabilityRouter`,
crash and partition windows, clock ticks that fail over a crashed
primary, writes and ships by a deposed primary and -- durable primary
only -- mid-commit WAL crashes followed by ``reopen_primary``.  An oracle
keeps the lineage of committed records (by lsn) and the acknowledged
lsns; six named checks hold the group to it:

- ``prefix_consistency`` (every step): a replica outside quarantine
  (``needs_resync`` or deposed) holds the lineage replayed up to its
  applied lsn, and a read returns that state;
- ``monotone_epoch_lsn`` (every step): the group epoch never goes back;
  per replica, shipped batches never go back in epoch nor overlap;
- ``acked_write_durability`` (each promotion and recovery): no acked lsn
  is cut from the lineage -- at ``ack="primary"`` a failover may lose
  acked writes by design, so they are counted instead;
- ``no_split_brain`` (deposed write / ship): both are fenced;
- ``bounded_staleness`` (read): the server lags at most ``max_lag``;
- ``convergence`` (teardown): healed and synced, every node equals the
  oracle's full replay.

Tier-1 runs each configuration derandomized: a failure replays by
rerunning the test, and hypothesis prints the shrunk step sequence (it
replays on ``ReplicationMachine(ack=..., durable=...)`` of the failing
test).  ``--hypothesis-seed=N`` draws other schedules; the same seed
replays them.
"""

import shutil
import tempfile
from collections import Counter

import pytest
from hypothesis import HealthCheck, seed as fixed_seed, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.dist import (
    AvailabilityRouter,
    ReplicatedContext,
    ReplicationError,
)
from repro.filters.ast import MatchAll
from repro.model.dn import DN
from repro.query.ast import AtomicQuery, Scope
from repro.txn.durable import DurableDirectory
from repro.txn.wal import CrashPlan, SimulatedCrash
from repro.workload import synthetic_schema

from tests.dist.faults import FaultInjector, FaultPlan

CONTEXT = DN.parse("ou=replicated, o=paper")
EVERYTHING = AtomicQuery(CONTEXT, Scope.SUB, MatchAll())
CHECKS = (
    "prefix_consistency", "monotone_epoch_lsn", "acked_write_durability",
    "no_split_brain", "bounded_staleness", "convergence",
)
EXAMPLES = 60
STEPS = 50


def entry_digest(entry):
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


def node_state(node):
    """A node's entries through a pinned view: reading never compacts."""
    with node.directory.acquire_view() as view:
        return {entry.dn: entry_digest(entry) for entry in view.scan_all()}


class Tally:
    """What a run did (``events``) and how often each check ran."""

    def __init__(self):
        self.events = Counter()
        self.checks = Counter()


class ReplicationMachine(RuleBasedStateMachine):
    """One replication group under chaos, checked against the oracle."""

    def __init__(self, ack="quorum", durable=False, tally=None):
        super().__init__()
        self.tally = tally if tally is not None else Tally()
        self.data_dir = tempfile.mkdtemp(prefix="replication-") if durable else None
        self.plan = FaultPlan()
        self.injector = FaultInjector(self.plan)
        self.replicated = ReplicatedContext(
            CONTEXT, synthetic_schema(), secondaries=2, network=self.injector,
            ack=ack, durable_dir=self.data_dir,
        )
        self.router = AvailabilityRouter(self.replicated)
        #: lsn -> committed record of the current lineage (cut at every
        #: failover's fork lsn and every recovery's head).
        self.lineage = {}
        #: lsns acknowledged to the client at the configured ack level.
        self.acked = set()
        #: node name -> clock time its crash window ends.
        self.down = {}
        #: Latest end of any fault window: the final heal runs past it.
        self.horizon = 0.0
        #: ship_log entries already checked, and what they established.
        self.shipped = 0
        self.group_epoch = 0
        self.last_ship = {}
        self.next_id = 0
        #: Set by a failed check; teardown then skips convergence, so the
        #: report is the first violation.
        self.violated = False

    # -- the oracle ----------------------------------------------------------

    def _replay(self, upto_lsn=None):
        """The oracle's state: the lineage folded up to ``upto_lsn``."""
        state = {}
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
                state[record.dn] = entry_digest(record.entry)
        return state

    def _check(self, name, ok, message):
        self.tally.checks[name] += 1
        if not ok:
            self.violated = True
            raise AssertionError("%s: %s" % (name, message))

    def _cut(self, head, event, tolerated=False):
        """Cut the lineage at ``head`` (a failover's fork or a recovered
        log's end); an acked lsn above it is a lost acknowledged write."""
        lost = sorted(lsn for lsn in self.acked if lsn > head)
        if tolerated:
            self.tally.events["lost_acked"] += len(lost)
        else:
            self._check(
                "acked_write_durability", not lost,
                "%s at lsn %d lost acked writes %s under ack=%s"
                % (event, head, lost, self.replicated.ack),
            )
        self.tally.events["lost_unacked"] += sum(
            1 for lsn in self.lineage if lsn > head and lsn not in self.acked
        )
        self.lineage = {lsn: r for lsn, r in self.lineage.items() if lsn <= head}
        self.acked = {lsn for lsn in self.acked if lsn <= head}

    def _fresh(self, prefix):
        self.next_id += 1
        return "%s%d" % (prefix, self.next_id)

    def _primary_up(self):
        return self.replicated.primary_name not in self.down

    def _deposed(self):
        return [
            node.name for node in self.replicated.nodes.values()
            if node.role == "deposed" and node.name not in self.down
        ]

    def _wal(self):
        # After a failover the acting primary may be an in-memory node.
        return getattr(self.replicated.primary.directory, "wal", None)

    def _commit(self, write):
        """Run one client write through the primary; the oracle learns the
        record from the primary's own stream.  A SimulatedCrash propagates
        with the record unseen."""
        committed = []
        directory = self.replicated.primary.directory
        directory.add_record_listener(committed.append)
        try:
            write(self.replicated)
            acked = True
        except ReplicationError as exc:
            if exc.code != ReplicationError.ACK_FAILED:
                raise
            acked = False  # committed locally, under-replicated: not acked
        finally:
            directory.remove_record_listener(committed.append)
        record = committed[-1]
        self.lineage[record.lsn] = record
        if acked:
            self.acked.add(record.lsn)
        self.tally.events["writes_acked" if acked else "writes_unacked"] += 1

    def _expire(self):
        now = self.injector.now
        for name in [n for n, end in self.down.items() if end <= now]:
            del self.down[name]
            self.router.mark_up(name)

    # -- client writes -------------------------------------------------------

    @precondition(lambda self: self._primary_up())
    @rule(under=st.none() | st.integers(0, 63), weight=st.integers(0, 99))
    def add(self, under, weight):
        state = sorted(self._replay())
        parent = CONTEXT if under is None or not state else state[under % len(state)]
        name = self._fresh("w")
        self._commit(lambda ctx: ctx.add(
            parent.child("name=%s" % name), ["item"],
            {"name": [name], "weight": [weight]},
        ))

    @precondition(lambda self: self._primary_up() and self._replay())
    @rule(pick=st.integers(0, 63), weight=st.integers(0, 99))
    def modify(self, pick, weight):
        state = sorted(self._replay())
        dn = state[pick % len(state)]
        self._commit(lambda ctx: ctx.modify(dn, replace={"weight": [weight]}))

    @precondition(lambda self: self._primary_up() and self._replay())
    @rule(pick=st.integers(0, 63))
    def delete(self, pick):
        state = sorted(self._replay())
        dn = state[pick % len(state)]
        subtree = any(dn.is_prefix_of(other) and other != dn for other in state)
        self._commit(lambda ctx: ctx.delete(dn, recursive=subtree))

    @precondition(lambda self: self._primary_up() and self._wal() is not None)
    @rule(torn=st.integers(0, 48))
    def crash_commit(self, torn):
        """Kill the primary's WAL on this write's flush, then recover the
        primary from checkpoint + log (durable configuration only)."""
        wal = self._wal()
        wal.crash_plan = CrashPlan(crash_at_flush=wal.flushes, torn_bytes=torn)
        name = self._fresh("c")
        try:
            self._commit(lambda ctx: ctx.add(
                CONTEXT.child("name=%s" % name), ["item"], {"name": [name]}
            ))
        except SimulatedCrash:
            self.tally.events["process_crashes"] += 1
        else:
            wal.crash_plan = None
        node = self.replicated.reopen_primary()
        self.tally.events["recoveries"] += 1
        # Durable but unacknowledged records (the crash beat the ack) are
        # part of the lineage: they will ship.
        for record in node.applied:
            self.lineage.setdefault(record.lsn, record)
        self._cut(node.applied_lsn, "recovery of %s" % node.name)

    # -- shipping and reads ----------------------------------------------------

    @precondition(lambda self: self._primary_up())
    @rule()
    def sync(self):
        self.replicated.sync()

    @rule(max_lag=st.sampled_from((0, 1, 2, 4)))
    def read(self, max_lag):
        ctx = self.replicated
        try:
            entries = self.router.evaluate(EVERYTHING, max_lag=max_lag)
        except ReplicationError as exc:
            if exc.code != ReplicationError.NO_REPLICA:
                raise
            return
        self.tally.events["reads"] += 1
        served = ctx.node(self.router.served_by[-1])
        lag = ctx.lag(served.name)
        self._check(
            "bounded_staleness", lag <= max_lag,
            "read served by %s at lag %d > max_lag %d" % (served.name, lag, max_lag),
        )
        if not (served.needs_resync or served.role == "deposed"):
            got = {entry.dn: entry_digest(entry) for entry in entries}
            self._check(
                "prefix_consistency", got == self._replay(served.applied_lsn),
                "read from %s at lsn %d is not the oracle's prefix"
                % (served.name, served.applied_lsn),
            )

    # -- faults and failover ---------------------------------------------------

    @precondition(lambda self: not self.down)  # a quorum of the 3 stays up
    @rule(pick=st.integers(0, 2), length=st.integers(2, 6))
    def crash(self, pick, length):
        """Take one node down (pick 0: the acting primary) for a while."""
        ctx = self.replicated
        name = ([ctx.primary_name] + [node.name for node in ctx.secondaries])[pick]
        now = self.injector.now
        self.plan.crash(name, start=now, end=now + length)
        self.down[name] = now + length
        self.horizon = max(self.horizon, now + length)
        self.router.mark_down(name)

    @rule(pick=st.integers(0, 1), length=st.integers(2, 6))
    def partition(self, pick, length):
        ctx = self.replicated
        other = ctx.secondaries[pick % len(ctx.secondaries)].name
        now = self.injector.now
        self.plan.partition(ctx.primary_name, other, now, now + length)
        self.horizon = max(self.horizon, now + length)

    @rule(seconds=st.integers(1, 4))
    def tick(self, seconds):
        """Time passes; a primary that is still down is failed over."""
        self.injector.sleep(seconds)
        self._expire()
        ctx = self.replicated
        if self._primary_up():
            return
        try:
            name = ctx.promote(exclude=set(self.down))
        except ReplicationError as exc:
            if exc.code != ReplicationError.NO_CANDIDATE:
                raise
            return
        self.tally.events["failovers"] += 1
        self._cut(
            ctx.node(name).applied_lsn, "failover to %s" % name,
            tolerated=ctx.ack == "primary",
        )

    def _split_brain_probe(self, action, attempt):
        fenced = False
        try:
            attempt()
        except ReplicationError as exc:
            if exc.code != ReplicationError.FENCED:
                raise
            fenced = True
            self.tally.events["fenced_%ss" % action] += 1
        self._check(
            "no_split_brain", fenced, "a deposed primary's %s was accepted "
            "at epoch %d" % (action, self.replicated.epoch),
        )

    @precondition(lambda self: self._deposed())
    @rule(pick=st.integers(0, 2))
    def deposed_write(self, pick):
        node = self._deposed()[pick % len(self._deposed())]
        name = self._fresh("stale")
        self._split_brain_probe("write", lambda: self.replicated.write_via(
            node, "add", CONTEXT.child("name=%s" % name), ["item"], {"name": [name]}
        ))

    @precondition(lambda self: self._deposed())
    @rule(pick=st.integers(0, 2))
    def deposed_ship(self, pick):
        node = self._deposed()[pick % len(self._deposed())]
        self._split_brain_probe("ship", lambda: self.replicated.ship_via(node))

    # -- invariants ------------------------------------------------------------

    @invariant()
    def prefix_consistency(self):
        for node in self.replicated.nodes.values():
            if node.needs_resync or node.role == "deposed":
                continue  # quarantined until resynced -- by design
            self._check(
                "prefix_consistency",
                node_state(node) == self._replay(node.applied_lsn),
                "%s at lsn %d diverges from the oracle's prefix"
                % (node.name, node.applied_lsn),
            )

    @invariant()
    def monotone_epoch_lsn(self):
        log = self.replicated.ship_log
        for kind, epoch, name, from_lsn, to_lsn in log[self.shipped:]:
            prev_epoch, prev_to = self.last_ship.get(name, (0, -1))
            forward = epoch >= self.group_epoch and (
                kind == "promote"
                or epoch > prev_epoch
                or (epoch == prev_epoch and (kind == "resync" or from_lsn > prev_to))
            )
            self._check(
                "monotone_epoch_lsn", forward,
                "%s to %s at epoch %d, lsn %d..%d after (epoch %d, lsn %d)"
                % (kind, name, epoch, from_lsn, to_lsn, prev_epoch, prev_to),
            )
            self.group_epoch = epoch
            if kind != "promote":
                self.last_ship[name] = (epoch, to_lsn)
        self.shipped = len(log)

    # -- teardown: heal, converge ----------------------------------------------

    def teardown(self):
        try:
            if not self.violated:
                self._converge()
        finally:
            for node in self.replicated.nodes.values():
                if isinstance(node.directory, DurableDirectory):
                    node.directory.close()
            if self.data_dir is not None:
                shutil.rmtree(self.data_dir, ignore_errors=True)

    def _converge(self):
        ctx = self.replicated
        end = max([self.injector.now, self.horizon] + list(self.down.values()))
        self.injector.sleep(end - self.injector.now + 1.0)
        self._expire()
        # Resyncs land in round one, suffixes in round two.
        for _round in range(3):
            ctx.sync()
            if all(ctx.lag(node.name) == 0 for node in ctx.secondaries):
                break
        self.tally.events["resyncs"] += ctx.resyncs
        oracle = self._replay()
        for node in ctx.nodes.values():
            lag = ctx.lag(node.name)
            self._check(
                "convergence",
                lag == 0 and not node.needs_resync and node_state(node) == oracle,
                "%s did not converge (lag %d, needs_resync=%r)"
                % (node.name, lag, node.needs_resync),
            )


def seeded(request):
    return request.config.getoption("--hypothesis-seed", None) is not None


def run_machine(request, ack="quorum", durable=False, examples=EXAMPLES, seed=None):
    """Run the machine in one configuration and return its tally:
    derandomized unless ``--hypothesis-seed`` is given or ``seed`` pins one."""
    tally = Tally()

    def machine():
        return ReplicationMachine(ack=ack, durable=durable, tally=tally)

    if seed is not None:
        machine = fixed_seed(seed)(machine)
    run_state_machine_as_test(machine, settings=settings(
        max_examples=examples,
        stateful_step_count=STEPS,
        deadline=None,
        database=None,
        derandomize=not seeded(request),
        suppress_health_check=list(HealthCheck),
    ))
    return tally


def assert_real_chaos(request, tally):
    """The derandomized run ran every check, failed over, fenced a deposed
    write and a deposed ship, and resynced a replica."""
    if seeded(request):
        pytest.skip("chaos coverage is pinned on the derandomized run")
    events = tally.events
    assert set(tally.checks) == set(CHECKS), tally.checks
    assert events["failovers"] >= 1, events
    assert events["fenced_writes"] >= 1 and events["fenced_ships"] >= 1, events
    assert events["resyncs"] >= 1, events


@pytest.fixture(scope="module")
def quorum(request):
    return run_machine(request, ack="quorum")


@pytest.fixture(scope="module")
def durable(request):
    return run_machine(request, ack="quorum", durable=True)


class TestQuorumMatrix:
    def test_all_seeds_hold_every_invariant(self, quorum):
        # The run raises on the first violation.
        assert quorum.checks["prefix_consistency"] and quorum.checks["convergence"]

    def test_no_acked_write_is_ever_lost(self, quorum):
        assert quorum.events["lost_acked"] == 0
        assert quorum.checks["acked_write_durability"] == quorum.events["failovers"]
        assert quorum.events["writes_acked"] > 0

    def test_no_split_brain(self, quorum):
        fenced = quorum.events["fenced_writes"] + quorum.events["fenced_ships"]
        assert quorum.checks["no_split_brain"] == fenced

    def test_schedules_exercise_real_chaos(self, request, quorum):
        assert_real_chaos(request, quorum)

    def test_reads_were_checked(self, quorum):
        assert quorum.checks["bounded_staleness"] == quorum.events["reads"] > 0


class TestAllAck:
    def test_every_replica_acks_and_no_acked_write_is_lost(self, request):
        tally = run_machine(request, ack="all")
        assert tally.events["lost_acked"] == 0
        assert tally.checks["acked_write_durability"] == tally.events["failovers"]


class TestAckPrimaryTolerance:
    def test_primary_ack_may_lose_acked_writes_but_tracks_them(self, request):
        tally = run_machine(request, ack="primary")
        # ack="primary" acknowledges before shipping, so a failover may
        # disown acked writes: counted in the tally, never flagged.
        assert tally.events["failovers"] > 0
        assert "acked_write_durability" not in tally.checks


class TestDurableMatrix:
    def test_process_crashes_recover_without_losing_acked_writes(self, durable):
        assert durable.events["lost_acked"] == 0
        assert durable.events["recoveries"] >= durable.events["process_crashes"] > 0

    def test_schedules_exercise_real_chaos(self, request, durable):
        assert_real_chaos(request, durable)


class TestDeterminism:
    def test_same_seed_same_schedule(self, request):
        first = run_machine(request, examples=5)
        second = run_machine(request, examples=5)
        assert (first.events, first.checks) == (second.events, second.checks)

    def test_different_seeds_diverge(self, request):
        first = run_machine(request, examples=5, seed=1)
        second = run_machine(request, examples=5, seed=2)
        assert (first.events, first.checks) != (second.events, second.checks)

    def test_report_shape(self, quorum):
        assert set(quorum.checks) <= set(CHECKS)
        assert set(quorum.events) <= {
            "writes_acked", "writes_unacked", "lost_acked", "lost_unacked",
            "reads", "failovers", "fenced_writes", "fenced_ships", "resyncs",
            "process_crashes", "recoveries",
        }
