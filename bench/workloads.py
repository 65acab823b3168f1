"""Seeded inputs: the directory instance, the query pool and the op scripts.

Everything a workload sends to the service is built here from ``--seed``;
the service only ever receives the generated query strings and write
arguments.  What sets an op's cost -- its category (dealt as exact quotas,
largest remainder), operator, filter classes, pool rank, position in the
script -- is drawn from a seed-independent ``structure`` stream; the seed
picks *which* nodes and constants fill that structure.  Two seeds therefore
send different inputs that hold the same amount of work, which keeps the
seed-to-seed spread of the timing metrics inside their regression bounds.

A run is a number of *passes* over one script (:meth:`Workload.next_pass`),
so that op ``i`` is the same op in every pass and the harness can take each
op's fastest pass.  The read-only scripts are replayed as they are
(read_scan with the result cache emptied before each pass, so that a pass
misses as a never-repeating stream would).  Writes cannot be replayed: for
write_read the structure stream restarts with every pass while the seeded
stream runs on, so a write slot keeps its kind, its place and its read-back
and gets a fresh victim.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from itertools import accumulate, product
from typing import Dict, Iterable, List, NamedTuple, Optional

from repro.workload import balanced_instance

__all__ = [
    "FULL", "SMOKE", "WORKLOADS", "Op", "Sizes", "Tree", "Workload",
    "SEARCH", "READBACK", "MODIFY", "ADD", "DELETE", "WRITES",
]

FANOUT = 4
REF_DENSITY = 0.3
POOL_SIZE = 64
ZIPF_S = 1.0

WORKLOADS = ("read_hot", "read_scan", "write_read")

SEARCH, READBACK, MODIFY, ADD, DELETE = "s", "b", "m", "a", "d"
WRITES = (MODIFY, ADD, DELETE)


class Op(NamedTuple):
    """One scripted operation.  ``target`` is a query string for
    SEARCH/READBACK and a dn string for writes; ``arg`` is the new weight
    (MODIFY) or the attribute dict (ADD)."""

    kind: str
    target: str
    arg: object = None


class Sizes(NamedTuple):
    entries: int
    #: Script slots per pass (a write_read slot is a read or a
    #: write-then-read pair, so its op count is 1.2x the slots).
    slots: Dict[str, int]
    #: What one pass takes on the 2-core reference box; only used to turn
    #: ``--seconds`` into a pass count.
    pass_seconds: Dict[str, float]
    #: Write-then-read pairs in the write probe (the read-only workloads
    #: replay it a few times after their timed passes).
    probe_pairs: int
    #: Passes in the traced run.
    trace_passes: Dict[str, int]
    #: The most passes a run makes, where there is a reason for one.
    max_passes: Dict[str, int]


# Slot counts deal every category quota exactly (_SCAN_MIX: multiples of
# 240; _WRITE_MIX: 40 pairs = 200 slots).
FULL = Sizes(
    20000,
    {"read_hot": 4000, "read_scan": 240, "write_read": 200},
    {"read_hot": 0.43, "read_scan": 1.5, "write_read": 0.62},
    10,
    {"read_hot": 5, "read_scan": 2, "write_read": 4},
    # Pager._freed keeps every page id a compaction ever freed (README,
    # "Known defects"); around 30 passes of writes the set doubles to 16 MiB
    # and peak_rss_mb would land on either side of that step by seed.
    {"write_read": 24},
)
SMOKE = Sizes(
    2000,
    {"read_hot": 600, "read_scan": 120, "write_read": 60},
    {"read_hot": 1.0, "read_scan": 1.0, "write_read": 1.0},
    4,
    {"read_hot": 1, "read_scan": 1, "write_read": 1},
    {},
)


def quota_deck(n: int, weights: Dict[object, float], rng: random.Random) -> List:
    """``n`` keys dealt in exact proportion to ``weights`` (largest
    remainder), shuffled with ``rng``."""
    total = float(sum(weights.values()))
    shares = [(key, n * weight / total) for key, weight in weights.items()]
    deck: List = []
    for key, share in shares:
        deck.extend([key] * int(share))
    by_remainder = sorted(shares, key=lambda item: item[1] - int(item[1]), reverse=True)
    for key, _share in by_remainder[: n - len(deck)]:
        deck.append(key)
    rng.shuffle(deck)
    return deck


class Tree:
    """Index arithmetic over ``balanced_instance``: entry ``i`` is named
    ``e<i>`` and its parent is entry ``(i - 1) // FANOUT``."""

    def __init__(self, instance):
        self.instance = instance
        self.size = len(instance)
        #: Entries carrying a dn-valued ``ref`` -- never write victims on a
        #: durable service (see README: WAL dn-encoding defect).
        self.has_ref = frozenset(
            int(entry.first("name")[1:]) for entry in instance if entry.has("ref")
        )
        self.levels: List[range] = []
        first, width = 0, 1
        while first < self.size:
            self.levels.append(range(first, min(first + width, self.size)))
            first += width
            width *= FANOUT

    def dn(self, index: int) -> str:
        parts = ["name=e%d" % index]
        while index > 0:
            index = (index - 1) // FANOUT
            parts.append("name=e%d" % index)
        return ", ".join(parts)

    def children(self, index: int) -> range:
        first = index * FANOUT + 1
        return range(min(first, self.size), min(first + FANOUT, self.size))

    def subtree(self, index: int) -> List[int]:
        out = [index]
        for node in out:
            out.extend(self.children(node))
        return out

    def full(self, depth: int) -> List[int]:
        """The nodes of one level whose subtrees are complete (the last
        level of the tree is partly filled, so the rightmost subtrees are
        smaller): bases of equal weight whichever one a seed picks."""
        sizes = {node: len(self.subtree(node)) for node in self.levels[depth]}
        return [node for node, size in sizes.items() if size == max(sizes.values())]

    def ancestors(self, index: int) -> Iterable[int]:
        while index > 0:
            index = (index - 1) // FANOUT
            yield index

    def attributes(self, index: int) -> Dict[str, list]:
        entry = self.instance.get(self.dn(index))
        return {
            attr: list(entry.values(attr))
            for attr in entry.attributes()
            if attr != "objectClass"
        }


# -- query text ---------------------------------------------------------------

_KINDS = ("alpha", "beta", "gamma", "delta")


# Atomic filters by selectivity class on ``balanced_instance`` data.  The
# class is a structural choice (it sets how much work a query is); the
# constant inside it is free for the seed to pick.
_FILTERS = {
    "few": lambda rng: "name=*%d*" % rng.randint(10, 99),  # ~4%
    "tenth": lambda rng: "level=%d" % rng.randint(0, 9),
    "quarter": lambda rng: "kind=%s" % rng.choice(_KINDS),
    "third": lambda rng: "ref=*",
    "half": lambda rng: "weight%s%d" % (rng.choice(("<", ">=")), rng.randint(46, 55)),
}
_ANY_FILTER = {"few": 10, "tenth": 15, "quarter": 30, "third": 10, "half": 35}
_NARROW_FILTER = {"few": 1, "tenth": 1}


def _pick(rng: random.Random, weights: Dict[str, float]) -> str:
    return rng.choices(list(weights), list(weights.values()))[0]


def _atomic(base: str, scope: str, filter_: str) -> str:
    return "(%s ? %s ? %s)" % (base, scope, filter_)


_AGG_SIMPLE = (
    "min(weight)=min(min(weight))",
    "max(weight)=max(max(weight))",
    "count(ref) > 0",
)


def _query(rng: random.Random, shape: str, base: str, scope: str,
           structure: Optional[random.Random] = None,
           filters: Dict[str, float] = _ANY_FILTER) -> str:
    """One query string of the given shape over one base.  ``structure``
    draws what sets the query's cost (operator, filter classes) and
    ``rng`` the constants; the pool passes a seed-independent
    ``structure`` so every seed's rank-k query is the same amount of work.
    Boolean operands share the drawn scope; witness operands of
    hierarchical, aggregate and embedded-reference operators always range
    over the whole subtree."""
    structure = structure or rng

    def leaf(leaf_scope: str = scope) -> str:
        return _atomic(base, leaf_scope, _FILTERS[_pick(structure, filters)](rng))

    if shape == "atomic":
        return leaf()
    if shape == "boolean":
        return "(%s %s %s)" % (structure.choice("&|-"), leaf(), leaf())
    if shape == "hier":
        op = structure.choice(("p", "c", "a", "d", "ac", "dc"))
        operands = [leaf(), leaf("sub")] + ([leaf("sub")] if len(op) == 2 else [])
        return "(%s %s)" % (op, " ".join(operands))
    if shape == "agg":
        if structure.random() < 0.5:
            return "(g %s %s)" % (leaf(), structure.choice(_AGG_SIMPLE))
        return "(%s %s %s count($2) > %d)" % (
            structure.choice("cd"), leaf(), leaf("sub"), structure.randint(0, 2)
        )
    if shape == "eref":
        if structure.random() < 0.5:
            return "(vd %s %s ref)" % (_atomic(base, scope, "ref=*"), leaf("sub"))
        return "(dv %s %s ref)" % (leaf(), _atomic(base, "sub", "ref=*"))
    raise ValueError(shape)


# Exact category quotas.  read_scan: ISSUE 11's mix; the pool: small
# L0/L1 results over sub/one scopes (a base-scope footprint is one point,
# so a write below it would not invalidate the read-back).
_SCAN_MIX = {
    (shape, scope, depth): shape_w * scope_w
    for (shape, shape_w), (scope, scope_w), depth in product(
        (("atomic", 40), ("boolean", 20), ("hier", 25), ("agg", 10), ("eref", 5)),
        (("sub", 2), ("one", 1), ("base", 1)),
        (1, 2, 3),
    )
}
_POOL_MIX = {
    (shape, scope, depth): shape_w * scope_w * depth_w
    for (shape, shape_w), (scope, scope_w), (depth, depth_w) in product(
        (("atomic", 2), ("boolean", 1), ("hier", 1)),
        (("sub", 3), ("one", 1)),
        ((3, 1), (4, 3), (5, 4)),
    )
}
_WRITE_MIX = {
    (kind, inside): kind_w * inside_w
    for (kind, kind_w), (inside, inside_w) in product(
        ((MODIFY, 6), (ADD, 3), (DELETE, 1)), ((True, 3), (False, 1))
    )
}


class Pool:
    """The hot set: ``POOL_SIZE`` distinct query strings with Zipf(1.0)
    popularity.  Which (shape, scope, depth) sits at which rank is fixed
    across seeds; the seed picks the base node and the filter constants."""

    def __init__(self, tree: Tree, seed: int):
        rng = random.Random("pool/%d" % seed)
        structure = random.Random(0)
        layout = quota_deck(POOL_SIZE, _POOL_MIX, structure)
        self.queries: List[str] = []
        self.bases: List[int] = []
        taken = set()
        for shape, scope, depth in layout:
            level = tree.levels[min(depth, len(tree.levels) - 1)]
            base = rng.choice(level)
            while base in taken:
                base = rng.choice(level)
            taken.add(base)
            self.bases.append(base)
            self.queries.append(_query(
                rng, shape, tree.dn(base), scope, structure,
                _NARROW_FILTER if depth <= 3 else _ANY_FILTER,
            ))
        weights = [1.0 / (rank ** ZIPF_S) for rank in range(1, POOL_SIZE + 1)]
        total = sum(weights)
        self._cdf = list(accumulate(weight / total for weight in weights))
        #: Nodes inside a pool subtree or above a pool base: a write there
        #: can invalidate a pool query.
        self.covered = set()
        for base in self.bases:
            self.covered.update(tree.subtree(base))
            self.covered.update(tree.ancestors(base))

    def draw(self, rng: random.Random) -> int:
        return min(bisect_left(self._cdf, rng.random()), POOL_SIZE - 1)


class Workload:
    """One workload's input generator.  :meth:`next_pass` deals the next
    pass's ops and :meth:`next_probe_pass` the next pass over the write
    probe.  ``touched`` mirrors every scripted write -- the final
    attributes of each written dn, None once deleted -- and is the verify
    pass's model of what the service must hold."""

    def __init__(self, name: str, seed: int, sizes: Sizes):
        if name not in WORKLOADS:
            raise ValueError("unknown workload %r" % name)
        self.name = name
        self.sizes = sizes
        self.durable = name == "write_read"
        #: The harness empties the result cache before each pass.
        self.cold = name == "read_scan"
        self.instance = balanced_instance(
            sizes.entries, fanout=FANOUT, ref_density=REF_DENSITY, seed=seed
        )
        self.tree = Tree(self.instance)
        self.pool = Pool(self.tree, seed)
        self._rng = random.Random("%s/%d" % (name, seed))
        self.touched: Dict[str, Optional[Dict[str, list]]] = {}
        self._added: List[str] = []  # dns this run added (never parents)
        self._parents = set()  # dns that were given a child
        self._new_names = 0
        self._replayed: List[Op] = []
        depth = min(4, len(self.tree.levels) - 2)
        self._outside = [
            node for node in self.tree.levels[depth] if node not in self.pool.covered
        ]

    # -- scripts --------------------------------------------------------------

    def next_pass(self) -> List[Op]:
        slots = self.sizes.slots[self.name]
        structure = random.Random("structure/%s" % self.name)
        if self.name == "write_read":
            return self._write_read_pass(slots, structure)
        if not self._replayed and self.name == "read_hot":
            self._replayed = [self._pool_read(SEARCH, structure) for _ in range(slots)]
        elif not self._replayed:
            self._replayed = self._scan_script(slots, structure)
        return self._replayed

    def warmup(self) -> List[Op]:
        """Every pool query once (fills the cache on the pool workloads,
        builds the engine and statistics everywhere)."""
        return [Op(SEARCH, text) for text in self.pool.queries]

    def next_probe_pass(self) -> List[Op]:
        """Write-then-read pairs for the workloads whose scripts hold no
        writes: modify one entry, then read a query over a base above it
        -- the write evicted whatever covered it, a certain cache miss, so
        the read-back pays for the write it follows.  One write kind only:
        a p50 over a few dozen samples of three kinds would mostly measure
        their mix."""
        ops: List[Op] = []
        rng = self._rng
        for _ in range(self.sizes.probe_pairs):
            region = rng.choice(self._outside)
            ops.append(self._write(MODIFY, region))
            ops.append(Op(
                READBACK,
                _atomic(self.tree.dn(region), "sub", "weight>=%d" % rng.randint(0, 100)),
            ))
        return ops

    def _pool_read(self, kind: str, structure: random.Random) -> Op:
        return Op(kind, self.pool.queries[self.pool.draw(structure)])

    def _scan_script(self, slots: int, structure: random.Random) -> List[Op]:
        rng, tree = self._rng, self.tree
        bases = {depth: tree.full(depth) for depth in (1, 2, 3)}
        ops = []
        for shape, scope, depth in quota_deck(slots, _SCAN_MIX, structure):
            base = tree.dn(rng.choice(bases[depth]))
            ops.append(Op(SEARCH, _query(rng, shape, base, scope, structure)))
        return ops

    def _write_read_pass(self, slots: int, structure: random.Random) -> List[Op]:
        pairs = quota_deck(slots // 5, _WRITE_MIX, structure)
        deck = [None] * (slots - len(pairs)) + pairs
        structure.shuffle(deck)
        ops: List[Op] = []
        for pair in deck:
            if pair is None:
                ops.append(self._pool_read(SEARCH, structure))
                continue
            kind, inside = pair
            if inside:
                # The read-back is the pool query whose subtree holds the
                # written dn: the write invalidated it, so it re-evaluates.
                member = self._member_with_victim(kind, structure)
                ops.append(self._write(kind, self.pool.bases[member]))
                ops.append(Op(READBACK, self.pool.queries[member]))
            else:
                ops.append(self._write(kind, self._rng.choice(self._outside)))
                ops.append(self._pool_read(READBACK, structure))
        return ops

    # -- writes ---------------------------------------------------------------

    def _live(self, index: int) -> bool:
        dn = self.tree.dn(index)
        return dn not in self.touched or self.touched[dn] is not None

    def _victims(self, kind: str, region: int) -> List:
        """Eligible targets of one write kind inside ``region``'s subtree:
        original entries by index (never one carrying ``ref``), plus --
        for deletes -- the dns this run added there."""
        tree = self.tree
        nodes = [node for node in tree.subtree(region) if self._live(node)]
        if kind == ADD:
            return nodes  # any live node can take a child
        plain = [node for node in nodes if node not in tree.has_ref]
        if kind == MODIFY:
            return plain
        leaves = [
            node for node in plain
            if not tree.children(node) and tree.dn(node) not in self._parents
        ]
        below = ", " + tree.dn(region)
        return leaves + [
            dn for dn in self._added
            if dn.endswith(below) and self.touched[dn] is not None
        ]

    def _member_with_victim(self, kind: str, structure: random.Random) -> int:
        order = list(range(POOL_SIZE))
        structure.shuffle(order)
        for member in order:
            if self._victims(kind, self.pool.bases[member]):
                return member
        raise RuntimeError("no pool subtree has a %r victim left" % kind)

    def _write(self, kind: str, region: int) -> Op:
        rng, tree = self._rng, self.tree
        victim = rng.choice(self._victims(kind, region))
        if kind == ADD:
            self._new_names += 1
            name = "w%d" % self._new_names
            parent = tree.dn(victim)
            dn = "name=%s, %s" % (name, parent)
            attrs = {
                "name": [name],
                "kind": [rng.choice(_KINDS)],
                "level": [rng.randint(0, 9)],
                "weight": [rng.randint(0, 100)],
            }
            self.touched[dn] = attrs
            self._added.append(dn)
            self._parents.add(parent)
            return Op(ADD, dn, attrs)
        dn = victim if isinstance(victim, str) else tree.dn(victim)
        if kind == DELETE:
            self.touched[dn] = None
            return Op(DELETE, dn)
        weight = rng.randint(0, 100)
        attrs = self.touched.get(dn) or tree.attributes(victim)
        self.touched[dn] = dict(attrs, weight=[weight])
        return Op(MODIFY, dn, weight)
