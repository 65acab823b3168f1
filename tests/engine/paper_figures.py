"""Literal transcriptions of the paper's algorithm figures.

The engine proper (:mod:`repro.engine.stackjoin`, :mod:`repro.engine.eragg`)
generalises these algorithms to arbitrary aggregates and streams its output
through spill lists.  This module instead transcribes the *published
pseudocode* as closely as Python allows -- same phase structure, same
counter names (``above``, ``below``, ``maxabove``, ``maxnum``), same
push/pop conditions -- over in-memory sorted entry lists:

- :func:`compute_hspc`      -- Figure 2, ``ComputeHSPC`` (parents/children);
- :func:`compute_hsad`      -- Figure 4, ``ComputeHSAD`` (ancestors/descendants);
- :func:`compute_hsadc`     -- Figure 5, ``ComputeHSADc`` (path-constrained);
- :func:`compute_hsagg_ad`  -- Figure 6, ``ComputeHSAggAD`` with the filter
  ``count($2) = max(count($2))``;
- :func:`compute_eragg_dv`  -- Figure 3, ``ComputeERAggDV`` with the same
  filter.

They serve as executable documentation and as independent oracles in the
test suite (three-way agreement: figure transcription == generalised engine
== definitional semantics).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.model.dn import DN
from repro.model.entry import Entry

__all__ = [
    "compute_hspc",
    "compute_hsad",
    "compute_hsadc",
    "compute_hsagg_ad",
    "compute_eragg_dv",
]


def _merge_with_labels(
    lists: Sequence[Sequence[Entry]],
) -> List[Tuple[Entry, frozenset]]:
    """The lexicographic merge of the input lists; ``label(rl) = {i | rl in Li}``."""
    by_key: Dict[Tuple[str, ...], Tuple[Entry, set]] = {}
    for index, entries in enumerate(lists, start=1):
        for entry in entries:
            key = entry.dn.key()
            if key in by_key:
                by_key[key][1].add(index)
            else:
                by_key[key] = (entry, {index})
    return [
        (entry, frozenset(label))
        for _key, (entry, label) in sorted(by_key.items())
    ]


class _StackItem:
    __slots__ = ("entry", "label", "above", "below")

    def __init__(self, entry: Entry, label: frozenset):
        self.entry = entry
        self.label = label
        self.above = 0
        self.below = 0


def compute_hspc(op: str, list1: List[Entry], list2: List[Entry]) -> List[Entry]:
    """Figure 2: ``(p L1 L2)`` / ``(c L1 L2)`` by the stack algorithm."""
    if op not in ("p", "c"):
        raise ValueError("ComputeHSPC computes p or c, not %r" % op)
    merged = _merge_with_labels([list1, list2])
    counts: Dict[Tuple[str, ...], Tuple[int, int]] = {}
    stack: List[_StackItem] = []
    position = 0

    # Phase 1: associate each L1 entry with its parent/child counts in L2.
    while position < len(merged) or stack:
        current = merged[position] if position < len(merged) else None
        if stack:
            rt = stack[-1]
            advancing = (
                current is not None
                and rt.entry.dn.is_ancestor_of(current[0].dn)
            )
            if not advancing:
                if 1 in rt.label:
                    counts[rt.entry.dn.key()] = (rt.above, rt.below)
                stack.pop()
                continue
        assert current is not None
        rl = _StackItem(*current)
        if stack:
            rt = stack[-1]
            is_parent = rt.entry.dn.is_parent_of(rl.entry.dn)
            if 2 in rl.label and is_parent:
                rt.above += 1
            if 2 in rt.label and is_parent:
                rl.below = 1
        stack.append(rl)
        position += 1

    # Phase 2: scan L1 in order and output.
    output = []
    for entry in list1:
        above, below = counts[entry.dn.key()]
        if op == "p" and below > 0:
            output.append(entry)
        elif op == "c" and above > 0:
            output.append(entry)
    return output


def _hsad_counts(
    list1: List[Entry],
    list2: List[Entry],
) -> Dict[Tuple[str, ...], Tuple[int, int]]:
    """Phase 1 of Figure 4: ancestor/descendant counts for every L1 entry."""
    merged = _merge_with_labels([list1, list2])
    counts: Dict[Tuple[str, ...], Tuple[int, int]] = {}
    stack: List[_StackItem] = []
    position = 0
    while position < len(merged) or stack:
        current = merged[position] if position < len(merged) else None
        if stack:
            rt = stack[-1]
            advancing = (
                current is not None
                and rt.entry.dn.is_ancestor_of(current[0].dn)
            )
            if not advancing:
                if 1 in rt.label:
                    counts[rt.entry.dn.key()] = (rt.above, rt.below)
                stack.pop()
                if stack:
                    rb = stack[-1]
                    rb.above += rt.above  # the propagation line of Figure 4
                continue
        assert current is not None
        rl = _StackItem(*current)
        if stack:
            rt = stack[-1]
            if 2 in rl.label:
                rt.above += 1
            if 2 in rt.label:
                rl.below = rt.below + 1
            else:
                rl.below = rt.below
        stack.append(rl)
        position += 1
    return counts


def compute_hsad(op: str, list1: List[Entry], list2: List[Entry]) -> List[Entry]:
    """Figure 4: ``(a L1 L2)`` / ``(d L1 L2)``."""
    if op not in ("a", "d"):
        raise ValueError("ComputeHSAD computes a or d, not %r" % op)
    counts = _hsad_counts(list1, list2)
    output = []
    for entry in list1:
        above, below = counts[entry.dn.key()]
        if op == "a" and below > 0:
            output.append(entry)
        elif op == "d" and above > 0:
            output.append(entry)
    return output


def compute_hsadc(
    op: str,
    list1: List[Entry],
    list2: List[Entry],
    list3: List[Entry],
) -> List[Entry]:
    """Figure 5: ``(ac L1 L2 L3)`` / ``(dc L1 L2 L3)`` -- entries of L3 cut
    count propagation in both directions."""
    if op not in ("ac", "dc"):
        raise ValueError("ComputeHSADc computes ac or dc, not %r" % op)
    merged = _merge_with_labels([list1, list2, list3])
    counts: Dict[Tuple[str, ...], Tuple[int, int]] = {}
    stack: List[_StackItem] = []
    position = 0
    while position < len(merged) or stack:
        current = merged[position] if position < len(merged) else None
        if stack:
            rt = stack[-1]
            advancing = (
                current is not None
                and rt.entry.dn.is_ancestor_of(current[0].dn)
            )
            if not advancing:
                if 1 in rt.label:
                    counts[rt.entry.dn.key()] = (rt.above, rt.below)
                stack.pop()
                if stack and 3 not in rt.label:
                    stack[-1].above += rt.above
                continue
        assert current is not None
        rl = _StackItem(*current)
        if stack:
            rt = stack[-1]
            if 2 in rl.label:
                rt.above += 1
            if 2 in rt.label:
                if 3 not in rt.label:
                    rl.below = rt.below + 1
                else:
                    rl.below = 1
            elif 3 not in rt.label:
                rl.below = rt.below
        stack.append(rl)
        position += 1
    output = []
    for entry in list1:
        above, below = counts[entry.dn.key()]
        if op == "ac" and below > 0:
            output.append(entry)
        elif op == "dc" and above > 0:
            output.append(entry)
    return output


def compute_hsagg_ad(
    op: str,
    list1: List[Entry],
    list2: List[Entry],
) -> List[Entry]:
    """Figure 6: ``ComputeHSAggAD`` with the aggregate selection filter
    ``count($2) = max(count($2))`` -- the L1 entries with the *most*
    ancestors (op ``a``) or descendants (op ``d``) in L2."""
    if op not in ("a", "d"):
        raise ValueError("ComputeHSAggAD computes a or d, not %r" % op)
    counts = _hsad_counts(list1, list2)
    maxabove = max((above for above, _below in counts.values()), default=0)
    maxbelow = max((below for _above, below in counts.values()), default=0)
    output = []
    for entry in list1:
        above, below = counts[entry.dn.key()]
        if op == "a" and below == maxbelow:
            output.append(entry)
        elif op == "d" and above == maxabove:
            output.append(entry)
    return output


def compute_eragg_dv(
    list1: List[Entry],
    list2: List[Entry],
    attribute: str,
) -> List[Entry]:
    """Figure 3: ``ComputeERAggDV`` with ``count($2)=max(count($2))`` --
    the L1 entries with the most embedded references from L2 entries.

    Phase 1 explodes L2's dn-valued attribute into a pair list ``LP`` and
    sorts it by the reverse-dn order of the referenced dn; phase 2 co-scans
    ``LP`` with L1 maintaining ``num`` and ``maxnum``; phase 3 outputs the
    maxima."""
    pairs: List[Tuple[Tuple[str, ...], DN]] = []
    for rl in list2:
        for value in rl.values(attribute):
            target = value if isinstance(value, DN) else _try_dn(value)
            if target is not None:
                pairs.append((target.key(), rl.dn))
    pairs.sort(key=lambda pair: pair[0])

    num: Dict[Tuple[str, ...], int] = {}
    maxnum = 0
    pair_index = 0
    for r1 in list1:
        key = r1.dn.key()
        count = 0
        while pair_index < len(pairs) and pairs[pair_index][0] < key:
            pair_index += 1
        while pair_index < len(pairs) and pairs[pair_index][0] == key:
            count += 1
            pair_index += 1
        num[key] = count
        maxnum = max(maxnum, count)

    return [entry for entry in list1 if num[entry.dn.key()] == maxnum]


def _try_dn(value) -> Optional[DN]:
    if isinstance(value, str):
        try:
            return DN.parse(value)
        except Exception:
            return None
    return None
