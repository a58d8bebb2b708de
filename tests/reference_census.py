"""Reference census engine for the equivalence tests.

``_RowMaskEngine`` below is the engine the package used for its walks
before they ran on transfer states: it keeps the left-seeded burning
state of a prefix as burnt-row bitmasks and appends a rung by a closure
over those rows, reading each row's burn from the one-rung burn table.
The package decided single windows by that closure too, until its
verdicts moved onto the census engine's memo of transfer-state steps;
this file is now the only burnt-row closure, kept as the oracle.  It is
kept verbatim so that the tests can require the package's engine to
give the same walks and verdicts, and the brute counts can be checked
against an engine they share no code with.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from laddersand.burning import RungConfig, burn_table, max_rung
from laddersand.graphs import Graph


def _close(burnt: list[int], tbls: Sequence, dirty: int, full: int, n: int) -> None:
    """Burning closure over burnt-row masks: reprocess dirty rows (a
    bitmask of row indices) until nothing new burns.  ``tbls[j]`` is the
    one-rung burn table's row for the rung of row ``j``, indexed by
    ``below << n | above``: a row's burn sees the burnt vertices beside
    it and the open left end below row 0.  A row only grows and always
    lies inside the burn of its current neighbours, so that burn is its
    new value."""
    top = len(burnt) - 1
    while dirty:
        jbit = dirty & -dirty
        dirty ^= jbit
        j = jbit.bit_length() - 1
        row = burnt[j]
        if row == full:
            continue
        below = burnt[j - 1] if j else full
        above = burnt[j + 1] if j < top else 0
        new = tbls[j][(below << n) | above]
        if new != row:
            burnt[j] = new
            if j:
                dirty |= jbit >> 1
            if j < top:
                dirty |= jbit << 1


class _RowMaskEngine:
    """The census engine of one graph.  A prefix is its resting
    left-seeded burnt-row masks beside its rungs' table rows, which the
    walks append to and pop so pushes stay allocation-light."""

    def __init__(self, graph: Graph):
        self.graph = graph
        self.n = graph.n
        self.full = graph.full_mask
        self.cmax = max_rung(graph)
        self.tables: dict[RungConfig, list[int]] = {}

    def rows(self, rungs: Sequence[RungConfig]) -> list[list[int]]:
        """The table row of each rung; the missing rows are burnt in one
        :func:`~laddersand.burning.burn_table` call, under its limit."""
        try:
            return [self.tables[c] for c in rungs]
        except KeyError:
            missing = [c for c in dict.fromkeys(rungs) if c not in self.tables]
        self.tables.update(zip(missing, burn_table(self.graph, missing).tolist()))
        return [self.tables[c] for c in rungs]

    def push(self, burnt: list[int], tbls: list, ignite: bool = True
             ) -> Optional[list[int]]:
        """Resting state after appending a rung as row ``len(burnt)``;
        ``tbls[j]`` must be the table row of row ``j``, the new rung's
        included.  With ``ignite`` (the symbol walks) None when the new
        rung cannot ignite, in which case no extension is left-burnable
        either; its burn grows from nothing, so one round decides that."""
        k = len(burnt)
        if ignite and k and not tbls[k][burnt[-1] << self.n]:
            return None
        child = burnt + [0]
        _close(child, tbls, 1 << k, self.full, self.n)
        if ignite and child[k] == 0:
            return None
        return child

    def is_burnable(self, burnt: list[int], tbls: list) -> bool:
        """Whether the closure finishes once a fully burnt row above the
        prefix switches the right sink on: left-burnability after ignited
        pushes, recurrence after any (burning is order-free)."""
        probe = burnt + [self.full]  # a full row is never reprocessed
        _close(probe, tbls, 1 << (len(burnt) - 1), self.full, self.n)
        return probe.count(self.full) == len(probe)

    def accepts(self, rungs: Sequence[RungConfig], ignite: bool = True) -> bool:
        """Left-burnability (with ``ignite``) or recurrence of a nonempty
        rung sequence, in one pass."""
        tbls = self.rows(rungs)
        burnt: list[int] = []
        for _ in rungs:
            burnt = self.push(burnt, tbls, ignite)
            if burnt is None:
                return False
        return self.is_burnable(burnt, tbls)

    def last_max_prefix(self, rungs: Sequence[RungConfig]) -> int:
        """The index of the last maximal rung of a recurrent window that
        ends a left-burnable prefix, or -1: the last one an ignited pass
        pushes (left-burnability is closed under prefixes).  A pushed
        maximal rung burns whole, and the window's ordinary burn reaches
        the rows below it only through it and the left sink, so in that
        burn's order they all burn here too."""
        tbls = self.rows(rungs)
        burnt: list[int] = []
        last = -1
        for k, c in enumerate(rungs):
            burnt = self.push(burnt, tbls)
            if burnt is None:
                break
            if c == self.cmax:
                last = k
        return last

    def walk(self, rungs: Sequence[RungConfig], n_max: int, ignite: bool
             ) -> Iterator[list[RungConfig]]:
        """Every burnable sequence of at most ``n_max`` of the given
        rungs, the empty one first, depth first in their order, as the
        walk's own path (copy what you keep).  With ``ignite`` the
        sequences are left-burnable, otherwise recurrent; either way a
        prefix that is not burnable has no burnable extension."""
        steps = [(c, tbl, c == self.cmax) for c, tbl in zip(rungs, self.rows(rungs))]
        path: list[RungConfig] = []
        tbls: list = []
        yield path
        stack = [([], iter(steps))] if n_max else []
        while stack:
            burnt, children = stack[-1]
            for c, tbl, is_max in children:
                tbls.append(tbl)
                child = self.push(burnt, tbls, ignite)
                # appending a maximal rung preserves burnability outright
                if child is not None and (is_max or self.is_burnable(child, tbls)):
                    path.append(c)
                    yield path
                    if len(path) < n_max:
                        stack.append((child, iter(steps)))
                        break
                    path.pop()
                tbls.pop()
            else:
                stack.pop()
                if path:
                    path.pop()
                    tbls.pop()
