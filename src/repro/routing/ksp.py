"""k-shortest-paths routing (paper §2.6, following Jellyfish).

"We use k shortest paths routing for approximated random graphs [23]."
Jellyfish showed that 8-shortest-paths routing captures most of a random
graph's capacity; 8 is therefore the default ``k`` here.

Enumeration is Yen's algorithm (loop-free, ascending length) over the
fabric's :class:`~repro.topology.elements.LinkIndex`: dense switch ids
whose neighbor lists keep the fabric's own order.  It follows
networkx's simple-paths generator step for step — the same
bidirectional-BFS spur search, the same ``(length, push order)`` heap
tie-break, the same stop after the k-th path — so it returns the same
paths in the same order; the tests keep networkx as its oracle.  Three
things make it cheaper than that generic code.  A spur search bans the
root's switches in a ``bytearray`` instead of filtering neighbor
iterators.  It ignores only the spur switch's own edges into the paths
already found: every edge Yen ignores for a shorter root touches a
banned switch, so the search never crosses it anyway.  And, by
Lawler's rule, a path's spur loop starts at the index where its parent's
spur search found it: the searches before that index would only find
paths already queued.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from typing import Collection, Iterable, List, Optional, Sequence, Tuple

from repro import obs
from repro.errors import RoutingError
from repro.routing.base import Path, RoutingTable
from repro.topology.elements import Network, SwitchId

#: Jellyfish's recommended path count.
DEFAULT_K = 8

IdPath = Tuple[int, ...]


def k_shortest_paths(
    net: Network, src: SwitchId, dst: SwitchId, k: int = DEFAULT_K
) -> List[Path]:
    """The ``k`` shortest loop-free paths between two switches.

    Raises :class:`RoutingError` when a switch is not in ``net`` or no
    path joins the two.
    """
    if k < 1:
        raise RoutingError(f"k must be positive, got {k}")
    index = net.link_index()
    s, t = index.switch_ids.get(src), index.switch_ids.get(dst)
    if s is None or t is None:
        raise RoutingError(f"no path from {src!r} to {dst!r}")
    if s == t:
        return [Path((src,))]
    with obs.timer("routing.ksp.compute_s"):
        raw = _yen(index.neighbors, s, t, k)
    if not raw:
        raise RoutingError(f"no path from {src!r} to {dst!r}")
    obs.incr("routing.ksp.pairs")
    obs.incr("routing.ksp.paths", len(raw))
    nodes = index.nodes
    return [Path(tuple([nodes[i] for i in ids])) for ids in raw]


def _yen(
    neighbors: Sequence[Sequence[int]], s: int, t: int, k: int
) -> List[IdPath]:
    """Up to ``k`` shortest loop-free ``s``-``t`` paths, in Yen's order.

    A candidate already queued is not queued again, the queue pops by
    ``(length, push order)``, and no spur search runs once the k-th
    path is found.  Returns ``[]`` when ``t`` is unreachable.

    Lawler's rule: a path first queued by the spur search at index
    ``i`` of its parent shares the parent's first ``i`` switches, so its
    own spur loop starts at ``i``.  A search at an index ``j < i`` would
    repeat, with the same banned switches and blocked next hops, the
    last search made at ``j`` for that root, whose result is still
    queued and would be skipped; so the pushes, and the paths, are
    those of the loop that starts at 1.
    """
    n = len(neighbors)
    pred = [0] * n
    succ = [0] * n
    first = _bidirectional_bfs(neighbors, s, t, bytearray(n), (), pred, succ)
    if first is None:
        return []
    paths = [first]
    queue: List[Tuple[int, int, int, IdPath]] = []
    queued = set()
    pushes = count()
    last, start = first, 1
    while len(paths) < k:
        banned = bytearray(n)
        for v in last[:start - 1]:
            banned[v] = 3
        for i in range(start, len(last)):
            root = last[:i]
            spur = root[-1]
            blocked = {p[i] for p in paths if p[:i] == root}
            tail = _bidirectional_bfs(neighbors, spur, t, bytearray(banned),
                                      blocked, pred, succ)
            if tail is not None:
                path = root[:-1] + tail
                if path not in queued:
                    queued.add(path)
                    heappush(queue, (len(path), next(pushes), i, path))
            banned[spur] = 3
        if not queue:
            break
        _length, _order, start, last = heappop(queue)
        queued.remove(last)
        paths.append(last)
    return paths


def _bidirectional_bfs(
    neighbors: Sequence[Sequence[int]],
    s: int,
    t: int,
    state: bytearray,
    blocked: Collection[int],
    pred: List[int],
    succ: List[int],
) -> Optional[IdPath]:
    """A shortest ``s``-``t`` path avoiding banned switches, or None.

    networkx's bidirectional BFS: expand the smaller fringe a level at a
    time and stop at the first switch both searches reach.  ``state[v]``
    is 0 for an unreached switch, 1 once the forward search reached it,
    2 once the reverse search did, and 3 if it is banned; the edges from
    ``s`` to the switches in ``blocked`` are ignored.  ``pred`` and
    ``succ`` are scratch lists, read only where this call wrote them.
    """
    state[s] = 1
    state[t] = 2
    pred[s] = -1
    succ[t] = -1
    meet = -1
    # The forward fringe starts as [s] and the reverse one as [t], so s
    # is expanded first, and only then.
    forward: List[int] = []
    for w in neighbors[s]:
        if w in blocked:
            continue
        reached = state[w]
        if reached == 0:
            state[w] = 1
            pred[w] = s
            forward.append(w)
        elif reached == 2:
            pred[w] = s
            meet = w
            break
    reverse = [t]
    while meet < 0 and forward and reverse:
        if len(forward) <= len(reverse):
            level, forward = forward, []
            for v in level:
                for w in neighbors[v]:
                    reached = state[w]
                    if reached == 0:
                        state[w] = 1
                        pred[w] = v
                        forward.append(w)
                    elif reached == 2:
                        pred[w] = v
                        meet = w
                        break
                if meet >= 0:
                    break
        else:
            level, reverse = reverse, []
            for v in level:
                cut = v in blocked
                for w in neighbors[v]:
                    reached = state[w]
                    if reached == 0:
                        state[w] = 2
                        succ[w] = v
                        reverse.append(w)
                    elif reached == 1:
                        if cut and w == s:
                            continue
                        succ[w] = v
                        meet = w
                        break
                if meet >= 0:
                    break
    if meet < 0:
        return None
    path = []
    v = pred[meet]
    while v >= 0:
        path.append(v)
        v = pred[v]
    path.reverse()
    v = meet
    while v >= 0:
        path.append(v)
        v = succ[v]
    return tuple(path)


def build_ksp_table(
    net: Network,
    pairs: Iterable[Tuple[SwitchId, SwitchId]],
    k: int = DEFAULT_K,
) -> RoutingTable:
    """KSP routing table for the given switch pairs.

    A (src, dst) pair repeated in the input keeps the paths of its first
    occurrence: the table itself is the memo, so Yen's algorithm runs
    once per pair.  Repeats count as ``routing.ksp.memo_hits``.
    """
    table = RoutingTable(name=f"ksp{k}[{net.name}]")
    with obs.span("build_ksp_table", k=k, net=net.name):
        for src, dst in pairs:
            if src != dst:
                if table.has_route(src, dst):
                    obs.incr("routing.ksp.memo_hits")
                else:
                    table.add(k_shortest_paths(net, src, dst, k=k))
    return table


def path_stretch(paths: List[Path]) -> float:
    """Longest/shortest hop ratio within a path set (diversity metric)."""
    if not paths:
        raise RoutingError("empty path set")
    hop_counts = [p.hops for p in paths]
    shortest = min(hop_counts)
    if shortest == 0:
        return 1.0
    return max(hop_counts) / shortest
