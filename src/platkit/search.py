"""The breadth-first search behind Hilden membership, Hurwitz equivalence
and certificate search."""

from __future__ import annotations

from typing import Any, Callable, Hashable, Iterable, Iterator


def bfs(
    start: Any,
    key: Callable[[Any], Hashable],
    successors: Callable[[Any, tuple], Iterable[tuple[Any, Any]]],
    max_depth: int | None = None,
) -> Iterator[tuple[Hashable, Any, tuple]]:
    """Yield ``(key, state, path)`` for the start and each newly reached state.

    States come in breadth-first order.  ``successors(state, path)`` lists
    or yields the ``(move, child)`` pairs of the state that ``path``
    reached, in rank order; a child whose key was already seen is skipped,
    so each path is the lexicographically least shortest one to its state.
    Each child is yielded before the next is asked for, so a consumer that
    stops early leaves unbuilt the siblings that a generator would yield
    later.  States at ``max_depth`` are yielded but not expanded.  The undo
    child, by the inverse of ``path[-1]``, has its parent's key, already
    seen, so leaving it out changes no visit order, path or yielded state.
    """
    start_key = key(start)
    seen = {start_key}
    yield start_key, start, ()
    frontier = [(start, ())]
    depth = 0
    while frontier and (max_depth is None or depth < max_depth):
        nxt = []
        for state, path in frontier:
            for move, child in successors(state, path):
                child_key = key(child)
                if child_key in seen:
                    continue
                seen.add(child_key)
                child_path = path + (move,)
                yield child_key, child, child_path
                nxt.append((child, child_path))
        frontier = nxt
        depth += 1
