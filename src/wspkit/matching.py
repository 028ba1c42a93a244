"""Bipartite maximum matching by augmenting paths, and the deficient set
of a maximum matching: its largest Hall violator."""

from __future__ import annotations

from typing import Mapping, Optional, Sequence


def maximum_matching(
    left: Sequence[str],
    adj: Mapping[str, Sequence[str]],
) -> dict[str, str]:
    """Maximum matching of left vertices to their neighbors in adj.

    Deterministic: left vertices are processed in order, neighbors tried in
    the order given by adj. Each left vertex starts a depth-first search
    for an augmenting path, kept on an explicit stack so that long paths
    need no recursion. Returns a left -> right mapping.
    """
    match_right: dict[str, str] = {}
    for root in left:
        seen: set[str] = set()
        # path holds the right vertices of the search path; stack[i] holds
        # the untried neighbors of its i-th left vertex, which is the root
        # for i = 0 and the vertex matched to path[i - 1] otherwise
        stack = [iter(adj.get(root, ()))]
        path: list[str] = []
        while stack:
            for y in stack[-1]:
                if y not in seen:
                    break
            else:
                # no augmenting path through this left vertex
                stack.pop()
                if path:
                    path.pop()
                continue
            seen.add(y)
            path.append(y)
            if y in match_right:
                stack.append(iter(adj.get(match_right[y], ())))
                continue
            # augment: every right vertex on the path takes the left
            # vertex before it
            x = root
            for y in path:
                match_right[y], x = x, match_right.get(y)
            break
    return {x: y for y, x in match_right.items()}


def hall_violator(
    left: Sequence[str],
    matching: Mapping[str, str],
    adj: Mapping[str, Sequence[str]],
) -> Optional[frozenset[str]]:
    """The largest deficiency witness for a maximum matching.

    Returns the set D of left vertices reachable by alternating paths from
    all unmatched left vertices (the deficient part of the Dulmage-Mendelsohn
    decomposition). Every neighbor of D is matched into D, so |N(D)| < |D|,
    and every left vertex outside D is matched outside N(D). Returns None if
    the matching covers all of left.
    """
    frontier = [x for x in left if x not in matching]
    if not frontier:
        return None
    match_right = {y: x for x, y in matching.items()}
    reach_left = set(frontier)
    reach_right: set[str] = set()
    while frontier:
        x = frontier.pop()
        for y in adj.get(x, ()):
            if y in reach_right:
                continue
            reach_right.add(y)
            # y is matched, otherwise the path would augment the matching
            x2 = match_right[y]
            if x2 not in reach_left:
                reach_left.add(x2)
                frontier.append(x2)
    return frozenset(reach_left)
