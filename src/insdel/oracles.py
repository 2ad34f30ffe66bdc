"""Independent brute-force oracles used by the acceptance criteria
(``insdel.acceptance``) and the tests.

Nothing here shares code with the production metric paths: the edit-graph
distance is a 0-1 breadth-first search on the alignment grid, the word-graph
distance is a plain BFS over single-symbol edits, and the common-subsequence
count is literal enumeration.
"""

from __future__ import annotations

import itertools
from collections import deque

from .words import Word


def edit_graph_distance(u: Word, v: Word) -> int:
    """Shortest path in the alignment edit graph by 0-1 BFS.

    Nodes are grid positions (i, j); matching symbols give free diagonal
    edges, insertions and deletions give unit horizontal/vertical edges.
    """
    a, b = u.symbols, v.symbols
    la, lb = len(a), len(b)
    INF = la + lb + 1
    dist = [[INF] * (lb + 1) for _ in range(la + 1)]
    dist[0][0] = 0
    dq = deque([(0, 0)])
    while dq:
        i, j = dq.popleft()
        d = dist[i][j]
        if i < la and j < lb and a[i] == b[j] and d < dist[i + 1][j + 1]:
            dist[i + 1][j + 1] = d
            dq.appendleft((i + 1, j + 1))
        if i < la and d + 1 < dist[i + 1][j]:
            dist[i + 1][j] = d + 1
            dq.append((i + 1, j))
        if j < lb and d + 1 < dist[i][j + 1]:
            dist[i][j + 1] = d + 1
            dq.append((i, j + 1))
    return dist[la][lb]


def word_graph_distance(u: Word, v: Word) -> int:
    """BFS over the graph of words with single-symbol insert/delete edges.

    Exact because some optimal path does all deletions first, so states
    never need to grow past max(|u|, |v|). Exponential; tiny inputs only.
    """
    q = u.q
    cap = max(len(u), len(v))
    start, goal = u.symbols, v.symbols
    if start == goal:
        return 0
    seen = {start}
    frontier = deque([(start, 0)])
    while frontier:
        w, d = frontier.popleft()
        for nxt in _edit_neighbors(w, q, cap):
            if nxt == goal:
                return d + 1
            if nxt not in seen:
                seen.add(nxt)
                frontier.append((nxt, d + 1))
    raise RuntimeError("edit graph is connected; unreachable")


def _edit_neighbors(w, q, cap):
    for i in range(len(w)):
        yield w[:i] + w[i + 1 :]
    if len(w) < cap:
        for i in range(len(w) + 1):
            for s in range(q):
                yield w[:i] + (s,) + w[i:]


def lcs_by_enumeration(u: Word, v: Word) -> int:
    """Longest common subsequence by enumerating all subsequences of the
    shorter word. Exponential; tiny inputs only."""
    a, b = u.symbols, v.symbols
    if len(a) > len(b):
        a, b = b, a
    best = 0
    for r in range(len(a), 0, -1):
        for picks in itertools.combinations(a, r):
            if _is_subsequence(picks, b):
                return r
    return best


def _is_subsequence(s, t):
    it = iter(t)
    return all(c in it for c in s)
