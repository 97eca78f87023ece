"""Path closures on hierarchical topologies (paper section 4, figure 1).

A hierarchical architecture is viewed as a graph whose nodes are
communication media and whose arcs are gateway ECUs.  A **path closure**
``ph`` is the set of all prefixes of one maximal simple path in that
graph: choosing a closure for a message fixes the *order* in which media
may be used, while the disjunction over its sub-paths (eq. 14) lets the
optimizer pick how far along the path the message actually travels.

``ph0``, the empty closure, stands for intra-ECU communication (sender
and receiver on the same ECU: no medium used at all).

For the figure 1 topology (k1={p1,p2,p3}, k2={p2,p4}, k3={p3,p5}) this
module reproduces exactly the closures printed in the paper::

    ph0 = {""}
    ph1 = {"k1", "k1 k2"}
    ph2 = {"k1", "k1 k3"}
    ph3 = {"k2", "k2 k1", "k2 k1 k3"}
    ph4 = {"k3", "k3 k1", "k3 k1 k2"}
"""

from __future__ import annotations

from repro.model.architecture import Architecture

__all__ = ["PathClosure", "enumerate_path_closures"]


class PathClosure:
    """All prefixes of one maximal simple media path.

    ``longest`` is the maximal path (a tuple of medium names, possibly
    empty for ph0); ``sub_paths`` lists every non-empty prefix (or the
    single empty path for ph0).
    """

    __slots__ = ("index", "longest")

    def __init__(self, index: int, longest: tuple[str, ...]):
        self.index = index
        self.longest = tuple(longest)

    @property
    def sub_paths(self) -> list[tuple[str, ...]]:
        """Non-empty prefixes of the longest path; ``[()]`` for ph0."""
        if not self.longest:
            return [()]
        return [self.longest[: i + 1] for i in range(len(self.longest))]

    @property
    def start(self) -> str | None:
        """First medium of the closure (None for ph0)."""
        return self.longest[0] if self.longest else None

    def __len__(self) -> int:
        return len(self.longest)

    def __eq__(self, other) -> bool:
        return isinstance(other, PathClosure) and self.longest == other.longest

    def __hash__(self) -> int:
        return hash(self.longest)

    def __repr__(self) -> str:
        inner = ", ".join(
            '"' + " ".join(p) + '"' for p in self.sub_paths
        )
        return f"ph{self.index} = {{{inner}}}"


def enumerate_path_closures(
    arch: Architecture, max_hops: int | None = None
) -> list[PathClosure]:
    """All path closures of an architecture's media graph.

    Returns ``ph0`` (the empty closure) followed by one closure per
    maximal simple path, in deterministic order (start medium declaration
    order, then lexicographic extension order).  ``max_hops`` truncates
    paths to at most that many media (bounding encoding size on large
    topologies); truncated paths count as maximal.

    Cycles in the media graph are handled by the simple-path restriction,
    matching the paper's "possibly with cycles ... we allow arbitrary
    networks" remark.
    """
    adj = arch.media_adjacency()
    closures: list[PathClosure] = [PathClosure(0, ())]
    seen: set[tuple[str, ...]] = set()

    def extend(path: list[str]) -> None:
        last = path[-1]
        truncated = max_hops is not None and len(path) >= max_hops
        nexts = (
            []
            if truncated
            else [k for k in adj[last] if k not in path]
        )
        if not nexts:
            key = tuple(path)
            if key not in seen:
                seen.add(key)
                closures.append(PathClosure(len(closures), key))
            return
        for k in nexts:
            extend(path + [k])

    for start in arch.medium_names():
        extend([start])
    return closures


def closures_by_endpoints(
    arch: Architecture, closures: list[PathClosure]
) -> dict[tuple[str, str], list[tuple[PathClosure, tuple[str, ...]]]]:
    """Index: (sender ECU, receiver ECU) -> [(closure, sub-path)] of every
    sub-path whose endpoint condition v(h) (section 4) admits the pair.

    Kept as a test oracle for the encoder's path constraints; the
    encoder and the feasibility checker do not call it.
    """
    out: dict[tuple[str, str], list[tuple[PathClosure, tuple[str, ...]]]] = {}
    for ph in closures:
        for h in ph.sub_paths:
            for ps, pr in _endpoint_pairs(arch, h):
                out.setdefault((ps, pr), []).append((ph, h))
    return out


def _endpoint_pairs(arch: Architecture, h: tuple[str, ...]):
    """All (sender ECU, receiver ECU) pairs admitted by v(h) for path h."""
    if not h:
        # Intra-ECU: any ECU paired with itself.
        for p in arch.ecu_names():
            yield (p, p)
        return
    if len(h) == 1:
        k = arch.media[h[0]]
        for ps in k.ecus:
            for pr in k.ecus:
                if ps != pr:
                    yield (ps, pr)
        return
    first, second = arch.media[h[0]], arch.media[h[1]]
    last, second_last = arch.media[h[-1]], arch.media[h[-2]]
    first_ok = set(first.ecus) - (set(first.ecus) & set(second.ecus))
    last_ok = set(last.ecus) - (set(last.ecus) & set(second_last.ecus))
    for ps in sorted(first_ok):
        for pr in sorted(last_ok):
            yield (ps, pr)
