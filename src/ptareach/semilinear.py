"""Reachable counter values of +0/+1 one-counter automata as AP unions.

A one-counter automaton with only +0/+1 updates is a unary NFA: +1 rules are
letters, +0 rules epsilon moves.  The counter values reachable at a target
from source(0) are the weights of the letter walks from the source to a
state whose epsilon closure holds the target: a finite union of arithmetic
progressions a + b*N.  Those walks stay in the source's forward set, so they
are searched once per source and every target is read off the result.  The
periods are the shortest cycle lengths b_s of the cyclic states s.  For each
period b, one breadth-first search over (state, weight mod b, passed an s
with b_s = b) gives per state and residue the least weight d of a walk that
passes such an s; pumping the cycle at s gives d + b*N, and a walk of weight
w that passes a cyclic s lies in the progression of d <= w at w mod b_s.  A
walk that passes no cyclic state repeats none, so a layered search over the
non-cyclic states gives the other weights as singletons and stops by itself.
Minimal offsets stay below 2|Q|^2 because a longer minimal witness would
contain an excisable cycle-multiple on one side of its s-visit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .automata import POCA, AddConst
from .semantics import reachable, shortest_path


class CapViolation(Exception):
    """The construction exceeded the advertised caps; indicates a bug."""


@dataclass(frozen=True)
class APSet:
    """Normalized finite union of arithmetic progressions.

    Pairs (a, b) with period b >= 1 denote {a, a+b, a+2b, ...}; period 0
    encodes the singleton {a}.  Normal form: sorted, no pair subsumed by
    another.
    """

    pairs: tuple

    @classmethod
    def from_pairs(cls, pairs) -> "APSet":
        return cls(_normalize(pairs))

    def __contains__(self, t: int) -> bool:
        return apset_member(self, t)

    def is_empty(self) -> bool:
        return not self.pairs

    def max_offset(self) -> int:
        return max((a for a, _ in self.pairs), default=0)

    def periods(self) -> tuple:
        return tuple(sorted({b for _, b in self.pairs if b >= 1}))


def _normalize(pairs) -> tuple:
    """Sorted distinct pairs, minus those whose set another pair contains.

    (a, b) lies inside (a2, b2) with b2 >= 1 iff b2 divides b (or b = 0),
    a2 <= a and a2 = a (mod b2), so each pair is compared only with the
    least offset of each period at its residue.
    """
    todo = sorted(set(pairs))
    least = {}
    for a, b in todo:
        if b >= 1:
            least.setdefault(b, {}).setdefault(a % b, a)
    return tuple(pair for pair in todo if not _covered(pair, least))


def _covered(pair, least) -> bool:
    a, b = pair
    for b2, by_residue in least.items():
        if b != 0 and b % b2 != 0:
            continue
        a2 = by_residue.get(a % b2)
        if a2 is not None and a2 <= a and (a2, b2) != pair:
            return True
    return False


def apset_member(s: APSet, t: int) -> bool:
    if t < 0:
        return False
    for a, b in s.pairs:
        if b == 0:
            if t == a:
                return True
        elif t >= a and (t - a) % b == 0:
            return True
    return False


def apset_contains_zero(s: APSet) -> bool:
    return apset_member(s, 0)


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class LetterGraph:
    """A +0/+1 automaton's letter graph and its walk tables per source.

    succ[s]: the states one +1 rule reaches after any +0 rules; eps_reach[s]:
    the states +0 rules alone reach (s included); cycle_len[s]: the length of
    the shortest letter-cycle through s (absent if none); walks: walks_from's memo.
    """

    succ: dict
    eps_reach: dict
    cycle_len: dict
    walks: dict = field(default_factory=dict, init=False)

    def walks_from(self, source) -> dict:
        """Per state u of the source's forward set, the pairs its walks to u give.

        (t, 0) for the weight t of each walk to u through no cyclic state;
        per period b of the forward set and residue mod b, (d, b) with d the
        least such weight of a walk to u that passes a state s with b_s = b.
        """
        if source not in self.walks:
            succ, cycle_len = self.succ, self.cycle_len
            ends = self.walks[source] = {}
            layer, t = {source} - cycle_len.keys(), 0
            while layer:
                for u in layer:
                    ends.setdefault(u, []).append((t, 0))
                layer, t = {v for u in layer for v in succ[u] if v not in cycle_len}, t + 1
            periods = {}
            for s in reachable([source], succ.__getitem__) & cycle_len.keys():
                periods.setdefault(cycle_len[s], set()).add(s)
            for b, marked in periods.items():
                for (u, _, passed), d in _min_weight_per_residue(succ, source, b, marked).items():
                    if passed:
                        ends.setdefault(u, []).append((d, b))
        return self.walks[source]


def letter_graph(oca: POCA) -> LetterGraph:
    """The left-epsilon-closed letter graph of a +0/+1 automaton."""
    eps, ones = {}, {}
    for rule in oca.rules:
        if not isinstance(rule.op, AddConst) or rule.op.value not in (0, 1):
            raise ValueError(f"unsupported operation for a +0/+1 automaton: {rule.op}")
        target = ones if rule.op.value == 1 else eps
        target.setdefault(rule.src, set()).add(rule.dst)

    eps_reach = {s: reachable([s], lambda u: eps.get(u, ())) for s in oca.states}
    succ = {s: {w for u in eps_reach[s] for w in ones.get(u, ())} for s in oca.states}
    return LetterGraph(succ, eps_reach, _shortest_cycle_lengths(succ))


def _shortest_cycle_lengths(edges) -> dict:
    """Length of the shortest letter-cycle through each node (absent if none).

    The search starts from a virtual node None whose successors are those
    of s, and stops when it reaches s.
    """
    out = {}
    for s in edges:
        found = shortest_path(
            None, lambda u: ((None, v) for v in edges[s if u is None else u]), lambda u: u == s
        )
        if found is not None:
            out[s] = len(found[1])
    return out


def _min_weight_per_residue(edges, source, modulus, marked) -> dict:
    """Least letter-walk weight from the source per (node, weight mod modulus,
    passed) class, where passed tells whether the walk has visited a marked
    node (the source included).

    Every letter weighs 1, so breadth-first order reaches each class first
    at its least weight.
    """
    start = (source, 0, source in marked)
    dist = {start: 0}

    def successors(key):
        u, r, passed = key
        d = dist[key] + 1
        for v in edges[u]:
            nxt = (v, (r + 1) % modulus, passed or v in marked)
            dist.setdefault(nxt, d)
            yield nxt

    reachable([start], successors)
    return dist


def reach_lengths(oca: POCA, source: str, target: str, graph=None) -> APSet:
    """The set {n : source(0) reaches target(n)} as a normalized APSet.

    The input must have +0/+1 updates only (no tests, no parameters).
    Enforced caps relative to n = |Q|: offsets <= 2n^2, periods <= n, and at
    most 4n^2 progressions; exceeding them raises CapViolation.  ``graph`` is
    ``letter_graph(oca)``, computed here when omitted; callers asking about
    many pairs of one automaton pass it, so that each source's walks are
    searched once and each target takes their union over the states whose
    epsilon closure holds it.
    """
    if oca.params:
        raise ValueError("reach_lengths expects a parameter-free automaton")
    if source not in oca.states or target not in oca.states:
        raise ValueError("source/target must be declared states")
    graph = letter_graph(oca) if graph is None else graph
    pairs = []
    for u, found in graph.walks_from(source).items():
        if target in graph.eps_reach[u]:
            pairs.extend(found)
    result = APSet.from_pairs(pairs)
    _enforce_caps(result, len(oca.states))
    return result


def _enforce_caps(s: APSet, n: int) -> None:
    if len(s.pairs) > 4 * n * n:
        raise CapViolation(f"{len(s.pairs)} progressions exceed 4*|Q|^2")
    for a, b in s.pairs:
        if a > 2 * n * n:
            raise CapViolation(f"offset {a} exceeds 2*|Q|^2 = {2 * n * n}")
        if b > n:
            raise CapViolation(f"period {b} exceeds |Q| = {n}")
