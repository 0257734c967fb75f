"""Counter-semirun surgery: bracket projection, shift, glue, depump.

A semirun relaxes a run: comparison tests are syntactically present but not
enforced, while updates and modulo tests must hold.  Shifting by multiples
of the modulo LCM and gluing equal-state positions with value gaps in that
lattice preserve semirun validity; the depumping operation combines both to
reduce a large counter effect by exactly the Gamma constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .automata import POCA, AddParam, DerivedConstants, lcm_range, lcm_set
from .semantics import PocaConfiguration, _check_labels


class SemirunError(ValueError):
    """A surgery precondition failed."""


class DepumpError(RuntimeError):
    """Depumping could not find enough glue windows, or its bookkeeping broke.

    With formula-exact constants this indicates a bug; with test overrides it
    signals that the injected constants are inconsistent with the input.
    """


@dataclass(frozen=True)
class Semirun:
    """A semirun of a POCA at one parameter value.

    ``rules[i]`` indexes the automaton rule taken between configs i and i+1.
    """

    poca: POCA
    n: int
    configs: tuple
    rules: tuple

    def __post_init__(self):
        if len(self.configs) != len(self.rules) + 1:
            raise SemirunError("need exactly one more configuration than rules")

    def __len__(self):
        return len(self.rules)

    def counter(self, i: int) -> int:
        return self.configs[i].counter

    def state(self, i: int) -> str:
        return self.configs[i].state

    def delta(self) -> int:
        return self.configs[-1].counter - self.configs[0].counter

    def values(self) -> set:
        return {c.counter for c in self.configs}

    def minimum(self) -> int:
        return min(self.values())

    def maximum(self) -> int:
        return max(self.values())

    def op(self, i: int):
        return self.poca.rules[self.rules[i]].op

    def subrun(self, c: int, d: int) -> "Semirun":
        if not 0 <= c <= d <= len(self):
            raise SemirunError("subrun endpoints out of range")
        return Semirun(self.poca, self.n, self.configs[c : d + 1], self.rules[c:d])

    def validate(self) -> tuple:
        """Replay through semitransitions; (True, None) or (False, index)."""
        return _check_labels(self.poca, self.n, self.configs, self.rules, False)

    def modulus(self) -> int:
        """LCM of the POCA's constants, the lattice for shift and glue."""
        return lcm_set([c for c in self.poca.consts() if c >= 1])


def from_run(poca: POCA, n: int, run) -> Semirun:
    """View a POCA run as a semirun."""
    if run.kind != "poca":
        raise SemirunError("only counter runs can be viewed as semiruns")
    return Semirun(poca, n, run.configs, run.labels)


# ---------------------------------------------------------------------------
# Bracket projection
# ---------------------------------------------------------------------------


def phi_at(semirun: Semirun, i: int) -> str:
    """Bracket image of one transition: '[' for +p, ']' for -p, '' else."""
    op = semirun.op(i)
    if isinstance(op, AddParam):
        return "[" if op.sign > 0 else "]"
    return ""


def phi(semirun: Semirun) -> str:
    return "".join(phi_at(semirun, i) for i in range(len(semirun)))


def bracket_balance(word: str) -> int:
    return word.count("[") - word.count("]")


def in_psi(word: str, k: int) -> bool:
    """Every prefix imbalance within [-k, k]."""
    if k < 0:
        raise ValueError("k must be non-negative")
    bal = 0
    for ch in word:
        bal += 1 if ch == "[" else -1
        if not -k <= bal <= k:
            return False
    return True


def in_lambda(word: str, k: int) -> bool:
    """Balanced overall with every prefix imbalance within [-k, k]."""
    return in_psi(word, k) and bracket_balance(word) == 0


# ---------------------------------------------------------------------------
# Shift and glue
# ---------------------------------------------------------------------------


def _lattice(semirun: Semirun, z: Optional[int]) -> int:
    """The lattice constant Z: the modulo LCM unless given, and at least 1."""
    z = semirun.modulus() if z is None else z
    if z < 1:
        raise SemirunError(f"lattice constant Z = {z} must be at least 1")
    return z


def shift(semirun: Semirun, d: int, z: Optional[int] = None) -> Semirun:
    """Translate all counter values by d, a multiple of the modulo LCM."""
    z = _lattice(semirun, z)
    if d % z != 0:
        raise SemirunError(f"shift distance {d} is not a multiple of Z = {z}")
    configs = tuple(PocaConfiguration(c.state, c.counter + d) for c in semirun.configs)
    return Semirun(semirun.poca, semirun.n, configs, semirun.rules)


def glue(semirun: Semirun, i: int, j: int, z: Optional[int] = None) -> Semirun:
    """Excise positions (i, j] and shift the suffix by -(z_j - z_i).

    Requires i < j, equal states at i and j, and a value gap divisible by
    the modulo LCM.
    """
    z = _lattice(semirun, z)
    if not 0 <= i < j <= len(semirun):
        raise SemirunError("glue needs positions 0 <= i < j <= length")
    if semirun.state(i) != semirun.state(j):
        raise SemirunError(
            f"glue needs equal states, got {semirun.state(i)} and {semirun.state(j)}"
        )
    gap = semirun.counter(j) - semirun.counter(i)
    if gap % z != 0:
        raise SemirunError(f"glue value gap {gap} is not a multiple of Z = {z}")
    configs = semirun.configs[: i + 1] + tuple(
        PocaConfiguration(c.state, c.counter - gap) for c in semirun.configs[j + 1 :]
    )
    rules = semirun.rules[:i] + semirun.rules[j:]
    return Semirun(semirun.poca, semirun.n, configs, rules)


def multi_glue(semirun: Semirun, intervals, z: Optional[int] = None) -> Semirun:
    """Glue pairwise disjoint intervals left to right, re-indexing as we go."""
    z = _lattice(semirun, z)
    ordered = sorted(intervals)
    for (a1, b1), (a2, b2) in zip(ordered, ordered[1:]):
        if b1 > a2:
            raise SemirunError(f"intervals overlap: ({a1},{b1}) and ({a2},{b2})")
    out = semirun
    removed = 0
    for a, b in ordered:
        out = glue(out, a - removed, b - removed, z)
        removed += b - a
    return out


# ---------------------------------------------------------------------------
# Depumping
# ---------------------------------------------------------------------------


def _lambda_profile(semirun: Semirun):
    """Per-position bracket imbalance of the prefix."""
    lam = [0]
    for i in range(len(semirun)):
        ch = phi_at(semirun, i)
        lam.append(lam[-1] + (1 if ch == "[" else -1 if ch == "]" else 0))
    return lam


def _in_lambda_window(lam, s: int, t: int, k: int) -> bool:
    """Whether positions s..t project into Lambda_k, read off the profile lam."""
    return lam[t] == lam[s] and all(abs(lam[i] - lam[s]) <= k for i in range(s, t + 1))


def depump(semirun: Semirun, k: int, consts: DerivedConstants):
    """Reduce |Delta| by exactly Gamma via disjoint glue windows.

    Follows the constructive argument: positions carry the potential
    pot(i) = z_i - z_0 - lambda(i) * N; windows with potential gain above
    K * Z each contain a gluable equal-state, equal-imbalance pair whose
    value gap is d * Z for some d in [1, K]; choosing LCM(K)/d windows of a
    common d and gluing drops Delta by LCM(K) * Z = Gamma.

    Returns (depumped semirun, list of removed intervals).
    """
    ok, step = semirun.validate()
    if not ok:
        raise SemirunError(f"depump needs a semirun; step {step} is not a semitransition")
    big_lcm = lcm_range(k)
    if consts.gamma != big_lcm * consts.z:
        raise SemirunError("constants inconsistent: Gamma != LCM(K) * Z")
    lam = _lambda_profile(semirun)
    if not _in_lambda_window(lam, 0, len(semirun), 8):
        raise SemirunError("depump requires a bracket projection in Lambda_8")
    delta = semirun.delta()
    if abs(delta) <= consts.upsilon:
        raise SemirunError("depump requires |Delta| > Upsilon")

    sign = 1 if delta > 0 else -1
    z_const = consts.z
    n_val = semirun.n
    pot = [
        sign * (semirun.counter(i) - semirun.counter(0) - lam[i] * n_val)
        for i in range(len(semirun) + 1)
    ]
    # pot bookkeeping from the constructive proof: unit steps, endpoints tied
    # to Delta (lambda vanishes at both ends since the word is balanced).
    if any(abs(pot[i] - pot[i - 1]) > 1 for i in range(1, len(pot))):
        raise DepumpError("potential must move by unit steps")
    if pot[0] != 0 or pot[-1] != sign * delta:
        raise DepumpError("potential endpoints must be 0 and |Delta|")

    windows = []
    start = 0
    threshold = k * z_const
    for i in range(len(pot)):
        if pot[i] - pot[start] > threshold:
            windows.append((start, i))
            start = i
    needed = k * big_lcm
    if len(windows) < needed:
        raise DepumpError(
            f"found {len(windows)} windows with potential gain > {threshold}, "
            f"need {needed}; constants too large for this semirun"
        )

    # Inside each window, locate the leftmost equal-state pair with equal
    # imbalance and a value gap of d * Z, d in [1, K].
    pairs_by_d = {}
    for a, b in windows:
        for s, t in ((s, t) for s in range(a, b) for t in range(s + 1, b + 1)):
            if semirun.state(s) != semirun.state(t) or lam[s] != lam[t]:
                continue
            gap = sign * (semirun.counter(t) - semirun.counter(s))
            if 0 < gap <= k * z_const and gap % z_const == 0:
                pairs_by_d.setdefault(gap // z_const, []).append((s, t))
                break

    for d, pairs in sorted(pairs_by_d.items()):
        if len(pairs) >= big_lcm // d:
            chosen = pairs[: big_lcm // d]
            break
    else:
        raise DepumpError(
            "pigeonhole failed: no value class d has LCM(K)/d gluable windows"
        )

    for s, t in chosen:
        if not _in_lambda_window(lam, s, t, 16):
            raise DepumpError(f"glue window ({s},{t}) has a bracket projection outside Lambda_16")
    out = multi_glue(semirun, chosen, z_const)
    if out.delta() != delta - sign * consts.gamma:
        raise DepumpError("gluing did not reduce |Delta| by exactly Gamma")
    return out, chosen


# ---------------------------------------------------------------------------
# Bracket window search
# ---------------------------------------------------------------------------


def _sign(direction: str) -> int:
    """The sign of Delta that a bracket direction asks for: -1 or +1."""
    if direction not in ("negative", "positive"):
        raise ValueError("direction must be 'negative' or 'positive'")
    return -1 if direction == "negative" else 1


def find_bracket_subrun(
    semirun: Semirun, consts: DerivedConstants, direction: str = "negative"
) -> Optional[tuple]:
    """First (c, d) with phi in Lambda_8 and |Delta| beyond Upsilon.

    direction "negative" looks for Delta < -Upsilon, "positive" for
    Delta > Upsilon.  Soundness is unconditional; completeness holds under
    the bracket preconditions (see bracket_preconditions).
    """
    sign = _sign(direction)
    lam = _lambda_profile(semirun)
    length = len(semirun)
    for c in range(length + 1):
        lo = hi = lam[c]
        for d in range(c + 1, length + 1):
            lo = min(lo, lam[d])
            hi = max(hi, lam[d])
            if hi - lam[c] > 8 or lam[c] - lo > 8:
                break
            if lam[d] != lam[c]:
                continue
            if sign * (semirun.counter(d) - semirun.counter(c)) > consts.upsilon:
                return (c, d)
    return None


def bracket_preconditions(
    semirun: Semirun, consts: DerivedConstants, direction: str = "negative"
) -> dict:
    """The bracket-window existence preconditions, individually reported.

    A negative window needs at least as many '[' as ']', a positive one the reverse.
    """
    sign = _sign(direction)
    return {
        "values_in_range": all(0 <= v <= 4 * semirun.n for v in semirun.values()),
        "delta_large": sign * semirun.delta() > consts.upsilon,
        "bracket_majority": sign * bracket_balance(phi(semirun)) <= 0,
        "parameter_large": semirun.n > consts.m,
    }


# ---------------------------------------------------------------------------
# Hills, valleys, embeddings
# ---------------------------------------------------------------------------


def classify_hill_valley(semirun: Semirun, level: int, upsilon: int) -> str:
    """One of 'hill', 'valley', 'hill-candidate', 'valley-candidate', 'neither'.

    Candidates satisfy the endpoint/interior level conditions but fail a
    parameter-transition margin condition.  A valley is a hill of the
    negated counter, so it is classified as one; negating the counter also
    swaps +p and -p.
    """
    if len(semirun) < 1:
        raise SemirunError("classification needs at least one transition")
    last = len(semirun)
    for name, s in (("hill", 1), ("valley", -1)):
        z = [s * semirun.counter(i) for i in range(last + 1)]
        top = s * level
        if z[0] < top and z[last] < top and all(v >= top for v in z[1:last]):
            for i in range(last):
                op = semirun.op(i)
                if isinstance(op, AddParam) and not (
                    z[i] > z[0] + upsilon if s * op.sign < 0 else z[i + 1] > z[last] + upsilon
                ):
                    return f"{name}-candidate"
            return name
    return "neither"


@dataclass(frozen=True)
class Embedding:
    mapping: tuple  # position map from the embedded semirun into the host
    min_rising: bool
    max_falling: bool


def _orient(value: int, level: int) -> int:
    return (value > level) - (value < level)


def is_embedding(sigma: Semirun, pi: Semirun, level: int) -> Optional[Embedding]:
    """Search for a level-respecting order-preserving rule-label embedding.

    sigma embeds into pi when their endpoint states agree and there is an
    order-preserving injective position map psi with equal rule labels at
    mapped transitions and equal orientation relative to the level at every
    mapped position.  Returns the leftmost mapping, or None.

    One left-to-right scan finds it: position i of sigma takes the first
    position of pi after psi(i - 1) whose counter has sigma's orientation and,
    for i < len(sigma), whose transition carries sigma's rule i.  By induction
    on i, any embedding maps i at or after the scan's choice: its image of i
    lies after its image of i - 1, so after the scan's choice for i - 1, and
    passes the same tests.  So the scan fails only where no embedding exists,
    and otherwise returns the least position at every i, which is the map a
    table over (i, position) rebuilds by taking at every i the least position
    it can reach.
    """
    if sigma.poca is not pi.poca and sigma.poca != pi.poca:
        return None
    n_len, m_len = len(sigma), len(pi)
    if sigma.state(0) != pi.state(0) or sigma.state(n_len) != pi.state(m_len):
        return None
    mapping, j = [], 0
    for i in range(n_len + 1):
        side = _orient(sigma.counter(i), level)
        rule = sigma.poca.rules[sigma.rules[i]] if i < n_len else None
        while j <= m_len and not (
            _orient(pi.counter(j), level) == side
            and (rule is None or j < m_len and pi.poca.rules[pi.rules[j]] == rule)
        ):
            j += 1
        if j > m_len:
            return None
        mapping.append(j)
        j += 1
    return Embedding(
        mapping=tuple(mapping),
        min_rising=sigma.minimum() >= pi.minimum(),
        max_falling=sigma.maximum() <= pi.maximum(),
    )
