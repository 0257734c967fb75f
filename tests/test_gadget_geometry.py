"""The builder's chain and point-reset tables against the region classification.

Between two resets a 0/1 run moves its clock pair along a diagonal in unit
steps, so ``region_of``, which knows nothing of the tables, says which
regions a class's chain must visit and what difference a reset leaves.
"""

import re

import pytest

from ptareach.automata import AddConst
from ptareach.poca_build import CHAINS, _ACTIONS, _case, _crossings, _reset
from ptareach.regions import Region, region_of


def _entry_points(n):
    """(class, clock pair just after the reset that enters it) per class."""
    yield "Z0", (0, 0)
    for d in range(1, n):
        yield "YMID", (d, 0)
        yield "XMID", (0, d)
    for side, d in (("N", n), ("HI", n + 1)):
        yield "Y" + side, (d, 0)
        yield "X" + side, (0, d)


def _z_holds(cond, z, n) -> bool:
    """Whether a crossing's z condition, such as "z<=N-2", holds."""
    if cond is None:
        return True
    cmp, rhs = re.fullmatch(r"z(<=|>=|=)(.+)", cond).groups()
    value = sum(
        (-1 if term[0] == "-" else 1) * (n if term[-1] == "N" else int(term.lstrip("+-")))
        for term in re.findall(r"[+-]?(?:\d+|N)", rhs)
    )
    return {"<=": z <= value, ">=": z >= value, "=": z == value}[cmp]


def _class_of(z, n) -> str:
    if z == 0:
        return "Z0"
    return ("Y" if z > 0 else "X") + ("MID" if abs(z) < n else "N" if abs(z) == n else "HI")


def _check_point_resets(kappa, region, x, y, n):
    """Each reset key's action gives the class and the clamped value of the
    difference after the reset; returns the number of keys checked."""
    z = x - y
    for rk, (x2, y2) in (("y", (x, 0)), ("x", (0, y)), ("xy", (0, 0))):
        _, action, target = _reset(kappa, region, None, rk)
        assert target == _class_of(x2 - y2, n), (kappa, region, rk, n)
        _, collapse, ops = _ACTIONS[action]
        moved = sum(op.value if isinstance(op, AddConst) else op.sign * n for op in ops)
        assert (0 if collapse else z) + moved == max(-n - 1, min(x2 - y2, n + 1)), (
            kappa, region, rk, n,
        )
    return 3


@pytest.mark.parametrize("n", range(2, 9))
def test_chains_and_point_resets_follow_region_of(n):
    walks = resets = 0
    for kappa, (x, y) in _entry_points(n):
        chain, slot, z = CHAINS[kappa], 0, x - y
        assert region_of((x, y), n) is chain[0], (kappa, n)
        while slot + 1 < len(chain):
            if _case(kappa, chain[slot]) is None:
                resets += _check_point_resets(kappa, chain[slot], x, y, n)
            x, y = x + 1, y + 1
            now = region_of((x, y), n)
            if now is chain[slot]:
                continue  # a dwell inside an open cell
            taken = [nxt for nxt, cond in _crossings(kappa, slot) if _z_holds(cond, z, n)]
            assert [chain[nxt] for nxt in taken] == [now], (kappa, z, n, slot)
            slot = taken[0]
        assert chain[slot] is Region.UPPER_RIGHT and _crossings(kappa, slot) == ()
        walks += 1
    assert walks == 2 * n + 3 and resets > 0
