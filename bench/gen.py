"""Seeded inputs for the curvespec benchmark.

Everything here is the benchmark's own code: its generator, its exact
line incidence and its point-type counts import nothing from curvespec, so
a change to the program cannot change the inputs it is measured on.

The ``compute`` and ``lines`` inputs live in a stored pool
(``data/<workload>.json``, written by ``build_data.py`` together with the
expected stdout of each input).  Every run uses the whole pool.  The
workload seed relabels each input without changing its combinatorics:
line files get a signed permutation of the coordinates (a projective
automorphism) and a shuffled line order; arrangement files get shuffled and
renamed components, points and branches.  Spectra and the work done stay
the same, so the stored outputs still apply and every seed measures the
same cost profile on different files.  Quantiles of a few dozen repeated
inputs would jump between inputs if a seed chose a different subset.
The ``check`` workload needs no pool: its unit seeds are drawn from the
workload seed's stream, stratified by graph size (see check_seeds).
"""

from __future__ import annotations

import json
from collections import deque
from fractions import Fraction
from math import comb, gcd
from pathlib import Path

DATA_DIR = Path(__file__).resolve().parent / "data"

_MASK = (1 << 64) - 1

# Seed of the stored pools; build_data.py regenerates them from it.
POOL_SEED = 0x5EED_C0DE

COMPUTE_FAMILIES = ("nonreduced", "reduced", "weighted_lines")
COMPUTE_SIZES = 4  # size class k has 7 + k components and up to 12 * (k + 1) points
COMPUTE_VARIANTS = 8

LINE_COUNTS = (16, 24, 32, 40, 48, 56, 64)
LINES_VARIANTS = 5

# Salts keep the streams of the three workloads apart for equal seeds.
_SALT = {"check": 0x43484B, "compute": 0x434D50, "lines": 0x4C4E53}


class Rng:
    """SplitMix64 (Steele, Lea, Flood 2014) with modulo-reduced draws."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return (z ^ (z >> 31)) & _MASK

    def below(self, n: int) -> int:
        return self.next_u64() % n

    def between(self, lo: int, hi: int) -> int:
        """Draw in [lo, hi]."""
        return lo + self.below(hi - lo + 1)

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            k = self.below(i + 1)
            items[i], items[k] = items[k], items[i]


# ---------------------------------------------------------------------
# Exact line incidence (independent of curvespec.lines)
# ---------------------------------------------------------------------


def _primitive(triple) -> tuple[int, int, int]:
    """Primitive integer triple with first nonzero entry positive."""
    fracs = [Fraction(x) for x in triple]
    lcm = 1
    for x in fracs:
        lcm = lcm * x.denominator // gcd(lcm, x.denominator)
    ints = [int(x * lcm) for x in fracs]
    g = gcd(*ints)
    ints = [x // g for x in ints]
    if next(x for x in ints if x) < 0:
        ints = [-x for x in ints]
    return tuple(ints)


def line_incidence(forms) -> tuple[list, list, dict]:
    """Merge proportional forms and collect the lines through every
    pairwise intersection inside the pair loop.

    Returns (lines, multiplicities, {point: sorted line indices}).
    """
    mults: dict[tuple, int] = {}
    for raw, mult in forms:
        key = _primitive(raw)
        mults[key] = mults.get(key, 0) + mult
    lines = list(mults)
    through: dict[tuple, set] = {}
    for i, (a1, b1, c1) in enumerate(lines):
        for k in range(i + 1, len(lines)):
            a2, b2, c2 = lines[k]
            point = _primitive((b1 * c2 - c1 * b2, c1 * a2 - a1 * c2, a1 * b2 - b1 * a2))
            through.setdefault(point, set()).update((i, k))
    return lines, [mults[l] for l in lines], {p: sorted(s) for p, s in sorted(through.items())}


def line_stats(forms) -> dict:
    """Work counts of one line file: distinct lines, line pairs, points."""
    lines, _, through = line_incidence(forms)
    return {"lines": len(lines), "pairs": comb(len(lines), 2), "points": len(through)}


# ---------------------------------------------------------------------
# Point types
# ---------------------------------------------------------------------


def graph_steps(total_degree: int, point_types: list) -> tuple[int, int]:
    """(d * P, d * T) for one formula call: P points, T distinct types."""
    return total_degree * len(point_types), total_degree * len(set(point_types))


def arrangement_point_types(graph) -> tuple[int, list]:
    """Total degree and point types of a curvespec ArrangementGraph, read
    through its public attributes.  A type is the sorted multiset of
    (component multiplicity, branch multiplicity) over the branches."""
    comp_mult = {c.id: c.multiplicity for c in graph.components}
    d = sum(c.degree * c.multiplicity for c in graph.components)
    types = [
        tuple(sorted((comp_mult[br.component], br.mult) for br in p.branches)) for p in graph.points
    ]
    return d, types


# ---------------------------------------------------------------------
# Pool generators
# ---------------------------------------------------------------------


def _curve_arrangement(rng: Rng, n_comp: int, n_points: int, reduced: bool) -> dict:
    """Arrangement of curves whose data a real arrangement could have: every
    component keeps a nonnegative genus, sum_v C(m_{v,l}, 2) <= C(d_l - 1, 2),
    and every pair of components meets at most d_l * d_l' times with
    multiplicity, sum_v m_{v,l} * m_{v,l'} <= d_l * d_l'.  Every point is
    singular (reduced multiplicity >= 2).  Candidate points that would break
    a bound are dropped, so a graph can have fewer than n_points points."""
    degrees = [rng.between(2, 8) if reduced else rng.between(1, 8) for _ in range(n_comp)]
    if reduced:
        mults = [1] * n_comp
    else:
        mults = [rng.between(1, 6) for _ in range(n_comp)]
        mults[0] = rng.between(2, 6)
    genus = [comb(d - 1, 2) for d in degrees]
    bezout = {(i, k): degrees[i] * degrees[k] for i in range(n_comp) for k in range(i + 1, n_comp)}

    points = []
    for _ in range(4 * n_points):
        if len(points) == n_points:
            break
        n_br = rng.between(1, min(4, n_comp))
        pool = list(range(n_comp))
        chosen = sorted(pool.pop(rng.below(len(pool))) for _ in range(n_br))
        branch = {c: 1 + rng.below(min(degrees[c], 3)) for c in chosen}
        if sum(branch.values()) < 2:
            continue
        if any(comb(m, 2) > genus[c] for c, m in branch.items()):
            continue
        pairs = [(i, k) for i in chosen for k in chosen if i < k]
        if any(branch[i] * branch[k] > bezout[i, k] for i, k in pairs):
            continue
        for c, m in branch.items():
            genus[c] -= comb(m, 2)
        for i, k in pairs:
            bezout[i, k] -= branch[i] * branch[k]
        points.append(branch)

    return {
        "components": [
            {"id": f"c{i + 1}", "degree": degrees[i], "multiplicity": mults[i]} for i in range(n_comp)
        ],
        "points": [
            {"id": f"p{k + 1}", "branches": [{"component": f"c{c + 1}", "mult": m} for c, m in br.items()]}
            for k, br in enumerate(points)
        ],
    }


def _rational_json(x: Fraction):
    return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _line_forms(rng: Rng, distinct: int, coeff: int, max_mult: int, weighted: int, copies: int) -> list:
    """Raw linear forms for `distinct` different lines with integer
    coefficients in [-coeff, coeff].

    `weighted` of the lines get a multiplicity in [2, max_mult].  `copies`
    more forms repeat a line, scaled by 2 or written with "p/q" halves, so
    that proportional forms merge.  Fixing these counts keeps the total
    degree of a stratum fixed.
    """
    seen: set = set()
    forms: list = []
    while len(forms) < distinct:
        form = [rng.between(-coeff, coeff) for _ in range(3)]
        if any(form) and _primitive(form) not in seen:
            seen.add(_primitive(form))
            forms.append({"form": form, "multiplicity": 1})
    indices = list(range(distinct))
    rng.shuffle(indices)
    for i in indices[:weighted]:
        forms[i]["multiplicity"] = rng.between(2, max_mult)
    originals = [f["form"] for f in forms]
    for _ in range(copies):
        raw = originals[rng.below(distinct)]
        scaled = [Fraction(2 * x) for x in raw] if rng.below(2) else [Fraction(x, 2) for x in raw]
        forms.insert(rng.below(len(forms) + 1), {"form": [_rational_json(x) for x in scaled], "multiplicity": 1})
    return forms


def form_pairs(entries) -> list:
    """(form, multiplicity) pairs of the entries of a line file."""
    return [(e["form"], e["multiplicity"]) for e in entries]


def _weighted_lines_arrangement(rng: Rng, n_lines: int) -> dict:
    entries = _line_forms(rng, n_lines, coeff=3, max_mult=6, weighted=n_lines // 2, copies=1)
    _, mults, through = line_incidence(form_pairs(entries))
    return {
        "components": [
            {"id": f"c{i + 1}", "degree": 1, "multiplicity": m} for i, m in enumerate(mults)
        ],
        "points": [
            {"id": f"p{k + 1}", "branches": [{"component": f"c{i + 1}", "mult": 1} for i in idx]}
            for k, idx in enumerate(through.values())
        ],
    }


def compute_pool_inputs() -> list[dict]:
    """Every stored ``compute`` input with its stratum, in pool order."""
    rng = Rng(POOL_SEED ^ _SALT["compute"])
    items = []
    for family in COMPUTE_FAMILIES:
        for size in range(COMPUTE_SIZES):
            for variant in range(COMPUTE_VARIANTS):
                n_comp, n_points = 7 + size, 12 * (size + 1)
                if family == "weighted_lines":
                    arrangement = _weighted_lines_arrangement(rng, n_comp + 1)
                else:
                    arrangement = _curve_arrangement(rng, n_comp, n_points, family == "reduced")
                items.append({"stratum": [family, size], "variant": variant, "input": arrangement})
    return items


def lines_pool_inputs() -> list[dict]:
    """Every stored ``lines`` input with its stratum, in pool order."""
    rng = Rng(POOL_SEED ^ _SALT["lines"])
    items = []
    for count in LINE_COUNTS:
        for variant in range(LINES_VARIANTS):
            entries = _line_forms(rng, count, coeff=5, max_mult=2, weighted=count // 8, copies=count // 8)
            items.append({"stratum": [count], "variant": variant, "input": entries})
    return items


POOL_GENERATORS = {"compute": compute_pool_inputs, "lines": lines_pool_inputs}


# ---------------------------------------------------------------------
# Per-seed inputs
# ---------------------------------------------------------------------


def load_pool(workload: str) -> list[dict]:
    with open(DATA_DIR / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)["items"]


def _relabel_lines(rng: Rng, entries: list) -> list:
    perm = [0, 1, 2]
    rng.shuffle(perm)
    signs = [1 - 2 * rng.below(2) for _ in range(3)]
    out = [
        {
            "form": [_rational_json(signs[i] * Fraction(e["form"][perm[i]])) for i in range(3)],
            "multiplicity": e["multiplicity"],
        }
        for e in entries
    ]
    rng.shuffle(out)
    return out


def _relabel_arrangement(rng: Rng, arrangement: dict) -> dict:
    comps = arrangement["components"]
    names = list(range(1, len(comps) + 1))
    rng.shuffle(names)
    rename = {c["id"]: f"c{n}" for c, n in zip(comps, names)}
    components = [dict(c, id=rename[c["id"]]) for c in comps]
    rng.shuffle(components)
    points = []
    for p in arrangement["points"]:
        branches = [dict(b, component=rename[b["component"]]) for b in p["branches"]]
        rng.shuffle(branches)
        points.append(branches)
    rng.shuffle(points)
    return {
        "components": components,
        "points": [{"id": f"p{k + 1}", "branches": b} for k, b in enumerate(points)],
    }


def seeded_inputs(workload: str, seed: int, pool: list[dict]) -> list[dict]:
    """Copies of every pool item with the seed's relabelled input, in a
    seeded order."""
    rng = Rng(seed ^ _SALT[workload])
    relabel = _relabel_lines if workload == "lines" else _relabel_arrangement
    items = [dict(item, input=relabel(rng, item["input"])) for item in pool]
    rng.shuffle(items)
    return items


# The `check` unit for seed s is the graph curvespec's generator draws from
# SplitMix64(s) with the default bounds; the draw order is a documented
# contract (curvespec/randomgraphs.py): component count 1 + below(5), per
# component degree 1 + below(4) then multiplicity 1 + below(4), then point
# count 1 + below(8).  Rng is the same generator, so the benchmark reads a
# seed's point count P and total degree d without running the program.
# (P, d // 8) explains about 90 % of the variance of log unit time.


def check_stratum(seed: int) -> tuple[int, int]:
    """(P, min(d // 8, 5)) of the default-bounds graph for `seed`."""
    rng = Rng(seed)
    n_comp = 1 + rng.below(5)
    d = sum((1 + rng.below(4)) * (1 + rng.below(4)) for _ in range(n_comp))
    return 1 + rng.below(8), min(d // 8, 5)


def check_stratum_shares() -> dict[tuple[int, int], float]:
    """Exact share of every stratum among default-bounds graphs."""
    products = [a * b for a in range(1, 5) for b in range(1, 5)]
    degree = {0: Fraction(1)}  # distribution of d over the components so far
    shares: dict[tuple[int, int], Fraction] = {}
    for _ in range(5):  # 1 to 5 components, each count with probability 1/5
        summed: dict[int, Fraction] = {}
        for d, p in degree.items():
            for k in products:
                summed[d + k] = summed.get(d + k, 0) + p / 16
        degree = summed
        for d, p in degree.items():
            for points in range(1, 9):
                key = (points, min(d // 8, 5))
                shares[key] = shares.get(key, 0) + p / 40
    return {key: float(share) for key, share in sorted(shares.items())}


def check_seeds(seed: int):
    """Endless `check --seed` values drawn from one workload seed's stream by
    proportional stratified sampling: the next value always comes from the
    stratum furthest behind its share, so every run has the same mix of
    graph sizes as the generator's own stream, with less spread."""
    rng = Rng(seed ^ _SALT["check"])
    shares = check_stratum_shares()
    waiting: dict[tuple[int, int], deque] = {key: deque() for key in shares}
    served = dict.fromkeys(shares, 0)
    n = 0
    while True:
        n += 1
        want = max(shares, key=lambda key: shares[key] * n - served[key])
        while not waiting[want]:
            value = rng.next_u64()
            waiting[check_stratum(value)].append(value)
        served[want] += 1
        yield waiting[want].popleft()
