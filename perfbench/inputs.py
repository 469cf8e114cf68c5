"""Seeded inputs for the four workloads, built without importing antipal.

Everything here is plain string arithmetic driven by ``random.Random(seed)``,
so the same seed gives the same morphism texts on every commit, and the
program under test only ever receives the generated texts.  The shape of
each draw (which classes, which image lengths) is fixed; the seed picks the
letters.  That keeps the cost of a run nearly seed-independent while the
inputs still differ from seed to seed.
"""

from __future__ import annotations

import hashlib
import json
import random
from itertools import product

# Scan: the full image-length <= 3 space (105 records, about 9 s serial).
SCAN_BOUND = 3

# Deciders: image lengths the long-image draw covers, one of each per round.
DECIDER_LENGTHS = (12, 16, 20, 24, 28, 32)
# A2 shapes (core length, k, h) whose two images both have length 12..32.
A2_SHAPES = ((1, 3, 5), (2, 1, 2), (2, 3, 1), (3, 2, 1))
FAMILY_KS = tuple(range(4, 11))  # 0->0(110)^k with image lengths 13..31
# A random pair whose 25k-letter evidence prefix has a short period p sends
# classify through a proven-period check that builds strings of
# lcm(p, |host(prefix[:p])|) letters; over random pairs that ranges from about
# 10^6 to 10^9 letters (up to gigabytes), at random.  So the random pairs are
# drawn from the aperiodic-looking rest, and one fixed periodic-looking pair
# with a 1.7 * 10^6-letter window takes that path in every round.
PERIODIC_MEMBER = "0->110010001000,1->11111011010011110101"
EVIDENCE_PREFIX = 25_000

# Census: the named fixed points, then seeded ones from the <= 4 space.
CENSUS_NAMED = (
    ("thue-morse", "0->01,1->10"),
    ("fibonacci", "0->01,1->0"),
    ("period-doubling", "0->01,1->00"),
    ("pinned", "0->0101,1->1100"),
    ("thue-morse-squared", "0->0110,1->1001"),
)
CENSUS_SEEDED = 1
CENSUS_PREFIX = 100_000
CENSUS_NMAX = 64
CENSUS_CENTER = 32
# The acceptance suite's family grid: 77 lengths up to 6144, n_max 6250.
GRID = tuple(range(1, 65)) + (96, 128, 192, 256, 384, 512, 768, 1024, 1536, 2048, 3072, 4096, 6144)
GRID_NMAX = 6250
GRID_KS = (1, 2)

# CLI: per round, this many morphisms get `classify`, the first few of them
# also `analyze`, and one `fixedpoint` call writes 10^7 letters of Thue-Morse
# as JSON.  Two thirds of the commands are classify calls, so the median
# command sits inside the classify cluster rather than between clusters.
CLI_MORPHISMS = 6
CLI_ANALYZE = 2
FIXEDPOINT_MORPHISM = "0->01,1->10"
FIXEDPOINT_LENGTH = 10_000_000


def exchange(w: str) -> str:
    return w.translate(str.maketrans("01", "10"))[::-1]


def theta(w: str) -> str:
    return w.translate(str.maketrans({"0": "01", "1": "10"}))


def text(image0: str, image1: str) -> str:
    return f"0->{image0},1->{image1}"


def images(t: str) -> tuple[str, str]:
    left, right = t.split(",")
    return left[3:], right[3:]


def is_primitive(image0: str, image1: str) -> bool:
    a, b = image0.count("0"), image1.count("0")
    c, d = image0.count("1"), image1.count("1")
    return min(a * a + b * c, a * b + b * d, c * a + d * c, c * b + d * d) > 0


def prolongable_letter(image0: str, image1: str) -> str | None:
    """Smallest letter the fixed point can start with, for a primitive morphism."""
    for letter, image in (("0", image0), ("1", image1)):
        if len(image) >= 2 and image[0] == letter:
            return letter
    return None


def small_space(bound: int) -> list[str]:
    """Canonical morphism texts with image lengths <= bound (one of each letter-swap pair)."""
    words = ["".join(p) for n in range(1, bound + 1) for p in product("01", repeat=n)]
    swap = str.maketrans("01", "10")
    out = []
    for i0 in words:
        for i1 in words:
            t = text(i0, i1)
            if t <= text(i1.translate(swap), i0.translate(swap)):
                out.append(t)
    return sorted(out)


def fixed_prefix(image0: str, image1: str, letter: str, n: int) -> str:
    """Length-n prefix of the fixed point starting with ``letter``, by plain iteration."""
    table = str.maketrans({"0": image0, "1": image1})
    w = letter
    while len(w) < n:
        longer = w.translate(table)
        if len(longer) <= len(w):
            raise ValueError(f"{text(image0, image1)} does not grow from {letter}")
        w = longer
    return w[:n]


def smallest_period(w: str) -> int:
    border, k = [0] * len(w), 0
    for i in range(1, len(w)):
        while k and w[i] != w[k]:
            k = border[k - 1]
        if w[i] == w[k]:
            k += 1
        border[i] = k
    return len(w) - border[-1]


def _short_period(image0: str, image1: str) -> bool:
    """Whether the evidence prefix classify reads (of m, else of m^2) has period <= 1/4 of it."""
    for host in ((image0, image1), square(image0, image1)):
        letter = prolongable_letter(*host)
        if letter:
            prefix = fixed_prefix(*host, letter, EVIDENCE_PREFIX)
            return smallest_period(prefix) <= len(prefix) // 4
    return False


def square(image0: str, image1: str) -> tuple[str, str]:
    table = str.maketrans({"0": image0, "1": image1})
    return image0.translate(table), image1.translate(table)


def _bits(rng: random.Random, n: int) -> str:
    return "".join(rng.choice("01") for _ in range(n))


def _a1_member(rng: random.Random, length: int) -> str:
    """A primitive A1-built morphism 0->h+s, 1->E(h)+s with s = E(g)+g.

    The suffix is half the image: the chain of the square, and with it the
    witness enumeration this workload is meant to load, grows with the
    shared suffix, and a fixed share keeps the cost per length steady.
    """
    half = length // 4
    while True:
        h, g = _bits(rng, length - 2 * half), _bits(rng, half)
        s = exchange(g) + g
        if is_primitive(h + s, exchange(h) + s):
            return text(h + s, exchange(h) + s)


def _random_pair(rng: random.Random, length: int) -> str:
    while True:
        pair = _bits(rng, length), _bits(rng, rng.choice(DECIDER_LENGTHS))
        if not _short_period(*pair):
            return text(*pair)


def _a2_member(rng: random.Random, shape: tuple[int, int, int]) -> str:
    ell, k, h = shape
    core = _bits(rng, ell)
    r = core[::-1]
    return text(theta(core + (r + core) * k), theta((r + core) * h + r))


def deciders_jobs(seed: int, rounds: int) -> list[tuple[str, str]]:
    """(kind, morphism text) pairs; every round has the same mix of kinds and lengths."""
    rng = random.Random(f"deciders:{seed}")
    jobs = []
    for _ in range(rounds):
        batch = [("a1", _a1_member(rng, n)) for n in DECIDER_LENGTHS]
        batch += [("a2", _a2_member(rng, s)) for s in A2_SHAPES]
        batch += [("family", text("0" + "110" * k, "1" + "001" * k)) for k in rng.sample(FAMILY_KS, 2)]
        batch += [("random", _random_pair(rng, n)) for n in rng.sample(DECIDER_LENGTHS, 3)]
        batch.append(("periodic", PERIODIC_MEMBER))
        rng.shuffle(batch)
        jobs += batch
    return jobs


def _primitive_prolongable(bound: int) -> list[str]:
    return [t for t in small_space(bound) if is_primitive(*images(t)) and prolongable_letter(*images(t))]


def census_jobs(seed: int, rounds: int) -> list[dict]:
    """Each round: every named fixed point, a seeded draw, then the family
    grid, for k = 1 and k = 2 in turn."""
    rng = random.Random(f"census:{seed}")
    named = {t for _, t in CENSUS_NAMED}
    pool = [t for t in _primitive_prolongable(4) if t not in named]
    jobs = []
    for r in range(rounds):
        k = GRID_KS[r % len(GRID_KS)]
        jobs += [{"kind": "index", "name": n, "morphism": t} for n, t in CENSUS_NAMED]
        jobs += [{"kind": "index", "name": "seeded", "morphism": t} for t in rng.sample(pool, CENSUS_SEEDED)]
        jobs.append({"kind": "grid", "name": f"family-k{k}", "morphism": text("0" + "110" * k, "1" + "001" * k)})
    for job in jobs:
        job["letter"] = prolongable_letter(*images(job["morphism"]))
    return jobs


def cli_jobs(seed: int, rounds: int) -> list[list[str]]:
    """Argument lists for `antipal`; each round is classify per morphism,
    analyze for the first CLI_ANALYZE of them, then fixedpoint."""
    rng = random.Random(f"cli:{seed}")
    pool = _primitive_prolongable(4)
    jobs = []
    for _ in range(rounds):
        chosen = rng.sample(pool, CLI_MORPHISMS)
        jobs += [["classify", t, "--format", "json"] for t in chosen]
        jobs += [["analyze", t, "--format", "json"] for t in chosen[:CLI_ANALYZE]]
        jobs.append(["fixedpoint", FIXEDPOINT_MORPHISM, "--length", str(FIXEDPOINT_LENGTH), "--format", "json"])
    return jobs


def scan_cut(seed: int) -> tuple[int, float]:
    """Record index (early, so the resume redoes nearly every record and the
    redone share is steady) and the fraction of that record's line kept
    before the damaged tail."""
    rng = random.Random(f"scan:{seed}")
    return rng.randrange(2, 10), rng.uniform(0.05, 0.95)


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]
