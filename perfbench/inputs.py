"""Seeded input generator for the benchmark.

Plain Python (``random.Random``) and independent of gwidiv: a change to the
library cannot change the inputs it is measured on.  A constellation is a
tuple ``(beta_a, beta_h, alpha_a, alpha_h)``; the case label is the one the
paper's partition assigns at order lambda = 1/2, worked out here from the
definitions rather than by calling ``gwidiv.classify``.
"""

from __future__ import annotations

import math
import random

CASES = ("NI", "SP1", "SP2", "SP3a", "SP3b", "SP3c", "SP3d", "SP4")

#: orders lambda used by the Hellinger queries
LAMBDAS = (0.1, 0.3, 0.5, 0.7, 0.9)


def _phi0_prime(ba: float, bh: float, aa: float, ah: float, lam: float = 0.5) -> float:
    """phi'(0); its sign splits SP3a (<= 0) from SP3b (> 0)."""
    r = aa / ah
    return lam * ba * r ** (lam - 1.0) + (1.0 - lam) * bh * r**lam - (lam * ba + (1.0 - lam) * bh)


def _offspring_pair(rng: random.Random, beta, beta_h, gap, level):
    lo, hi = beta
    lo_h, hi_h = beta_h or beta
    while True:
        bh = lo_h + (hi_h - lo_h) * (rng.random() if level is None else level)
        if gap is None:
            ba = rng.uniform(lo, hi)
        else:
            fits = [bh + d for d in (-gap, gap) if lo <= bh + d <= hi]
            if not fits:
                level = None  # no room for this gap at this level: redraw the level
                continue
            ba = rng.choice(fits)
        if abs(ba - bh) >= 0.05:
            return ba, bh


def stratified_gap(rng: random.Random, i: int, count: int, lo: float = 0.05, hi: float = 0.6) -> float:
    """|beta_a - beta_h| from the i-th of ``count`` log-spaced strata of [lo, hi].

    The cost of several scans grows like 1/gap^2; one draw per stratum keeps
    the total work of a seed's constellations close to that of any other seed.
    """
    return lo * (hi / lo) ** ((i + rng.random()) / count)


def constellation(rng: random.Random, case: str, beta=(0.3, 1.25), beta_h=None,
                  gap=None, level=None, x_int=None) -> tuple:
    """Draw ``(beta_a, beta_h, alpha_a, alpha_h)`` of the given case.

    ``beta`` bounds both offspring means; ``beta_h`` optionally gives the
    hypothesis mean its own range (a supercritical alternative against a
    subcritical hypothesis, say).  Stratified draws fix ``gap`` =
    |beta_a - beta_h|, the position ``level`` in [0, 1) of beta_h in its
    range, and the integer part ``x_int`` of the SP3c/SP3d crossing point.
    """
    for attempt in range(10_000):
        # a few strata cannot hold every case: release one constraint at a time
        if attempt == 100:
            x_int = None
        elif attempt == 200:
            level = None
        elif attempt == 300:
            gap = None
        ba, bh = _offspring_pair(rng, beta, beta_h, gap, level)
        if case == "NI":
            return ba, bh, 0.0, 0.0
        if case == "SP1":
            scale = rng.uniform(0.3, 2.0)
            return ba, bh, scale * ba, scale * bh
        if case == "SP2":
            alpha = rng.uniform(0.2, 2.0)
            return ba, bh, alpha, alpha
        if case == "SP4":
            aa, ah = rng.uniform(0.2, 2.0), rng.uniform(0.2, 2.0)
            if abs(aa - ah) >= 0.05:
                return ba, ba, aa, ah
            continue
        if case in ("SP3a", "SP3b"):
            x_star = -rng.uniform(0.2, 5.0)
        elif case == "SP3c":
            x_star = (rng.randrange(0, 4) if x_int is None else x_int) + rng.uniform(0.15, 0.85)
        elif case == "SP3d":
            x_star = float(rng.randrange(1, 5) if x_int is None else x_int + 1)
        else:
            raise ValueError(f"unknown case {case!r}")
        aa = rng.uniform(0.3, 2.2)
        ah = aa + x_star * (ba - bh)
        if ah < 0.05 or abs(aa - ah) < 1e-3:
            continue
        if case in ("SP3a", "SP3b") and (_phi0_prime(ba, bh, aa, ah) <= 0.0) != (case == "SP3a"):
            continue
        return ba, bh, aa, ah
    raise RuntimeError(f"no {case} constellation found")


def near_one(rng: random.Random) -> tuple:
    """A strictly positive constellation with beta_a = 1 +- 10^u, u in [-12, -3]."""
    d = 10.0 ** rng.uniform(-12.0, -3.0)
    ba = 1.0 + d if rng.random() < 0.5 else 1.0 - d
    bh = rng.uniform(0.4, 0.8)
    aa = rng.uniform(0.5, 2.5)
    ah = aa * rng.uniform(0.8, 1.25)
    return ba, bh, aa, ah


def sde(rng: random.Random) -> tuple:
    """Diffusion parameters ``(eta, kappa_a, kappa_h, sigma, x0_tilde)``."""
    while True:
        ka, kh = rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0)
        if abs(ka - kh) >= 0.2:
            break
    return rng.uniform(0.2, 2.0), ka, kh, rng.uniform(0.5, 1.5), rng.uniform(0.5, 2.0)


def m_grid(sde_args: tuple) -> list[int]:
    """Approximation steps 10^2 .. 10^8 in half decades, all admissible (both
    offspring means in (0, 1])."""
    _eta, ka, kh, sigma, _x0 = sde_args
    floor = math.ceil(max(ka, kh) / sigma**2) + 1
    return [m for m in (round(10 ** (k / 2)) for k in range(4, 17)) if m >= floor]


#: seeded diffusions of long-horizon, besides the fixed one the pre-limit
#: breaks on.  With 13 steps m each, their pre-limit queries are over half
#: the cycle, so its median latency is that of a pre-limit query.
LONG_DIFFUSIONS = 9


#: desk-atlas constellations per case, one per gap stratum
DESK_STRATA = 16


def desk_atlas(seed: int) -> dict:
    """Per case 16 constellations, each with an initial population omega0 <= 10
    and two horizons n <= 20.

    The draws are stratified (one per offspring-gap stratum, each paired with
    one offspring-level stratum; lambdas and crossing points in rotation), so
    every seed gets a different atlas with nearly the same total work: the
    scans that dominate it grow like level / gap^2.
    """
    rng = random.Random(f"desk-atlas:{seed}")
    items = []
    for case in CASES:
        for i in range(DESK_STRATA):
            # gap stratum i is paired with level stratum 7i mod 16, the same
            # pairing for every seed (a Latin-square design over both)
            level = ((7 * i) % DESK_STRATA + rng.random()) / DESK_STRATA
            params = constellation(rng, case, gap=stratified_gap(rng, i, DESK_STRATA),
                                   level=level, x_int=i % 4)
            items.append({
                "case": case,
                "stratum": i,
                "params": params,
                "omega0": rng.randint(1, 10),
                "ns": (rng.randint(1, 10), rng.randint(11, 20)),
                "lams": tuple(LAMBDAS[(i + j) % len(LAMBDAS)] for j in range(4)),
                "decision": (rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0),
                             rng.uniform(0.2, 0.8), rng.choice((0.01, 0.05, 0.1))),
            })
    return {"constellations": items}


#: cases whose Hellinger report runs a single recursion (exact, or lower
#: bound only), and the lambdas each of them gets in long-horizon
ONE_RECURSION_CASES = ("NI", "SP1", "SP4")
ONE_RECURSION_LAMBDAS = 4


def long_horizon(seed: int) -> dict:
    """One constellation per case, three supercritical ones, one with
    beta_a near 1, and LONG_DIFFUSIONS diffusions (plus the fixed diffusion
    the pre-limit is known to break on).  Each constellation gets three
    entropy queries and Hellinger reports at n = 1e3 and 1e4, at four
    lambdas where the bounds take one recursion; some also run to n = 1e5
    (see ``workloads.LONGEST_CASES``)."""
    rng = random.Random(f"long-horizon:{seed}")
    items = [{"case": case, "params": constellation(rng, case, beta=(0.3, 1.0))} for case in CASES]
    # the entropy scans of supercritical constellations grow with beta_a, so
    # each family gets its own narrow band of it
    for j, case in enumerate(("SP2", "SP3b", "SP3c")):
        band = (1.1 + 0.05 * j, 1.15 + 0.05 * j)
        items.append({"case": case + "-super",
                      "params": constellation(rng, case, beta=band, beta_h=(0.8, 1.0))})
    items.append({"case": "near-one", "params": near_one(rng)})
    for k, item in enumerate(items):
        item["omega0"] = rng.randint(1, 20)
        lams = ONE_RECURSION_LAMBDAS if item["case"] in ONE_RECURSION_CASES else 1
        item["lams"] = tuple(LAMBDAS[(k + 2 * j) % len(LAMBDAS)] for j in range(lams))
    fixed = (0.5, 2.0, 1.0, 1.0, 1.0)
    diffusions = [{"sde": sde(rng), "lam": rng.choice(LAMBDAS), "t": rng.uniform(0.5, 2.0)}
                  for _ in range(LONG_DIFFUSIONS)]
    diffusions.append({"sde": fixed, "lam": 0.5, "t": 1.0})
    return {"constellations": items, "diffusions": diffusions}


#: horizon of oracle-certify's enumerated profiles
PROFILE_N = 6

#: offspring means of oracle-certify: subcritical, and far enough below 1
#: that populations stay at desk scale over the profile's horizon
ORACLE_BETA = (0.3, 0.9)

#: initial populations of oracle-certify run over 1..ORACLE_OMEGA0_MAX
ORACLE_OMEGA0_MAX = 6

#: path-law atoms: at most this initial population, at n = 3 up to
#: ATOMS_N3_OMEGA0_MAX and n = 2 above it
ATOMS_OMEGA0_MAX = 4
ATOMS_N3_OMEGA0_MAX = 2

#: candidate draws per oracle-certify slot; the one whose work is closest
#: to that of the slot's template draw is kept
ORACLE_CANDIDATES = 48

#: the oracle's default discarded-mass budget (``TruncationPolicy``)
TAIL_BUDGET = 1e-9


def _poisson_cutoff(rate: float, eps: float) -> int:
    """Smallest y whose Poisson(rate) tail beyond it is at most about eps."""
    if rate <= 0.0:
        return 0
    y = int(rate)
    log_p = -rate + y * math.log(rate) - math.lgamma(y + 1)
    log_eps = math.log(eps)
    while True:
        log_next = log_p + math.log(rate / (y + 1))
        # the tail beyond y is below p(y + 1) / (1 - rate / (y + 2))
        if log_next - math.log1p(-rate / (y + 2)) <= log_eps:
            return y
        y, log_p = y + 1, log_next


def _enumeration_work(rate, omega0: int, n: int) -> tuple[int, int]:
    """(state expansions, Poisson terms) of an n-step enumeration from omega0
    whose next-state rate at x is ``rate(x)``, truncated as the oracle does:
    every state 0..top is live after the first step, and each expansion
    keeps the terms up to its cutoff (taken at the middle live state)."""
    top, live = omega0, 1
    expansions = terms = 0
    for _ in range(n):
        eps = TAIL_BUDGET / (n * live)
        expansions += live
        terms += live * (_poisson_cutoff(rate(top / 2.0 if live > 1 else top), eps) + 1)
        top = _poisson_cutoff(rate(top), eps)
        live = top + 1
    return expansions, terms


def _oracle_work(params: tuple, lam: float, omega0: int, atoms: tuple[int, int]) -> tuple:
    """Work of a slot's enumerations: the profile follows the lambda-mixed
    rate, the path-law atoms the larger of the two rates."""
    ba, bh, aa, ah = params

    def mixed(x: float) -> float:
        return (ba * x + aa) ** lam * (bh * x + ah) ** (1.0 - lam)

    def larger(x: float) -> float:
        return max(ba * x + aa, bh * x + ah)

    return (*_enumeration_work(mixed, omega0, PROFILE_N), *_enumeration_work(larger, *atoms))


def _oracle_draw(rng: random.Random, case: str) -> tuple:
    return constellation(rng, case, beta=ORACLE_BETA, gap=stratified_gap(rng, 0, 1, hi=0.5))


def oracle_certify(seed: int) -> dict:
    """One desk-scale constellation per case (subcritical offspring, gap
    |beta_a - beta_h| in [0.05, 0.5]), with initial populations 1..6 and
    lambdas in rotation.

    Enumeration cost grows steeply with the population the offspring and
    immigration means lead to, so each case keeps, of ORACLE_CANDIDATES
    seeded draws, the one whose enumeration work (``_oracle_work``) is
    closest to that of a fixed template draw.  Every seed then enumerates
    state spaces of nearly the same sizes, in the same slots."""
    rng = random.Random(f"oracle-certify:{seed}")
    template_rng = random.Random("oracle-certify:template")
    items = []
    for k, case in enumerate(CASES):
        omega0 = 1 + k % ORACLE_OMEGA0_MAX
        atoms = (min(omega0, ATOMS_OMEGA0_MAX), 3 if omega0 <= ATOMS_N3_OMEGA0_MAX else 2)
        lam = LAMBDAS[k % len(LAMBDAS)]
        target = _oracle_work(_oracle_draw(template_rng, case), lam, omega0, atoms)

        def distance(params: tuple) -> float:
            work = _oracle_work(params, lam, omega0, atoms)
            return sum(abs(math.log(a / b)) for a, b in zip(work, target))

        candidates = [_oracle_draw(rng, case) for _ in range(ORACLE_CANDIDATES)]
        items.append({
            "case": case,
            "params": min(candidates, key=distance),
            "lam": lam,
            "omega0": omega0,
            "atoms": atoms,
            "decision": (rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0),
                         rng.uniform(0.2, 0.8), rng.choice((0.05, 0.1, 0.2))),
            "mc_seed": rng.randrange(2**31),
        })
    return {"constellations": items}


#: CLI presets by the kind of answer they have (names as in ``gwidiv classify -h``)
EXACT_PRESETS = ("ni-small", "sp1-small")
BOUND_PRESETS = ("a2-example", "a3-example", "a4-example", "a5-example", "a7-sp2",
                 "a7-sp3a", "a7-sp3b", "a7-sp3c", "sp3d-entropy", "sp4-example")


def cli_calls(seed: int) -> dict:
    """One call of each of the ten commands (three of ``hellinger``); ``expect``
    is the exit code that counts as success (3 for ``--method exact`` forced
    on a bound case)."""
    rng = random.Random(f"cli-session:{seed}")
    presets = EXACT_PRESETS + BOUND_PRESETS

    def horizon(n_hi: int = 20) -> list[str]:
        return ["--omega0", str(rng.randint(1, 10)), "--n", str(rng.randint(1, n_hi))]

    eta, ka, kh, sigma, x0 = sde(rng)
    calls = [
        ["classify", "--preset", rng.choice(presets)],
        ["hellinger", "--preset", rng.choice(presets), *horizon()],
        ["hellinger", "--preset", rng.choice(BOUND_PRESETS), "--method", "bounds", *horizon()],
        ["hellinger", "--preset", rng.choice(BOUND_PRESETS), "--method", "exact", *horizon()],
        ["divergence", "--preset", rng.choice(presets), *horizon()],
        ["entropy", "--preset", rng.choice(presets), *horizon()],
        ["diffusion", "--eta", repr(eta), "--kappa-a", repr(ka), "--kappa-h", repr(kh),
         "--sigma", repr(sigma), "--x0-tilde", repr(x0), "--lambda", repr(rng.choice(LAMBDAS)),
         "--t", repr(rng.uniform(0.5, 2.0)), "--m", str(10 ** rng.randint(3, 5))],
        ["bayes", "--preset", rng.choice(presets), *horizon(),
         "--prior-h", repr(rng.uniform(0.2, 0.8))],
        ["nptest", "--preset", rng.choice(presets), *horizon(),
         "--level", repr(rng.choice((0.01, 0.05, 0.1)))],
        ["verify", "--preset", rng.choice(presets), "--omega0", str(rng.randint(1, 5)),
         "--n", str(rng.randint(1, 3))],
        ["simulate", "--preset", rng.choice(presets), "--omega0", str(rng.randint(1, 5)),
         "--n", str(rng.randint(1, 5)), "--reps", "20000", "--seed", str(rng.randrange(1000))],
        ["sweep", "--preset", rng.choice(presets), "--axis", "lambda",
         "--grid", "0.1:0.9:9", *horizon()],
    ]
    return {"calls": [{"argv": argv, "expect": 3 if "exact" in argv else 0} for argv in calls]}


GENERATORS = {
    "desk-atlas": desk_atlas,
    "long-horizon": long_horizon,
    "oracle-certify": oracle_certify,
}
