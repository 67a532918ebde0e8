"""The four benchmark workloads: seeded, stratified op lists with checks.

Each workload fixes how many ops every stratum holds and, where rules
differ much in cost, which rule each op uses; the seed picks the other
members (rules from a pool, configurations, words, coefficients).  An op is
one unit of user work (one rule, one orbit job, one search job):
``Op.run`` is the timed call into periodika, ``Op.check``
re-derives the answer with ``reference`` (which shares no code with the
package) and returns ``None`` when the output is right, or a reason.

Every op calls the package through module attributes at call time
(``P.engine.temporal_cycle``), so the traced run can swap those attributes
for timing wrappers.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from functools import partial
from itertools import product
from math import gcd, lcm
from typing import Callable

import reference as ref


@dataclass
class Op:
    stratum: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


@dataclass
class Workload:
    name: str
    ops: list[Op]
    # (op index, function making a wrong copy of that op's verified output)
    selftest: tuple[int, Callable[[object], object]]
    # extra check over the whole pass, for checks that span ops
    check_pass: Callable[[list], str | None] | None = None


def _spec(m: int, coeffs) -> str:
    return f"additive:m={m};r={(len(coeffs) - 1) // 2};c={','.join(str(c) for c in coeffs)}"


def _sensitive(m: int, coeffs) -> bool:
    r = (len(coeffs) - 1) // 2
    off = gcd(*(c for j, c in enumerate(coeffs) if j != r))
    return any(off % p for p, _ in ref.factorize(m))


def _coeff_map(coeffs) -> dict:
    r = (len(coeffs) - 1) // 2
    return {j - r: c for j, c in enumerate(coeffs) if c}


# ---------------------------------------------------------------------------
# oracle_sweep: the ``sweep --check-oracles`` path

# Sensitive rules are stratified by which of c_-1, c_0, c_1 are nonzero:
# the support shape sets how fast rule powers grow to the table cap, and so
# most of an op's cost.
ORACLE_EQUICONTINUOUS_PER_M = 3
ORACLE_SENSITIVE_PER_SHAPE = {2: 1, 3: 1, 4: 1, 5: 2, 6: 2}


def oracle_sweep(P, rng) -> Workload:
    pools: dict[tuple, list] = {}
    for m in range(2, 7):
        for coeffs in product(range(m), repeat=3):
            if _sensitive(m, coeffs):
                cls = "sensitive-" + "".join("x" if c else "0" for c in coeffs)
            else:
                cls = "equicontinuous"
            pools.setdefault((m, cls), []).append(coeffs)
    ops = []
    for (m, cls), pool in sorted(pools.items()):
        want = ORACLE_EQUICONTINUOUS_PER_M if cls == "equicontinuous" else ORACLE_SENSITIVE_PER_SHAPE[m]
        for coeffs in rng.sample(pool, min(want, len(pool))):
            rule = P.rules.parse_rule_spec(_spec(m, coeffs))
            ops.append(Op(f"m{m}-{cls}", partial(_oracle_op, P, rule), partial(_check_oracle, P, m, coeffs)))
    return Workload("oracle_sweep", ops, (0, lambda out: (not out[0],) + out[1:]))


def _oracle_op(P, rule):
    table = P.rules.table_from_additive(rule)
    surjective = P.oracles.surjectivity_oracle(table)
    cert = P.oracles.equicontinuity_oracle(table)
    return (surjective, cert, P.additive.classify_additive(rule))


def _check_oracle(P, m, coeffs, out):
    surjective, cert, report = out
    has_cert = isinstance(cert, P.oracles.EquicontinuityCert)
    # the three disagreement counters of ``sweep --check-oracles``
    if surjective != report.surjective:
        return "surjectivity_disagreements"
    if report.equicontinuous and not has_cert:
        return "equicontinuous_without_cert"
    if report.sensitive and has_cert:
        return "sensitive_with_cert"
    if report.surjective != (gcd(m, *coeffs) == 1) or report.sensitive != _sensitive(m, coeffs):
        return "verdict disagrees with the gcd criteria"
    # F^q = F^(q+p) as global maps iff the coefficient polynomials agree
    f = _coeff_map(coeffs)
    n = cert.q + cert.p if has_cert else cert.powers_computed
    powers = [tuple(ref.poly_power(f, i, m).items()) for i in range(n + 1)]
    if has_cert:
        if powers[cert.q] != powers[n] or len(set(powers[:n])) != n:
            return f"certificate (q={cert.q}, p={cert.p}) is not the first repeat"
    elif len(set(powers)) != n + 1:
        return "oracle gave up although two powers coincide"
    return None


# ---------------------------------------------------------------------------
# classify_sweep: the plain ``classify`` / ``sweep`` path.  BENCHMARK.json
# leaves it out so that the other workloads get longer runs; run it by name
# as the control that table-kernel changes must leave unchanged.

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
PRIME_POWERS = (4, 8, 9, 16, 25, 27, 32)
MIXED = tuple(m for m in range(6, 33) if m not in PRIMES and m not in PRIME_POWERS)
# ops per (modulus class, radius); Dense needs two prime factors
CLASSIFY_VERDICTS = {"Empty": 300, "Residual": 120, "Dense": 120, "Unknown": 30}


def _factor_residues(rng, p: int, q: int, width: int, kind: str) -> list[int]:
    """Coefficients mod ``q = p^e`` of one CRT factor of the given kind."""
    center = width // 2
    while True:
        if kind == "zero":  # every coefficient divisible by p: not surjective
            return [p * rng.randrange(q // p) for _ in range(width)]
        if kind == "eq":  # off-center divisible by p, center a unit
            c = [p * rng.randrange(q // p) for _ in range(width)]
            c[center] = rng.choice([u for u in range(1, q) if u % p])
            return c
        c = [rng.randrange(q) for _ in range(width)]
        if any(c[j] % p for j in range(width) if j != center):
            return c


def _crt(residues: list[int], moduli: list[int]) -> int:
    m = 1
    for q in moduli:
        m *= q
    return next(x for x in range(m) if all(x % q == r for r, q in zip(residues, moduli)))


def _additive_with_verdict(rng, m: int, r: int, verdict: str) -> tuple:
    factors = ref.factorize(m)
    n = len(factors)
    if verdict == "Empty":
        kinds = ["tr"] * n
    elif verdict == "Residual":
        kinds = ["eq"] * n
    elif verdict == "Dense":
        eq = rng.randrange(1, 2**n - 1)
        kinds = ["eq" if eq >> i & 1 else "tr" for i in range(n)]
    else:
        zero = rng.randrange(n)
        kinds = ["zero" if i == zero else rng.choice(("eq", "tr")) for i in range(n)]
    moduli = [p**e for p, e in factors]
    per_factor = [
        _factor_residues(rng, p, q, 2 * r + 1, kind) for (p, _), q, kind in zip(factors, moduli, kinds)
    ]
    return tuple(_crt([res[j] for res in per_factor], moduli) for j in range(2 * r + 1))


def classify_sweep(P, rng) -> Workload:
    ops = []
    for cls, moduli in (("prime", PRIMES), ("prime-power", PRIME_POWERS), ("mixed", MIXED)):
        for r in (1, 2):
            for verdict, count in CLASSIFY_VERDICTS.items():
                if verdict == "Dense" and cls != "mixed":
                    continue
                for _ in range(count):
                    m = rng.choice(moduli)
                    coeffs = _additive_with_verdict(rng, m, r, verdict)
                    spec = _spec(m, coeffs)
                    rule = P.rules.parse_rule_spec(spec)
                    ops.append(
                        Op(
                            f"{cls}-r{r}-{verdict}",
                            partial(_classify_op, P, rule),
                            partial(_check_classify, P, rule, spec, m, coeffs, verdict),
                        )
                    )
    return Workload("classify_sweep", ops, (0, _tamper_classify))


def _classify_op(P, rule):
    report = P.additive.classify_additive(rule)
    return (report, P.additive.report_to_json(report))


def _tamper_classify(out):
    report, text = out
    wrong = "Dense" if report.stp.value != "Dense" else "Empty"
    return (report, text.replace(f'"stp": "{report.stp.value}"', f'"stp": "{wrong}"'))


def _check_classify(P, rule, spec, m, coeffs, verdict, out):
    report, text = out
    if json.dumps(json.loads(text), indent=2) != text:
        return "JSON does not re-serialize byte-identically"
    d = json.loads(text)
    if d["rule"] != spec or d["stp"] != verdict or report.stp.value != verdict:
        return f"verdict {d['stp']} for {d['rule']}, expected {verdict} for {spec}"
    if d["surjective"] != (gcd(m, *coeffs) == 1) or d["sensitive"] != _sensitive(m, coeffs):
        return "surjectivity or sensitivity disagrees with the gcd criteria"
    if verdict == "Unknown":
        return None if d["factors"] == [] else "non-surjective rule reported factors"
    f = _coeff_map(coeffs)
    if verdict == "Residual":
        t = d["certificates"]["equicontinuity"]["identity_power"]
        if t is None or P.rules.power_additive(rule, t).coeffs != {0: 1}:
            return f"identity_power {t} does not give the identity"
        if any(ref.poly_power(f, s, m) == {0: 1} for s in ref.divisors(t)[:-1]):
            return f"identity_power {t} is not the least"
    factors = ref.factorize(m)
    if [(x["p"], x["k"]) for x in d["factors"]] != factors:
        return "factor list disagrees with the factorization of m"
    for x, (p, e) in zip(d["factors"], factors):
        q = p**e
        fq = ref.poly_reduce(f, q)
        coprime = [j for j, c in fq.items() if c % p]
        L, R = min(coprime), max(coprime)
        cls = "Equicontinuous" if L == R == 0 else "PositivelyExpansive" if L < 0 < R else "TransitiveNotExpansive"
        if (x["L"], x["R"], x["class"]) != (L, R, cls):
            return f"factor p={p}: {x['class']} (L={x['L']}, R={x['R']}), expected {cls} (L={L}, R={R})"
        h = x["h"]
        # criterion 4: the h-th power is supported exactly on [hL, hR]
        # with both extreme coefficients coprime to p
        if h is None or not 1 <= h <= 4 * q:
            return f"factor p={p}: no permutative power"
        power = ref.poly_power(fq, h, q)
        if min(power) != h * L or max(power) != h * R or power[h * L] % p == 0 or power[h * R] % p == 0:
            return f"factor p={p}: power {h} is not permutative on [{h * L}, {h * R}]"
    return None


# ---------------------------------------------------------------------------
# orbit: the ``simulate`` path

GROW_RULES = tuple(f"wolfram:{c}" for c in (30, 45, 90, 105, 150, 18, 22, 126))
GROW_DEFECTS = ("1", "11", "101", "111", "1001", "1011", "1101", "1111")
GROW_STEPS = 150


def _center_permutation(perm) -> str:
    """k=3, r=1 table rule ``x_i -> perm[x_i]`` in Wolfram numbering."""
    code = sum(perm[(v // 3) % 3] * 3**v for v in range(27))
    return f"wolfram:{code};k=3;r=1"


EQ_RULES = ("wolfram:204", "wolfram:51", _center_permutation((1, 2, 0)), _center_permutation((0, 2, 1)),
            "additive:m=4;r=1;c=2,1,2", "additive:m=4;r=1;c=0,3,2", "additive:m=4;r=1;c=2,3,0",
            "additive:m=8;r=1;c=4,1,4", "additive:m=8;r=1;c=2,3,2", "additive:m=9;r=1;c=3,1,3",
            "additive:m=9;r=1;c=6,2,3")
SHIFT_RULES = ("wolfram:170", "additive:m=3;r=1;c=0,0,2", "wolfram:15", "additive:m=5;r=1;c=3,0,0")
SHIFT_STEPS = 5_000
# chaotic rules, whose cyclic orbits rarely close within the step budget
CYCLIC_CYCLE_RULES = ("wolfram:30", "wolfram:45", "wolfram:75", "wolfram:86")
CYCLIC_TRACE_RULES = ("wolfram:110", "wolfram:54", "wolfram:150", "additive:m=3;r=1;c=1,1,1")
CYCLIC_LENGTHS = (16, 24, 32, 48, 64)  # the i-th op of a stratum gets the i-th length, cyclically
CYCLIC_TRACE_STEPS = 120
CYCLIC_CYCLE_STEPS = 300
# stratum: (rules, op kind, ops, step budget).  The i-th op of a stratum
# uses the i-th rule, cyclically, because rules differ in cost; the seed
# picks the configurations.  The counts put the median op inside the
# returning stratum and the p80 op inside the growing-mid ones.
ORBIT_STRATA = {
    "growing-mid-cycle": (GROW_RULES, "cycle", 6, GROW_STEPS),
    "growing-mid-trace": (GROW_RULES[::-1], "trace", 6, GROW_STEPS),
    "returning-cycle": (EQ_RULES, "cycle", 36, 100_000),
    "translating-cycle": (SHIFT_RULES, "cycle", 4, SHIFT_STEPS),
    "cyclic-cycle": (CYCLIC_CYCLE_RULES, "cycle", 4, CYCLIC_CYCLE_STEPS),
    "cyclic-trace": (CYCLIC_TRACE_RULES, "trace", 4, CYCLIC_TRACE_STEPS),
}


def _word(rng, k: int, n: int) -> str:
    return "".join(str(rng.randrange(k)) for _ in range(n))


def _orbit_config(rng, stratum: str, k: int, i: int) -> str:
    if stratum.startswith("growing-mid"):
        return f"ep:0|{rng.choice(GROW_DEFECTS)}|0"
    if stratum.startswith("cyclic"):
        return f"cyclic:{_word(rng, k, CYCLIC_LENGTHS[i % len(CYCLIC_LENGTHS)])}"
    # returning / translating: random tails and a random mid
    left, right = _word(rng, k, rng.randint(1, 2)), _word(rng, k, rng.randint(1, 2))
    return f"ep:{left}|{_word(rng, k, rng.randint(4, 10))}|{right}"


def orbit(P, rng) -> Workload:
    ops = []
    for stratum, (rules, kind, count, steps) in ORBIT_STRATA.items():
        for i in range(count):
            rule = P.rules.parse_rule_spec(rules[i % len(rules)])
            if isinstance(rule, P.rules.AdditiveRule):
                rule = P.rules.table_from_additive(rule)
            k = rule.alphabet_size
            while True:  # the returning and translating strata need a non-periodic start
                config = P.configs.parse_config(_orbit_config(rng, stratum, k, i), k)
                if stratum.startswith("cyclic") or not P.configs.is_spatially_periodic(config):
                    break
            if kind == "cycle":
                run = partial(_cycle_op, P, rule, config, steps)
                check = partial(_check_cycle, rule, config, steps)
            else:
                lo, hi = (0, len(config.word) - 1) if stratum.startswith("cyclic") else (-40, 40)
                run = partial(_trace_op, P, rule, config, steps, lo, hi)
                check = partial(_check_trace, rule, config, steps, lo, hi)
            ops.append(Op(stratum, run, check))
    returning = next(i for i, op in enumerate(ops) if op.stratum == "returning-cycle")
    return Workload("orbit", ops, (returning, lambda out: replace(out, period=out.period + 1)))


MAX_MID = 10_000


def _cycle_op(P, rule, config, max_steps):
    return P.engine.temporal_cycle(rule, config, max_steps=max_steps, max_mid=MAX_MID)


def _trace_op(P, rule, config, steps, lo, hi):
    return P.engine.space_time(rule, config, steps, lo, hi)


def _check_cycle(rule, config, max_steps, out):
    found = ref.first_repeat(ref.table_rule(rule), ref.key_of(config), max_steps, MAX_MID)
    if hasattr(out, "period"):
        want = (out.preperiod, out.preperiod + out.period)
    elif out.reason == "mid width cap exceeded":
        want = ("mid", out.steps_examined)
    else:
        want = None if out.steps_examined == max_steps else "budget"
    return None if found == want else f"engine says {out}, reference finds {found}"


def _check_trace(rule, config, steps, lo, hi, out):
    rows = tuple(
        tuple(ref.value(key, i) for i in range(lo, hi + 1))
        for key in ref.orbit(ref.table_rule(rule), ref.key_of(config), steps)
    )
    if (out.alphabet_size, out.lo, out.hi) != (rule.alphabet_size, lo, hi):
        return "trace header disagrees with the request"
    return None if out.rows == rows else "space-time rows disagree with the reference"


# ---------------------------------------------------------------------------
# search: jp census, blocking words, witnesses, empty-STP scans

CENSUS_K2_RULES = tuple(f"wolfram:{c}" for c in (30, 110, 54, 62, 73, 45, 106, 57, 41, 18, 22, 122, 126, 146))
CENSUS_K3_CODES = 3**27  # any k=3, r=1 table rule
CENSUS_LENGTHS = {2: (12, 14), 3: (8, 9)}  # one op per length
CENSUS_T_MAX = 64
# non-additive rules with no drift prune, so every candidate orbit is walked
SCAN_K2_RULES = tuple(f"wolfram:{c}" for c in (22, 41, 57, 122, 33, 134, 178))
SCAN_K3_RULES = tuple(f"wolfram:{c};k=3;r=1" for c in (7391763292911, 3587228539554, 3647978533258))
SCAN_BOUNDS = {2: (2, 3, 32), 3: (2, 2, 32)}  # tail_period_max, mid_len_max, t_max
# equicontinuous rules with an exact blocking word, and sensitive ones with none
BLOCKING_HIT_RULES = ("additive:m=4;r=1;c=2,1,2", "additive:m=4;r=1;c=0,3,2", "additive:m=4;r=1;c=2,3,0",
                      "additive:m=4;r=1;c=2,1,0", "additive:m=4;r=1;c=0,1,2", "additive:m=4;r=1;c=2,3,2")
BLOCKING_MISS_RULES = ("wolfram:90",)
BLOCKING_DEFAULTS = (4, 2, 16)  # k_max, bg_period, steps
WITNESS_MODULI = {"Dense": (6, 10, 12), "Residual": (4, 8, 9)}  # one op per modulus, cyclically
# Scans and blocking-word jobs use their rules in turn, because rules differ
# in cost, so the scans are the same for every seed; the seed picks the
# other members.  The counts put the median op inside the blocking-hit
# stratum.
SEARCH_STRATA = {"census-k2": 2, "census-k3": 2, "scan-k2": 7, "scan-k3": 3,
                 "blocking-hit": 12, "blocking-miss": 1, "witness-Dense": 8, "witness-Residual": 8}
# sha256 of the scans' ``examined`` counts, recorded from periodika 0.1.0
# when this benchmark was written
SCAN_EXAMINED_DIGEST = "ab34edbc2bb14d1cc4871c1008166a81a5fd43f006657c4115fc016c1396bd57"


def search(P, rng) -> Workload:
    ops = [_search_op(P, rng, stratum, i) for stratum, count in SEARCH_STRATA.items() for i in range(count)]
    scans = [i for i, op in enumerate(ops) if op.stratum.startswith("scan")]
    return Workload(
        "search",
        ops,
        (next(i for i, op in enumerate(ops) if op.stratum.startswith("witness")), _tamper_witness),
        partial(_check_scan_digest, scans),
    )


def _check_scan_digest(scans, outputs):
    examined = [outputs[i].examined for i in scans]
    got = hashlib.sha256(json.dumps(examined).encode()).hexdigest()
    if got != SCAN_EXAMINED_DIGEST:
        return f"scan examined digest {got} differs from the recorded {SCAN_EXAMINED_DIGEST}"
    return None


def _tamper_witness(out):
    return replace(out, period=out.period + 1)


def _search_op(P, rng, stratum: str, i: int) -> Op:
    R = P.rules
    if stratum.startswith("census"):
        k = int(stratum[-1])
        spec = rng.choice(CENSUS_K2_RULES) if k == 2 else f"wolfram:{rng.randrange(CENSUS_K3_CODES)};k=3;r=1"
        rule, n = R.parse_rule_spec(spec), CENSUS_LENGTHS[k][i]
        return Op(stratum, partial(_census_op, P, rule, n), partial(_check_census, rule, n))
    if stratum.startswith("scan"):
        k = int(stratum[-1])
        rules = SCAN_K2_RULES if k == 2 else SCAN_K3_RULES
        rule, bounds = R.parse_rule_spec(rules[i % len(rules)]), SCAN_BOUNDS[k]
        return Op(stratum, partial(_scan_op, P, rule, bounds), partial(_check_scan, rule, bounds))
    if stratum.startswith("blocking"):
        hit = stratum == "blocking-hit"
        rules = BLOCKING_HIT_RULES if hit else BLOCKING_MISS_RULES
        rule = R.parse_rule_spec(rules[i % len(rules)])
        if isinstance(rule, R.AdditiveRule):
            rule = R.table_from_additive(rule)
        u = (rng.randrange(1, rule.alphabet_size),) + tuple(
            rng.randrange(rule.alphabet_size) for _ in range(rng.randrange(2))
        )
        return Op(stratum, partial(_blocking_op, P, rule, u), partial(_check_blocking, P, rule, u, hit))
    verdict = stratum.split("-")[1]
    moduli = WITNESS_MODULI[verdict]
    m = moduli[i % len(moduli)]
    coeffs = _additive_with_verdict(rng, m, 1, verdict)
    rule = R.parse_rule_spec(_spec(m, coeffs))
    return Op(stratum, partial(_witness_op, P, rule), partial(_check_witness_additive, m, coeffs))


def _census_op(P, rule, n):
    return P.periodicity.jointly_periodic_points(rule, n, CENSUS_T_MAX)


def _scan_op(P, rule, bounds):
    return P.periodicity.stp_empty_scan(rule, *bounds)


def _witness_op(P, rule):
    return P.periodicity.stp_witness_additive(rule)


def _blocking_op(P, rule, u):
    cert = P.periodicity.blocking_word_search(rule)
    if not isinstance(cert, P.periodicity.BlockingCert):
        return (cert, None)
    return (cert, P.periodicity.stp_witness(rule, cert, u))


def _check_return(rule_ref, config, period) -> str | None:
    key = ref.key_of(config)
    if key[0] == "P":
        return f"witness {config} is spatially periodic"
    t = ref.first_return(rule_ref, key, period)
    return None if t == period else f"witness {config} returns after {t} steps, not {period}"


def _check_census(rule, n, out):
    rule_ref = ref.table_rule(rule)
    if (out.alphabet_size, out.length, out.t_max) != (rule.alphabet_size, n, CENSUS_T_MAX):
        return "census header disagrees with the request"
    keys = [ref.key_of(cfg) for cfg, _ in out.points]
    if len(set(keys)) != len(keys):
        return "census lists a point twice"
    for key, (cfg, t) in zip(keys, out.points):
        if n % len(key[1]) or not 1 <= t <= CENSUS_T_MAX:
            return f"census point {cfg} does not have spatial period {n} and a period within the bound"
        if ref.first_return(rule_ref, key, t) != t:
            return f"census point {cfg} does not return first after {t} steps"
    return None


def _scan_family_size(rule_ref, bounds) -> int:
    """Number of candidates the scan enumerates, re-derived from its bounds."""
    k = rule_ref[0]
    tail_max, mid_max, t_max = bounds
    tails = []
    for n in range(1, tail_max + 1):
        for w in product(range(k), repeat=n):
            if ref.primitive(w) == w:
                t = ref.first_return(rule_ref, ("P", w), t_max)
                if t is not None:
                    tails.append((w, t))
    total = 0
    for a, ta in tails:
        for b, tb in tails:
            if lcm(ta, tb) > t_max:
                continue
            total += a != b
            for n in range(1, mid_max + 1):
                total += sum(1 for mid in product(range(k), repeat=n) if mid[0] != a[0] and mid[-1] != b[-1])
    return total


def _check_scan(rule, bounds, out):
    rule_ref = ref.table_rule(rule)
    if (out.bounds.tail_period_max, out.bounds.mid_len_max, out.bounds.t_max) != bounds:
        return "scan bounds disagree with the request"
    if not out.truncated and out.examined != _scan_family_size(rule_ref, bounds):
        return f"scan examined {out.examined} candidates, the family has {_scan_family_size(rule_ref, bounds)}"
    for w in out.violations:
        if w.period > bounds[2]:
            return f"violation period {w.period} exceeds t_max"
        bad = _check_return(rule_ref, w.config, w.period)
        if bad:
            return bad
    return None


def _column(rule_ref, key, lo: int, width: int, steps: int):
    return [tuple(ref.value(x, c) for c in range(lo, lo + width)) for x in ref.orbit(rule_ref, key, steps)]


def _check_blocking(P, rule, u, hit, out):
    cert, witness = out
    rule_ref = ref.table_rule(rule)
    if not hit:
        if isinstance(cert, P.periodicity.BlockingMiss) and (cert.k_max, cert.bg_period, cert.steps) == BLOCKING_DEFAULTS:
            return None
        return f"expected no blocking word within the default bounds, got {cert}"
    if not isinstance(cert, P.periodicity.BlockingCert) or not isinstance(witness, P.periodicity.StpWitness):
        return f"expected a blocking word and a witness, got {cert} and {witness}"
    # the column must ignore every context with tail periods up to 2
    k, word = rule.alphabet_size, cert.word
    contexts = [w for n in (1, 2) for w in product(range(k), repeat=n)]
    steps = max(cert.verified_steps, BLOCKING_DEFAULTS[2])
    columns = {
        tuple(_column(rule_ref, ref.ep_key(a, word, b), cert.offset, cert.width, steps))
        for a in contexts
        for b in contexts
    }
    if len(columns) != 1:
        return f"blocking word {word} does not pin its column"
    if ref.key_of(witness.config) != ref.ep_key(word, u, word):
        return f"witness {witness.config} is not built from the blocking word and u={u}"
    return _check_return(rule_ref, witness.config, witness.period)


def _check_witness_additive(m, coeffs, out):
    if not hasattr(out, "period"):
        return f"expected a witness, got {out}"
    return _check_return(ref.additive_table(m, 1, _coeff_map(coeffs)), out.config, out.period)


WORKLOADS = {
    "oracle_sweep": oracle_sweep,
    "classify_sweep": classify_sweep,
    "orbit": orbit,
    "search": search,
}
