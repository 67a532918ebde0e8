"""Acceptance checks for the package's headline guarantees.

Each test covers one numbered criterion and prints a single
``criterion N: PASS/FAIL - <label>`` line; the lines are also gathered
into the terminal summary by ``conftest.py``.  The heavy criteria run the
full sweep of additive rules with modulus 2..6 at radius 1 (440 rules).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from itertools import product as iproduct
from pathlib import Path

import pytest

from conftest import ACCEPTANCE_LINES
from periodika.additive import (
    FactorClass,
    PermutativePowerCert,
    StpVerdict,
    boundary_indices,
    classify_additive,
    decompose_crt,
    enumerate_additive_rules,
    is_surjective_additive,
    permutative_power,
    report_to_json,
)
from reference_helpers import equals
from periodika.configs import CyclicConfig, is_spatially_periodic, render_config, shift
from periodika.engine import step
from periodika.oracles import (
    EquicontinuityCert,
    equicontinuity_oracle,
    surjectivity_oracle,
)
from periodika.periodicity import (
    StpWitness,
    blocking_word_search,
    product_witness_scan,
    stp_empty_scan,
    stp_witness,
    stp_witness_additive,
)
from periodika.rules import AdditiveRule, power_additive, product_rule, table_from_additive

GOLDEN = Path(__file__).parent / "golden"

RULE90_ADD = AdditiveRule(2, 1, {-1: 1, 1: 1})
M4_ADD = AdditiveRule(4, 1, {-1: 2, 0: 1, 1: 2})
M6_ADD = AdditiveRule(6, 1, {-1: 4, 0: 1, 1: 4})
SHIFT2_ADD = AdditiveRule(2, 1, {1: 1})


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        line = f"criterion {number}: FAIL - {label}"
        ACCEPTANCE_LINES.append(line)
        print(line)
        raise
    line = f"criterion {number}: PASS - {label}"
    ACCEPTANCE_LINES.append(line)
    print(line)


@pytest.fixture(scope="module")
def sweep_rules():
    rules: list[AdditiveRule] = []
    for m in (2, 3, 4, 5, 6):
        rules.extend(enumerate_additive_rules(m, 1))
    assert len(rules) == 440
    return rules


@pytest.fixture(scope="module")
def sweep_reports(sweep_rules):
    return {rule: classify_additive(rule) for rule in sweep_rules}


def _cyclic_configs(alphabet_size: int, max_len: int):
    for n in range(1, max_len + 1):
        for word in iproduct(range(alphabet_size), repeat=n):
            yield CyclicConfig(alphabet_size, word)


def _residues(x: CyclicConfig, factors) -> tuple[CyclicConfig, ...]:
    """The residue of each letter of ``x`` modulo each factor modulus."""
    return tuple(CyclicConfig(f.modulus, tuple(a % f.modulus for a in x.word)) for f in factors)


def test_criterion_01_surjectivity_sweep(sweep_rules):
    with criterion(
        1, "coefficient-gcd surjectivity matches the exhaustive oracle on all 440 rules"
    ):
        start = time.monotonic()
        for rule in sweep_rules:
            assert is_surjective_additive(rule) == surjectivity_oracle(
                table_from_additive(rule)
            ), rule
        assert time.monotonic() - start < 60.0


def test_criterion_02_equicontinuity_dichotomy(sweep_rules, sweep_reports):
    with criterion(
        2, "every equicontinuous verdict carries an oracle certificate, no sensitive rule does"
    ):
        certified = sensitive = 0
        for rule in sweep_rules:
            report = sweep_reports[rule]
            if not report.surjective:
                continue
            outcome = equicontinuity_oracle(table_from_additive(rule))
            if report.equicontinuous:
                assert isinstance(outcome, EquicontinuityCert), rule
                assert outcome.q + outcome.p <= 64
                certified += 1
            else:
                assert report.sensitive
                assert not isinstance(outcome, EquicontinuityCert), rule
                sensitive += 1
        assert certified == 17 and sensitive == 378


def test_criterion_03_residue_splitting_conjugacy(sweep_rules):
    with criterion(
        3, "letterwise residue splitting commutes with stepping for composite moduli"
    ):
        checked = 0
        for rule in sweep_rules:
            if rule.modulus not in (4, 6) or not is_surjective_additive(rule):
                continue
            factors = decompose_crt(rule)
            table = table_from_additive(rule)
            factor_tables = [table_from_additive(f.rule) for f in factors]
            for x in _cyclic_configs(rule.modulus, 4):
                stepped_then_split = _residues(step(table, x), factors)
                split_then_stepped = tuple(
                    step(ft, part) for ft, part in zip(factor_tables, _residues(x, factors))
                )
                for a, b in zip(stepped_then_split, split_then_stepped):
                    assert equals(a, b), (rule, render_config(x))
                checked += 1
        assert checked == 301_868


def test_criterion_04_permutative_powers(sweep_rules):
    with criterion(
        4, "every surjective prime-power factor has a permutative power with certified support"
    ):
        certified = 0
        for rule in sweep_rules:
            if not is_surjective_additive(rule):
                continue
            for factor in decompose_crt(rule):
                L, R = boundary_indices(factor)
                cert = permutative_power(factor)
                assert isinstance(cert, PermutativePowerCert), factor
                assert 1 <= cert.h <= 4 * factor.modulus
                support = cert.rule.support
                assert support
                assert min(support) == cert.h * L and max(support) == cert.h * R
                assert cert.rule.coeffs[cert.h * L] % factor.prime != 0
                assert cert.rule.coeffs[cert.h * R] % factor.prime != 0
                certified += 1
        assert certified == 577


def test_criterion_05_anchor_classifications_are_byte_stable():
    with criterion(
        5, "the three anchor rules classify as expected with byte-stable JSON reports"
    ):
        anchors = [
            (RULE90_ADD, "classify_m2_radius1_both_sides.json", FactorClass.POSITIVELY_EXPANSIVE),
            (M4_ADD, "classify_m4_radius1_central_unit.json", FactorClass.EQUICONTINUOUS),
            (SHIFT2_ADD, "classify_m2_shift.json", FactorClass.TRANSITIVE_NOT_EXPANSIVE),
        ]
        for rule, golden_name, expected_class in anchors:
            report = classify_additive(rule)
            assert len(report.factors) == 1
            assert report.factors[0].factor_class is expected_class
            text = report_to_json(report) + "\n"
            assert text == (GOLDEN / golden_name).read_text()
            assert json.dumps(json.loads(text), indent=2) + "\n" == text
        # the equicontinuous anchor squares to the identity rule exactly
        assert power_additive(M4_ADD, 2).coeffs == {0: 1}


def test_criterion_06_verdict_sweep_with_scans_and_witnesses(sweep_rules, sweep_reports):
    with criterion(
        6, "Empty verdicts survive falsification scans; all other verdicts produce verified witnesses"
    ):
        start = time.monotonic()
        scanned = witnessed = 0
        for rule in sweep_rules:
            report = sweep_reports[rule]
            if not report.surjective:
                continue
            assert report.stp in (StpVerdict.RESIDUAL, StpVerdict.DENSE, StpVerdict.EMPTY)
            all_non_equicontinuous = all(
                f.factor_class is not FactorClass.EQUICONTINUOUS for f in report.factors
            )
            assert (report.stp is StpVerdict.EMPTY) == all_non_equicontinuous
            if report.stp is StpVerdict.EMPTY:
                result = stp_empty_scan(rule, 2, 3, 32)
                assert result.violations == (), rule
                scanned += 1
            else:
                witness = stp_witness_additive(rule)
                assert isinstance(witness, StpWitness), rule
                assert not is_spatially_periodic(witness.config)
                table = table_from_additive(rule)
                cur = witness.config
                for _ in range(witness.period):
                    cur = step(table, cur)
                assert equals(cur, witness.config), rule
                witnessed += 1
        assert scanned == 342 and witnessed == 53
        assert time.monotonic() - start < 600.0


def test_criterion_07_blocking_word_witness_pipeline():
    with criterion(
        7, "the blocking-word pipeline yields the expected period-2 point and it re-verifies"
    ):
        table = table_from_additive(M4_ADD)
        cert = blocking_word_search(table)
        witness = stp_witness(table, cert, (1,))
        assert isinstance(witness, StpWitness)
        assert render_config(witness.config) == "ep:0|1|0@0"
        assert witness.period == 2
        once = step(table, witness.config)
        assert not equals(once, witness.config)
        assert equals(step(table, once), witness.config)
        assert not is_spatially_periodic(witness.config)


def test_criterion_08_sensitive_rule_with_dense_verdict_and_product_witnesses():
    with criterion(
        8, "a sensitive rule gets a Dense verdict and the product scan finds verified witnesses"
    ):
        report = classify_additive(M6_ADD)
        assert report.sensitive and report.stp is StpVerdict.DENSE
        first = table_from_additive(M4_ADD)
        second = table_from_additive(RULE90_ADD)
        witnesses = product_witness_scan(first, second)
        assert len(witnesses) >= 1
        prod = product_rule(first, second)
        for witness in witnesses:
            assert not is_spatially_periodic(witness.config)
            cur = witness.config
            for _ in range(witness.period):
                cur = step(prod, cur)
            assert equals(cur, witness.config)


def test_criterion_09_scans_support_empty_verdicts():
    with criterion(
        9, "falsification scans find nothing for the expansive and one-sided transitive rules"
    ):
        for rule in (
            table_from_additive(RULE90_ADD),
            AdditiveRule(2, 1, {0: 1, 1: 1}),
            AdditiveRule(2, 1, {-1: 1, 0: 1}),
        ):
            result = stp_empty_scan(rule)
            assert result.violations == (), rule
            assert result.examined > 0


def test_criterion_10_engine_exactness():
    with criterion(
        10, "stepping commutes with the shift and rule powers agree with iterated stepping"
    ):
        for rule in (RULE90_ADD, M4_ADD, M6_ADD):
            table = table_from_additive(rule)
            for x in _cyclic_configs(rule.modulus, 4):
                for n in (1, -2):
                    assert equals(step(table, shift(x, n)), shift(step(table, x), n))
        for m in (2, 3, 4):
            for rule in enumerate_additive_rules(m, 1):
                table = table_from_additive(rule)
                for h in (2, 3):
                    power = power_additive(rule, h)
                    tight_radius = max((abs(j) for j in power.support), default=0)
                    power_table = table_from_additive(
                        AdditiveRule(m, tight_radius, dict(power.coeffs))
                    )
                    for x in _cyclic_configs(m, 3):
                        cur = x
                        for _ in range(h):
                            cur = step(table, cur)
                        assert equals(step(power_table, x), cur), (rule, h)
