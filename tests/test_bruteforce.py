from fractions import Fraction

import pytest

from equichar import (EnumerationCapExceeded, brute_multiplicities,
                      brute_orbit_count_for_linear, differential_check,
                      dixon_character_table, enumerate_action, fixed_point_qp,
                      class_divisor_data, action_period, equivariant_qp,
                      make_quasimonomial, ValidationError)
from equichar.bruteforce import MAX_POINTS_ENV, resolve_cap, _apply

from conftest import make_builtin_group


def pipeline(name):
    group = make_builtin_group(name)
    table = dixon_character_table(group)
    data = class_divisor_data(group)
    period = action_period(data)
    eqp = equivariant_qp(group, table, data, period)
    fixed = tuple(fixed_point_qp(data, c, period)
                  for c in range(group.class_count))
    return group, table, eqp, fixed


class TestEnumeration:
    def test_trivial_group_has_singleton_orbits(self):
        group = make_builtin_group("trivial-z2")
        dec = enumerate_action(group, 5)
        assert dec.orbit_count == 25
        assert all(len(orbit) == 1 for orbit in dec.orbits)
        assert dec.fixed_counts == (25,)

    def test_c6_z2_small_orbit_counts(self):
        group = make_builtin_group("c6-z2")
        assert enumerate_action(group, 2).orbit_count == 2
        assert enumerate_action(group, 6).orbit_count == 8

    def test_s3_orbit_count_at_three(self):
        group = make_builtin_group("s3-a2")
        assert enumerate_action(group, 3).orbit_count == 4

    def test_orbit_sizes_partition_the_point_set(self):
        group = make_builtin_group("dihedral-z2")
        for q in (1, 2, 3, 4, 5):
            dec = enumerate_action(group, q)
            assert sum(len(o) for o in dec.orbits) == q ** group.rank
            codes = sorted(code for orbit in dec.orbits for code in orbit)
            assert codes == list(range(q ** group.rank))

    def test_orbit_stabilizer_identity(self):
        group = make_builtin_group("s3-a2")
        for q in (2, 3, 4, 7):
            dec = enumerate_action(group, q)
            for orbit, stab in zip(dec.orbits, dec.isotropy):
                assert len(orbit) * len(stab) == group.order

    def test_fixed_counts_constant_on_classes(self):
        group = make_builtin_group("s3-a2")
        for q in (2, 3, 4):
            dec = enumerate_action(group, q)
            points = [dec.decode(code) for code in range(q ** group.rank)]
            for members in group.class_partition:
                counts = {
                    sum(1 for p in points
                        if _apply(group.elements[x], p, q) == p)
                    for x in members[:2]}
                assert len(counts) == 1

    def test_cap_raises(self):
        group = make_builtin_group("c6-z2")
        with pytest.raises(EnumerationCapExceeded):
            enumerate_action(group, 100, cap=50)

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(MAX_POINTS_ENV, "10")
        assert resolve_cap() == 10
        group = make_builtin_group("c6-z2")
        with pytest.raises(EnumerationCapExceeded):
            enumerate_action(group, 4)
        monkeypatch.delenv(MAX_POINTS_ENV)
        assert resolve_cap() == 2_000_000

    @pytest.mark.parametrize("value", ["abc", "-5", "0", "", "1.5"])
    def test_env_must_be_a_positive_integer(self, monkeypatch, value):
        monkeypatch.setenv(MAX_POINTS_ENV, value)
        with pytest.raises(ValidationError):
            resolve_cap()


class TestBruteMultiplicities:
    def test_single_point_gives_trivial_only(self):
        group = make_builtin_group("dihedral-z2")
        table = dixon_character_table(group)
        dec = enumerate_action(group, 1)
        mults = brute_multiplicities(group, table, dec)
        for i, value in enumerate(mults):
            assert value == (1 if i == table.trivial_index else 0)

    def test_s3_at_q_two(self):
        group = make_builtin_group("s3-a2")
        table = dixon_character_table(group)
        dec = enumerate_action(group, 2)
        # fixed-point counts (identity, transpositions, 3-cycles) = (4, 2, 1)
        by_order = {group.element_orders[rep]: count
                    for rep, count in zip(group.class_representatives,
                                          dec.fixed_counts)}
        assert by_order == {1: 4, 2: 2, 3: 1}
        mults = brute_multiplicities(group, table, dec)
        for i, value in enumerate(mults):
            if table.degrees[i] == 2:
                assert value == 1
            elif i == table.trivial_index:
                assert value == 2
            else:
                assert value == 0

    def test_c6_z2_at_six(self):
        group = make_builtin_group("c6-z2")
        table = dixon_character_table(group)
        mults = brute_multiplicities(group, table, enumerate_action(group, 6))
        assert mults[table.trivial_index] == Fraction(36 + 12, 6)
        assert sum(mults) == 36  # degrees are all 1, so the sum is q^2
        assert all(v.denominator == 1 and v >= 0 for v in mults)


class TestLinearOrbitCounts:
    def test_total_count_for_trivial(self):
        group = make_builtin_group("c6-z2")
        table = dixon_character_table(group)
        dec = enumerate_action(group, 6)
        assert brute_orbit_count_for_linear(
            group, table, dec, table.trivial_index) == dec.orbit_count == 8

    def test_sign_restricted_count_for_s3(self):
        group = make_builtin_group("s3-a2")
        table = dixon_character_table(group)
        sign = next(i for i in range(3) if table.degrees[i] == 1
                    and i != table.trivial_index)
        assert brute_orbit_count_for_linear(
            group, table, enumerate_action(group, 2), sign) == 0
        assert brute_orbit_count_for_linear(
            group, table, enumerate_action(group, 4), sign) == 1


class TestDifferentialCheck:
    def test_builtins_agree(self):
        for name in ("c6-z2", "s3-a2", "dihedral-z2"):
            group, table, eqp, fixed = pipeline(name)
            verdicts, covered = differential_check(
                group, table, eqp.multiplicities, fixed, q_max=10)
            assert covered == 10
            assert all(v.passed for v in verdicts)

    def test_cap_clamps_range(self):
        group, table, eqp, fixed = pipeline("c6-z2")
        verdicts, covered = differential_check(
            group, table, eqp.multiplicities, fixed, q_max=24, cap=100)
        assert covered == 10  # 10^2 <= 100 < 11^2
        assert all(v.passed for v in verdicts)
        assert all("1..10" in v.method for v in verdicts)

    def test_corrupted_fixed_points_detected(self):
        group, table, eqp, fixed = pipeline("c6-z2")
        bad = list(fixed)
        victim = next(c for c in range(group.class_count)
                      if fixed[c].terms and fixed[c].terms[0][0])
        bad[victim] = make_quasimonomial((2,), 0, 1, period=eqp.period)
        verdicts, _ = differential_check(
            group, table, eqp.multiplicities, tuple(bad), q_max=8)
        by_name = {v.name: v for v in verdicts}
        assert not by_name["oracle-fixed-points"].passed
        assert f"class {victim}" in by_name["oracle-fixed-points"].details
        # the untouched predictions still pass
        assert by_name["oracle-multiplicities"].passed
        assert by_name["oracle-orbit-count"].passed

    def test_corrupted_multiplicity_detected(self):
        group, table, eqp, fixed = pipeline("s3-a2")
        bad = list(eqp.multiplicities)
        bad[table.trivial_index] = bad[table.trivial_index].add(
            make_quasimonomial((), 0, 1, period=eqp.period))
        verdicts, _ = differential_check(
            group, table, tuple(bad), fixed, q_max=8)
        by_name = {v.name: v for v in verdicts}
        assert not by_name["oracle-multiplicities"].passed
        assert not by_name["oracle-orbit-count"].passed
        assert "q=1" in by_name["oracle-multiplicities"].details
        assert by_name["oracle-fixed-points"].passed
