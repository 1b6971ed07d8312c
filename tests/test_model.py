"""Parameter validation, coin classification, and profile documents."""

import json
import math

import pytest
from hypothesis import given, settings

from ssqw.model import (
    CoinEntry,
    CoinProfile,
    CoinType,
    IndexReport,
    LimitCoin,
    ProfileError,
    canonical_json,
    classify_coin,
    load_profile,
    validate_parameters,
)
from strategies import (
    E1_DOCUMENT,
    coin_entries,
    fuzzed_documents,
    limit_coins,
    profiles_with_overrides,
    step_profiles,
    walk_parameters,
)


class TestWalkParameters:
    def test_accepts_consistent_pair(self):
        params = validate_parameters(0.5, math.sqrt(0.75))
        assert params.p == 0.5
        assert params.abs_q == pytest.approx(math.sqrt(0.75), abs=1e-15)
        assert params.theta == 0.0

    def test_rejects_zero_q(self):
        with pytest.raises(ProfileError, match="nonzero"):
            validate_parameters(1.0, 0.0)

    def test_rejects_norm_violation(self):
        with pytest.raises(ProfileError, match=r"p\^2 \+ \|q\|\^2 = 1"):
            validate_parameters(0.5, 1.0)

    def test_theta_principal_branch(self):
        params = validate_parameters(0.0, complex(-1.0, 0.0))
        assert params.theta == math.pi

    @given(walk_parameters())
    def test_negation_is_involutive(self, params):
        again = params.negated().negated()
        assert again.p == params.p
        assert again.q == params.q

    @given(walk_parameters())
    def test_negated_stays_valid(self, params):
        negated = params.negated()
        validate_parameters(negated.p, negated.q)


class TestCoinEntry:
    def test_rejects_row_norm_violation(self):
        with pytest.raises(ProfileError, match="a1"):
            CoinEntry(0.9, -0.8, 0.6)

    def test_rejects_offdiagonal_constraint_violation(self):
        # a1 + a2 != 0 with b != 0
        with pytest.raises(ProfileError, match=r"b \(a1 \+ a2\) = 0"):
            CoinEntry(0.8, 0.8, 0.6)

    def test_diagonal_and_trivial_flags(self):
        assert CoinEntry(1.0, -1.0, 0j).is_diagonal
        assert not CoinEntry(1.0, -1.0, 0j).is_trivial
        assert CoinEntry(1.0, 1.0, 0j).is_trivial
        assert not CoinEntry(0.8, -0.8, 0.6).is_diagonal

    @given(coin_entries())
    def test_negation_preserves_validity(self, entry):
        negated = entry.negated()
        assert negated.a1 == -entry.a1 and negated.b == -entry.b


class TestLimitCoin:
    def test_symmetric_constructor(self):
        coin = LimitCoin.symmetric(0.8, 0.6)
        assert (coin.a1, coin.a2) == (0.8, -0.8)
        assert coin.a == 0.8

    def test_a_undefined_on_trivial(self):
        with pytest.raises(ProfileError, match="trivial"):
            LimitCoin(1.0, 1.0, 0j).a

    @given(limit_coins())
    def test_nontrivial_limits_expose_a(self, coin):
        if not coin.trivial:
            assert coin.a == coin.a1 == -coin.a2


class TestClassification:
    DIAG = LimitCoin(1.0, -1.0, 0j)
    OFF = LimitCoin.symmetric(0.6, 0.8)

    @pytest.mark.parametrize(
        "left,right,expected",
        [
            (DIAG, DIAG, CoinType.I),
            (DIAG, OFF, CoinType.II),
            (OFF, DIAG, CoinType.II_PRIME),
            (OFF, OFF, CoinType.III),
            (LimitCoin(1.0, 1.0, 0j), OFF, CoinType.TRIVIAL_LIMIT),
            (OFF, LimitCoin(-1.0, -1.0, 0j), CoinType.TRIVIAL_LIMIT),
        ],
    )
    def test_type_table(self, left, right, expected):
        assert classify_coin(CoinProfile(left, right)) is expected

    def test_string_form(self):
        assert str(CoinType.II_PRIME) == "II'"
        assert str(CoinType.TRIVIAL_LIMIT) == "trivial"

    @given(step_profiles())
    def test_total_on_valid_profiles(self, profile):
        assert classify_coin(profile) in CoinType

    @given(profiles_with_overrides())
    def test_depends_only_on_limits(self, profile):
        assert classify_coin(profile) is classify_coin(profile.step_reduction())


class TestCoinProfile:
    def test_entry_respects_step_and_overrides(self):
        override = CoinEntry(0.28, -0.28, 0.96)
        profile = CoinProfile(
            LimitCoin.symmetric(0.8, 0.6), LimitCoin.symmetric(0.0, 1.0), {3: override}
        )
        assert profile.entry(0) is profile.left
        assert profile.entry(-5) is profile.left
        assert profile.entry(1) is profile.right
        assert profile.entry(3) is override
        assert not profile.canonical_step
        assert profile.step_reduction().canonical_step

    def test_rejects_non_integer_override_site(self):
        with pytest.raises(ProfileError, match="integer"):
            CoinProfile(
                LimitCoin.symmetric(0.8, 0.6),
                LimitCoin.symmetric(0.0, 1.0),
                {1.5: CoinEntry(0.28, -0.28, 0.96)},
            )

    @given(profiles_with_overrides())
    def test_step_reduction_idempotent(self, profile):
        reduced = profile.step_reduction()
        assert reduced.canonical_step
        assert reduced.step_reduction() is reduced
        assert reduced.left == profile.left and reduced.right == profile.right

    @given(step_profiles())
    def test_negation_is_involutive(self, profile):
        again = profile.negated().negated()
        assert again.left == profile.left and again.right == profile.right


class TestIndexReport:
    def test_fredholm_key_order(self):
        report = IndexReport(True, CoinType.III, d_plus=1, d_minus=0, index=1)
        assert list(report.to_dict()) == [
            "fredholm", "d_plus", "d_minus", "index", "coin_type", "near_boundary",
        ]

    def test_non_fredholm_key_order(self):
        report = IndexReport(False, CoinType.III, reason="|p| = |a(L)|")
        assert list(report.to_dict()) == [
            "fredholm", "reason", "coin_type", "near_boundary",
        ]

    def test_json_round_trip_is_byte_stable(self):
        report = IndexReport(True, CoinType.II, d_plus=0, d_minus=1, index=-1,
                             near_boundary=True)
        text = report.to_json()
        assert canonical_json(json.loads(text)) == text


class TestLoadProfile:
    def test_e1_document(self):
        params, profile = load_profile(E1_DOCUMENT)
        assert params.p == 0.5 and params.theta == 0.0
        assert profile.left.a == 0.8 and profile.right.a == 0.0
        assert profile.canonical_step

    def test_q_form_and_explicit_diagonal_limits(self):
        params, profile = load_profile({
            "p": 0.6,
            "q": [0.0, 0.8],
            "left": {"a1": 1.0, "a2": -1.0, "b": [0.0, 0.0]},
            "right": {"a": 0.0, "b": [1.0, 0.0]},
        })
        assert params.q == 0.8j
        assert profile.left.is_diagonal
        assert classify_coin(profile) is CoinType.II

    def test_overrides_parsed_in_order(self):
        params, profile = load_profile({
            **E1_DOCUMENT,
            "overrides": [{"x": -2, "a1": 0.28, "a2": -0.28, "b": [0.0, 0.96]}],
        })
        assert profile.entry(-2).b == 0.96j

    @pytest.mark.parametrize(
        "mutate,fragment",
        [
            (lambda d: d.pop("p"), "key 'p'"),
            (lambda d: d.update(p=1.0), "key 'p'"),
            (lambda d: d.update(extra=1), "key 'extra'"),
            (lambda d: d["left"].pop("b"), "key 'left.b'"),
            (lambda d: d["left"].update(b=0.6), "key 'left.b'"),
            (lambda d: d["right"].update(a1=0.0), "either 'a' or the pair"),
            (lambda d: d.update(theta=1.0, q=[1.0, 0.0]), "key 'theta'"),
            (
                lambda d: d.update(overrides=[
                    {"x": 1, "a1": 0.28, "a2": -0.28, "b": [0.96, 0.0]},
                    {"x": 1, "a1": 0.28, "a2": -0.28, "b": [0.96, 0.0]},
                ]),
                "duplicate site",
            ),
            (
                lambda d: d.update(overrides=[{"x": True, "a1": 1.0, "a2": 1.0, "b": [0.0, 0.0]}]),
                "overrides[0].x",
            ),
        ],
    )
    def test_schema_errors_name_the_key(self, mutate, fragment):
        document = json.loads(json.dumps(E1_DOCUMENT))
        mutate(document)
        with pytest.raises(ProfileError) as err:
            load_profile(document)
        assert fragment in str(err.value)

    def test_round_trip_preserves_values(self):
        document = {
            "p": -0.25,
            "theta": 0.5,
            "left": {"a": -0.3, "b": [0.8, 0.5196152422706632]},
            "right": {"a": 0.9, "b": [0.0, -0.4358898943540673]},
            "overrides": [{"x": 4, "a1": 1.0, "a2": -1.0, "b": [0.0, 0.0]}],
        }
        params, profile = load_profile(document)
        assert params.p == -0.25
        assert params.theta == pytest.approx(0.5, abs=1e-15)
        assert profile.left.b == complex(0.8, 0.5196152422706632)
        assert profile.entry(4).is_diagonal


@settings(max_examples=1000)
@given(fuzzed_documents)
def test_any_document_loads_or_raises_a_profile_error(document):
    try:
        load_profile(document)
    except ProfileError:
        pass
