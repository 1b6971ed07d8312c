"""Hypothesis draw strategies for valid parameters, coins, and profiles,
and for arbitrary documents shaped roughly like a profile."""

import math

from hypothesis import strategies as st

from ssqw.model import (
    CoinEntry,
    CoinProfile,
    LimitCoin,
    WalkParameters,
    validate_parameters,
)

E1_DOCUMENT = {
    "p": 0.5,
    "theta": 0.0,
    "left": {"a": 0.8, "b": [0.6, 0.0]},
    "right": {"a": 0.0, "b": [1.0, 0.0]},
}

_angles = st.floats(-math.pi, math.pi, allow_nan=False, allow_infinity=False)


@st.composite
def walk_parameters(draw, p_bound: float = 0.95) -> WalkParameters:
    p = draw(st.floats(-p_bound, p_bound, allow_nan=False, allow_infinity=False))
    theta = draw(_angles)
    q = math.sqrt(1.0 - p * p) * complex(math.cos(theta), math.sin(theta))
    return validate_parameters(p, q)


@st.composite
def limit_coins(draw, allow_diagonal: bool = True, a_bound: float = 0.95) -> LimitCoin:
    if allow_diagonal and draw(st.booleans()):
        a = draw(st.sampled_from([-1.0, 1.0]))
        return LimitCoin(a, -a, 0j)
    a = draw(st.floats(-a_bound, a_bound, allow_nan=False, allow_infinity=False))
    phi = draw(_angles)
    b = math.sqrt(1.0 - a * a) * complex(math.cos(phi), math.sin(phi))
    return LimitCoin.symmetric(a, b)


@st.composite
def coin_entries(draw) -> CoinEntry:
    if draw(st.booleans()):
        return CoinEntry(
            draw(st.sampled_from([-1.0, 1.0])),
            draw(st.sampled_from([-1.0, 1.0])),
            0j,
        )
    a = draw(st.floats(-0.999, 0.999, allow_nan=False, allow_infinity=False))
    phi = draw(_angles)
    return CoinEntry(a, -a, math.sqrt(1.0 - a * a) * complex(math.cos(phi), math.sin(phi)))


@st.composite
def step_profiles(draw, allow_diagonal: bool = True) -> CoinProfile:
    return CoinProfile(
        draw(limit_coins(allow_diagonal=allow_diagonal)),
        draw(limit_coins(allow_diagonal=allow_diagonal)),
    )


@st.composite
def profiles_with_overrides(draw) -> CoinProfile:
    base = draw(step_profiles())
    sites = draw(st.lists(st.integers(-10, 10), unique=True, max_size=4))
    overrides = {x: draw(coin_entries()) for x in sites}
    return CoinProfile(base.left, base.right, overrides)


# numbers of any size: NaN, +-inf, floats whose square overflows, integers
# beyond the float range, and the values a valid profile uses
_numbers = st.one_of(
    st.floats(),
    st.floats(-1.0, 1.0),
    st.integers(),
    st.integers(min_value=2**1024, max_value=2**1100),
    st.sampled_from([0.0, 0.5, 0.6, 0.8, 1.0, -1.0, 1e200, -1e200, 1.7e308]),
)
_anything = st.recursive(
    st.none() | st.booleans() | _numbers | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                  max_size=3),
    max_leaves=8,
)
_pairs = st.lists(_numbers, min_size=2, max_size=2) | _anything
_coins = st.one_of(
    st.fixed_dictionaries({"a": _numbers, "b": _pairs}),
    st.fixed_dictionaries({"a1": _numbers, "a2": _numbers, "b": _pairs}),
    _anything,
)
_sites = st.integers() | st.integers(min_value=2**63) | _anything
_overrides = st.fixed_dictionaries({"x": _sites, "a1": _numbers, "a2": _numbers, "b": _pairs})

fuzzed_documents = st.one_of(
    st.fixed_dictionaries(
        {"p": _numbers, "left": _coins, "right": _coins},
        optional={
            "q": _pairs,
            "theta": _numbers | _anything,
            "overrides": st.lists(_overrides | _anything, max_size=3) | _anything,
        },
    ),
    _anything,
)
