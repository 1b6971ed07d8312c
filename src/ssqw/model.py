"""Walk parameters, coin profiles, and their classification.

The walk acts on square-summable two-component sequences over the integer
lattice.  A shift parameter pair (p, q) with p real, q complex nonzero and
p^2 + |q|^2 = 1 fixes the split-step shift operator; a coin profile assigns
a local unitary, self-adjoint coin to every site.  Profiles here are
two-sided steps (one coin on the right half-line, another on the left) plus
finitely many per-site overrides.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Optional

VALIDATION_ATOL = 1e-12
TRIVIAL_ATOL = 1e-12


class ProfileError(ValueError):
    """Raised when a profile document or parameter set fails validation."""


def _squared_modulus(z: complex) -> float:
    # float ** raises OverflowError for finite inputs such as 1e200; read as inf
    try:
        return abs(z) ** 2
    except OverflowError:
        return math.inf


def _principal_arg(z: complex) -> float:
    # branch (-pi, pi]
    theta = math.atan2(z.imag, z.real)
    if theta <= -math.pi:
        theta = math.pi
    return theta


@dataclass(frozen=True)
class WalkParameters:
    """Shift parameters: p real, q complex nonzero, p^2 + |q|^2 = 1."""

    p: float
    q: complex

    @property
    def theta(self) -> float:
        return _principal_arg(self.q)

    @property
    def abs_q(self) -> float:
        return abs(self.q)

    def negated(self) -> "WalkParameters":
        """Parameters of the negated shift operator."""
        return WalkParameters(-self.p, -self.q)


def validate_parameters(p: float, q: complex) -> WalkParameters:
    """Check the shift constraints and return a WalkParameters instance.

    Raises ProfileError if q vanishes or p^2 + |q|^2 deviates from 1 by
    more than ``VALIDATION_ATOL``.
    """
    p = float(p)
    q = complex(q)
    if q == 0:
        raise ProfileError("shift parameter q must be nonzero")
    residual = abs(p * p + _squared_modulus(q) - 1.0)
    if residual > VALIDATION_ATOL:
        raise ProfileError(
            f"shift parameters violate p^2 + |q|^2 = 1 (residual {residual:.3e})"
        )
    return WalkParameters(p, q)


@dataclass(frozen=True)
class CoinEntry:
    """One site's coin: [[a1, conj(b)], [b, a2]], unitary and self-adjoint.

    Constraints: a1^2 + |b|^2 = 1, a2^2 + |b|^2 = 1, b (a1 + a2) = 0.
    """

    a1: float
    a2: float
    b: complex

    def __post_init__(self):
        object.__setattr__(self, "a1", float(self.a1))
        object.__setattr__(self, "a2", float(self.a2))
        object.__setattr__(self, "b", complex(self.b))
        for name, a in (("a1", self.a1), ("a2", self.a2)):
            residual = abs(a * a + _squared_modulus(self.b) - 1.0)
            if residual > VALIDATION_ATOL:
                raise ProfileError(
                    f"coin entry violates {name}^2 + |b|^2 = 1 (residual {residual:.3e})"
                )
        off = abs(self.b * (self.a1 + self.a2))
        if off > VALIDATION_ATOL:
            raise ProfileError(
                f"coin entry violates b (a1 + a2) = 0 (residual {off:.3e})"
            )

    @property
    def is_diagonal(self) -> bool:
        return abs(self.b) < TRIVIAL_ATOL

    @property
    def is_trivial(self) -> bool:
        """Plus or minus the identity coin."""
        return abs(self.b) < TRIVIAL_ATOL and abs(self.a1 - self.a2) < TRIVIAL_ATOL

    def negated(self) -> "CoinEntry":
        return type(self)(-self.a1, -self.a2, -self.b)


@dataclass(frozen=True)
class LimitCoin(CoinEntry):
    """The coin at a lattice end.

    Any valid entry that is not plus/minus identity satisfies a1 = -a2;
    ``a`` is that common value a1 = -a2, defined only for nontrivial limits.
    """

    @classmethod
    def symmetric(cls, a: float, b: complex) -> "LimitCoin":
        return cls(a1=float(a), a2=-float(a), b=complex(b))

    @property
    def a(self) -> float:
        if self.is_trivial:
            raise ProfileError("limit value a is undefined for a trivial limit coin")
        return self.a1


class CoinType(Enum):
    """Two-sided-limit classification by vanishing of the off-diagonal part."""

    I = "I"          # b = 0 at both ends
    II = "II"        # b = 0 on the left only
    II_PRIME = "II'" # b = 0 on the right only
    III = "III"      # b nonzero at both ends
    TRIVIAL_LIMIT = "trivial"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class CoinProfile:
    """Two-sided step coin with finitely many site overrides.

    Without overrides the coin is ``right`` at x >= 1 and ``left`` at
    x <= 0.  Overrides replace the entry at single sites and never move
    the limits.
    """

    left: LimitCoin
    right: LimitCoin
    overrides: Mapping[int, CoinEntry] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "overrides", dict(self.overrides))
        for x, entry in self.overrides.items():
            if not isinstance(x, int):
                raise ProfileError(f"override site {x!r} is not an integer")
            if not isinstance(entry, CoinEntry):
                raise ProfileError(f"override at x={x} is not a CoinEntry")

    @property
    def canonical_step(self) -> bool:
        return not self.overrides

    def entry(self, x: int) -> CoinEntry:
        e = self.overrides.get(x)
        if e is not None:
            return e
        return self.right if x >= 1 else self.left

    def step_reduction(self) -> "CoinProfile":
        return CoinProfile(self.left, self.right) if self.overrides else self

    def negated(self) -> "CoinProfile":
        return CoinProfile(
            LimitCoin(-self.left.a1, -self.left.a2, -self.left.b),
            LimitCoin(-self.right.a1, -self.right.a2, -self.right.b),
            {x: e.negated() for x, e in self.overrides.items()},
        )


def classify_coin(profile: CoinProfile) -> CoinType:
    """Coin type from the two limits; total on valid profiles."""
    if profile.left.is_trivial or profile.right.is_trivial:
        return CoinType.TRIVIAL_LIMIT
    left_diag = profile.left.is_diagonal
    right_diag = profile.right.is_diagonal
    if left_diag and right_diag:
        return CoinType.I
    if left_diag:
        return CoinType.II
    if right_diag:
        return CoinType.II_PRIME
    return CoinType.III


@dataclass(frozen=True)
class IndexReport:
    """Outcome of the index computation for one parameter point."""

    fredholm: bool
    coin_type: CoinType
    reason: str = ""
    d_plus: Optional[int] = None
    d_minus: Optional[int] = None
    index: Optional[int] = None
    near_boundary: bool = False

    def to_dict(self) -> dict:
        if self.fredholm:
            return {
                "fredholm": True,
                "d_plus": self.d_plus,
                "d_minus": self.d_minus,
                "index": self.index,
                "coin_type": self.coin_type.value,
                "near_boundary": self.near_boundary,
            }
        return {
            "fredholm": False,
            "reason": self.reason,
            "coin_type": self.coin_type.value,
            "near_boundary": self.near_boundary,
        }

    def to_json(self) -> str:
        """Canonical one-line JSON; reparsing and re-dumping is byte-stable."""
        return canonical_json(self.to_dict())


def canonical_json(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _require(cond: bool, msg: str):
    if not cond:
        raise ProfileError(msg)


def _parse_complex(value, key: str) -> complex:
    _require(
        isinstance(value, (list, tuple)) and len(value) == 2,
        f"key '{key}': complex values must be [re, im] pairs",
    )
    re_part, im_part = value
    _require(
        isinstance(re_part, (int, float)) and not isinstance(re_part, bool),
        f"key '{key}': real part must be a number",
    )
    _require(
        isinstance(im_part, (int, float)) and not isinstance(im_part, bool),
        f"key '{key}': imaginary part must be a number",
    )
    return complex(_finite(re_part, key), _finite(im_part, key))


def _parse_real(value, key: str) -> float:
    _require(
        isinstance(value, (int, float)) and not isinstance(value, bool),
        f"key '{key}': expected a real number",
    )
    return _finite(value, key)


def _finite(number, key: str) -> float:
    # NaN would pass every later comparison (nan > atol is False)
    try:
        value = float(number)
    except OverflowError:  # an integer beyond the float range
        value = math.inf
    _require(math.isfinite(value), f"key '{key}': must be finite")
    return value


def _parse_limit(doc, key: str) -> LimitCoin:
    _require(isinstance(doc, dict), f"key '{key}': expected an object")
    allowed = {"a", "a1", "a2", "b"}
    for k in doc:
        _require(k in allowed, f"key '{key}.{k}': unknown key")
    _require("b" in doc, f"key '{key}.b': missing")
    b = _parse_complex(doc["b"], f"{key}.b")
    if "a" in doc:
        _require(
            "a1" not in doc and "a2" not in doc,
            f"key '{key}': give either 'a' or the pair 'a1'/'a2', not both",
        )
        a = _parse_real(doc["a"], f"{key}.a")
        try:
            return LimitCoin.symmetric(a, b)
        except ProfileError as exc:
            raise ProfileError(f"key '{key}': {exc}") from None
    # explicit diagonal form, needed for trivial limits (a1 = a2 = +-1)
    _require("a1" in doc, f"key '{key}.a1': missing")
    _require("a2" in doc, f"key '{key}.a2': missing")
    a1 = _parse_real(doc["a1"], f"{key}.a1")
    a2 = _parse_real(doc["a2"], f"{key}.a2")
    try:
        return LimitCoin(a1, a2, b)
    except ProfileError as exc:
        raise ProfileError(f"key '{key}': {exc}") from None


def load_profile(document: Mapping) -> tuple[WalkParameters, CoinProfile]:
    """Parse and validate a profile document (already-deserialized JSON).

    Schema: top-level keys ``p`` (real, required), ``q`` ([re, im],
    optional), ``theta`` (real, optional), ``left``/``right`` (required
    limit coins), ``overrides`` (optional list of per-site entries).  When
    ``q`` is present ``theta`` must agree with Arg q if also given; when
    only ``theta`` is present, |q| = sqrt(1 - p^2) with that phase; with
    neither, q is real positive.

    Returns the validated (WalkParameters, CoinProfile) pair.  Raises
    ProfileError naming the offending key on schema violations.
    """
    _require(isinstance(document, dict), "profile document must be a JSON object")
    allowed = {"p", "q", "theta", "left", "right", "overrides"}
    for k in document:
        _require(k in allowed, f"key '{k}': unknown key")
    _require("p" in document, "key 'p': missing")
    p = _parse_real(document["p"], "p")
    _require(-1.0 < p < 1.0, "key 'p': must lie strictly between -1 and 1")

    if "q" in document:
        q = _parse_complex(document["q"], "q")
        if "theta" in document:
            theta = _parse_real(document["theta"], "theta")
            diff = abs(_principal_arg(q) - theta)
            diff = min(diff, abs(diff - 2 * math.pi))
            _require(diff <= 1e-9, "key 'theta': inconsistent with Arg q")
    else:
        theta = _parse_real(document["theta"], "theta") if "theta" in document else 0.0
        q = math.sqrt(max(0.0, 1.0 - p * p)) * complex(math.cos(theta), math.sin(theta))
    try:
        params = validate_parameters(p, q)
    except ProfileError as exc:
        raise ProfileError(f"key 'q': {exc}") from None

    _require("left" in document, "key 'left': missing")
    _require("right" in document, "key 'right': missing")
    left = _parse_limit(document["left"], "left")
    right = _parse_limit(document["right"], "right")

    overrides: dict[int, CoinEntry] = {}
    if "overrides" in document:
        raw = document["overrides"]
        _require(isinstance(raw, list), "key 'overrides': expected a list")
        for i, item in enumerate(raw):
            here = f"overrides[{i}]"
            _require(isinstance(item, dict), f"key '{here}': expected an object")
            for k in item:
                _require(k in {"x", "a1", "a2", "b"}, f"key '{here}.{k}': unknown key")
            for k in ("x", "a1", "a2", "b"):
                _require(k in item, f"key '{here}.{k}': missing")
            x = item["x"]
            _require(
                isinstance(x, int) and not isinstance(x, bool),
                f"key '{here}.x': expected an integer site",
            )
            _require(x not in overrides, f"key '{here}.x': duplicate site {x}")
            a1 = _parse_real(item["a1"], f"{here}.a1")
            a2 = _parse_real(item["a2"], f"{here}.a2")
            b = _parse_complex(item["b"], f"{here}.b")
            try:
                overrides[x] = CoinEntry(a1, a2, b)
            except ProfileError as exc:
                raise ProfileError(f"key '{here}': {exc}") from None

    return params, CoinProfile(left, right, overrides)
