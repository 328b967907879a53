"""Run configuration: flat key=value files plus flag overrides (flags win).

Every subcommand layers its values the same way (:func:`layer`): its own
defaults, then the ``--config`` file, then the flags the user gave.  Each
key's type and range are declared once, in :data:`KEYS`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping

from .adversary import AttackConfig, AttackMode
from .channel import ChannelModel
from .protocol import max_decoys_per_pair

DEFAULT_SEED = 12345


class ConfigError(ValueError):
    """A configuration problem, naming the offending config key or flag-only option."""

    def __init__(self, key: str, message: str):
        self.key = key
        name = f"config key '{key}'" if key in KEYS else f"option '--{key.replace('_', '-')}'"
        super().__init__(f"{name}: {message}")


def _parse_pairs(value: str) -> list[tuple[int, int]]:
    pairs = []
    for item in value.split(","):
        item = item.strip()
        if not item:
            continue
        parts = item.split("-")
        if len(parts) != 2:
            raise ValueError(f"expected entries like '0-1', got {item!r}")
        pairs.append((int(parts[0]), int(parts[1])))
    if not pairs:
        raise ValueError("no pairs given")
    return pairs


@dataclass(frozen=True)
class Key:
    """A config key: the parser for its text and the values it may take."""

    parse: Callable[[str], Any]
    lo: float | None = None
    hi: float = math.inf
    choices: tuple[str, ...] = ()

    def check(self, key: str, value) -> None:
        if value is None:
            return  # an optional key left unset
        if self.choices and value not in self.choices:
            raise ConfigError(key, f"must be one of {'/'.join(self.choices)}, got {value!r}")
        if self.lo is not None and not self.lo <= value <= self.hi:
            bound = f"in [{self.lo:g}, {self.hi:g}]" if self.hi < math.inf else f">= {self.lo:g}"
            raise ConfigError(key, f"must be {bound}, got {value}")


_UNIT = Key(float, 0.0, 1.0)
_THRESHOLD = Key(float, 0.0, 0.5)

KEYS: dict[str, Key] = {
    "seed": Key(int, 0),
    "K": Key(int, 1),
    "num_nodes": Key(int, 2),
    "pairs": Key(_parse_pairs),
    "H2": Key(int, 0),
    "H3": Key(int, 0),
    "gamma": _UNIT,
    "mu": _UNIT,
    "T": _UNIT,
    "loss_db": Key(float, 0.0),
    "attack": Key(str, choices=tuple(mode.value for mode in AttackMode)),
    "eta_path": _UNIT,
    "eta_msg": _UNIT,
    "threshold2": _THRESHOLD,
    "threshold3": _THRESHOLD,
    "traffic": Key(str, choices=("full", "silent")),
    "trials": Key(int, 1),
}


def parse_config_file(path: str | Path) -> dict[str, str]:
    """Parse ``key = value`` lines; ``#`` starts a comment, blanks are skipped."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path}: {exc.strerror}") from None
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("config", f"line {lineno} of {path} is not a key = value pair")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in KEYS:
            raise ConfigError("config", f"line {lineno} of {path}: unknown key {key!r}")
        values[key] = value
    return values


def coerce_value(key: str, value: str):
    """Parse a raw value, from a config file or a flag, into the key's type."""
    try:
        return KEYS[key].parse(value)
    except ValueError as exc:
        raise ConfigError(key, f"cannot parse {value!r}: {exc}") from None


def layer(
    command: str, defaults: Mapping[str, Any], config_path: str | None, flags: Mapping[str, Any]
) -> dict[str, Any]:
    """Layer ``command``'s defaults, then the config file, then non-``None`` flags.

    Only the keys in ``defaults`` are read: a file key outside them is an
    error, other flags are ignored.  Flag values are raw strings, parsed
    like file values.  Every resulting value is range-checked.
    """
    values = dict(defaults)
    if config_path:
        for key, raw in parse_config_file(config_path).items():
            if key not in defaults:
                raise ConfigError(key, f"not used by {command}")
            values[key] = coerce_value(key, raw)
    for key in defaults:
        if flags.get(key) is not None:
            values[key] = coerce_value(key, flags[key])
    for key, value in values.items():
        KEYS[key].check(key, value)
    return values


@dataclass
class RunConfig:
    """Everything one simulation run needs, validated."""

    seed: int = DEFAULT_SEED
    K: int = 1000
    num_nodes: int = 2
    pairs: list[tuple[int, int]] = field(default_factory=lambda: [(0, 1)])
    H2: int = 50
    H3: int = 50
    gamma: float = 0.0
    mu: float = 0.0
    T: float | None = None
    loss_db: float | None = None
    attack: str = "none"
    eta_path: float = 0.0
    eta_msg: float = 0.0
    threshold2: float | None = None
    threshold3: float | None = None
    traffic: str = "full"

    @classmethod
    def build(cls, config_path: str | None, flags: Mapping[str, Any]) -> "RunConfig":
        """Layer defaults, then the config file, then flags; then check across keys."""
        config = cls(**layer("simulate", vars(cls()), config_path, flags))
        config.validate()
        return config

    def validate(self) -> None:
        """The rules that involve more than one key; :data:`KEYS` checks each alone."""
        if self.T is not None and self.loss_db is not None:
            raise ConfigError("T", "give either T or loss_db, not both")
        if self.K >= 2**63:
            raise ConfigError("K", f"must be below 2**63 so cycles fit in int64, got {self.K}")
        if self.H2 + self.H3 > max_decoys_per_pair(self.K):
            raise ConfigError(
                "K",
                f"needs H2 + H3 <= (K + 1) // 2 = {max_decoys_per_pair(self.K)} so every "
                f"decoy's return cycle is free, got {self.H2} + {self.H3}",
            )
        seen: set[tuple[int, int]] = set()
        for sender, receiver in self.pairs:
            if (sender, receiver) in seen:
                raise ConfigError("pairs", f"{sender}-{receiver} is given more than once")
            seen.add((sender, receiver))
            if sender == receiver:
                raise ConfigError("pairs", f"sender equals receiver in {sender}-{receiver}")
            if not (0 <= sender < self.num_nodes and 0 <= receiver < self.num_nodes):
                raise ConfigError(
                    "pairs", f"{sender}-{receiver} out of range for num_nodes = {self.num_nodes}"
                )

    def channel(self) -> ChannelModel:
        if self.loss_db is not None:
            return ChannelModel.from_loss_db(self.loss_db, self.gamma, self.mu)
        return ChannelModel(T=self.T if self.T is not None else 1.0, gamma=self.gamma, mu=self.mu)

    def attack_config(self) -> AttackConfig:
        return AttackConfig(
            mode=AttackMode(self.attack), eta_path=self.eta_path, eta_msg=self.eta_msg
        )
