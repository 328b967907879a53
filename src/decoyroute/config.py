"""Run configuration: flat key=value files plus flag overrides (flags win).

Every valued input of a subcommand is a config key, with one parser in
:data:`KEYS` and its default in :data:`DEFAULTS`.  Every subcommand layers
its values the same way (:func:`layer`): defaults, then the ``--config``
file, then the flags.  A value's range is the check of the library function
that takes it, called inside :func:`library_checks` before any kernel runs.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Mapping

from .adversary import AttackConfig
from .channel import ChannelModel, loss_db_to_T
from .errors import InputError, check_at_least
from .protocol import check_simulation

DEFAULT_SEED = 12345


class ConfigError(ValueError):
    """A configuration problem, naming the config key at fault, or ``--config`` or ``--out``."""

    def __init__(self, key: str, message: str):
        name = f"config key '{key}'" if key in KEYS else f"option '--{key}'"
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


def _int_at_least(name: str, lo: int) -> Callable[[str], int]:
    """A parser of ints from ``lo`` up, for a key that no library function checks."""

    def parse(value: str) -> int:
        check_at_least(name, int(value), lo)
        return int(value)

    return parse


# Each ``attack`` name and the attack kinds it enables, by the rate each kind reads.
ATTACKS: dict[str, tuple[str, ...]] = {
    "none": (), "path": ("eta_path",), "message": ("eta_msg",), "both": ("eta_path", "eta_msg"),
}


def _parse_attack(value: str) -> str:
    if value not in ATTACKS:
        raise InputError("attack", f"must be one of {'/'.join(ATTACKS)}, got {value!r}")
    return value


KEYS: dict[str, Callable[[str], Any]] = {
    # overhead and verify pass the seed to numpy, which does not name it.
    "seed": _int_at_least("seed", 0),
    "num_nodes": _int_at_least("num_nodes", 2),
    "pairs": _parse_pairs,
    "attack": _parse_attack,
    "traffic": str,
    **dict.fromkeys(
        ("K", "H2", "H3", "trials", "m", "steps", "dim", "samples", "scatter_samples"), int
    ),
    **dict.fromkeys(
        ("gamma", "mu", "T", "loss_db", "eta_path", "eta_msg", "threshold2", "threshold3",
         "loss_min", "loss_max", "eta", "epsilon", "eta_max"),
        float,
    ),
}

# Library argument names that the command line spells another way.
CLI_NAMES = {
    "m_intercepted": "m", "loss_min_db": "loss_min", "loss_max_db": "loss_max",
    "h2_per_pair": "H2", "h3_per_pair": "H3", "node_pairs": "pairs",
}


@contextmanager
def library_checks() -> Iterator[None]:
    """Report a library check's :class:`InputError` as a :class:`ConfigError` naming the key.

    Wrap only explicit check calls: an ``InputError`` from a kernel is a bug, not a user error.
    """
    try:
        yield
    except InputError as exc:
        raise ConfigError(CLI_NAMES.get(exc.name, exc.name), exc.detail) from None


def parse_config_file(path: str | Path) -> dict[str, str]:
    """Parse ``key = value`` lines; ``#`` starts a comment, blanks are skipped."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError("config", f"cannot read {path}: {exc.reason}") from None
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
    """Parse a raw value, from a config file or a flag, with the key's parser."""
    try:
        return KEYS[key](value)
    except InputError as exc:  # a value the parser reads but the key does not take
        raise ConfigError(key, exc.detail) from None
    except ValueError as exc:
        raise ConfigError(key, f"cannot parse {value!r}: {exc}") from None


def layer(command: str, config_path: str | None, flags: Mapping[str, Any]) -> dict[str, Any]:
    """Layer ``command``'s defaults, then the config file, then non-``None`` flags.

    Only the keys ``command`` reads are layered: a file key outside them is
    an error, other flags are ignored.  Flag values are raw strings, parsed
    like file values; every file value is parsed, also one a flag overrides.
    """
    defaults = DEFAULTS[command]
    values = dict(defaults)
    if config_path:
        for key, raw in parse_config_file(config_path).items():
            if key not in defaults:
                raise ConfigError(key, f"not used by {command}")
            values[key] = coerce_value(key, raw)
    for key in defaults:
        if flags.get(key) is not None:
            values[key] = coerce_value(key, flags[key])
    return values


@dataclass
class RunConfig:
    """Everything one simulation run needs, validated."""

    seed: int = DEFAULT_SEED
    K: int = 1000
    num_nodes: int = 2
    pairs: Sequence[tuple[int, int]] = ((0, 1),)
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
        """Layer the run's values (:func:`layer`), then check them: the command line's rules
        first, then the library's."""
        config = cls(**layer("simulate", config_path, flags))
        if config.T is not None and config.loss_db is not None:
            raise ConfigError("T", "give either T or loss_db, not both")
        nodes = config.num_nodes
        for sender, receiver in config.pairs:
            if not (0 <= sender < nodes and 0 <= receiver < nodes):
                raise ConfigError("pairs", f"{sender}-{receiver} is outside nodes 0..{nodes - 1}")
        with library_checks():
            check_simulation(
                config.K, config.pairs, config.H2, config.H3,
                config.traffic, config.threshold2, config.threshold3,
            )
            config.channel()
            config.attack_config()
        return config

    def channel(self) -> ChannelModel:
        if self.loss_db is not None:
            return ChannelModel(T=loss_db_to_T(self.loss_db), gamma=self.gamma, mu=self.mu)
        return ChannelModel(T=self.T if self.T is not None else 1.0, gamma=self.gamma, mu=self.mu)

    def attack_config(self) -> AttackConfig:
        """The rates, both checked, with those the ``attack`` name does not enable zeroed."""
        rates = AttackConfig(eta_path=self.eta_path, eta_msg=self.eta_msg)
        disabled = {"eta_path", "eta_msg"} - set(ATTACKS[self.attack])
        return replace(rates, **dict.fromkeys(disabled, 0.0))


# The keys each subcommand reads, with their defaults; simulate reads RunConfig's fields.
DEFAULTS: dict[str, dict[str, Any]] = {
    "figure2": {"gamma": 0.01, "mu": 0.01, "seed": None,
                "loss_min": 0.0, "loss_max": 3.0, "steps": 61},
    "simulate": vars(RunConfig()),
    "overhead": {"K": 100, "H3": 20, "trials": 100_000, "seed": DEFAULT_SEED,
                 "m": None, "eta": None, "epsilon": 0.01, "eta_max": 0.1},
    "verify": {"seed": DEFAULT_SEED, "dim": 4, "samples": 100, "scatter_samples": 1000},
}
