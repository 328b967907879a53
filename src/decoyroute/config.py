"""Run configuration: flat key=value files plus flag overrides (flags win).

Every subcommand layers its values the same way (:func:`layer`): its own
defaults, then the ``--config`` file, then the flags the user gave.  Each
key's parser is declared once, in :data:`KEYS`; its range is the check of
the library function that takes it, which a subcommand calls inside
:func:`library_checks` before any kernel runs.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping

from .adversary import AttackConfig, AttackMode
from .channel import ChannelModel
from .errors import InputError
from .protocol import check_simulation

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
    """A config key: its text's parser, and a lower bound or choices no library function checks."""

    parse: Callable[[str], Any]
    lo: int | None = None
    choices: tuple[str, ...] = ()

    def check(self, key: str, value) -> None:
        if self.choices and value not in self.choices:
            raise ConfigError(key, f"must be one of {'/'.join(self.choices)}, got {value!r}")
        if self.lo is not None and value < self.lo:
            raise ConfigError(key, f"must be at least {self.lo}, got {value}")


KEYS: dict[str, Key] = {
    "seed": Key(int, 0),  # overhead and verify pass it to numpy, which does not name it
    "num_nodes": Key(int, 2),
    "pairs": Key(_parse_pairs),
    # The string names an AttackMode, which AttackConfig takes already converted.
    "attack": Key(str, choices=tuple(mode.value for mode in AttackMode)),
    "traffic": Key(str),
    **dict.fromkeys(("K", "H2", "H3", "trials"), Key(int)),
    **dict.fromkeys(
        ("gamma", "mu", "T", "loss_db", "eta_path", "eta_msg", "threshold2", "threshold3"),
        Key(float),
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
        """Layer defaults, then the config file, then flags; then check the run.

        The command line's own rules come first, then the library's checks.
        """
        config = cls(**layer("simulate", vars(cls()), config_path, flags))
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
            return ChannelModel.from_loss_db(self.loss_db, self.gamma, self.mu)
        return ChannelModel(T=self.T if self.T is not None else 1.0, gamma=self.gamma, mu=self.mu)

    def attack_config(self) -> AttackConfig:
        return AttackConfig(
            mode=AttackMode(self.attack), eta_path=self.eta_path, eta_msg=self.eta_msg
        )
