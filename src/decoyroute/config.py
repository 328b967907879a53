"""Run configuration: flat key=value files plus flag overrides (flags win)."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .adversary import AttackConfig, AttackMode
from .channel import ChannelModel, loss_db_to_T
from .protocol import max_decoys_per_pair


class ConfigError(ValueError):
    """A configuration problem, always naming the offending key."""

    def __init__(self, key: str, message: str):
        self.key = key
        super().__init__(f"config key '{key}': {message}")


_INT_KEYS = {"seed", "K", "num_nodes", "H2", "H3", "trials"}
_FLOAT_KEYS = {"gamma", "mu", "T", "loss_db", "eta_path", "eta_msg", "threshold2", "threshold3"}
_STR_KEYS = {"attack", "pairs", "traffic"}
KNOWN_KEYS = _INT_KEYS | _FLOAT_KEYS | _STR_KEYS


def parse_config_file(path: str | Path) -> dict[str, str]:
    """Parse ``key = value`` lines; ``#`` starts a comment, blanks are skipped."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(line.split()[0], f"line {lineno} is not a key = value pair")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in KNOWN_KEYS:
            raise ConfigError(key, "unknown key")
        values[key] = value
    return values


def coerce_value(key: str, value: str):
    """Parse a raw config-file value into the key's declared type."""
    try:
        if key in _INT_KEYS:
            return int(value)
        if key in _FLOAT_KEYS:
            return float(value)
    except ValueError as exc:
        raise ConfigError(key, f"cannot parse {value!r}: {exc}") from None
    return value


def _parse_pairs(value: str) -> list[tuple[int, int]]:
    pairs = []
    for item in value.split(","):
        item = item.strip()
        if not item:
            continue
        parts = item.split("-")
        if len(parts) != 2:
            raise ConfigError("pairs", f"expected entries like '0-1', got {item!r}")
        try:
            sender, receiver = int(parts[0]), int(parts[1])
        except ValueError:
            raise ConfigError("pairs", f"expected integer node ids, got {item!r}") from None
        pairs.append((sender, receiver))
    if not pairs:
        raise ConfigError("pairs", "no pairs given")
    return pairs


@dataclass
class RunConfig:
    """Everything one simulation run needs, validated."""

    seed: int = 12345
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
    def build(cls, file_values: dict[str, str] | None, flag_values: dict) -> "RunConfig":
        """Layer defaults, then config-file values, then flags."""
        config = cls()
        if file_values:
            for key, raw in file_values.items():
                config._assign(key, coerce_value(key, raw))
        for key, value in flag_values.items():
            if value is not None:
                config._assign(key, value)
        config.validate()
        return config

    def _assign(self, key: str, value) -> None:
        if key == "trials":
            # Read by the overhead command only.
            raise ConfigError("trials", "not used by simulate")
        if key == "pairs":
            self.pairs = _parse_pairs(value) if isinstance(value, str) else value
        else:
            setattr(self, key, value)

    def validate(self) -> None:
        if self.seed < 0:
            raise ConfigError("seed", "must be non-negative")
        if self.K < 1:
            raise ConfigError("K", "must be at least 1")
        if self.T is not None and self.loss_db is not None:
            raise ConfigError("T", "give either T or loss_db, not both")
        for key in ("gamma", "mu", "eta_path", "eta_msg"):
            value = getattr(self, key)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(key, f"must be in [0, 1], got {value}")
        if self.T is not None and not 0.0 <= self.T <= 1.0:
            raise ConfigError("T", f"must be in [0, 1], got {self.T}")
        if self.loss_db is not None and self.loss_db < 0:
            raise ConfigError("loss_db", f"must be non-negative, got {self.loss_db}")
        if self.H2 < 0:
            raise ConfigError("H2", "must be non-negative")
        if self.H3 < 0:
            raise ConfigError("H3", "must be non-negative")
        if self.H2 + self.H3 > max_decoys_per_pair(self.K):
            raise ConfigError(
                "K",
                f"needs H2 + H3 <= (K + 1) // 2 = {max_decoys_per_pair(self.K)} so every "
                f"decoy's return cycle is free, got {self.H2} + {self.H3}",
            )
        if self.attack not in ("none", "path", "message", "both"):
            raise ConfigError("attack", f"must be none/path/message/both, got {self.attack!r}")
        if self.traffic not in ("full", "silent"):
            raise ConfigError("traffic", f"must be full or silent, got {self.traffic!r}")
        for key in ("threshold2", "threshold3"):
            value = getattr(self, key)
            if value is not None and not 0.0 <= value <= 0.5:
                raise ConfigError(key, f"must be in [0, 0.5], got {value}")
        if self.num_nodes < 2:
            raise ConfigError("num_nodes", "must be at least 2")
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
            return ChannelModel(T=loss_db_to_T(self.loss_db), gamma=self.gamma, mu=self.mu)
        return ChannelModel(T=self.T if self.T is not None else 1.0, gamma=self.gamma, mu=self.mu)

    def attack_config(self) -> AttackConfig:
        return AttackConfig(
            mode=AttackMode(self.attack), eta_path=self.eta_path, eta_msg=self.eta_msg
        )
