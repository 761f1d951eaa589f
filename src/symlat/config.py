"""Experiment configuration: flat ``key = value`` sections parsed strictly.

See ``configs/`` in the repository root for annotated examples of every
experiment kind.  Parse errors report the file line where possible; semantic
errors name the offending section and key.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .builders import icosahedral_axes, c2xc2_lattice, cyclic_chain_lattice, \
    d4_lattice, d4_pixel_lattice, sl3_extended_lattice, so3_axes_lattice
from .errors import ConfigError, LatticeError
from .search import ALGORITHMS, TIE_RULES

EXPERIMENT_KINDS = ("power-curve", "group-recovery", "estimator-compare", "search")
TEST_NAMES = ("exceedance", "permutation")
SEARCH_TESTS = TEST_NAMES + ("oracle",)


@dataclass
class TestSettings:
    __test__ = False  # not a pytest class, despite the name

    types: tuple[str, ...] = ("exceedance", "permutation")
    alpha: float = 0.05
    m: int | None = None              # None means "n"
    thresholds: tuple[float, ...] | None = None   # None means the auto grid
    grid_size: int = 20
    lipschitz: float = 1.0
    exponent: float = 1.0
    noise_sigma: float | None = None  # defaults to the scenario's sigma
    q: float = 0.95
    B: int = 100
    perm_m: int | None = None         # None means "n"

    def __post_init__(self):
        # each comparison is also false for NaN
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"[test] alpha: {self.alpha!r} does not lie in (0, 1)")
        if not 0.0 < self.q <= 1.0:
            raise ConfigError(f"[test] q: {self.q!r} does not lie in (0, 1]")
        if not 0.0 < self.exponent <= 1.0:
            raise ConfigError(f"[test] exponent: {self.exponent!r} does not lie in (0, 1]")
        if not 0.0 < self.lipschitz < math.inf:
            raise ConfigError(f"[test] lipschitz: {self.lipschitz!r} is not finite and > 0")
        if self.noise_sigma is not None and not 0.0 <= self.noise_sigma < math.inf:
            raise ConfigError(f"[test] noise_sigma: {self.noise_sigma!r} is not finite and >= 0")
        for key in ("m", "perm_m", "B", "grid_size"):
            value = getattr(self, key)
            if value is not None and value < 1:
                raise ConfigError(f"[test] {key}: {value} is not >= 1")
        ts = self.thresholds
        # an infinite threshold is never exceeded and has p_t = 0: its tail is 1
        if ts is not None and not (ts and ts[0] > 0.0 and ts[-1] < math.inf
                                   and all(a < b for a, b in zip(ts, ts[1:]))):
            raise ConfigError(f"[test] thresholds: {' '.join(map(repr, ts))} are not "
                              "positive, finite and strictly increasing")

    def m_for(self, n: int) -> int:
        return n if self.m is None else self.m

    def perm_m_for(self, n: int) -> int:
        return n if self.perm_m is None else self.perm_m


@dataclass
class LatticeSettings:
    builder: str = "cyclic-chain"
    orders: tuple[int, ...] = (1, 2, 4)
    dim: int = 2
    side: int = 28
    axes: str | tuple[tuple[float, float, float], ...] = "icosahedral"
    angle_std: float | None = None

    def __post_init__(self):
        if self.angle_std is not None and not self.angle_std > 0.0:
            raise ConfigError(f"[lattice] angle_std: {self.angle_std!r} is not > 0")
        if self.side < 1:
            raise ConfigError(f"[lattice] side: {self.side} is not >= 1")


@dataclass
class SearchSettings:
    algorithm: str = "breadth"
    tie_rule: str = "uniform-random"
    test: str = "exceedance"
    oracle_reject: tuple[str, ...] = ()

    def __post_init__(self):
        for key, allowed in (("algorithm", ALGORITHMS), ("tie_rule", TIE_RULES),
                             ("test", SEARCH_TESTS)):
            value = getattr(self, key)
            if value not in allowed:
                raise ConfigError(f"[search] {key}: unknown value {value!r} "
                                  f"(expected one of {', '.join(allowed)})")


@dataclass
class DataSettings:
    source: str = "scenario"
    path: str = ""
    labels: str = ""
    response: str = "y"
    n: int = 200

    def __post_init__(self):
        if self.n < 2:
            raise ConfigError(f"[data] n: {self.n} is not >= 2")


@dataclass
class ExperimentConfig:
    kind: str
    seed: int = 20240817
    replicates: int = 100
    sample_sizes: tuple[int, ...] = (100,)
    test_size: int | None = None       # held-out rows for estimator comparison
    out: str = "results"
    jobs: int = 1
    fmt: str = "both"
    scenario_id: str = "fd-rotation"
    scenario_dim: int | None = None
    scenario_sigma: float | None = None
    test: TestSettings = field(default_factory=TestSettings)
    lattice: LatticeSettings = field(default_factory=LatticeSettings)
    search: SearchSettings = field(default_factory=SearchSettings)
    data: DataSettings = field(default_factory=DataSettings)

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}")
        if self.seed < 0:
            raise ConfigError(f"[experiment] seed: {self.seed} is not >= 0")
        if self.jobs < 1:
            raise ConfigError(f"[experiment] jobs: {self.jobs} is not >= 1")
        if self.replicates < 1:
            raise ConfigError("replicates must be >= 1")
        if self.test_size is not None and self.test_size < 1:
            raise ConfigError(f"[experiment] test_size: {self.test_size} is not >= 1")
        if self.scenario_sigma is not None and not 0.0 <= self.scenario_sigma < math.inf:
            raise ConfigError(f"[scenario] noise_sigma: {self.scenario_sigma!r} "
                              "is not finite and >= 0")
        sizes = tuple(int(n) for n in self.sample_sizes)
        if not sizes or any(n <= 0 for n in sizes) or any(
                b <= a for a, b in zip(sizes, sizes[1:])):
            raise ConfigError("sample_sizes must be positive and ascending")
        self.sample_sizes = sizes
        if self.fmt not in ("csv", "svg", "both"):
            raise ConfigError("format must be csv, svg, or both")
        for t in self.test.types:
            if t not in TEST_NAMES:
                raise ConfigError(f"unknown test type {t!r}")


def _bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _int_or_n(raw: str) -> int | None:
    if raw.lower() == "n":
        return None
    return int(raw)


def _floats_or_auto(raw: str) -> tuple[float, ...] | None:
    if raw.lower() == "auto":
        return None
    return tuple(float(v) for v in raw.replace(",", " ").split())


def _ints(raw: str) -> tuple[int, ...]:
    return tuple(int(v) for v in raw.replace(",", " ").split())


def _words(raw: str) -> tuple[str, ...]:
    return tuple(raw.replace(",", " ").split())


def _axes(raw: str):
    if raw.lower() == "icosahedral":
        return "icosahedral"
    axes = []
    for chunk in raw.split(";"):
        vals = [float(v) for v in chunk.split()]
        if len(vals) != 3:
            raise ValueError(f"axis {chunk!r} is not three numbers")
        axes.append(tuple(vals))
    return tuple(axes)


def _float_expr(raw: str) -> float:
    """Floats plus the handful of constants configs actually want."""
    named = {"1/e": 1.0 / math.e, "pi": math.pi}
    if raw in named:
        return named[raw]
    return float(raw)


# Every key each section accepts, in lower case as configparser stores it,
# with its parser.  Defaults live in the dataclasses, not here.
_KEYS = {
    "experiment": {"kind": str, "seed": int, "replicates": int,
                   "sample_sizes": _ints, "test_size": int, "out": str,
                   "jobs": int, "format": str},
    "scenario": {"id": str, "dim": int, "noise_sigma": float},
    "test": {"types": _words, "alpha": float, "m": _int_or_n,
             "thresholds": _floats_or_auto, "grid_size": int,
             "lipschitz": _float_expr, "exponent": float, "noise_sigma": float,
             "q": float, "b": int, "perm_m": _int_or_n},
    "lattice": {"builder": str, "orders": _ints, "dim": int, "side": int,
                "axes": _axes, "angle_std": float},
    "search": {"algorithm": str, "tie_rule": str, "test": str, "batch": _bool,
               "oracle_reject": _words},
    "data": {"source": str, "path": str, "labels": str, "response": str,
             "n": int},
}

# Keys whose dataclass field has another name.
_FIELDS = {("experiment", "format"): "fmt", ("scenario", "id"): "scenario_id",
           ("scenario", "dim"): "scenario_dim",
           ("scenario", "noise_sigma"): "scenario_sigma", ("test", "b"): "B"}


def _section(parser, section: str, path) -> dict:
    """The non-empty keys of ``section``, parsed and named by their field."""
    if not parser.has_section(section):
        return {}
    values = {}
    for key, raw in parser.items(section):
        conv = _KEYS[section].get(key)
        if conv is None:
            raise ConfigError(f"{path}: [{section}] unknown key {key!r}")
        raw = raw.strip()
        if raw == "":
            continue
        try:
            values[_FIELDS.get((section, key), key)] = conv(raw)
        except (ValueError, ConfigError) as exc:
            raise ConfigError(f"{path}: [{section}] {key}: {exc}") from None
    return values


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if parser.defaults():
        raise ConfigError(f"{path}: unknown section [{parser.default_section}]")
    for section in parser.sections():
        if section not in _KEYS:
            raise ConfigError(f"{path}: unknown section [{section}]")
    if not parser.has_section("experiment"):
        raise ConfigError(f"{path}: missing [experiment] section")
    top = _section(parser, "experiment", path) | _section(parser, "scenario", path)
    if "kind" not in top:
        raise ConfigError(f"{path}: [experiment] needs 'kind'")
    test, lattice, search, data = (_section(parser, name, path)
                                   for name in ("test", "lattice", "search", "data"))
    kind = top["kind"]
    if "test" in search and kind in ("power-curve", "group-recovery"):
        raise ConfigError(f"{path}: [search] test: kind {kind!r} reads [test] types instead")
    if search.get("test") == "oracle" and kind != "search":
        raise ConfigError(f"{path}: [search] test: 'oracle' needs kind = search")
    if "oracle_reject" in search and search.get("test") != "oracle":
        raise ConfigError(f"{path}: [search] oracle_reject: read only with test = oracle")
    # the key still parses, so configs that say ``batch = false`` load
    if search.pop("batch", False):
        raise ConfigError(f"{path}: [search] batch: batch mode was removed; "
                          "every node is tested on its own stream")
    try:
        return ExperimentConfig(**top, test=TestSettings(**test),
                                lattice=LatticeSettings(**lattice),
                                search=SearchSettings(**search), data=DataSettings(**data))
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def build_lattice(settings: LatticeSettings):
    """The lattice that ``settings`` name; a builder's ``LatticeError`` is a
    ``ConfigError`` naming ``[lattice]``."""
    try:
        if settings.builder == "cyclic-chain":
            return cyclic_chain_lattice(settings.orders, dim=settings.dim)
        if settings.builder == "d4":
            return d4_lattice(dim=settings.dim)
        if settings.builder == "d4-pixels":
            return d4_pixel_lattice(settings.side)
        if settings.builder == "c2xc2":
            return c2xc2_lattice(dim=settings.dim)
        if settings.builder in ("so3-axes", "sl3-extended"):
            axes = icosahedral_axes() if settings.axes == "icosahedral" \
                else np.asarray(settings.axes, dtype=float)
            if settings.builder == "so3-axes":
                return so3_axes_lattice(axes, angle_std=settings.angle_std)
            return sl3_extended_lattice(axes, angle_std=settings.angle_std)
    except LatticeError as exc:
        raise ConfigError(f"[lattice] {settings.builder}: {exc}") from None
    raise ConfigError(f"unknown lattice builder {settings.builder!r}")
