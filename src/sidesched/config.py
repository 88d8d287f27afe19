"""The experiment config: its JSON keys, its rules and its hash.

Every default is written once, on its dataclass field, so
``config_from_dict({}) == ExperimentConfig()``: the reader checks only
the JSON types that ``SCHEMA`` lists and passes on the keys present.
Every rule on the values is written once, in the ``__post_init__`` of
the dataclass that owns the field, so a directly built config obeys it too.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass

from .errors import ConfigError, ParseError
from .grid import ResourceGrid
from .scenario import ScenarioModel
from .sideinfo import QuantizerSpec, level_rates
from .solvers import METHODS, ORACLE_MAX_K, ORACLE_MAX_L


@dataclass
class ExperimentConfig:
    """Everything one run or sweep needs; a bad value raises ConfigError
    naming its config-file key when the config is built."""

    grid: ResourceGrid = ResourceGrid()
    scenario: ScenarioModel = ScenarioModel()
    cluster_sizes: tuple[int, ...] = (100,)
    bits_list: tuple[int, ...] = (0,)   # 0 = ideal fine-grained feedback
    methods: tuple[str, ...] = ("proposed", "greedy", "random")
    repetitions: int = 100
    master_seed: int | None = None      # None: drawn at run time, recorded
    out_dir: str = "results"
    cdf_grid_points: int = 30
    quant_lo_db: float = -15.0
    quant_hi_db: float = 35.0
    sweep_n_vehicles: tuple[int, ...] | None = None  # None: sweep_densities
    t_sps_pool_s: tuple[float, ...] = (1.0, 4.0, 8.0)  # Release-14 SPS periods

    @property
    def sweep_densities(self) -> tuple[int, ...]:
        """``sweep_n_vehicles``, or when unset every tenth density up to
        the subframe count, or just that count."""
        if self.sweep_n_vehicles is not None:
            return self.sweep_n_vehicles
        l = self.grid.l
        return tuple(n for n in range(10, 101, 10) if n <= l) or (l,)

    def __post_init__(self):
        k, l = self.grid.k, self.grid.l
        axes = {"clusters": self.cluster_sizes, "methods": self.methods,
                "quant.bits": self.bits_list,
                "sweep.n_vehicles": self.sweep_densities}
        # an empty axis leaves no cell and a repeated entry runs cells twice
        # (cluster sizes may repeat: each gets its own id)
        bad = [key for key, axis in axes.items() if not axis]
        bad += [f"{key}[{i}]" for key, axis in axes.items() if key != "clusters"
                for i, x in enumerate(axis) if x in axis[:i]]
        bad += [f"{key}[{i}]" for key in ("clusters", "sweep.n_vehicles")
                for i, n in enumerate(axes[key]) if not 1 <= n <= l]
        # width 0 has no quantizer, but the range is checked all the same;
        # a quantized width needs finite level rates that strictly increase
        for i, bits in enumerate(self.bits_list or (0,)):
            try:
                q = QuantizerSpec(bits or 1, self.quant_lo_db, self.quant_hi_db)
                if bits:
                    level_rates(q, self.grid.b_hz)
            except ConfigError as exc:
                bad += [f"quant.bits[{i}]" if name == "bits" else f"quant.{name}"
                        for name in exc.keys]
            except ValueError:
                bad += ["quant.lo_db", "quant.hi_db"]
        for i, method in enumerate(self.methods):
            if method not in METHODS:
                bad.append(f"methods[{i}]")
            elif method == "oracle" and (l > ORACLE_MAX_L or k > ORACLE_MAX_K):
                # brute force is capped; name the method and the grid sizes
                bad.append(f"methods[{i}]")
                if l > ORACLE_MAX_L:
                    bad.append("grid.l_subframes")
                if k > ORACLE_MAX_K:
                    bad.append("grid.k_subchannels")
        bad += [key for key, ok in (
            ("repetitions", self.repetitions >= 1),
            ("master_seed", self.master_seed is None or self.master_seed >= 0),
            ("out_dir", bool(self.out_dir)),
            ("cdf_grid_points", self.cdf_grid_points >= 2),
            ("t_sps_pool_s", bool(self.t_sps_pool_s) and all(
                0 < t and math.isfinite(t * 1000 / self.grid.window_ms)
                for t in self.t_sps_pool_s)),
        ) if not ok]
        if bad:
            raise ConfigError(sorted(set(bad)))


#: Config-file key -> (ExperimentConfig field, dotted through ``grid`` and
#: ``scenario``; JSON type). A JSON type in brackets is a list of that
#: type; "|int" also takes one bare entry and "|null" takes null.
SCHEMA = {
    "grid.k_subchannels": ("grid.k", "int"),
    "grid.l_subframes": ("grid.l", "int"),
    "grid.t_ms": ("grid.t_ms", "number"),
    "grid.b_hz": ("grid.b_hz", "number"),
    "scenario.kind": ("scenario.kind", "string"),
    "scenario.mean_db": ("scenario.mean_db", "number"),
    "scenario.std_db": ("scenario.std_db", "number"),
    "scenario.bad_mean_db": ("scenario.bad_mean_db", "number"),
    "scenario.p_bad": ("scenario.p_bad", "number"),
    "scenario.floor_db": ("scenario.sinr_floor_db", "number"),
    "scenario.ceil_db": ("scenario.sinr_ceil_db", "number"),
    "scenario.p_t_dbm": ("scenario.p_t_dbm", "number"),
    "clusters": ("cluster_sizes", "[int]"),
    "quant.bits": ("bits_list", "[int]|int"),
    "quant.lo_db": ("quant_lo_db", "number"),
    "quant.hi_db": ("quant_hi_db", "number"),
    "methods": ("methods", "[string]"),
    "repetitions": ("repetitions", "int"),
    "master_seed": ("master_seed", "int|null"),
    "out_dir": ("out_dir", "string"),
    "cdf_grid_points": ("cdf_grid_points", "int"),
    "sweep.n_vehicles": ("sweep_n_vehicles", "[int]"),
    "t_sps_pool_s": ("t_sps_pool_s", "[number]"),
}

_KEY_OF = {path: key for key, (path, _) in SCHEMA.items()}


def _entry(x, json_type: str):
    """``x`` as the Python type of a scalar JSON type, or None when it is
    not of that type. A number is a float; one too large for a float is inf."""
    if json_type == "string":
        return x if isinstance(x, str) else None
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return None
    if json_type == "int":
        return x if isinstance(x, int) else None
    try:
        return float(x)
    except OverflowError:
        return math.inf


def _read(value, json_type: str):
    """``value`` as its field's Python type, and the suffixes of its key
    where it is not of ``json_type``: "" for the value, "[i]" for an entry.
    A scalar number must be finite, so a JSON NaN or Infinity fails here
    and not in a cell; list entries are left to the owner's rule."""
    if value is None and json_type.endswith("|null"):
        return None, []
    if json_type.startswith("["):
        if json_type.endswith("|int") and _entry(value, "int") is not None:
            value = [value]
        if not isinstance(value, list):
            return None, [""]
        entries = [_entry(x, json_type[1:json_type.index("]")]) for x in value]
        return tuple(entries), [f"[{i}]" for i, x in enumerate(entries) if x is None]
    value = _entry(value, json_type.partition("|")[0])
    ok = value is not None and (json_type != "number" or math.isfinite(value))
    return value, [] if ok else [""]


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build a config from its JSON form; raises ConfigError naming every
    offending key: unknown keys, sections that are not objects, values of
    the wrong JSON type and values the config's dataclasses reject."""
    bad = []
    kwargs = {"grid": {}, "scenario": {}, "": {}}  # owner -> field -> value
    stand_ins = set()  # keys of the wrong type, which keep their default
    for key, (path, json_type) in SCHEMA.items():
        section, _, leaf = key.rpartition(".")
        node = raw.get(section) if section else raw
        if not (isinstance(node, dict) and leaf in node):
            continue
        value, where = _read(node[leaf], json_type)
        if where:
            bad += [key + suffix for suffix in where]
            stand_ins.add(key)
            continue
        owner, _, field = path.rpartition(".")
        kwargs[owner][field] = value

    def build(cls, owner):
        # a field the dataclass rejects is named and keeps its default
        try:
            return cls(**kwargs[owner])
        except ConfigError as exc:
            bad.extend(_KEY_OF[f"{owner}.{field}"] for field in exc.keys)
            return cls(**{f: v for f, v in kwargs[owner].items() if f not in exc.keys})

    try:
        config = ExperimentConfig(grid=build(ResourceGrid, "grid"),
                                  scenario=build(ScenarioModel, "scenario"),
                                  **kwargs[""])
    except ConfigError as exc:
        # a stand-in default need not fit the rest; its key is named already
        bad += [key for key in exc.keys if key.partition("[")[0] not in stand_ins]

    sections = {key.partition(".")[0] for key in SCHEMA if "." in key}
    for name, value in raw.items():
        if name in sections and isinstance(value, dict):
            bad += [f"unknown key '{name}.{sub}'" for sub in value
                    if f"{name}.{sub}" not in SCHEMA]
        elif name in sections:
            bad.append(name)
        elif name not in SCHEMA:
            bad.append(f"unknown key {name!r}")

    if bad:
        raise ConfigError(sorted(set(bad)))
    return config


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(raw, dict):
        raise ConfigError(["<top level must be an object>"])
    return config_from_dict(raw)


def config_hash(config: ExperimentConfig | dict) -> str:
    """sha256 over the canonical JSON form of a config or of its
    ``asdict``; changes with any field."""
    fields = config if isinstance(config, dict) else asdict(config)
    blob = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
