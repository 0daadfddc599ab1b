"""Scenario schema, validation, preset catalog, and sweep grids.

A scenario file is a small YAML document; keys carry explicit units
(``uplink_throughput_bps``, ``energy_per_bit_j``) and unknown keys are
rejected.  The preset catalog transcribes the wireless/network/bitrate/
motor tables used throughout; its values are pinned by a checksum test.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import Counter
from dataclasses import MISSING, dataclass, fields, replace
from typing import Any, Optional

from .flight import MotorParams
from .model import (CloudParams, DecisionState, Evaluation, FogNodeParams,
                    NetworkParams, ValidationError, WorkloadParams, _require,
                    _require_finite, _row)


class ParseError(Exception):
    """Malformed scenario document; carries the line/column when known."""

    def __init__(self, message: str, line: Optional[int] = None,
                 column: Optional[int] = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class UnknownPreset(LookupError):
    """No preset with the requested name."""


@dataclass(frozen=True)
class Scenario:
    """Full parameterization of one fog-cloud configuration."""

    workload: WorkloadParams
    fog: FogNodeParams
    network: NetworkParams
    cloud: CloudParams
    name: str = "scenario"
    modification1_enabled: bool = False
    include_base_latency: bool = False

    def __post_init__(self):
        _require(bool(self.name), "must be nonempty", "name")
        _require_finite_objectives(self)


def _require_finite_objectives(s: Scenario) -> None:
    """Each objective is affine in r, so it is finite over [0, 1] when it is
    finite at both ends.  The error names the arrival rate, which scales
    every objective.  Plain floats keep start-up free of numpy, and the
    bare composition warns of no split past the stability boundary."""
    for r in (0.0, 1.0):
        row = _row(s, DecisionState.from_ratio(s.workload, r))
        for name, value in zip(Evaluation._fields[1:-1], row[1:-1]):
            _require(math.isfinite(value),
                     f"{name} at r={row.r!r} is not finite",
                     "workload.arrival_rate_pps")


# ---------------------------------------------------------------------------
# Preset catalog
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NetworkPreset:
    """Mobile network standard: uplink throughput plus a latency range."""

    name: str
    uplink_bps: float
    latency_range_s: tuple[float, float]

    def link_fields(self, include_base_latency: bool = False) -> dict:
        """The :class:`NetworkParams` fields this standard sets."""
        # downlink assumed symmetric; the source table reports uplink only
        base = (sum(self.latency_range_s) / 2.0) if include_base_latency else 0.0
        return {"uplink_throughput": self.uplink_bps,
                "downlink_throughput": self.uplink_bps, "base_latency": base}

    def to_network_params(self, include_base_latency: bool = False,
                          **link: float) -> NetworkParams:
        """The link of this standard; ``link`` holds the other
        :class:`NetworkParams` fields (``noise_sigma``, ``return_fraction``)."""
        return NetworkParams(**self.link_fields(include_base_latency), **link)


@dataclass(frozen=True)
class BitrateRange:
    """Video bitrate envelope for a streaming resolution."""

    name: str
    min_bps: float
    max_bps: float


@dataclass(frozen=True)
class WirelessInfo:
    """Informational record about a short/medium-range wireless standard."""

    name: str
    coverage: str
    throughput: str
    frequency: str
    energy_efficiency: str


@dataclass(frozen=True)
class PresetCatalog:
    networks: dict[str, NetworkPreset]
    bitrates: dict[str, BitrateRange]
    motors: dict[str, MotorParams]
    wireless_info: dict[str, WirelessInfo]


CATALOG = PresetCatalog(
    networks={
        "gsm": NetworkPreset("gsm", 40e3, (0.6, 0.75)),
        "umts": NetworkPreset("umts", 384e3, (0.5, 0.75)),
        "hspa": NetworkPreset("hspa", 5.76e6, (0.15, 0.4)),
        "hspa_plus": NetworkPreset("hspa_plus", 11.5e6, (0.1, 0.2)),
    },
    bitrates={
        "360p": BitrateRange("360p", 400e3, 1e6),
        "480p": BitrateRange("480p", 500e3, 2e6),
        "720p": BitrateRange("720p", 1.5e6, 4e6),
        "1080p": BitrateRange("1080p", 3e6, 6e6),
    },
    motors={
        "x2212": MotorParams(
            kv_rpm_per_v=1250.0,
            no_load_current_a=0.6,
            resistance_ohm=0.079,
            max_power_w=390.0,
            prop_diameter_m=0.254,
            prop_pitch_m=0.119,
            efficiency_range=(0.75, 0.85),
        ),
    },
    # "hspa_info" keeps preset names unique; "hspa" is the network entry
    wireless_info={
        "bluetooth": WirelessInfo("bluetooth", "100 m", "22 Mbps",
                                  "LF 120-134 kHz / HF 13.56 MHz / UHF 850-960 MHz",
                                  "high"),
        "wifi": WirelessInfo("wifi", "0.1-2 km", "up to 300 Mbps", "2.4, 5 GHz",
                             "low"),
        "hspa_info": WirelessInfo("hspa_info", "5 km", "5.76-11 Mbps",
                                  "TDD 1.85-3.8 GHz / FDD 0.7-2.6 GHz",
                                  "depends on signal strength"),
        "zigbee": WirelessInfo("zigbee", "1.2-14 km", "0.25-72 Mbps",
                               "0.9, 1.2, 2.4 GHz", "depends on model"),
    },
)

_PRESET_SOURCES = {
    "networks": "mobile network standards table",
    "bitrates": "video bitrate table",
    "motors": "electric motor parameters table",
    "wireless_info": "wireless standards table",
}


def preset(name: str) -> Any:
    """Look up a preset by name across all catalog groups."""
    for group in (CATALOG.networks, CATALOG.bitrates, CATALOG.motors,
                  CATALOG.wireless_info):
        if name in group:
            return group[name]
    raise UnknownPreset(name)


def catalog_rows() -> list[tuple[str, str, str, str, str]]:
    """Flat (group, name, field, value, source) rows for the catalog dump.

    A ``*_range*`` pair gives a ``*_min*`` and a ``*_max*`` row; numbers
    are written as their ``repr``.
    """
    rows = []
    for group in fields(CATALOG):
        source = _PRESET_SOURCES[group.name]
        for name, record in getattr(CATALOG, group.name).items():
            for f in fields(record):
                if f.name == "name":
                    continue
                value = getattr(record, f.name)
                if isinstance(value, tuple):
                    items = [(f.name.replace("_range", bound), v)
                             for bound, v in zip(("_min", "_max"), value)]
                else:
                    items = [(f.name, value)]
                rows += [(group.name, name, field,
                          v if isinstance(v, str) else repr(v), source)
                         for field, v in items]
    return rows


def _sha256_hex(data: bytes) -> str:
    """SHA-256 of ``data`` in hex, from CPython's own implementation:
    hashlib's would load OpenSSL's libcrypto, a few MiB of resident memory,
    to hash a few hundred bytes.  hashlib serves an interpreter built
    without those modules."""
    try:
        from _sha2 import sha256  # Python 3.12+
    except ImportError:
        try:
            from _sha256 import sha256  # Python 3.10-3.11
        except ImportError:
            from hashlib import sha256
    return sha256(data).hexdigest()


def catalog_checksum() -> str:
    """sha256 over the canonical JSON form of the catalog rows."""
    payload = json.dumps(catalog_rows(), sort_keys=True, separators=(",", ":"))
    return _sha256_hex(payload.encode("utf-8"))


# ---------------------------------------------------------------------------
# Scenario document loading
# ---------------------------------------------------------------------------

# schema key -> (scenario section, dataclass field), in document order: the
# one place the parameter keys are spelled out.  The loader, the serializer
# and the sweep axes read it; whether a key is required (its field has no
# default), and its default, come from the section's dataclass.
_FIELD_AXES = {
    "workload.arrival_rate_pps": ("workload", "arrival_rate"),
    "workload.packet_size_bits": ("workload", "packet_size"),
    "fog.proc_capability_pps": ("fog", "proc_capability"),
    "fog.energy_per_bit_j": ("fog", "energy_per_bit"),
    "fog.idle_power_w": ("fog", "idle_power"),
    "fog.tdp_w": ("fog", "tdp"),
    "fog.tx_energy_per_bit_j": ("fog", "tx_energy_per_bit"),
    "network.uplink_throughput_bps": ("network", "uplink_throughput"),
    "network.downlink_throughput_bps": ("network", "downlink_throughput"),
    "network.base_latency_s": ("network", "base_latency"),
    "network.noise_sigma": ("network", "noise_sigma"),
    "network.return_fraction": ("network", "return_fraction"),
    "cloud.proc_capability_bps": ("cloud", "proc_capability"),
}

_SECTION_PARAMS = {"workload": WorkloadParams, "fog": FogNodeParams,
                   "network": NetworkParams, "cloud": CloudParams}

# the NetworkParams fields a network preset sets; a document naming a preset
# gives only the others
_PRESET_FIELDS = ("uplink_throughput", "downlink_throughput", "base_latency")


def _read_order(section: str) -> list[tuple[str, str, bool]]:
    """(key, field, required) per key of a section, in the order the loader
    reads them, which decides the first error a document reports: document
    order, but the keys a preset leaves to the document come first."""
    required = {f.name: f.default is MISSING
                for f in fields(_SECTION_PARAMS[section])}
    rows = [(path.partition(".")[2], field, required[field])
            for path, (owner, field) in _FIELD_AXES.items()
            if owner == section]
    return sorted(rows, key=lambda row: row[1] in _PRESET_FIELDS)


_READ_ORDER = {section: _read_order(section) for section in _SECTION_PARAMS}


def _shown(value: Any) -> str:
    """A document value for a message: its repr, or its type where the repr
    fails on an int past Python's int-string limit, which YAML reads from
    hex without that limit."""
    try:
        return repr(value)
    except ValueError:
        return f"a value too long to show ({type(value).__name__})"


def _number(path: str, value: Any) -> float:
    number = None
    if not isinstance(value, bool) and isinstance(value, (str, int, float)):
        _require_finite(**{path: value})  # before a message shows a huge int
        # YAML 1.1 reads exponents without a sign ("1.5e6") as strings
        try:
            number = float(value)
        except ValueError:
            pass
    _require(number is not None, f"expected a number, got {_shown(value)}",
             path)
    _require(math.isfinite(number), f"must be finite, got {value!r}", path)
    return number


def _flag(mapping: dict, key: str) -> bool:
    value = mapping.pop(key, False)
    _require(isinstance(value, bool),
             f"expected true/false, got {_shown(value)}", key)
    return value


def _reject_unknown(section: str, mapping: dict) -> None:
    if mapping:
        path = f"{section}.{min(mapping)}" if section else min(mapping)
        raise ValidationError(f"{path}: unknown key", field=path)


def _section(doc: dict, key: str) -> dict:
    _require(key in doc, "missing required section", key)
    value = doc.pop(key)
    _require(isinstance(value, dict), "expected a mapping", key)
    return dict(value)


def _document(root: Any) -> Any:
    """The document of a composed node tree.  The tree is checked first, in
    document order, for what PyYAML crashes on or the schema never holds: a
    collection under another tag (one that "<<" merges may carry any), a
    key other than a string or "<<", a repeated key, a bad scalar."""
    import yaml
    loader = yaml.SafeLoader("")  # its constructor builds the checked tree

    def fault(problem: str, node: Any) -> yaml.MarkedYAMLError:
        return yaml.MarkedYAMLError(None, None, problem, node.start_mark)

    merge = "tag:yaml.org,2002:merge"  # a "<<" key, or what it merges
    seen, pending = set(), [(root, None)]  # (node, the keys before it if it
    # is a key, or merge if PyYAML merges it, which it does under any tag)
    while pending:
        node, keys = pending.pop()
        kind = node.tag.removeprefix("tag:yaml.org,2002:")
        if isinstance(keys, set):
            if node.tag == merge:
                continue
            if not (isinstance(node, yaml.ScalarNode) and kind == "str"):
                raise fault(f"expected a string key, found {kind}", node)
            if node.value in keys:
                raise fault(f"found duplicate key {node.value!r}", node)
            keys.add(node.value)
        if (node, keys == merge) in seen:  # checked once merged, once not
            continue
        seen.add((node, keys == merge))
        if isinstance(node, yaml.ScalarNode):
            try:  # a word tagged bool, an int past 4300 digits, a month 13
                loader.construct_object(node, deep=True)
            except (AttributeError, LookupError, ValueError) as exc:
                raise fault(f"unreadable {kind} scalar", node) from exc
        elif keys != merge and kind != node.id[:3]:  # "map" or "seq"
            raise fault(f"found a {node.id} tagged {kind}", node)
        elif node.id == "sequence":
            pending += [(item, keys) for item in reversed(node.value)]
        else:
            keys = set()
            for key, value in reversed(node.value):
                pending += [(value, merge if key.tag == merge else None),
                            (key, keys)]
    return loader.construct_document(root)


def load_scenario(text: str) -> Scenario:
    """Parse and validate a scenario document.

    Raises ParseError for malformed YAML and ValidationError (naming the
    offending field) for schema or invariant violations.
    """
    import yaml
    try:
        root = yaml.compose(text, Loader=yaml.SafeLoader)
        doc = None if root is None else _document(root)
    except RecursionError as exc:  # PyYAML composes nested nodes recursively
        raise ParseError("invalid scenario document: nested too deeply") from exc
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        if mark is not None:
            raise ParseError(f"invalid scenario document: {exc.problem}",
                             line=mark.line + 1, column=mark.column + 1) from exc
        if isinstance(exc, yaml.reader.ReaderError):
            # splitlines' breaks before the first unprintable character are
            # YAML's (its others are unprintable); a BOM takes no column
            head = text[:exc.position].replace("\ufeff", "")
            lines = (head + "^").splitlines()
            raise ParseError("invalid scenario document: unacceptable "
                             f"character #x{exc.character:04x}: {exc.reason}",
                             line=len(lines), column=len(lines[-1])) from exc
        raise ParseError(f"invalid scenario document: {exc}") from exc
    if doc is None:
        raise ParseError("empty scenario document")
    if not isinstance(doc, dict):
        raise ParseError("scenario document must be a mapping")

    name = doc.pop("name", "scenario")
    _require(isinstance(name, str) and name != "",
             "must be a nonempty string", "name")
    modification1 = _flag(doc, "modification1_enabled")
    include_base = _flag(doc, "include_base_latency")
    sections = {section: _load_section(doc, section, include_base)
                for section in _SECTION_PARAMS}
    _reject_unknown("", doc)
    return Scenario(**sections, name=name, modification1_enabled=modification1,
                    include_base_latency=include_base)


def _load_section(doc: dict, section: str, include_base: bool) -> Any:
    mapping = _section(doc, section)
    values = {}
    for key, field, required in _READ_ORDER[section]:
        if field in _PRESET_FIELDS and "preset" in mapping:
            values.update(_network_preset(mapping.pop("preset"))
                          .link_fields(include_base))
            break
        path = f"{section}.{key}"
        if key in mapping:
            values[field] = _number(path, mapping.pop(key))
        else:
            _require(not required, "missing required key", path)
    params = _build_section(section, values)
    _reject_unknown(section, mapping)
    return params


def _build_section(section: str, values: dict) -> Any:
    try:
        return _SECTION_PARAMS[section](**values)
    except ValidationError as exc:  # a dataclass names only its own field
        raise ValidationError(f"{section}.{exc}",
                              field=f"{section}.{exc.field}") from exc


def _network_preset(name: Any) -> NetworkPreset:
    _require(isinstance(name, str), "expected a preset name",
             "network.preset")
    _require(name in CATALOG.networks, f"unknown network preset {name!r}",
             "network.preset")
    return CATALOG.networks[name]


def serialize_scenario(s: Scenario) -> str:
    """Canonical YAML form, the network resolved to explicit values;
    load_scenario(serialize_scenario(s)) == s."""
    import yaml
    doc = {"name": s.name, "modification1_enabled": s.modification1_enabled,
           "include_base_latency": s.include_base_latency}
    for path, (section, field) in _FIELD_AXES.items():
        doc.setdefault(section, {})[path.partition(".")[2]] = \
            getattr(getattr(s, section), field)
    return yaml.safe_dump(doc, sort_keys=False, default_flow_style=False)


def scenario_digest(s: Scenario) -> str:
    """Short checksum identifying the scenario contents."""
    blob = serialize_scenario(s).encode("utf-8")
    return "sha256:" + _sha256_hex(blob)[:16]


def default_scenario() -> Scenario:
    """Desk-scale reference configuration used across tests and docs."""
    return Scenario(
        workload=WorkloadParams(arrival_rate=100.0, packet_size=12000.0),
        fog=FogNodeParams(proc_capability=100.0, energy_per_bit=1e-7,
                          idle_power=2.0, tdp=10.0, tx_energy_per_bit=0.0),
        network=NetworkParams(uplink_throughput=1.5e6,
                              downlink_throughput=1.5e6),
        cloud=CloudParams(proc_capability=3e6),
        name="default",
    )


# ---------------------------------------------------------------------------
# Sweep grids
# ---------------------------------------------------------------------------

GridAxes = list[tuple[str, list[str]]]
# bitrate reads the packet size and v_fog_frac the arrival rate, so they
# apply last, in this order, after every axis that may set those fields
_APPLY_LAST = {"bitrate": 1, "v_fog_frac": 2}


def parse_grid_spec(text: str) -> GridAxes:
    """Parse ``axis=v1,v2;axis2=v3,...`` into ordered (axis, values) pairs.

    Axes: ``network`` (preset names), ``bitrate`` (``<preset>_min`` /
    ``<preset>_max`` or a numeric bits/s value), ``v_fog_frac`` (fog
    capability as a fraction of the arrival rate), or any dotted scenario
    schema key.  Checks only the text, where no axis repeats, and no value
    within an axis, values equal as numbers or as bit rates included.
    """
    axes: dict[str, list[str]] = {}
    for part in filter(None, (p.strip() for p in text.split(";"))):
        axis, sep, raw = part.partition("=")
        axis = axis.strip()
        values = [v.strip() for v in raw.split(",") if v.strip()]
        _require(bool(sep and axis and values),
                 f"malformed axis spec {part!r}", "grid")
        _require(axis not in axes, f"axis {axis!r} given twice", "grid")
        key = _as_bitrate if axis == "bitrate" else _as_number
        again = next((v for v, n in Counter(map(key, values)).items()
                      if n > 1), None)
        _require(again is None, f"axis {axis!r} gives {again!r} twice", "grid")
        axes[axis] = values
    return list(axes.items())


def _as_number(value: str):
    """A grid value as the finite number it reads as, else as its text."""
    try:
        number = float(value)
    except ValueError:
        return value
    return number if math.isfinite(number) else value


def _as_bitrate(value: str):
    """A bitrate grid value as the bit rate it names, else as its text."""
    try:
        return _bitrate_bps(value)
    except ValidationError:
        return value


def _bitrate_bps(value: str) -> float:
    name, _, bound = value.rpartition("_")
    if name in CATALOG.bitrates and bound in ("min", "max"):
        return getattr(CATALOG.bitrates[name], f"{bound}_bps")
    try:
        bps = float(value)
    except ValueError:
        bps = math.nan
    _require(math.isfinite(bps), f"expected <preset>_min, <preset>_max or a "
             f"bits/s value, got {value!r}", "grid.bitrate")
    return bps


def _axis_fields(sections: dict, include_base: bool, axis: str,
                 value: str) -> dict:
    """{(section, field): value} for one axis value, given ``sections``."""
    if axis == "network":
        _require(value in CATALOG.networks, f"unknown preset {value!r}",
                 "grid.network")
        link = CATALOG.networks[value].link_fields(include_base)
        return {("network", field): v for field, v in link.items()}
    if axis == "bitrate":  # the section check comes after the division
        bps, size = _bitrate_bps(value), sections["workload"]["packet_size"]
        _require(size > 0, "must be > 0", "workload.packet_size")
        return {("workload", "arrival_rate"): bps / size}
    if axis == "v_fog_frac":
        return {("fog", "proc_capability"): _number(f"grid.{axis}", value)
                * sections["workload"]["arrival_rate"]}
    _require(axis in _FIELD_AXES, f"unknown axis {axis!r}", "grid")
    return {_FIELD_AXES[axis]: _number(f"grid.{axis}", value)}


def sweep_grid(base: Scenario, axes: GridAxes) -> list[Scenario]:
    """Cartesian product of the axis values over the base scenario, with
    labels and rows in axis declaration order.

    Axes apply in declared order, but ``bitrate`` and then ``v_fog_frac``
    last, so they read the configuration's final packet size and arrival
    rate.  No two axes may set one field, and each combination is
    validated once all its axes apply.  No axes yield just the base.
    """
    if not axes:
        return [base]
    scenarios = []
    names = [axis for axis, _ in axes]
    order = sorted(enumerate(names), key=lambda p: _APPLY_LAST.get(p[1], 0))
    for combo in itertools.product(*(values for _, values in axes)):
        sections = {section: dict(vars(getattr(base, section)))
                    for section in _SECTION_PARAMS}
        setters = {}  # (section, field) -> the index of the axis that set it
        for i, axis in order:
            sets = _axis_fields(sections, base.include_base_latency, axis,
                                combo[i])
            other = next((setters[key] for key in sets if key in setters), i)
            _require(other == i, f"axes {names[min(other, i)]!r} and "
                     f"{names[max(other, i)]!r} set the same field", "grid")
            for (section, field), value in sets.items():
                setters[section, field] = i
                sections[section][field] = value
        label = ",".join(f"{a}={v}" for a, v in zip(names, combo))
        scenarios.append(replace(
            base, name=f"{base.name}[{label}]",
            **{section: _build_section(section, values)
               for section, values in sections.items()}))
    return scenarios
