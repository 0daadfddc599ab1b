"""Scenario loading, preset catalog transcription, and sweep grids."""

import hashlib
import math
import os
import subprocess
import sys
import textwrap
import warnings
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fogscope import scenario
from fogscope.model import (CloudParams, FogNodeParams, NetworkParams,
                            ValidationError, WorkloadParams)
from fogscope.scenario import (_FIELD_AXES, CATALOG, ParseError, Scenario,
                               UnknownPreset, catalog_checksum, catalog_rows,
                               default_scenario, load_scenario,
                               parse_grid_spec, preset, scenario_digest,
                               serialize_scenario, sweep_grid)

# pins the table transcription; update only on a deliberate catalog change
CATALOG_CHECKSUM = \
    "15a0dbccf0819e03aa5d6415b40ebd215506b5618061ef39136f8058ab740228"

SCENARIO_FILES = Path(__file__).parents[1] / "scenarios"

MINIMAL_DOC = textwrap.dedent("""\
    workload:
      arrival_rate_pps: 100
      packet_size_bits: 12000
    fog:
      proc_capability_pps: 100
      energy_per_bit_j: 1.0e-7
      idle_power_w: 2.0
      tdp_w: 10.0
    network:
      uplink_throughput_bps: 1.5e6
      downlink_throughput_bps: 1.5e6
    cloud:
      proc_capability_bps: 3.0e6
    """)


class TestLoadScenario:
    def test_minimal_document_applies_defaults(self):
        s = load_scenario(MINIMAL_DOC)
        assert s.network.return_fraction == 0.1
        assert s.network.base_latency == 0.0
        assert s.network.noise_sigma == 0.0
        assert s.fog.tx_energy_per_bit == 0.0
        assert s.modification1_enabled is False
        assert s.include_base_latency is False
        assert s.name == "scenario"

    def test_zero_packet_size_names_the_field(self):
        doc = MINIMAL_DOC.replace("packet_size_bits: 12000",
                                  "packet_size_bits: 0")
        with pytest.raises(ValidationError) as exc:
            load_scenario(doc)
        assert "workload.packet_size" in str(exc.value)

    def test_network_preset_reference(self):
        doc = MINIMAL_DOC.replace(
            "  uplink_throughput_bps: 1.5e6\n"
            "  downlink_throughput_bps: 1.5e6",
            "  preset: hspa_plus")
        s = load_scenario(doc)
        assert s.network.uplink_throughput == 11.5e6
        assert s.network.downlink_throughput == 11.5e6
        assert s.network.base_latency == 0.0

    def test_preset_with_base_latency_midpoint(self):
        doc = MINIMAL_DOC.replace(
            "  uplink_throughput_bps: 1.5e6\n"
            "  downlink_throughput_bps: 1.5e6",
            "  preset: gsm") + "include_base_latency: true\n"
        s = load_scenario(doc)
        assert s.network.base_latency == pytest.approx((0.6 + 0.75) / 2)

    def test_unknown_key_rejected(self):
        doc = MINIMAL_DOC + "bogus: 1\n"
        with pytest.raises(ValidationError) as exc:
            load_scenario(doc)
        assert "bogus" in str(exc.value)

    def test_unknown_nested_key_rejected(self):
        doc = MINIMAL_DOC.replace("  idle_power_w: 2.0",
                                  "  idle_power_w: 2.0\n  spare_key: 3")
        with pytest.raises(ValidationError) as exc:
            load_scenario(doc)
        assert "fog.spare_key" in str(exc.value)

    def test_missing_section(self):
        doc = MINIMAL_DOC.replace("cloud:\n  proc_capability_bps: 3.0e6\n", "")
        with pytest.raises(ValidationError) as exc:
            load_scenario(doc)
        assert "cloud" in str(exc.value)

    def test_malformed_yaml_reports_position(self):
        with pytest.raises(ParseError) as exc:
            load_scenario("workload: [unclosed\n  arrival_rate_pps: 1\n")
        assert exc.value.line is not None

    @pytest.mark.parametrize("doc, line, column", [
        ("name: a\x01\n", 1, 8),
        ("\x01", 1, 1),
        ("a: 1\nb: c\x01\n", 2, 5),
        ("a: 1\r\nb: 2\n\x7f", 3, 1),
        # YAML's other line breaks: a lone CR, NEL and LS
        ("a: 1\rb: 2\x85c: 3\u2028d: x\x02", 4, 5),
        # a byte-order mark takes no column, in marked errors too
        ("\ufeffa: \x03", 1, 4),
        ("a: b\ufeff\ufeff\x03", 1, 5),
    ])
    def test_unreadable_character_reports_position(self, doc, line, column):
        with pytest.raises(ParseError) as exc:
            load_scenario(doc)
        assert (exc.value.line, exc.value.column) == (line, column)
        assert str(exc.value).count("\n") == 0
        assert str(exc.value).startswith("invalid scenario document: "
                                         "unacceptable character #x")

    @pytest.mark.parametrize("doc, kind, column", [
        ("workload: {arrival_rate_pps: 1" + "0" * 5000 + "}\n", "int", 30),
        ("name: 2001-13-01\n", "timestamp", 7),
    ], ids=["int-of-5001-digits", "month-13"])
    def test_unconvertible_scalar_reports_position(self, doc, kind, column):
        # the resolver tags each scalar, and its conversion raises
        # ValueError: Python's int-string limit, a month past 12
        with pytest.raises(ParseError) as exc:
            load_scenario(doc)
        assert str(exc.value) == (f"invalid scenario document: unreadable "
                                  f"{kind} scalar (line 1, column {column})")

    def test_non_mapping_document(self):
        with pytest.raises(ParseError):
            load_scenario("- just\n- a\n- list\n")
        with pytest.raises(ParseError):
            load_scenario("")

    def test_repeated_top_level_key_rejected_with_line(self):
        doc = "name: first\n" + MINIMAL_DOC + "name: second\n"
        with pytest.raises(ParseError) as exc:
            load_scenario(doc)
        assert "name" in str(exc.value)
        assert exc.value.line == doc.count("\n")

    def test_repeated_nested_key_rejected_with_line(self):
        doc = MINIMAL_DOC.replace("  tdp_w: 10.0", "  tdp_w: 10.0\n  tdp_w: 20.0")
        with pytest.raises(ParseError) as exc:
            load_scenario(doc)
        assert "tdp_w" in str(exc.value)
        assert exc.value.line == doc.splitlines().index("  tdp_w: 20.0") + 1

    def test_alias_cycle_is_checked_once(self):
        # a check that follows aliases without a visited set never ends here
        code = ("from fogscope.model import ValidationError\n"
                "from fogscope.scenario import load_scenario\n"
                "try:\n"
                "    load_scenario('name: &a [*a]\\n')\n"
                "except ValidationError as exc:\n"
                "    print(exc)\n")
        src = str(Path(scenario.__file__).parents[1])
        result = subprocess.run([sys.executable, "-c", code],
                                capture_output=True, text=True, timeout=60,
                                env={**os.environ, "PYTHONPATH": src})
        assert result.stdout == "name: must be a nonempty string\n"

    def test_merge_key_may_be_overridden(self):
        doc = MINIMAL_DOC.replace(
            "network:\n  uplink_throughput_bps: 1.5e6\n"
            "  downlink_throughput_bps: 1.5e6\n",
            "network:\n  <<: &link {uplink_throughput_bps: 1.5e6,"
            " downlink_throughput_bps: 1.5e6}\n"
            "  uplink_throughput_bps: 2.0e6\n")
        s = load_scenario(doc)
        assert s.network.uplink_throughput == 2.0e6
        assert s.network.downlink_throughput == 1.5e6

    @pytest.mark.parametrize("merged", [
        "!foo {noise_sigma: 0.2}", "!!merge {noise_sigma: 0.2}",
        "!!set {noise_sigma: 0.2}", "!!omap [{noise_sigma: 0.2}]",
        "!bar [!foo {noise_sigma: 0.2}]"])
    def test_merged_mapping_loads_under_any_tag(self, merged):
        # PyYAML merges a mapping whatever its tag, or its sequence's tag
        network = "network:\n  uplink_throughput_bps: 1.5e6\n"
        doc = MINIMAL_DOC.replace(network, f"network:\n  <<: {merged}\n"
                                  + network.removeprefix("network:\n"))
        s = load_scenario(doc)
        assert s.network.noise_sigma == 0.2
        assert s == replace(load_scenario(MINIMAL_DOC), network=s.network)

    def test_wrong_type_rejected(self):
        doc = MINIMAL_DOC.replace("arrival_rate_pps: 100",
                                  "arrival_rate_pps: fast")
        with pytest.raises(ValidationError) as exc:
            load_scenario(doc)
        assert "workload.arrival_rate_pps" in str(exc.value)

    def test_round_trip(self):
        s = load_scenario(MINIMAL_DOC)
        assert load_scenario(serialize_scenario(s)) == s

    def test_round_trip_default_scenario(self):
        s = default_scenario()
        assert load_scenario(serialize_scenario(s)) == s
        assert scenario_digest(s) == scenario_digest(
            load_scenario(serialize_scenario(s)))


class TestScenarioFiles:
    @staticmethod
    def load(name):
        return load_scenario((SCENARIO_FILES / name).read_text(encoding="utf-8"))

    @pytest.mark.parametrize(
        "name", sorted(p.name for p in SCENARIO_FILES.glob("*.yaml")))
    def test_loads(self, name):
        assert self.load(name).name == name.removesuffix(".yaml").replace(
            "_", "-")

    def test_build_without_a_warning(self):
        # the objective check runs at r = 1, where the default scenario
        # sits on the stability boundary
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            default_scenario()
            for path in sorted(SCENARIO_FILES.glob("*.yaml")):
                self.load(path.name)

    def test_default_is_the_built_in_default(self):
        assert self.load("default.yaml") == default_scenario()

    def test_tx_term_is_the_default_with_the_tx_term_on(self):
        base = default_scenario()
        assert self.load("tx_term.yaml") == replace(
            base, fog=replace(base.fog, tx_energy_per_bit=2e-8),
            modification1_enabled=True, name="tx-term")


class TestNonFiniteNumbers:
    @pytest.mark.parametrize("old,new,field", [
        ("tdp_w: 10.0", "tdp_w: .inf", "fog.tdp_w"),
        ("arrival_rate_pps: 100", "arrival_rate_pps: .inf",
         "workload.arrival_rate_pps"),
        # no dot, so YAML 1.1 gives a string that float() reads as inf
        ("uplink_throughput_bps: 1.5e6", "uplink_throughput_bps: 1e999",
         "network.uplink_throughput_bps"),
        ("energy_per_bit_j: 1.0e-7", "energy_per_bit_j: -.inf",
         "fog.energy_per_bit_j"),
        # an integer past the float range
        ("packet_size_bits: 12000", "packet_size_bits: 1" + "0" * 400,
         "workload.packet_size_bits"),
        ("proc_capability_bps: 3.0e6", "proc_capability_bps: .nan",
         "cloud.proc_capability_bps"),
    ])
    def test_loader_rejects_and_names_the_key(self, old, new, field):
        with pytest.raises(ValidationError) as exc:
            load_scenario(MINIMAL_DOC.replace(old, new))
        assert exc.value.field == field
        assert "finite" in str(exc.value)

    def test_int_past_the_repr_limit_rejected(self):
        # YAML reads a hex int past Python's 4300-digit int-string limit,
        # and a message showing it could not be built
        with pytest.raises(ValidationError) as exc:
            load_scenario(MINIMAL_DOC.replace(
                "packet_size_bits: 12000", "packet_size_bits: 0x1" + "0" * 4000))
        assert str(exc.value) == ("workload.packet_size_bits: must be finite, "
                                  "got an integer beyond the float range")
        assert exc.value.field == "workload.packet_size_bits"

    @pytest.mark.parametrize("build", [
        lambda v: WorkloadParams(arrival_rate=v, packet_size=12000.0),
        lambda v: WorkloadParams(arrival_rate=100.0, packet_size=v),
        lambda v: FogNodeParams(proc_capability=100.0, energy_per_bit=1e-7,
                                idle_power=2.0, tdp=v),
        lambda v: FogNodeParams(proc_capability=v, energy_per_bit=1e-7,
                                idle_power=2.0, tdp=10.0),
        lambda v: FogNodeParams(proc_capability=100.0, energy_per_bit=1e-7,
                                idle_power=2.0, tdp=10.0, tx_energy_per_bit=v),
        lambda v: NetworkParams(uplink_throughput=v, downlink_throughput=1e6),
        lambda v: NetworkParams(uplink_throughput=1e6, downlink_throughput=1e6,
                                base_latency=v),
        lambda v: CloudParams(proc_capability=v),
        lambda v: FogNodeParams(proc_capability=100.0, energy_per_bit=v,
                                idle_power=2.0, tdp=10.0),
        lambda v: FogNodeParams(proc_capability=100.0, energy_per_bit=1e-7,
                                idle_power=v, tdp=10.0),
        lambda v: NetworkParams(uplink_throughput=1e6, downlink_throughput=v),
        lambda v: NetworkParams(uplink_throughput=1e6, downlink_throughput=1e6,
                                noise_sigma=v),
        lambda v: NetworkParams(uplink_throughput=1e6, downlink_throughput=1e6,
                                return_fraction=v),
    ], ids=["arrival_rate", "packet_size", "tdp", "fog_capability",
            "tx_energy_per_bit", "uplink", "base_latency", "cloud_capability",
            "energy_per_bit", "idle_power", "downlink", "noise_sigma",
            "return_fraction"])
    @pytest.mark.parametrize("value", [math.inf, math.nan], ids=["inf", "nan"])
    def test_parameter_dataclasses_reject(self, build, value):
        with pytest.raises(ValidationError, match="finite"):
            build(value)

    def test_grid_axis_value_rejected(self):
        with pytest.raises(ValidationError, match="finite"):
            sweep_grid(default_scenario(), parse_grid_spec("fog.tdp_w=inf"))


# finite keys whose objectives are not: each rewrites MINIMAL_DOC
OVERFLOWING_DOCS = {
    # throughput, cloud and average latency at r = 0
    "throughput": {"arrival_rate_pps: 100": "arrival_rate_pps: 1.0e+200",
                   "packet_size_bits: 12000": "packet_size_bits: 1.0e+200",
                   "energy_per_bit_j: 1.0e-7": "energy_per_bit_j: 1.0e-300",
                   "proc_capability_pps: 100": "proc_capability_pps: 1.0e+300",
                   "tdp_w: 10.0": "tdp_w: 1.0e+308"},
    # fog and average latency at r = 1
    "fog-latency": {"arrival_rate_pps: 100": "arrival_rate_pps: 1.0e+10",
                    "proc_capability_pps: 100":
                        "proc_capability_pps: 1.0e-300"},
    # the raw power of an infeasible split is reported too
    "power": {"energy_per_bit_j: 1.0e-7": "energy_per_bit_j: 1.0e+303"},
    # each latency is finite, their sum is not
    "average-latency": {"arrival_rate_pps: 100": "arrival_rate_pps: 1.0e+10",
                        "proc_capability_pps: 100":
                            "proc_capability_pps: 1.0e-298",
                        "uplink_throughput_bps: 1.5e6":
                            "uplink_throughput_bps: 1.5e6\n"
                            "  base_latency_s: 1.0e+308"},
}


class TestOverflowingObjectives:
    """Every key is finite, but an objective overflows somewhere on
    [0, 1]; the scenario is an input error naming the arrival rate, which
    scales every objective."""

    @pytest.mark.parametrize("name", OVERFLOWING_DOCS)
    def test_loader_rejects_and_names_a_key(self, name):
        doc = MINIMAL_DOC
        for old, new in OVERFLOWING_DOCS[name].items():
            assert old in doc
            doc = doc.replace(old, new)
        with pytest.raises(ValidationError) as exc:
            load_scenario(doc)
        assert exc.value.field == "workload.arrival_rate_pps"
        assert str(exc.value).startswith("workload.arrival_rate_pps: ")
        assert "not finite" in str(exc.value)

    @pytest.mark.parametrize("spec", [
        "workload.packet_size_bits=1e307",
        "workload.arrival_rate_pps=1e305",
        # a subnormal fog capability: the fog latency at r = 1 overflows
        "v_fog_frac=1e-320",
    ])
    def test_grid_axis_value_rejected(self, spec):
        with pytest.raises(ValidationError) as exc:
            sweep_grid(default_scenario(), parse_grid_spec(spec))
        assert exc.value.field == "workload.arrival_rate_pps"

    def test_largest_finite_objectives_are_accepted(self):
        # throughput 1e308 bits/s at r = 0; power, latencies finite
        doc = (MINIMAL_DOC
               .replace("arrival_rate_pps: 100", "arrival_rate_pps: 1.0e+304")
               .replace("packet_size_bits: 12000", "packet_size_bits: 1.0e+4")
               .replace("energy_per_bit_j: 1.0e-7", "energy_per_bit_j: 0.0"))
        assert load_scenario(doc).workload.arrival_rate == 1e304


# the schema as a reader of README sees it: section -> key -> YAML text in
# the minimal document, None for a key with a default
SCHEMA = {
    "workload": {"arrival_rate_pps": "100", "packet_size_bits": "12000"},
    "fog": {"proc_capability_pps": "100", "energy_per_bit_j": "1.0e-7",
            "idle_power_w": "2.0", "tdp_w": "10.0",
            "tx_energy_per_bit_j": None},
    "network": {"uplink_throughput_bps": "1.5e6",
                "downlink_throughput_bps": "1.5e6", "base_latency_s": None,
                "noise_sigma": None, "return_fraction": None},
    "cloud": {"proc_capability_bps": "3.0e6"},
}
SCHEMA_KEYS = [f"{section}.{key}" for section, keys in SCHEMA.items()
               for key in keys]
REQUIRED_KEYS = [f"{section}.{key}" for section, keys in SCHEMA.items()
                 for key, text in keys.items() if text is not None]
LINK_KEYS = {"network.uplink_throughput_bps": None,
             "network.downlink_throughput_bps": None}


def schema_doc(changes: dict) -> str:
    """The minimal document with ``section.key`` set to the given YAML text,
    or dropped where the text is None."""
    lines = []
    for section, keys in SCHEMA.items():
        values = dict(keys)
        for path, text in changes.items():
            if path.startswith(section + "."):
                values[path.partition(".")[2]] = text
        values = {key: text for key, text in values.items() if text is not None}
        lines.append(f"{section}:" if values else f"{section}: {{}}")
        lines += [f"  {key}: {text}" for key, text in values.items()]
    return "\n".join(lines) + "\n"


def load_error(doc: str) -> ValidationError:
    with pytest.raises(ValidationError) as exc:
        load_scenario(doc)
    return exc.value


class TestSchemaKeys:
    """Pins every loader message and ``.field``, key by key."""

    @pytest.mark.parametrize("path", REQUIRED_KEYS)
    def test_missing_required_key(self, path):
        exc = load_error(schema_doc({path: None}))
        assert str(exc) == f"{path}: missing required key"
        assert exc.field == path

    @pytest.mark.parametrize("path", SCHEMA_KEYS)
    @pytest.mark.parametrize("text,message", [
        ("fast", "expected a number, got 'fast'"),
        (".inf", "must be finite, got inf"),
    ], ids=["fast", "inf"])
    def test_bad_number(self, path, text, message):
        exc = load_error(schema_doc({path: text}))
        assert str(exc) == f"{path}: {message}"
        assert exc.field == path

    @pytest.mark.parametrize("changes,message,field", [
        ({"network.preset": "null"},
         "network.preset: expected a preset name", "network.preset"),
        ({"network.preset": "3"},
         "network.preset: expected a preset name", "network.preset"),
        ({"network.preset": "nope"},
         "network.preset: unknown network preset 'nope'", "network.preset"),
        ({"network.preset": "gsm", "network.uplink_throughput_bps": "1.5e6"},
         "network.uplink_throughput_bps: unknown key",
         "network.uplink_throughput_bps"),
        # a preset leaves the link keys unread, whatever their values
        ({"network.preset": "gsm", "network.base_latency_s": "fast"},
         "network.base_latency_s: unknown key", "network.base_latency_s"),
        ({"network.preset": "gsm", "network.return_fraction": "2"},
         "network.return_fraction: must be within [0, 1]",
         "network.return_fraction"),
        ({"network.preset": "null", "network.noise_sigma": "fast"},
         "network.noise_sigma: expected a number, got 'fast'",
         "network.noise_sigma"),
    ], ids=["null", "int", "unknown", "with-uplink", "with-base-latency",
            "bad-return-fraction", "noise-before-preset"])
    def test_preset(self, changes, message, field):
        exc = load_error(schema_doc({**LINK_KEYS, **changes}))
        assert str(exc) == message
        assert exc.field == field

    @pytest.mark.parametrize("changes,message,field", [
        # sections load in document order
        ({"workload.arrival_rate_pps": "fast", "fog.tdp_w": "fast"},
         "workload.arrival_rate_pps: expected a number, got 'fast'",
         "workload.arrival_rate_pps"),
        # the network reads noise_sigma and return_fraction first
        ({"network.uplink_throughput_bps": "fast",
          "network.noise_sigma": "fast"},
         "network.noise_sigma: expected a number, got 'fast'",
         "network.noise_sigma"),
        ({"network.base_latency_s": "fast", "network.return_fraction": ".nan"},
         "network.return_fraction: must be finite, got nan",
         "network.return_fraction"),
        ({"network.downlink_throughput_bps": None,
          "network.base_latency_s": "fast"},
         "network.downlink_throughput_bps: missing required key",
         "network.downlink_throughput_bps"),
        # every key is read before the dataclass checks its invariants
        ({"network.return_fraction": "2", "network.base_latency_s": "fast"},
         "network.base_latency_s: expected a number, got 'fast'",
         "network.base_latency_s"),
        # invariants are checked before unknown keys
        ({"fog.tdp_w": "1.0", "fog.bogus": "1"},
         "fog.tdp: must exceed idle_power", "fog.tdp"),
        ({"fog.bogus": "1", "fog.another": "1"},
         "fog.another: unknown key", "fog.another"),
        ({"workload.packet_size_bits": "0"},
         "workload.packet_size: must be > 0", "workload.packet_size"),
    ], ids=["sections-in-order", "noise-before-link", "return-before-base",
            "missing-before-bad-base", "numbers-before-invariants",
            "invariant-before-unknown", "unknown-sorted", "invariant"])
    def test_first_fault_reported(self, changes, message, field):
        exc = load_error(schema_doc(changes))
        assert str(exc) == message
        assert exc.field == field

    @pytest.mark.parametrize("doc,message,field", [
        ("name: ''\n", "name: must be a nonempty string", "name"),
        ("name: [a]\n", "name: must be a nonempty string", "name"),
        ("include_base_latency: yes please\n",
         "include_base_latency: expected true/false, got 'yes please'",
         "include_base_latency"),
        ("{}\n", "workload: missing required section", "workload"),
        ("workload: 3\n", "workload: expected a mapping", "workload"),
    ], ids=["empty-name", "list-name", "flag", "no-section", "scalar-section"])
    def test_document_level_fault(self, doc, message, field):
        exc = load_error(doc)
        assert str(exc) == message
        assert exc.field == field

    def test_table_covers_every_parameter_field_once(self):
        rows = list(_FIELD_AXES.values())
        expected = [(section, f.name) for section, params in (
            ("workload", WorkloadParams), ("fog", FogNodeParams),
            ("network", NetworkParams), ("cloud", CloudParams))
            for f in fields(params)]
        assert sorted(rows) == sorted(expected)
        assert len(set(rows)) == len(rows)
        assert list(_FIELD_AXES) == SCHEMA_KEYS


class TestPresets:
    def test_network_table_values(self):
        assert preset("gsm").uplink_bps == 40000.0
        assert preset("gsm").latency_range_s == (0.6, 0.75)
        assert preset("umts").uplink_bps == 384e3
        assert preset("umts").latency_range_s == (0.5, 0.75)
        assert preset("hspa").uplink_bps == 5.76e6
        assert preset("hspa").latency_range_s == (0.15, 0.4)
        assert preset("hspa_plus").uplink_bps == 11.5e6
        assert preset("hspa_plus").latency_range_s == (0.1, 0.2)

    def test_bitrate_table_values(self):
        assert preset("360p").min_bps == 400e3
        assert preset("360p").max_bps == 1e6
        assert preset("480p").min_bps == 500e3
        assert preset("480p").max_bps == 2e6
        assert preset("720p").min_bps == 1.5e6
        assert preset("720p").max_bps == 4e6
        assert preset("1080p").min_bps == 3e6
        assert preset("1080p").max_bps == 6e6

    def test_motor_table_values(self):
        m = preset("x2212")
        assert m.kv_rpm_per_v == 1250.0
        assert m.no_load_current_a == 0.6
        assert m.resistance_ohm == 0.079
        assert m.max_power_w == 390.0
        assert m.prop_diameter_m == 0.254
        assert m.prop_pitch_m == 0.119
        assert m.efficiency_range == (0.75, 0.85)

    def test_wireless_info_records(self):
        assert preset("bluetooth").coverage == "100 m"
        assert preset("zigbee").throughput == "0.25-72 Mbps"
        assert preset("wifi").energy_efficiency == "low"
        assert preset("hspa_info").coverage == "5 km"

    def test_unknown_preset(self):
        with pytest.raises(UnknownPreset):
            preset("lte")

    def test_names_unique_across_groups(self):
        names = (list(CATALOG.networks) + list(CATALOG.bitrates)
                 + list(CATALOG.motors) + list(CATALOG.wireless_info))
        assert len(names) == len(set(names))

    def test_checksum_pinned(self):
        assert catalog_checksum() == CATALOG_CHECKSUM

    def test_rows_cover_all_presets(self):
        names = {row[1] for row in catalog_rows()}
        assert "hspa_plus" in names and "x2212" in names and "1080p" in names


class TestSha256:
    """The digests hash through CPython's own SHA-256, which must give
    hashlib's bytes."""

    @given(st.binary(max_size=4096))
    def test_matches_hashlib(self, data):
        assert scenario._sha256_hex(data) == hashlib.sha256(data).hexdigest()

    @given(st.binary(max_size=4096))
    def test_falls_back_to_hashlib(self, data):
        # an interpreter built without CPython's own hash modules
        with pytest.MonkeyPatch.context() as patch:
            patch.setitem(sys.modules, "_sha2", None)
            patch.setitem(sys.modules, "_sha256", None)
            digest = scenario._sha256_hex(data)
        assert digest == hashlib.sha256(data).hexdigest()


class TestSweepGrid:
    def test_two_by_two_product_in_declared_order(self):
        axes = parse_grid_spec("network=gsm,hspa_plus;bitrate=360p_min,1080p_max")
        scenarios = sweep_grid(default_scenario(), axes)
        assert len(scenarios) == 4
        ups = [s.network.uplink_throughput for s in scenarios]
        assert ups == [40e3, 40e3, 11.5e6, 11.5e6]
        rates = [s.workload.arrival_rate for s in scenarios]
        assert rates == pytest.approx([400e3 / 12000, 6e6 / 12000] * 2)

    def test_empty_axis_list_yields_base(self):
        base = default_scenario()
        assert sweep_grid(base, []) == [base]

    def test_v_fog_fraction_grid(self):
        axes = parse_grid_spec("v_fog_frac=0.25,0.5,0.75,1.0")
        scenarios = sweep_grid(default_scenario(), axes)
        caps = [s.fog.proc_capability for s in scenarios]
        assert caps == [25.0, 50.0, 75.0, 100.0]

    def test_v_fog_fraction_tracks_bitrate_axis(self):
        axes = parse_grid_spec("bitrate=1080p_max;v_fog_frac=0.5")
        (s,) = sweep_grid(default_scenario(), axes)
        assert s.workload.arrival_rate == pytest.approx(500.0)
        assert s.fog.proc_capability == pytest.approx(250.0)

    # bitrate reads the packet size and v_fog_frac the arrival rate, each
    # as the configuration ends, whatever axis sets them later in the spec
    def test_v_fog_fraction_reads_a_later_bitrate_axis(self):
        (s,) = sweep_grid(default_scenario(),
                          parse_grid_spec("v_fog_frac=0.5;bitrate=1080p_max"))
        assert s.workload.arrival_rate == 500.0
        assert s.fog.proc_capability == 250.0

    def test_v_fog_fraction_reads_a_later_arrival_rate_axis(self):
        (s,) = sweep_grid(default_scenario(), parse_grid_spec(
            "v_fog_frac=0.5;workload.arrival_rate_pps=400"))
        assert s.fog.proc_capability == 200.0

    def test_bitrate_reads_a_later_packet_size_axis(self):
        (s,) = sweep_grid(default_scenario(), parse_grid_spec(
            "bitrate=1080p_max;workload.packet_size_bits=1000"))
        assert s.workload.arrival_rate * s.workload.packet_size == 6e6

    def test_network_axis_keeps_the_other_link_fields(self):
        base = default_scenario()
        base = replace(base, include_base_latency=True, network=replace(
            base.network, noise_sigma=0.3, return_fraction=0.2))
        (s,) = sweep_grid(base, parse_grid_spec("network=gsm"))
        assert s.network == NetworkParams(
            uplink_throughput=40e3, downlink_throughput=40e3,
            base_latency=0.675, noise_sigma=0.3, return_fraction=0.2)

    def test_axis_order_does_not_decide_validity(self):
        # the default's 10 W TDP lies below a 20 W idle power until the
        # TDP axis applies
        built = [sweep_grid(default_scenario(), parse_grid_spec(spec))
                 for spec in ("fog.idle_power_w=20;fog.tdp_w=30",
                              "fog.tdp_w=30;fog.idle_power_w=20")]
        (first,), (second,) = built
        assert (first.fog.idle_power, first.fog.tdp) == (20.0, 30.0)
        assert replace(first, name="x") == replace(second, name="x")

    def test_invalid_combination_names_its_section(self):
        with pytest.raises(ValidationError) as exc:
            sweep_grid(default_scenario(), parse_grid_spec(
                "fog.tdp_w=30;fog.idle_power_w=20,40"))
        assert str(exc.value) == "fog.tdp: must exceed idle_power"
        assert exc.value.field == "fog.tdp"

    def test_size_is_product_of_axis_lengths(self):
        axes = parse_grid_spec(
            "network=gsm,umts,hspa;v_fog_frac=0.25,1.0;"
            "workload.arrival_rate_pps=50,100")
        assert len(sweep_grid(default_scenario(), axes)) == 3 * 2 * 2

    def test_dotted_field_axis(self):
        axes = parse_grid_spec("network.uplink_throughput_bps=1e5,2e5")
        scenarios = sweep_grid(default_scenario(), axes)
        assert [s.network.uplink_throughput for s in scenarios] == [1e5, 2e5]

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValidationError):
            sweep_grid(default_scenario(), parse_grid_spec("warp_factor=9"))

    @pytest.mark.parametrize("spec,message,field", [
        ("warp_factor", "grid: malformed axis spec 'warp_factor'", "grid"),
        ("=1", "grid: malformed axis spec '=1'", "grid"),
        ("network=", "grid: malformed axis spec 'network='", "grid"),
        ("network=5g", "grid.network: unknown preset '5g'", "grid.network"),
        ("warp_factor=9", "grid: unknown axis 'warp_factor'", "grid"),
        ("network=gsm,umts,gsm", "grid: axis 'network' gives 'gsm' twice",
         "grid"),
        # values equal as numbers repeat, whatever their text; a value that
        # is no finite number is compared as text
        ("fog.tdp_w=1,2,1.0", "grid: axis 'fog.tdp_w' gives 1.0 twice",
         "grid"),
        ("fog.tdp_w=0,-0", "grid: axis 'fog.tdp_w' gives 0.0 twice", "grid"),
        ("bitrate=1_000,1e3", "grid: axis 'bitrate' gives 1000.0 twice",
         "grid"),
        ("fog.tdp_w=nan,nan", "grid: axis 'fog.tdp_w' gives 'nan' twice",
         "grid"),
        # two axes that set one field are named in declared order, also
        # where the first applies last
        ("bitrate=1080p_max;workload.arrival_rate_pps=1",
         "grid: axes 'bitrate' and 'workload.arrival_rate_pps' set the same "
         "field", "grid"),
        ("v_fog_frac=0.5;fog.proc_capability_pps=10",
         "grid: axes 'v_fog_frac' and 'fog.proc_capability_pps' set the same "
         "field", "grid"),
        # a value is read as its axis applies, before the axis is compared
        # with those applied earlier
        ("workload.arrival_rate_pps=x;bitrate=1080p_max",
         "grid.workload.arrival_rate_pps: expected a number, got 'x'",
         "grid.workload.arrival_rate_pps"),
    ], ids=["no-equals", "no-axis", "no-values", "network", "unknown-axis",
            "repeated-value", "repeated-number", "repeated-zero",
            "repeated-underscored-number", "repeated-nan",
            "same-field-bitrate-first",
            "same-field-fraction-first", "value-before-same-field"])
    def test_error_names_its_field(self, spec, message, field):
        with pytest.raises(ValidationError) as exc:
            sweep_grid(default_scenario(), parse_grid_spec(spec))
        assert str(exc.value) == message
        assert exc.value.field == field

    def test_empty_name_rejected(self):
        with pytest.raises(ValidationError) as exc:
            replace(default_scenario(), name="")
        assert str(exc.value) == "name: must be nonempty"
        assert exc.value.field == "name"

    @pytest.mark.parametrize("spec", [
        "workload.packet_size_bits=0;bitrate=1080p_max",
        "bitrate=1080p_max;workload.packet_size_bits=0",
        "bitrate=1080p_max;workload.packet_size_bits=-1000"])
    def test_bitrate_over_a_packet_size_not_above_zero(self, spec):
        # the packet size is checked before the bit rate is divided by it
        with pytest.raises(ValidationError) as exc:
            sweep_grid(default_scenario(), parse_grid_spec(spec))
        assert str(exc.value) == "workload.packet_size: must be > 0"

    def test_invalid_value_raises_validation_error(self):
        axes = parse_grid_spec("v_fog_frac=0.0")
        with pytest.raises(ValidationError):
            sweep_grid(default_scenario(), axes)

    def test_names_are_unique_and_labeled(self):
        axes = parse_grid_spec("network=gsm,hspa")
        names = [s.name for s in sweep_grid(default_scenario(), axes)]
        assert names == ["default[network=gsm]", "default[network=hspa]"]


# grid axes and valid values for the label property below; bitrate and
# workload.arrival_rate_pps set one field, as do network and
# network.uplink_throughput_bps, so a grid holds one of each pair
GRID_POOL = {
    "network": ["gsm", "umts", "hspa", "hspa_plus"],
    "bitrate": ["360p_min", "1080p_max", "2e5"],
    "v_fog_frac": ["0.5", "1.25"],
    "workload.packet_size_bits": ["1000", "12000"],
    "workload.arrival_rate_pps": ["50", "400"],
    "fog.tdp_w": ["10", "30"],
    "network.uplink_throughput_bps": ["1e5", "1.5e6"],
}
GRID_CLASHES = [("bitrate", "workload.arrival_rate_pps"),
                ("network", "network.uplink_throughput_bps")]


@st.composite
def grids(draw):
    """Axes from GRID_POOL in a drawn order, each with distinct values,
    and the same axes in another drawn order."""
    names = draw(st.permutations(list(GRID_POOL)))
    for pair in GRID_CLASHES:
        names.remove(draw(st.sampled_from(pair)))
    names = names[:draw(st.integers(1, len(names)))]
    axes = [(axis, draw(st.lists(st.sampled_from(GRID_POOL[axis]),
                                 min_size=1, max_size=2, unique=True)))
            for axis in names]
    return axes, draw(st.permutations(axes))


def label_of(s: Scenario) -> dict:
    return dict(part.split("=")
                for part in s.name.partition("[")[2][:-1].split(","))


def assert_label_holds(s: Scenario) -> None:
    for axis, value in label_of(s).items():
        if axis == "network":
            link = CATALOG.networks[value].link_fields(s.include_base_latency)
            assert {f: getattr(s.network, f) for f in link} == link
        elif axis == "bitrate":
            name, _, bound = value.rpartition("_")
            bps = (getattr(CATALOG.bitrates[name], f"{bound}_bps")
                   if name else float(value))
            assert s.workload.arrival_rate == bps / s.workload.packet_size
        elif axis == "v_fog_frac":
            assert s.fog.proc_capability \
                == float(value) * s.workload.arrival_rate
        else:
            section, field = _FIELD_AXES[axis]
            assert getattr(getattr(s, section), field) == float(value)


@settings(max_examples=200, deadline=None)
@given(grids(), st.booleans())
def test_grid_labels_hold_in_any_axis_order(orders, include_base):
    base = replace(default_scenario(), include_base_latency=include_base)
    first, second = [sweep_grid(base, axes) for axes in orders]
    for s in first + second:
        assert_label_holds(s)
    # the same configurations, names aside, keyed by their axis values
    assert ({frozenset(label_of(s).items()): replace(s, name="x")
             for s in first}
            == {frozenset(label_of(s).items()): replace(s, name="x")
                for s in second})


@given(rate=st.floats(min_value=0.5, max_value=1e5),
       size=st.floats(min_value=1.0, max_value=1e6),
       uplink=st.floats(min_value=1.0, max_value=1e9),
       eta=st.floats(min_value=0.0, max_value=1.0),
       mod1=st.booleans())
def test_serialization_round_trip_property(rate, size, uplink, eta, mod1):
    base = default_scenario()
    s = replace(
        base,
        workload=replace(base.workload, arrival_rate=rate, packet_size=size),
        network=replace(base.network, uplink_throughput=uplink,
                        return_fraction=eta),
        modification1_enabled=mod1,
    )
    assert load_scenario(serialize_scenario(s)) == s


# keys and values the loader oracle below puts into the scenario files:
# explicit tags, ints past the int-string limit in hex and decimal, dates,
# nested collections, aliases, merge keys, mappings under other tags (which
# "<<" merges), keys other than strings and unprintable characters
MUTATIONS = [
    "!!bool x", "!!bool maybe", "!!int x", "!!int '-'", "!!float ''",
    "!!float 10", "!!str 1", "!!null x", "!!timestamp x", "!!binary aGk=",
    "!!binary a", "!!map [1]", "!!map x", "!!set [1]", "!!set {a}",
    "!!omap [a: 1]", "!!pairs [a: 1]", "!!seq x", "!foo x",
    "0x1" + "0" * 4000, "1" + "0" * 5000, "2001-13-01", "2001-01-01",
    "2001-01-01 00:00:00 +99:00", "[1, [2, {a: 3}]]", "{a: {b: [c]}}",
    "&a [*a]", "&b x", "*b", "&c {x: *c}", "<<", "{<<: {a: 1}}",
    "!!merge {1: a, b: c}", "[!!merge {a: !!bool x}]", "!foo {a: 1}",
    "!!omap [{a: 1}]", "[!!map [1]]", "{<<: &d !!set {a: 1}, b: *d}",
    "{<<: [*b]}", "{1: a}", "{? [1] : a}", "{yes: 1, null: 2}", "1", "yes",
    "null", "~", "[1]", "{a: 1}", "? [1]", "!!str 1", "!!int 1", "&k name",
    "*k", "a\x01", "\x7f", "\ufffe", "a\x85b", "a\u2028b", "",
]
SCENARIO_LINES = [path.read_text(encoding="utf-8").splitlines()
                  for path in sorted(SCENARIO_FILES.glob("*.yaml"))]


@st.composite
def mutated_scenarios(draw) -> str:
    """A scenario file with up to three lines changed: a key or a value
    replaced from MUTATIONS, the line replaced by a "<<" merge of a value
    from MUTATIONS, or the line repeated or deleted."""
    lines = list(draw(st.sampled_from(SCENARIO_LINES)))
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        line = lines[i]
        indent = line[:len(line) - len(line.lstrip())]
        key, _, value = line.strip().partition(":")
        change = draw(st.sampled_from(["key", "value", "merge", "repeat",
                                       "delete"]))
        if change == "key":
            lines[i] = f"{indent}{draw(st.sampled_from(MUTATIONS))}:{value}"
        elif change in ("value", "merge"):
            key = "<<" if change == "merge" else key
            lines[i] = f"{indent}{key}: {draw(st.sampled_from(MUTATIONS))}"
        elif change == "repeat":
            lines.insert(i, line)
        elif len(lines) > 1:
            del lines[i]
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(mutated_scenarios())
def test_loader_returns_a_scenario_or_one_error_line(doc):
    try:
        loaded = load_scenario(doc)
    except (ParseError, ValidationError) as exc:
        assert "\n" not in str(exc)
    else:
        assert isinstance(loaded, Scenario)
