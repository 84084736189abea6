import dataclasses
import gc
import json
import re
import weakref

import numpy as np
import pytest

from gridrestore import (
    Breaker,
    Bus,
    Feeder,
    FeederParseError,
    FeederReferenceError,
    FeederValidationError,
    Generator,
    Line,
    LoadPoint,
    MicrogridPartition,
    builtin_feeder,
    feeder_hash,
    islands,
    load_feeder,
    serialize_feeder,
    solve,
    validate_feeder,
)
from reference import random_radial_feeder


def test_ieee13_aggregates(ieee13):
    assert ieee13.total_load_kw() == 3461.0
    assert ieee13.total_capacity_kw() == 2600.0
    assert ieee13.n_breakers == 9
    assert len(ieee13.buses) == 13
    assert [len(g) for g in ieee13.partition.assignments] == [4, 5]
    mg1 = [ieee13.loads[i].p_rated for i in range(4)]
    mg2 = [ieee13.loads[i].p_rated for i in range(4, 9)]
    assert mg1 == [230.0, 170.0, 400.0, 200.0]
    assert mg2 == [170.0, 128.0, 1150.0, 170.0, 843.0]


def test_ieee123_aggregates(ieee123):
    assert ieee123.total_load_kw() == 3025.0
    assert ieee123.total_capacity_kw() == 2400.0
    assert ieee123.n_breakers == 26
    assert len(ieee123.buses) == 123
    assert [len(g) for g in ieee123.partition.assignments] == [10, 5, 3, 3, 5]


@pytest.mark.parametrize("name", ["ieee13", "ieee123"])
def test_builtins_validate_clean(name):
    assert validate_feeder(builtin_feeder(name)) == []


def test_unknown_builtin_name():
    with pytest.raises(KeyError, match="ieee8500"):
        builtin_feeder("ieee8500")


def test_builtin_partition_covers_each_breaker_once(ieee13, ieee123):
    for feeder in (ieee13, ieee123):
        counts = {b.id: 0 for b in feeder.breakers}
        for group in feeder.partition.assignments:
            for bid in group:
                counts[bid] += 1
        assert all(c == 1 for c in counts.values())


@pytest.mark.parametrize("name", ["ieee13", "ieee123"])
def test_round_trip_builtin(name):
    feeder = builtin_feeder(name)
    again = load_feeder(serialize_feeder(feeder))
    assert again == feeder


def test_round_trip_random_feeders():
    rng = np.random.default_rng(11)
    for _ in range(10):
        feeder = random_radial_feeder(rng)
        assert validate_feeder(feeder) == []
        assert load_feeder(serialize_feeder(feeder).encode()) == feeder


def test_load_feeder_accepts_stream(tmp_path, ieee13):
    path = tmp_path / "f.json"
    path.write_text(serialize_feeder(ieee13))
    with open(path, "rb") as fh:
        assert load_feeder(fh) == ieee13


def test_dangling_bus_reference():
    doc = json.loads(serialize_feeder(builtin_feeder("ieee13")))
    doc["loads"][0]["bus_id"] = "b99"
    with pytest.raises(FeederReferenceError, match="b99"):
        load_feeder(json.dumps(doc))


def test_a_generator_on_an_unknown_bus_is_a_reference_error(ieee13):
    doc = json.loads(serialize_feeder(ieee13))
    doc["generators"][0]["bus_id"] = "x"
    with pytest.raises(FeederReferenceError, match="generator g1 references unknown bus x"):
        load_feeder(json.dumps(doc))


def test_zero_loads_single_generator_is_valid():
    doc = {
        "format_version": 1,
        "name": "empty",
        "s_base_kva": 1000.0,
        "v_base_kv": 4.16,
        "buses": [{"id": "a"}],
        "lines": [],
        "breakers": [],
        "loads": [],
        "generators": [
            {"id": "g", "bus_id": "a", "p_min": 0.0, "p_max": 100.0,
             "q_min": 0.0, "q_max": 50.0}
        ],
        "partition": {},
    }
    feeder = load_feeder(json.dumps(doc))
    assert feeder.total_load_kw() == 0.0


def test_uncovered_breaker_violation(ieee13):
    partition = MicrogridPartition(
        (ieee13.partition.assignments[0], ieee13.partition.assignments[1][:-4])
    )
    broken = dataclasses.replace(ieee13, partition=partition)
    violations = validate_feeder(broken)
    assert any("uncovered breaker" in v for v in violations)


def test_cycle_is_non_radial(ieee13):
    extra = Line("tie", "mg1", "mg1b", 0.001, 0.002, 500.0)
    broken = dataclasses.replace(ieee13, lines=ieee13.lines + (extra,))
    assert any("non-radial topology" in v for v in validate_feeder(broken))


def test_misc_violations(ieee13):
    bad_weight = LoadPoint("ldx", "mg1", 10.0, 3.0, 1.5, "cb1")
    broken = dataclasses.replace(ieee13, loads=ieee13.loads + (bad_weight,))
    assert any("weight outside" in v for v in validate_feeder(broken))

    dup = dataclasses.replace(ieee13, buses=ieee13.buses + (Bus("mg1"),))
    assert any("duplicate bus" in v for v in validate_feeder(dup))

    inverted = Generator("gx", "mg1", 10.0, 5.0, 0.0, 0.0)
    broken = dataclasses.replace(ieee13, generators=ieee13.generators + (inverted,))
    assert any("inverted limits" in v for v in validate_feeder(broken))


def test_unreachable_load_detected():
    feeder = Feeder(
        name="island",
        s_base_kva=1000.0,
        v_base_kv=4.16,
        buses=(Bus("a"), Bus("b"), Bus("c")),
        lines=(Line("l1", "a", "b", 0.001, 0.002, 500.0),),
        breakers=(Breaker("cb1", "l1", 0),),
        loads=(LoadPoint("ld1", "c", 50.0, 15.0, 1.0, "cb1"),),
        generators=(Generator("g", "a", 0.0, 100.0, 0.0, 50.0),),
        partition=MicrogridPartition((("cb1",),)),
    )
    assert any("unreachable" in v for v in validate_feeder(feeder))


def test_parse_errors():
    with pytest.raises(FeederParseError):
        load_feeder(b"not json at all {{{")
    with pytest.raises(FeederParseError, match="format_version"):
        load_feeder(json.dumps({"buses": []}))
    with pytest.raises(FeederParseError, match="format_version"):
        load_feeder(json.dumps({"format_version": 99}))


@pytest.mark.parametrize("edit, where", [
    (lambda doc: doc.update(s_base_kva=[1]), "s_base_kva"),
    (lambda doc: doc.update(v_base_kv="abc"), "v_base_kv"),
    (lambda doc: doc["breakers"][3].update(state=1e400), r"breakers\[3\]\.state"),
    (lambda doc: doc["lines"][2].update(resistance="x"), r"lines\[2\]\.resistance"),
    (lambda doc: doc["loads"].__setitem__(1, 5), r"loads\[1\]"),
], ids=["s_base_kva-list", "v_base_kv-text", "breaker-state-overflow", "line-resistance-text",
        "load-not-an-object"])
def test_bad_bases_and_overflowing_values_are_parse_errors(ieee13, edit, where):
    doc = json.loads(serialize_feeder(ieee13))
    edit(doc)
    with pytest.raises(FeederParseError, match=f"^bad field value {where}: "):
        load_feeder(json.dumps(doc).replace("Infinity", "1e400"))


@pytest.mark.parametrize("path, value, where, kind", [
    (("breakers", 0, "state"), 0.7, "breakers[0].state", "an integer"),
    (("breakers", 0, "state"), 1.9, "breakers[0].state", "an integer"),
    (("breakers", 2, "state"), True, "breakers[2].state", "an integer"),
    (("breakers", 0, "state"), "1", "breakers[0].state", "an integer"),
    (("buses", 0, "id"), 5, "buses[0].id", "a string"),
    (("lines", 1, "to_bus"), ["b"], "lines[1].to_bus", "a string"),
    (("loads", 0, "breaker_id"), None, "loads[0].breaker_id", "a string"),
    (("partition", "1", 1), 6, "partition.1[1]", "a string"),
    (("name",), 13, "name", "a string"),
], ids=["state-0.7", "state-1.9", "state-true", "state-text", "bus-id-integer", "to-bus-list",
        "breaker-id-null", "partition-id-integer", "name-integer"])
def test_integer_and_string_fields_take_only_their_json_type(ieee13, path, value, where, kind):
    # Nothing is truncated or stringified: 0.7 is not read as open, nor bus
    # 5 as "5" (which would leave its lines pointing at a missing bus).
    doc = json.loads(serialize_feeder(ieee13))
    *keys, last = path
    record = doc
    for key in keys:
        record = record[key]
    record[last] = value
    message = f"bad field value {where}: {json.dumps(value)} is not {kind}"
    with pytest.raises(FeederParseError, match=f"^{re.escape(message)}$"):
        load_feeder(json.dumps(doc))


def test_float_fields_still_take_json_integers(ieee13):
    doc = json.loads(serialize_feeder(ieee13))
    doc["lines"][0]["s_rating"] = 5000
    assert load_feeder(json.dumps(doc)).lines[0].s_rating == 5000.0


@pytest.mark.parametrize("partition, message", [
    ({"00": ["cb1", "cb2", "cb3", "cb4"], "01": []}, "key '00' must be written as 0"),
    ({"0": "cb1", "1": []}, "partition '0' must be a list"),
], ids=["zero-padded-keys", "string-group"])
def test_malformed_partition_is_a_parse_error(ieee13, partition, message):
    doc = json.loads(serialize_feeder(ieee13))
    doc["partition"] = partition
    with pytest.raises(FeederParseError, match=message):
        load_feeder(json.dumps(doc))


def test_validation_error_lists_violations(ieee13):
    doc = json.loads(serialize_feeder(ieee13))
    doc["loads"][0]["weight"] = 2.0
    with pytest.raises(FeederValidationError) as err:
        load_feeder(json.dumps(doc))
    assert any("weight outside" in v for v in err.value.violations)


def test_feeder_hash_tracks_content(ieee13):
    h = feeder_hash(ieee13)
    assert h == feeder_hash(builtin_feeder("ieee13"))
    assert h != feeder_hash(builtin_feeder("ieee123"))


@pytest.mark.parametrize("name, digest", [
    ("ieee13", "d6c22f63870a1ae4ff6c9748f08612388da8f133093fcc22014d03f9c45097b2"),
    ("ieee123", "6339a6c9ac1584dbe7641eecf8c0f65eaf6aef4e9340dc991d928ba0a332ccbc"),
])
def test_builtin_feeder_hash_is_pinned(name, digest):
    # Oracle result caches key on this hash: any change to the serialized
    # document bytes of a built-in orphans every cached result.
    assert feeder_hash(builtin_feeder(name)) == digest


# The document schema written out on its own: each element array's record
# fields, and the default of each field a record may omit.
REQUIRED = object()
SCHEMA = {
    ("buses", "bus"): {"id": REQUIRED, "v_min": 0.95, "v_max": 1.05},
    ("lines", "line"): {"id": REQUIRED, "from_bus": REQUIRED, "to_bus": REQUIRED,
                        "resistance": REQUIRED, "reactance": REQUIRED, "s_rating": REQUIRED},
    ("breakers", "breaker"): {"id": REQUIRED, "line_id": REQUIRED, "state": 0},
    ("loads", "load"): {"id": REQUIRED, "bus_id": REQUIRED, "p_rated": REQUIRED,
                        "q_rated": 0.0, "weight": 1.0, "breaker_id": ""},
    ("generators", "generator"): {"id": REQUIRED, "bus_id": REQUIRED, "p_min": 0.0,
                                  "p_max": REQUIRED, "q_min": 0.0, "q_max": 0.0},
}
SCHEMA_FIELDS = [(key, kind, name, default)
                 for (key, kind), record in SCHEMA.items() for name, default in record.items()]


@pytest.mark.parametrize("key, kind, name, default", SCHEMA_FIELDS,
                         ids=[f"{kind}.{name}" for _, kind, name, _ in SCHEMA_FIELDS])
def test_a_record_missing_a_field_fails_or_takes_its_default(ieee13, key, kind, name, default):
    doc = json.loads(serialize_feeder(ieee13))
    del doc[key][0][name]
    if default is REQUIRED:
        with pytest.raises(FeederParseError, match=f"^missing '{name}' in {kind}$"):
            load_feeder(json.dumps(doc))
        return
    loaded = getattr(load_feeder(json.dumps(doc)), key)
    original = getattr(ieee13, key)
    value = getattr(loaded[0], name)
    assert value == default and type(value) is type(default)
    assert loaded == (dataclasses.replace(original[0], **{name: default}), *original[1:])


def test_feeder_rebuilds_from_its_fields_after_a_solve(ieee13):
    # The solver's network index is not kept in the feeder's __dict__.
    feeder = dataclasses.replace(ieee13)
    solve(feeder, [0, 1, 1, 0, 0, 0, 1, 0, 1])
    islands(feeder)
    assert Feeder(**feeder.__dict__) == feeder
    # Nor does the index keep a solved feeder alive.
    ref = weakref.ref(feeder)
    del feeder
    gc.collect()
    assert ref() is None
