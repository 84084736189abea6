"""Typed model of a switchable distribution feeder partitioned into microgrids.

A feeder is a radial (acyclic) network of buses and lines. Circuit breakers
sit on lines; a load is served when every breaker on the path from its bus to
a generator is closed. The microgrid partition assigns every breaker to
exactly one agent. Feeder values are immutable after construction and safe to
share across threads and processes.

The element dataclasses are the document schema: annotations stay evaluated
(no ``from __future__ import annotations``) so the reader can check or cast
each value by its field's declared type.
"""

import hashlib
import json
from dataclasses import MISSING, asdict, dataclass, fields

FORMAT_VERSION = 1

DEFAULT_V_MIN = 0.95
DEFAULT_V_MAX = 1.05


class FeederError(ValueError):
    """Base class for feeder document problems."""


class FeederParseError(FeederError):
    """The document is not a well-formed feeder document."""


class FeederReferenceError(FeederError):
    """The document references a bus, line or breaker id that does not exist."""


class FeederValidationError(FeederError):
    """The document parsed but violates feeder invariants."""

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = list(violations)


@dataclass(frozen=True)
class Bus:
    id: str
    v_min: float = DEFAULT_V_MIN
    v_max: float = DEFAULT_V_MAX


@dataclass(frozen=True)
class Line:
    id: str
    from_bus: str
    to_bus: str
    resistance: float  # p.u. on the feeder base
    reactance: float   # p.u. on the feeder base
    s_rating: float    # kVA


@dataclass(frozen=True)
class Breaker:
    id: str
    line_id: str
    state: int = 0  # 0 = open, 1 = closed (nominal state in the document)


@dataclass(frozen=True)
class LoadPoint:
    id: str
    bus_id: str
    p_rated: float  # kW
    q_rated: float  # kvar
    weight: float = 1.0
    breaker_id: str = ""


@dataclass(frozen=True)
class Generator:
    id: str
    bus_id: str
    p_min: float
    p_max: float
    q_min: float
    q_max: float


@dataclass(frozen=True)
class MicrogridPartition:
    """Ordered breaker-id lists per agent; agent k owns ``assignments[k]``."""

    assignments: tuple[tuple[str, ...], ...]

    @property
    def n_agents(self) -> int:
        return len(self.assignments)


@dataclass(frozen=True)
class Feeder:
    name: str
    s_base_kva: float
    v_base_kv: float
    buses: tuple[Bus, ...]
    lines: tuple[Line, ...]
    breakers: tuple[Breaker, ...]
    loads: tuple[LoadPoint, ...]
    generators: tuple[Generator, ...]
    partition: MicrogridPartition

    # -- convenience accessors ------------------------------------------------

    @property
    def n_breakers(self) -> int:
        return len(self.breakers)

    @property
    def n_agents(self) -> int:
        return self.partition.n_agents

    def agent_breaker_indices(self, agent: int) -> tuple[int, ...]:
        """Global breaker indices owned by an agent, in partition order."""
        by_id = {b.id: i for i, b in enumerate(self.breakers)}
        return tuple(by_id[bid] for bid in self.partition.assignments[agent])

    def total_load_kw(self) -> float:
        return sum(ld.p_rated for ld in self.loads)

    def total_capacity_kw(self) -> float:
        return sum(g.p_max for g in self.generators)


# (document key = Feeder attribute, kind named in messages, element dataclass),
# in document order.
_ELEMENTS = (
    ("buses", "bus", Bus),
    ("lines", "line", Line),
    ("breakers", "breaker", Breaker),
    ("loads", "load", LoadPoint),
    ("generators", "generator", Generator),
)
# Fields a document may omit although their dataclass gives no default.
_DOCUMENT_DEFAULTS = {"q_rated": 0.0, "p_min": 0.0, "q_min": 0.0, "q_max": 0.0}


# -- validation ----------------------------------------------------------------


def _duplicates(ids):
    seen, dup = set(), []
    for x in ids:
        if x in seen:
            dup.append(x)
        seen.add(x)
    return dup


def validate_feeder(feeder: Feeder) -> list[str]:
    """Check every feeder invariant; return a list of violations (empty = ok).

    Violations are data, not failures: each entry names the offending element.
    """
    v: list[str] = []
    bus_ids = {b.id for b in feeder.buses}
    line_ids = {ln.id for ln in feeder.lines}
    breaker_ids = {b.id for b in feeder.breakers}

    for key, kind, _ in _ELEMENTS:
        for d in _duplicates(e.id for e in getattr(feeder, key)):
            v.append(f"duplicate {kind} id {d}")

    if feeder.s_base_kva <= 0:
        v.append("non-positive s_base_kva")
    if feeder.v_base_kv <= 0:
        v.append("non-positive v_base_kv")

    for b in feeder.buses:
        if not (0 < b.v_min < b.v_max):
            v.append(f"bad voltage band on bus {b.id}")
    for ln in feeder.lines:
        if ln.from_bus not in bus_ids:
            v.append(f"line {ln.id} references unknown bus {ln.from_bus}")
        if ln.to_bus not in bus_ids:
            v.append(f"line {ln.id} references unknown bus {ln.to_bus}")
        if ln.from_bus == ln.to_bus:
            v.append(f"line {ln.id} is a self-loop")
        if ln.resistance < 0 or ln.reactance < 0:
            v.append(f"negative impedance on line {ln.id}")
        if ln.s_rating <= 0:
            v.append(f"non-positive rating on line {ln.id}")
    for b in feeder.breakers:
        if b.line_id not in line_ids:
            v.append(f"breaker {b.id} references unknown line {b.line_id}")
        if b.state not in (0, 1):
            v.append(f"breaker {b.id} state not binary")
    for ld in feeder.loads:
        if ld.bus_id not in bus_ids:
            v.append(f"load {ld.id} references unknown bus {ld.bus_id}")
        if ld.breaker_id and ld.breaker_id not in breaker_ids:
            v.append(f"load {ld.id} references unknown breaker {ld.breaker_id}")
        if ld.p_rated < 0:
            v.append(f"negative rating on load {ld.id}")
        if not (0 < ld.weight <= 1):
            v.append(f"weight outside (0, 1] on load {ld.id}")
    for g in feeder.generators:
        if g.bus_id not in bus_ids:
            v.append(f"generator {g.id} references unknown bus {g.bus_id}")
        if g.p_min > g.p_max or g.q_min > g.q_max:
            v.append(f"inverted limits on generator {g.id}")
        if g.p_max <= 0:
            v.append(f"non-positive capacity on generator {g.id}")

    # Partition: disjoint, non-empty, covers all breakers.
    seen: set[str] = set()
    for agent, ids in enumerate(feeder.partition.assignments):
        if not ids:
            v.append(f"empty breaker list for agent {agent}")
        for bid in ids:
            if bid not in breaker_ids:
                v.append(f"partition references unknown breaker {bid}")
            elif bid in seen:
                v.append(f"breaker {bid} assigned to more than one microgrid")
            seen.add(bid)
    for b in feeder.breakers:
        if b.id not in seen:
            v.append(f"uncovered breaker {b.id}")

    # Topology at full closure: acyclic (radial forest), every load bus
    # reachable from a generator.
    if not any(x.startswith(("line", "duplicate bus")) for x in v):
        index = {b.id: i for i, b in enumerate(feeder.buses)}
        parent = list(range(len(feeder.buses)))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        radial = True
        for ln in feeder.lines:
            a, b = find(index[ln.from_bus]), find(index[ln.to_bus])
            if a == b:
                radial = False
            parent[a] = b
        if not radial:
            v.append("non-radial topology")
        else:
            gen_roots = {find(index[g.bus_id]) for g in feeder.generators if g.bus_id in index}
            for ld in feeder.loads:
                if ld.bus_id in index and find(index[ld.bus_id]) not in gen_roots:
                    v.append(f"load {ld.id} unreachable from any generator")

    return v


# -- document format -----------------------------------------------------------
#
# A feeder document is a JSON object (textual, diff-able) with format_version 1,
# top-level arrays buses/lines/breakers/loads/generators and a partition object
# mapping agent ids "0".."m-1" to ordered breaker-id lists. Units are kW, kvar
# and per-unit impedances on the declared (s_base_kva, v_base_kv) base. Each
# element record holds its dataclass's fields, in field order; a field may be
# omitted when it has a dataclass default or a ``_DOCUMENT_DEFAULTS`` entry.


def _cast(kind, value, where: str):
    """``float(value)`` for a float field; an int or str field takes only a JSON
    integer or string. Anything else raises a parse error naming ``where``."""
    try:
        if kind is float or type(value) is kind:
            return kind(value)
        raise TypeError(f"{json.dumps(value)} is not {'an integer' if kind is int else 'a string'}")
    except (TypeError, ValueError, OverflowError) as e:
        raise FeederParseError(f"bad field value {where}: {e}") from None


def _record(cls, kind: str, where: str, record):
    """One element of ``cls`` from its document record ``where`` (such as
    ``breakers[3]``), each value cast to the field's declared type."""
    if not isinstance(record, dict):
        raise FeederParseError(f"bad field value {where}: a record must be an object, "
                               f"not {type(record).__name__}")
    values = {}
    for f in fields(cls):
        if f.name in record:
            value = record[f.name]
        elif f.default is not MISSING:
            value = f.default
        elif f.name in _DOCUMENT_DEFAULTS:
            value = _DOCUMENT_DEFAULTS[f.name]
        else:
            raise FeederParseError(f"missing '{f.name}' in {kind}")
        values[f.name] = _cast(f.type, value, f"{where}.{f.name}")
    return cls(**values)


def load_feeder(source) -> Feeder:
    """Parse and validate a feeder document.

    ``source`` may be bytes, a JSON string, or a readable binary/text stream.
    Raises :class:`FeederParseError` for malformed documents,
    :class:`FeederReferenceError` for dangling ids, and
    :class:`FeederValidationError` for other invariant violations.
    """
    if hasattr(source, "read"):
        source = source.read()
    if isinstance(source, (bytes, bytearray)):
        source = source.decode("utf-8")
    try:
        doc = json.loads(source)
    except json.JSONDecodeError as e:
        raise FeederParseError(f"not valid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise FeederParseError("top level of a feeder document must be an object")
    if "format_version" not in doc:
        raise FeederParseError("missing 'format_version' in document")
    if doc["format_version"] != FORMAT_VERSION:
        raise FeederParseError(f"unsupported format_version {doc['format_version']}")

    try:
        elements = {key: tuple(_record(cls, kind, f"{key}[{i}]", r)
                               for i, r in enumerate(doc.get(key, [])))
                    for key, kind, cls in _ELEMENTS}
    except TypeError as e:  # an element array that is not a list
        raise FeederParseError(f"bad field value: {e}") from None
    s_base_kva = _cast(float, doc.get("s_base_kva", 1000.0), "s_base_kva")
    v_base_kv = _cast(float, doc.get("v_base_kv", 1.0), "v_base_kv")

    part_doc = doc.get("partition", {})
    if not isinstance(part_doc, dict):
        raise FeederParseError("partition must be an object")
    try:
        keys = sorted(int(k) for k in part_doc)
    except ValueError:
        raise FeederParseError("partition keys must be agent integers") from None
    if keys != list(range(len(keys))):
        raise FeederParseError("partition keys must be contiguous agent ids 0..m-1")
    for key, ids in part_doc.items():
        if key != str(int(key)):
            raise FeederParseError(f"partition key {key!r} must be written as {int(key)}")
        if not isinstance(ids, list):
            raise FeederParseError(f"partition {key!r} must be a list of breaker ids")
    partition = MicrogridPartition(tuple(
        tuple(_cast(str, b, f"partition.{k}[{i}]") for i, b in enumerate(part_doc[str(k)]))
        for k in keys))

    feeder = Feeder(
        name=_cast(str, doc.get("name", ""), "name"),
        s_base_kva=s_base_kva,
        v_base_kv=v_base_kv,
        partition=partition,
        **elements,
    )
    violations = validate_feeder(feeder)
    if violations:
        if any("unknown" in x for x in violations):
            raise FeederReferenceError("; ".join(x for x in violations if "unknown" in x))
        raise FeederValidationError(violations)
    return feeder


def serialize_feeder(feeder: Feeder) -> str:
    """Render a feeder back to its document form (round-trips exactly)."""
    doc = {
        "format_version": FORMAT_VERSION,
        "name": feeder.name,
        "s_base_kva": feeder.s_base_kva,
        "v_base_kv": feeder.v_base_kv,
        **{key: [asdict(e) for e in getattr(feeder, key)] for key, _, _ in _ELEMENTS},
        "partition": {
            str(k): list(ids) for k, ids in enumerate(feeder.partition.assignments)
        },
    }
    return json.dumps(doc, indent=2)


def feeder_hash(feeder: Feeder) -> str:
    """Stable content hash of a feeder (used by oracle result caches)."""
    return hashlib.sha256(serialize_feeder(feeder).encode("utf-8")).hexdigest()
