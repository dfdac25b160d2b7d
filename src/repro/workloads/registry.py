"""Workload registry: name + params → engine-agnostic traffic description.

A *workload family* is a named builder that turns a flat dict of
JSON-scalar parameters into a :class:`TrafficDescription`.  Keeping the
parameters scalar is a hard rule, not a convenience: the resolved
``(name, params)`` pair is exactly what :func:`repro.store.keys.point_key`
hashes for sweep/serve payloads, so two requests for the same traffic
must canonicalize to the same dict — no aliases, no derived fields, no
nested structures with ambiguous encodings.

:func:`build_workload` therefore merges the family's declared defaults,
rejects unknown parameter names (a typo must not silently become a new
cache key), and stamps the *fully resolved* params onto the description.

The description itself is deliberately dual-representation:

* ``packets`` — wormhole packets for the electronic mesh engines
  (:class:`~repro.mesh.network.MeshConfig` ``reference``/``compiled``);
* ``cp_phases`` — for patterns with a photonic lowering, the sequence
  of CP-program epochs (gather/scatter orders) that move the same
  logical words over the PSCAN, runnable on the event-driven SCA bus.

Families that have no sensible bus lowering (uniform random, halo) ship
an empty ``cp_phases``; consumers must check, not assume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from ..mesh.flit import Packet
from ..mesh.topology import MeshTopology
from ..util.errors import ConfigError

__all__ = [
    "CpPhase",
    "TrafficDescription",
    "WorkloadFamily",
    "register_workload",
    "get_workload",
    "list_workloads",
    "build_workload",
]

#: Builder contract: ``builder(**params)`` returns
#: ``(topology, packets, memory_nodes, cp_phases)``.
Builder = Callable[..., tuple]


@dataclass(frozen=True, slots=True)
class CpPhase:
    """One SCA epoch of a workload's photonic lowering.

    ``order[c]`` is the ``(node, word)`` pair on bus cycle ``c`` —
    provenance for a gather epoch, destination for a scatter epoch.
    Within one epoch every ``(node, word)`` pair is unique (the
    schedule compiler enforces it); a collective that touches a word
    twice expresses that as two epochs.
    """

    kind: str
    order: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.kind not in ("gather", "scatter"):
            raise ConfigError(
                f"CpPhase kind must be 'gather' or 'scatter', got {self.kind!r}"
            )
        if not self.order:
            raise ConfigError("CpPhase needs a non-empty order")

    def schedule(self):
        """Compile this epoch into a validated :class:`GlobalSchedule`."""
        from ..core.schedule import gather_schedule, scatter_schedule

        compiler = gather_schedule if self.kind == "gather" else scatter_schedule
        return compiler(list(self.order))


@dataclass(frozen=True, slots=True)
class TrafficDescription:
    """What a workload *is*, independent of any engine.

    ``params`` is the fully resolved (defaults-merged) parameter dict —
    the canonical sweep/serve payload.  ``memory_nodes`` lists every
    node that should get a memory interface (with reorder cost) before
    the mesh run; peer-to-peer patterns leave it empty.  ``packets``
    are freshly constructed per :func:`build_workload` call, so a
    description can be injected into exactly one network — build again
    for a differential run.
    """

    name: str
    params: dict[str, Any]
    topology: MeshTopology
    packets: tuple[Packet, ...]
    memory_nodes: tuple[tuple[int, int], ...] = ()
    cp_phases: tuple[CpPhase, ...] = ()

    @property
    def total_packets(self) -> int:
        """Packets injected into the mesh."""
        return len(self.packets)

    @property
    def total_flits(self) -> int:
        """Total flits (headers + payload words) across all packets."""
        return sum(p.flit_count for p in self.packets)

    @property
    def total_words(self) -> int:
        """Payload words moved (excludes header flits)."""
        return sum(len(p.payloads) for p in self.packets)

    def pairs(self) -> list[tuple[tuple[int, int], tuple[int, int]]]:
        """Distinct ``(source, dest)`` node pairs, sorted."""
        return sorted({(p.source, p.dest) for p in self.packets})

    def pair_flits(self) -> dict[tuple[tuple[int, int], tuple[int, int]], int]:
        """Flits offered per ``(source, dest)`` pair (static accounting)."""
        out: dict[tuple[tuple[int, int], tuple[int, int]], int] = {}
        for p in self.packets:
            key = (p.source, p.dest)
            out[key] = out.get(key, 0) + p.flit_count
        return out


@dataclass(frozen=True, slots=True)
class WorkloadFamily:
    """A registered family: builder + defaults + one-line description."""

    name: str
    description: str
    builder: Builder
    defaults: dict[str, Any] = field(default_factory=dict)


_REGISTRY: dict[str, WorkloadFamily] = {}

_SCALAR = (str, int, float, bool, type(None))


def register_workload(
    name: str,
    builder: Builder,
    *,
    description: str,
    defaults: dict[str, Any] | None = None,
    replace: bool = False,
) -> WorkloadFamily:
    """Register a family under ``name``; returns the registered record.

    Re-registering an existing name raises :class:`ConfigError` unless
    ``replace=True`` — silent shadowing would alias sweep payloads.
    Default values must be JSON scalars (the canonical-payload rule).
    """
    if not name or not name.replace("_", "").isalnum():
        raise ConfigError(
            f"workload name must be a non-empty [a-z0-9_] token, got {name!r}"
        )
    if name in _REGISTRY and not replace:
        raise ConfigError(
            f"workload {name!r} is already registered; pass replace=True "
            "to shadow it deliberately"
        )
    defaults = dict(defaults or {})
    for key, value in defaults.items():
        if not isinstance(value, _SCALAR):
            raise ConfigError(
                f"workload {name!r} default {key}={value!r} is not a JSON "
                "scalar; params must canonicalize for point_key"
            )
    family = WorkloadFamily(
        name=name, description=description, builder=builder, defaults=defaults
    )
    _REGISTRY[name] = family
    return family


def get_workload(name: str) -> WorkloadFamily:
    """The registered family, or :class:`ConfigError` with the roster."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigError(
            f"unknown workload {name!r}; registered: {list_workloads()}"
        ) from None


def list_workloads() -> list[str]:
    """Registered family names, sorted."""
    return sorted(_REGISTRY)


def build_workload(name: str, **params: Any) -> TrafficDescription:
    """Resolve ``name`` + ``params`` into a fresh :class:`TrafficDescription`.

    Unknown parameter names raise (a typo must not mint a new cache
    key); the returned description carries the defaults-merged params,
    so equal traffic always serializes to equal payloads.
    """
    family = get_workload(name)
    merged = dict(family.defaults)
    unknown = sorted(set(params) - set(merged))
    if unknown:
        raise ConfigError(
            f"workload {name!r} does not take {unknown}; "
            f"accepted params: {sorted(merged)}"
        )
    for key, value in params.items():
        if not isinstance(value, _SCALAR):
            raise ConfigError(
                f"workload param {key}={value!r} is not a JSON scalar"
            )
    merged.update(params)
    topology, packets, memory_nodes, cp_phases = family.builder(**merged)
    return TrafficDescription(
        name=name,
        params=merged,
        topology=topology,
        packets=tuple(packets),
        memory_nodes=tuple(memory_nodes),
        cp_phases=tuple(cp_phases),
    )
