"""Named machine presets, each a :class:`~repro.sim.config.SimConfig`.

:mod:`~repro.machines.registry` holds the presets (``paper-4x2``,
``big-little-8``, ``manycore-32/64/128``, ...): the paper's anchors,
heterogeneous rings built from per-PU
:class:`~repro.sim.config.PUProfile` overrides, and manycores whose
ring hop latency and ARB shape scale with the PU count.  A preset is
an ordinary config value: ``get_machine("paper-4x2") == SimConfig()``,
and ``replace(get_machine(name), ...)`` returns what it asks for.
"""

from repro.machines.registry import (
    MACHINE_PRESETS,
    arb_entries_for,
    describe_machines,
    get_machine,
    homogeneous,
    machine_names,
    preset_name,
    ring_hop_for,
)

__all__ = [
    "MACHINE_PRESETS",
    "arb_entries_for",
    "describe_machines",
    "get_machine",
    "homogeneous",
    "machine_names",
    "preset_name",
    "ring_hop_for",
]
