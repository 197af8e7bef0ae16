"""Named machine presets: each one a :class:`~repro.sim.config.SimConfig`.

The registry is the single place preset machines are defined.  A
preset is built from plain field values, so the config's own lint
checks it when this module loads: a bad preset fails the import, not
a simulation.  ``get_machine`` is the front door used by every CLI
surface that accepts ``--machine``.

Topology scaling: the paper's ring bypasses adjacent PUs in the same
cycle, which stops being credible past one board — :func:`ring_hop_for`
grows the per-hop latency with the ring's diameter, and manycore
presets halve the per-PU ARB (a 128-bank full-size ARB is the
centralized structure the paper argues away from).
"""

from __future__ import annotations

from dataclasses import asdict, replace
from typing import Dict, List

from repro.sim.config import PUProfile, SimConfig


def ring_hop_for(n_pus: int) -> int:
    """Per-hop ring latency at ``n_pus`` (grows with ring diameter)."""
    if n_pus <= 8:
        return 1
    if n_pus <= 32:
        return 2
    if n_pus <= 64:
        return 3
    return 4


def arb_entries_for(n_pus: int) -> int:
    """Per-PU ARB entries at ``n_pus`` (halved past one board)."""
    return 32 if n_pus <= 8 else 16


def homogeneous(n_pus: int) -> SimConfig:
    """``n_pus`` of the paper's PUs, with L1s and topology scaled for n.

    Up to 8 PUs this is the paper's own machine at that count.
    """
    return replace(
        SimConfig().scaled_for_pus(n_pus),
        ring_hop_latency=ring_hop_for(n_pus),
        arb_entries_per_pu=arb_entries_for(n_pus),
    )


#: a wide out-of-order core: double the paper's issue/fetch and ALUs
_BIG = PUProfile(name="big", issue_width=4, fetch_width=4,
                 int_units=3, fp_units=2)
#: a narrow in-pipeline core: scalar issue, one extra cycle everywhere
_LITTLE = PUProfile(name="little", issue_width=1, fetch_width=1,
                    lat_extra=(1, 2, 1, 1))

MACHINE_PRESETS: Dict[str, SimConfig] = {
    "paper-4x2": homogeneous(4),
    "paper-8x2": homogeneous(8),
    "paper-8x1": replace(homogeneous(8), issue_width=1, fetch_width=1),
    "big-little-8": replace(homogeneous(8), pus=(_BIG,) * 4 + (_LITTLE,) * 4),
    "hetero-16": replace(
        homogeneous(16),
        pus=(_BIG,) * 4 + (PUProfile(),) * 8 + (_LITTLE,) * 4,
        predictor="hybrid",
    ),
    "manycore-32": homogeneous(32),
    "manycore-64": homogeneous(64),
    "manycore-128": homogeneous(128),
}


def machine_names() -> List[str]:
    """Preset names in registry (declaration) order."""
    return list(MACHINE_PRESETS)


def get_machine(name: str) -> SimConfig:
    """The preset called ``name`` (ValueError names the known set)."""
    try:
        return MACHINE_PRESETS[name]
    except KeyError:
        known = ", ".join(machine_names())
        raise ValueError(
            f"unknown machine preset {name!r}; known: {known}"
        ) from None


def preset_name(config: SimConfig) -> str:
    """The name of the preset equal to ``config`` ("" = none is)."""
    return next(
        (name for name, preset in MACHINE_PRESETS.items()
         if preset == config),
        "",
    )


def describe_machines() -> List[Dict]:
    """Machine-readable preset listing (``repro list --machines``)."""
    out: List[Dict] = []
    for name, config in MACHINE_PRESETS.items():
        out.append({
            "name": name,
            "n_pus": config.n_pus,
            "predictor": config.predictor,
            "issue_width": config.issue_width,
            "ring_hop_latency": config.ring_hop_latency,
            "ring_bandwidth": config.ring_bandwidth,
            "arb_entries_per_pu": config.arb_entries_per_pu,
            "arb_latency": config.arb_latency,
            "pus": [asdict(pu) for pu in config.pus],
        })
    return out
