"""JSON (de)serialisation of instances and allocations.

Reproducibility plumbing: an experiment can persist the exact
combinatorial instance it solved (and the allocation it obtained) as
plain JSON, so a result can be re-verified later — on another machine,
against another solver — without regenerating the topology.

The format is versioned and deliberately boring: lists of numbers, no
pickling, no NumPy dtypes.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Mapping, Optional, Sequence

import numpy as np

from repro.core.allocation import Allocation
from repro.core.instance import DataCollectionInstance

__all__ = [
    "make_instance",
    "instance_to_dict",
    "instance_from_dict",
    "instance_to_json",
    "instance_from_json",
    "allocation_to_dict",
    "allocation_from_dict",
]

#: Format version stamped into every document.
FORMAT_VERSION = 1


def make_instance(
    num_slots: int,
    slot_duration: float,
    sensors: Sequence[Mapping[str, Any]],
) -> DataCollectionInstance:
    """Build an instance from per-sensor dicts, the ``sensors`` entries
    of the serialized form.

    Each dict: ``window=(start, end) | None``, ``rates=[...]`` and
    ``powers=[...]`` (aligned with the window) and ``budget=float``.
    The dicts may come from outside (corpus JSON), and the constructor
    only sees the total pair count, so each sensor's rates and powers
    are checked against its own window here.
    """
    windows = np.array(
        [(0, -1) if s["window"] is None else s["window"] for s in sensors], dtype=np.int64
    ).reshape(len(sensors), 2)
    rates = [np.asarray(s["rates"], dtype=np.float64) for s in sensors]
    powers = [np.asarray(s["powers"], dtype=np.float64) for s in sensors]
    for i, ((start, end), r, p) in enumerate(zip(windows.tolist(), rates, powers)):
        size = max(end - start + 1, 0)
        if r.shape != (size,) or p.shape != (size,):
            raise ValueError(
                f"sensor {i} window [{start}, {end}]: rates/powers must have shape "
                f"({size},); got {r.shape} / {p.shape}"
            )
    # The leading empty array makes the result float64 and covers n = 0.
    empty = np.zeros(0)
    return DataCollectionInstance(
        num_slots,
        slot_duration,
        windows[:, 0],
        windows[:, 1],
        np.concatenate([empty, *rates]),
        np.concatenate([empty, *powers]),
        [s["budget"] for s in sensors],
    )


def instance_to_dict(instance: DataCollectionInstance) -> Dict[str, Any]:
    """Lossless plain-dict form of an instance."""
    starts, ends = instance.window_bounds()
    flat = instance.flat_pairs()
    edges = flat.offsets.tolist()
    rates, powers = flat.rates.tolist(), flat.powers.tolist()
    sensors = [
        {
            "window": [start, end] if start <= end else None,
            "rates": rates[lo:hi],
            "powers": powers[lo:hi],
            "budget": budget,
        }
        for start, end, lo, hi, budget in zip(
            starts.tolist(), ends.tolist(), edges, edges[1:], instance.budgets_array().tolist()
        )
    ]
    return {
        "format": "repro.dcmp_instance",
        "version": FORMAT_VERSION,
        "num_slots": instance.num_slots,
        "slot_duration": instance.slot_duration,
        "sensors": sensors,
    }


def instance_from_dict(doc: Dict[str, Any]) -> DataCollectionInstance:
    """Inverse of :func:`instance_to_dict` (validates the envelope)."""
    if doc.get("format") != "repro.dcmp_instance":
        raise ValueError(f"not a DCMP instance document: format={doc.get('format')!r}")
    if doc.get("version") != FORMAT_VERSION:
        raise ValueError(f"unsupported version {doc.get('version')!r}")
    return make_instance(int(doc["num_slots"]), float(doc["slot_duration"]), doc["sensors"])


def instance_to_json(instance: DataCollectionInstance, indent: Optional[int] = None) -> str:
    """JSON string form of an instance."""
    return json.dumps(instance_to_dict(instance), indent=indent)


def instance_from_json(text: str) -> DataCollectionInstance:
    """Parse an instance from its JSON form."""
    return instance_from_dict(json.loads(text))


def allocation_to_dict(allocation: Allocation) -> Dict[str, Any]:
    """Plain-dict form of an allocation."""
    return {
        "format": "repro.allocation",
        "version": FORMAT_VERSION,
        "slot_owner": allocation.slot_owner.tolist(),
    }


def allocation_from_dict(doc: Dict[str, Any]) -> Allocation:
    """Inverse of :func:`allocation_to_dict`."""
    if doc.get("format") != "repro.allocation":
        raise ValueError(f"not an allocation document: format={doc.get('format')!r}")
    if doc.get("version") != FORMAT_VERSION:
        raise ValueError(f"unsupported version {doc.get('version')!r}")
    return Allocation(np.asarray(doc["slot_owner"], dtype=np.int64))
