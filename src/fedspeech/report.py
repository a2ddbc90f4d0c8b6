"""Deterministic JSON and CSV report emission.

Reports carry the fully resolved configuration and its fingerprint, never a
timestamp, so identical inputs produce byte-identical files. Writers go
through a temp file and an atomic rename so a failed run never leaves
partial output behind. They make no directory: a command makes its output
directory once.
"""

from __future__ import annotations

import csv
import functools
import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import (TYPE_CHECKING, Any, Callable, Iterable, Iterator, Mapping, Optional,
                    Sequence)

from .aggregation import Trajectory
from .costs import CostReport, module_rollup
from .errors import ConfigError
from .federation import Partition, RoundSchedule, WallClockEstimate
from .memory import MemoryTimeline

if TYPE_CHECKING:  # a report reads the arrays it is given through their methods
    import numpy as np


class StreamedList:
    """A JSON list in a payload, which ``write_json`` writes in pieces, never
    walking its items one by one in the encoder. With ``encode``, which
    gives an item's JSON text as ``json.dumps(indent=2, sort_keys=True)``
    writes it at the top level, the list holds ``items``. Without it,
    ``items`` are the list's own JSON texts, each ended by a newline, in a
    bytes-like object, as a ``Manifest`` holds utterance ids; with ``runs``,
    a pair of arrays of (start, end) byte offsets, none empty, the list
    holds the texts of those ranges in turn."""

    def __init__(self, items, encode: Optional[Callable[[Any], str]] = None,
                 runs: Optional[tuple[np.ndarray, np.ndarray]] = None):
        self.items = items
        self.encode = encode
        self.runs = runs

    def __bool__(self) -> bool:
        return len(self.items if self.runs is None else self.runs[0]) > 0

    def chunks(self, indent: str) -> Iterator[bytes | memoryview]:
        """The items' JSON texts as the lines of a JSON list at ``indent``,
        joined by a comma, a newline and ``indent``: bytes-like pieces of at
        most ``_PER_CHUNK`` items or runs, each made once the one before is
        written."""
        sep = ",\n" + indent
        if self.encode is None:  # a text's newline becomes the separator
            texts, newline = memoryview(self.items), sep.encode("ascii")
            starts, ends = ([0], [len(texts)]) if self.runs is None else \
                (run.tolist() for run in self.runs)
            n = len(starts)

            def chunk(lo):
                return b"".join(map(texts.__getitem__, map(
                    slice, starts[lo:lo + _PER_CHUNK], ends[lo:lo + _PER_CHUNK]))
                ).replace(b"\n", newline)
        else:  # an item's own lines are indented with it
            n, newline = len(self.items), "\n" + indent

            def chunk(lo):
                return "".join(self.encode(item).replace("\n", newline) + sep
                               for item in self.items[lo:lo + _PER_CHUNK]).encode("ascii")
        for lo in range(0, n, _PER_CHUNK):
            text = chunk(lo)  # each text followed by the separator; the last one's is cut
            yield text if lo + _PER_CHUNK < n else memoryview(text)[:-len(sep)]


_PER_CHUNK = 256


@contextmanager
def _replaced(path: Path, mode: str, **kwargs):
    """A file opened for writing in place of ``path``: a temp file beside it,
    renamed over ``path`` once written. An ``OSError`` raises ``ConfigError``
    and leaves no temp file; ``path`` is then untouched."""
    tmp = path.with_suffix(path.suffix + ".tmp")
    try:
        fh = open(tmp, mode, **kwargs)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from None
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise ConfigError(f"cannot write {path}: {exc.strerror}") from None
        raise


def write_json(path, payload: Mapping[str, Any]) -> None:
    """Write ``payload`` byte for byte as ``json.dumps(indent=2,
    sort_keys=True, default=str)`` writes it, plus a newline. A dict, list
    or tuple that holds no container is encoded in one call to json's C
    encoder; only containers of containers are walked here, and a
    ``StreamedList`` writes its chunks where it stands. A non-finite number
    in ``payload``, or a file that cannot be written, raises ``ConfigError``
    and leaves no file."""
    path = Path(path)
    with _replaced(path, "wb") as fh:
        text: list[str] = []  # encoded, not yet written
        try:
            _encode(payload, 0, text, fh)
        except ValueError as exc:  # a NaN or an infinity, which JSON cannot hold
            raise ConfigError(f"cannot write {path.name}: {exc}") from None
        text.append("\n")
        fh.write("".join(text).encode("ascii"))  # every non-ASCII character is escaped


_CONTAINERS = (dict, list, tuple, StreamedList)


@functools.cache
def _encoder(depth: int) -> json.JSONEncoder:
    """The encoder of a container at nesting ``depth``, whose items it
    separates as ``json.dumps(indent=2)`` does there. Without an indent it
    runs in C."""
    return json.JSONEncoder(sort_keys=True, allow_nan=False, default=str,
                            separators=(",\n" + "  " * (depth + 1), ": "))


def _encode(value, depth: int, text: list[str], fh) -> None:
    """Append the JSON text of ``value`` at nesting ``depth`` to ``text``; a
    ``StreamedList`` first writes ``text`` to ``fh``, then its chunks."""
    if isinstance(value, StreamedList):
        if not value:
            text.append("[]")
            return
        indent = "  " * (depth + 1)
        text.append("[\n" + indent)
        fh.write("".join(text).encode("ascii"))
        text.clear()
        for chunk in value.chunks(indent):
            fh.write(chunk)
        text.append("\n" + "  " * depth + "]")
        return
    encoder = _encoder(depth)
    if isinstance(value, dict):
        items = value.values()
    elif isinstance(value, (list, tuple)):
        items = value
    else:  # a scalar, or an object that default=str writes as a string
        text.append(encoder.encode(value))
        return
    newline, close = encoder.item_separator[1:], "\n" + "  " * depth
    if not any(isinstance(item, _CONTAINERS) for item in items):
        flat = encoder.encode(value)  # "{}", "[]", or brackets around the items
        text.append(flat if len(flat) == 2 else flat[0] + newline + flat[1:-1] + close + flat[-1])
    elif isinstance(value, dict):
        text.append("{")
        for i, (key, item) in enumerate(sorted(value.items())):
            text.append(("," if i else "") + newline + _key(encoder, key) + ": ")
            _encode(item, depth + 1, text, fh)
        text.append(close + "}")
    else:
        text.append("[")
        for i, item in enumerate(value):
            text.append(("," if i else "") + newline)
            _encode(item, depth + 1, text, fh)
        text.append(close + "]")


def _key(encoder: json.JSONEncoder, key) -> str:
    """A dict key as json writes it: a string, or a number, true, false or
    null written as one."""
    if isinstance(key, str):
        return encoder.encode(key)
    if key is not None and not isinstance(key, (int, float)):
        raise TypeError(f"keys must be str, int, float, bool or None, "
                        f"not {type(key).__name__}")
    return encoder.encode(encoder.encode(key))


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence[Any]]) -> None:
    """Write ``header`` and ``rows`` as CSV; a file that cannot be written
    raises ``ConfigError`` and writes nothing."""
    with _replaced(Path(path), "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def cost_report_payload(report: CostReport, meta: Mapping[str, Any]) -> dict:
    return {
        "meta": dict(meta),
        "arch": report.arch_name,
        "per_layer": [
            {"layer_id": l.layer_id, "kind": l.kind.value, "label": l.label,
             "params": l.params, "fwd_flops": l.fwd_flops,
             "activation_bytes_per_sample": l.activation_bytes_per_sample,
             "output_len": l.output_len}
            for l in report.per_layer
        ],
        "module_totals": {
            name: {"params": params, "fwd_flops": flops}
            for name, (params, flops) in report.module_totals.items()
        },
        "rollup": module_rollup(report),
        "grand_total": {"params": report.total_params,
                        "fwd_flops": report.total_fwd_flops},
    }


def cost_report_rows(report: CostReport) -> list[list]:
    return [[l.layer_id, l.kind.value, l.label, l.params, f"{l.fwd_flops:.6g}",
             f"{l.activation_bytes_per_sample:.6g}", l.output_len]
            for l in report.per_layer]


COST_CSV_HEADER = ["layer_id", "kind", "label", "params", "fwd_flops",
                   "activation_bytes_per_sample", "output_len"]


def timeline_payload(timeline: MemoryTimeline, meta: Mapping[str, Any]) -> dict:
    return {
        "meta": dict(meta),
        "arch": timeline.arch_name,
        "static_bytes": timeline.static_bytes,
        "activation_overhead": timeline.activation_overhead,
        "activation_bytes": timeline.activation_bytes,
        "peak_bytes": timeline.peak_bytes,
        "per_layer": [
            {"layer_id": i, "kind": kind, "label": label, "bytes": b,
             "cumulative_bytes": c}
            for i, (kind, label, b, c) in enumerate(
                zip(timeline.layer_kinds, timeline.layer_labels,
                    timeline.per_layer_bytes, timeline.cumulative_bytes))
        ],
    }


TIMELINE_CSV_HEADER = ["layer_id", "kind", "label", "bytes", "cumulative_bytes"]


def timeline_rows(timeline: MemoryTimeline) -> list[list]:
    return [[i, kind, label, f"{b:.6g}", f"{c:.6g}"]
            for i, (kind, label, b, c) in enumerate(
                zip(timeline.layer_kinds, timeline.layer_labels,
                    timeline.per_layer_bytes, timeline.cumulative_bytes))]


def client_ids(n_clients: int) -> Iterator[str]:
    """Each client's id in turn, zero-padded so ids sort in client order."""
    width = len(str(n_clients - 1))
    return (f"client_{idx:0{width}d}" for idx in range(n_clients))


def partition_payload(partition: Partition, meta: Mapping[str, Any]) -> dict:
    clients = [{"client_id": cid, "n_utterances": n, "total_duration_s": round(total, 6),
                "n_speakers": held}
               for cid, n, total, held in zip(client_ids(partition.n_clients),
                                              partition.n_utterances.tolist(),
                                              partition.total_duration_s.tolist(),
                                              partition.n_speakers.tolist())]
    if partition.manifest is not None:  # an idealised client has no ids
        # client c's ids: the texts of its speakers, each a run of the manifest's
        texts, offsets = partition.manifest.utterance_ids, partition.manifest.id_offsets
        ends = partition.n_speakers.cumsum().tolist()
        for entry, lo, hi in zip(clients, [0] + ends, ends):
            speakers = partition.speakers[lo:hi]
            entry["utterance_ids"] = StreamedList(
                texts, runs=(offsets[speakers], offsets[speakers + 1]))
    return {"meta": dict(meta), "seed": partition.seed, "clients": clients}


def schedule_payload(schedule: RoundSchedule, meta: Mapping[str, Any]) -> dict:
    return {
        "meta": dict(meta),
        "total_clients": schedule.total_clients,
        "per_round": schedule.per_round,
        "seed": schedule.seed,
        "rounds": StreamedList(range(schedule.n_rounds),
                               functools.partial(_round_text, schedule.selected)),
    }


def _round_text(selected: np.ndarray, round_id: int) -> str:
    """Round ``round_id`` as ``json.dumps(indent=2, sort_keys=True)`` writes it."""
    listed = ",\n    ".join(map(int.__repr__, selected[round_id].tolist()))  # never empty
    return f'{{\n  "round_id": {round_id},\n  "selected": [\n    {listed}\n  ]\n}}'


def wall_clock_payload(estimate: WallClockEstimate, communication_bytes: float,
                       meta: Mapping[str, Any]) -> dict:
    return {
        "meta": dict(meta),
        "seconds_per_local_epoch": dict(zip(
            client_ids(len(estimate.seconds_per_local_epoch)),
            (round(v, 6) for v in estimate.seconds_per_local_epoch.tolist()))),
        "device_breakdown_s": {k: round(v, 6) for k, v in
                               sorted(estimate.device_breakdown.items())},
        "n_rounds": len(estimate.seconds_per_round),
        "total_seconds": round(estimate.total_seconds, 6),
        "total_hours": round(estimate.total_hours, 6),
        "total_days": round(estimate.total_days, 6),
        "communication_bytes": communication_bytes,
    }


TRAJECTORY_CSV_HEADER = ["round", "mean_client_loss", "min_client_loss",
                         "max_client_loss", "population_loss", "distance_to_optimum"]


def trajectory_rows(trajectory: Trajectory) -> list[list]:
    losses = trajectory.client_losses
    columns = (losses.mean(axis=1), losses.min(axis=1), losses.max(axis=1),
               trajectory.population_loss, trajectory.distance_to_optimum)
    return [[round_id, *(f"{x:.10g}" for x in row)]
            for round_id, row in enumerate(zip(*(c.tolist() for c in columns)))]


def trajectory_payload(trajectory: Trajectory, meta: Mapping[str, Any]) -> dict:
    return {
        "meta": dict(meta),
        "n_rounds": len(trajectory.population_loss),
        "final_weights": trajectory.final_weights.tolist(),
        "final_population_loss": trajectory.population_loss[-1].item(),
        "final_distance_to_optimum": trajectory.distance_to_optimum[-1].item(),
    }
