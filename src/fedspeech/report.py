"""Deterministic JSON and CSV report emission.

Reports carry the fully resolved configuration and its fingerprint, never a
timestamp, so identical inputs produce byte-identical files. Each write goes
through a temp file of its own and an atomic rename, so a failed run never
leaves partial output behind, nor two runs a mixed one. Writers make no
directory: a command makes its output directory once.

A section with one entry per client or per round (``fl_partition.json``'s
clients, ``fl_schedule.json``'s rounds, ``fl_plan.json``'s epoch times and
the rows of ``fl_plan.csv`` and ``fl_sim.csv``) is text filled into a
%-template per row, straight from the columns that hold it: a piece of rows
at a time, each in one %-call, so no object is made per client or per round
and memory stays bounded at any count. A plan's round times stay an array.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import os
from contextlib import contextmanager
from itertools import chain, count, repeat
from json.encoder import c_make_encoder, encode_basestring_ascii
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, Optional, Sequence

from .aggregation import Trajectory
from .costs import CostReport
from .errors import ConfigError
from .federation import Partition, RoundSchedule, WallClockEstimate
from .lazy import np
from .memory import MemoryTimeline


class Rows:
    """``n`` rows of text, each a %-template filled with one row's values.
    ``values(lo, hi)`` gives the values of rows ``lo`` to ``hi - 1``, row by
    row in one flat sequence, ``width`` to a row. A template holds a format
    for each value and "%%" for each "%" of its own; ``%d`` is given Python
    ints and ``%r`` Python floats, whose repr is their JSON text."""

    def __init__(self, row: str, n: int, width: int, values: Callable[[int, int], Sequence]):
        self.row, self.n, self.width, self.values = row, n, width, values

    def texts(self, row: str, sep: str, per: Optional[int] = None) -> Iterator[str]:
        """The rows, each filled into ``row`` (this one's template or a
        re-indented copy), joined by ``sep``: a piece of ``per`` rows, or of
        about ``_CHUNK_VALUES`` values, made in one %-call once the piece before
        is taken; each piece but the last ends with ``sep``."""
        per = per or max(1, _CHUNK_VALUES // self.width)
        for lo in range(0, self.n, per):
            hi = min(lo + per, self.n)
            text = sep.join([row] * (hi - lo)) % tuple(self.values(lo, hi))
            yield text if hi == self.n else text + sep


_CHUNK_VALUES = 1 << 12


class StreamedList:
    """A JSON list in a payload, or with ``brackets="{}"`` a JSON object, which
    ``write_json`` writes in pieces, never walking its items one by one in the
    encoder. Its items are given in one of two ways.

    As texts: ``items`` is a bytes-like object of the items' own JSON texts,
    each followed by the separator of the list's items at the depth it is
    written at, as a ``Manifest`` holds utterance ids for
    ``fl_partition.json``; with ``runs``, a pair of arrays of (start, end)
    byte offsets, none empty, the list holds the texts of those ranges in
    turn. Texts that do not end with that separator raise ``ValueError``.

    As rows: ``items`` is a ``Rows`` whose template is one item's JSON text
    (in an object, one ``"key": value`` member) as ``json.dumps(indent=2,
    sort_keys=True)`` writes it at the top level. With ``last``, a key and one
    ``StreamedList`` per item, each item is a dict whose template ends before
    that key, which sorts after the template's keys, and its list."""

    def __init__(self, items, runs: Optional[tuple[np.ndarray, np.ndarray]] = None,
                 brackets: str = "[]",
                 last: Optional[tuple[str, Sequence[StreamedList]]] = None):
        self.items, self.runs, self.brackets, self.last = items, runs, brackets, last

    def __bool__(self) -> bool:
        if isinstance(self.items, Rows):
            return self.items.n > 0
        return len(self.items if self.runs is None else self.runs[0]) > 0

    def pieces(self, depth: int) -> Iterator[bytes | memoryview]:
        """The JSON text at nesting ``depth``, in bytes-like pieces of at most
        ``_PER_CHUNK`` runs or about ``_CHUNK_VALUES`` row values, each made
        once the one before is written."""
        if not self:
            yield self.brackets.encode("ascii")
            return
        indent = "  " * (depth + 1)
        sep = ",\n" + indent
        yield (self.brackets[0] + "\n" + indent).encode("ascii")
        if not isinstance(self.items, Rows):  # texts, each followed by the separator
            texts, end = memoryview(self.items), sep.encode("ascii")
            starts, ends = ([0], [len(texts)]) if self.runs is None else \
                (run.tolist() for run in self.runs)
            n = len(starts)
            for lo in range(0, n, _PER_CHUNK):
                text = b"".join(map(texts.__getitem__, map(
                    slice, starts[lo:lo + _PER_CHUNK], ends[lo:lo + _PER_CHUNK])))
                if not text.endswith(end):
                    raise ValueError(f"texts not separated as a list at depth {depth}")
                yield text if lo + _PER_CHUNK < n else memoryview(text)[:-len(end)]
        elif self.last is None:  # an item's own lines are indented with it
            for text in self.items.texts(self.items.row.replace("\n", "\n" + indent), sep):
                yield text.encode("ascii")
        else:  # each item a dict: its template's members, then its streamed last one
            key, lists = self.last
            close = "\n" + indent + "}"
            row = self.items.row.replace("\n", "\n" + indent)
            head = row[:-len(close)] + ",\n" + indent + "  " + json.dumps(key) + ": "
            for i, text in enumerate(self.items.texts(head, "", per=1)):
                yield text.encode("ascii")
                yield from lists[i].pieces(depth + 2)
                yield (close if i + 1 == self.items.n else close + sep).encode("ascii")
        yield ("\n" + "  " * depth + self.brackets[1]).encode("ascii")


_PER_CHUNK = 256
_temp_numbers = count()  # one per temp file this process makes


@contextmanager
def replaced(path: Path, mode: str, **kwargs):
    """A file created in ``mode`` in place of ``path``: a temp file of this
    call's own beside it, renamed over ``path`` once written. An ``OSError``
    raises ``ConfigError`` and leaves no temp file; ``path`` is then untouched."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{next(_temp_numbers)}.tmp")
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
    or tuple that holds no container, and a list or tuple of non-empty dicts
    that hold none, is encoded in one call to json's C encoder; only other
    containers of containers are walked here, and a ``StreamedList`` writes
    its pieces where it stands. A non-finite number in ``payload``, texts a
    ``StreamedList`` cannot write at their depth, or a file that cannot be
    written, raises ``ConfigError`` and leaves no file."""
    path = Path(path)
    with replaced(path, "xb") as fh:
        text: list[str] = []  # encoded, not yet written
        try:
            _encode(payload, 0, text, fh)
        except ValueError as exc:  # a NaN or an infinity, or texts of another depth
            raise ConfigError(f"cannot write {path.name}: {exc}") from None
        text.append("\n")
        fh.write("".join(text).encode("ascii"))  # every non-ASCII character is escaped


_CONTAINERS = (dict, list, tuple, StreamedList)


@functools.cache
def _encoder(depth: int) -> Callable[[Any, int], list[str]]:
    """json's C encoder of a container at nesting ``depth``, made once: it
    separates the items as ``json.dumps(indent=2)`` does there, and is
    called as ``(value, 0)`` for a list of texts. It keeps no markers, as
    it is only given values that hold no container or rows that hold
    none, which cannot hold themselves."""
    return c_make_encoder(None, str, encode_basestring_ascii, None, ": ",
                          ",\n" + "  " * (depth + 1), True, False, False)


def _json(value, depth: int) -> str:
    """The JSON text of ``value``, which holds no container, or of rows,
    with the items parted as at nesting ``depth`` but no newline after its
    opening bracket or before its closing one."""
    return "".join(_encoder(depth)(value, 0))


def _flat(values: Iterable) -> bool:
    """No value of ``values`` is a container."""
    return not any(map(isinstance, values, repeat(_CONTAINERS)))


def _encode(value, depth: int, text: list[str], fh) -> None:
    """Append the JSON text of ``value`` at nesting ``depth`` to ``text``; a
    ``StreamedList`` first writes ``text`` to ``fh``, then its pieces."""
    if isinstance(value, StreamedList):
        fh.write("".join(text).encode("ascii"))
        text.clear()
        for piece in value.pieces(depth):
            fh.write(piece)
        return
    if isinstance(value, dict):
        items = value.values()
    elif isinstance(value, (list, tuple)):
        items = value
    else:  # a scalar, or an object that default=str writes as a string
        text.append(_json(value, depth))
        return
    newline, close = "\n" + "  " * (depth + 1), "\n" + "  " * depth
    if _flat(items):
        flat = _json(value, depth)  # "{}", "[]", or brackets around the items
        text.append(flat if len(flat) == 2 else flat[0] + newline + flat[1:-1] + close + flat[-1])
    elif items is value and all(map(isinstance, items, repeat(dict))) and all(items) \
            and _flat(chain.from_iterable(map(dict.values, items))):
        # rows, encoded at the rows' depth, whose item separator parts the
        # rows too. A separator after a "}" comes after a row, as a row holds
        # no container and a JSON string no raw newline, so one replace puts
        # the braces of each row on lines of their own
        inner = newline + "  "
        rows = _json(value, depth + 1)[2:-2].replace(
            "}," + inner + "{", newline + "}," + newline + "{" + inner)
        text.append("[" + newline + "{" + inner + rows + newline + "}" + close + "]")
    elif isinstance(value, dict):
        text.append("{")
        for i, (key, item) in enumerate(sorted(value.items())):
            text.append(("," if i else "") + newline + _key(key) + ": ")
            _encode(item, depth + 1, text, fh)
        text.append(close + "}")
    else:
        text.append("[")
        for i, item in enumerate(value):
            text.append(("," if i else "") + newline)
            _encode(item, depth + 1, text, fh)
        text.append(close + "]")


def _key(key) -> str:
    """A dict key as json writes it: a string, or a number, true, false or
    null written as one."""
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    if key is not None and not isinstance(key, (int, float)):
        raise TypeError(f"keys must be str, int, float, bool or None, "
                        f"not {type(key).__name__}")
    return encode_basestring_ascii(_json(key, 0))


def write_csv(path, header: Sequence[str], rows: Rows | Iterable[Sequence[Any]]) -> None:
    """Write ``header`` and ``rows`` as CSV, where ``Rows`` are lines of CSV
    text; a file that cannot be written raises ``ConfigError`` and writes
    nothing."""
    with replaced(Path(path), "x", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        if isinstance(rows, Rows):
            for text in rows.texts(rows.row, ""):
                fh.write(text)
        else:
            writer.writerows(rows)


def cost_report_payload(report: CostReport, rollup: list[dict],
                        meta: Mapping[str, Any]) -> dict:
    """The analyze report; ``rollup`` is ``costs.module_rollup(report)``."""
    return {
        "meta": dict(meta),
        "arch": report.arch_name,
        "per_layer": [
            {"layer_id": i, "kind": kind.value, "label": label, "params": params,
             "fwd_flops": flops, "activation_bytes_per_sample": activation,
             "output_len": out_len}
            for i, (kind, label, params, flops, activation, out_len) in _layers(report)
        ],
        "module_totals": {
            name: {"params": params, "fwd_flops": flops}
            for name, (params, flops) in report.module_totals.items()
        },
        "rollup": rollup,
        "grand_total": {"params": report.total_params,
                        "fwd_flops": report.total_fwd_flops},
    }


def cost_report_rows(report: CostReport) -> list[list]:
    return [[i, kind.value, label, params, f"{flops:.6g}", f"{activation:.6g}", out_len]
            for i, (kind, label, params, flops, activation, out_len) in _layers(report)]


def _layers(report: CostReport) -> Iterator[tuple[int, tuple]]:
    """Each layer's number and its entries of the report's columns."""
    return enumerate(zip(report.kinds, report.labels, report.params, report.fwd_flops,
                         report.activation_bytes_per_sample, report.output_lens))


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


def _client_id(n_clients: int) -> str:
    """The %-format of a client's id, zero-padded so ids sort in client order."""
    return f"client_%0{len(str(n_clients - 1))}d"


def _interleaved(*columns: Sequence) -> list:
    """The values of ``columns``, each as long as the first, row by row."""
    flat = [None] * (len(columns) * len(columns[0]))
    for j, column in enumerate(columns):
        flat[j::len(columns)] = column
    return flat


def _rounded(column: np.ndarray) -> list[float]:
    """``column``'s values rounded to 6 decimals; a NaN or an infinity raises
    the ``ValueError`` json raises for it."""
    finite = np.isfinite(column)
    if not finite.all():
        _json(column[~finite][0].item(), 0)
    return [round(v, 6) for v in column.tolist()]


def partition_payload(partition: Partition, meta: Mapping[str, Any]) -> dict:
    held, utterances, totals = \
        partition.n_speakers, partition.n_utterances, partition.total_duration_s
    row = ('{\n  "client_id": "%s",\n  "n_speakers": %%d,\n  "n_utterances": %%d,\n'
           '  "total_duration_s": %%r\n}') % _client_id(partition.n_clients)
    clients = Rows(row, partition.n_clients, 4, lambda lo, hi: _interleaved(
        range(lo, hi), held[lo:hi].tolist(), utterances[lo:hi].tolist(),
        _rounded(totals[lo:hi])))
    ids = None
    if partition.manifest is not None:  # an idealised client has no ids
        # client c's ids: the texts of its speakers, each a run of the manifest's
        texts, offsets = partition.manifest.utterance_ids, partition.manifest.id_offsets
        ends = held.cumsum().tolist()
        speakers = [partition.speakers[lo:hi] for lo, hi in zip([0] + ends, ends)]
        ids = ("utterance_ids", [StreamedList(texts, runs=(offsets[s], offsets[s + 1]))
                                 for s in speakers])
    return {"meta": dict(meta), "seed": partition.seed,
            "clients": StreamedList(clients, last=ids)}


def schedule_payload(schedule: RoundSchedule, meta: Mapping[str, Any]) -> dict:
    selected = schedule.selected  # never empty
    row = ('{\n  "round_id": %d,\n  "selected": [\n    '
           + ",\n    ".join(["%d"] * schedule.per_round) + "\n  ]\n}")
    return {
        "meta": dict(meta),
        "total_clients": schedule.total_clients,
        "per_round": schedule.per_round,
        "seed": schedule.seed,
        "rounds": StreamedList(Rows(
            row, schedule.n_rounds, 1 + schedule.per_round, lambda lo, hi: np.column_stack(
                (np.arange(lo, hi), selected[lo:hi])).ravel().tolist())),
    }


def wall_clock_payload(estimate: WallClockEstimate, communication_bytes: float,
                       meta: Mapping[str, Any]) -> dict:
    epochs = estimate.seconds_per_local_epoch
    return {
        "meta": dict(meta),
        "seconds_per_local_epoch": StreamedList(
            Rows(f'"{_client_id(len(epochs))}": %r', len(epochs), 2,
                 lambda lo, hi: _interleaved(range(lo, hi), _rounded(epochs[lo:hi]))),
            brackets="{}"),
        "device_breakdown_s": {estimate.device: round(epochs.max().item(), 6)},
        "n_rounds": len(estimate.seconds_per_round),
        "total_seconds": round(estimate.total_seconds, 6),
        "total_hours": round(estimate.total_hours, 6),
        "total_days": round(estimate.total_days, 6),
        "communication_bytes": communication_bytes,
    }


PLAN_CSV_HEADER = ["client_id", "device", "n_utterances", "seconds_per_local_epoch"]


def plan_rows(partition: Partition, estimate: WallClockEstimate) -> Rows:
    """``fl_plan.csv``'s rows, one per client on the estimate's device, which
    csv quotes as it needs."""
    quoted = io.StringIO()
    csv.writer(quoted, lineterminator="\n").writerow(
        [_client_id(partition.n_clients), estimate.device.replace("%", "%%"), "%d", "%.6g"])
    utterances, epochs = partition.n_utterances, estimate.seconds_per_local_epoch
    return Rows(quoted.getvalue(), partition.n_clients, 3, lambda lo, hi: _interleaved(
        range(lo, hi), utterances[lo:hi].tolist(), epochs[lo:hi].tolist()))


def straggler_rows(estimate: WallClockEstimate, stragglers: np.ndarray) -> Rows:
    """One line per round: its straggler, by the id the plan's reports give
    it, the round's seconds and their share of the plan's total."""
    rounds, total = estimate.seconds_per_round, estimate.total_seconds
    return Rows(f"round %d: straggler {_client_id(len(estimate.seconds_per_local_epoch))}, "
                "%.6g s (%.4f%% of the total)", len(rounds), 4, lambda lo, hi: _interleaved(
                    range(lo, hi), stragglers[lo:hi].tolist(), rounds[lo:hi].tolist(),
                    (rounds[lo:hi] * (100 / total)).tolist()))


TRAJECTORY_CSV_HEADER = ["round", "mean_client_loss", "min_client_loss",
                         "max_client_loss", "population_loss", "distance_to_optimum"]


def trajectory_rows(trajectory: Trajectory) -> Rows:
    losses = trajectory.client_losses
    columns = (losses.mean(axis=1), losses.min(axis=1), losses.max(axis=1),
               trajectory.population_loss, trajectory.distance_to_optimum)
    return Rows("%d" + ",%.10g" * 5 + "\n", len(losses), 6, lambda lo, hi: _interleaved(
        range(lo, hi), *(column[lo:hi].tolist() for column in columns)))


def trajectory_payload(trajectory: Trajectory, meta: Mapping[str, Any]) -> dict:
    return {
        "meta": dict(meta),
        "n_rounds": len(trajectory.population_loss),
        "final_weights": trajectory.final_weights.tolist(),
        "final_population_loss": trajectory.population_loss[-1].item(),
        "final_distance_to_optimum": trajectory.distance_to_optimum[-1].item(),
    }
