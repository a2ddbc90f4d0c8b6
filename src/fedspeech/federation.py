"""Manifest ingestion, speaker-disjoint partitioning, round schedules, and
federated wall-clock / communication estimates.

Partitioning is greedy longest-first bin packing over speakers: speakers are
sorted by total speech duration (descending, equal durations shuffled under
the seed) and assigned one by one to the currently lightest client. That is
deterministic for a fixed seed and balances within a few parts per thousand
on corpus-scale manifests; optimal partitioning would be NP-hard and buys
nothing at the tolerances that matter here.

A partition is columns, one entry per client: clip counts, total durations
and speaker counts, and for a manifest partition the manifest's speakers in
client order. Client ids are made only where a report writes them.

Rounds are synchronous, one array of client indices that fl-plan and fl-sim
share: a round takes as long as its slowest selected client, and every client
trains on one device at its predicted seconds per batch at the client's mean
utterance duration.
"""

from __future__ import annotations

import csv
import heapq
import io
import math
from collections import defaultdict
from dataclasses import dataclass, field, replace
from functools import cached_property
from json.encoder import encode_basestring_ascii
from typing import Optional, Sequence

from .arch import REFERENCE_CLIP_S, ArchitectureSpec, Precision, WorkloadSpec
from .costs import CostReport
from .devices import DeviceProfile, predict_batch_time
from .errors import ConfigError, MalformedRowError, ManifestError, allocating
from .lazy import np


# Adapter for raw Common Voice exports: validated.tsv names its columns
# client_id / path, and duration shows up under several names depending on
# release tooling.
_COLUMN_ALIASES = {
    "client_id": "speaker_id",
    "path": "utterance_id",
    "duration": "duration_s",
    "duration[ms]": "duration_ms",
}


# Utterance ids are held as their JSON texts, quotes included, each followed
# by the separator that fl_partition.json puts after an id: its client's list
# is at nesting depth 3, whose items are parted by a comma, a newline and 8
# spaces of indent. The texts are ASCII in one uint8 array, and a report
# writes a client's texts as they are but for its last separator.
ID_SEPARATOR = ",\n" + " " * 8


def encode_ids(ids: Sequence[str]) -> tuple[bytes, np.ndarray]:
    """The JSON texts of ``ids``, each followed by ``ID_SEPARATOR``, as a
    ``Manifest`` holds them, and each one's length with its separator."""
    encoded = list(map(encode_basestring_ascii, ids))
    lengths = np.fromiter(map(len, encoded), np.int64, len(encoded)) + len(ID_SEPARATOR)
    encoded.append("")  # the separator after the last text
    return ID_SEPARATOR.join(encoded).encode("ascii") if lengths.size else b"", lengths


@dataclass(frozen=True, eq=False)
class Manifest:
    """A manifest as columns, its rows grouped by speaker.

    Speakers are numbered in the name order of their ids, which the manifest
    does not keep: speaker ``s`` holds the ``speaker_rows[s]`` rows (at least
    one) that follow those of the speakers before it, in file order.
    ``durations_s`` has one entry per row. ``utterance_ids`` holds the bytes
    of each row's id as its JSON text followed by ``ID_SEPARATOR``, in row
    order (see ``encode_ids``): the bytes ``fl_partition.json`` lists them
    as. Speaker ``s``'s texts, separators included, take
    ``speaker_bytes[s]`` bytes of it. ``speaker_totals_s[s]`` is the sum of
    speaker ``s``'s durations, added in row order one at a time, and
    ``longest_first`` holds the speakers by descending total, equal totals
    in name order: both are made once, by ``grouped``, and a plan reads
    them.
    """
    utterance_ids: np.ndarray  # uint8
    speaker_rows: np.ndarray  # int64, one row count per speaker
    speaker_bytes: np.ndarray  # int64, one byte count of utterance_ids per speaker
    durations_s: np.ndarray  # float64
    speaker_totals_s: np.ndarray  # float64, one total duration per speaker
    longest_first: np.ndarray  # int64, the speakers, longest total first

    @classmethod
    def grouped(cls, utterance_ids: np.ndarray, speaker_rows: np.ndarray,
                speaker_bytes: np.ndarray, durations_s: np.ndarray) -> "Manifest":
        """The manifest of these columns, with each speaker's total and the
        longest-first order made from them."""
        # bincount adds each speaker's durations in row order, one at a time
        # (np.add.reduceat would pair them and round differently); so does
        # _sum_in_order each client's.
        totals = np.bincount(np.repeat(np.arange(len(speaker_rows)), speaker_rows),
                             weights=durations_s, minlength=len(speaker_rows))
        return cls(utterance_ids, speaker_rows, speaker_bytes, durations_s,
                   totals, np.argsort(-totals, kind="stable"))

    @classmethod
    def of_rows(cls, utterance_ids: Sequence[str], speaker_rows, durations_s) -> "Manifest":
        """The manifest of rows already grouped by speaker."""
        texts, lengths = encode_ids(utterance_ids)
        speaker_rows = np.asarray(speaker_rows, np.int64)
        ends = np.cumsum(lengths)[np.cumsum(speaker_rows) - 1]
        return cls.grouped(np.frombuffer(texts, np.uint8), speaker_rows,
                           np.diff(ends, prepend=0), np.asarray(durations_s, np.float64))

    def __len__(self) -> int:
        return len(self.durations_s)

    @cached_property
    def id_offsets(self) -> np.ndarray:
        """Where each speaker's texts start in ``utterance_ids``, and after
        them the end of the last."""
        return np.concatenate(([0], np.cumsum(self.speaker_bytes)))


@dataclass(frozen=True, eq=False)
class Partition:
    """Clients as columns, one entry per client in client order. A manifest
    partition also keeps its manifest and ``speakers``, the positions there
    of each client's speakers in turn: client ``c`` holds the
    ``n_speakers[c]`` that follow those of the clients before it, whose rows
    it holds in that order, each speaker's in manifest order. An idealised
    partition has neither: each client is a count of one speaker's clips."""
    n_utterances: np.ndarray  # int64
    total_duration_s: np.ndarray  # float64, each client's durations added in order
    n_speakers: np.ndarray  # int64
    seed: int
    manifest: Optional[Manifest] = field(default=None, repr=False)
    speakers: Optional[np.ndarray] = None  # int64, the manifest's speakers, client by client

    @property
    def n_clients(self) -> int:
        return len(self.n_utterances)

    @property
    def mean_duration_s(self) -> np.ndarray:
        return self.total_duration_s / self.n_utterances


@dataclass(frozen=True, eq=False)
class RoundSchedule:
    """Row ``r`` of ``selected`` holds the clients round ``r`` trains, ascending."""
    selected: np.ndarray  # int64, (n_rounds, per_round), drawn under ``seed``
    total_clients: int
    seed: int

    @property
    def n_rounds(self) -> int:
        return self.selected.shape[0]

    @property
    def per_round(self) -> int:
        return self.selected.shape[1]


@dataclass(frozen=True, eq=False)
class WallClockEstimate:
    device: str  # the one device every client trains on
    seconds_per_local_epoch: np.ndarray  # float64, one local epoch of each client
    seconds_per_round: np.ndarray  # float64, the slowest selected client of each round
    total_seconds: float  # the round times added in order

    @property
    def total_hours(self) -> float:
        return self.total_seconds / 3600.0

    @property
    def total_days(self) -> float:
        return self.total_seconds / 86400.0


# ---------------------------------------------------------------------------
# Manifest handling


_READ_BLOCK_BYTES = 4 << 20
_id_hash = hash  # of each id a block adds


def load_manifest(path) -> Manifest:
    """Read a tab-separated manifest with utterance_id, speaker_id, duration_s.

    The rows come grouped by speaker, as a ``Manifest`` holds them.

    Raw Common Voice column names (client_id, path, duration in ms) are
    accepted through the documented alias map. Blank lines are skipped. Rows
    with missing fields, empty ids, durations that are not positive finite
    numbers, or an utterance id seen before are rejected with their line
    number.

    The file is read in blocks cut at the last newline. A block is plain
    when it has no ``"`` byte anywhere and no carriage return but right
    before a newline, every line has the same number of tab-separated
    fields, the bytes are UTF-8, no id is empty and every duration is
    positive and finite. A plain block is split into columns at once, and
    keeps the ``hash()`` of each id instead of the id. Unless every block is
    plain and no two of those hashes are equal, the whole file is read again
    from line 2 with ``csv.reader``, whose quoting rules then apply and
    which alone names a bad row. A header that starts with a
    UTF-8 byte order mark is read without it.
    """
    with open(path, "rb") as fh:
        header_line = fh.readline()
        if not header_line:
            raise ManifestError("manifest is empty")
        cr = header_line.find(b"\r")
        if 0 <= cr < len(header_line) - 2:  # lines end in bare carriage returns
            header_line = header_line[:cr + 1]
            fh.seek(cr + 1)
        try:
            header = next(csv.reader([header_line.decode("utf-8-sig")], delimiter="\t"), [])
        except UnicodeDecodeError:
            raise MalformedRowError(1, _NOT_UTF8) from None
        names = [_COLUMN_ALIASES.get(h.strip(), h.strip()) for h in header]
        index: dict[str, int] = {}
        for i, name in enumerate(names):
            index.setdefault(name, i)

        if "duration_s" in index:
            dur_col, dur_scale = index["duration_s"], 1.0
        elif "duration_ms" in index:
            dur_col, dur_scale = index["duration_ms"], 1e-3
        else:
            raise ManifestError("manifest has no duration column "
                                "(duration_s, duration, or duration_ms)")
        for required in ("utterance_id", "speaker_id"):
            if required not in index:
                raise ManifestError(f"manifest has no {required} column")

        def new_columns():
            return _ManifestColumns(index["utterance_id"], index["speaker_id"], dur_col,
                                    dur_scale)

        columns, rest, plain = new_columns(), b"", True
        while plain:
            chunk = fh.read(_READ_BLOCK_BYTES)
            data = rest + chunk
            if not chunk:
                if not data:
                    break
                data += b"\n"  # a last line without its newline
            cut = data.rfind(b"\n") + 1
            block, rest = data[:cut], data[cut:]
            plain = not block or columns.add_block(block)
        if not plain or columns.may_repeat_an_id():  # read every row again, one at a time
            columns = new_columns()
            fh.seek(len(header_line))
            with io.TextIOWrapper(fh, encoding="utf-8", errors="surrogateescape",
                                  newline="") as text:  # closes fh too
                columns.add_rows(text)
        return columns.manifest()


class _ManifestColumns:
    """Validated manifest columns, filled in file order by ``load_manifest``
    and grouped by speaker at the end."""

    def __init__(self, utt_col: int, spk_col: int, dur_col: int, dur_scale: float):
        self.utt_col, self.spk_col, self.dur_col = utt_col, spk_col, dur_col
        self.n_fields = max(utt_col, spk_col, dur_col) + 1
        self.dur_scale = dur_scale
        # Each block's ids: their JSON texts, each followed by ID_SEPARATOR,
        # the length of each, and (from add_block) the hash of each id.
        self.id_texts: list[bytes] = []
        self.id_lengths: list[np.ndarray] = []
        self.id_hashes: list[np.ndarray] = []
        # Looking up a new speaker inserts it with the next free code.
        self.speaker_code: defaultdict[str, int] = defaultdict()
        self.speaker_code.default_factory = self.speaker_code.__len__
        self.codes: list[np.ndarray] = []
        self.durations: list[np.ndarray] = []

    def add_block(self, block: bytes) -> bool:
        """Add a block of whole lines and return True, or return False
        unless every line is a plain row that keeps every rule but that its
        id be new: the file then goes to ``add_rows``."""
        if b'"' in block:
            return False
        if b"\r" in block:
            if block.count(b"\r") != block.count(b"\r\n"):
                return False
            block = block.replace(b"\r\n", b"\n")
        raw = np.frombuffer(block, np.uint8)
        tabs_per_line = np.diff(np.searchsorted(np.flatnonzero(raw == 9),
                                                np.flatnonzero(raw == 10)), prepend=0)
        width = int(tabs_per_line[0]) + 1
        if width < self.n_fields or (tabs_per_line != width - 1).any():
            return False
        try:
            text = block.decode("utf-8")
        except UnicodeDecodeError:
            return False
        text = text.replace("\n", "\t")  # one string alive during the split
        fields = text.split("\t")
        del text
        fields.pop()  # the empty string after the last newline
        ids = list(map(str.strip, fields[self.utt_col::width]))
        speakers = list(map(str.strip, fields[self.spk_col::width]))
        raw_durations = fields[self.dur_col::width]
        del fields
        if "" in ids or "" in speakers:
            return False
        try:
            # float() semantics for each string, as the csv path has
            durations = np.array(raw_durations, dtype=np.float64) * self.dur_scale
        except ValueError:
            return False
        if not (np.isfinite(durations) & (durations > 0)).all():
            return False
        self.id_hashes.append(np.fromiter(map(_id_hash, ids), np.int64, len(ids)))
        self._add(ids, speakers, durations)
        return True

    def may_repeat_an_id(self) -> bool:
        """Whether two ids that ``add_block`` added have one hash, as two
        rows of one id do."""
        hashes = np.concatenate(self.id_hashes or [np.empty(0, np.int64)])
        self.id_hashes.clear()
        hashes.sort()
        return bool((hashes[1:] == hashes[:-1]).any())

    def add_rows(self, text) -> None:
        """Add every row of ``text``, the file after its header line, read
        with ``csv.reader``."""
        seen = set()
        ids, speakers, durations = [], [], []
        for line_no, row in enumerate(csv.reader(text, delimiter="\t"), start=2):
            if _has_undecoded_bytes(row):
                raise MalformedRowError(line_no, _NOT_UTF8)
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) < self.n_fields:
                raise MalformedRowError(
                    line_no, f"expected {self.n_fields} fields, got {len(row)}")
            utt = row[self.utt_col].strip()
            spk = row[self.spk_col].strip()
            if not utt or not spk:
                raise MalformedRowError(line_no, "empty utterance or speaker id")
            text = row[self.dur_col]
            try:
                duration = float(text) * self.dur_scale
            except ValueError:
                raise MalformedRowError(line_no,
                                        f"duration {text!r} is not a number") from None
            if not math.isfinite(duration):
                raise MalformedRowError(line_no, f"duration {duration!r} is not finite")
            if not duration > 0:
                raise MalformedRowError(line_no, f"non-positive duration {duration!r}")
            if utt in seen:
                raise MalformedRowError(line_no, f"duplicate utterance id {utt!r}")
            seen.add(utt)
            ids.append(utt)
            speakers.append(spk)
            durations.append(duration)
        self._add(ids, speakers, np.array(durations, dtype=np.float64))

    def _add(self, ids: list[str], speakers: list[str], durations: np.ndarray) -> None:
        texts, lengths = encode_ids(ids)
        self.id_texts.append(texts)
        self.id_lengths.append(lengths)
        self.codes.append(np.fromiter(map(self.speaker_code.__getitem__, speakers),
                                      np.int64, len(speakers)))
        self.durations.append(durations)

    def manifest(self) -> Manifest:
        """The rows grouped by speaker, speakers numbered in name order. Each
        block's columns go straight to their grouped positions and are
        released once there."""
        names = sorted(self.speaker_code)
        n_speakers, n_rows = len(names), sum(map(len, self.codes))
        # Codes in the narrowest integer type, as numpy radix-sorts keys of
        # 16 bits or fewer.
        renumber = np.empty(n_speakers, np.min_scalar_type(max(n_speakers - 1, 0)))
        renumber[list(map(self.speaker_code.__getitem__, names))] = np.arange(n_speakers)
        codes = np.concatenate([renumber[part] for part in self.codes] or [renumber[:0]])
        self.codes.clear()
        at = np.empty(n_rows, np.min_scalar_type(max(n_rows - 1, 0)))  # grouped position
        at[np.argsort(codes, kind="stable")] = np.arange(n_rows, dtype=at.dtype)
        speaker_rows = np.bincount(codes)
        del codes
        # Where each row's text ends once grouped, then where it starts
        lengths = np.concatenate(self.id_lengths or [np.empty(0, np.int64)])
        self.id_lengths.clear()
        ends = np.empty(n_rows, np.int64)
        ends[at] = lengths
        np.cumsum(ends, out=ends)
        speaker_bytes = np.diff(ends[np.cumsum(speaker_rows) - 1], prepend=0)
        texts = np.empty(int(ends[-1]) if n_rows else 0, np.uint8)
        starts = ends[at]
        del ends
        starts -= lengths
        durations = np.empty(n_rows)
        lo = 0
        while self.durations:
            part = self.durations.pop(0)
            hi = lo + len(part)
            durations[at[lo:hi]] = part
            _place_texts(texts, self.id_texts.pop(0), lengths[lo:hi], starts[lo:hi])
            lo = hi
        return Manifest.grouped(texts, speaker_rows, speaker_bytes, durations)


def _place_texts(out: np.ndarray, texts: bytes, lengths: np.ndarray,
                 starts: np.ndarray) -> None:
    """Copy text ``i`` of ``texts``, ``lengths[i]`` bytes long with its
    separator, to ``out[starts[i]:]``: texts of one length move as one
    fixed-width gather and scatter."""
    source = np.frombuffer(texts, np.uint8)
    offsets = np.cumsum(lengths) - lengths
    order = np.argsort(lengths, kind="stable")
    widths, firsts = np.unique(lengths[order], return_index=True)
    window = np.lib.stride_tricks.sliding_window_view
    for width, rows in zip(widths.tolist(), np.split(order, firsts[1:])):
        window(out, width, writeable=True)[starts[rows]] = window(source, width)[offsets[rows]]


_NOT_UTF8 = "bytes that are not valid UTF-8"


def _has_undecoded_bytes(row: list[str]) -> bool:
    """Whether a row read with ``errors="surrogateescape"`` held bytes that are
    not UTF-8: each became a lone surrogate, which cannot be encoded."""
    try:
        "\t".join(row).encode("utf-8")
    except UnicodeEncodeError:
        return True
    return False


def synthetic_manifest(n_utterances: int = 195_000, n_speakers: int = 6_000,
                       mean_duration_s: float = REFERENCE_CLIP_S, seed: int = 7) -> Manifest:
    """Corpus-scale synthetic manifest with heterogeneous speakers.

    Speaker contribution follows a lognormal profile (every speaker keeps at
    least one utterance) and durations are rescaled so the corpus mean is
    exactly ``mean_duration_s``. Deterministic for a fixed seed.
    """
    if n_utterances < n_speakers:
        raise ConfigError("need at least one utterance per speaker")
    rng = np.random.default_rng(seed)
    weights = rng.lognormal(mean=0.0, sigma=0.6, size=n_speakers)
    extra = rng.multinomial(n_utterances - n_speakers, weights / weights.sum())
    counts = extra + 1
    durations = rng.lognormal(mean=0.0, sigma=0.45, size=n_utterances)
    durations *= mean_duration_s / durations.mean()
    width_u = len(str(n_utterances - 1))
    return Manifest.of_rows([f"utt_{i:0{width_u}d}" for i in range(n_utterances)], counts,
                            durations)


# ---------------------------------------------------------------------------
# Partitioning

_MAX_COUNT = 2**63 - 1  # the largest int64: a larger count of clips or epochs is refused
IDEALISED_SAMPLES_PER_CLIENT = 19_500  # each idealised client's clips unless a plan sets them


def partition_by_speaker(manifest: Manifest, k: int, seed: int = 0) -> Partition:
    """Split a manifest into ``k`` speaker-disjoint, duration-balanced clients."""
    if k < 1:
        raise ConfigError("need at least one client")
    n_speakers = len(manifest.speaker_rows)
    if n_speakers < k:
        raise ConfigError(f"{n_speakers} distinct speakers cannot fill {k} clients")
    counts, durations = manifest.speaker_rows, manifest.durations_s

    # Longest first, then by name (the manifest's speaker order); speakers
    # with identical totals are ordered by a seeded shuffle so ties do not
    # encode manifest order.
    order = manifest.longest_first.copy()
    ordered_totals = manifest.speaker_totals_s[order]
    bounds = np.flatnonzero(np.diff(ordered_totals, prepend=np.nan, append=np.nan) != 0)
    ties = np.flatnonzero(np.diff(bounds) > 1)  # groups of more than one speaker
    rng = np.random.default_rng(seed)
    for lo, hi in zip(bounds[ties].tolist(), bounds[ties + 1].tolist()):
        rng.shuffle(order[lo:hi])  # the draws of rng.permutation(hi - lo)

    heap = [(0.0, idx) for idx in range(k)]
    heapq.heapify(heap)
    assigned = []
    for total in ordered_totals.tolist():  # the shuffles kept each group's total
        load, idx = heap[0]  # the lightest client; (load, idx) pairs never tie
        heapq.heapreplace(heap, (load + total, idx))
        assigned.append(idx)
    assigned = np.array(assigned, dtype=np.int64)  # client of each speaker in order

    # Rows grouped by client, speakers in assignment order, each speaker's
    # rows in manifest order: each speaker's run of rows in turn. Within a
    # run the row steps by one; at a run's first row it jumps to the run's
    # start in the manifest. One cumulative sum of those steps, in place,
    # gives the rows. They are held in the narrowest unsigned type, as the
    # parse holds a row's grouped position: a backward jump wraps around
    # modulo 2**bits, and so does the sum; each partial sum is a row, which
    # the type holds, so it comes out exact.
    sequence = order[np.argsort(assigned, kind="stable")]  # speakers, client by client
    lengths = counts[sequence]
    run_ends = np.cumsum(lengths)  # in the client-grouped rows
    run_starts = (np.cumsum(counts) - counts)[sequence]  # in the manifest
    rows = np.ones(len(durations), np.min_scalar_type(len(durations) - 1))
    rows[0] = run_starts[0]
    steps = run_starts[1:] - run_starts[:-1] - lengths[:-1] + 1
    rows[run_ends[:-1]] = steps.astype(rows.dtype)
    np.cumsum(rows, dtype=rows.dtype, out=rows)
    held = np.bincount(assigned, minlength=k)  # speakers per client
    row_ends = run_ends[np.cumsum(held) - 1]
    n_utterances = np.diff(row_ends, prepend=0)
    total_duration_s = np.empty(k)
    for idx, (lo, hi) in enumerate(zip((row_ends - n_utterances).tolist(), row_ends.tolist())):
        total_duration_s[idx] = _sum_in_order(durations[rows[lo:hi]])
    return Partition(n_utterances, total_duration_s, held, seed, manifest, sequence)


def _sum_in_order(values: np.ndarray) -> float:
    """The sum of ``values`` added in order, one at a time, as ``np.bincount``
    adds its weights, and 0.0 for no values; ``values`` is overwritten."""
    return float(np.cumsum(values, out=values)[-1:].sum())


def uniform_partition(n_clients: int, utterances_per_client: int,
                      mean_duration_s: float = REFERENCE_CLIP_S) -> Partition:
    """Idealised partition: every client is one speaker holding the same
    count of identical mean-length utterances, kept as the count alone.
    Used for planning when no manifest is given. A count below 1 or one
    that int64 cannot hold, or more clients than can be allocated, are
    refused."""
    if n_clients < 1:
        raise ConfigError("client counts must be >= 1")
    if utterances_per_client < 1:
        raise ConfigError(f"utterances per client must be >= 1, got {utterances_per_client}")
    if utterances_per_client > _MAX_COUNT:
        raise ConfigError(f"utterances per client must be <= {_MAX_COUNT}, "
                          f"got {utterances_per_client}")
    with allocating(f"{n_clients} clients"):
        columns = (np.full(n_clients, utterances_per_client, np.int64),
                   np.full(n_clients, mean_duration_s * utterances_per_client),
                   np.ones(n_clients, np.int64))
    return Partition(*columns, seed=0)


# ---------------------------------------------------------------------------
# Scheduling


def schedule_rounds(total_clients: int, per_round: int, n_rounds: int,
                    seed: int = 0) -> RoundSchedule:
    """Sample ``per_round`` distinct clients uniformly, independently per round
    (no draw when all take part); a schedule too large to allocate is refused."""
    if total_clients < 1 or per_round < 1:
        raise ConfigError("client counts must be >= 1")
    if per_round > total_clients:
        raise ConfigError(f"cannot select {per_round} of {total_clients} clients")
    if n_rounds < 1:
        raise ConfigError("need at least one round")
    with allocating(f"{n_rounds} rounds x {per_round} clients per round"):
        selected = np.empty((n_rounds, per_round), np.int64)
    if per_round == total_clients:  # a full selection, sorted, is arange whatever the draw
        selected[:] = np.arange(total_clients)
    else:
        rng = np.random.default_rng(seed)
        for row in selected:
            row[:] = rng.choice(total_clients, size=per_round, replace=False)
        selected.sort(axis=1)
    return RoundSchedule(selected=selected, total_clients=total_clients, seed=seed)


# ---------------------------------------------------------------------------
# Wall clock and communication


def estimate_wall_clock(partition: Partition, schedule: RoundSchedule,
                        profile: DeviceProfile, arch: ArchitectureSpec,
                        workload: WorkloadSpec, local_epochs: int = 1) -> WallClockEstimate:
    """Synchronous-round wall clock on ``profile``: sum over rounds of the
    slowest client, each training ``workload`` at its own mean utterance
    duration."""
    if local_epochs < 1:
        raise ConfigError(f"local_epochs must be >= 1, got {local_epochs}")
    if local_epochs > _MAX_COUNT:
        raise ConfigError(f"local_epochs must be <= {_MAX_COUNT}, got {local_epochs}")
    if schedule.total_clients != partition.n_clients:
        raise ConfigError(
            f"schedule covers {schedule.total_clients} clients but the "
            f"partition has {partition.n_clients}")

    # One local epoch is ceil(n / batch) batches at the predicted batch time,
    # evaluated at the client's mean utterance duration: one prediction per
    # distinct mean duration, and one ceil per distinct count, of Python's
    # correctly rounded n / batch.
    with allocating(f"the epoch times of {partition.n_clients} clients"):
        durations, at_duration = np.unique(partition.mean_duration_s, return_inverse=True)
        counts, at_count = np.unique(partition.n_utterances, return_inverse=True)
    batch_seconds = np.array([predict_batch_time(
        profile, arch, replace(workload, duration_s=d)).seconds_per_batch
        for d in durations.tolist()])
    batches = np.array([math.ceil(n / workload.batch) for n in counts.tolist()], np.float64)
    epoch_seconds = batches[at_count] * batch_seconds[at_duration]

    # Each round's slowest client: one gather over the schedule's selections
    # and a row max, the same floats as a max over each round.
    with allocating(f"the round times of {schedule.n_rounds} rounds x "
                    f"{schedule.per_round} clients per round"):
        round_seconds = _selected_seconds(epoch_seconds, schedule, local_epochs).max(axis=1)
        total_seconds = _sum_in_order(round_seconds.copy())
    return WallClockEstimate(profile.name, epoch_seconds, round_seconds, total_seconds)


def _selected_seconds(epoch_seconds: np.ndarray, schedule: RoundSchedule,
                      local_epochs: int) -> np.ndarray:
    """Each selected client's training seconds, one row per round in the
    schedule's order of its selections."""
    return (epoch_seconds * local_epochs)[schedule.selected]


def round_stragglers(estimate: WallClockEstimate, schedule: RoundSchedule,
                     local_epochs: int = 1) -> np.ndarray:
    """Each round's straggler, the client whose seconds are the round's time:
    the argmax of the row whose max ``estimate_wall_clock`` takes, so the
    first selected of the slowest on a tie."""
    with allocating(f"the stragglers of {schedule.n_rounds} rounds x "
                    f"{schedule.per_round} clients per round"):
        at = _selected_seconds(estimate.seconds_per_local_epoch, schedule,
                               local_epochs).argmax(axis=1)
        return np.take_along_axis(schedule.selected, at[:, None], axis=1)[:, 0]


def estimate_communication(report: CostReport, schedule: RoundSchedule,
                           precision: Precision = Precision.FP32) -> float:
    """Total model bytes moved: down plus up, per selected client, per round.
    Any cost report of the trained architecture gives its parameter count."""
    return float(report.total_params) * precision.bytes_per_value * 2 * schedule.selected.size
