import builtins
import errno
import hashlib
import io
import json
import math
import mmap
import os
import re
import shutil
import sys
import threading
import time
import zlib

import numpy as np
import pytest

from conftest import decode_ids, manifest_text, tie_heavy_rows
from fedspeech import cli, federation, manifest_cache, report
from fedspeech.cli import main
from fedspeech.errors import ConfigError, ManifestError


@pytest.fixture
def parses(monkeypatch):
    """The paths ``load_manifest`` parsed through the cache, in order."""
    calls = []

    def counting(path):
        calls.append(path)
        return federation.load_manifest(path)

    monkeypatch.setattr(manifest_cache, "load_manifest", counting)
    return calls


@pytest.fixture
def manifest(tmp_path):
    path = tmp_path / "validated.tsv"
    path.write_text(manifest_text(tie_heavy_rows()))
    return path


def plan(manifest, out, seed="7"):
    """Exit code and report bytes of one fl-plan over ``manifest``."""
    code = main(["fl-plan", "--manifest", str(manifest), "--clients", "3", "--rounds", "2",
                 "--device", "nx", "--batch", "4", "--seed", seed, "--out", str(out)])
    return code, {p.name: p.read_bytes() for p in sorted(out.iterdir())} if code == 0 \
        else None


def entries(cache_home):
    directory = cache_home / "fedspeech"
    return sorted(p.name for p in directory.iterdir()) if directory.is_dir() else []


def test_second_plan_reads_the_entry(tmp_path, manifest, parses, cache_home):
    first = plan(manifest, tmp_path / "a")
    assert first[0] == 0 and len(parses) == 1
    assert len(entries(cache_home)) == 1
    assert plan(manifest, tmp_path / "b") == first
    assert len(parses) == 1


def test_entry_is_the_parsed_manifest(manifest, cache_home):
    parsed = federation.load_manifest(manifest)
    manifest_cache.load_manifest_cached(manifest)
    cached, _ = manifest_cache.load_manifest_cached(manifest)
    assert cached.utterance_ids.tobytes() == parsed.utterance_ids.tobytes()
    assert cached.speaker_rows.tolist() == parsed.speaker_rows.tolist()
    assert cached.speaker_bytes.tolist() == parsed.speaker_bytes.tolist()
    assert cached.durations_s.tobytes() == parsed.durations_s.tobytes()
    assert cached.speaker_totals_s.tobytes() == parsed.speaker_totals_s.tobytes()
    assert cached.longest_first.tolist() == parsed.longest_first.tolist()
    assert cached.longest_first.dtype == parsed.longest_first.dtype
    assert cached.speaker_rows.dtype == parsed.speaker_rows.dtype
    assert cached.speaker_bytes.dtype == parsed.speaker_bytes.dtype
    assert cached.utterance_ids.dtype == parsed.utterance_ids.dtype


def test_digest_is_the_sha256_of_the_manifest_bytes(manifest, parses, monkeypatch):
    expected = hashlib.sha256(manifest.read_bytes()).hexdigest()
    assert manifest_cache.load_manifest_cached(manifest)[1] == expected  # a miss
    assert manifest_cache.load_manifest_cached(manifest)[1] == expected  # a hit
    monkeypatch.setattr(manifest_cache, "cache_dir", lambda: None)
    assert manifest_cache.load_manifest_cached(manifest)[1] == expected  # no cache
    assert len(parses) == 2


def _header(data):
    """The fields of an entry's header."""
    return list(manifest_cache._HEADER.unpack(data[:manifest_cache._HEADER.size]))


def _with_header(change):
    """Damage that sets the header's fields to ``change(fields)``."""
    def damage(data):
        fields = _header(data)
        change(fields)
        return manifest_cache._HEADER.pack(*fields) + data[manifest_cache._HEADER.size:]
    return damage


def _recount(rows=0, speakers=0, id_bytes=0):
    """Damage that adds these to the header's counts of rows, speakers and
    bytes of utterance ids: the same size, but sections cut in other places."""
    def change(fields):
        fields[2] += rows
        fields[3] += speakers
        fields[4] += id_bytes
    return _with_header(change)


def _set_field(at, value_of):
    """Damage that sets header field ``at`` to ``value_of(field)``."""
    def change(fields):
        fields[at] = value_of(fields[at])
    return _with_header(change)


def _starts(data):
    """Where each section of the entry ``data`` starts, as the cache lays it out."""
    return manifest_cache._layout(_header(data))


def _per_speaker(section, change, dtype="<i8"):
    """Damage that replaces the per-speaker column ``section`` with
    ``change(column)``: the same size, but values the other sections do not
    agree with."""
    def damage(data):
        lo = _starts(data)[section]
        column = np.frombuffer(data, dtype, _header(data)[3], lo)
        return data[:lo] + change(column).astype(dtype).tobytes() + data[lo + column.nbytes:]
    return damage


def _speaker_rows(change):
    return _per_speaker("speaker_rows", change)


def _duration(row, value):
    """Damage that sets row ``row``'s duration (-1: the last row's) to
    ``value``, which the CRC-32 does not cover."""
    def damage(data):
        pos = _starts(data)["durations_s"] + 8 * (row % _header(data)[2])
        return data[:pos] + np.float64(value).tobytes() + data[pos + 8:]
    return damage


def _id_byte(item, at, value):
    """Damage that sets byte ``at`` of utterance id ``item``'s JSON text and
    the separator after it."""
    sep = federation.ID_SEPARATOR.encode("ascii")

    def damage(data):
        start, end = _starts(data)["utterance_ids"], _starts(data)["end"]
        texts = data[start:end].split(sep)
        pos = start + sum(map(len, texts[:item])) + item * len(sep) + at
        return data[:pos] + bytes([value]) + data[pos + 1:]
    return damage


def _crc_made_again(damage):
    """``damage``, then the header's CRC-32 made again over every section but
    the durations: only the checks of the values themselves can find it."""
    def damaged(data):
        data = damage(data)
        at = _starts(data)
        crc = zlib.crc32(data[at["speaker_rows"]:at["durations_s"]])
        crc = zlib.crc32(data[at["utterance_ids"]:at["end"]], crc)
        return _set_field(5, lambda _: crc)(data)
    return damaged


def _totals(change):
    return _per_speaker("speaker_totals_s", change, "<f8")


def _order(change):
    return _per_speaker("longest_first", change)


def _swapped(first, second):
    """The change that swaps the values at ``first`` and ``second``."""
    def change(column):
        column = column.copy()
        column[[first, second]] = column[[second, first]]
        return column
    return change


def _set(at, value):
    def change(column):
        column = column.copy()
        column[at] = value
        return column
    return change


@pytest.mark.parametrize("damage", [
    lambda data: data[:len(data) // 2],
    lambda data: data[:manifest_cache._HEADER.size - 1],
    lambda data: data + b"x",
    _recount(rows=-1, id_bytes=8),  # the last duration read as ids
    _recount(speakers=1, rows=-4),  # a speaker's four columns more, four durations fewer
    lambda data: data[:8] + bytes(32) + data[40:],  # another key
    _set_field(4, lambda id_bytes: id_bytes + 1),
    _set_field(4, lambda id_bytes: 1 << 30),
    _set_field(5, lambda crc: crc ^ 1),
    _speaker_rows(lambda counts: np.concatenate([[0, counts[0] + counts[1]], counts[2:]])),
    _speaker_rows(lambda counts: counts + (np.arange(len(counts)) == 0)),
    _per_speaker("speaker_bytes",
                 lambda counts: np.concatenate([counts[:2] + [1, -1], counts[2:]])),
    _per_speaker("speaker_bytes", lambda counts: counts + (np.arange(len(counts)) == 0)),
    _duration(0, 0.0),
    _duration(0, math.nan),
    _duration(0, math.inf),
    _duration(0, -math.inf),
    _duration(0, -1.0),
    _duration(-1, 0.0),
    _duration(-1, math.nan),
    _duration(-1, math.inf),
    _id_byte(7, 0, ord("c")),
    _id_byte(7, 5, 0x7f),
    _id_byte(7, 5, 0x0a),
    _id_byte(7, 5, 0),
    _id_byte(7, 25, ord(" ")),  # the separator's newline
    _totals(lambda totals: totals + (np.arange(len(totals)) == 0)),
    _order(_swapped(0, 1)),
    _crc_made_again(_totals(_set(0, math.nan))),
    _crc_made_again(_totals(_set(0, 0.0))),
    _crc_made_again(_totals(_set(0, -1.0))),
    _crc_made_again(_totals(lambda totals: totals[::-1])),
    _crc_made_again(_order(_swapped(0, 1))),  # the two longest: a rise along the order
    _crc_made_again(_order(_swapped(-2, -1))),  # two one-clip speakers of equal total
    _crc_made_again(_order(lambda order: order[::-1])),
    _crc_made_again(_order(_set(1, -1))),
    _crc_made_again(_order(lambda order: _set(0, len(order))(order))),
    _crc_made_again(_order(lambda order: _set(-1, order[-2])(order))),  # a speaker twice
], ids=["truncated", "header-cut", "trailing-byte", "ids-cut", "speakers-cut",
        "other-key", "id-bytes-not-the-file-size", "id-bytes-past-the-file", "other-crc",
        "speaker-without-rows", "rows-one-too-many",
        "speaker-id-bytes-moved", "speaker-id-bytes-one-too-many",
        "duration-not-positive", "duration-not-finite", "duration-infinite",
        "duration-minus-infinite", "duration-negative", "last-duration-not-positive",
        "last-duration-not-finite", "last-duration-infinite",
        "id-without-opening-quote",
        "id-byte-above-printable", "id-byte-below-printable", "nul-inside-id",
        "two-ids-on-one-line", "total-not-the-crc", "order-not-the-crc", "total-nan",
        "total-zero", "total-negative", "totals-reversed", "longest-two-swapped",
        "tied-two-swapped", "order-reversed", "place-negative", "place-past-the-speakers",
        "speaker-twice"])
def test_damaged_entry_is_a_miss_and_rewritten(tmp_path, manifest, parses, cache_home,
                                               damage):
    first = plan(manifest, tmp_path / "a")
    [name] = entries(cache_home)
    entry = cache_home / "fedspeech" / name
    good = entry.read_bytes()
    entry.write_bytes(damage(good))
    assert plan(manifest, tmp_path / "b") == first
    assert len(parses) == 2
    assert entry.read_bytes() == good


def test_damage_to_totals_or_order_hits_what_it_names(tmp_path, manifest, cache_home):
    # the CRC made again over a sound entry is its own, so the damage behind
    # _crc_made_again reaches the checks of the values; the manifest has a
    # longest speaker and a tie at the end of the order to swap
    plan(manifest, tmp_path / "a")
    [name] = entries(cache_home)
    good = (cache_home / "fedspeech" / name).read_bytes()
    assert _crc_made_again(lambda data: data)(good) == good
    parsed = federation.load_manifest(manifest)
    totals, order = parsed.speaker_totals_s, parsed.longest_first
    assert totals[order[0]] > totals[order[1]] and totals[order[-2]] == totals[order[-1]]


@pytest.mark.parametrize("seed", [0, 7, 2**31 - 1])
def test_warm_partition_is_the_cold_one(manifest, parses, seed):
    parsed = federation.load_manifest(manifest)
    totals = parsed.speaker_totals_s
    assert len(np.unique(totals)) < len(totals) / 2  # most speakers share a total
    cold = federation.partition_by_speaker(parsed, 7, seed)
    manifest_cache.load_manifest_cached(manifest)
    cached, _ = manifest_cache.load_manifest_cached(manifest)
    order = cached.longest_first.copy()
    warm = federation.partition_by_speaker(cached, 7, seed)
    assert len(parses) == 1
    assert cached.longest_first.tolist() == order.tolist()  # the shuffle ran on a copy
    assert warm.speakers.tolist() == cold.speakers.tolist()
    assert warm.n_speakers.tolist() == cold.n_speakers.tolist()
    assert warm.n_utterances.tolist() == cold.n_utterances.tolist()
    assert warm.total_duration_s.tobytes() == cold.total_duration_s.tobytes()


@pytest.mark.parametrize("at,value", [(3, 0x1f), (3, 0), (9, ord("x"))],
                         ids=["id-byte-below-printable", "nul-inside-id",
                              "newline-replaced"])
def test_damaged_ids_of_mixed_lengths_are_a_miss_and_rewritten(tmp_path, parses,
                                                               cache_home, at, value):
    # ids from "c0.mp3" to "c218.mp3": "c7.mp3" takes 8 bytes, then its
    # separator's comma, newline and indent
    rows = [(spk, f"c{i}.mp3", sentence, ms)
            for i, (spk, _, sentence, ms) in enumerate(tie_heavy_rows())]
    path = tmp_path / "m.tsv"
    path.write_text(manifest_text(rows))
    first = plan(path, tmp_path / "a")
    [name] = entries(cache_home)
    entry = cache_home / "fedspeech" / name
    good = entry.read_bytes()
    # the entry holds the rows grouped by speaker name, in file order within each
    item = [clip for _, clip, *_ in sorted(rows, key=lambda row: row[0])].index("c7.mp3")
    assert _id_byte(item, 0, ord('"'))(good) == good
    assert _id_byte(item, 8, ord(","))(good) == good
    assert _id_byte(item, 9, ord("\n"))(good) == good
    assert _id_byte(item, 7, ord('"'))(good) == good
    entry.write_bytes(_id_byte(item, at, value)(good))
    assert plan(path, tmp_path / "b") == first
    assert len(parses) == 2
    assert entry.read_bytes() == good


def test_entry_holds_one_very_long_id(tmp_path, parses):
    rows = tie_heavy_rows()
    rows[17] = (rows[17][0], "x" * 10_000) + rows[17][2:]
    path = tmp_path / "m.tsv"
    path.write_text(manifest_text(rows))
    parsed = federation.load_manifest(path)
    manifest_cache.load_manifest_cached(path)
    cached, _ = manifest_cache.load_manifest_cached(path)
    assert len(parses) == 1
    assert cached.utterance_ids.tobytes() == parsed.utterance_ids.tobytes()
    assert cached.speaker_bytes.tolist() == parsed.speaker_bytes.tolist()
    assert "x" * 10_000 in decode_ids(cached.utterance_ids)


def _refuse_writes(monkeypatch, directory):
    """Refuse, as a read-only directory would, every file opened for writing
    in ``directory`` through the cache module or the reports' writer: root
    ignores file modes."""
    def guarded(file, mode="r", *args, **kwargs):
        if "r" not in mode and os.path.dirname(os.fspath(file)) == str(directory):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(file))
        return open(file, mode, *args, **kwargs)

    for module in (manifest_cache, report):
        monkeypatch.setattr(module, "open", guarded, raising=False)


def test_read_only_cache_dir_plans_as_without_a_cache(tmp_path, manifest, cache_home,
                                                      monkeypatch):
    reference = plan(manifest, tmp_path / "reference")
    directory = cache_home / "fedspeech"
    for entry in directory.iterdir():
        entry.unlink()
    directory.chmod(0o555)
    _refuse_writes(monkeypatch, directory)
    try:
        assert plan(manifest, tmp_path / "a") == reference
        assert plan(manifest, tmp_path / "b") == reference
        assert entries(cache_home) == []
    finally:
        directory.chmod(0o755)


def test_failed_write_leaves_no_temp_file(tmp_path, manifest, cache_home, monkeypatch):
    class FullDisk(io.FileIO):
        def write(self, data):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    directory = str(cache_home / "fedspeech")

    def full(file, mode="r", *args, **kwargs):
        return FullDisk(file, mode.replace("b", "")) \
            if mode == "xb" and os.path.dirname(os.fspath(file)) == directory \
            else open(file, mode, *args, **kwargs)

    monkeypatch.setattr(report, "open", full, raising=False)
    reference = plan(manifest, tmp_path / "a")
    assert reference[0] == 0
    assert entries(cache_home) == []
    monkeypatch.delattr(report, "open")
    assert plan(manifest, tmp_path / "b") == reference


def test_entry_bytes_are_pinned(tmp_path):
    entry = tmp_path / "pinned.manifest"
    manifest_cache._write_entry(tmp_path, entry, bytes(range(32)), bytes(range(40)),
                                federation.synthetic_manifest(2000, 50))
    data = entry.read_bytes()
    assert len(data) == 57_708
    assert hashlib.sha256(data).hexdigest() == \
        "31ba2377de3590d12c50d0cb608862af735cc224242b13365f3ce9d0167601b7"
    # the same entry as FSMANIF5 wrote it, 9 bytes a row smaller
    assert hashlib.sha256(_as_fsmanif5(data)).hexdigest() == \
        "a942d7a47719197bf0bb838198c44977dd198a0fab69a465f9dff64547102b67"


def _as_fsmanif5(data):
    """The entry ``data`` in the format before ``FSMANIF6``: each id's JSON
    text ended by a newline, not by its separator in ``fl_partition.json``,
    and the byte counts and the CRC-32 to match."""
    sep = federation.ID_SEPARATOR.encode("ascii")
    fields, at = _header(data), _starts(data)
    rows = np.frombuffer(data, "<i8", fields[3], at["speaker_rows"])
    id_bytes = np.frombuffer(data, "<i8", fields[3], at["speaker_bytes"]) \
        - (len(sep) - 1) * rows
    ids = data[at["utterance_ids"]:].replace(sep, b"\n")
    sections = rows.tobytes() + id_bytes.tobytes() + data[at["speaker_totals_s"]:at["durations_s"]]
    fields[0], fields[4] = b"FSMANIF5", len(ids)
    fields[5] = zlib.crc32(ids, zlib.crc32(sections))
    return manifest_cache._HEADER.pack(*fields) + sections \
        + data[at["durations_s"]:at["utterance_ids"]] + ids


@pytest.mark.parametrize("key", ["this", "other"])
def test_an_entry_of_the_last_format_is_a_miss_and_rewritten(tmp_path, manifest, parses,
                                                             cache_home, capsys, key):
    # An FSMANIF5 entry whose hint names the manifest, under this plan's key
    # or under another (the key of an older loader's source)
    first = plan(manifest, tmp_path / "a")
    [name] = entries(cache_home)
    entry = cache_home / "fedspeech" / name
    good = entry.read_bytes()
    old = _as_fsmanif5(good)
    entry.unlink()
    if key == "other":
        other = bytes(32)
        old = _set_field(1, lambda _: other)(old)
        (cache_home / "fedspeech" / (other.hex() + manifest_cache._SUFFIX)).write_bytes(old)
    else:
        entry.write_bytes(old)
    capsys.readouterr()
    assert plan(manifest, tmp_path / "b") == first
    assert capsys.readouterr().err == ""
    assert len(parses) == 2
    assert entry.read_bytes() == good
    assert len(entries(cache_home)) == (2 if key == "other" else 1)


def test_partition_report_lists_each_clients_ids_as_the_entry_holds_them(tmp_path,
                                                                         cache_home):
    # ids with a quote, a backslash, text that is not ASCII and an escaped
    # newline: fl_partition.json lists each client's ids as the runs of its
    # speakers in the entry, byte for byte, without the last separator
    rows = tie_heavy_rows()
    odd = ['"say ""hi"".mp3"', "back\\slash.mp3", "n\u00e4me \u4e2d.mp3",
           '"clip\nwith a newline.mp3"']
    for i, clip in enumerate(odd):
        rows[7 * i] = (rows[7 * i][0], clip) + rows[7 * i][2:]
    path = tmp_path / "m.tsv"
    path.write_text(manifest_text(rows), encoding="utf-8")
    code, reports = plan(path, tmp_path / "a")
    assert code == 0
    [name] = entries(cache_home)
    cached = manifest_cache._read_entry(cache_home / "fedspeech" / name).manifest
    ids, offsets = cached.utterance_ids.tobytes(), cached.id_offsets.tolist()
    partition = federation.partition_by_speaker(cached, 3, 7)
    text = reports["fl_partition.json"]
    listed = re.findall(rb'"utterance_ids": \[\n {8}(.*?)\n {6}\]', text, re.DOTALL)
    ends = partition.n_speakers.cumsum().tolist()
    sep = federation.ID_SEPARATOR.encode("ascii")
    assert listed == [
        b"".join(ids[offsets[s]:offsets[s + 1]] for s in partition.speakers[lo:hi].tolist())
        [:-len(sep)] for lo, hi in zip([0] + ends, ends)]
    clients = json.loads(text)["clients"]
    held = {u for client in clients for u in client["utterance_ids"]}
    assert {'say "hi".mp3', "back\\slash.mp3", "n\u00e4me \u4e2d.mp3",
            "clip\nwith a newline.mp3"} <= held
    assert len(held) == len(rows)


def test_two_writers_of_one_entry_each_land_whole(tmp_path, monkeypatch):
    """The first writer is held with its temp file open until the second has
    returned; the entry is then whole, and no temp file is left."""
    manifest = federation.synthetic_manifest(2000, 50)
    first_held, second_done = threading.Event(), threading.Event()

    class Held(io.FileIO):
        def write(self, data):
            if threading.current_thread() is first:
                first_held.set()
                assert second_done.wait(10)
            return super().write(data)

    def holding(file, mode="r", *args, **kwargs):
        return Held(file, mode.replace("b", "")) if mode == "xb" else \
            io.open(file, mode, *args, **kwargs)

    def write(directory):
        manifest_cache._write_entry(directory, directory / "e.manifest", bytes(32), bytes(40),
                                    manifest)

    shared, alone = tmp_path / "shared", tmp_path / "alone"
    monkeypatch.setattr(builtins, "open", holding)
    first = threading.Thread(target=write, args=(shared,))
    first.start()
    assert first_held.wait(10)
    write(shared)
    second_done.set()
    first.join(10)
    monkeypatch.undo()
    assert not first.is_alive()
    write(alone)
    assert sorted(p.name for p in shared.iterdir()) == ["e.manifest"]
    assert (shared / "e.manifest").read_bytes() == (alone / "e.manifest").read_bytes()


def test_same_size_rewrite_with_restored_mtime_is_parsed_again(tmp_path, manifest, parses):
    first = plan(manifest, tmp_path / "a")
    text = manifest.read_text()
    before = manifest.stat()
    # one clip's duration goes from 1200 ms to 2100 ms: same size, new totals
    at = text.index("\t1200\n")
    manifest.write_text(text[:at] + "\t2100\n" + text[at + 6:])
    os.utime(manifest, ns=(before.st_atime_ns, before.st_mtime_ns))
    assert manifest.stat().st_size == before.st_size
    assert manifest.stat().st_mtime_ns == before.st_mtime_ns
    second = plan(manifest, tmp_path / "b")
    assert len(parses) == 2
    assert second[0] == 0 and second != first
    (tmp_path / "fresh.tsv").write_text(manifest.read_text())
    assert plan(tmp_path / "fresh.tsv", tmp_path / "c") == second


def test_manifest_changed_while_parsed_keeps_no_entry(tmp_path, manifest, cache_home,
                                                    monkeypatch, capsys):
    # The digest names the bytes that were hashed, not those that were parsed.
    def edit_then_parse(path):
        with open(path, "a") as fh:
            fh.write("late\tclip_late.mp3\tx\t1000\n")
        return federation.load_manifest(path)

    monkeypatch.setattr(manifest_cache, "load_manifest", edit_then_parse)
    assert plan(manifest, tmp_path / "a")[0] == 3
    assert capsys.readouterr().err == \
        f"error: manifest {manifest} changed while it was read\n"
    assert not (tmp_path / "a").exists()
    assert entries(cache_home) == []


def test_id_with_a_newline_is_cached(tmp_path, parses, cache_home):
    # A JSON text escapes the newline, so the entry holds no newline of it.
    rows = tie_heavy_rows()
    rows[3] = (rows[3][0], '"clip\nwith a newline.mp3"') + rows[3][2:]
    rows[5] = ('"speaker\nwith a newline"',) + rows[5][1:]
    path = tmp_path / "m.tsv"
    path.write_text(manifest_text(rows))
    parsed = federation.load_manifest(path)
    assert "clip\nwith a newline.mp3" in decode_ids(parsed.utterance_ids)
    assert len(parsed.speaker_rows) == len({row[0] for row in rows})  # one speaker
    first = plan(path, tmp_path / "a")
    assert first[0] == 0
    assert b"clip\\nwith a newline.mp3" in first[1]["fl_partition.json"]
    assert len(entries(cache_home)) == 1
    assert plan(path, tmp_path / "b") == first
    assert len(parses) == 1


def test_manifest_with_an_error_is_never_cached(tmp_path, parses, cache_home, capsys):
    rows = tie_heavy_rows()
    rows[40] = rows[40][:3] + ("-5",)
    path = tmp_path / "bad.tsv"
    path.write_text(manifest_text(rows))
    errors = []
    for run in ("a", "b"):
        assert plan(path, tmp_path / run) == (3, None)
        errors.append(capsys.readouterr().err)
    assert errors == ["error: line 42: non-positive duration -0.005\n"] * 2
    assert len(parses) == 2
    assert entries(cache_home) == []


def test_cache_keeps_at_most_its_cap_most_recent_first(tmp_path, parses, cache_home):
    rows = tie_heavy_rows()
    paths = []
    for k in range(manifest_cache.MAX_ENTRIES + 2):
        path = tmp_path / f"m{k}.tsv"
        path.write_text(manifest_text(rows[k:]))
        paths.append(path)
        manifest_cache.load_manifest_cached(path)
        manifest_cache.load_manifest_cached(paths[0])  # the first stays in use
        assert len(entries(cache_home)) == min(k + 1, manifest_cache.MAX_ENTRIES)
    assert len(parses) == len(paths)
    # the least recently used, m1, is gone; m0 and the newest are kept
    for path, parsed_again in ((paths[0], False), (paths[-1], False), (paths[1], True)):
        before = len(parses)
        manifest_cache.load_manifest_cached(path)
        assert len(parses) - before == parsed_again


def test_loader_source_is_part_of_the_key(manifest, parses, monkeypatch):
    manifest_cache.load_manifest_cached(manifest)
    digest = manifest_cache._source_digest()
    monkeypatch.setattr(manifest_cache, "_source_digest", lambda: bytes(32))
    manifest_cache.load_manifest_cached(manifest)
    monkeypatch.setattr(manifest_cache, "_source_digest", lambda: digest)
    manifest_cache.load_manifest_cached(manifest)
    assert len(parses) == 2


def test_relative_xdg_cache_home_falls_back_to_home(tmp_path, manifest, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", "relative/cache")
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    assert manifest_cache.cache_dir() == tmp_path / "home" / ".cache" / "fedspeech"
    manifest_cache.load_manifest_cached(manifest)
    assert len(list((tmp_path / "home" / ".cache" / "fedspeech").iterdir())) == 1


# ------------------------------------------------------------ the overlap


def _speakers(count):
    """A manifest text of ``count`` speakers with two clips each."""
    return manifest_text([(f"{s:010x}", f"other_{s}_{c}.mp3", "a sentence", 1500 + 100 * c)
                          for s in range(count) for c in range(2)])


def _hint_of(path):
    return manifest_cache._hint(os.stat(path))


def _entry_of(cache_home, manifest):
    """The entry whose key names ``manifest``'s bytes."""
    digest = hashlib.sha256(manifest.read_bytes()).digest()
    key = hashlib.sha256(manifest_cache._source_digest() + digest).hexdigest()
    return cache_home / "fedspeech" / (key + manifest_cache._SUFFIX)


@pytest.fixture
def partitioned(monkeypatch):
    """The speaker count of each manifest a plan partitioned, in order."""
    counts = []

    def counting(manifest, k, seed=0):
        counts.append(len(manifest.speaker_rows))
        return federation.partition_by_speaker(manifest, k, seed)

    monkeypatch.setattr(cli, "partition_by_speaker", counting)
    return counts


@pytest.mark.parametrize("speakers", [5, 2], ids=["other-partition", "config-error"])
def test_stale_hinted_entry_is_dropped(tmp_path, manifest, parses, cache_home, entry_reads,
                                       partitioned, capsys, speakers):
    # Another manifest's entry that holds this file's stat identity: its
    # partition into 3 clients, or the ConfigError of 3 clients over 2
    # speakers, is made while the file is hashed, then dropped for the key.
    reference = plan(manifest, tmp_path / "reference")
    other = tmp_path / "other.tsv"
    other.write_text(_speakers(speakers))
    assert plan(other, tmp_path / "other")[0] == (0 if speakers >= 3 else 2)
    stale = _entry_of(cache_home, other)
    stale.write_bytes(_set_field(6, lambda _: _hint_of(manifest))(stale.read_bytes()))
    manifest_cache._touch(stale)  # tried before this file's own entry
    partitioned.clear()
    entry_reads.clear()
    capsys.readouterr()
    assert plan(manifest, tmp_path / "a") == reference
    assert capsys.readouterr().err == ""
    assert partitioned == [speakers, 90]
    assert entry_reads == ["hint", "key"]  # the stale entry, then this file's by its key
    assert len(parses) == 2  # only the first plan of each manifest parsed it


def test_hinted_entry_error_is_the_plan_error_when_the_key_matches(
        tmp_path, manifest, parses, entry_reads, partitioned, capsys):
    plan(manifest, tmp_path / "a")
    entry_reads.clear()
    capsys.readouterr()
    code = main(["fl-plan", "--manifest", str(manifest), "--clients", "91", "--rounds", "1",
                 "--out", str(tmp_path / "b")])
    assert (code, capsys.readouterr().err) == (
        2, "error: 90 distinct speakers cannot fill 91 clients\n")
    assert entry_reads == ["hint"] and partitioned == [90, 90] and len(parses) == 1
    assert not (tmp_path / "b").exists()


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_hash_error_exits_3_on_one_line(tmp_path, manifest, cache_home, monkeypatch, capsys,
                                        warm):
    if warm:
        plan(manifest, tmp_path / "a")
    before = entries(cache_home)

    def failing(fh):
        fh.read(100)
        raise OSError(errno.EIO, os.strerror(errno.EIO))

    monkeypatch.setattr(manifest_cache, "_file_digest", failing)
    capsys.readouterr()
    assert plan(manifest, tmp_path / "b") == (3, None)
    assert capsys.readouterr().err == \
        f"error: cannot read manifest {manifest}: Input/output error\n"
    assert not (tmp_path / "b").exists()
    assert entries(cache_home) == before


def _raise(error):
    def raising(*args, **kwargs):
        raise error
    return raising


@pytest.mark.parametrize("case", ["miss", "hit", "no-cache", "hash-error", "parse-error",
                                  "derive-error", "derive-crash"])
def test_no_thread_outlives_the_load(tmp_path, manifest, monkeypatch, case):
    if case != "miss":
        manifest_cache.load_manifest_cached(manifest)
    # a hash that outlasts the rest of the load: the load waits for it
    file_digest = _raise(OSError(errno.EIO, os.strerror(errno.EIO))) \
        if case == "hash-error" else manifest_cache._file_digest
    monkeypatch.setattr(manifest_cache, "_file_digest",
                        lambda fh: time.sleep(0.05) or file_digest(fh))
    derive = lambda m: m  # noqa: E731
    if case == "no-cache":
        monkeypatch.setattr(manifest_cache, "cache_dir", lambda: None)
    elif case == "parse-error":
        monkeypatch.setattr(manifest_cache, "_source_digest", lambda: bytes(32))
        monkeypatch.setattr(manifest_cache, "load_manifest",
                            _raise(ManifestError("manifest is empty")))
    elif case == "derive-error":
        derive = _raise(ConfigError("no"))
    elif case == "derive-crash":
        derive = _raise(ZeroDivisionError())
    threads = threading.enumerate()
    try:
        manifest_cache.load_manifest_cached(manifest, derive)
    except (ManifestError, ConfigError, ZeroDivisionError):
        assert case.endswith(("error", "crash"))
    else:
        assert case in ("miss", "hit", "no-cache")
    assert threading.enumerate() == threads


@pytest.mark.parametrize("move", ["copy", "touch"])
def test_moved_manifest_overlaps_from_its_second_plan(tmp_path, manifest, parses,
                                                      cache_home, entry_reads, move):
    # A copy, or a touch, gives the file another stat identity than the
    # entry's hint: its first plan finds the entry by its key and refreshes
    # the hint, and its next plan overlaps.
    reference = plan(manifest, tmp_path / "reference")
    [name] = entries(cache_home)
    entry = cache_home / "fedspeech" / name
    moved = tmp_path / "copy.tsv" if move == "copy" else manifest
    if move == "copy":
        shutil.copyfile(manifest, moved)
    else:
        os.utime(manifest, ns=(1, 1))
    assert _header(entry.read_bytes())[6] != _hint_of(moved)
    for run, found in (("b", ["key"]), ("c", ["hint"]), ("d", ["hint"])):
        entry_reads.clear()
        assert plan(moved, tmp_path / run) == reference
        assert entry_reads == found
        assert _header(entry.read_bytes())[6] == _hint_of(moved)
    assert len(parses) == 1


def test_loads_hold_with_the_threads_switching_often(tmp_path, manifest, entry_reads):
    # the hash and the hinted read interleave at nearly every bytecode
    expected = manifest_cache.load_manifest_cached(manifest)[1]
    reference = federation.partition_by_speaker(federation.load_manifest(manifest), 7, 3)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            partition, digest = manifest_cache.load_manifest_cached(
                manifest, lambda m: federation.partition_by_speaker(m, 7, 3))
            assert digest == expected
            assert partition.speakers.tolist() == reference.speakers.tolist()
            assert partition.total_duration_s.tolist() == reference.total_duration_s.tolist()
    finally:
        sys.setswitchinterval(interval)
    assert entry_reads == ["hint"] * 20
    assert [t.name for t in threading.enumerate()].count("manifest-sha256") == 0


# ------------------------------------------------------------ the mapping


def _columns(manifest):
    return {name: getattr(manifest, name) for name, _, _ in manifest_cache._SECTIONS}


def test_columns_read_from_an_entry_are_read_only(tmp_path, manifest, parses, cache_home):
    # no code path writes through the map: a write to any column raises
    plan(manifest, tmp_path / "a")
    cached, _ = manifest_cache.load_manifest_cached(manifest)
    assert len(parses) == 1
    for name, column in _columns(cached).items():
        assert not column.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            column[:1] = 0


def _another_entry(tmp_path, cache_home):
    """The entry of another manifest, cached beside this one's."""
    other = tmp_path / "other.tsv"
    other.write_text(_speakers(5))
    manifest_cache.load_manifest_cached(other)
    return _entry_of(cache_home, other)


@pytest.mark.parametrize("change", ["unlinked", "replaced"])
def test_a_mapped_entry_keeps_its_bytes_when_its_file_goes(tmp_path, manifest, parses,
                                                         cache_home, monkeypatch, change):
    # As _prune unlinks an entry, and _write_entry renames another file
    # over one, right after the plan's read of it: the plan goes on with the
    # bytes it mapped.
    reference = plan(manifest, tmp_path / "reference")
    parsed = federation.load_manifest(manifest)
    [name] = entries(cache_home)
    entry = cache_home / "fedspeech" / name
    other = _another_entry(tmp_path, cache_home)
    parses.clear()
    read_entry, found = manifest_cache._read_entry, []

    def read_then_change(path, **kwargs):
        result = read_entry(path, **kwargs)
        if result is not None and path == entry and not found:
            found.append(result)
            if change == "unlinked":
                entry.unlink()
            else:
                os.replace(other, entry)
        return result

    monkeypatch.setattr(manifest_cache, "_read_entry", read_then_change)
    assert plan(manifest, tmp_path / "a") == reference
    assert len(found) == 1 and parses == []
    assert entry.exists() == (change == "replaced")
    for section, column in _columns(found[0].manifest).items():
        assert column.tobytes() == getattr(parsed, section).tobytes(), section


def test_new_hint_changes_no_column_of_a_mapped_entry(tmp_path, manifest, cache_home):
    plan(manifest, tmp_path / "a")
    [name] = entries(cache_home)
    entry = cache_home / "fedspeech" / name
    found = manifest_cache._read_entry(entry)
    before = {section: column.tobytes()
              for section, column in _columns(found.manifest).items()}
    manifest_cache._write_hint(entry, bytes(range(40)))
    assert _header(entry.read_bytes())[6] == bytes(range(40)) != found.hint
    for section, column in _columns(found.manifest).items():
        assert column.tobytes() == before[section], section


@pytest.mark.parametrize("error", [OSError(errno.ENODEV, os.strerror(errno.ENODEV)),
                                   ValueError("cannot mmap an empty file")],
                         ids=["os-error", "value-error"])
def test_an_entry_that_cannot_be_mapped_is_a_miss_and_rewritten(tmp_path, manifest, parses,
                                                                cache_home, monkeypatch,
                                                                error):
    reference = plan(manifest, tmp_path / "a")
    [name] = entries(cache_home)
    entry = cache_home / "fedspeech" / name
    good, inode = entry.read_bytes(), entry.stat().st_ino
    monkeypatch.setattr(mmap, "mmap", _raise(error))
    assert plan(manifest, tmp_path / "b") == reference
    assert len(parses) == 2
    assert entries(cache_home) == [name]
    assert entry.read_bytes() == good and entry.stat().st_ino != inode
