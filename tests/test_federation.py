import codecs
import csv
import gc
import heapq
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import decode_ids, manifest_text, tie_heavy_rows, write_manifest
from fedspeech import federation, manifest_cache
from fedspeech.arch import WorkloadSpec, base_preset, large_preset
from fedspeech.costs import forward_flops
from fedspeech.devices import get_profile, predict_batch_time
from fedspeech.errors import ConfigError, MalformedRowError, ManifestError, MissingAnchorError
from fedspeech.federation import (Manifest, Partition, RoundSchedule, estimate_communication,
                                  estimate_wall_clock, load_manifest, partition_by_speaker,
                                  round_stragglers, schedule_rounds, uniform_partition)
from fedspeech.report import partition_payload, write_json


def write_tsv(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def head(manifest, n):
    """The first ``n`` rows of a manifest and the speakers that hold them."""
    ends = np.minimum(np.cumsum(manifest.speaker_rows), n)
    kept = int(np.searchsorted(ends, n)) + 1  # up to the speaker holding row n - 1
    return Manifest.of_rows(decode_ids(manifest.utterance_ids)[:n],
                            np.diff(ends[:kept], prepend=0), manifest.durations_s[:n])


def speaker_of_rows(manifest):
    """The speaker number of each row."""
    return np.repeat(np.arange(len(manifest.speaker_rows)), manifest.speaker_rows).tolist()


def clients_of(partition):
    """Each client of a manifest partition as (its utterance ids in order,
    its total duration, its speakers' numbers), from its columns."""
    manifest = partition.manifest
    texts, offsets = manifest.utterance_ids, manifest.id_offsets.tolist()
    ends = np.cumsum(partition.n_speakers).tolist()
    clients = []
    for lo, hi, total in zip([0] + ends, ends, partition.total_duration_s.tolist()):
        speakers = partition.speakers[lo:hi].tolist()
        ids = [u for s in speakers for u in decode_ids(texts[offsets[s]:offsets[s + 1]])]
        clients.append((tuple(ids), total, frozenset(speakers)))
    return clients


def rows_of(manifest):
    return list(zip(decode_ids(manifest.utterance_ids), speaker_of_rows(manifest),
                    manifest.durations_s.tolist()))


def _manifest(rows):
    """A manifest of (speaker number, duration) rows, held as the loader
    holds them: speakers in name order, each speaker's rows in the given
    order; row ``i`` has id ``u{i}``."""
    names = [f"spk{spk}" for spk, _ in rows]
    order = sorted(range(len(rows)), key=names.__getitem__)  # a stable sort
    return Manifest.of_rows([f"u{i}" for i in order],
                            [names.count(name) for name in sorted(set(names))],
                            [rows[i][1] for i in order])


def reference_rows(path):
    """(utterance, speaker, duration) rows read one at a time with csv.reader:
    the loader's semantics written as a plain loop."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh, delimiter="\t")
        header = [h.strip() for h in next(reader)]
        utt, spk, dur = (header.index(n) for n in ("path", "client_id", "duration[ms]"))
        return [(row[utt].strip(), row[spk].strip(), float(row[dur]) * 1e-3)
                for row in reader if row and not (len(row) == 1 and not row[0].strip())]


def grouped(rows):
    """(utterance, speaker, duration) rows as ``load_manifest`` holds them:
    grouped by speaker in name order, each speaker's rows in file order, and
    each speaker named by its number in name order."""
    number = {name: s for s, name in enumerate(sorted({spk for _, spk, _ in rows}))}
    return [(utt, number[spk], dur)
            for utt, spk, dur in sorted(rows, key=lambda row: row[1])]  # a stable sort


def add_rows_starts(monkeypatch):
    """The byte offset in the file at which each ``add_rows`` call starts
    reading, appended as calls come."""
    starts = []
    real_add_rows = federation._ManifestColumns.add_rows

    def add_rows(columns, text):
        starts.append(text.buffer.tell())
        return real_add_rows(columns, text)

    monkeypatch.setattr(federation._ManifestColumns, "add_rows", add_rows)
    return starts


def header_bytes(path):
    """The length of a file's first line, its newline included."""
    with open(path, "rb") as fh:
        return len(fh.readline())


def reference_first_bad_row(path):
    """(line, message) of the first row a record-at-a-time csv.reader loop
    rejects under the loader's rules, or None when every row is good."""
    with open(path, encoding="utf-8", errors="surrogateescape", newline="") as fh:
        reader = csv.reader(fh, delimiter="\t")
        header = [h.strip() for h in next(reader)]
        utt, spk, dur = (header.index(n) for n in ("path", "client_id", "duration[ms]"))
        seen = set()
        for line, row in enumerate(reader, start=2):
            if any("\udc80" <= c <= "\udcff" for c in "".join(row)):
                return line, "bytes that are not valid UTF-8"
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) < len(header):
                return line, f"expected {len(header)} fields, got {len(row)}"
            if not row[utt].strip() or not row[spk].strip():
                return line, "empty utterance or speaker id"
            try:
                duration = float(row[dur]) * 1e-3
            except ValueError:
                return line, f"duration {row[dur]!r} is not a number"
            if math.isnan(duration) or math.isinf(duration):
                return line, f"duration {duration!r} is not finite"
            if duration <= 0:
                return line, f"non-positive duration {duration!r}"
            if row[utt].strip() in seen:
                return line, f"duplicate utterance id {row[utt].strip()!r}"
            seen.add(row[utt].strip())
    return None


# Ways to break a (speaker, clip, sentence, milliseconds) row; ``earlier`` is
# the clip of a row above it.
BREAK_ROW = {
    "short": lambda row, earlier: row[:3],
    "empty id": lambda row, earlier: (row[0], " ") + row[2:],
    "empty speaker": lambda row, earlier: ("",) + row[1:],
    "not a number": lambda row, earlier: row[:3] + ("fast",),
    "empty duration": lambda row, earlier: row[:3] + ("",),
    "nan": lambda row, earlier: row[:3] + ("nan",),
    "inf": lambda row, earlier: row[:3] + ("inf",),
    "-inf": lambda row, earlier: row[:3] + ("-Infinity",),
    "zero": lambda row, earlier: row[:3] + ("0",),
    "negative": lambda row, earlier: row[:3] + ("-5",),
    "duplicate": lambda row, earlier: (row[0], earlier) + row[2:],
    "not utf-8": lambda row, earlier: (row[0], row[1], "caf\udce9") + row[3:],
}


def reference_partition(rows, k, seed):
    """Per-client (ids, total, speakers) from the record-at-a-time partitioner
    the columnar one replaced; speakers are numbered in name order, as the
    loader numbers them."""
    totals, by_speaker = {}, {}
    for utt, spk, dur in rows:
        totals[spk] = totals.get(spk, 0.0) + dur
        by_speaker.setdefault(spk, []).append((utt, dur))
    ordered = sorted(totals, key=lambda s: (-totals[s], s))
    rng = np.random.default_rng(seed)
    shuffled, i = [], 0
    while i < len(ordered):
        j = i
        while j < len(ordered) and totals[ordered[j]] == totals[ordered[i]]:
            j += 1
        group = ordered[i:j]
        if len(group) > 1:
            group = [group[g] for g in rng.permutation(len(group))]
        shuffled.extend(group)
        i = j
    heap = [(0.0, idx) for idx in range(k)]
    assigned = [[] for _ in range(k)]
    for speaker in shuffled:
        load, idx = heapq.heappop(heap)
        assigned[idx].append(speaker)
        heapq.heappush(heap, (load + totals[speaker], idx))
    number = {spk: s for s, spk in enumerate(sorted(totals))}
    clients = []
    for speakers in assigned:
        utts = [u for s in speakers for u in by_speaker[s]]
        total = 0.0  # one addition at a time, in row order
        for _, dur in utts:
            total += dur
        clients.append((tuple(u for u, _ in utts), total, frozenset(map(number.get, speakers))))
    return clients


class TestManifest:
    def test_well_formed(self, tmp_path):
        p = write_tsv(tmp_path / "m.tsv",
                      "utterance_id\tspeaker_id\tduration_s\n"
                      "u1\ts1\t5.0\nu2\ts1\t4.0\nu3\ts2\t6.5\n")
        manifest = load_manifest(p)
        assert len(manifest) == 3
        assert rows_of(manifest) == [("u1", 0, 5.0), ("u2", 0, 4.0), ("u3", 1, 6.5)]
        assert manifest.speaker_rows.tolist() == [2, 1]

    def test_common_voice_column_names(self, tmp_path):
        p = write_tsv(tmp_path / "cv.tsv",
                      "client_id\tpath\tsentence\tduration\n"
                      "spk9\tclip1.mp3\thello there\t3.25\n")
        assert rows_of(load_manifest(p)) == [("clip1.mp3", 0, 3.25)]

    def test_duration_in_milliseconds(self, tmp_path):
        p = write_tsv(tmp_path / "ms.tsv",
                      "utterance_id\tspeaker_id\tduration_ms\nu1\ts1\t5500\n")
        assert load_manifest(p).durations_s.tolist() == [5.5]

    def test_negative_duration_rejected_with_line(self, tmp_path):
        p = write_tsv(tmp_path / "bad.tsv",
                      "utterance_id\tspeaker_id\tduration_s\n"
                      "u1\ts1\t5.0\nu2\ts2\t-1\n")
        with pytest.raises(MalformedRowError) as err:
            load_manifest(p)
        assert err.value.line_number == 3

    def test_unparseable_duration(self, tmp_path):
        p = write_tsv(tmp_path / "bad.tsv",
                      "utterance_id\tspeaker_id\tduration_s\nu1\ts1\tfast\n")
        with pytest.raises(MalformedRowError):
            load_manifest(p)

    def test_missing_column(self, tmp_path):
        p = write_tsv(tmp_path / "nocol.tsv", "utterance_id\tduration_s\nu1\t5.0\n")
        with pytest.raises(ManifestError, match="^manifest has no speaker_id column$"):
            load_manifest(p)

    def test_short_row_rejected(self, tmp_path):
        p = write_tsv(tmp_path / "short.tsv",
                      "utterance_id\tspeaker_id\tduration_s\nu1\ts1\n")
        with pytest.raises(MalformedRowError):
            load_manifest(p)

    def test_speaker_totals_and_longest_first_order(self, tie_manifest, corpus_manifest):
        for manifest in (load_manifest(tie_manifest), corpus_manifest):
            ends = np.cumsum(manifest.speaker_rows).tolist()
            durations = manifest.durations_s.tolist()
            totals = []
            for lo, hi in zip([0] + ends, ends):  # added in row order, one at a time
                total = 0.0
                for duration in durations[lo:hi]:
                    total += duration
                totals.append(total)
            assert manifest.speaker_totals_s.tolist() == totals
            assert manifest.longest_first.tolist() == sorted(
                range(len(totals)), key=lambda s: (-totals[s], s))
            assert manifest.longest_first.dtype == np.int64

    def test_round_trips_fixture(self, corpus_manifest, corpus_manifest_path):
        loaded = load_manifest(corpus_manifest_path)
        assert len(loaded) == len(corpus_manifest) == 195_000
        total_h = sum(loaded.durations_s.tolist()) / 3600
        assert total_h == pytest.approx(298.0, rel=0.01)
        assert len(loaded.speaker_rows) == 6_000
        assert loaded.speaker_rows.min() >= 1
        assert loaded.utterance_ids.tobytes() == corpus_manifest.utterance_ids.tobytes()
        assert np.array_equal(loaded.speaker_rows, corpus_manifest.speaker_rows)
        assert np.array_equal(loaded.speaker_bytes, corpus_manifest.speaker_bytes)
        assert np.abs(loaded.durations_s - corpus_manifest.durations_s).max() <= 5e-7

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    @pytest.mark.parametrize("block", [64, 1000, 1 << 22])
    def test_blocks_match_row_at_a_time_reading(self, tmp_path, monkeypatch, newline,
                                                block):
        # Extra columns on some rows, blank lines, a quoted field and no final
        # newline, read in blocks of every size against the plain csv loop.
        rows = [row + ("extra",) if i % 7 == 0 else row
                for i, row in enumerate(tie_heavy_rows())]
        rows[200] = (rows[200][0], f'"{rows[200][1]}"') + rows[200][2:]
        lines = manifest_text(rows, newline).split(newline)
        lines[100:100] = ["", "   "]
        p = write_tsv(tmp_path / "m.tsv", newline.join(lines).rstrip(newline))
        monkeypatch.setattr(federation, "_READ_BLOCK_BYTES", block)
        assert rows_of(load_manifest(p)) == grouped(reference_rows(p))

    @pytest.mark.parametrize("bad,message", [
        ("{spk}\tx.mp3\t3000", "expected 4 fields, got 3"),
        ("{spk}\t \tx\t3000", "empty utterance or speaker id"),
        (" \tx.mp3\tx\t3000", "empty utterance or speaker id"),
        ("{spk}\tx.mp3\tx\tfast", "duration 'fast' is not a number"),
        ("{spk}\tx.mp3\tx\t", "duration '' is not a number"),
        ("{spk}\tx.mp3\tx\tnan", "duration nan is not finite"),
        ("{spk}\tx.mp3\tx\t-inf", "duration -inf is not finite"),
        ("{spk}\tx.mp3\tx\t-5", "non-positive duration -0.005"),
        ("{spk}\tx.mp3\tx\t0", "non-positive duration 0.0"),
        ("{spk}\tcommon_voice_00003.mp3\tx\t3000",
         "duplicate utterance id 'common_voice_00003.mp3'"),
    ])
    @pytest.mark.parametrize("block", [100, 1 << 22])
    @pytest.mark.parametrize("at", [5, 150, 219])
    def test_bad_row_named_with_its_line(self, tmp_path, monkeypatch, bad, message,
                                         block, at):
        rows = tie_heavy_rows()
        lines = manifest_text(rows).splitlines(keepends=True)
        lines.insert(at, bad.format(spk=rows[0][0]) + "\n")
        lines.insert(at + 1, bad.format(spk=rows[0][0]).replace("x.mp3", "y.mp3") + "\n")
        p = write_tsv(tmp_path / "bad.tsv", "".join(lines))
        monkeypatch.setattr(federation, "_READ_BLOCK_BYTES", block)
        with pytest.raises(MalformedRowError) as err:
            load_manifest(p)
        assert str(err.value) == f"line {at + 1}: {message}"
        assert err.value.line_number == at + 1

    @pytest.mark.parametrize("quoted", [False, True], ids=["blocks", "csv"])
    @pytest.mark.parametrize("block", [100, 1 << 22])
    @pytest.mark.parametrize("at", [0, 1, 5, 150])
    def test_bytes_not_utf8_named_with_their_line(self, tmp_path, monkeypatch, quoted,
                                                  block, at):
        # A quoted field on the first row sends the whole file through
        # csv.reader; line 1 is the header.
        rows = tie_heavy_rows()
        if quoted:
            rows[0] = (rows[0][0], f'"{rows[0][1]}"') + rows[0][2:]
        lines = manifest_text(rows).encode().splitlines(keepends=True)
        lines[at] = lines[at][:3] + b"\xe9" + lines[at][3:]  # Latin-1 e-acute
        (tmp_path / "bad.tsv").write_bytes(b"".join(lines))
        monkeypatch.setattr(federation, "_READ_BLOCK_BYTES", block)
        with pytest.raises(MalformedRowError) as err:
            load_manifest(tmp_path / "bad.tsv")
        assert str(err.value) == f"line {at + 1}: bytes that are not valid UTF-8"

    @pytest.mark.parametrize("quoted", [False, True], ids=["blocks", "csv"])
    def test_earlier_bad_row_named_before_bytes_not_utf8(self, tmp_path, quoted):
        rows = tie_heavy_rows()
        if quoted:
            rows[0] = (rows[0][0], f'"{rows[0][1]}"') + rows[0][2:]
        rows[9] = rows[9][:3] + (0,)
        lines = manifest_text(rows).encode().splitlines(keepends=True)
        lines[12] = lines[12].replace(b"short", b"sh\xf6rt")
        (tmp_path / "bad.tsv").write_bytes(b"".join(lines))
        with pytest.raises(MalformedRowError) as err:
            load_manifest(tmp_path / "bad.tsv")
        assert str(err.value) == "line 11: non-positive duration 0.0"

    def test_bad_duration_named_before_a_later_one_that_is_not_a_number(self, tmp_path):
        # Both rows in one block: the first bad row is named, not the first
        # duration that fails to parse.
        rows = tie_heavy_rows()
        rows[9] = rows[9][:3] + ("-inf",)
        rows[10] = rows[10][:3] + ("fast",)
        with pytest.raises(MalformedRowError) as err:
            load_manifest(write_tsv(tmp_path / "bad.tsv", manifest_text(rows)))
        assert str(err.value) == "line 11: duration -inf is not finite"

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), newline=st.sampled_from(["\n", "\r\n"]),
           block=st.integers(64, 4096) | st.integers(64, 4 << 20))
    def test_bad_rows_named_as_a_row_at_a_time_reader_names_them(
            self, tmp_path_factory, data, newline, block):
        # One to three bad rows of any kinds, often a few lines apart so that
        # one block holds two of them.
        rows = tie_heavy_rows()
        at = [data.draw(st.integers(1, len(rows) - 1))]
        for _ in range(data.draw(st.integers(0, 2))):
            at.append(min(at[-1] + data.draw(st.integers(1, 8)), len(rows) - 1))
        for i in at:
            kind = data.draw(st.sampled_from(sorted(BREAK_ROW)))
            earlier = rows[data.draw(st.integers(0, i - 1))][1]
            rows[i] = BREAK_ROW[kind](rows[i], earlier)
        p = tmp_path_factory.mktemp("bad") / "bad.tsv"
        p.write_bytes(manifest_text(rows, newline).encode("utf-8", "surrogateescape"))
        line, message = reference_first_bad_row(p)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(federation, "_READ_BLOCK_BYTES", block)
            with pytest.raises(MalformedRowError) as err:
                load_manifest(p)
        assert (err.value.line_number, str(err.value)) == (line, f"line {line}: {message}")

    @pytest.mark.parametrize("long_id", [10_000, 100], ids=["one-very-long", "many-long"])
    @pytest.mark.parametrize("block", [64, 1000])
    def test_ids_held_alike_whatever_the_blocks(self, tmp_path, monkeypatch, long_id,
                                                block):
        # Blocks are encoded one at a time, some holding ids of one length
        # and some of several; the whole is held as one file read in one
        # block is. Short ids from row 100 to 120 but for row 110, or only
        # row 17 long.
        long_rows = {17} if long_id == 10_000 else set(range(219)) - set(range(100, 121)) | {110}
        p = write_tsv(tmp_path / "m.tsv", manifest_text([
            (spk, f"{'x' * long_id if i in long_rows else 'c'}_{i}", sentence, ms)
            for i, (spk, _, sentence, ms) in enumerate(tie_heavy_rows())]))
        whole = load_manifest(p)
        monkeypatch.setattr(federation, "_READ_BLOCK_BYTES", block)
        again = load_manifest(p)
        assert again.utterance_ids.tobytes() == whole.utterance_ids.tobytes()
        assert again.speaker_bytes.tolist() == whole.speaker_bytes.tolist()
        assert decode_ids(again.utterance_ids) == [row[0] for row in grouped(reference_rows(p))]

    def test_non_ascii_utf8_accepted(self, tmp_path):
        rows = [(spk, clip, "un été à Reykjavík", ms)
                for spk, clip, _, ms in tie_heavy_rows()]
        p = write_tsv(tmp_path / "m.tsv", manifest_text(rows))
        assert rows_of(load_manifest(p)) == grouped(reference_rows(p))

    def test_rows_grouped_by_speaker_in_name_order(self, tie_manifest, tmp_path):
        manifest = load_manifest(tie_manifest)
        rows = reference_rows(tie_manifest)
        assert manifest.speaker_rows.tolist() == [  # each speaker's rows together
            sum(spk == name for _, spk, _ in rows) for name in sorted({s for _, s, _ in rows})]
        assert rows_of(manifest) == grouped(rows)  # in file order within a speaker
        manifest_cache.load_manifest_cached(tie_manifest)
        cached, _ = manifest_cache.load_manifest_cached(tie_manifest)  # a hit
        written = tmp_path / "written.tsv"
        write_manifest(written, manifest)
        for again in (cached, load_manifest(written)):
            assert again.speaker_rows.tolist() == manifest.speaker_rows.tolist()
            assert again.utterance_ids.tobytes() == manifest.utterance_ids.tobytes()
            assert again.speaker_bytes.tolist() == manifest.speaker_bytes.tolist()
            assert again.durations_s.tobytes() == manifest.durations_s.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(layout=st.integers(0, 2**32 - 1), k=st.integers(1, 12),
           seed=st.integers(0, 2**32 - 1))
    def test_interleaved_rows_load_and_partition_alike(self, tmp_path_factory, tie_manifest,
                                                      layout, k, seed):
        # The file's rows interleaved at random, each speaker's rows kept in
        # their order.
        rows = tie_heavy_rows()
        by_speaker = {}
        for row in rows:
            by_speaker.setdefault(row[0], []).append(row)
        queues = {spk: iter(spk_rows) for spk, spk_rows in by_speaker.items()}
        speakers = np.random.default_rng(layout).permutation([row[0] for row in rows])
        interleaved = [next(queues[spk]) for spk in speakers.tolist()]
        path = tmp_path_factory.mktemp("interleaved") / "m.tsv"
        path.write_text(manifest_text(interleaved))
        manifest, again = load_manifest(tie_manifest), load_manifest(path)
        assert again.utterance_ids.tobytes() == manifest.utterance_ids.tobytes()
        assert again.speaker_rows.tobytes() == manifest.speaker_rows.tobytes()
        assert again.speaker_bytes.tobytes() == manifest.speaker_bytes.tobytes()
        assert again.durations_s.tobytes() == manifest.durations_s.tobytes()
        assert clients_of(partition_by_speaker(again, k, seed)) == \
            clients_of(partition_by_speaker(manifest, k, seed))

    def test_cold_parse_allocates_under_three_times_the_file(self, corpus_manifest_path,
                                                            monkeypatch):
        monkeypatch.setattr(federation, "_READ_BLOCK_BYTES", 64 << 10)
        tracemalloc.start()
        try:
            load_manifest(corpus_manifest_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * corpus_manifest_path.stat().st_size

    @pytest.mark.parametrize("block", [64, 1000, 1 << 22])
    def test_ids_of_one_hash_are_read_again_and_loaded(self, tie_manifest, monkeypatch,
                                                      block):
        # Two distinct ids share a hash: each row is read again with
        # csv.reader, which finds no id twice.
        expected = load_manifest(tie_manifest)
        starts = add_rows_starts(monkeypatch)
        colliding = {"common_voice_00003.mp3", "common_voice_00150.mp3"}
        monkeypatch.setattr(federation, "_id_hash", lambda i: 0 if i in colliding else hash(i))
        monkeypatch.setattr(federation, "_READ_BLOCK_BYTES", block)
        again = load_manifest(tie_manifest)
        assert starts == [header_bytes(tie_manifest)]
        assert again.utterance_ids.tobytes() == expected.utterance_ids.tobytes()
        assert again.speaker_bytes.tobytes() == expected.speaker_bytes.tobytes()
        assert again.speaker_rows.tobytes() == expected.speaker_rows.tobytes()
        assert again.durations_s.tobytes() == expected.durations_s.tobytes()

    @pytest.mark.parametrize("block", [64, 1000, 4 << 20])
    def test_late_quoted_field_reads_the_whole_file_again(self, tmp_path, monkeypatch,
                                                          block):
        # Plain blocks come first; the quoted field near the end sends the
        # whole file, once, through csv.reader from the line after the header.
        # The tie-heavy rows, repeated under new ids until the file is longer
        # than a block.
        rows = [(spk, f"c{copy}_{clip}", sentence, ms) for copy in range(1 + block // 10_000)
                for spk, clip, sentence, ms in tie_heavy_rows()]
        rows[-5] = (rows[-5][0], f'"{rows[-5][1]}"') + rows[-5][2:]
        p = write_tsv(tmp_path / "m.tsv", manifest_text(rows))
        assert p.read_bytes().index(b'"') > header_bytes(p) + block
        starts = add_rows_starts(monkeypatch)
        monkeypatch.setattr(federation, "_READ_BLOCK_BYTES", block)
        assert rows_of(load_manifest(p)) == grouped(reference_rows(p))
        assert starts == [header_bytes(p)]

    @pytest.mark.parametrize("quoted", [False, True], ids=["blocks", "csv"])
    def test_header_after_a_byte_order_mark(self, tmp_path, quoted):
        rows = tie_heavy_rows()
        if quoted:
            rows[3] = (rows[3][0], f'"{rows[3][1]}"') + rows[3][2:]
        text = manifest_text(rows).encode()
        (tmp_path / "bom.tsv").write_bytes(codecs.BOM_UTF8 + text)
        (tmp_path / "plain.tsv").write_bytes(text)
        bom, plain = load_manifest(tmp_path / "bom.tsv"), load_manifest(tmp_path / "plain.tsv")
        assert bom.utterance_ids.tobytes() == plain.utterance_ids.tobytes()
        assert bom.speaker_rows.tobytes() == plain.speaker_rows.tobytes()
        assert bom.speaker_bytes.tobytes() == plain.speaker_bytes.tobytes()
        assert bom.durations_s.tobytes() == plain.durations_s.tobytes()
        assert len(bom) == len(rows)

    @pytest.mark.parametrize("block", [64, 1000, 4 << 20])
    def test_early_duplicate_named_before_a_later_bad_row(self, tmp_path, monkeypatch,
                                                          block):
        # A block before the bad row's holds the id twice; the bad row sends
        # the whole file to csv.reader, which names the duplicate's second
        # row.
        rows = tie_heavy_rows()
        rows[5] = (rows[5][0], rows[2][1]) + rows[5][2:]
        rows[200] = rows[200][:3] + ("-5",)
        p = write_tsv(tmp_path / "bad.tsv", manifest_text(rows))
        monkeypatch.setattr(federation, "_READ_BLOCK_BYTES", block)
        with pytest.raises(MalformedRowError) as err:
            load_manifest(p)
        assert str(err.value) == f"line 7: duplicate utterance id {rows[2][1]!r}"

    @pytest.mark.parametrize("block", [64, 1000, 4 << 20])
    def test_id_repeated_after_a_quoted_field_is_named(self, tmp_path, monkeypatch, block):
        # The quoted field sends the whole file to csv.reader, which sees
        # the ids of the rows before it too.
        rows = tie_heavy_rows()
        rows[150] = (rows[150][0], f'"{rows[150][1]}"') + rows[150][2:]
        rows[160] = (rows[160][0], rows[2][1]) + rows[160][2:]
        p = write_tsv(tmp_path / "bad.tsv", manifest_text(rows))
        monkeypatch.setattr(federation, "_READ_BLOCK_BYTES", block)
        with pytest.raises(MalformedRowError) as err:
            load_manifest(p)
        assert str(err.value) == f"line 162: duplicate utterance id {rows[2][1]!r}"

    def test_header_only_and_empty(self, tmp_path):
        p = write_tsv(tmp_path / "h.tsv", "utterance_id\tspeaker_id\tduration_s\n")
        assert len(load_manifest(p)) == 0
        with pytest.raises(ManifestError, match="^manifest is empty$"):
            load_manifest(write_tsv(tmp_path / "e.tsv", ""))

    def test_quoted_manifest_reader_is_closed(self, tmp_path):
        # A quoted field sends the file to csv.reader through a text wrapper,
        # which is closed whether the rows are accepted or one is refused.
        header = "utterance_id\tspeaker_id\tduration_s\n"
        good = write_tsv(tmp_path / "good.tsv", header + '"u 1"\ts1\t5.0\n')
        bad = write_tsv(tmp_path / "bad.tsv", header + '"u 1"\ts1\t-1\n')
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            assert rows_of(load_manifest(good)) == [("u 1", 0, 5.0)]
            try:
                load_manifest(bad)
            except MalformedRowError as exc:
                assert str(exc) == "line 2: non-positive duration -1.0"
            else:
                pytest.fail("the bad row was accepted")
            gc.collect()
        assert [str(w.message) for w in caught if w.category is ResourceWarning] == []


class TestPartition:
    def test_single_client_gets_everything(self, corpus_manifest):
        part = partition_by_speaker(head(corpus_manifest, 1000), 1, seed=0)
        assert part.n_clients == 1
        assert part.n_utterances.tolist() == [1000]

    def test_corpus_scale_counts(self, corpus_manifest):
        part = partition_by_speaker(corpus_manifest, 10, seed=3)
        for n in part.n_utterances.tolist():
            assert n == pytest.approx(19_500, rel=0.05)

    def test_duration_balance(self, corpus_manifest):
        part = partition_by_speaker(corpus_manifest, 10, seed=3)
        durations = part.total_duration_s.tolist()
        assert max(durations) / min(durations) <= 1.1

    def test_speakers_disjoint_and_exhaustive(self, corpus_manifest):
        part = partition_by_speaker(corpus_manifest, 10, seed=3)
        seen = set()
        for _, _, speakers in clients_of(part):
            assert not (speakers & seen)
            seen |= speakers
        assert part.n_utterances.sum() == len(corpus_manifest)

    def test_bit_identical_for_fixed_seed(self, corpus_manifest, tmp_path):
        for name in ("a", "b"):
            write_json(tmp_path / name, partition_payload(
                partition_by_speaker(corpus_manifest, 10, seed=11), {}))
        assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()

    def test_seed_changes_assignment(self, tie_manifest):
        # many speakers share a total there, so the seeded shuffle of equal
        # totals decides which client holds them
        manifest = load_manifest(tie_manifest)
        a, b = (partition_by_speaker(manifest, 4, seed=s) for s in (1, 2))
        assert a.n_clients == b.n_clients == 4
        held = [[set(ids) for ids, _, _ in clients_of(p)] for p in (a, b)]
        assert held[0] != held[1]

    def test_too_few_speakers(self, tmp_path):
        p = write_tsv(tmp_path / "m.tsv",
                      "utterance_id\tspeaker_id\tduration_s\nu1\ts1\t3.0\nu2\ts1\t4.0\n")
        with pytest.raises(ConfigError, match="^1 distinct speakers cannot fill 2 clients$"):
            partition_by_speaker(load_manifest(p), 2, seed=0)

    @pytest.mark.parametrize("k,seed", [(1, 0), (3, 1), (3, 2), (10, 3), (10, 4)])
    def test_matches_record_at_a_time_partitioner(self, tie_manifest, k, seed):
        part = partition_by_speaker(load_manifest(tie_manifest), k, seed=seed)
        assert clients_of(part) == reference_partition(reference_rows(tie_manifest), k, seed)

    def test_matches_record_at_a_time_partitioner_at_corpus_scale(self, corpus_manifest):
        part = partition_by_speaker(corpus_manifest, 10, seed=3)
        assert clients_of(part) == reference_partition(rows_of(corpus_manifest), 10, 3)

    @pytest.mark.parametrize("n", [256, 257, 65_536, 65_537])
    def test_matches_record_at_a_time_partitioner_at_each_index_width(self, corpus_manifest,
                                                                      n):
        # the row index is uint8 up to 256 rows and uint16 up to 65,536, and
        # each backward jump in it wraps around
        subset = head(corpus_manifest, n)
        for k in (1, 7):
            part = partition_by_speaker(subset, k, seed=n)
            assert clients_of(part) == reference_partition(rows_of(subset), k, n)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_clients_disjoint_complete_and_seed_determined(self, data):
        rows = data.draw(st.lists(st.tuples(
            st.integers(0, 11), st.sampled_from((1.2, 2.5, 3.0)) | st.floats(0.1, 30.0)),
            min_size=1, max_size=60))
        manifest = _manifest(rows)
        k = data.draw(st.integers(1, len(manifest.speaker_rows)))
        seed = data.draw(st.integers(0, 2**32 - 1))
        part = partition_by_speaker(manifest, k, seed)
        speaker_of = dict(zip(decode_ids(manifest.utterance_ids), speaker_of_rows(manifest)))
        clients = clients_of(part)
        assert part.n_utterances.tolist() == [len(ids) for ids, _, _ in clients]
        assert part.n_speakers.tolist() == [len(spk) for _, _, spk in clients]
        assert sorted(u for ids, _, _ in clients for u in ids) == sorted(speaker_of)  # once each
        for ids, _, speakers in clients:
            assert {speaker_of[u] for u in ids} == speakers
        assert sum(len(spk) for _, _, spk in clients) == len(manifest.speaker_rows)
        assert clients_of(partition_by_speaker(manifest, k, seed)) == clients

    def test_clients_are_views_of_one_partition_wide_index(self, corpus_manifest):
        # The partition keeps the manifest and one speaker order: each
        # speaker once, client by client, each client's longest first; a
        # client's counts and total are those of its speakers' rows in turn.
        part = partition_by_speaker(corpus_manifest, 10, seed=3)
        assert part.manifest is corpus_manifest
        assert np.array_equal(np.sort(part.speakers),
                              np.arange(len(corpus_manifest.speaker_rows)))
        rows = corpus_manifest.speaker_rows.tolist()
        row_starts = (np.cumsum(rows) - rows).tolist()
        durations = corpus_manifest.durations_s.tolist()
        ends = np.cumsum(part.n_speakers).tolist()
        for c, (lo, hi) in enumerate(zip([0] + ends, ends)):
            speakers = part.speakers[lo:hi].tolist()
            held = [r for s in speakers for r in range(row_starts[s], row_starts[s] + rows[s])]
            totals = [sum(durations[row_starts[s]:row_starts[s] + rows[s]]) for s in speakers]
            assert totals == sorted(totals, reverse=True)
            assert part.n_utterances[c] == len(held)
            total = 0.0
            for r in held:
                total += durations[r]
            assert part.total_duration_s[c] == total

    def test_partition_allocates_less_than_the_manifest_ids(self, corpus_manifest):
        # the synthetic_manifest() of the checks: each client is an index,
        # not a copy of its ids
        tracemalloc.start()
        try:
            partition_by_speaker(corpus_manifest, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the ids' JSON texts, without their separators
        assert peak < len(corpus_manifest.utterance_ids) \
            - len(federation.ID_SEPARATOR) * len(corpus_manifest)

    def test_balance_property_on_smaller_manifests(self, corpus_manifest):
        # >= 100 speakers and k <= speakers / 10 keeps max/min under 1.25
        subset = head(corpus_manifest, 20_000)
        speakers = len(subset.speaker_rows)
        assert speakers >= 100
        part = partition_by_speaker(subset, min(10, speakers // 10), seed=5)
        durations = part.total_duration_s.tolist()
        assert max(durations) / min(durations) <= 1.25


class TestIdealisedPartition:
    def test_clients_carry_counts_and_no_ids(self, tmp_path):
        part = uniform_partition(3, 40, 2.5)
        assert (part.n_utterances.tolist(), part.total_duration_s.tolist(),
                part.n_speakers.tolist(), part.manifest, part.speakers) == \
            ([40] * 3, [100.0] * 3, [1] * 3, None, None)
        assert part.mean_duration_s.tolist() == [2.5] * 3
        write_json(tmp_path / "p.json", partition_payload(part, {}))
        clients = json.loads((tmp_path / "p.json").read_text())["clients"]
        assert [c["client_id"] for c in clients] == [f"client_{i}" for i in range(3)]
        assert all("utterance_ids" not in c for c in clients)

    def test_a_billion_clips_each_cost_no_memory(self):
        tracemalloc.start()
        try:
            part = uniform_partition(3, 10**9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert part.n_utterances.tolist() == [10**9] * 3
        assert part.total_duration_s[0] == 5.5 * 10**9


class TestSchedule:
    def test_full_participation(self):
        schedule = schedule_rounds(10, 10, 150, seed=4)
        assert schedule.n_rounds == 150
        assert schedule.selected.tolist() == [list(range(10))] * 150

    def test_partial_participation_shape(self):
        schedule = schedule_rounds(100, 20, 500, seed=4)
        assert (schedule.n_rounds, schedule.per_round) == (500, 20)
        for sel in schedule.selected.tolist():
            assert len(sel) == len(set(sel)) == 20
            assert all(0 <= c < 100 for c in sel)

    def test_single_round_all_clients(self):
        schedule = schedule_rounds(5, 5, 1, seed=0)
        assert schedule.selected.tolist() == [[0, 1, 2, 3, 4]]

    def test_deterministic(self):
        assert schedule_rounds(100, 20, 50, seed=9).selected.tolist() == \
            schedule_rounds(100, 20, 50, seed=9).selected.tolist()

    @pytest.mark.parametrize("total,per_round,rounds,seed",
                             [(30, 7, 40, 2), (500, 50, 1000, 0), (8, 8, 25, 5)])
    def test_rows_are_each_rounds_draw_sorted(self, total, per_round, rounds, seed):
        # the reference: one draw per round from one generator, sorted; a full
        # selection makes no draw and must still give these rows
        rng = np.random.default_rng(seed)
        drawn = [sorted(rng.choice(total, size=per_round, replace=False).tolist())
                 for _ in range(rounds)]
        assert schedule_rounds(total, per_round, rounds, seed).selected.tolist() == drawn

    def test_invalid_sizes(self):
        with pytest.raises(ConfigError, match="^cannot select 11 of 10 clients$"):
            schedule_rounds(10, 11, 5, seed=0)
        with pytest.raises(ConfigError, match="^need at least one round$"):
            schedule_rounds(10, 5, 0, seed=0)

    # 8e19 bytes is more than an index holds; 8e16 more than any address space;
    # 8e400 more than a float holds, so the message must not go through one
    @pytest.mark.parametrize("total,per_round,rounds", [
        (10, 10, 10**18), (100, 10, 10**15), (10, 10, 10**400),
    ], ids=["no-index", "no-memory", "no-float"])
    def test_a_schedule_too_large_to_allocate_is_refused(self, total, per_round, rounds):
        with pytest.raises(ConfigError) as exc:
            schedule_rounds(total, per_round, rounds)
        assert str(exc.value) == (f"{rounds} rounds x {per_round} clients per round "
                                  "cannot be allocated")

    def test_selection_uniformity(self):
        schedule = schedule_rounds(100, 20, 10_000, seed=123)
        freqs = np.bincount(schedule.selected.ravel(), minlength=100) / 10_000
        assert freqs.min() >= 0.18 and freqs.max() <= 0.22


def slowest_per_round(schedule, epoch_seconds, local_epochs):
    """Each round's slowest client, one selection at a time: the reference
    for the gather in ``estimate_wall_clock``."""
    return tuple(max(epoch_seconds[idx] * local_epochs for idx in selected)
                 for selected in schedule.selected.tolist())


class TestWallClock:
    @pytest.mark.parametrize("local_epochs", [1, 3])
    def test_round_maxima_match_one_selection_at_a_time(self, corpus_manifest,
                                                        local_epochs):
        # one device; the clients' mean clip lengths differ
        partition = partition_by_speaker(corpus_manifest, 40, seed=3)
        schedule = schedule_rounds(40, 7, 300, seed=5)
        est = estimate_wall_clock(partition, schedule, get_profile("nx"), base_preset(),
                                  WorkloadSpec(batch=4), local_epochs=local_epochs)
        expected = slowest_per_round(schedule, est.seconds_per_local_epoch.tolist(),
                                     local_epochs)
        assert len(set(expected)) > 10  # the slowest client varies by round
        assert est.seconds_per_round.dtype == np.float64
        assert [x.hex() for x in est.seconds_per_round.tolist()] == \
            [x.hex() for x in expected]
        total = 0.0
        for x in expected:  # in order, one at a time, whatever the Python version's sum
            total += x
        assert est.total_seconds.hex() == total.hex()

    @pytest.mark.parametrize("local_epochs", [1, 3])
    @pytest.mark.parametrize("clients", ["manifest", "tied", "uniform"])
    def test_stragglers_match_one_selection_at_a_time(self, corpus_manifest, clients,
                                                      local_epochs):
        partition = {
            "manifest": lambda: partition_by_speaker(corpus_manifest, 40, seed=3),
            # three kinds of client, so most rounds hold a tie for the slowest
            "tied": lambda: Partition(np.resize(np.array([300, 700, 500]), 40),
                                      np.resize(np.array([300 * 5.5, 700 * 5.5, 500 * 6.0]),
                                                40), np.ones(40, np.int64), seed=0),
            "uniform": lambda: uniform_partition(40, 100),
        }[clients]()
        schedule = schedule_rounds(40, 7, 300, seed=5)
        est = estimate_wall_clock(partition, schedule, get_profile("nx"), base_preset(),
                                  WorkloadSpec(batch=4), local_epochs=local_epochs)
        seconds = est.seconds_per_local_epoch.tolist()
        expected = [max(selected, key=lambda c: seconds[c] * local_epochs)
                    for selected in schedule.selected.tolist()]
        stragglers = round_stragglers(est, schedule, local_epochs)
        assert stragglers.tolist() == expected
        assert (est.seconds_per_local_epoch[stragglers] * local_epochs).tolist() == \
            est.seconds_per_round.tolist()
        if clients != "manifest":  # rounds whose slowest is more than one client
            assert sum(sum(seconds[c] == seconds[s] for c in selected) > 1
                       for s, selected in zip(expected, schedule.selected.tolist())) > 100

    def test_stragglers_that_cannot_be_allocated_are_refused(self, monkeypatch):
        schedule = schedule_rounds(10, 10, 150)
        est = estimate_wall_clock(uniform_partition(10, 19_500), schedule,
                                  get_profile("a40"), base_preset(), WorkloadSpec(batch=4))

        def too_large(*args):
            raise MemoryError

        monkeypatch.setattr(federation, "_selected_seconds", too_large)
        with pytest.raises(ConfigError) as exc:
            round_stragglers(est, schedule)
        assert str(exc.value) == ("the stragglers of 150 rounds x 10 clients per round "
                                  "cannot be allocated")

    def test_reference_plan_numbers(self):
        arch = base_preset()
        partition = uniform_partition(10, 19_500)
        schedule = schedule_rounds(10, 10, 150, seed=0)
        est = estimate_wall_clock(partition, schedule, get_profile("a40"), arch,
                                  WorkloadSpec(batch=4))
        epoch_h = est.seconds_per_local_epoch[0] / 3600
        assert epoch_h == pytest.approx(0.37, rel=0.02)
        assert est.total_hours == pytest.approx(55.5, rel=0.02)
        assert est.total_days == pytest.approx(2.31, rel=0.02)

    @pytest.mark.parametrize("device,days", [
        ("macbook", 110.0), ("rpi", 456.0), ("agx", 9.0), ("nx", 15.0)])
    def test_edge_device_totals(self, device, days):
        arch = base_preset()
        partition = uniform_partition(10, 19_500)
        schedule = schedule_rounds(10, 10, 150, seed=0)
        est = estimate_wall_clock(partition, schedule, get_profile(device), arch,
                                  WorkloadSpec(batch=4))
        assert est.total_days == pytest.approx(days, rel=0.05)

    def test_single_batch_trivial_case(self):
        arch = base_preset()
        partition = uniform_partition(1, 64)
        schedule = schedule_rounds(1, 1, 1, seed=0)
        est = estimate_wall_clock(partition, schedule, get_profile("a40"), arch,
                                  WorkloadSpec(batch=64))
        # one predicted batch only: 64 sequences of 5.5 s, nearest anchor is b4
        pred = predict_batch_time(get_profile("a40"), arch, WorkloadSpec(5.5, batch=64))
        assert est.total_seconds == pytest.approx(pred.seconds_per_batch, rel=1e-12)

    def test_total_is_sum_of_round_maxima(self):
        arch = base_preset()
        partition = uniform_partition(4, 100)
        schedule = schedule_rounds(4, 2, 25, seed=2)
        est = estimate_wall_clock(partition, schedule, get_profile("nx"), arch,
                                  WorkloadSpec(batch=4))
        assert est.total_seconds == pytest.approx(sum(est.seconds_per_round), rel=1e-12)
        # homogeneous devices and equal clients: every round costs the same
        assert est.total_seconds == pytest.approx(
            25 * est.seconds_per_round[0], rel=1e-12)

    def test_round_times_allocate_at_most_three_words_a_round(self):
        # the gather, its row max and the copy the total is added in; a tuple
        # of the round times as Python floats took 48 B a round
        rounds = 10**6
        schedule = schedule_rounds(1, 1, rounds)
        tracemalloc.start()
        try:
            est = estimate_wall_clock(uniform_partition(1, 100), schedule, get_profile("a40"),
                                      base_preset(), WorkloadSpec(batch=4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 24 * rounds
        assert est.seconds_per_round.shape == (rounds,)

    def test_no_rounds_take_no_time(self):
        empty = RoundSchedule(selected=np.empty((0, 2), np.int64), total_clients=2, seed=0)
        est = estimate_wall_clock(uniform_partition(2, 100), empty, get_profile("a40"),
                                  base_preset(), WorkloadSpec(batch=4))
        assert (est.seconds_per_round.shape, est.total_seconds) == ((0,), 0.0)

    def test_local_epochs_scale_round_time(self):
        arch = base_preset()
        partition = uniform_partition(2, 100)
        schedule = schedule_rounds(2, 2, 3, seed=0)
        a40, workload = get_profile("a40"), WorkloadSpec(batch=4)
        one = estimate_wall_clock(partition, schedule, a40, arch, workload)
        three = estimate_wall_clock(partition, schedule, a40, arch, workload, local_epochs=3)
        assert three.total_seconds == pytest.approx(3 * one.total_seconds, rel=1e-12)

    def test_one_prediction_per_distinct_mean_duration(self, monkeypatch, corpus_manifest):
        # Over a manifest partition and over equal idealised clients: each
        # distinct mean duration is predicted once, and the result is that of
        # one prediction per client.
        calls = []

        def counted(profile, arch, workload):
            calls.append(workload)
            return predict_batch_time(profile, arch, workload)

        nx = get_profile("nx")
        for partition in (partition_by_speaker(corpus_manifest, 12, seed=1),
                          uniform_partition(12, 300)):
            schedule = schedule_rounds(12, 4, 5, seed=0)
            monkeypatch.setattr(federation, "predict_batch_time", counted)
            calls.clear()
            est = estimate_wall_clock(partition, schedule, nx, base_preset(),
                                      WorkloadSpec(batch=4))
            monkeypatch.undo()
            means = partition.mean_duration_s.tolist()
            assert len(calls) == len(set(calls)) == len(set(means))
            assert est.seconds_per_local_epoch.tolist() == [
                math.ceil(n / 4) * predict_batch_time(
                    nx, base_preset(), WorkloadSpec(mean, batch=4)).seconds_per_batch
                for n, mean in zip(partition.n_utterances.tolist(), means)]
        assert len(calls) == 1  # the idealised clients share one mean duration

    def test_missing_anchor_propagates(self):
        partition = uniform_partition(2, 100)
        schedule = schedule_rounds(2, 2, 1, seed=0)
        with pytest.raises(MissingAnchorError):
            estimate_wall_clock(partition, schedule, get_profile("rpi"), large_preset(),
                                WorkloadSpec(batch=4))

    def test_ceil_batching(self):
        arch = base_preset()
        partition = uniform_partition(1, 101)
        schedule = schedule_rounds(1, 1, 1, seed=0)
        est = estimate_wall_clock(partition, schedule, get_profile("a40"), arch,
                                  WorkloadSpec(batch=4))
        per_batch = predict_batch_time(get_profile("a40"), arch,
                                       WorkloadSpec(5.5, batch=4)).seconds_per_batch
        assert est.total_seconds == pytest.approx(
            math.ceil(101 / 4) * per_batch, rel=1e-12)


class TestCommunication:
    def test_reference_volume(self):
        schedule = schedule_rounds(10, 10, 150, seed=0)
        volume = estimate_communication(forward_flops(base_preset(), WorkloadSpec()), schedule)
        # params * 4 B * 2 directions * 10 clients * 150 rounds ~= 1.137 TB
        assert volume == pytest.approx(1.1375e12, rel=0.01)

    def test_zero_rounds_zero_bytes(self):
        empty = RoundSchedule(selected=np.empty((0, 10), np.int64), total_clients=10,
                              seed=0)
        assert estimate_communication(forward_flops(base_preset(), WorkloadSpec()),
                                      empty) == 0.0

    def test_large_to_base_ratio_tracks_param_ratio(self):
        schedule = schedule_rounds(10, 10, 150, seed=0)
        large = forward_flops(large_preset(), WorkloadSpec())
        base = forward_flops(base_preset(), WorkloadSpec())
        ratio = (estimate_communication(large, schedule)
                 / estimate_communication(base, schedule))
        assert ratio == pytest.approx(316.00 / 94.79, rel=0.01)
        assert ratio == pytest.approx(large.total_params / base.total_params, rel=1e-12)

    def test_mixed_halves_volume(self):
        from fedspeech.arch import Precision
        schedule = schedule_rounds(10, 10, 150, seed=0)
        base = forward_flops(base_preset(), WorkloadSpec())
        assert estimate_communication(base, schedule, Precision.MIXED) == \
            estimate_communication(base, schedule) / 2
