"""On-disk formats: corpus bundle and model file round trips, checksums."""

import json
import os
import re
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eqvec import bundle as bundle_io
from eqvec.bundle import BundleFormatError, load_bundle, save_bundle
from eqvec.corpus import EQ_TAG, GAP, EquationRegistry, IngestParams, TokenStream, Vocabulary, ingest_corpus
from eqvec.model import EmbeddingTable, Model, ModelConfig, UnitGroups, unit_means
from eqvec.modelfile import (
    ChecksumError,
    ModelFileError,
    format_header,
    load_model,
    read_header,
    save_model,
)
from eqvec.tex import RawDocument

from . import reference_bundle
from .conftest import (Item, corpus_from_streams, drop_last_equation, equation_units, heldout_items, heldout_set,
                       token_streams, write_eq_units)
from .reference_model import fsum_mean
from .reference_training import unit_lists


def tiny_corpus_data():
    docs = [
        RawDocument(
            "a",
            "Modeling words everywhere always. $$x + y$$ modeling words everywhere always.",
        ),
        RawDocument(
            "b",
            "Another words everywhere always modeling. $$x + y$$ also $$z^2$$ words modeling.",
        ),
    ]
    params = IngestParams(
        min_tf=2, min_len=4, top_stop=0, abbrev_top=0,
        heldout_per_equation=1, heldout_window=4, n_negatives=2, seed=5,
    )
    return ingest_corpus(docs, params)


def test_bundle_round_trip(tmp_path):
    data = tiny_corpus_data()
    path = save_bundle(data, str(tmp_path / "bundle"))
    loaded = load_bundle(path)
    assert loaded.word_vocab.forms == data.word_vocab.forms
    assert np.array_equal(loaded.word_vocab.freqs, data.word_vocab.freqs)
    assert [(r.eq_id, r.occurrence_count, r.latex) for r in loaded.registry.records] == [
        (r.eq_id, r.occurrence_count, r.latex) for r in data.registry.records
    ]
    assert loaded.unit_vocab.forms == data.unit_vocab.forms
    assert len(loaded.streams) == len(data.streams)
    for s, l in zip(data.streams, loaded.streams):
        assert s.doc_id == l.doc_id
        assert np.array_equal(s.codes, l.codes)
    for mine, theirs in ((data.eq_units, loaded.eq_units),):
        assert set(mine) == set(theirs)
        for k in mine:
            assert np.array_equal(mine[k], theirs[k])
    assert loaded.heldout_valid == data.heldout_valid
    assert loaded.heldout_test == data.heldout_test
    assert loaded.params == data.params


def test_bundle_rewrite_is_byte_identical(tmp_path):
    data = tiny_corpus_data()
    p1 = save_bundle(data, str(tmp_path / "b1"))
    p2 = save_bundle(data, str(tmp_path / "b2"))
    for name in sorted(os.listdir(p1)):
        with open(os.path.join(p1, name), "rb") as f1, open(os.path.join(p2, name), "rb") as f2:
            assert f1.read() == f2.read(), name


def test_bundle_overwrite_replaces(tmp_path):
    data = tiny_corpus_data()
    path = str(tmp_path / "bundle")
    save_bundle(data, path)
    save_bundle(data, path)
    assert load_bundle(path).stats == data.stats


def test_bundle_replaces_only_an_empty_directory_or_a_bundle(tmp_path):
    data = tiny_corpus_data()
    empty = tmp_path / "empty"
    empty.mkdir()
    assert load_bundle(save_bundle(data, str(empty))).stats == data.stats
    other = tmp_path / "other"
    other.mkdir()
    (other / "manifest.json").write_text('{"format": "something-else"}')
    (other / "notes.txt").write_text("keep me")
    a_file = tmp_path / "a_file"
    a_file.write_text("keep me too")
    for target in (other, a_file):
        with pytest.raises(FileExistsError, match="not an empty directory or an eqvec bundle"):
            save_bundle(data, str(target))
    assert sorted(os.listdir(other)) == ["manifest.json", "notes.txt"]
    assert a_file.read_text() == "keep me too"
    assert not [n for n in os.listdir(tmp_path) if n.startswith(".bundle-")]


def test_bundle_files_have_headers(tmp_path):
    data = tiny_corpus_data()
    path = save_bundle(data, str(tmp_path / "bundle"))
    for name in ("vocab.bin", "equations.bin", "units.bin", "streams.bin", "eq_units.bin", "heldout.valid.bin",
                 "heldout.test.bin"):
        with open(os.path.join(path, name), "rb") as f:
            assert f.readline().startswith(b"# eqvec-")


def test_bundle_unknown_manifest_param_rejected(tmp_path):
    path = save_bundle(tiny_corpus_data(), str(tmp_path / "bundle"))
    manifest_path = os.path.join(path, "manifest.json")
    with open(manifest_path) as f:
        manifest = json.load(f)
    manifest["params"]["no_such_param"] = 1
    with open(manifest_path, "w") as f:
        json.dump(manifest, f)
    with pytest.raises(BundleFormatError, match="no_such_param"):
        load_bundle(path)


@pytest.mark.parametrize("doc_id", ["a\nb", "a\rb", "", "\ud800"],
                         ids=["newline", "carriage_return", "empty", "lone_surrogate"])
def test_doc_id_the_layout_cannot_hold_refused_at_save(doc_id, tmp_path):
    # streams.bin separates the doc ids with newlines, so such an id would
    # read back as other ids, or not at all
    data = tiny_corpus_data()
    data.streams.doc_ids[1] = doc_id
    kept = save_bundle(tiny_corpus_data(), str(tmp_path / "kept"))
    before = {f: (tmp_path / "kept" / f).read_bytes() for f in os.listdir(kept)}
    for target in (tmp_path / "new", tmp_path / "kept"):
        with pytest.raises(BundleFormatError, match="cannot save bundle"):
            save_bundle(data, str(target))
    assert sorted(os.listdir(tmp_path)) == ["kept"]
    assert {f: (tmp_path / "kept" / f).read_bytes() for f in os.listdir(kept)} == before


def test_doc_id_with_a_tab_saved_and_loaded_back(tmp_path):
    # no bundle file separates document ids with tabs
    data = tiny_corpus_data()
    data.streams.doc_ids[1] = "a\tb"
    loaded = load_bundle(save_bundle(data, str(tmp_path / "bundle")))
    assert loaded.streams.doc_ids == data.streams.doc_ids
    assert loaded.heldout_valid == data.heldout_valid and loaded.heldout_test == data.heldout_test


def test_bundle_of_another_version_rejected_then_replaced(tmp_path):
    path = save_bundle(tiny_corpus_data(), str(tmp_path / "bundle"))
    manifest_path = os.path.join(path, "manifest.json")
    with open(manifest_path) as f:
        manifest = json.load(f)
    for version in (1, 3):  # 3 is the layout with text string tables
        manifest["version"] = version
        with open(manifest_path, "w") as f:
            json.dump(manifest, f)
        for load in (load_bundle, bundle_io.load_query_files):
            with pytest.raises(BundleFormatError, match=re.escape(f"bundle {path} has format version {version}, "
                                                                  "this eqvec reads 4: re-run `eqvec ingest` to "
                                                                  "rebuild it")):
                load(path)
    load_bundle(save_bundle(tiny_corpus_data(), path))  # a bundle of any version is replaced


def test_bundle_bad_header_rejected(tmp_path):
    # a version-3 text table keeps its name's stem but not its header
    data = tiny_corpus_data()
    for name, old in (("vocab.bin", b"# eqvec-vocab 1\n"), ("equations.bin", b"# eqvec-equations 1\n"),
                      ("units.bin", b"# eqvec-units 1\n")):
        path = save_bundle(data, str(tmp_path / "bundle"))
        table = os.path.join(path, name)
        with open(table, "rb") as f:
            f.readline()
            rest = f.read()
        with open(table, "wb") as f:
            f.write(old + rest)
        with pytest.raises(BundleFormatError, match=re.escape(f"bad file header in bundle {table}")):
            load_bundle(path)


@pytest.mark.parametrize(
    "name",
    ["manifest.json", "vocab.bin", "equations.bin", "units.bin", "streams.bin", "eq_units.bin",
     "heldout.valid.bin", "heldout.test.bin"],
)
def test_truncated_bundle_file_rejected(name, tmp_path):
    path = save_bundle(tiny_corpus_data(), str(tmp_path / "bundle"))
    with open(os.path.join(path, name), "rb") as f:
        raw = f.read()
    with open(os.path.join(path, name), "wb") as f:
        f.write(raw[: len(raw) // 2])
    with pytest.raises(BundleFormatError):
        load_bundle(path)


@pytest.mark.parametrize("name", ["vocab.bin", "equations.bin", "units.bin"])
@pytest.mark.parametrize("change", [lambda block: block.replace(b"\n", b"", 1),
                                    lambda block: block.replace(b"\n", b"\n\n", 1)[:-1]],
                         ids=["newline_missing", "newline_extra"])
def test_string_block_with_another_number_of_newlines_rejected(name, change, tmp_path):
    # the writer puts no newline inside a string, so a block of the same
    # size whose newlines do not separate exactly n strings is corrupt
    path = save_bundle(tiny_corpus_data(), str(tmp_path / "bundle"))
    with open(os.path.join(path, name), "rb") as f:
        raw = f.read()
    at = raw.index(b"\n") + 1 + 8
    n, size = struct.unpack_from("<II", raw, at - 8)
    block = change(raw[at : at + size]).ljust(size, b"x")
    assert n >= 2 and len(block) == size
    with open(os.path.join(path, name), "wb") as f:
        f.write(raw[:at] + block + raw[at + size :])
    with pytest.raises(BundleFormatError, match=re.escape(f"strings, {n} rows")):
        load_bundle(path)


def _word_position(codes):
    return int(np.flatnonzero(codes < EQ_TAG)[0])


def _break_stream_word(data):
    codes = data.streams[0].codes
    codes[_word_position(codes)] |= np.uint32(1 << 22)  # one flipped bit


def _break_stream_equation(data):
    data.streams[0].codes[_word_position(data.streams[0].codes)] = EQ_TAG | np.uint32(len(data.registry))


def _saved_after(change):
    """Damage done to the corpus before it is saved."""
    def damage(data, path):
        change(data)
        return save_bundle(data, path)
    return damage


def _break_heldout(split, change):
    """Damage to the first item of one held-out split before the corpus is
    saved: ``change(item, data)`` is the item that replaces it."""
    def damage(data):
        held = getattr(data, f"heldout_{split}")
        first, *rest = heldout_items(held)
        setattr(data, f"heldout_{split}", heldout_set([change(first, data), *rest], held.split))
    return _saved_after(damage)


def _other_word(item, data):
    codes = data.streams[item.stream].codes.tolist()
    return next(p for p, c in enumerate(codes) if c < len(data.word_vocab) and c != item.target)


def _append_to_first_row(data, *units):
    rows = list(data.eq_units.values())
    data.eq_units = equation_units([np.append(rows[0], units), *rows[1:]])


def _break_eq_units(data):
    _append_to_first_row(data, len(data.unit_vocab))


@pytest.mark.parametrize(
    "damage, at_save",
    [
        (_saved_after(_break_stream_word), False),
        (_saved_after(_break_stream_equation), False),
        (_break_heldout("valid", lambda it, d: it._replace(target=len(d.word_vocab))), False),
        (_break_heldout("test", lambda it, d: it._replace(negatives=[*it.negatives[:-1], -1])), True),
        (_break_heldout("test", lambda it, d: it._replace(context=[("word", len(d.word_vocab)), *it.context])), False),
        (_break_heldout("valid", lambda it, d: it._replace(context=[*it.context[:-1], ("eq", len(d.registry))])),
         False),
        (_break_heldout("test", lambda it, d: it._replace(eq_id=-1)), True),
        (_break_heldout("valid", lambda it, d: it._replace(position=len(d.streams[it.stream].codes))), False),
        (_break_heldout("test", lambda it, d: it._replace(position=-3)), True),
        (_break_heldout("valid", lambda it, d: it._replace(position=2**32 + it.position)), True),
        (_break_heldout("valid", lambda it, d: it._replace(stream=len(d.streams))), False),
        (_break_heldout("test", lambda it, d: it._replace(position=_other_word(it, d))), False),
        (_saved_after(_break_eq_units), False),
        (_saved_after(lambda d: _append_to_first_row(d, 2**31)), True),
    ],
    ids=["stream_word", "stream_equation", "heldout_target", "heldout_negative", "heldout_context_word",
         "heldout_context_equation", "heldout_eq_id", "heldout_position_past_end", "heldout_negative_position",
         "heldout_position_past_uint32", "heldout_unknown_doc", "heldout_position_of_other_word", "eq_units",
         "eq_units_past_int32"],
)
def test_bundle_id_out_of_range_rejected(damage, at_save, tmp_path):
    # a value the bundle's fixed-width fields cannot hold (a negative id, one
    # past 2**32 - 1, or a unit id past 2**31 - 1) is refused at save, and
    # the bundle it would replace is kept; an id the fields hold but the
    # bundle's tables do not is refused at load
    data = tiny_corpus_data()
    assert len(data.heldout_valid) and len(data.heldout_test)
    *rest, (doc_id, codes) = data.streams
    data.streams = token_streams([*rest, (doc_id, np.append(codes, GAP))])  # after every held-out position
    good = load_bundle(save_bundle(data, str(tmp_path / "good")))  # gaps and every real id load
    if at_save:
        before = {f: (tmp_path / "good" / f).read_bytes() for f in os.listdir(tmp_path / "good")}
        with pytest.raises(BundleFormatError, match="out of range of a u?int32 field"):
            damage(data, str(tmp_path / "good"))
        assert sorted(os.listdir(tmp_path)) == ["good"]
        assert {f: (tmp_path / "good" / f).read_bytes() for f in os.listdir(tmp_path / "good")} == before
        assert load_bundle(str(tmp_path / "good")).heldout_test == good.heldout_test
    else:
        path = damage(data, str(tmp_path / "bad"))
        with pytest.raises(BundleFormatError, match="out of range"):
            load_bundle(path)


def test_unit_id_below_the_gap_marker_rejected(tmp_path):
    data = tiny_corpus_data()
    path = save_bundle(data, str(tmp_path / "bundle"))
    first, *rest = data.eq_units.values()
    write_eq_units(os.path.join(path, "eq_units.bin"), [[*first, -1, -5], *rest])
    with pytest.raises(BundleFormatError, match="unit id -5 out of range"):
        load_bundle(path)
    with pytest.raises(BundleFormatError, match="unit id -5 out of range"):
        bundle_io.load_query_files(path)


def test_equation_count_other_than_the_registry_rejected(tmp_path):
    # row g of eq_units.bin is equation g, so a file with another number of
    # rows would leave an equation without its units
    path = save_bundle(tiny_corpus_data(), str(tmp_path / "bundle"))
    eq_units = os.path.join(path, "eq_units.bin")
    drop_last_equation(eq_units)
    for load in (load_bundle, bundle_io.load_query_files):
        with pytest.raises(BundleFormatError, match=re.escape(f"{eq_units} holds 1 equations, equations.bin 2")):
            load(path)


@pytest.mark.parametrize("name, what", [("vocab.bin", "form"), ("units.bin", "form"), ("equations.bin", "LaTeX")])
def test_repeated_form_or_latex_rejected(name, what, tmp_path):
    # the writer never repeats one (vocabulary forms are Counter keys, the
    # registry deduplicates LaTeX); a repeat would make two ids for one form
    path = save_bundle(tiny_corpus_data(), str(tmp_path / "bundle"))
    strings, _ = reference_bundle.rewrite_table(os.path.join(path, name), lambda s, c: ([s[0], s[0], *s[2:]], c))
    repeated = strings[0]
    loads = [load_bundle] if name == "units.bin" else [load_bundle, bundle_io.load_query_files]
    for load in loads:
        with pytest.raises(BundleFormatError, match=re.escape(f"{what} {repeated!r} is in more than one row")):
            load(path)


# --- one-array binary readers against the record-at-a-time oracle ----------------

_N_WORDS, _N_EQS, _N_UNITS = 6, 5, 7
_code = st.one_of(
    st.integers(0, _N_WORDS - 1),
    st.integers(0, _N_EQS - 1).map(lambda g: int(EQ_TAG) | g),
    st.just(int(GAP)),
)
# doc ids as ingest admits them: no line break, encodable as UTF-8
_doc_id = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\n\r"), min_size=1, max_size=5)
_streams = st.lists(st.tuples(_doc_id, st.lists(_code, max_size=12)), max_size=6, unique_by=lambda s: s[0])
# every equation's units, rows empty or not
_eq_units = st.lists(st.lists(st.integers(0, _N_UNITS - 1), max_size=9), max_size=_N_EQS)


def _binary_files(root, streams, eq_units) -> tuple[str, str]:
    """``streams.bin`` and ``eq_units.bin`` as ``save_bundle`` writes them."""
    data = corpus_from_streams(streams, _N_WORDS, _N_EQS)
    data.eq_units = equation_units(eq_units)
    path = save_bundle(data, os.path.join(root, "bundle"))
    return os.path.join(path, "streams.bin"), os.path.join(path, "eq_units.bin")


@settings(max_examples=150, deadline=None)
@given(streams=_streams, eq_units=_eq_units)
@example(streams=[], eq_units=[])
@example(streams=[("d", []), ("é", [int(GAP), 0])], eq_units=[[], [3, 3], [], [], [6, 2, 0]])
def test_binary_readers_match_record_at_a_time_reference(streams, eq_units):
    with tempfile.TemporaryDirectory() as root:
        streams_bin, eq_units_bin = _binary_files(root, streams, eq_units)
        got = bundle_io._read_streams(streams_bin, _N_WORDS, _N_EQS)
        want = reference_bundle._read_streams(streams_bin, _N_WORDS, _N_EQS)
        assert got.doc_ids == [s.doc_id for s in got] == [s.doc_id for s in want]
        for g, w in zip(got, want, strict=True):
            assert g.codes.dtype == w.codes.dtype and np.array_equal(g.codes, w.codes)
            assert g.codes.base is got.codes
        got = bundle_io._read_eq_units(eq_units_bin, len(eq_units))
        want = reference_bundle._read_eq_units(eq_units_bin, len(eq_units))
    assert list(got) == list(want)
    for g in want:
        assert got[g].dtype == want[g].dtype and np.array_equal(got[g], want[g])
        assert got[g].base is got.ids
    assert got.ids.dtype == np.int64
    assert np.array_equal(got.ids, np.concatenate([np.empty(0, dtype=np.int64), *want.values()]))


@settings(max_examples=150, deadline=None)
@given(eq_units=_eq_units, seed=st.integers(0, 2**32 - 1))
@example(eq_units=[[], [1, 1], [3, 2, 0, 4], [5], [6]], seed=1)
def test_equation_units_table_matches_oracles(eq_units, seed):
    # a saved and loaded table equals the record-at-a-time reader's dict,
    # its rows the dict-walking ``unit_lists`` oracle, and the unit means
    # over them the per-equation fsum mean, bit for bit
    with tempfile.TemporaryDirectory() as root:
        _, eq_units_bin = _binary_files(root, [], eq_units)
        table = bundle_io._read_eq_units(eq_units_bin, len(eq_units))
        want = reference_bundle._read_eq_units(eq_units_bin, len(eq_units))
    assert list(table) == list(want) == list(range(len(eq_units)))
    assert all(np.array_equal(table[g], ids) for g, ids in want.items())
    ptr, ids = table.ptr, table.ids
    want_ptr, want_ids = unit_lists(want, len(eq_units))
    assert ptr.dtype == want_ptr.dtype and np.array_equal(ptr, want_ptr)
    assert ids.dtype == want_ids.dtype and np.array_equal(ids, want_ids)
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(_N_UNITS, 4)) * 10.0 ** rng.integers(-8, 8, size=(_N_UNITS, 4))
    means = unit_means(UnitGroups(ptr, ids), rows)
    assert means.shape == (len(eq_units), 4)
    for g, units in want.items():
        expected = fsum_mean(rows[units]) if units.size else np.full(4, np.nan)
        assert means[g].tobytes() == expected.tobytes()


@settings(max_examples=150, deadline=None)
@given(eq_units=st.lists(st.lists(st.integers(-1, _N_UNITS - 1), max_size=9), max_size=_N_EQS))
@example(eq_units=[[], [-1, -1], [3, -1, 0, -1], [-1], [6]])
def test_eq_units_file_with_gaps_reads_as_its_rows_without_them(eq_units):
    # a -1 (a gap), which older writers left for each unit below
    # unit_min_count, is dropped on reading: the table is the dict-walking
    # ``unit_lists`` of the record-at-a-time reader's rows
    with tempfile.TemporaryDirectory() as root:
        _, eq_units_bin = _binary_files(root, [], [[]] * len(eq_units))
        write_eq_units(eq_units_bin, eq_units)
        table = bundle_io._read_eq_units(eq_units_bin, len(eq_units))
        want = reference_bundle._read_eq_units(eq_units_bin, len(eq_units))
    want_ptr, want_ids = unit_lists(want, len(eq_units))
    assert table.ptr.tolist() == want_ptr.tolist() and table.ids.tolist() == want_ids.tolist()


@settings(max_examples=40, deadline=None)
@given(streams=_streams, eq_units=_eq_units, extra=st.binary(min_size=1, max_size=1))
def test_every_cut_or_one_byte_extension_is_a_format_error(streams, eq_units, extra):
    with tempfile.TemporaryDirectory() as root:
        streams_bin, eq_units_bin = _binary_files(root, streams, eq_units)
        for path, read in (
            (streams_bin, lambda: bundle_io._read_streams(streams_bin, _N_WORDS, _N_EQS)),
            (eq_units_bin, lambda: bundle_io._read_eq_units(eq_units_bin, len(eq_units))),
        ):
            with open(path, "rb") as f:
                raw = f.read()
            for damaged in [raw[:cut] for cut in range(len(raw))] + [raw + extra, raw + b"\0", raw + b"\xff"]:
                with open(path, "wb") as f:
                    f.write(damaged)
                with pytest.raises(BundleFormatError):
                    read()


# --- string tables against the one-string-at-a-time oracle ---------------------

_TABLES = (("vocab.bin", bundle_io._H_VOCAB), ("equations.bin", bundle_io._H_EQS), ("units.bin", bundle_io._H_UNITS))
# strings as a table holds them: non-empty, no newline, UTF-8 (tabs, carriage
# returns and non-ASCII included), with any count a table loads
_table = st.lists(st.tuples(st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\n"),
                                    min_size=1, max_size=5), st.integers(1, 2**63 - 1)),
                  max_size=6, unique_by=lambda row: row[0])


def _string_tables(words, equations, units):
    """A corpus of no documents whose word vocabulary, registry and unit
    vocabulary hold these (string, count) rows."""
    data = corpus_from_streams([], len(words), len(equations))
    columns = [([s for s, _ in rows], np.array([c for _, c in rows], dtype=np.int64)) for rows in (words, equations,
                                                                                                   units)]
    data.word_vocab, data.unit_vocab = Vocabulary("word", *columns[0]), Vocabulary("unit", *columns[2])
    data.registry = EquationRegistry(*columns[1])
    return data


@settings(max_examples=150, deadline=None)
@given(words=_table, equations=_table, units=_table)
@example(words=[("a\tb", 1), ("\u00e9", 2**63 - 1)], equations=[("x_{\u00e9}", 3), ("\t", 1)], units=[("\r", 1)])
@example(words=[], equations=[], units=[])
def test_string_tables_round_trip(words, equations, units):
    with tempfile.TemporaryDirectory() as root:
        path = save_bundle(_string_tables(words, equations, units), os.path.join(root, "bundle"))
        loaded = load_bundle(path)
        want = [reference_bundle.read_table(os.path.join(path, name), header) for name, header in _TABLES]
    got = [(loaded.word_vocab.forms, loaded.word_vocab.freqs), (loaded.registry.latex, loaded.registry.counts),
           (loaded.unit_vocab.forms, loaded.unit_vocab.freqs)]
    for rows, (strings, counts), (ref_strings, ref_counts) in zip((words, equations, units), got, want, strict=True):
        assert strings == ref_strings == [s for s, _ in rows]
        assert counts.dtype == np.int64 and counts.tolist() == ref_counts == [c for _, c in rows]
    assert loaded.word_vocab.index == {s: i for i, (s, _) in enumerate(words)}


@settings(max_examples=40, deadline=None)
@given(words=_table, equations=_table, units=_table, extra=st.binary(min_size=1, max_size=1))
def test_every_cut_or_one_byte_extension_of_a_string_table_is_a_format_error(words, equations, units, extra):
    with tempfile.TemporaryDirectory() as root:
        path = save_bundle(_string_tables(words, equations, units), os.path.join(root, "bundle"))
        for name, header in _TABLES:
            table = os.path.join(path, name)
            with open(table, "rb") as f:
                raw = f.read()
            for damaged in [raw[:cut] for cut in range(len(raw))] + [raw + extra, raw + b"\0", raw + b"\n"]:
                with open(table, "wb") as f:
                    f.write(damaged)
                with pytest.raises(BundleFormatError):
                    bundle_io._read_table(table, header)


@pytest.mark.parametrize("table", ["word_vocab", "registry", "unit_vocab"])
@pytest.mark.parametrize("string", ["", "a\nb", "\ud800"], ids=["empty", "newline", "lone_surrogate"])
def test_string_a_table_cannot_hold_refused_at_save(table, string, tmp_path):
    # a table separates its strings with newlines, so such a string would
    # read back as other strings, or not at all
    data = tiny_corpus_data()
    (data.registry.latex if table == "registry" else getattr(data, table).forms)[-1] = string
    kept = save_bundle(tiny_corpus_data(), str(tmp_path / "kept"))
    before = {f: (tmp_path / "kept" / f).read_bytes() for f in os.listdir(kept)}
    with pytest.raises(BundleFormatError, match="cannot store"):
        save_bundle(data, kept)
    assert sorted(os.listdir(tmp_path)) == ["kept"]
    assert {f: (tmp_path / "kept" / f).read_bytes() for f in os.listdir(kept)} == before


_context_entry = st.one_of(st.tuples(st.just("word"), st.integers(0, _N_WORDS - 1)),
                           st.tuples(st.just("eq"), st.integers(0, _N_EQS - 1)))


@st.composite
def _heldout_corpus(draw):
    """Streams, and held-out sets whose items name word positions of them,
    some items with no negatives, no context entry or several equation
    entries."""
    doc_ids = draw(st.lists(_doc_id, min_size=1, max_size=4, unique=True))
    streams = [TokenStream(d, np.array(draw(st.lists(_code, max_size=12)), dtype=np.uint32)) for d in doc_ids]
    words = [(i, p) for i, s in enumerate(streams) for p in np.flatnonzero(s.codes < _N_WORDS).tolist()]
    item = st.builds(
        lambda at, ctx, negs, eq: Item(int(streams[at[0]].codes[at[1]]), ctx, negs, at[0], at[1], eq),
        st.sampled_from(words), st.lists(_context_entry, max_size=4),
        st.lists(st.integers(0, _N_WORDS - 1), max_size=3), st.integers(0, _N_EQS - 1),
    )
    n_items = st.integers(0, 5 if words else 0)
    return streams, *(heldout_set([draw(item) for _ in range(draw(n_items))], split) for split in ("validation", "test"))


@settings(max_examples=150, deadline=None)
@given(_heldout_corpus())
def test_heldout_columns_round_trip(case):
    streams, valid, test = case
    data = corpus_from_streams(streams, _N_WORDS, _N_EQS)
    data.heldout_valid, data.heldout_test = valid, test
    with tempfile.TemporaryDirectory() as root:
        path = save_bundle(data, os.path.join(root, "bundle"))
        loaded = load_bundle(path)
        ref_streams = reference_bundle._read_streams(os.path.join(path, "streams.bin"), _N_WORDS, _N_EQS)
        want = [reference_bundle._read_heldout(os.path.join(path, f"heldout.{split}.bin"), ref_streams,
                                               _N_WORDS, _N_EQS) for split in ("valid", "test")]
    assert loaded.heldout_valid == valid and loaded.heldout_test == test
    assert [heldout_items(loaded.heldout_valid), heldout_items(loaded.heldout_test)] == want
    assert heldout_items(loaded.heldout_valid) == heldout_items(valid)


# LaTeX as the registry holds it: no tab or line break, encodable as UTF-8
_latex = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\n\r"), min_size=1, max_size=8)


@settings(max_examples=100, deadline=None)
@given(streams=_streams, latex=st.lists(_latex, min_size=_N_EQS, max_size=_N_EQS, unique=True),
       counts=st.lists(st.integers(1, 2**63 - 1), min_size=_N_EQS, max_size=_N_EQS))
@example(streams=[], latex=["a", " b", "c d", "é", "\\x"], counts=[1, 2**63 - 1, 3, 1, 7])
def test_streams_and_registry_round_trip(streams, latex, counts):
    data = corpus_from_streams(streams, _N_WORDS, _N_EQS)
    data.registry = EquationRegistry(latex, counts)
    with tempfile.TemporaryDirectory() as root:
        loaded = load_bundle(save_bundle(data, os.path.join(root, "bundle")))
    assert loaded.registry.latex == latex
    assert loaded.registry.counts.dtype == np.int64 and loaded.registry.counts.tolist() == counts
    assert [tuple(vars(r).values()) for r in loaded.registry.records] == list(zip(range(_N_EQS), latex, counts))
    assert loaded.streams.doc_ids == [d for d, _ in streams]
    assert loaded.streams.ptr.tolist() == np.cumsum([0] + [len(c) for _, c in streams]).tolist()
    assert loaded.streams.codes.dtype == np.uint32
    assert loaded.streams.codes.tolist() == [c for _, codes in streams for c in codes]


def test_binary_readers_make_one_frombuffer_call_per_file(tmp_path, monkeypatch):
    streams = [(f"doc{i}", [i % _N_WORDS, int(GAP)]) for i in range(500)]
    big = [[g % _N_UNITS, 0][: g % 3] for g in range(5000)]
    streams_bin, eq_units_bin = _binary_files(str(tmp_path), streams, [])
    _, big_bin = _binary_files(str(tmp_path / "big"), [], big)
    real, calls = np.frombuffer, []
    monkeypatch.setattr(np, "frombuffer", lambda *a, **kw: calls.append(a) or real(*a, **kw))
    assert len(bundle_io._read_eq_units(big_bin, 5000)) == 5000
    assert len(calls) == 1
    assert len(bundle_io._read_streams(streams_bin, _N_WORDS, _N_EQS)) == 500
    assert len(calls) == 2


# --- model file ------------------------------------------------------------------


def fitted_model(mode="equation", k=4, seed=0):
    rng = np.random.default_rng(seed)
    word = EmbeddingTable(7, k, rng.bit_generator, 0.5)
    cfg = ModelConfig(k=k, seed=3)
    if mode == "word":
        return Model("word", cfg, word, n_equations=0)
    if mode == "equation":
        return Model("equation", cfg, word, eq=EmbeddingTable(3, k, rng.bit_generator, 0.5))
    unit = EmbeddingTable(5, k, rng.bit_generator, 0.5)
    return Model("unit", cfg, word, unit=unit, eq_units=equation_units([[0, 2], [1], [3, 4, 1]]), n_equations=3)


@pytest.mark.parametrize("mode", ["word", "equation", "unit"])
def test_model_round_trip(mode, tmp_path):
    model = fitted_model(mode)
    path = str(tmp_path / "m.eqv")
    save_model(model, path)
    loaded = load_model(path, eq_units=model.eq_units or None)
    assert loaded.mode == mode
    assert loaded.config == model.config
    # a table holds only its vectors: accumulators live in a training pass
    assert set(vars(loaded.word)) == {"size", "k", "rho", "alpha"}
    # float32 on disk: loading the saved values back is exact at f32
    assert np.array_equal(loaded.word.rho, model.word.rho.astype(np.float32).astype(np.float64))
    if mode == "equation":
        assert np.array_equal(
            loaded.eq.alpha, model.eq.alpha.astype(np.float32).astype(np.float64)
        )
    if mode == "unit":
        assert np.array_equal(
            loaded.unit.rho, model.unit.rho.astype(np.float32).astype(np.float64)
        )
        assert loaded.n_equations == 3


def test_save_is_deterministic(tmp_path):
    model = fitted_model()
    p1, p2 = str(tmp_path / "a.eqv"), str(tmp_path / "b.eqv")
    save_model(model, p1)
    save_model(model, p2)
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_header_contents(tmp_path):
    model = fitted_model("unit")
    path = str(tmp_path / "m.eqv")
    save_model(model, path)
    header = read_header(path)
    assert header["mode"] == "unit"
    assert header["k"] == 4
    assert header["vocab_sizes"] == {"word": 7, "eq": 0, "unit": 5}
    assert header["eq_vector_source"] == "unit_mean"
    assert header["config"]["seed"] == 3
    text = format_header(header)
    assert "mode: unit" in text and "config.seed: 3" in text


def test_truncated_file_fails_checksum(tmp_path):
    model = fitted_model()
    path = str(tmp_path / "m.eqv")
    save_model(model, path)
    raw = open(path, "rb").read()
    with open(path, "wb") as f:
        f.write(raw[:-9])
    with pytest.raises((ChecksumError, ModelFileError)):
        read_header(path)


def test_corrupted_byte_fails_checksum(tmp_path):
    model = fitted_model()
    path = str(tmp_path / "m.eqv")
    save_model(model, path)
    raw = bytearray(open(path, "rb").read())
    raw[len(raw) // 2] ^= 0xFF
    with open(path, "wb") as f:
        f.write(bytes(raw))
    with pytest.raises(ChecksumError):
        read_header(path)


def test_not_a_model_file(tmp_path):
    path = str(tmp_path / "m.eqv")
    with open(path, "wb") as f:
        f.write(b"definitely not a model")
    with pytest.raises(ModelFileError):
        read_header(path)
