"""``tools/digests.py``: the byte-identity command is itself deterministic,
and a run matches the digests committed in ``tests/data/digests.json``."""

import contextlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "digests.py"
_spec = importlib.util.spec_from_file_location("digests", _TOOL)
digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(digests)

COMMITTED = Path(__file__).resolve().parent / "data" / "digests.json"
N_DOCS, MAX_EPOCHS = 40, 1


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Two records of a 40-document, one-epoch run, each in its own directory."""
    return [digests.record(str(tmp_path_factory.mktemp(name)), N_DOCS, MAX_EPOCHS) for name in ("a", "b")]


def test_two_runs_agree_and_compare_lists_a_change(runs, tmp_path, capsys):
    a, b = (run["digests"] for run in runs)
    assert a == b
    gapped = [f"gapped-{c}" for c in digests.GAPPED_CONFIGS]
    configs = [f"{c}/seed{s}" for c in [*digests.CONFIGS, *gapped] for s in digests.MODEL_SEEDS]
    assert {f"model/{c}" for c in configs} <= a.keys()
    assert {f"trace/{c}" for c in configs} <= a.keys()
    assert {"eval/seed4", "eval/seed1"} <= a.keys() and any(k.startswith("query/") for k in a)
    assert {k.replace("query/", "warm/", 1) for k in a if k.startswith("query/")} == {k for k in a if k.startswith("warm/")}
    assert a["bundle/planted/streams.bin"] != a["bundle/commented/streams.bin"] != a["bundle/inline/streams.bin"]
    files = ("manifest.json", "vocab.bin", "equations.bin", "units.bin", "streams.bin", "eq_units.bin",
             "heldout.valid.bin", "heldout.test.bin")
    assert {k for k in a if k.startswith("bundle/planted/")} == {f"bundle/planted/{f}" for f in files}
    corpora = ["corpus/{}-{}-{}/seed{}".format(*args) for args in digests.PLANTED]
    assert len({a[c] for c in corpora}) == len(corpora) == 3
    for table in ("streams.doc_ids", "streams.ptr", "streams.codes", "eq_units.ptr", "eq_units.ids",
                  "registry.latex", "word_vocab.forms", "unit_vocab.forms", "heldout_test.cand"):
        bundles = ("planted", "commented", "inline", "math", "equations", "equations3", "references", "escapes",
                   "heldout", "sampled", "gapped")
        assert {f"table/{b}/{table}" for b in bundles} <= a.keys()
    assert a["table/planted/streams.codes"] != a["table/commented/streams.codes"]
    assert a["table/planted/streams.codes"] != a["table/inline/streams.codes"]
    assert a["table/planted/streams.codes"] != a["table/references/streams.codes"]
    assert a["table/planted/registry.latex"] != a["table/sampled/registry.latex"]
    assert a["table/planted/streams.codes"] == a["table/heldout/streams.codes"]
    assert a["table/planted/heldout_test.cand"] != a["table/heldout/heldout_test.cand"]
    assert a["table/planted/unit_vocab.forms"] != a["table/math/unit_vocab.forms"]
    assert a["table/planted/eq_units.ids"] != a["table/gapped/eq_units.ids"]
    assert a["table/planted/streams.codes"] == a["table/gapped/streams.codes"]
    assert a["table/planted/unit_vocab.forms"] != a["table/equations/unit_vocab.forms"]
    assert a["table/equations/unit_vocab.forms"] != a["table/equations3/unit_vocab.forms"]
    assert a["table/equations/registry.latex"] == a["table/equations3/registry.latex"]
    assert len(set(a[f"model/{c}"] for c in configs)) == len(configs)
    units = [f"{c}/seed{s}" for c, (mode, _) in digests.CONFIGS.items() if mode == "unit" for s in digests.MODEL_SEEDS]
    units += [f"{c}/seed{s}" for c in gapped for s in digests.MODEL_SEEDS]
    assert {k for k in a if k.startswith("derived/")} == {f"derived/{c}/{w}" for c in units for w in ("alpha", "rho")}
    assert a["derived/unit-joint/seed4/alpha"] != a["derived/unit-joint/seed4/rho"]

    files = []
    for name, d in (("a", a), ("b", {**b, "model/word/seed4": "0" * 64})):
        files.append(str(tmp_path / f"{name}.json"))
        Path(files[-1]).write_text(json.dumps({**runs[0], "digests": d}))
    assert digests.main(["--compare", files[0], files[0]]) == 0
    assert digests.main(["--compare", *files]) == 1
    assert "differs\tmodel/word/seed4\n" in capsys.readouterr().out


def test_a_run_matches_the_committed_digests(runs, tmp_path):
    committed = json.loads(COMMITTED.read_text())
    assert (committed["n_docs"], committed["max_epochs"]) == (N_DOCS, MAX_EPOCHS)
    fresh = tmp_path / "fresh.json"
    fresh.write_text(json.dumps(runs[0]))
    listing = io.StringIO()
    with contextlib.redirect_stdout(listing):
        code = digests.main(["--compare", str(COMMITTED), str(fresh)])
    if code == 0:
        return
    diff = digests.compare(committed["digests"], runs[0]["digests"])
    byte = [name for name in diff if name.startswith(digests.BYTE_GROUPS)]
    parts = []
    if byte:
        parts.append(f"{len(byte)} in the byte group ({' '.join(digests.BYTE_GROUPS)}) differ: "
                     "corpus text or bundle bytes changed")
    if len(diff) > len(byte):
        parts.append(f"{len(diff) - len(byte)} in the float group ({' '.join(digests.FLOAT_GROUPS)}) differ: "
                     "fitted, scored or queried floats changed")
    message = "; ".join(parts)
    message += (f"\n{listing.getvalue()}If the change is meant, write the file again:\n"
                f"    python3 tools/digests.py --n-docs {N_DOCS} --max-epochs {MAX_EPOCHS} --out tests/data/digests.json")
    if not byte and committed["environment"] != runs[0]["environment"]:
        pytest.skip(f"float digests differ under another numpy, BLAS or SIMD set: {message}")
    pytest.fail(message)
