"""``tools/digests.py``: the byte-identity command is itself deterministic."""

import importlib.util
import json
from pathlib import Path

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "digests.py"
_spec = importlib.util.spec_from_file_location("digests", _TOOL)
digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(digests)


def test_two_runs_agree_and_compare_lists_a_change(tmp_path, capsys):
    runs = []
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        runs.append(digests.digests(str(tmp_path / name), n_docs=40, max_epochs=1))
    a, b = runs
    assert a == b
    configs = [f"{c}/seed{s}" for c in digests.CONFIGS for s in digests.MODEL_SEEDS]
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
                   "heldout", "sampled")
        assert {f"table/{b}/{table}" for b in bundles} <= a.keys()
    assert a["table/planted/streams.codes"] != a["table/commented/streams.codes"]
    assert a["table/planted/streams.codes"] != a["table/inline/streams.codes"]
    assert a["table/planted/streams.codes"] != a["table/references/streams.codes"]
    assert a["table/planted/registry.latex"] != a["table/sampled/registry.latex"]
    assert a["table/planted/streams.codes"] == a["table/heldout/streams.codes"]
    assert a["table/planted/heldout_test.cand"] != a["table/heldout/heldout_test.cand"]
    assert a["table/planted/unit_vocab.forms"] != a["table/math/unit_vocab.forms"]
    assert a["table/planted/unit_vocab.forms"] != a["table/equations/unit_vocab.forms"]
    assert a["table/equations/unit_vocab.forms"] != a["table/equations3/unit_vocab.forms"]
    assert a["table/equations/registry.latex"] == a["table/equations3/registry.latex"]
    assert len(set(a[f"model/{c}"] for c in configs)) == len(configs)

    files = []
    for name, d in (("a", a), ("b", {**b, "model/word/seed4": "0" * 64})):
        files.append(str(tmp_path / f"{name}.json"))
        Path(files[-1]).write_text(json.dumps(d))
    assert digests.main(["--compare", files[0], files[0]]) == 0
    assert digests.main(["--compare", *files]) == 1
    assert "differs\tmodel/word/seed4\n" in capsys.readouterr().out
