"""The golden corpus (see ``golden_corpus.py``) reproduces exactly."""

import math
import shutil

import golden_corpus
from golden_corpus import PATH, corpus, summary


def test_golden_corpus_is_reproduced_exactly():
    with open(PATH) as f:
        want = f.read().splitlines()
    got = corpus()
    assert len(got) == len(want)
    changed = [(w, g) for w, g in zip(want, got) if w != g]
    assert not changed, f"{len(changed)} lines differ; first: {changed[0]}"


def _one_ulp_up(lines, prefix, text, context="{}"):
    """``lines`` with the number ``text`` (hex or decimal, in ``context``) of
    the first line that starts with ``prefix`` one ulp higher, and the
    relative move."""
    index = next(i for i, line in enumerate(lines) if line.startswith(prefix))
    value = float.fromhex(text) if "0x" in text else float(text)
    moved = math.nextafter(value, math.inf)
    new = moved.hex() if "0x" in text else repr(moved)
    lines = list(lines)
    assert context.format(text) in lines[index]
    lines[index] = lines[index].replace(context.format(text), context.format(new), 1)
    return lines, abs(moved - value) / max(abs(moved), abs(value))


def test_summary_reports_a_one_ulp_move(tmp_path, monkeypatch, capsys):
    """One ulp on a hex field and on a CLI JSON field of a copy of the file:
    each part reports one changed line and the field its relative move."""
    copy = tmp_path / "golden_corpus.txt"
    shutil.copy(PATH, copy)
    want = copy.read_text().splitlines()
    bounds = next(line for line in want if line.startswith("bounds "))
    lower = bounds.split("\t")[1].split(" ")[0]
    got, hex_move = _one_ulp_up(want, bounds, lower)
    hellinger = next(line for line in want if line.startswith("cli hellinger "))
    upper = hellinger.split('"log_upper": ')[1].split(",")[0]
    got, json_move = _one_ulp_up(got, hellinger, upper, '"log_upper": {},')
    report = summary(want, got)
    counts = {line.split()[0]: line.split()[1] for line in report if "lines changed" in line}
    assert counts.pop("bounds") == counts.pop("cli") == "1"
    assert set(counts.values()) == {"0"}
    moves = {line.rsplit(None, 1)[0]: float(line.rsplit(None, 1)[1])
             for line in report if "lines changed" not in line}
    assert moves == {"bounds [0]": float(f"{hex_move:.3g}"),
                     "cli log_upper": float(f"{json_move:.3g}")}

    # --summary prints the report and leaves the file as it was
    monkeypatch.setattr(golden_corpus, "PATH", str(copy))
    monkeypatch.setattr(golden_corpus, "corpus", lambda: got)
    golden_corpus._run(["--summary"])
    assert capsys.readouterr().out.splitlines() == report
    assert copy.read_text().splitlines() == want
