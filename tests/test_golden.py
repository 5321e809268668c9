"""The golden corpus (see ``golden_corpus.py``) reproduces exactly."""

from golden_corpus import PATH, corpus


def test_golden_corpus_is_reproduced_exactly():
    with open(PATH) as f:
        want = f.read().splitlines()
    got = corpus()
    assert len(got) == len(want)
    changed = [(w, g) for w, g in zip(want, got) if w != g]
    assert not changed, f"{len(changed)} lines differ; first: {changed[0]}"
