"""The answer corpus: every committed answer, recomputed and compared exactly."""

import json

from make_answers import PATH, compute, render


def test_every_answer_in_the_corpus_is_recomputed_exactly():
    committed = json.loads(PATH.read_text())
    now = json.loads(json.dumps(compute()))
    assert list(now) == list(committed)
    for key in committed:
        assert len(now[key]) == len(committed[key]), key
        changed = [(i, old, new) for i, (old, new) in enumerate(zip(committed[key], now[key]))
                   if old != new]
        assert changed == [], (key, changed[:3])
    # and the script writes the committed file byte for byte
    assert render(now) == PATH.read_text()
