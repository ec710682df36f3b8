import pytest

import corpus


def test_decompose_corpus_slice_is_byte_identical(tmp_path):
    # the README examples, the refused inputs and one benchmark pass; the
    # whole corpus is `python3 tests/corpus.py --check`
    recorded = corpus.load()
    if recorded["stack"] != corpus.stack():
        pytest.skip(f"corpus recorded on {recorded['stack']}, not on {corpus.stack()}")
    count, problems = corpus.check(recorded, tmp_path, corpus.SLICE)
    assert count == sum(e["group"] in corpus.SLICE for e in recorded["commands"]) > 20
    assert not problems, "\n".join(problems)


def test_corpus_check_names_a_command_whose_output_moved(tmp_path):
    recorded = corpus.load()
    entry = next(e for e in recorded["commands"] if e["group"] == "readme")
    entry["stdout"] = "0" * 64
    count, problems = corpus.check(recorded, tmp_path, ("readme",))
    assert count == 2
    assert problems == [f"qdl {' '.join(entry['argv'])}: stdout changed "
                        "(exit code 0 recorded, 0 now)"]
