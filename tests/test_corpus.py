import pytest

import corpus


def test_corpus_slice_is_byte_identical(tmp_path):
    # the README examples, the refused inputs, the fast default figures and
    # one benchmark pass of each workload; the whole corpus is
    # `python3 tests/corpus.py --check`
    recorded = corpus.load()
    if recorded["stack"] != corpus.stack():
        pytest.skip(f"corpus recorded on {recorded['stack']}, not on {corpus.stack()}")
    count, problems = corpus.check(recorded, tmp_path, corpus.SLICE)
    assert count == sum(e["group"] in corpus.SLICE for e in recorded["commands"]) > 80
    assert not problems, "\n".join(problems)


def test_corpus_check_names_a_command_whose_output_moved(tmp_path):
    recorded = corpus.load()
    readme = [e for e in recorded["commands"] if e["group"] == "readme"]
    entry = next(e for e in readme if e["argv"][:1] == ["decompose"])
    entry["stdout"] = "0" * 64
    count, problems = corpus.check(recorded, tmp_path, ("readme",))
    assert count == len(readme)
    assert problems == [f"qdl {' '.join(entry['argv'])}: stdout changed "
                        "(exit code 0 recorded, 0 now)"]


def test_corpus_check_shows_the_moved_line_of_a_csv(tmp_path):
    recorded = corpus.load()
    entry = next(e for e in recorded["commands"]
                 if e["argv"] == ["programmable", "--n", "1", "--nprime", "1"])
    was = entry["text"]["stdout"]
    assert was == "n,nprime,Q,Pe\n1,1,0.833333333,0.355662433\n"
    entry["stdout"] = "0" * 64
    entry["text"]["stdout"] = was.replace("0.355662433", "0.355662434")
    _, problems = corpus.check(recorded, tmp_path, ("readme",))
    assert problems == ["qdl programmable --n 1 --nprime 1: stdout changed "
                        "(exit code 0 recorded, 0 now); stdout line 2: "
                        "'1,1,0.833333333,0.355662434' recorded, "
                        "'1,1,0.833333333,0.355662433' now"]


def test_corpus_check_takes_group_globs_and_names_one_matching_nothing(capsys):
    errors = sum(e["group"] == "errors" for e in corpus.load()["commands"])
    assert corpus.main(["--check", "--group", "err*", "--group", "nope-*"]) == 1
    assert capsys.readouterr().out == "no recorded group matches 'nope-*'\n"
    # both globs match the one group, whose commands run once
    corpus.main(["--check", "--group", "err*", "--group", "e?rors"])
    assert capsys.readouterr().out.splitlines()[-1].startswith(f"{errors} commands checked,")
