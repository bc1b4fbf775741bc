import contextlib
import io
import json
import shutil
import subprocess
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minirepair.cli import main

from samples import BUGGY_MAX, CORRECT_MAX, CORPUS, MAX_SUITE


@pytest.fixture
def workspace(tmp_path):
    (tmp_path / "max.ml").write_text(BUGGY_MAX)
    (tmp_path / "max.tests.json").write_text(MAX_SUITE)
    return tmp_path


def repair_args(workspace, *extra):
    return [
        "--program", str(workspace / "max.ml"),
        "--tests", str(workspace / "max.tests.json"),
        "--mode", "jmutrepair",
        "--seed", "42",
        "--out", str(workspace / "out"),
        *extra,
    ]


def test_successful_run_writes_artifacts(workspace, capsys):
    assert main(repair_args(workspace)) == 0
    out = workspace / "out"
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "patch_found"
    assert (out / "patch_1.diff").exists()
    assert "patch found" in capsys.readouterr().out


def test_diff_applies_with_patch_tool(workspace):
    assert main(repair_args(workspace)) == 0
    diff = workspace / "out" / "patch_1.diff"
    original = workspace / "original.ml"
    # the diff is against the canonical pretty print, which max.ml already is
    original.write_text(BUGGY_MAX)
    patched = workspace / "patched.ml"
    subprocess.run(
        ["patch", str(original), "-i", str(diff), "-o", str(patched)],
        check=True,
        capture_output=True,
    )
    report = json.loads((workspace / "out" / "report.json").read_text())
    lineage = report["patches"][0]["lineage"]
    assert lineage[0]["kind"].startswith("Mut")
    assert patched.read_text() != BUGGY_MAX
    assert "if (b" in patched.read_text()


def test_missing_tests_file(workspace, capsys):
    code = main(
        [
            "--program", str(workspace / "max.ml"),
            "--tests", str(workspace / "nope.json"),
            "--mode", "jmutrepair",
        ]
    )
    assert code == 2
    assert "nope.json" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--program", "--tests"])
def test_input_directory_is_usage_error(workspace, capsys, flag):
    args = repair_args(workspace)
    args[args.index(flag) + 1] = str(workspace)
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("repair: error: ") and err.count("\n") == 1


@pytest.mark.parametrize("out", ["taken", "taken/sub"])
def test_out_path_through_a_file_is_usage_error(workspace, capsys, out):
    (workspace / "taken").write_text("")
    args = repair_args(workspace)
    args[args.index("--out") + 1] = str(workspace / out)
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err == f"repair: error: --out is not a directory: {workspace / 'taken'}\n"


def test_corpus_out_file_is_usage_error(tmp_path, capsys):
    (tmp_path / "taken").write_text("")
    assert main(["--corpus", str(CORPUS), "--out", str(tmp_path / "taken")]) == 2
    err = capsys.readouterr().err
    assert err == f"repair: error: --out is not a directory: {tmp_path / 'taken'}\n"


def test_parse_error_is_usage_error(workspace, capsys):
    bad = workspace / "bad.ml"
    bad.write_text("fn broken( { }")
    code = main(
        ["--program", str(bad), "--tests", str(workspace / "max.tests.json"), "--mode", "jpar"]
    )
    assert code == 2
    assert "bad.ml" in capsys.readouterr().err


def test_overlong_literal_is_usage_error(workspace, capsys):
    long = workspace / "long.ml"
    long.write_text("fn max(a: int, b: int) -> int { return " + "9" * 5_000 + "; }")
    code = main(["--program", str(long), "--tests", str(workspace / "max.tests.json"), "--mode", "jpar"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("repair: error: ") and "out of range" in err and "Traceback" not in err
    assert "99999999999999999999... (5000 digits)" in err and len(err) < 200


def test_over_deep_program_is_usage_error(workspace, capsys):
    deep = workspace / "deep.ml"
    deep.write_text("fn max(a: int, b: int) -> int { return " + "(" * 400 + "a" + ")" * 400 + "; }")
    code = main(
        ["--program", str(deep), "--tests", str(workspace / "max.tests.json"), "--mode", "jpar"]
    )
    assert code == 2
    assert "nesting deeper than 64 levels" in capsys.readouterr().err


DEEP_JSON = '{"tests": ' + "[" * 100_000 + "]" * 100_000 + "}"


@pytest.mark.parametrize(
    "name, content, message",
    [
        ("max.ml", b"fn max\xff", "can't decode"),
        ("max.tests.json", b'{"tests": "\xc3"}', "can't decode"),
        ("max.tests.json", DEEP_JSON.encode(), "nested too deeply"),
    ],
    ids=["undecodable-program", "undecodable-tests", "deep-tests"],
)
def test_undecodable_or_over_deep_input_is_usage_error(workspace, capsys, name, content, message):
    (workspace / name).write_bytes(content)
    assert main(repair_args(workspace)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"repair: error: {workspace / name}: ")
    assert message in err and err.count("\n") == 1


def test_correct_program_is_usage_error(workspace, capsys):
    (workspace / "ok.ml").write_text(CORRECT_MAX)
    code = main(
        [
            "--program", str(workspace / "ok.ml"),
            "--tests", str(workspace / "max.tests.json"),
            "--mode", "jmutrepair",
            "--out", str(workspace / "out"),
        ]
    )
    assert code == 2
    assert "no failing test" in capsys.readouterr().err


def test_exhausted_run_exits_one(tmp_path, capsys):
    case = CORPUS / "sum_digits_unrepairable"
    code = main(
        [
            "--program", str(case / "program.ml"),
            "--tests", str(case / "tests.json"),
            "--mode", "jmutrepair",
            "--max-generations", "3",
            "--out", str(tmp_path / "out"),
        ]
    )
    assert code == 1
    assert "exhausted" in capsys.readouterr().out


def test_dump_spectrum(workspace):
    assert main(repair_args(workspace, "--dump-spectrum")) == 0
    rows = json.loads((workspace / "out" / "spectrum.json").read_text())
    assert [row["statement_id"] for row in rows] == ["max:0", "max:1", "max:3"]
    scores = [row["score"] for row in rows]
    assert scores == sorted(scores, reverse=True)


def test_missing_mode_is_usage_error(workspace, capsys):
    code = main(
        ["--program", str(workspace / "max.ml"), "--tests", str(workspace / "max.tests.json")]
    )
    assert code == 2
    assert "--mode" in capsys.readouterr().err


def test_corpus_run(tmp_path, capsys):
    code = main(["--corpus", str(CORPUS), "--out", str(tmp_path / "out")])
    assert code == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["ok"] is True
    assert summary["repaired_cases"] >= 10
    assert summary["expected_cases"] == 12
    table = capsys.readouterr().out
    assert "sum_digits_unrepairable" in table


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--max-seconds", "nan"),
        ("--max-seconds", "inf"),
        ("--max-seconds", "-inf"),
        ("--max-seconds", "-1"),
        ("--min-repaired", "-3"),
    ],
)
def test_invalid_threshold_is_usage_error(tmp_path, capsys, flag, value):
    out = tmp_path / "out"
    assert main(["--corpus", str(CORPUS), "--out", str(out), f"{flag}={value}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"repair: error: {flag} must be ") and err.count("\n") == 1
    assert not out.exists()


def test_zero_thresholds_are_valid_and_the_summary_is_strict_json(tmp_path):
    out = tmp_path / "out"
    code = main(["--corpus", str(CORPUS), "--out", str(out), "--max-seconds", "0", "--min-repaired", "0"])
    assert code == 1  # no run takes less than no time
    text = (out / "summary.json").read_text()
    summary = json.loads(text, parse_constant=lambda name: pytest.fail(f"summary.json holds {name}"))
    assert summary["thresholds"] == {"min_repaired": 0, "max_seconds": 0.0}


def test_empty_corpus_dir(tmp_path, capsys):
    empty = tmp_path / "corpus"
    empty.mkdir()
    assert main(["--corpus", str(empty)]) == 2
    assert "no cases" in capsys.readouterr().err


def test_malformed_case_does_not_poison_others(tmp_path):
    corpus = tmp_path / "corpus"
    shutil.copytree(CORPUS / "max_flipped_comparison", corpus / "max_flipped_comparison")
    broken = corpus / "broken_case"
    broken.mkdir()
    (broken / "program.ml").write_text("fn broken( { }")
    (broken / "tests.json").write_text("{}")
    (broken / "meta.json").write_text("{\"modes\": [\"jmutrepair\"]}")
    # A well-formed program and suite under a malformed meta.json; each must
    # become an error row naming the offending key.
    bad_metas = {
        "seed_not_int": ({"seed": "abc"}, "seed"),
        "budget_not_int": ({"config": {"step_budget": "2000"}}, "step_budget"),
        "unknown_key": ({"config": {"step_buget": 2000}}, "step_buget"),
        "mode_in_config": ({"config": {"mode": "jgenprog"}}, "mode"),
        "scope_misspelled": ({"config": {"ingredient_scope": "Local"}}, "ingredient_scope"),
        "config_not_object": ({"config": [1, 2]}, "config"),
        "config_empty_list": ({"config": []}, "config"),
        "config_zero": ({"config": 0}, "config"),
        "config_empty_string": ({"config": ""}, "config"),
        "config_false": ({"config": False}, "config"),
        "config_null": ({"config": None}, "config"),
        "expect_repair_not_bool": ({"expect_repair": "false"}, "expect_repair"),
        "modes_not_list": ({"modes": {"jmutrepair": 0}}, "modes"),
    }
    for case, (meta, _) in bad_metas.items():
        shutil.copytree(CORPUS / "max_flipped_comparison", corpus / case)
        (corpus / case / "meta.json").write_text(json.dumps({"modes": ["jmutrepair"], **meta}))
    code = main(["--corpus", str(corpus), "--out", str(tmp_path / "out"), "--min-repaired", "1"])
    assert code == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    by_case = {row["case"]: row for row in summary["cases"]}
    assert by_case["broken_case"]["status"] == "error"
    assert by_case["max_flipped_comparison"]["status"] == "patch_found"
    for case, (_, key) in bad_metas.items():
        assert by_case[case]["status"] == "error"
        assert key in by_case[case]["detail"]


def test_a_mode_listed_twice_is_an_error_row(tmp_path):
    """One row, an error, and no run: a repeated mode would run twice and
    write the same artifact directory twice."""
    corpus = tmp_path / "corpus"
    case = corpus / "twice"
    shutil.copytree(CORPUS / "max_flipped_comparison", case)
    (case / "meta.json").write_text(json.dumps({"modes": ["jmutrepair", "jgenprog", "jmutrepair"]}))
    assert main(["--corpus", str(corpus), "--out", str(tmp_path / "out"), "--min-repaired", "0"]) == 0
    rows = json.loads((tmp_path / "out" / "summary.json").read_text())["cases"]
    assert [(row["case"], row["mode"], row["status"]) for row in rows] == [("twice", "-", "error")]
    assert "twice" in rows[0]["detail"]
    assert not (tmp_path / "out" / "twice").exists()


def test_undecodable_or_over_deep_case_files_are_error_rows(tmp_path):
    corpus = tmp_path / "corpus"
    shutil.copytree(CORPUS / "max_flipped_comparison", corpus / "max_flipped_comparison")
    bad_files = {
        "undecodable_program": ("program.ml", b"fn \xff"),
        "undecodable_tests": ("tests.json", b"\xfe\xff"),
        "deep_tests": ("tests.json", DEEP_JSON.encode()),
        "deep_meta": ("meta.json", ("[" * 100_000 + "]" * 100_000).encode()),
    }
    for case, (name, content) in bad_files.items():
        shutil.copytree(CORPUS / "max_flipped_comparison", corpus / case)
        (corpus / case / name).write_bytes(content)
    code = main(["--corpus", str(corpus), "--out", str(tmp_path / "out"), "--min-repaired", "1"])
    assert code == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    by_case = {row["case"]: row for row in summary["cases"]}
    assert by_case["max_flipped_comparison"]["status"] == "patch_found"
    for case in bad_files:
        assert by_case[case]["status"] == "error"


def _spliced(valid: bytes):
    """`valid`, `valid` with a random slice replaced by arbitrary bytes, or arbitrary bytes."""
    spliced = st.tuples(st.integers(0, len(valid)), st.integers(0, 8), st.binary(max_size=8)).map(
        lambda t: valid[: t[0]] + t[2] + valid[t[0] + t[1] :]
    )
    return st.one_of(st.just(valid), spliced, st.binary(max_size=64))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_spliced(BUGGY_MAX.encode()), _spliced(MAX_SUITE.encode()))
def test_any_input_bytes_end_in_an_exit_status(program, tests):
    with tempfile.TemporaryDirectory() as tmp:
        workspace = Path(tmp)
        (workspace / "max.ml").write_bytes(program)
        (workspace / "max.tests.json").write_bytes(tests)
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            code = main(
                repair_args(workspace, "--population-size", "1", "--max-generations", "1")
            )
    assert code in (0, 1, 2)
    assert "Traceback" not in stderr.getvalue()


def test_summary_schema(tmp_path):
    main(["--corpus", str(CORPUS), "--out", str(tmp_path / "out")])
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert set(summary) == {
        "cases",
        "repaired_cases",
        "expected_cases",
        "total_wall_time_seconds",
        "thresholds",
        "ok",
    }
    row = summary["cases"][0]
    assert set(row) == {
        "case",
        "mode",
        "status",
        "generations",
        "wall_time_seconds",
        "expect_repair",
        "patch_kinds",
        "detail",
    }


def test_find_seeds_validates_meta_overrides(tmp_path, monkeypatch):
    import importlib.util

    script = CORPUS.parent / "scripts" / "find_seeds.py"
    spec = importlib.util.spec_from_file_location("find_seeds", script)
    find_seeds = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(find_seeds)
    case = tmp_path / "max_case"
    case.mkdir()
    (case / "program.ml").write_text(BUGGY_MAX)
    (case / "tests.json").write_text(MAX_SUITE)

    def unreachable(*args):
        raise AssertionError("the config reached evolve() unvalidated")

    monkeypatch.setattr(find_seeds, "evolve", unreachable)
    # the same rules as `repair --corpus`: valid values, known fields, no mode or seed
    for config, key in [
        ({"step_budget": 0}, "step_budget"),
        ({"step_buget": 2000}, "step_buget"),
        ({"seed": 3}, "seed"),
    ]:
        meta = {"modes": ["jmutrepair"], "config": config}
        (case / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(ValueError, match=key):
            find_seeds.scan_case(case, range(1))
