"""Programs, suites and corpus loaders shared by the test modules."""

import json
from pathlib import Path

from minirepair.minilang import parse
from minirepair.minilang.testsuite import load_suite

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

BUGGY_MAX = """\
fn max(a: int, b: int) -> int {
  let m = a;
  if (b < m) {
    m = b;
  }
  return m;
}
"""

CORRECT_MAX = BUGGY_MAX.replace("b < m", "b > m")

MAX_SUITE = json.dumps(
    {
        "tests": [
            {"name": "t1", "call": {"fn": "max", "args": [3, 5]}, "expect": 5},
            {"name": "t2", "call": {"fn": "max", "args": [4, 4]}, "expect": 4},
        ]
    }
)


def corpus_case_names() -> list[str]:
    return sorted(d.name for d in CORPUS.iterdir() if (d / "program.ml").exists())


def load_corpus_case(name: str):
    case = CORPUS / name
    meta = json.loads((case / "meta.json").read_text())
    unit = parse((case / "program.ml").read_text(), source_name=name)
    suite = load_suite((case / "tests.json").read_text(), unit)
    return unit, suite, meta
