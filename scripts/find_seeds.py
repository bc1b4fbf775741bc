#!/usr/bin/env python3
"""Scan seeds for each corpus case and report repair speed per seed.

Useful when adding a corpus case: pick a seed that repairs quickly and,
for the jgenprog insertion case, produces the intended operation kind.
Configs are built as `repair --corpus` builds them, from the CLI defaults
and the case's `meta.json` `config`.
"""

import argparse
import json
import time
from pathlib import Path

from minirepair.cli import build_parser, config_from_args
from minirepair.engine import evolve
from minirepair.minilang import parse
from minirepair.minilang.testsuite import load_suite

ROOT = Path(__file__).resolve().parent.parent


def scan_case(case_dir: Path, seeds: range) -> None:
    meta = json.loads((case_dir / "meta.json").read_text())
    unit = parse((case_dir / "program.ml").read_text(), source_name=case_dir.name)
    suite = load_suite((case_dir / "tests.json").read_text(), unit)
    defaults = build_parser().parse_args([])
    for mode in meta["modes"]:
        print(f"{case_dir.name} [{mode}]")
        for seed in seeds:
            config = config_from_args(defaults, mode, seed, meta.get("config", {}))
            started = time.perf_counter()
            outcome = evolve(unit, suite, config)
            elapsed = time.perf_counter() - started
            kinds = [op.kind for op in outcome.patches[0].lineage] if outcome.patches else []
            print(
                f"  seed {seed:>3}: {outcome.status:<12} gen={outcome.generations_run:<3}"
                f" {elapsed:5.2f}s {kinds}"
            )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--case", help="only scan this corpus case")
    parser.add_argument("--seeds", type=int, default=10, help="number of seeds to try")
    args = parser.parse_args()
    for case_dir in sorted((ROOT / "corpus").iterdir()):
        if not (case_dir / "meta.json").exists():
            continue
        if args.case and case_dir.name != args.case:
            continue
        scan_case(case_dir, range(args.seeds))


if __name__ == "__main__":
    main()
