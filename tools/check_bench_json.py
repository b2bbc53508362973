#!/usr/bin/env python3
"""Validator for the machine-readable bench reports (BENCH_*.json).

Every wired bench emits one JSON object (bench/bench_util.h
write_bench_json, schema "prepare-bench-v1"):

  {"schema": "prepare-bench-v1", "bench": NAME,
   "config": {<knob>: NUMBER, ...},
   "vm_ticks": N, "elapsed_s": S, "rate_vm_ticks_per_sec": R,
   "stages": [{"stage": NAME, "count": N,
               "p50_s": ..., "p90_s": ..., "p99_s": ...}, ...]}

Checked: required fields present with the right types, schema tag
matches, vm_ticks > 0, elapsed_s > 0, the reported rate is consistent
with vm_ticks / elapsed_s (within 5% — the two reads of the meter are
moments apart), stage names are unique, stage counts are positive, and
stage percentiles are ordered (0 <= p50 <= p90 <= p99; null means
unavailable and is rejected here — a stage that recorded nothing should
not be listed).

Usage: check_bench_json.py FILE.json [FILE.json ...]
                           [--require-stage STAGE]
                           [--compare BASELINE_DIR]
                           [--max-regress FRAC]

--require-stage NAME (repeatable) demands that a stage row named NAME is
present in every file — CI uses it to prove the hot pipeline stages were
actually profiled, not silently skipped.

--compare BASELINE_DIR compares each file's rate_vm_ticks_per_sec
against the committed baseline report of the same file name in
BASELINE_DIR (bench_results/ in the repo) and fails when the fresh rate
regresses by more than --max-regress (default 0.30, i.e. >30% slower
than the baseline). The two reports must describe the same run: a fresh
`config` object that differs from the baseline's is a violation, since
rates of unlike configs say nothing about a regression. A missing
baseline for a checked file is a violation — commit one with
PREPARE_BENCH_OUT_DIR. Faster-than-baseline runs always pass; the gate
only guards against slowdowns.

Exits 0 when every file is valid, 1 with one "FILE: message" per
violation. Missing files are violations (loud-fail, same contract as
tools/lint.sh): a bench that did not produce its report is a broken
bench, not a skippable one.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

SCHEMA = "prepare-bench-v1"


def _is_num(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def validate(path: Path, require_stages: list[str]) -> list[str]:
    errors: list[str] = []

    def err(message: str) -> None:
        errors.append(f"{path}: {message}")

    if not path.is_file():
        return [f"{path}: missing bench report"]
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return [f"{path}: unreadable: {exc}"]
    if not isinstance(doc, dict):
        return [f"{path}: top level is not a JSON object"]

    if doc.get("schema") != SCHEMA:
        err(f"schema is {doc.get('schema')!r}, want {SCHEMA!r}")
    if not isinstance(doc.get("bench"), str) or not doc.get("bench"):
        err("bench must be a non-empty string")

    config = doc.get("config")
    if not isinstance(config, dict):
        err("config must be an object")
    else:
        for key, value in config.items():
            if not _is_num(value):
                err(f"config.{key} must be a number, got {value!r}")

    vm_ticks = doc.get("vm_ticks")
    elapsed = doc.get("elapsed_s")
    rate = doc.get("rate_vm_ticks_per_sec")
    if not isinstance(vm_ticks, int) or vm_ticks <= 0:
        err(f"vm_ticks must be a positive integer, got {vm_ticks!r}")
    if not _is_num(elapsed) or elapsed <= 0:
        err(f"elapsed_s must be a positive number, got {elapsed!r}")
    if not _is_num(rate) or rate <= 0:
        err(f"rate_vm_ticks_per_sec must be a positive number, got {rate!r}")
    if not errors:
        implied = vm_ticks / elapsed
        if abs(rate - implied) > 0.05 * implied:
            err(f"rate {rate:.2f} inconsistent with vm_ticks/elapsed_s "
                f"{implied:.2f}")

    stages = doc.get("stages")
    if not isinstance(stages, list):
        err("stages must be a list")
        stages = []
    seen: set[str] = set()
    for i, row in enumerate(stages):
        where = f"stages[{i}]"
        if not isinstance(row, dict):
            err(f"{where} is not an object")
            continue
        name = row.get("stage")
        if not isinstance(name, str) or not name:
            err(f"{where}.stage must be a non-empty string")
            name = f"<{i}>"
        if name in seen:
            err(f"{where}: duplicate stage {name!r}")
        seen.add(name)
        count = row.get("count")
        if not isinstance(count, int) or count <= 0:
            err(f"{where} ({name}): count must be a positive integer, "
                f"got {count!r}")
        quantiles = []
        for key in ("p50_s", "p90_s", "p99_s"):
            value = row.get(key)
            if not _is_num(value) or value < 0:
                err(f"{where} ({name}): {key} must be a non-negative "
                    f"number, got {value!r}")
                value = None
            quantiles.append(value)
        if None not in quantiles and not (
                quantiles[0] <= quantiles[1] <= quantiles[2]):
            err(f"{where} ({name}): percentiles out of order: "
                f"p50={quantiles[0]} p90={quantiles[1]} p99={quantiles[2]}")
    for required in require_stages:
        if required not in seen:
            err(f"required stage {required!r} not present "
                f"(have: {sorted(seen)})")
    return errors


def compare_to_baseline(path: Path, baseline_dir: Path,
                        max_regress: float) -> list[str]:
    """Throughput-regression gate against a committed baseline report."""
    baseline_path = baseline_dir / path.name
    if not baseline_path.is_file():
        return [f"{path}: no baseline {baseline_path} to compare against"]
    try:
        fresh = json.loads(path.read_text())
        baseline = json.loads(baseline_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return [f"{path}: unreadable during compare: {exc}"]
    if fresh.get("config") != baseline.get("config"):
        return [f"{path}: config {fresh.get('config')!r} differs from "
                f"baseline {baseline_path} config "
                f"{baseline.get('config')!r}; compare like with like"]
    fresh_rate = fresh.get("rate_vm_ticks_per_sec")
    base_rate = baseline.get("rate_vm_ticks_per_sec")
    if not _is_num(fresh_rate) or not _is_num(base_rate) or base_rate <= 0:
        return [f"{path}: cannot compare rates "
                f"(fresh {fresh_rate!r}, baseline {base_rate!r})"]
    floor = base_rate * (1.0 - max_regress)
    if fresh_rate < floor:
        return [f"{path}: rate {fresh_rate:.0f} VM-ticks/s regressed "
                f">{max_regress:.0%} below baseline {base_rate:.0f} "
                f"(floor {floor:.0f})"]
    print(f"check_bench_json: {path.name} rate {fresh_rate:.0f} vs "
          f"baseline {base_rate:.0f} VM-ticks/s "
          f"({fresh_rate / base_rate - 1.0:+.1%})")
    return []


def main(argv: list[str]) -> int:
    files: list[Path] = []
    require_stages: list[str] = []
    baseline_dir: Path | None = None
    max_regress = 0.30
    args = iter(argv[1:])
    for arg in args:
        if arg == "--require-stage":
            value = next(args, None)
            if value is None:
                print("check_bench_json.py: --require-stage needs a value",
                      file=sys.stderr)
                return 2
            require_stages.append(value)
        elif arg == "--compare":
            value = next(args, None)
            if value is None:
                print("check_bench_json.py: --compare needs a directory",
                      file=sys.stderr)
                return 2
            baseline_dir = Path(value)
        elif arg == "--max-regress":
            value = next(args, None)
            if value is None:
                print("check_bench_json.py: --max-regress needs a value",
                      file=sys.stderr)
                return 2
            max_regress = float(value)
            if not 0.0 < max_regress < 1.0:
                print("check_bench_json.py: --max-regress must be in (0,1)",
                      file=sys.stderr)
                return 2
        elif arg.startswith("-"):
            print(f"check_bench_json.py: unknown flag {arg}", file=sys.stderr)
            print(__doc__, file=sys.stderr)
            return 2
        else:
            files.append(Path(arg))
    if not files:
        print("usage: check_bench_json.py FILE.json [...] "
              "[--require-stage STAGE] [--compare BASELINE_DIR] "
              "[--max-regress FRAC]", file=sys.stderr)
        return 2

    errors: list[str] = []
    for path in files:
        errors.extend(validate(path, require_stages))
        if baseline_dir is not None:
            errors.extend(compare_to_baseline(path, baseline_dir,
                                              max_regress))
    for message in errors:
        print(message, file=sys.stderr)
    if not errors:
        print(f"check_bench_json: {len(files)} report(s) OK")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
