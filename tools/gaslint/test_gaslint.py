#!/usr/bin/env python3
"""Fixture suite for gaslint.

For every check, a `<slug>_bad.cpp` fixture must produce at least one
finding of that check and a `<slug>_good.cpp` fixture must produce
none. Fixtures live in tests/lint_fixtures/ and are never compiled
(the test build only globs *_test.cpp); they are lexed, not built.

Run directly or via ctest (the gaslint_fixtures test).
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
GASLINT = ROOT / "tools" / "gaslint" / "gaslint.py"
FIXTURES = ROOT / "tests" / "lint_fixtures"

# slug -> check exercised by <slug>_bad.cpp / <slug>_good.cpp
CASES = {
    "raw_getenv": "gas-raw-getenv",
    "discarded_status": "gas-discarded-status",
    "missing_cancel_poll": "gas-missing-cancel-poll",
    "ref_capture": "gas-ref-capture-in-parallel",
    "raw_accessor": "gas-raw-accessor-in-parallel",
    "std_function_kernel": "gas-std-function-in-kernel",
    "exec_mode": "gas-exec-mode-in-algorithm",
    "unregistered_metric": "gas-unregistered-metric",
    # Suppression comments must silence an otherwise-positive file.
    "suppressed": "gas-raw-getenv",
}


def run_gaslint(check, fixture):
    return subprocess.run(
        [sys.executable, str(GASLINT), "--check", check,
         "--no-path-filter", str(fixture)],
        capture_output=True, text=True)


def main():
    failures = []
    ran = 0
    for slug, check in sorted(CASES.items()):
        for variant in ("bad", "good"):
            fixture = FIXTURES / f"{slug}_{variant}.cpp"
            if not fixture.is_file():
                if slug == "suppressed" and variant == "bad":
                    continue  # suppression case is negative-only
                failures.append(f"missing fixture {fixture}")
                continue
            ran += 1
            proc = run_gaslint(check, fixture)
            hits = [line for line in proc.stdout.splitlines()
                    if f"[{check}]" in line]
            if variant == "bad":
                if not hits or proc.returncode != 1:
                    failures.append(
                        f"{fixture.name}: expected {check} findings, "
                        f"got rc={proc.returncode}, "
                        f"stdout:\n{proc.stdout}")
            else:
                if hits or proc.returncode != 0:
                    failures.append(
                        f"{fixture.name}: expected clean, "
                        f"got rc={proc.returncode}, "
                        f"stdout:\n{proc.stdout}")

    if failures:
        for f in failures:
            print(f"FAIL: {f}")
        print(f"gaslint fixtures: {len(failures)} failure(s) "
              f"in {ran} runs")
        return 1
    print(f"gaslint fixtures: all {ran} runs behaved as expected")
    return 0


if __name__ == "__main__":
    sys.exit(main())
