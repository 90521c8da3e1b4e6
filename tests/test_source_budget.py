"""src/ stays within its line budget.  Lines are newlines over the .py
files under src/, counted as perfbench/run.py:src_identity counts them."""

import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
LINE_BUDGET = 3813


def test_src_stays_within_line_budget():
    lines = 0
    for base, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as fh:
                    lines += fh.read().count(b"\n")
    assert 0 < lines <= LINE_BUDGET, f"src/ has {lines} lines, budget {LINE_BUDGET}"
