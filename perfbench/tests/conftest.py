"""Make ``pmbench`` importable and load the program the way run.py does.

Run from the checkout root: ``python3 -m pytest perfbench/tests``.
"""

import os
import sys

PERFBENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(PERFBENCH)
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)

if "repro" not in sys.modules:
    from pmbench.loader import load_program

    load_program(ROOT)
