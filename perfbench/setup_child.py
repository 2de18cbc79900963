"""Fresh-interpreter set-up probe, spawned by run.py to measure setup_s.

Imports rkforge, its generated solvers and its CLI, parses and validates the
shipped method file, then prints "ready".  The parent times the span from
spawning this interpreter to reading that line.
"""
import rkforge
import rkforge.cli
import rkforge.generated
from rkforge import parse_method_file, shipped_method_path, validate_tableau

methods = parse_method_file(shipped_method_path().read_bytes())
if not all(validate_tableau(t).ok for t in methods):
    raise SystemExit("shipped method file does not validate")
print("ready", len(rkforge.generated.METHODS), flush=True)
