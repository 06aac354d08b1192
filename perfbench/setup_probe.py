"""Set-up cost as a fresh interpreter pays it: import the package (CLI
included) and build every shift and potential a workload's configs name.

Usage: setup_probe.py CONFIGS_JSON   (prints the seconds taken)
"""

import json
import sys
import time

with open(sys.argv[1], encoding="utf-8") as fh:
    configs = json.load(fh)

start = time.perf_counter()
import thermoshift.cli  # noqa: E402,F401
from thermoshift import potential_from_config, shift_from_config  # noqa: E402

for cfg in configs["shifts"]:
    shift_from_config(cfg)
for cfg in configs["potentials"]:
    potential_from_config(cfg)
print(time.perf_counter() - start)
