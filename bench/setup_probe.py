"""Set-up work of one workload invocation, with nothing simulated.

    python3 bench/setup_probe.py <input file>

Imports ``mrac.cli`` and parses and validates every member config the
input names, as ``mrac run`` or ``mrac batch`` would before simulating.
Exits 0 when every member is valid and 1 otherwise. The benchmark times the
whole process, so interpreter start-up is part of the set-up time.
"""

import json
import sys

from mrac.cli import expand_batch_spec, load_config
from mrac.errors import ConfigError
from mrac.scenario import config_from_dict


def main(path: str) -> int:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    try:
        if "configs" in doc:
            for data in expand_batch_spec(doc):
                config_from_dict(data)
        else:
            load_config(path)
    except ConfigError as exc:
        print("\n".join(exc.errors), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
