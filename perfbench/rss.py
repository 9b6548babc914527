"""One operation in a fresh interpreter, for its peak resident set.

    python3 perfbench/rss.py cli '[["run", "--mock", ...], ["enrich", ...]]'
    python3 perfbench/rss.py slow-backend SEED INDEX

``cli`` runs each ``xkg`` command line in turn; ``slow-backend`` runs scene
INDEX of SEED through the ``slow-backend`` workload's stages. Needs
``PYTHONPATH=src``. The last line of standard output is JSON: ``codes``
(the exit codes, or the HTTP attempts of the scene) and ``peak_rss_kb``,
the process's VmHWM. VmHWM counts only what this program touched, where
``ru_maxrss`` of a spawned child also carries the parent's resident set
from before ``exec``.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys


def peak_rss_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv: list[str]) -> int:
    if argv[0] == "cli":
        import xkg.cli

        with contextlib.redirect_stdout(io.StringIO()):
            codes = [xkg.cli.main(command) for command in json.loads(argv[1])]
    elif argv[0] == "slow-backend":
        import inputs
        import workloads

        workload = workloads.SlowBackend(None)
        workload.prepare()
        server = workload.stages(inputs.make_scene(int(argv[1]), int(argv[2])), {})[0]
        codes = [sum(server.attempts.values())]
    else:
        raise SystemExit(f"unknown mode {argv[0]!r}")
    print(json.dumps({"codes": codes, "peak_rss_kb": peak_rss_kb()}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
