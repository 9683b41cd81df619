"""Record the sha256 of the CLI's stdout for every default-seed input into
`digests.json`, refusing any output that fails its check.

    python3 perfbench/record_digests.py

Run it only on a commit whose outputs are the reference: the benchmark then
holds every later commit to the same bytes for the default seed.
"""

from __future__ import annotations

import hashlib
import json
import sys

import run
from workloads import WORKLOADS


def main() -> int:
    env = run.child_env()
    digests = {}
    calls = [argv for w in WORKLOADS for rnd in run.make_rounds(w, run.DEFAULT_SEED) for _, argv in rnd]
    for argv in calls:
        if " ".join(argv) not in digests:
            cmd = [sys.executable, "-m", "tworow.cli", *argv]
            code, out, err, _, _, _ = run.spawn(cmd, env, run.CALL_TIMEOUT_S)
            error = f"exit {code}: {err.decode(errors='replace')}" if code != 0 else run.check(argv, out, {}, False)
            if error is not None:
                print(f"tworow {' '.join(argv)}: {error}", file=sys.stderr)
                return 1
            digests[" ".join(argv)] = hashlib.sha256(out).hexdigest()
    run.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
