"""Set-up probe: a fresh interpreter imports bayesdiv and makes one warm-up call.

    python3 perfbench/probe.py ROOT KIND ARG

Prints "ready" once the call has returned; the parent times the span
from launching this process to that line.
"""

import os
import sys


def main():
    root, kind, arg = sys.argv[1:4]
    sys.path.insert(0, os.path.join(root, "src"))
    import bayesdiv
    import bayesdiv.cli  # noqa: F401  (the CLI module is not imported by the package)

    import workloads

    workloads.warmup(bayesdiv, kind, arg)
    print("ready", flush=True)


if __name__ == "__main__":
    main()
