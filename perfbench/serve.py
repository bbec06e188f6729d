"""The product's ``serve`` command with layer tracing
(``python -m perfbench.serve SNAPSHOT_PREFIX serve ...``).

Wraps the layers (see :mod:`perfbench.layers`) and then runs the
``polyflow-experiments`` CLI unchanged.  Each ``SIGUSR1`` writes the
tracer's current snapshot to ``SNAPSHOT_PREFIX.<n>`` (n = 0, 1, ...),
so the benchmark can bracket its measured window.
"""

import itertools
import json
import os
import signal
import sys

from perfbench import layers


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    prefix = argv.pop(0)
    tracer = layers.install()
    numbers = itertools.count()

    def dump(signum, frame):
        path = "{}.{}".format(prefix, next(numbers))
        with open(path + ".tmp", "w") as handle:
            json.dump(tracer.snapshot(), handle)
        os.replace(path + ".tmp", path)

    signal.signal(signal.SIGUSR1, dump)
    from repro.experiments.__main__ import main as cli

    return cli(argv)


if __name__ == "__main__":
    sys.exit(main())
