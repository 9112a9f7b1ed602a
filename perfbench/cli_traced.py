"""`python -m uniequiv.cli` with the span recorder installed, for the traced
cli-cold run. Arguments are passed to `uniequiv.cli.main` unchanged; the
spans go to the file named by PERFBENCH_SPANS when the process ends."""

import os
import sys

from spans import Recorder

if __name__ == "__main__":
    recorder = Recorder(request=int(os.environ["PERFBENCH_REQUEST"]))
    recorder.install()
    from uniequiv import cli

    try:
        code = recorder.call("cli.main", cli.main, sys.argv[1:])
    finally:
        recorder.dump(os.environ["PERFBENCH_SPANS"])
    raise SystemExit(code)
