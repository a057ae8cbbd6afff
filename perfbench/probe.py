"""Fresh-interpreter probes, started by ``bench.py``.

``probe.py setup <plan>`` prints the seconds from the start of this script,
through ``import risimage`` and the parsing of the plan and scene files by
``risimage sweep --plan``, to the sweep's first layer call.

``probe.py rss <plan>`` runs the whole sweep and prints its exit code and the
peak resident memory of this process in MiB.
"""

import time

START = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


class FirstLayerCall(Exception):
    pass


def main(mode: str, plan: str) -> None:
    from risimage import cli, runner

    argv = ["sweep", "--plan", plan]
    if mode == "setup":

        def stop(*_args, **_kwargs):
            raise FirstLayerCall

        runner.validate_scene = stop
        try:
            cli.main(argv)
        except FirstLayerCall:
            print(repr(time.perf_counter() - START))
            return
        raise SystemExit("the sweep made no layer call")
    if mode == "rss":
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(code, repr(peak_mib))
        return
    raise SystemExit(f"unknown probe {mode!r}")


if __name__ == "__main__":
    main(*sys.argv[1:])
