"""One fresh-interpreter set-up, timed by its parent as child CPU time.

    python3 hostbench/setup_child.py <workload> <seed> <work_dir>

Imports the program, builds the workload's seeded inputs and, for
serve-mixed, binds a server whose journal store under ``work_dir`` is
scanned.  It exits the moment the workload is ready, skipping
interpreter teardown, which is not set-up.
"""

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]


def main() -> None:
    workload, seed, work_dir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    if workload == "serve-mixed":
        import asyncio

        import serve_load

        serve_load.build_schedule(seed, serve_load.MAX_BURSTS)

        async def ready() -> None:
            server = serve_load.make_server(Path(work_dir))
            await server.start()
            sys.stdout.flush()
            os._exit(0)

        asyncio.run(ready())
    else:
        import sweeps

        sweeps.build_inputs(workload, seed)
    sys.stdout.flush()
    os._exit(0)


if __name__ == "__main__":
    main()
