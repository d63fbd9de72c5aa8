"""Server process of the ``served_tcp`` workload.

Runs a ``SolverService`` behind ``start_tcp_server`` with warm AR block
operators (see ``wl_served.operators``).  Prints ``{"port": P}`` once it
accepts connections, serves until a line arrives on standard input (or
it closes), then shuts down and prints ``{"peak_rss_mb": …}``.

    python3 perfbench/server.py --seed 1 [--tiny]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    from repro.serve import SolverService, start_tcp_server
    import wl_served

    service = SolverService(**wl_served.SERVICE)
    handle = None
    try:
        for name, op in wl_served.operators(args.seed, args.tiny):
            service.register(name, op, warm=True)
        handle = start_tcp_server(service)
        print(json.dumps({"port": handle.port}), flush=True)
        sys.stdin.readline()
    finally:
        if handle is not None:
            handle.close()
        service.close()
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"peak_rss_mb": rss}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
