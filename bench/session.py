"""One benchmark session in a fresh process; ``run.py`` starts these.

Prints the session's measurements as one JSON line. The BLAS thread pin
is inherited from ``run.py`` through the environment.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("kind", choices=("train", "query"))
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--scale", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workdir", type=Path, required=True)
    p.add_argument("--traced", type=int, choices=(0, 1), default=0)
    p.add_argument("--queries", type=int, default=0, help="warm queries, at least")
    p.add_argument("--start", type=int, default=1, help="first held-out position")
    p.add_argument("--seconds", type=float, default=0.0, help="how long to keep querying")
    args = p.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    scale = workload.scales[args.scale]
    if args.kind == "train":
        result = workloads.train_session(
            workload, scale, args.seed, bool(args.traced), args.workdir
        )
    else:
        result = workloads.query_session(
            bool(args.traced), args.workdir, args.queries, args.start, args.seconds
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
