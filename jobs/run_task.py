"""spark-submit entrypoint for the demo-platform request cycle.

Builds one task (dataset, algorithm, params), runs it through the API
gateway, and prints the permalink id, status, and top rows — the same
flow the Web UI triggers in Section III. With ``--upload PATH`` the graph
file (``.csv``, ``.net`` or ``.asd``) is first stored as ``--dataset``,
and ``--ref`` names one of its vertices.

Usage:
  spark-submit jobs/run_task.py --dataset wikilink-en-2018 \
      --algorithm cyclerank --ref "Fake news" --k 3 --root /tmp/store
  spark-submit jobs/run_task.py --dataset my-graph --upload graph.net \
      --algorithm cyclerank --ref "1984" --k 5
"""
from __future__ import annotations

import argparse

from repro.datasets.registry import load_dataset
from repro.platform.gateway import ApiGateway
from repro.platform.tasks import Task

from _common import session


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--dataset", required=True)
    p.add_argument("--upload", default=None, help="graph file to store as --dataset first")
    p.add_argument("--algorithm", required=True)
    p.add_argument("--ref", default=None, help="reference node name (personalized)")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--k", type=int, default=None, help="CycleRank max cycle length")
    p.add_argument("--root", default="/tmp/cyclerank-demo-store")
    p.add_argument("--scale", type=float, default=0.2)
    args = p.parse_args()

    spark = session("run_task")
    gw = ApiGateway(spark, args.root, dataset_scale=args.scale)
    params: dict = {}
    if args.alpha is not None:
        params["alpha"] = args.alpha
    if args.k is not None:
        params["k"] = args.k
    if args.upload is not None:
        print(f"uploaded:  {args.dataset} version {gw.upload(args.dataset, args.upload)}")
    if args.ref is not None and args.upload is not None:
        v = gw.datastore.load_dataset(spark, args.dataset).vertex_frame
        ids = v.loc[v["name"] == args.ref, "id"].tolist()
        if len(ids) != 1:
            raise SystemExit(f"{len(ids)} vertices named {args.ref!r} in {args.upload}")
        params["refs"] = ids[0]
    elif args.ref is not None:
        labeled = load_dataset(spark, args.dataset, scale=args.scale)
        params["refs"] = labeled.id_of(args.ref)
    (tid,) = gw.submit_query_set([Task.make(args.dataset, args.algorithm, **params)])
    print(f"permalink: {tid}")
    print(f"status:    {gw.poll(tid)}")
    print(gw.result(tid).head(10).to_string(index=False))
    spark.stop()


if __name__ == "__main__":
    main()
