"""The benchmark's workloads: seeded inputs and the query set each one submits.

Every workload runs at bench scale 2.0 (wikilink-en-2018 is 833 V / 6,385 E)
and submits its query set through ``ApiGateway.submit_query_set`` as a
closed loop: one client, one task at a time, the next only after the
previous one is DONE. The seed feeds the dataset generators and the choice
of reference nodes; the platform sees only the generated tasks and files.
"""
from __future__ import annotations

import os
import random
from dataclasses import dataclass, field

from repro.datasets.amazon import DYSTOPIA_REF, TOLKIEN_REF, amazon
from repro.datasets.wikilink import wikilink
from repro.platform.datastore import Datastore
from repro.platform.tasks import Task

import checks

SCALE = 2.0
TABLE3_LANGS = ("de", "en", "fr", "it", "nl", "pl")


@dataclass
class Op:
    """One step of a query set: a task submitted to the gateway, or an
    upload (``graph.formats.read_graph`` + ``Datastore.save_dataset``)."""

    cls: str
    dataset: str
    task: Task | None = None
    path: str | None = None
    repeat_of: int | None = None
    # filled in by the run
    tid: str | None = None
    state: str = "pending"
    error: str | None = None
    start: float = 0.0
    end: float = 0.0
    props: dict = field(default_factory=dict)

    @property
    def latency(self) -> float:
        return self.end - self.start


class PowerIteration:
    """PageRank (α=0.85) on a pre-stored, seeded wikilink-en-2018. Nearly all
    of its time is ``pregel`` supersteps; the CycleRank layers stay idle.

    ``max_iter=25``: on the seeds checked, PageRank converges (L1 delta
    <= 1e-8, tested every fifth superstep) after 25 supersteps on most graphs
    and after 30 on some, which would make the run-to-run spread a property
    of the seed. After 25 supersteps every checked graph is within 2e-10
    (|Δ|∞) of the converged oracle, far inside the 1e-6 check.
    """

    name = "power-iteration"
    dataset = "wikilink-en-2018"

    def __init__(self, spark, seed: int) -> None:
        self.spark = spark
        self.seed = seed

    def setup(self, root: str, files: str) -> None:
        """Generate the seeded graph and store it in a fresh datastore."""
        lg = wikilink(self.spark, "en", 2018, scale=SCALE, seed=self.seed)
        Datastore(root).save_dataset(self.dataset, lg.graph)

    def plan(self, files: str, max_iter: int = 25) -> list[Op]:
        task = Task.make(self.dataset, "pagerank", alpha=0.85, max_iter=max_iter)
        return [Op("pagerank", self.dataset, task)]

    def warmup_plan(self, files: str) -> list[Op]:
        """The same task cut to 10 supersteps (about 90 Spark jobs)."""
        return self.plan(files, max_iter=10)


def _edge_set(edges, shift: int = 0) -> set[tuple[int, int]]:
    return {(int(s) + shift, int(d) + shift) for s, d in zip(edges["src"], edges["dst"])}


def _write_csv(path: str, edges) -> None:
    edges[["src", "dst"]].to_csv(path, index=False, header=False)


def _write_pajek(path: str, edges, vertices) -> None:
    """Pajek ids are 1-based: every id is shifted by one."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"*Vertices {len(vertices)}\n")
        for vid, name in sorted(zip(vertices["id"], vertices["name"])):
            fh.write(f'{vid + 1} "{name}"\n')
        fh.write("*Arcs\n")
        for s, d in zip(edges["src"], edges["dst"]):
            fh.write(f"{s + 1} {d + 1}\n")


def _write_asd(path: str, edges) -> None:
    n = int(max(edges["src"].max(), edges["dst"].max())) + 1
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{n} {len(edges)}\n")
        for s, d in zip(edges["src"], edges["dst"]):
            fh.write(f"{s} {d}\n")


class CyclerankIngestPermalink:
    """CycleRank on a small and a large (K-1)-ball at the same K=5, graph
    uploads in all three formats, a first-touch registry dataset and a
    permalink re-submit.

    - uploads: a Table III wikilink edition as edgelist CSV and as ASD
      (0-indexed), and the Amazon graph as Pajek (1-indexed);
    - small ball: a Table II Amazon ref on the Pajek upload (a planted
      cluster of about 10 V);
    - large ball: a seeded background ref on wikilink-en-2018, which is not
      stored yet, so the scheduler generates and stores it first;
    - permalink: the small-ball task submitted again.
    """

    name = "cyclerank-ingest-permalink"
    first_touch = "wikilink-en-2018"

    def __init__(self, spark, seed: int) -> None:
        self.spark = spark
        self.seed = seed
        rng = random.Random(seed)
        self.lang = rng.choice(TABLE3_LANGS)
        self.amazon_ref = rng.choice((DYSTOPIA_REF, TOLKIEN_REF))
        # The scheduler generates the first-touch dataset with the registry's
        # default seed; keep only background refs on a cycle of length <= 5.
        lg = wikilink(spark, "en", 2018, scale=SCALE)
        edges = [tuple(map(int, e)) for e in lg.graph.edges.toPandas().to_numpy()]
        background = sorted({v for e in edges for v in e} - set(lg.ids.values()))
        rng.shuffle(background)
        self.large_ref = next(v for v in background if checks.cycles(edges, v, 5))

    def setup(self, root: str, files: str) -> None:
        """Generate the seeded graphs and write the three upload files."""
        os.makedirs(files, exist_ok=True)
        wiki = wikilink(self.spark, self.lang, 2018, scale=SCALE, seed=self.seed)
        wiki = wiki.graph.edges.toPandas()
        _write_csv(os.path.join(files, "graph.csv"), wiki)
        _write_asd(os.path.join(files, "graph.asd"), wiki)
        amz = amazon(self.spark, scale=SCALE, seed=self.seed)
        amz_edges, amz_vertices = amz.graph.edges.toPandas(), amz.graph.vertices.toPandas()
        _write_pajek(os.path.join(files, "graph.net"), amz_edges, amz_vertices)
        self.small_ref = amz.id_of(self.amazon_ref) + 1
        #: edge set each upload must store, in the file's own id space
        self.expected_uploads = {
            "upload-csv": _edge_set(wiki),
            "upload-net": _edge_set(amz_edges, shift=1),
            "upload-asd": _edge_set(wiki),
        }

    def plan(self, files: str) -> list[Op]:
        small = Task.make("upload-net", "cyclerank", refs=[self.small_ref], k=5)
        large = Task.make(self.first_touch, "cyclerank", refs=[self.large_ref], k=5)
        return [
            *(Op("upload", f"upload-{ext}", path=os.path.join(files, f"graph.{ext}"))
              for ext in ("csv", "net", "asd")),
            Op("small_ball", small.dataset, small),
            Op("large_ball", large.dataset, large),
            Op("permalink", small.dataset, small, repeat_of=3),
        ]

    def warmup_plan(self, files: str) -> list[Op]:
        """The Pajek upload and the small-ball task at K=3 (the plans of
        K=5, with fewer BFS and path-expansion rounds)."""
        upload, small = self.plan(files)[1:4:2]
        small.task = Task.make(small.dataset, "cyclerank", **{**small.task.kwargs, "k": 3})
        return [upload, small]


WORKLOADS = {w.name: w for w in (PowerIteration, CyclerankIngestPermalink)}
