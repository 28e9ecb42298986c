"""Reproduction harnesses for Tables I–III.

Each ``tableN`` function runs the paper's exact algorithm/parameter
grid on the corresponding synthetic dataset as one query set through
the demo platform (Figure 1): it stores the generated graph in an
:class:`~repro.platform.gateway.ApiGateway` over a temporary root,
submits one task per column, and reads every column from the stored
result rows. It returns a :class:`TableResult`: the same top-5 columns
the paper prints, plus the quantitative *shape metrics* (planted-hub
contamination per column) that our substitution makes measurable.
``jobs/table.py --table N`` runs each under spark-submit;
``benchmarks/bench_tables.py`` times them; ``tests/test_tables.py``
asserts the shape claims.

Conventions from the paper:

- Table I lists the reference article itself at rank 1 for CR and PPR;
  Tables II and III drop it from the stored rows.
- PR columns are global (no reference node).
"""
from __future__ import annotations

import tempfile
from dataclasses import dataclass, field

from pyspark.sql import SparkSession

from repro.core.ranking import contamination
from repro.datasets.amazon import DYSTOPIA_REF, TOLKIEN_REF, amazon
from repro.datasets.builder import LabeledGraph
from repro.datasets.wikilink import FAKE_NEWS, wikilink
from repro.platform.gateway import ApiGateway
from repro.platform.tasks import Task

TABLE3_LANGS = ("de", "en", "fr", "it", "nl", "pl")


def table3_column(lang: str) -> str:
    """Header of a Table III column: the reference article, suffixed
    with the language code unless the article name already carries it."""
    ref, _ = FAKE_NEWS[lang]
    return ref if ref.endswith(f"({lang})") else f"{ref} ({lang})"


@dataclass
class TableResult:
    """One reproduced table: named top-5 columns plus shape metrics."""

    title: str
    columns: dict[str, list[str]] = field(default_factory=dict)
    metrics: dict[str, float] = field(default_factory=dict)

    def to_text(self) -> str:
        """Render the table as an aligned text grid (the demo's output)."""
        heads = list(self.columns)
        depth = max((len(v) for v in self.columns.values()), default=0)
        grid = [["#"] + heads]
        for i in range(depth):
            grid.append(
                [str(i + 1)]
                + [
                    self.columns[h][i] if i < len(self.columns[h]) else "-"
                    for h in heads
                ]
            )
        widths = [max(len(row[c]) for row in grid) for c in range(len(heads) + 1)]
        lines = [self.title]
        for row in grid:
            lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
        if self.metrics:
            lines.append("")
            lines.append("shape metrics (planted-hub contamination of each top-5):")
            for k, v in sorted(self.metrics.items()):
                lines.append(f"  {k}: {v:.2f}")
        return "\n".join(lines)


#: A column's metric key, its task, and the name it drops (the ref) or None.
Column = tuple[str, Task, str | None]


def _top_names(names: list[str], exclude: str | None) -> list[str]:
    """The first five stored names, without the excluded one (the ref)."""
    return [n for n in names if n != exclude][:5]


def _query_set_table(
    spark: SparkSession,
    title: str,
    graphs: dict[str, LabeledGraph],
    columns: dict[str, Column],
) -> TableResult:
    """Store ``graphs`` (registry name → generated graph) in a gateway
    over a temporary root, submit one task per column as one query set,
    and fill each column from its stored result rows.

    Raises:
        RuntimeError: naming the column and the logged error of a task
            that failed.
    """
    out = TableResult(title=title)
    with tempfile.TemporaryDirectory() as root:
        gw = ApiGateway(spark, root)
        for name, lg in graphs.items():
            gw.datastore.save_dataset(name, lg.graph)
        tids = gw.submit_query_set([task for _, task, _ in columns.values()])
        for (column, (metric, task, exclude)), tid in zip(columns.items(), tids):
            status = gw.poll(tid)
            if status["state"] != "done":
                raise RuntimeError(f"column {column!r}: {status.get('error')}")
            names = _top_names(list(gw.result(tid)["name"]), exclude)
            out.columns[column] = names
            out.metrics[f"hub_rate:{metric}"] = contamination(
                names, set(graphs[task.dataset].hubs)
            )
    return out


def _pr_cr_ppr(
    spark: SparkSession, title: str, dataset: str, lg: LabeledGraph,
    refs: tuple[str, str], *, k: int, ppr_alpha: float, exclude_ref: bool,
) -> TableResult:
    """Tables I and II: global PR (α=0.85), then CR (σ=e⁻ⁿ) and PPR per ref."""
    pr = Task.make(dataset, "pagerank", alpha=0.85)
    columns: dict[str, Column] = {"PageRank": ("PageRank", pr, None)}
    for ref in refs:
        rid, exclude = [lg.id_of(ref)], ref if exclude_ref else None
        cr = Task.make(dataset, "cyclerank", refs=rid, k=k, sigma="exp")
        ppr = Task.make(dataset, "personalized_pagerank", refs=rid, alpha=ppr_alpha)
        columns[f"Cyclerank[{ref}]"] = (f"CR[{ref}]", cr, exclude)
        columns[f"Pers.PageRank[{ref}]"] = (f"PPR[{ref}]", ppr, exclude)
    return _query_set_table(spark, title, {dataset: lg}, columns)


def table1(spark: SparkSession, *, scale: float = 1.0, seed: int = 0) -> TableResult:
    """Table I: PR / CR / PPR top-5 on the English Wikipedia 2018 snapshot.

    Parameters are the paper's: PR α=0.85; CR K=3, σ=e⁻ⁿ; PPR α=0.3.
    Reference articles: "Freddie Mercury" and "Pasta".
    """
    title = (
        "Table I — top-5 by PR(a=0.85), CR(K=3, s=e^-n), PPR(a=0.3); "
        "en Wikipedia 2018-03-01 (synthetic); refs: Freddie Mercury, Pasta"
    )
    lg = wikilink(spark, "en", 2018, scale=scale, seed=seed)
    refs = ("Freddie Mercury", "Pasta")
    return _pr_cr_ppr(
        spark, title, "wikilink-en-2018", lg, refs, k=3, ppr_alpha=0.3, exclude_ref=False
    )


def table2(spark: SparkSession, *, scale: float = 1.0, seed: int = 0) -> TableResult:
    """Table II: PR / CR / PPR top-5 on the Amazon co-purchase graph.

    Parameters are the paper's: PR α=0.85; CR K=5, σ=e⁻ⁿ; PPR α=0.85.
    Reference items: "1984" and "The Fellowship of the Ring"; the
    reference itself is excluded from the personalized columns (as in
    the paper's table). The popularity intruders for the Fellowship
    query are the Potter volumes, which are among the planted hubs.
    """
    title = (
        "Table II — top-5 by PR(a=0.85), CR(K=5, s=e^-n), PPR(a=0.85); "
        "Amazon co-purchase (synthetic); refs: 1984, The Fellowship of the Ring"
    )
    lg = amazon(spark, scale=scale, seed=seed)
    refs = (DYSTOPIA_REF, TOLKIEN_REF)
    return _pr_cr_ppr(
        spark, title, "amazon", lg, refs, k=5, ppr_alpha=0.85, exclude_ref=True
    )


def table3(spark: SparkSession, *, scale: float = 1.0, seed: int = 0) -> TableResult:
    """Table III: CR (K=3, σ=e⁻ⁿ) top-5 from "Fake news" across six
    Wikipedia language editions (de, en, fr, it, nl, pl)."""
    title = (
        "Table III — Cyclerank(K=3, s=e^-n) top-5 from 'Fake news' "
        "across language editions (synthetic wikilink graphs)"
    )
    graphs: dict[str, LabeledGraph] = {}
    columns: dict[str, Column] = {}
    for lang in TABLE3_LANGS:
        dataset, (ref, _) = f"wikilink-{lang}-2018", FAKE_NEWS[lang]
        graphs[dataset] = lg = wikilink(spark, lang, 2018, scale=scale, seed=seed)
        task = Task.make(dataset, "cyclerank", refs=[lg.id_of(ref)], k=3, sigma="exp")
        columns[table3_column(lang)] = (f"CR[{lang}]", task, ref)
    return _query_set_table(spark, title, graphs, columns)
