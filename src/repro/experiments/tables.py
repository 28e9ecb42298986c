"""Reproduction harnesses for Tables I–III.

Each ``tableN`` function runs the paper's exact algorithm/parameter
grid on the corresponding synthetic dataset and returns a
:class:`TableResult`: the same top-5 columns the paper prints, plus the
quantitative *shape metrics* (planted-hub contamination per column)
that our substitution makes measurable. ``jobs/tableN.py`` wraps each
for spark-submit; ``benchmarks/bench_tables.py`` times them;
``tests/test_tables.py`` asserts the shape claims.

Conventions from the paper:

- Table I lists the reference article itself at rank 1 for CR and PPR
  (``include_ref=True``); Tables II and III exclude it.
- PR columns are global (no reference node).
"""
from __future__ import annotations

from dataclasses import dataclass, field

from pyspark.sql import DataFrame, SparkSession

from repro.core.cyclerank import cyclerank
from repro.core.pagerank import pagerank
from repro.core.ppr import personalized_pagerank
from repro.core.ranking import contamination, top_k
from repro.datasets.amazon import DYSTOPIA_REF, TOLKIEN_REF, amazon
from repro.datasets.builder import LabeledGraph
from repro.datasets.wikilink import FAKE_NEWS, wikilink

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


def _top_names(
    lg: LabeledGraph,
    scores: DataFrame,
    k: int = 5,
    *,
    exclude: frozenset[str] = frozenset(),
) -> list[str]:
    """Top-``k`` names, optionally dropping excluded ones (the ref)."""
    names = top_k(lg.graph, scores, k + len(exclude))["name"]
    return [n for n in names if n not in exclude][:k]


def table1(spark: SparkSession, *, scale: float = 1.0, seed: int = 0) -> TableResult:
    """Table I: PR / CR / PPR top-5 on the English Wikipedia 2018 snapshot.

    Parameters are the paper's: PR α=0.85; CR K=3, σ=e⁻ⁿ; PPR α=0.3.
    Reference articles: "Freddie Mercury" and "Pasta".
    """
    lg = wikilink(spark, "en", 2018, scale=scale, seed=seed)
    lg.graph.cache()
    hubs = set(lg.hubs)
    out = TableResult(
        title=(
            "Table I — top-5 by PR(a=0.85), CR(K=3, s=e^-n), PPR(a=0.3); "
            "en Wikipedia 2018-03-01 (synthetic); refs: Freddie Mercury, Pasta"
        )
    )
    out.columns["PageRank"] = _top_names(lg, pagerank(lg.graph, alpha=0.85))
    out.metrics["hub_rate:PageRank"] = contamination(out.columns["PageRank"], hubs)
    for ref in ("Freddie Mercury", "Pasta"):
        rid = lg.id_of(ref)
        cr = _top_names(lg, cyclerank(lg.graph, rid, k=3, sigma="exp"))
        ppr = _top_names(lg, personalized_pagerank(lg.graph, rid, alpha=0.3))
        out.columns[f"Cyclerank[{ref}]"] = cr
        out.columns[f"Pers.PageRank[{ref}]"] = ppr
        out.metrics[f"hub_rate:CR[{ref}]"] = contamination(cr, hubs)
        out.metrics[f"hub_rate:PPR[{ref}]"] = contamination(ppr, hubs)
    return out


def table2(spark: SparkSession, *, scale: float = 1.0, seed: int = 0) -> TableResult:
    """Table II: PR / CR / PPR top-5 on the Amazon co-purchase graph.

    Parameters are the paper's: PR α=0.85; CR K=5, σ=e⁻ⁿ; PPR α=0.85.
    Reference items: "1984" and "The Fellowship of the Ring"; the
    reference itself is excluded from the personalized columns (as in
    the paper's table).
    """
    lg = amazon(spark, scale=scale, seed=seed)
    lg.graph.cache()
    # The popularity intruders for the Fellowship query are the Potter
    # volumes (hubs 2..4); the planted-popularity set for metrics is all
    # hubs plus the "popular member" best-sellers.
    hubs = set(lg.hubs)
    out = TableResult(
        title=(
            "Table II — top-5 by PR(a=0.85), CR(K=5, s=e^-n), PPR(a=0.85); "
            "Amazon co-purchase (synthetic); refs: 1984, The Fellowship of the Ring"
        )
    )
    out.columns["PageRank"] = _top_names(lg, pagerank(lg.graph, alpha=0.85))
    out.metrics["hub_rate:PageRank"] = contamination(out.columns["PageRank"], hubs)
    for ref in (DYSTOPIA_REF, TOLKIEN_REF):
        rid = lg.id_of(ref)
        excl = frozenset({ref})
        cr = _top_names(lg, cyclerank(lg.graph, rid, k=5, sigma="exp"), exclude=excl)
        ppr = _top_names(
            lg, personalized_pagerank(lg.graph, rid, alpha=0.85), exclude=excl
        )
        out.columns[f"Cyclerank[{ref}]"] = cr
        out.columns[f"Pers.PageRank[{ref}]"] = ppr
        out.metrics[f"hub_rate:CR[{ref}]"] = contamination(cr, hubs)
        out.metrics[f"hub_rate:PPR[{ref}]"] = contamination(ppr, hubs)
    return out


def table3(spark: SparkSession, *, scale: float = 1.0, seed: int = 0) -> TableResult:
    """Table III: CR (K=3, σ=e⁻ⁿ) top-5 from "Fake news" across six
    Wikipedia language editions (de, en, fr, it, nl, pl)."""
    out = TableResult(
        title=(
            "Table III — Cyclerank(K=3, s=e^-n) top-5 from 'Fake news' "
            "across language editions (synthetic wikilink graphs)"
        )
    )
    for lang in TABLE3_LANGS:
        lg = wikilink(spark, lang, 2018, scale=scale, seed=seed)
        ref, _ = FAKE_NEWS[lang]
        rid = lg.id_of(ref)
        names = _top_names(
            lg, cyclerank(lg.graph, rid, k=3, sigma="exp"), exclude=frozenset({ref})
        )
        out.columns[table3_column(lang)] = names
        out.metrics[f"hub_rate:CR[{lang}]"] = contamination(names, set(lg.hubs))
    return out
