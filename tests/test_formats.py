"""Tests for the three demo upload formats (edgelist CSV, Pajek, ASD)."""
import random

import pandas as pd
import pytest

from tests.graphs import BOWTIE
from repro.graph.formats import (
    detect_format,
    read_asd,
    read_edgelist,
    read_graph,
    read_pajek,
)
from repro.graph.graph import DiGraph

#: BOWTIE as upload files: an edge list, and ASD with header ``N M``.
BOWTIE_CSV = "".join(f"{s},{d}\n" for s, d in BOWTIE)
BOWTIE_ASD = f"5 {len(BOWTIE)}\n" + "".join(f"{s} {d}\n" for s, d in BOWTIE)


def edge_set(g: DiGraph) -> set[tuple[int, int]]:
    return {(r["src"], r["dst"]) for r in g.edges.collect()}


# -- edgelist CSV -------------------------------------------------------


def test_edgelist_roundtrip(spark, tmp_path):
    p = tmp_path / "g.csv"
    p.write_text(BOWTIE_CSV)
    assert edge_set(read_edgelist(spark, str(p))) == set(BOWTIE)


def test_edgelist_read_with_header(spark, tmp_path):
    p = tmp_path / "h.csv"
    p.write_text("src,dst\n0,1\n1,0\n")
    g = read_edgelist(spark, str(p))
    assert edge_set(g) == {(0, 1), (1, 0)}


@pytest.mark.parametrize(
    "text",
    ["0,1,0.5\n1,0,2\n", "src,dst,weight\n0,1,0.5\n1,0,2\n"],
    ids=["no-header", "header"],
)
def test_edgelist_weight_column_ignored(spark, tmp_path, text):
    p = tmp_path / "w.csv"
    p.write_text(text)
    assert edge_set(read_graph(spark, str(p))) == {(0, 1), (1, 0)}


@pytest.mark.parametrize(
    "text,match",
    [
        ("0,1\n1,x\n2,0\n", "not two integers"),
        ("1,x\n0,1\n", "not two integers"),
        ("0,1\n1\n", "not two integers"),
        ("0 1\n1 2\n", "comma-separated"),
        ("src,dst\n", "no edges"),
        ("", None),
    ],
    ids=["bad-field", "bad-first-row", "short-row", "whitespace", "header-only", "empty"],
)
def test_edgelist_bad_rows_raise(spark, tmp_path, text, match):
    p = tmp_path / "bad.csv"
    p.write_text(text)
    with pytest.raises(ValueError, match=match):
        read_graph(spark, str(p))


# -- Pajek --------------------------------------------------------------


@pytest.mark.parametrize(
    "text,match",
    [
        ('*Vertices 2\n1 "a"\n2 "b"\n*Arcs\n1 2\n2 7\n', "line 6 '2 7': id outside 1..2"),
        ("*Vertices 2\n*Arcs\n0 1\n", "line 3 '0 1': id outside 1..2"),
        ('*Vertices 2\n3 "c"\n*Arcs\n1 2\n', "line 2 '3 \"c\"': id outside 1..2"),
        ("*Vertices 2\n*Arcs\n1 2\n1\n", "line 4 '1': expected 2 integer"),
        ("*Vertices 2\n*Arcs\n1 x\n", "line 3 '1 x': expected 2 integer"),
        ('*Vertices 2\nx "a"\n*Arcs\n1 2\n', "line 2 'x \"a\"': expected 1 integer"),
        ('*Vertices\n1 "a"\n*Arcs\n1 1\n', "line 1 '.Vertices': .* needs a vertex count"),
        ("*Arcs\n1 2\n", "line 2 '1 2': no '.Vertices N' line"),
    ],
    ids=[
        "arc-above-n",
        "arc-zero",
        "vertex-above-n",
        "one-field",
        "non-integer",
        "vertex-non-integer",
        "no-count",
        "arcs-first",
    ],
)
def test_pajek_bad_lines_raise(spark, tmp_path, text, match):
    """Every bad line raises ``ValueError`` naming it (ids are ``1..N``)."""
    p = tmp_path / "bad.net"
    p.write_text(text)
    with pytest.raises(ValueError, match=match):
        read_graph(spark, str(p))


def test_pajek_roundtrip(spark, tmp_path):
    p = tmp_path / "g.net"
    p.write_text(
        '*Vertices 3\n1 "alpha"\n2 "beta"\n3 "gamma"\n*Arcs\n1 2\n2 3\n3 1\n'
    )
    g = read_pajek(spark, str(p))
    assert edge_set(g) == {(1, 2), (2, 3), (3, 1)}
    v = g.vertices.toPandas()
    assert v.loc[v["name"] == "beta", "id"].tolist() == [2]


def test_pajek_parses_comments_and_blank_lines(spark, tmp_path):
    p = tmp_path / "c.net"
    p.write_text(
        "% a comment\n*Vertices 2\n1 \"a\"\n\n2 \"b\"\n*Arcs\n1 2\n2 1\n"
    )
    g = read_pajek(spark, str(p))
    assert edge_set(g) == {(1, 2), (2, 1)}


def test_pajek_edges_section_alias(spark, tmp_path):
    p = tmp_path / "e.net"
    p.write_text("*Vertices 2\n1 \"a\"\n2 \"b\"\n*Edges\n1 2\n")
    assert edge_set(read_pajek(spark, str(p))) == {(1, 2)}


def test_pajek_no_arcs_raises(spark, tmp_path):
    p = tmp_path / "empty.net"
    p.write_text("*Vertices 1\n1 \"a\"\n*Arcs\n")
    with pytest.raises(ValueError, match="no arcs"):
        read_pajek(spark, str(p))


# -- ASD ----------------------------------------------------------------


def test_asd_roundtrip(spark, tmp_path):
    p = tmp_path / "g.asd"
    p.write_text(BOWTIE_ASD)
    assert edge_set(read_asd(spark, str(p))) == set(BOWTIE)


@pytest.mark.parametrize("weights", [(7, 9), (1, 2)], ids=["weights", "weights-are-ids"])
def test_asd_ignores_fields_after_the_endpoints(spark, tmp_path, weights):
    """A third field on an arc line (a weight, say) is not an endpoint:
    weights that are vertex ids do not become edges either."""
    p = tmp_path / "w.asd"
    p.write_text("3 2\n0 1 {}\n1 2 {}\n".format(*weights))
    assert edge_set(read_asd(spark, str(p))) == {(0, 1), (1, 2)}


def test_asd_bad_header_raises(spark, tmp_path):
    p = tmp_path / "bad.asd"
    p.write_text("3\n0 1\n")
    with pytest.raises(ValueError, match="header"):
        read_asd(spark, str(p))


def test_asd_edge_count_mismatch_raises(spark, tmp_path):
    p = tmp_path / "m.asd"
    p.write_text("3 5\n0 1\n1 2\n")
    with pytest.raises(ValueError, match="declared 5 edges"):
        read_asd(spark, str(p))


def test_asd_out_of_range_raises(spark, tmp_path):
    p = tmp_path / "r.asd"
    p.write_text("2 1\n0 5\n")
    with pytest.raises(ValueError, match="out of range"):
        read_asd(spark, str(p))


def test_asd_empty_header_with_arc_raises(spark, tmp_path):
    """A header of 0 vertices admits no endpoint at all."""
    p = tmp_path / "z.asd"
    p.write_text("0 1\n0 0\n")
    with pytest.raises(ValueError, match="out of range"):
        read_asd(spark, str(p))


def test_asd_negative_endpoint_raises(spark, tmp_path):
    p = tmp_path / "n.asd"
    p.write_text("2 1\n-1 0\n")
    with pytest.raises(ValueError, match="out of range"):
        read_asd(spark, str(p))


@pytest.mark.parametrize(
    "text, line",
    [
        ("3 2\n0 1.0\n1e0 2\n", "line 2 '0 1.0'"),
        ("3 2\n0 1\n1. 2\n", "line 3 '1. 2'"),
        ("3 2\n0 1\n\n  1e0 2 0.5\n", "line 4 '1e0 2 0.5'"),
    ],
    ids=["decimal-point", "trailing-point", "exponent"],
)
def test_asd_float_endpoint_raises_naming_the_line(spark, tmp_path, text, line):
    """An endpoint written as a float is refused, as the CSV and Pajek
    readers refuse it, not cast to an integer id."""
    p = tmp_path / "f.asd"
    p.write_text(text)
    with pytest.raises(ValueError, match=f"{line}: expected 2 integer ids"):
        read_asd(spark, str(p))


# -- dispatch -----------------------------------------------------------


@pytest.mark.parametrize(
    "fname,fmt",
    [("a.csv", "edgelist"), ("a.net", "pajek"), ("a.asd", "asd"), ("A.NET", "pajek")],
)
def test_detect_format(fname, fmt):
    assert detect_format(fname) == fmt


def test_detect_format_unknown_raises():
    with pytest.raises(ValueError, match="unknown graph format"):
        detect_format("graph.xyz")


@pytest.mark.parametrize("ext", ["csv", "asd"])
def test_read_write_graph_autodetect(spark, tmp_path, ext):
    p = tmp_path / f"g.{ext}"
    p.write_text({"csv": BOWTIE_CSV, "asd": BOWTIE_ASD}[ext])
    assert edge_set(read_graph(spark, str(p))) == set(BOWTIE)


def test_read_write_graph_autodetect_pajek(spark, tmp_path):
    p = tmp_path / "g.net"
    p.write_text('*Vertices 2\n1 "node_1"\n2 "node_2"\n*Arcs\n1 2\n2 1\n')
    assert edge_set(read_graph(spark, str(p))) == {(1, 2), (2, 1)}


# -- round trips of generated graphs ------------------------------------

#: Each format's writers: an upload file's text from a graph's frames.
#: ``variant`` adds what real uploads carry: CRLF line endings, a weight
#: column, ``%`` comments (Pajek only), blank lines, a CSV header.
VARIANTS = {
    "edgelist": ("plain", "crlf", "weight", "blank", "header"),
    "pajek": ("plain", "crlf", "weight", "blank", "comments"),
    "asd": ("plain", "crlf", "weight", "blank"),
}


def _upload_text(fmt: str, variant: str, vertices, edges) -> str:
    pairs = list(zip(edges["src"].tolist(), edges["dst"].tolist()))
    sep = {"edgelist": ","}.get(fmt, " ")
    shift = 1 if fmt == "pajek" else 0
    arcs = [f"{s + shift}{sep}{d + shift}" for s, d in pairs]
    if variant == "weight":
        arcs = [f"{a}{sep}{i % 7 / 4}" for i, a in enumerate(arcs)]
    if variant == "blank":
        arcs = [a if i % 5 else f"{a}\n" for i, a in enumerate(arcs)]
    if fmt == "edgelist":
        lines = (["src,dst" + (",w" if variant == "weight" else "")] if variant == "header" else []) + arcs
    elif fmt == "asd":
        lines = [f"{len(vertices)} {len(pairs)}", *arcs]
    else:
        comments = variant == "comments"
        lines = [*(["% generated graph"] if comments else []), f"*Vertices {len(vertices)}"]
        lines += [f'{v + 1} "{n}"' for v, n in zip(vertices["id"], vertices["name"])]
        lines += ["*Arcs", *(["% src dst"] if comments else [])]
        lines += [a if not comments or i % 50 else f"% arc {i}\n{a}" for i, a in enumerate(arcs)]
    return ("\r\n" if variant == "crlf" else "\n").join(lines) + "\n"


@pytest.fixture(scope="module")
def sources(spark):
    from repro.datasets.amazon import amazon
    from repro.datasets.twitter import twitter
    from repro.datasets.wikilink import wikilink

    return {
        "wikilink": wikilink(spark, "en", 2018, scale=0.2).graph,
        "amazon": amazon(spark, scale=0.2).graph,
        "twitter": twitter(spark, "cop27", scale=0.2).graph,
    }


@pytest.mark.parametrize("source", ["wikilink", "amazon", "twitter"])
@pytest.mark.parametrize(
    "fmt, variant", [(f, v) for f, vs in VARIANTS.items() for v in vs],
    ids=[f"{f}-{v}" for f, vs in VARIANTS.items() for v in vs],
)
def test_generated_graph_round_trips(spark, tmp_path, sources, source, fmt, variant):
    """A generated graph written in each format reads back to its own
    frames: the same edges in the same order, the same vertex ids (Pajek
    shifts them by one) and, from Pajek, the same names."""
    src = sources[source]
    p = tmp_path / f"g.{ {'edgelist': 'csv', 'pajek': 'net', 'asd': 'asd'}[fmt]}"
    p.write_bytes(_upload_text(fmt, variant, src.vertex_frame, src.edge_frame).encode())
    g = read_graph(spark, str(p))
    shift = 1 if fmt == "pajek" else 0
    pd.testing.assert_frame_equal(g.edge_frame, src.edge_frame + shift)
    want = src.vertex_frame.assign(id=src.vertex_frame["id"] + shift)
    if fmt != "pajek":
        want["name"] = [f"node_{v}" for v in want["id"]]
    pd.testing.assert_frame_equal(g.vertex_frame, want)


# -- where a C-level parse and a line-by-line one could disagree --------


@pytest.mark.parametrize(
    "text, edges",
    [
        ("+1,2\n2,-1\n", [(1, 2), (2, -1)]),
        (" 1 , 2 \n2,1\n", [(1, 2), (2, 1)]),
        ("١,٢\n", [(1, 2)]),
        ("0,1,0.5\n1,0\n", [(0, 1), (1, 0)]),
        ('"0","1"\n1,0\n', [(0, 1), (1, 0)]),
        ("a,b,c\n0,1,x\n", [(0, 1)]),
    ],
    ids=["signs", "spaces", "non-ascii-digits", "short-weight-row", "quoted", "header-3-fields"],
)
def test_edgelist_accepts(spark, tmp_path, text, edges):
    p = tmp_path / "ok.csv"
    p.write_text(text, encoding="utf-8")
    g = read_edgelist(spark, str(p))
    assert list(zip(g.edge_frame["src"], g.edge_frame["dst"])) == edges


@pytest.mark.parametrize(
    "text, match",
    [
        ("src,1\n0,1\n", "row 'src,1' is not two integers"),
        ("0,1\n1.0,2\n", "row '1.0,2' is not two integers"),
        ("0,1\n1e3,2\n", "row '1e3,2' is not two integers"),
        ("0,1\n2,\n", "row '2,' is not two integers"),
        ("0\t1\n1\t2\n", "is not comma-separated"),
        ("0,1\n1,2,3\n", "Expected 2 fields in line 2, saw 3"),
        ("src,dst\n0,1,0.5\n", "Expected 2 fields in line 2, saw 3"),
        ("0,1\n1,NA\n", "row '1,NA' is not two integers"),
    ],
    ids=["header-with-an-int", "float-id", "exponent-id", "empty-field", "tabs",
         "row-longer-than-first", "row-longer-than-header", "na"],
)
def test_edgelist_refuses(spark, tmp_path, text, match):
    p = tmp_path / "bad.csv"
    p.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=match):
        read_edgelist(spark, str(p))


@pytest.mark.parametrize(
    "text, edges, names",
    [
        ("*Vertices 2\n1 alpha\n2\n*Arcs\n1 2\n", [(1, 2)], ["alpha", "node_2"]),
        ('*Vertices 2\n1 ""\n2 "b"\n1 "a"\n*Arcs\n1 2\n', [(1, 2)], ["a", "b"]),
        ("*Vertices 2\n*Arcs\n١ ٢\n", [(1, 2)], ["node_1", "node_2"]),
        ("*Vertices 3\n*Arcs\n1 2\n*Edges\n2 3\n", [(1, 2), (2, 3)], None),
        ("junk line\n*Vertices 2\n*Arcs\n1 2\n", [(1, 2)], None),
        ("*Vertices 2\n*Arcs\n  % indented comment\n1 2 50%\n2 1 1e3\n",
         [(1, 2), (2, 1)], None),
        ("*vertices 2\n*arcsList\n 1\t2 \n", [(1, 2)], None),
        ("*Vertices 2\n*Arcs\n1 2 3\n2 1\n", [(1, 2), (2, 1)], None),
        ("*Vertices 3\n*Arcslist\n1 2 3\n", [(1, 2), (1, 3)], None),
        ("*Vertices 3\n*Edgeslist\n1 2 3\n% c\n3  1\n*Arcs\n2 3 1\n",
         [(1, 2), (1, 3), (3, 1), (2, 3)], None),
    ],
    ids=["unquoted-and-missing-names", "renamed-vertex", "non-ascii-digits",
         "two-arc-sections", "text-before-vertices", "comment-and-weights",
         "lowercase-headers", "ragged-weights", "arcs-list", "edges-list-then-arcs"],
)
def test_pajek_accepts(spark, tmp_path, text, edges, names):
    p = tmp_path / "ok.net"
    p.write_text(text, encoding="utf-8")
    g = read_pajek(spark, str(p))
    assert list(zip(g.edge_frame["src"], g.edge_frame["dst"])) == edges
    if names is not None:
        assert g.vertex_frame["name"].tolist() == names


@pytest.mark.parametrize(
    "text, match",
    [
        ("*Vertices 2\n*Arcs\n+1 2\n", "line 3 '\\+1 2': expected 2 integer"),
        ("*Vertices 2\n*Arcs\n1.0 2\n", "line 3 '1.0 2': expected 2 integer"),
        ("*Vertices 2000\n*Arcs\n1 1e3\n", "line 3 '1 1e3': expected 2 integer"),
        ("*Vertices 2\n*Arcs\n1 2%\n", "line 3 '1 2%': expected 2 integer"),
        ('*Vertices 2\n*Arcs\n"1" 2\n', "line 3 '\"1\" 2': expected 2 integer"),
        ('*Vertices 2\n1\t"a"\n*Arcs\n1 2\n', "line 2 '1\\\\t\"a\"': expected 1 integer"),
        ("*Vertices 2\n*Arcs\n1 2\n*Network x\n", "line 4 '.Network x': expected 2 integer"),
        ("*Vertices 2\n*Arcs\n-1 2\n", "line 3 '-1 2': expected 2 integer"),
        ("*Vertices 2\n*Vertices x\n*Arcs\n1 2\n", "line 2 '.Vertices x': .* needs a vertex count"),
        ("*Vertices 3\n*Arcslist\n1 2 0.5\n", "line 3 '1 2 0.5': expected 3 integer"),
        ("*Vertices 3\n*Arcslist\n1 2 4\n", "line 3 '1 2 4': id outside 1..3"),
        ("*Vertices 3\n*Arcslist\n1\n", "line 3 '1': expected 2 integer"),
    ],
    ids=["plus-sign", "float-id", "exponent-id", "percent-in-field", "quoted-id",
         "tab-before-name", "unknown-section", "negative-id", "second-bad-vertices",
         "arc-list-weight", "arc-list-id-out-of-range", "arc-list-without-target"],
)
def test_pajek_refuses(spark, tmp_path, text, match):
    p = tmp_path / "bad.net"
    p.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=match):
        read_pajek(spark, str(p))


#: Upload files to mutate, and what to insert or overwrite them with.
MUTANT_BASES = {
    "csv": ["src,dst,w\n0,1,0.5\n1,2,1.5\n2,0,3\n", "0,1\r\n1,2\r\n+2, 0\r\n"],
    "net": ['*Vertices 4\n1 "a"\n2 bare name\n3\n%c\n*Arcs\n1 2\n2 3 0.5\n\n3 1\n*Edges\n4 1\n'],
}
MUTATIONS = [*"+-.eE%\" \t\r\n,*09x", "١", "\xa0", "\x0b", "\x00", "﻿", "*Arcs", "1e3", "NA"]


@pytest.mark.parametrize("ext", ["csv", "net"])
def test_reader_agrees_with_its_line_reader(spark, tmp_path, ext):
    """On seeded mutants of small uploads, each reader accepts the same
    graphs and raises the same errors as its line reader alone."""
    from repro.graph.formats import _edgelist_rows, _pajek_lines

    def outcome(read):
        try:
            g = read()
        except ValueError as e:
            return type(e).__name__, str(e)
        return g.vertex_frame.to_dict("list"), g.edge_frame.to_dict("list")

    def by_line(path):
        if ext == "csv":
            return DiGraph.from_edges(spark, _edgelist_rows(path, open(path, "rb").read()))
        return DiGraph.from_edges(spark, *_pajek_lines(path, open(path, encoding="utf-8").read()))

    rng = random.Random(18)
    path = str(tmp_path / f"m.{ext}")
    for _ in range(300):
        text = rng.choice(MUTANT_BASES[ext])
        for _ in range(rng.randint(1, 2)):
            at, new = rng.randrange(len(text) + 1), rng.choice(MUTATIONS)
            text = text[:at] + new + text[at + rng.randint(0, 1):]
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        assert outcome(lambda: read_graph(spark, path)) == outcome(lambda: by_line(path)), text
