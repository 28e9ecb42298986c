"""Tests for the three demo upload formats (edgelist CSV, Pajek, ASD)."""
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
