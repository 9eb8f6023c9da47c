"""Text format and command-line driver."""

import json
import pathlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from ultrashift import corpus, dsl
from ultrashift.cli import main
from ultrashift.corpus import (
    d,
    f,
    graph_a_source,
    graph_d_source,
    graph_d_target,
    registry,
)
from ultrashift.definable import LitAtom, PcSchema, VarAtom
from ultrashift.intsets import AffineIndexMap, IndexSet
from ultrashift.points import FinitePoint, PeriodicPoint

GRAPH_D = """
ultragraph G {
  vertices v over N
  edges e over N {
    source v[k]
    range all(v) when k == 0
    range v[0], v[k] when k >= 1
  }
}
"""

GRAPH_H = """
ultragraph H {
  vertices w over Z*
  edges f over Z* {
    source w[k]
    range w[k+1] when k <= -2
    range w[>=1] when k == -1
    range w[k], w[<=-1] when k >= 1
  }
}
"""

GRAPH_A_WITH_MAP = """
ultragraph G {
  vertices w over [0..0]
  edges d over [0..0] { source w[0] range w[0] }
  edges f over >=1 { source w[0] range w[0] }
}

ultragraph H {
  vertices v over [0..0]
  edges e over >=1 { source v[0] range v[0] }
}

map Phi : G -> H {
  class e[j] for j in >=1 {
    pc 1..1 : f[j]
    pc 1..* : rep(d) f[j]
  }
  class tail(auto) { oracle a.C_B }
}

point target of G = inf: (d)*
point w2 of G = fin: d d | auto
"""


def test_parse_graph_d_matches_fixture():
    doc = dsl.parse(GRAPH_D)
    g = doc.graphs["G"]
    ref = graph_d_source()
    assert g.vertex_families == ref.vertex_families
    assert tuple(g.edge_families.values()) == tuple(ref.edge_families.values())


def test_parse_graph_h_matches_fixture():
    doc = dsl.parse(GRAPH_H)
    g = doc.graphs["H"]
    ref = graph_d_target()
    assert tuple(g.edge_families.values()) == tuple(ref.edge_families.values())


def test_parse_map_and_points():
    doc = dsl.parse(GRAPH_A_WITH_MAP, registry())
    phi = doc.maps["Phi"]
    assert phi.symbol_at(PeriodicPoint((d(), d()), (f(3),))).index == 3
    gname, target = doc.points["target"]
    assert gname == "G" and target == PeriodicPoint((), (d(),))
    _, w2 = doc.points["w2"]
    assert isinstance(w2, FinitePoint) and len(w2.path) == 2


def test_non_affine_index_is_rejected():
    bad = GRAPH_D.replace("v[k]", "v[q]", 1)
    with pytest.raises(dsl.ParseError) as err:
        dsl.parse(bad)
    assert "k" in str(err.value)


def test_guards_must_partition():
    bad = GRAPH_D.replace("when k >= 1", "when k >= 2")
    with pytest.raises(dsl.ParseError) as err:
        dsl.parse(bad)
    assert "partition" in str(err.value) or "cover" in str(err.value)


def test_empty_document_parses():
    doc = dsl.parse("")
    assert doc.graphs == {} and doc.maps == {} and doc.points == {}


def test_errors_carry_position_and_hint():
    with pytest.raises(dsl.ParseError) as err:
        dsl.parse("ultragraph G { vertices v over Q }")
    assert err.value.line == 1 and err.value.col > 1
    assert err.value.hint


DOCS = sorted((pathlib.Path(__file__).resolve().parents[1] / "bench" /
               "docs").glob("*.ug"))
# pieces of the syntax, so that edits reach past the lexer
EDIT_PIECES = ["{", "}", "(", ")", "[", "]", ",", ":", ";", "..", "*", "|",
               "==", ">=", "<=", "-", "+", "0", "-1", "9" * 25, "k", "j",
               "k+1", "2*k", "N", "Z*", "all(", "when", "over", "source",
               "range", "edges", "vertices", "ultragraph", "map", "class",
               "pc", "rep(", "oracle", "point", "fin:", "inf:", "auto",
               "tail(", "for", "in", "of", "->", "\n", "#"]
edits = st.lists(st.tuples(
    st.sampled_from(["delete", "insert", "replace"]),
    st.integers(0, 1 << 16), st.integers(1, 12),
    st.one_of(st.sampled_from(EDIT_PIECES), st.text(max_size=3))),
    min_size=1, max_size=4)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(DOCS), edits)
def test_parse_raises_only_parse_errors(doc, changes):
    assert DOCS
    text = doc.read_text(encoding="utf-8")
    for op, at, span, piece in changes:
        i = at % (len(text) + 1)
        j = min(len(text), i + span) if op != "insert" else i
        text = text[:i] + ("" if op == "delete" else piece) + text[j:]
    try:
        dsl.parse(text, registry())
    except dsl.ParseError:
        pass


@pytest.mark.parametrize("text", [
    "\u00b2", "ultragraph G { vertices v over \u00b2 }",
    "point x of G = fin: d[1\u00b2] | auto"])
def test_digit_that_is_not_decimal_is_a_parse_error(text):
    # str.isdigit accepts superscripts, which int() rejects
    with pytest.raises(dsl.ParseError, match="unexpected character"):
        dsl.parse(text, registry())


def test_domain_forms():
    text = """
    ultragraph G {
      vertices a over N
      vertices b over Z
      vertices c over Z*
      vertices dd over [2..5]
      vertices ee over >=1
      vertices ff over <=-3
      edges g over N { source a[k] range all(a) }
    }
    """
    doc = dsl.parse(text)
    g = doc.graphs["G"]
    assert g.vertex_families["a"] == IndexSet.at_least(0)
    assert g.vertex_families["b"] == IndexSet.all()
    assert g.vertex_families["c"] == IndexSet.nonzero()
    assert g.vertex_families["dd"] == IndexSet.between(2, 5)
    assert g.vertex_families["ee"] == IndexSet.at_least(1)
    assert g.vertex_families["ff"] == IndexSet.at_most(-3)


def _random_graph_text(rng: random.Random) -> str:
    # a guard clipped to the domain may hold several spans: a point cut out
    # of the domain, or a half line across Z*'s hole
    dom, inner = rng.choice([("N", [1, 2, 3]), ("Z*", [-3, -1, 1, 2]),
                             ("[0..4]", [1, 2, 3]), (">=1", [2, 3])])
    vdom = rng.choice(["N", "Z", "[0..6]"])
    op = rng.choice([None, "<=", ">=", "=="])
    lines = [
        "ultragraph R {",
        f"  vertices v over {vdom}",
        f"  edges p over {dom} {{",
        "    source v[0]" if vdom != "Z" else "    source v[k]",
    ]
    if op is not None:
        lines.append(f"    range v[0] when k {op} {rng.choice(inner)}")
    lines.append("    range v[0], v[1]")
    lines.append("  }")
    lines.append("}")
    return "\n".join(lines)


def test_interval_and_list_index_domains():
    doc = dsl.parse(GRAPH_A_WITH_MAP + """
map Forms : G -> H {
  class e[j] for j in 2..5 { pc 1..1 : f[j] }
  class e[1] { pc 1..1 : f[k] ; k in 1,6 }
}
""", registry())
    interval, listed = doc.maps["Forms"].classes
    assert interval.index_domain == IndexSet.between(2, 5)
    assert listed.body[0].param_domain == IndexSet.of(1, 6)


@pytest.mark.parametrize("clause", [
    "class e[1] { pc 1..1 : f[k] ; k in 5..2 }",
    "class e[1] { pc 1..1 : f[k] ; k in 1, 5..2 }",
    "class e[j] for j in 5..2 { pc 1..1 : f[j] }",
])
def test_reversed_spans_are_empty_intervals(clause, tmp_path, capsys):
    text = GRAPH_A_WITH_MAP + f"map Bad : G -> H {{\n  {clause}\n}}\n"
    with pytest.raises(dsl.ParseError) as err:
        dsl.parse(text, registry())
    assert "empty interval 5..2" in str(err.value)
    assert err.value.hint == "swap the endpoints"
    line = text.splitlines()[err.value.line - 1]
    assert line[err.value.col - 1:].startswith("5..2")
    doc = tmp_path / "bad.ug"
    doc.write_text(text)
    assert main(["validate", str(doc)]) == 3
    assert "Traceback" not in capsys.readouterr().err


def test_an_image_edge_outside_its_family_domain_fails_the_eval(tmp_path,
                                                                 capsys):
    # PhiInfinite edited to send f[1] to e[0], while H's family e starts at 1
    text = (DOCS[0].parent / "example_c.ug").read_text()
    head, phi = text.split("map PhiInfinite", 1)
    edited = phi.replace("class e[j] for j in >=2 { pc 1..1 : f[j-1] }",
                         "class e[j] for j in >=0 { pc 1..1 : f[j+1] }", 1)
    assert edited != phi
    doc = tmp_path / "example_c.ug"
    doc.write_text(head + "map PhiInfinite" + edited)
    assert main(["eval", str(doc), "--map", "PhiInfinite", "--point",
                 "inf: (f[1])*", "--format", "json"]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    [record] = json.loads(captured.out)["records"]
    assert record["status"] == "fails"
    assert record["detail"] == ("image ((e[0])* ...) is not a point of the "
                                "target shift: edge e[0] does not exist")


def test_printed_schemas_parse_back():
    # one schema for each of the DSL's domain forms: >=a, <=a, a..b, a,b,c,
    # all of Z, and unions with unbounded spans
    schemas = [
        PcSchema(1, (LitAtom(d()), VarAtom("f", AffineIndexMap(1, 1))),
                 IndexSet.at_least(3)),
        PcSchema(1, (VarAtom("f", AffineIndexMap(-1, 0)),),
                 IndexSet.at_most(-2)),
        PcSchema(1, (VarAtom("f"),), IndexSet.between(2, 5)),
        PcSchema(2, (VarAtom("f"), LitAtom(d())), IndexSet.of(1, 6, 7)),
        PcSchema(1, (VarAtom("f"),), IndexSet.nonzero()),
        PcSchema(1, (VarAtom("f"),), IndexSet.all()),
        PcSchema(1, (VarAtom("f"),),
                 IndexSet.between(1, 2).union(IndexSet.at_least(4))),
    ]
    classes = "".join(f"  class e[{i}] {{ {s} }}\n"
                      for i, s in enumerate(schemas, 1))
    doc = dsl.parse(GRAPH_A_WITH_MAP + f"""
map Printed : G -> H {{
{classes}}}
""", registry())
    assert [c.body for c in doc.maps["Printed"].classes] == \
        [(s,) for s in schemas]


def test_gen_point_literals_are_rejected(doc_file, capsys):
    g = dsl.parse(GRAPH_A_WITH_MAP, registry()).graphs["G"]
    with pytest.raises(dsl.ParseError) as err:
        dsl.parse_point_literal(g, "gen: a.gen_all_d")
    assert (err.value.line, err.value.col) == (1, 1)
    assert "point literals start with fin: or inf:" in str(err.value)
    assert main(["eval", doc_file, "--map", "Phi", "--point",
                 "gen: a.gen_all_d"]) == 3
    captured = capsys.readouterr()
    assert "parse error: 1:1:" in captured.err
    assert "Traceback" not in captured.err


def test_finite_and_periodic_points_print_and_parse_back():
    doc = dsl.parse(GRAPH_A_WITH_MAP + """
point zero of G = fin: | auto
point mixed of G = inf: d f[3] (f[1] d)*
""", registry())
    printed = dsl.print_document(doc)
    assert "= fin: d[0] d[0] | " in printed and "= inf: (d[0])*" in printed
    assert dsl.parse(printed).points == doc.points


@pytest.mark.parametrize("edges, guard", [
    ("e over N { source v[0]  range v[0] when k == 3  range v[0], v[k] }",
     "k in 0..2,>=4"),
    ("f over Z* { source v[0]  range v[0] when k >= -3  range v[0], v[1] }",
     "k in -3..-1,>=1"),
])
def test_a_guard_of_several_spans_prints_as_a_span_list(edges, guard):
    doc = dsl.parse(
        f"ultragraph G {{\n  vertices v over N\n  edges {edges}\n}}")
    printed = dsl.print_document(doc)
    assert f"when {guard}\n" in printed
    assert dsl.parse(printed).graphs["G"].edge_families == \
        doc.graphs["G"].edge_families


def test_parse_print_parse_is_stable_on_generated_documents():
    rng = random.Random(0)
    spans = set()
    for i in range(50):
        text = _random_graph_text(rng)
        doc = dsl.parse(text)
        printed = dsl.print_document(doc)
        spans.add(" k in " in printed)
        doc2 = dsl.parse(printed)
        for name, g in doc.graphs.items():
            g2 = doc2.graphs[name]
            assert g2.vertex_families == g.vertex_families, text
            assert tuple(g2.edge_families.values()) == \
                tuple(g.edge_families.values()), text
        assert dsl.print_document(doc2) == printed
    assert spans == {True, False}


# a domain of several spans, which `over` reads as a span list
GRAPH_SPANS = """
ultragraph S {
  vertices v over 0..2,>=4
  edges e over 0..2,>=4 {
    source v[k]
    range v[0] when k == 0
    range v[0], v[k] when k in 1..2,>=4
  }
}
"""


def test_fixture_documents_round_trip():
    spans = dsl.parse(GRAPH_SPANS).graphs["S"]
    assert spans.vertex_families["v"] == IndexSet([(0, 2), (4, None)])
    for g in (graph_a_source(), graph_d_source(), graph_d_target(), spans):
        printed = dsl.print_graph(g)
        doc = dsl.parse(printed)
        g2 = doc.graphs[g.name]
        assert g2.vertex_families == g.vertex_families
        assert tuple(g2.edge_families.values()) == \
            tuple(g.edge_families.values())


# -- CLI --------------------------------------------------------------------------


@pytest.fixture()
def doc_file(tmp_path):
    p = tmp_path / "doc.ug"
    p.write_text(GRAPH_A_WITH_MAP)
    return str(p)


@pytest.fixture()
def h_file(tmp_path):
    p = tmp_path / "h.ug"
    p.write_text(GRAPH_H)
    return str(p)


def test_cli_validate(doc_file, capsys):
    assert main(["validate", doc_file]) == 0
    out = capsys.readouterr().out
    assert "validate(G)" in out and "validate(H)" in out


def test_cli_validate_detects_sinks(tmp_path, capsys):
    p = tmp_path / "sink.ug"
    p.write_text("""
    ultragraph S {
      vertices u over N
      edges g over N { source u[0] range u[0] }
    }
    """)
    assert main(["validate", str(p)]) == 1
    assert "sinks" in capsys.readouterr().out


def test_cli_emitters_lists_both_rays(h_file, capsys):
    assert main(["emitters", h_file, "--graph", "H", "--minimal"]) == 0
    out = capsys.readouterr().out
    assert "{w[<=-1]}" in out and "{w[>=1]}" in out


def test_cli_blocks(doc_file, capsys):
    assert main(["blocks", doc_file, "--graph", "G", "-n", "1",
                 "--index-bound", "2"]) == 0
    out = capsys.readouterr().out
    assert "d[0]" in out and "f[1]" in out and "f[2]" in out


@pytest.mark.parametrize("doc, phi, point, depth, detail", [
    ("example_a.ug", "Phi", "inf: d d (f[3])*", "6",
     "prefix: e[3] e[3] e[3] | resolved: ((e[3])* ...)"),
    ("example_a.ug", "Phi", "inf: d d (f[3])*", "2",
     "prefix: e[3] e[3] | resolved: ((e[3])* ...)"),
    ("example_c.ug", "PhiFinite", "fin: d f[2] | w[0]", "12",
     "prefix: e[1] e[3] tail{v[0]} | resolved: (e[1] e[3] tail{v[0]} ...)"),
])
def test_cli_eval_and_exit_codes(doc, phi, point, depth, detail, capsys):
    # the prefix runs to the depth or to where the orbit of the point
    # closes, whichever comes first
    path = str(DOCS[0].parent / doc)
    assert main(["eval", path, "--map", phi, "--point", point,
                 "--depth", depth, "--format", "json"]) == 0
    [record] = json.loads(capsys.readouterr().out)["records"]
    assert record["detail"] == detail


@pytest.mark.parametrize("point, message", [
    ("all_e0", "error: 'all_e0' is a point of G, not of H"),
    ("inf: f[1] f[2] (f[3])*",
     "parse error: 1:1: not a point of H: f[1] does not connect to f[2]"),
])
def test_a_point_the_map_cannot_read_is_a_usage_error(point, message,
                                                      capsys):
    # PhiInv reads H; neither point is a point of H
    path = str(DOCS[0].parent / "example_d.ug")
    assert main(["eval", path, "--map", "PhiInv", "--point", point]) == 3
    out = capsys.readouterr()
    assert out.err.startswith(message) and not out.out


def test_a_document_point_off_the_graph_is_a_positioned_parse_error():
    text = GRAPH_H + "point bad of H = inf: f[1] (f[2])*\n"
    with pytest.raises(dsl.ParseError) as err:
        dsl.parse(text)
    assert (err.value.line, err.value.col) == (len(text.splitlines()), 18)
    assert "not a point of H: f[1] does not connect to f[2]" in \
        str(err.value)
    # a periodic point is checked by its pairs alone, with no closure work
    doc = dsl.parse(GRAPH_H + "point good of H = inf: f[-2] f[-1] (f[1])*\n")
    assert set(doc.graphs["H"]._memos) == {"source", "range_of", "adjacent"}


def test_cli_check_csc_json(doc_file, capsys):
    assert main(["check", "csc", doc_file, "--map", "Phi",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == 1
    checks = {r["check"] for r in payload["records"]}
    assert "csc-item-i" in checks
    assert all("bounds" in r for r in payload["records"])


def test_cli_check_failure_exit_code(tmp_path, capsys):
    p = tmp_path / "bad.ug"
    p.write_text(GRAPH_A_WITH_MAP + """
map Bad : G -> H {
  class e[1] { pc 2..2 : d }
  class e[j] for j in >=2 { pc 1..1 : f[j-1] }
  class tail(auto) { oracle a.C_B }
}
""")
    assert main(["check", "csc", str(p), "--map", "Bad"]) == 1
    assert "fails" in capsys.readouterr().out


def test_cli_refute_fd_with_audit(doc_file, capsys):
    code = main(["refute-fd", doc_file, "--oracle", "a.C_B", "--point",
                 "target", "--graph", "G", "--max-window", "4", "--audit"])
    assert code == 0
    out = capsys.readouterr().out
    assert "window witnesses" in out and "audit" in out


def test_cli_converge(doc_file, capsys):
    assert main(["converge", doc_file, "--seq", "a.dn_f1", "--target",
                 "target", "--graph", "G"]) == 0


def test_cli_fixture_run(capsys):
    assert main(["fixture", "run", "a"]) == 0
    out = capsys.readouterr().out
    assert "fixture-a:probe-continuity@all_d" in out


def test_cli_parse_error_exit_code(tmp_path, capsys):
    p = tmp_path / "broken.ug"
    p.write_text("ultragraph { oops }")
    assert main(["validate", str(p)]) == 3
    assert "parse error" in capsys.readouterr().err


MAP_H_TO_G = GRAPH_D + GRAPH_H + """
map PhiInv : H -> G {
  class e[j] for j in >=1 { pc 1..1 : f[j] }
  class e[0] {
    pc 1..1 : f[j] ; j in <=-1
    pc 1..1 : tail(w[<=-1])
  }
  class tail(auto) { pc 1..1 : tail(w[>=1]) }
}
"""


def test_invalid_class_is_a_positioned_parse_error(tmp_path, capsys):
    # a family class whose schema does not use the class index
    bad = MAP_H_TO_G.replace("{ pc 1..1 : f[j] }", "{ pc 1..1 : f[1] }")
    assert bad != MAP_H_TO_G
    dsl.parse(MAP_H_TO_G)
    with pytest.raises(dsl.ParseError) as err:
        dsl.parse(bad)
    line = bad.splitlines().index(
        "  class e[j] for j in >=1 { pc 1..1 : f[1] }") + 1
    assert (err.value.line, err.value.col) == (line, 9)
    assert "free parameter" in str(err.value)
    p = tmp_path / "bad_class.ug"
    p.write_text(bad)
    assert main(["check", "commute", str(p), "--map", "PhiInv"]) == 3
    assert "parse error" in capsys.readouterr().err


def test_cli_usage_error_exit_code():
    assert main(["no-such-command"]) == 3


@pytest.mark.parametrize("argv, message", [
    (["blocks", "DOC", "--graph", "G", "-n", "0"], "0 is below 1"),
    (["blocks", "DOC", "--graph", "G", "-n", "1", "--index-bound", "-1"],
     "-1 is below 0"),
    (["refute-fd", "DOC", "--oracle", "a.C_B", "--point", "target",
      "--graph", "G", "--max-window", "0"], "0 is below 1"),
    (["eval", "DOC", "--map", "Phi", "--point", "target", "--depth", "-3"],
     "-3 is below 1"),
    (["eval", "DOC", "--map", "Phi", "--point", "target", "--depth", "x"],
     "'x' is not an integer"),
])
def test_cli_bounds_are_checked_when_parsed(doc_file, capsys, argv, message):
    argv = [doc_file if a == "DOC" else a for a in argv]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err
    assert "Traceback" not in captured.err


def test_cli_stdin(monkeypatch, capsys):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(GRAPH_H))
    assert main(["validate", "-"]) == 0


def test_cli_parallel_check(doc_file):
    assert main(["check", "genchl", doc_file, "--map", "Phi"]) == 0


# example c's map that sends the zero-length point to an edge symbol
PHI_INFINITE = """
map PhiInfinite : G -> H {
  class e[1] {
    pc 1..1 : d
    pc 1..1 : tail(auto)
  }
  class e[j] for j in >=2 { pc 1..1 : f[j-1] }
}
"""


def _echoed_tries(doc_file, kind, name, capsys):
    main(["check", kind, doc_file, "--map", name, "--format", "json"])
    records = json.loads(capsys.readouterr().out)["records"]
    return {r["check"]: r["bounds"]["tries"] for r in records
            if "tries" in r["bounds"]}


def test_env_bounds_override(doc_file, capsys):
    # no environment overrides a bound: each checker runs at its own, and
    # item iii's tries is 16 where the other items take 24
    with open(doc_file, "a", encoding="utf-8") as fh:
        fh.write(PHI_INFINITE)
    assert _echoed_tries(doc_file, "csc", "Phi", capsys) == \
        {"csc-item-ii": "24", "csc-item-iii": "16"}
    assert _echoed_tries(doc_file, "genchl", "Phi", capsys) == \
        {"genchl-iia": "24", "genchl-iib": "24", "csc-item-iii": "16"}
    assert _echoed_tries(doc_file, "csc", "PhiInfinite", capsys) == \
        {"csc-item-iii": "16"}
    assert _echoed_tries(doc_file, "length-preserving", "Phi", capsys) == \
        {"length-preserving": "24"}


@pytest.mark.parametrize("argv", [
    ["eval", "DOC", "--map", "Phi", "--point", "inf: d d (f[3])*"],
    ["refute-fd", "DOC", "--oracle", "a.C_B", "--point",
     "fin: d d | auto", "--graph", "G", "--max-window", "2"],
    ["converge", "DOC", "--seq", "a.dn_f1", "--target", "target",
     "--graph", "G"],
])
def test_one_registry_per_command(doc_file, monkeypatch, capsys, argv):
    built = []

    def counting_registry():
        built.append(1)
        return registry()

    monkeypatch.setattr(corpus, "registry", counting_registry)
    assert main([doc_file if a == "DOC" else a for a in argv]) in (0, 2)
    assert len(built) == 1


MAP_WITHOUT_TAIL_CLASS = GRAPH_A_WITH_MAP + """
map NoTail : G -> H {
  class e[j] for j in >=1 {
    pc 1..1 : f[j]
    pc 1..* : rep(d) f[j]
  }
}
"""


@pytest.mark.parametrize("kind", ["csc", "genchl", "commute",
                                  "length-preserving"])
def test_checker_error_is_an_error_record(tmp_path, capsys, kind):
    # no class takes the zero-length point, so evaluating the map there
    # raises a PartitionError inside the checkers
    p = tmp_path / "no_tail.ug"
    p.write_text(MAP_WITHOUT_TAIL_CLASS)
    assert main(["check", kind, str(p), "--map", "NoTail",
                 "--format", "json"]) == 1
    records = json.loads(capsys.readouterr().out)["records"]
    assert records[-1]["check"] == f"check {kind}"
    assert records[-1]["status"] == "error"
    assert records[-1]["detail"].startswith("PartitionError: no class")
    # the verdicts reached before the error are kept
    if kind in ("csc", "genchl"):
        assert records[0]["check"] == "csc-item-i"


@pytest.mark.parametrize("argv, checker", [
    (["converge", "DOC", "--seq", "a.dn_f1", "--target", "target",
      "--graph", "G"], "check_convergence"),
    (["refute-fd", "DOC", "--oracle", "a.C_B", "--point", "target",
      "--graph", "G"], "refute_finitely_defined"),
])
def test_converge_and_refute_errors_are_error_records(
        doc_file, capsys, monkeypatch, argv, checker):
    from ultrashift import cli
    from ultrashift.codes import MapError

    def raising(*args, **kwargs):
        raise MapError("image left the target shift")

    monkeypatch.setattr(cli, checker, raising)
    argv = [doc_file if a == "DOC" else a for a in argv]
    assert main(argv) == 1
    out = capsys.readouterr().out
    assert "error" in out and "MapError: image left the target shift" in out


def test_eval_error_is_an_error_record(doc_file, capsys, monkeypatch):
    from ultrashift import cli
    from ultrashift.codes import MapError
    from ultrashift.points import PointError

    argv = ["eval", doc_file, "--map", "Phi", "--point", "inf: (d)*",
            "--depth", "20", "--format", "json"]

    def raising(error):
        def eval_map(*args):
            raise error("image left the target shift")
        return eval_map

    # a package error other than MapError is an error record
    monkeypatch.setattr(cli, "eval_map", raising(PointError))
    assert main(argv) == 1
    [record] = json.loads(capsys.readouterr().out)["records"]
    assert (record["status"], record["detail"]) == \
        ("error", "PointError: image left the target shift")
    # a map error is still a failure of the evaluation, with the point
    monkeypatch.setattr(cli, "eval_map", raising(MapError))
    assert main(argv) == 1
    [record] = json.loads(capsys.readouterr().out)["records"]
    assert (record["status"], record["detail"], record["witness"]) == \
        ("fails", "image left the target shift", "((d[0])* ...)")


# a class of e[1] that overlaps the family class, every edge to e[1] (so
# infinitely many extension edges reach e[1]), and a tail class that also
# takes points starting with d
AUDITED_MAPS = GRAPH_A_WITH_MAP + """
map Overlap : G -> H {
  class e[1] {
    pc 1..1 : d
    pc 1..1 : f[1]
  }
  class e[j] for j in >=1 { pc 1..1 : f[j] }
  class tail(auto) { pc 1..1 : tail(auto) }
}

map Everything : G -> H {
  class e[1] {
    pc 1..1 : d
    pc 1..1 : f[k] ; k in >=1
  }
  class tail(auto) { pc 1..1 : tail(auto) }
}

map Shrink : G -> H {
  class e[j] for j in >=1 { pc 1..1 : f[j] }
  class tail(auto) {
    pc 1..1 : tail(auto)
    pc 1..1 : d
  }
}
"""


@pytest.mark.parametrize("kind, name, check", [
    ("commute", "Overlap", "partition"),
    ("length-preserving", "Shrink", "length-preserving"),
    ("genchl", "Everything", "genchl-iib"),
])
def test_check_audit_reproduces_the_witness(tmp_path, capsys, kind, name,
                                            check):
    p = tmp_path / "audited.ug"
    p.write_text(AUDITED_MAPS)
    assert main(["check", kind, str(p), "--map", name, "--audit",
                 "--format", "json"]) == 1
    records = json.loads(capsys.readouterr().out)["records"]
    status = {r["check"]: r["status"] for r in records}
    assert status[check] == "fails"
    assert status[f"audit({check})"] == "holds"


def test_audit_reports_package_errors_and_lets_other_faults_surface():
    from ultrashift.cli import _audit
    from ultrashift.codes import MapError
    from ultrashift.verdicts import Verdict

    class Raising:
        def __init__(self, err):
            self.err = err

        def symbol_at(self, x):
            raise self.err

    v = Verdict("length-preserving", "fails", "", FinitePoint((), None))
    got = _audit(Raising(MapError("no image")), v)
    assert (got.status, got.detail) == ("unknown", "audit error: no image")
    with pytest.raises(TypeError):
        _audit(Raising(TypeError("a fault of the program")), v)
