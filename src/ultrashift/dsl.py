"""Text format for ultragraphs, maps, and points.

A document is a sequence of ``ultragraph``, ``map`` and ``point``
definitions.  Index domains are N (indices >= 0), Z, Z* (nonzero), a
finite interval ``[a..b]``, or a span list (``0..2,>=4``).  Sources and
ranges are piecewise in the edge index ``k``; guards are conjunctions of
comparisons on ``k`` and span lists (``k in 0..2,>=4``).  Map classes
hold schema bodies (``pc`` lines) or named oracles resolved from a
registry; class symbols may be indexed families.  Point literals must be
points of their graph.  Parse errors carry line and column plus a
recovery hint.

Example::

    ultragraph G {
      vertices v over N
      edges e over N {
        source v[k]
        range all(v) when k == 0
        range v[0], v[k] when k >= 1
      }
    }
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .definable import (
    LitAtom,
    PcSchema,
    RepAtom,
    SchemaError,
    SetOracle,
    VarAtom,
)
from .codes import MapError, MapPresentation, OracleClass, SchemaClass
from .graphs import (
    EdgeFamily,
    EdgeRef,
    GraphError,
    MinimalEmitter,
    RangeCase,
    SourceCase,
    Ultragraph,
)
from .intsets import AffineIndexMap, IndexSet, SymbolicSet
from .points import FinitePoint, PeriodicPoint, hard_problems


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int, hint: str = ""):
        self.line, self.col, self.hint = line, col, hint
        text = f"{line}:{col}: {message}"
        if hint:
            text += f" ({hint})"
        super().__init__(text)


_PUNCT = ("->", "..", "==", ">=", "<=", "{", "}", "[", "]", "(", ")", ":",
          ";", ",", "|", "*", "=", "+", "-")


@dataclass
class Token:
    kind: str  # "name" | "int" | punctuation
    value: object
    line: int
    col: int


def _lex(text: str) -> list[Token]:
    out = []
    line, col, i = 1, 1, 0
    while i < len(text):
        c = text[i]
        if c == "\n":
            line, col, i = line + 1, 1, i + 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < len(text) and text[i] != "\n":
                i += 1
            continue
        for p in _PUNCT:
            if text.startswith(p, i):
                out.append(Token(p, p, line, col))
                i += len(p)
                col += len(p)
                break
        else:
            if c.isdecimal():
                j = i
                while j < len(text) and text[j].isdecimal():
                    j += 1
                out.append(Token("int", int(text[i:j]), line, col))
                col += j - i
                i = j
            elif c.isalpha() or c == "_":
                j = i
                while j < len(text) and (text[j].isalnum() or text[j] == "_"
                                         or (text[j] == "." and j + 1 < len(text)
                                             and (text[j + 1].isalnum()
                                                  or text[j + 1] == "_"))):
                    j += 1
                out.append(Token("name", text[i:j], line, col))
                col += j - i
                i = j
            else:
                raise ParseError(f"unexpected character {c!r}", line, col,
                                 "remove it or check the grammar")
    out.append(Token("eof", None, line, col))
    return out


@dataclass
class Document:
    graphs: dict = field(default_factory=dict)
    maps: dict = field(default_factory=dict)
    points: dict = field(default_factory=dict)  # name -> (graph name, Point)


class _Parser:
    def __init__(self, tokens: list[Token], registry: dict | None):
        self.toks = tokens
        self.pos = 0
        self.registry = registry or {}
        self.doc = Document()

    # -- token plumbing -----------------------------------------------------

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind: str, hint: str = "") -> Token:
        t = self.peek()
        if t.kind != kind:
            raise ParseError(f"expected {kind!r}, found {t.value!r}",
                             t.line, t.col, hint)
        return self.next()

    def at_name(self, word: str) -> bool:
        t = self.peek()
        return t.kind == "name" and t.value == word

    def eat_name(self, word: str, hint: str = "") -> Token:
        t = self.peek()
        if not self.at_name(word):
            raise ParseError(f"expected {word!r}, found {t.value!r}",
                             t.line, t.col, hint)
        return self.next()

    def fail(self, message: str, hint: str = ""):
        t = self.peek()
        raise ParseError(message, t.line, t.col, hint)

    # -- toplevel -------------------------------------------------------------

    def document(self) -> Document:
        while self.peek().kind != "eof":
            if self.at_name("ultragraph"):
                self.graph()
            elif self.at_name("map"):
                self.map()
            elif self.at_name("point"):
                self.point()
            else:
                self.fail("expected 'ultragraph', 'map' or 'point'",
                          "documents are sequences of these definitions")
        return self.doc

    # -- graphs ----------------------------------------------------------------

    def _fresh(self, name: str, tok: Token):
        if name in self.doc.graphs or name in self.doc.maps or \
                name in self.doc.points:
            raise ParseError(f"{name!r} is already defined", tok.line,
                             tok.col, "pick a fresh name")

    def graph(self):
        self.eat_name("ultragraph")
        tok = self.expect("name")
        name = tok.value
        self._fresh(name, tok)
        self.expect("{")
        vfams: dict = {}
        efams: list = []
        while not self.peek().kind == "}":
            if self.at_name("vertices"):
                self.next()
                vname = self.expect("name").value
                self.eat_name("over")
                vfams[vname] = self.iset()
            elif self.at_name("edges"):
                efams.append(self.edge_family(vfams))
            else:
                self.fail("expected 'vertices' or 'edges'")
        self.expect("}")
        try:
            g = Ultragraph(name, vfams, efams)
        except GraphError as err:
            self.fail(f"invalid ultragraph {name}: {err}",
                      "guards must partition each index domain")
        self.doc.graphs[name] = g

    def int_value(self) -> int:
        neg = False
        if self.peek().kind == "-":
            self.next()
            neg = True
        v = self.expect("int", "an integer").value
        return -v if neg else v

    def affine(self, var: str = "k") -> AffineIndexMap:
        """Parse ``k``, ``-k``, ``k+3``, ``-k-2`` or a constant."""
        t = self.peek()
        neg = False
        if t.kind == "-":
            self.next()
            t = self.peek()
            neg = True
        if t.kind == "int":
            self.next()
            return AffineIndexMap(0, -t.value if neg else t.value)
        if t.kind == "name" and t.value == var:
            self.next()
            scale = -1 if neg else 1
            if self.peek().kind in ("+", "-"):
                sign = 1 if self.next().kind == "+" else -1
                off = self.expect("int").value * sign
                return AffineIndexMap(scale, off)
            return AffineIndexMap(scale, 0)
        self.fail(f"expected an index expression in {var!r}",
                  f"like {var}, -{var}, {var}+1 or a constant; "
                  "only unit scales are affine here")

    def guard(self) -> IndexSet:
        acc = IndexSet.all()
        while True:
            self.eat_name("k", "guards compare the index variable k")
            op = self.peek()
            if self.at_name("in"):
                self.next()
                acc = acc.intersect(self.iset())
            elif op.kind == "==":
                self.next()
                acc = acc.intersect(IndexSet.of(self.int_value()))
            elif op.kind == ">=":
                self.next()
                acc = acc.intersect(IndexSet.at_least(self.int_value()))
            elif op.kind == "<=":
                self.next()
                acc = acc.intersect(IndexSet.at_most(self.int_value()))
            else:
                self.fail("expected ==, >=, <= or 'in' in a guard")
            if self.at_name("and"):
                self.next()
                continue
            return acc

    def vset(self, vfams: dict):
        """A vertex set: constant entries plus parametric atoms."""
        const_parts = []
        atoms = []
        while True:
            t = self.expect("name", "a vertex family or all(...)")
            if t.value == "all":
                self.expect("(")
                fam = self.expect("name").value
                self.expect(")")
                if fam not in vfams:
                    self.fail(f"unknown vertex family {fam!r}")
                const_parts.append((fam, vfams[fam]))
            else:
                fam = t.value
                if fam not in vfams:
                    raise ParseError(f"unknown vertex family {fam!r}",
                                     t.line, t.col,
                                     "declare it with 'vertices'")
                self.expect("[")
                nxt = self.peek()
                if nxt.kind == ">=":
                    self.next()
                    const_parts.append((fam, IndexSet.at_least(
                        self.int_value()).intersect(vfams[fam])))
                elif nxt.kind == "<=":
                    self.next()
                    const_parts.append((fam, IndexSet.at_most(
                        self.int_value()).intersect(vfams[fam])))
                else:
                    m = self.affine("k")
                    if m.scale == 0:
                        idx = IndexSet.of(m.offset)
                        if not idx.subset_of(vfams[fam]):
                            self.fail(f"index {m.offset} outside the domain "
                                      f"of {fam}")
                        const_parts.append((fam, idx))
                    else:
                        atoms.append((fam, m))
                self.expect("]")
            if self.peek().kind == ",":
                self.next()
                continue
            return SymbolicSet.of(*const_parts), tuple(atoms)

    def edge_family(self, vfams: dict) -> EdgeFamily:
        self.next()  # 'edges'
        ename = self.expect("name").value
        self.eat_name("over")
        dom = self.iset()
        self.expect("{")
        sources: list = []
        ranges: list = []
        while self.peek().kind != "}":
            if self.at_name("source"):
                self.next()
                fam_tok = self.expect("name")
                fam = fam_tok.value
                if fam not in vfams:
                    raise ParseError(f"unknown vertex family {fam!r}",
                                     fam_tok.line, fam_tok.col)
                self.expect("[")
                m = self.affine()
                self.expect("]")
                guard = None
                if self.at_name("when"):
                    self.next()
                    guard = self.guard()
                sources.append((guard, fam, m))
            elif self.at_name("range"):
                self.next()
                const, atoms = self.vset(vfams)
                guard = None
                if self.at_name("when"):
                    self.next()
                    guard = self.guard()
                ranges.append((guard, const, atoms))
            else:
                self.fail("expected 'source' or 'range' in an edge family")
        self.expect("}")
        return EdgeFamily(
            ename, dom,
            tuple(SourceCase(g, fam, m)
                  for g, (fam, m) in zip(self._fill_guards(sources, dom),
                                         ((f, m) for _, f, m in sources))),
            tuple(RangeCase(g, const, atoms)
                  for g, (const, atoms) in zip(
                      self._fill_guards(ranges, dom),
                      ((c, a) for _, c, a in ranges))),
        )

    def _fill_guards(self, cases: list, dom: IndexSet) -> list[IndexSet]:
        explicit = IndexSet.empty()
        holes = 0
        for g, *_ in cases:
            if g is None:
                holes += 1
            else:
                explicit = explicit.union(g.intersect(dom))
        if holes > 1:
            self.fail("at most one case may omit its guard",
                      "add 'when' clauses")
        rest = dom.difference(explicit)
        out = []
        for g, *_ in cases:
            out.append(rest if g is None else g.intersect(dom))
        return out

    # -- maps -------------------------------------------------------------------

    def map(self):
        self.eat_name("map")
        tok = self.expect("name")
        name = tok.value
        self._fresh(name, tok)
        self.expect(":")
        src_name = self.expect("name").value
        self.expect("->")
        dst_name = self.expect("name").value
        for gname in (src_name, dst_name):
            if gname not in self.doc.graphs:
                self.fail(f"unknown ultragraph {gname!r}",
                          "define it earlier in the document")
        g, h = self.doc.graphs[src_name], self.doc.graphs[dst_name]
        self.expect("{")
        classes = []
        while self.peek().kind != "}":
            classes.append(self.map_class(g, h))
        self.expect("}")
        phi = MapPresentation(g, h, classes, name)
        self.doc.maps[name] = phi

    def map_class(self, g: Ultragraph, h: Ultragraph):
        self.eat_name("class")
        symbol = None
        family = index_map = None
        var = None
        t = self.expect("name", "a class symbol")
        if t.value == "tail":
            self.expect("(")
            symbol = self.tail_symbol(h)
            self.expect(")")
        else:
            fam = t.value
            if fam not in h.edge_families:
                raise ParseError(f"unknown target edge family {fam!r}",
                                 t.line, t.col)
            self.expect("[")
            nxt = self.peek()
            if nxt.kind == "name":
                var = nxt.value
                index_map = self.affine(var)
                family = fam
            elif nxt.kind in ("int", "-"):
                symbol = EdgeRef(fam, self.int_value())
            else:
                self.fail("expected an index or an index variable")
            self.expect("]")
        index_domain = None
        if self.at_name("for"):
            self.next()
            declared = self.expect("name").value
            if var is None or declared != var:
                self.fail(f"the class symbol does not use variable "
                          f"{declared!r}")
            self.eat_name("in")
            index_domain = self.iset()
        if family is not None and index_domain is None:
            self.fail("indexed class symbols need a 'for ... in' clause")
        self.expect("{")
        body = []
        oracle_member = None
        while self.peek().kind != "}":
            if self.at_name("oracle"):
                self.next()
                oname = self.expect("name").value
                if oname not in self.registry:
                    self.fail(f"oracle {oname!r} is not registered",
                              "register it before parsing")
                oracle_member = self.registry[oname]
            elif self.at_name("pc"):
                body.append(self.schema(g, var, index_domain))
            else:
                self.fail("expected a 'pc' schema or 'oracle NAME'")
        self.expect("}")
        if oracle_member is not None:
            if body or family is not None:
                self.fail("oracle classes take a fixed symbol and no schemas")
            member = oracle_member.member if isinstance(
                oracle_member, SetOracle) else oracle_member
            return OracleClass(symbol, member)
        try:
            if family is not None:
                return SchemaClass(body, family=family,
                                   index_domain=index_domain,
                                   index_map=index_map)
            return SchemaClass(body, symbol=symbol)
        except MapError as err:
            raise ParseError(f"invalid class: {err}", t.line, t.col) from None

    def tail_symbol(self, h: Ultragraph) -> MinimalEmitter:
        emitters, complete = h.minimal_infinite_emitters()
        if self.at_name("auto"):
            self.next()
            if len(emitters) != 1:
                self.fail(f"{h.name} has {len(emitters)} minimal emitters; "
                          "name the set explicitly")
            return emitters[0]
        const, atoms = self.vset(h.vertex_families)
        if atoms:
            self.fail("tail sets are concrete, not parametric")
        for m in emitters:
            if m.vertices == const:
                return m
        self.fail(f"{const} is not a minimal infinite emitter of {h.name}",
                  "run the emitters command to list them")

    def iset(self) -> IndexSet:
        """N, Z, Z*, [a..b], or comma-separated spans, each ``a``,
        ``a..b``, ``>=a`` or ``<=a``."""
        t = self.peek()
        if t.kind == "name" and t.value in ("N", "Z"):
            self.next()
            if t.value == "N":
                return IndexSet.at_least(0)
            if self.peek().kind == "*":
                self.next()
                return IndexSet.nonzero()
            return IndexSet.all()
        if t.kind == "[":
            self.next()
            lo = self.int_value()
            self.expect("..")
            hi = self.int_value()
            self.expect("]")
            if lo > hi:
                self.fail(f"empty interval [{lo}..{hi}]",
                          "swap the endpoints")
            return IndexSet.between(lo, hi)
        if t.kind not in ("int", "-", ">=", "<="):
            self.fail("expected an index set",
                      "N, Z, Z*, [a..b], or spans a, a..b, >=a, <=a")
        spans = [self.span()]
        while self.peek().kind == ",":
            self.next()
            spans.append(self.span())
        return IndexSet(spans)

    def span(self) -> tuple:
        t = self.peek()
        if t.kind in (">=", "<="):
            self.next()
            a = self.int_value()
            return (a, None) if t.kind == ">=" else (None, a)
        lo = self.int_value()
        if self.peek().kind != "..":
            return lo, lo
        self.next()
        hi = self.int_value()
        if lo > hi:
            raise ParseError(f"empty interval {lo}..{hi}", t.line, t.col,
                             "swap the endpoints")
        return lo, hi

    def schema(self, g: Ultragraph, class_var: str | None,
               class_domain: IndexSet | None) -> PcSchema:
        self.eat_name("pc")
        anchor = self.int_value()
        self.expect("..")
        starred = False
        if self.peek().kind == "*":
            self.next()
            starred = True
            end = None
        else:
            end = self.int_value()
        self.expect(":")
        atoms = []
        used_var = None
        while self.peek().kind not in (";", "}", "eof") and \
                not self.at_name("pc") and not self.at_name("class") and \
                not self.at_name("oracle"):
            atom, used = self.schema_atom(g, class_var)
            atoms.append(atom)
            if used is not None:
                used_var = used
        param_domain = None
        if self.peek().kind == ";":
            self.next()
            declared = self.expect("name").value
            if used_var is not None and declared != used_var:
                self.fail(f"schema uses {used_var!r} but declares "
                          f"{declared!r}")
            self.eat_name("in")
            param_domain = self.iset()
        elif used_var is not None:
            if used_var == class_var:
                param_domain = class_domain
            else:
                self.fail(f"free index {used_var!r} needs a '; {used_var} "
                          "in ...' clause")
        has_rep = any(isinstance(a, RepAtom) for a in atoms)
        if has_rep != starred:
            self.fail("schemas with rep(...) end at '*', fixed ones at an "
                      "integer position")
        if not starred and end is not None and \
                end - anchor + 1 != len(atoms):
            self.fail(f"window {anchor}..{end} holds {end - anchor + 1} "
                      f"symbols but {len(atoms)} atoms were given")
        try:
            return PcSchema(anchor, tuple(atoms), param_domain)
        except SchemaError as err:
            self.fail(str(err))

    def schema_atom(self, g: Ultragraph, class_var: str | None):
        t = self.expect("name", "an edge, rep(...) or tail(...)")
        if t.value == "rep":
            self.expect("(")
            inner, used = self.schema_atom(g, class_var)
            self.expect(")")
            if not isinstance(inner, LitAtom) or \
                    not isinstance(inner.symbol, EdgeRef):
                self.fail("rep(...) repeats a single edge literal")
            return RepAtom(inner.symbol), used
        if t.value == "tail":
            self.expect("(")
            m = self.tail_symbol(g)
            self.expect(")")
            return LitAtom(m), None
        fam = t.value
        if fam not in g.edge_families:
            raise ParseError(f"unknown edge family {fam!r}", t.line, t.col,
                             "schema atoms are edges of the source graph")
        if self.peek().kind != "[":
            only = g.edge_domain(fam)
            if only.cardinality() != 1:
                raise ParseError(
                    f"{fam!r} is not a singleton family; give an index",
                    t.line, t.col)
            return LitAtom(EdgeRef(fam, only.members()[0])), None
        self.expect("[")
        nxt = self.peek()
        if nxt.kind == "name" or (nxt.kind == "-" and
                                  self.toks[self.pos + 1].kind == "name"):
            var = nxt.value if nxt.kind == "name" else \
                self.toks[self.pos + 1].value
            m = self.affine(var)
            self.expect("]")
            return VarAtom(fam, m), var
        idx = self.int_value()
        self.expect("]")
        if not g.edge_domain(fam).contains(idx):
            self.fail(f"index {idx} outside the domain of {fam}")
        return LitAtom(EdgeRef(fam, idx)), None

    # -- points ------------------------------------------------------------------

    def point(self):
        self.eat_name("point")
        tok = self.expect("name")
        name = tok.value
        self._fresh(name, tok)
        self.eat_name("of", "points read: point NAME of GRAPH = ...")
        gname = self.expect("name").value
        if gname not in self.doc.graphs:
            self.fail(f"unknown ultragraph {gname!r}")
        g = self.doc.graphs[gname]
        self.expect("=")
        pt = self.point_literal(g)
        self.doc.points[name] = (gname, pt)

    def point_literal(self, g: Ultragraph):
        """A fin: or inf: literal that is a point of g; what else makes it
        no point of g, "unknown:" warnings aside, is a ParseError at its
        start."""
        t = self.peek()
        pt = self._point_body(g)
        problems = hard_problems(g, pt)
        if problems:
            raise ParseError(f"not a point of {g.name}: "
                             + "; ".join(problems), t.line, t.col)
        return pt

    def _point_body(self, g: Ultragraph):
        t = self.expect("name", "fin or inf")
        if t.value not in ("fin", "inf"):
            raise ParseError("point literals start with fin: or inf:",
                             t.line, t.col)
        self.expect(":")
        if t.value == "fin":
            edges = []
            while self.peek().kind != "|":
                edges.append(self.edge_ref(g))
            self.expect("|")
            if self.at_name("auto"):
                self.next()
                pool = g.range_emitters(edges[-1]) if edges else \
                    g.minimal_infinite_emitters()[0]
                if len(pool) != 1:
                    self.fail("auto needs exactly one candidate tail; got "
                              f"{len(pool)}")
                tail = pool[0]
            else:
                tail = self.tail_symbol(g)
            return FinitePoint(tuple(edges), tail)
        pre = []
        while self.peek().kind != "(":
            pre.append(self.edge_ref(g))
        self.expect("(")
        cyc = []
        while self.peek().kind != ")":
            cyc.append(self.edge_ref(g))
        self.expect(")")
        self.expect("*")
        if not cyc:
            self.fail("the cycle of an eventually periodic point is "
                      "nonempty")
        return PeriodicPoint(tuple(pre), tuple(cyc))

    def edge_ref(self, g: Ultragraph) -> EdgeRef:
        t = self.expect("name", "an edge family")
        fam = t.value
        if fam not in g.edge_families:
            raise ParseError(f"unknown edge family {fam!r}", t.line, t.col)
        if self.peek().kind != "[":
            only = g.edge_domain(fam)
            if only.cardinality() != 1:
                raise ParseError(f"{fam!r} needs an index", t.line, t.col)
            return EdgeRef(fam, only.members()[0])
        self.expect("[")
        idx = self.int_value()
        self.expect("]")
        if not g.edge_domain(fam).contains(idx):
            raise ParseError(f"index {idx} outside the domain of {fam}",
                             t.line, t.col)
        return EdgeRef(fam, idx)


def parse(text: str, registry: dict | None = None) -> Document:
    return _Parser(_lex(text), registry).document()


def parse_point_literal(g: Ultragraph, text: str):
    """A bare point literal (fin: or inf:) against a known graph."""
    p = _Parser(_lex(text), None)
    pt = p.point_literal(g)
    p.expect("eof", "nothing may follow a point literal")
    return pt


# -- printing ---------------------------------------------------------------------


def _print_guard(g: IndexSet) -> str:
    if len(g.spans) > 1:
        return f"k in {g.literal()}"
    if not g.spans:
        raise ValueError(f"guard {g} has no literal form")
    lo, hi = g.spans[0]
    if lo is not None and lo == hi:
        return f"k == {lo}"
    if lo is not None and hi is not None:
        return f"k >= {lo} and k <= {hi}"
    if lo is not None:
        return f"k >= {lo}"
    return f"k <= {hi}"


def _print_vset(const: SymbolicSet, atoms, domains: dict) -> str:
    bits = []
    for fam, iset in const.entries:
        if iset == domains.get(fam):
            bits.append(f"all({fam})")
            continue
        for lo, hi in iset.spans:
            if lo is None:
                bits.append(f"{fam}[<={hi}]")
            elif hi is None:
                bits.append(f"{fam}[>={lo}]")
            elif lo == hi:
                bits.append(f"{fam}[{lo}]")
            else:
                bits.extend(f"{fam}[{k}]" for k in range(lo, hi + 1))
    bits.extend(f"{fam}[{m}]" for fam, m in atoms)
    return ", ".join(bits)


def print_graph(g: Ultragraph) -> str:
    lines = [f"ultragraph {g.name} {{"]
    for vname, dom in g.vertex_families.items():
        lines.append(f"  vertices {vname} over {dom.literal()}")
    for ef in g.edge_families.values():
        lines.append(f"  edges {ef.name} over {ef.domain.literal()} {{")
        for sc in ef.source:
            guard = "" if sc.guard == ef.domain else \
                f" when {_print_guard(sc.guard)}"
            lines.append(f"    source {sc.vfamily}[{sc.map}]{guard}")
        for rc in ef.ranges:
            guard = "" if rc.guard == ef.domain else \
                f" when {_print_guard(rc.guard)}"
            body = _print_vset(rc.const, rc.atoms, g.vertex_families)
            lines.append(f"    range {body}{guard}")
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines)


def print_document(doc: Document) -> str:
    blocks = [print_graph(g) for g in doc.graphs.values()]
    for name, (gname, pt) in doc.points.items():
        blocks.append(f"point {name} of {gname} = {_print_point(pt)}")
    return "\n\n".join(blocks) + "\n"


def _print_point(pt) -> str:
    if isinstance(pt, FinitePoint):
        edges = " ".join(str(e) for e in pt.path)
        sep = " " if edges else ""
        return f"fin: {edges}{sep}| {_print_vset(pt.tail.vertices, (), {})}"
    pre = " ".join(str(e) for e in pt.preamble)
    cyc = " ".join(str(e) for e in pt.cycle)
    sep = " " if pre else ""
    return f"inf: {pre}{sep}({cyc})*"
