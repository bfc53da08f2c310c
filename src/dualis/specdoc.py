"""Declarative spec documents: named objects plus a list of checks.

A document is one JSON object with an "objects" map and a "checks" list.
Every scalar is a string ("2", "-1/3"); no JSON float is ever read or
written.  Object blocks carry a "type" tag:

    algebra          field, dim, mult [[i,j,k,"c"],...], unit [..] or null
    coalgebra        field, dim, comult [[k,i,j,"c"],...], counit or null
    comodule         coalgebra (ref), dim, coaction [[t,s,k,"c"],...]
    functional       field, sequence ["1","1","2",...]
    quiver           vertices [...], arrows [[src,tgt],...]
    quiver-template  name ("line" | "ray" | "loop" | "star:<k>", k <= 1024),
                     or name "finite" with quiver (ref to a quiver block)
    poset            elements [...], relation [[a,b],...] (closure is taken)
    bialgebra        field, cayley [[..],..], inverses [..]

Checks reference objects by name: {"check": ..., "refs": [name], "params": {}}.
Every check takes one ref, of the kind CHECKS names, and the params its
schema in CHECKS lists: each is converted to its type when the document is
parsed, and an absent or null one takes its default.  The one object
lookup is SpecDocument.resolve(name, kinds) and the _ref it wraps: check
refs, --object, a comodule's coalgebra and a finite template's quiver all
go through it.
Unknown check names raise UnknownCheck; missing, dangling or wrong-kind
refs UnresolvedReference; malformed JSON SpecParseError, with line and column
unless it nests too deep or holds too long an integer, as do a malformed
block (a table index of Infinity too), a dim that is not a nonnegative
integer or is above MAX_SPEC_DIM, a poset with more than MAX_SPEC_DIM
elements, relation pairs or intervals, a functional with more terms, a
linrec rank_bound above MAX_LINREC_BOUND, a bad template name or ray count,
a semiperfect radius past combinat.check_radius's cap, a non-list "refs", a
non-object "params", a param key outside the check's schema and a param
value of the wrong type.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from random import Random

from .algebra import FinAlgebra
from .coalgebra import FinCoalgebra, dual_unitalization_iso
from .combinat import (
    Poset,
    Quiver,
    make_template,
    verify_incidencedual_iso,
    verify_pathdual_iso,
    FiniteTemplate,
    check_radius,
    semiperfect_check,
    transitive_closure,
)
from .comodule import FinComodule, lattice_agreement_check
from .errors import (
    SpecParseError,
    UnknownCheck,
    UnresolvedReference,
    ValidationError,
    quoted,
)
from .fields import field_from_name
from .finite_dual import (
    LinRec,
    group_bialgebra,
    linrec_analyze,
    membership_bounded,
    polynomial_algebra,
    seq_functional,
    unital_dual_compat,
    Member,
)
from .reflexivity import (
    decompose_injectives,
    hopf_selfdual_check,
    left_coreflexive_check,
)
from .report import matrix_json, parse_scalar, scalar_str


@dataclass(frozen=True)
class SequenceFunctional:
    """A stored scalar sequence viewed as a functional on K[X]."""

    field: object
    sequence: tuple

    def functional(self):
        return seq_functional(self.field, list(self.sequence))

    def carrier(self):
        return polynomial_algebra(self.field, len(self.sequence) - 1)


@dataclass(frozen=True)
class Check:
    name: str
    refs: tuple
    params: dict


@dataclass(frozen=True)
class SpecDocument:
    objects: dict  # name -> (kind, object)
    checks: tuple

    def resolve(self, name: str, kinds: tuple | None = None):
        """The object called name; with kinds, its block must be one of them."""
        return _ref(self.objects, name, kinds)


MAX_SPEC_DIM = 1024  # checked before any table is built; validation grows with dim
MAX_LINREC_BOUND = 64  # caps the order, not the time: over Q that grows with the terms' digits


def _field_of(block: dict):
    return field_from_name(str(block.get("field", "q")))


def _dim(block: dict) -> int:
    dim = _count(block["dim"])
    if dim > MAX_SPEC_DIM:
        raise SpecParseError(f"dim {quoted(dim)} is outside 0..{MAX_SPEC_DIM}")
    return dim


def _a_kind(kind: str) -> str:
    return f"an {kind}" if kind[0] in "aeiou" else f"a {kind}"


def _ref(doc_objects: dict, name, kinds: tuple | None = None):
    """The object called name, whose block must be of one of kinds if given."""
    name = str(name)
    if name not in doc_objects:
        raise UnresolvedReference(f"no object named {quoted(name)}")
    got, obj = doc_objects[name]
    if kinds is not None and got not in kinds:
        raise UnresolvedReference(f"object {quoted(name)} is {_a_kind(got)}, not "
                                  f"{' or '.join(_a_kind(k) for k in kinds)}")
    return obj


def _read_table(F, rows, split: int) -> dict:
    """{outer: {inner: scalar}} from rows [a, b, c, "scalar"], keyed
    {(a, b): {c: ..}} when split is 2 and {a: {(b, c): ..}} when it is 1.
    _write_table is the inverse."""
    table: dict = {}
    for a, b, c, s in rows:
        a, b, c = int(a), int(b), int(c)
        outer, inner = ((a, b), c) if split == 2 else (a, (b, c))
        table.setdefault(outer, {})[inner] = parse_scalar(F, s)
    return table


def _read_scalars(F, values):
    """A scalar list ["1", "-1/3", ...]; null stays None."""
    return None if values is None else tuple(parse_scalar(F, c) for c in values)


def _build_algebra(block, doc_objects):
    F = _field_of(block)
    return FinAlgebra(F, _dim(block), _read_table(F, block.get("mult", []), 2),
                      _read_scalars(F, block.get("unit")))


def _build_coalgebra(block, doc_objects):
    F = _field_of(block)
    return FinCoalgebra(F, _dim(block), _read_table(F, block.get("comult", []), 1),
                        _read_scalars(F, block.get("counit")))


def _build_comodule(block, doc_objects):
    C = _ref(doc_objects, block["coalgebra"], ("coalgebra",))
    return FinComodule(C, _dim(block), _read_table(C.field, block.get("coaction", []), 1))


def _build_functional(block, doc_objects):
    F = _field_of(block)
    seq = _read_scalars(F, block["sequence"])
    if not 0 < len(seq) <= MAX_SPEC_DIM:
        raise SpecParseError(f"functional has {len(seq)} terms, not 1..{MAX_SPEC_DIM}")
    return SequenceFunctional(F, seq)


def _build_quiver(block, doc_objects):
    vertices = tuple(block["vertices"])
    arrows = tuple((a[0], a[1]) for a in block.get("arrows", []))
    return Quiver(vertices, arrows)


def _build_template(block, doc_objects):
    name = str(block["name"])
    if name == "finite":
        return FiniteTemplate(_ref(doc_objects, block["quiver"], ("quiver",)))
    try:
        return make_template(name)
    except ValidationError as e:
        raise SpecParseError(f"quiver-template {quoted(name)}: {e}") from e


def _build_poset(block, doc_objects):
    elements = tuple(block["elements"])
    pairs = [(a, b) for a, b in block.get("relation", [])]
    if max(len(elements), len(pairs)) > MAX_SPEC_DIM:
        raise SpecParseError(f"poset of {len(elements)} elements, {len(pairs)} pairs: "
                             f"at most {MAX_SPEC_DIM} of each")
    strict = transitive_closure((a, b) for a, b in pairs if a != b)
    rel = frozenset(strict) | frozenset((e, e) for e in elements)
    # the incidence structures have one basis element per interval a <= b
    if len(rel) > MAX_SPEC_DIM:
        raise SpecParseError(f"poset has {len(rel)} intervals, more than {MAX_SPEC_DIM}")
    return Poset(elements, rel)


def _build_bialgebra(block, doc_objects):
    F = _field_of(block)
    cayley = [[int(v) for v in row] for row in block["cayley"]]
    inverses = [int(v) for v in block["inverses"]]
    return group_bialgebra(F, cayley, inverses)


_BUILDERS = {
    "algebra": _build_algebra,
    "coalgebra": _build_coalgebra,
    "comodule": _build_comodule,
    "functional": _build_functional,
    "quiver": _build_quiver,
    "quiver-template": _build_template,
    "poset": _build_poset,
    "bialgebra": _build_bialgebra,
}

_REFERENCING = {"comodule", "quiver-template"}


def parse_spec(text: str) -> SpecDocument:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise SpecParseError(f"invalid JSON: {e.msg}", line=e.lineno,
                             col=e.colno) from e
    except (RecursionError, ValueError) as e:  # too deep, or too long an integer
        raise SpecParseError(f"invalid JSON: {e}") from e
    if not isinstance(raw, dict):
        raise SpecParseError("document root must be a JSON object")
    raw_objects = raw.get("objects", {})
    if not isinstance(raw_objects, dict):
        raise SpecParseError('"objects" must be a map')
    objects: dict = {}
    deferred = []
    for name, block in raw_objects.items():
        if not isinstance(block, dict) or "type" not in block:
            raise SpecParseError(f"object {quoted(name)} needs a type tag")
        kind = str(block["type"])
        if kind not in _BUILDERS:
            raise SpecParseError(f"object {quoted(name)} has unknown type {quoted(kind)}")
        if kind in _REFERENCING:
            deferred.append((name, kind, block))
        else:
            objects[name] = (kind, _build_object(kind, block, objects))
    for name, kind, block in deferred:
        objects[name] = (kind, _build_object(kind, block, objects))
    raw_checks = raw.get("checks", [])
    if not isinstance(raw_checks, list):
        raise SpecParseError('"checks" must be a list')
    checks = []
    for n, item in enumerate(raw_checks):
        if not isinstance(item, dict) or "check" not in item:
            raise SpecParseError(f"check #{n} needs a check name")
        name = str(item["check"])
        if name not in CHECKS:
            raise UnknownCheck(f"unknown check {quoted(name)}")
        kind = CHECKS[name][0]
        raw_refs = item.get("refs", [])
        if not isinstance(raw_refs, list):
            raise SpecParseError(f"refs of check {name!r} must be a list")
        refs = tuple(str(r) for r in raw_refs)
        if len(refs) != 1:
            raise UnresolvedReference(
                f"check {name!r} takes one {kind} ref, got {len(refs)}")
        target = _ref(objects, refs[0], (kind,))
        params = _parse_params(name, item.get("params", {}))
        if name == "semiperfect":
            try:
                check_radius(target, params["radius"])
            except ValidationError as e:
                raise SpecParseError(f"check 'semiperfect' param 'radius': {e}") from e
        if name == "linrec" and params["rank_bound"] > MAX_LINREC_BOUND:
            raise SpecParseError(f"check 'linrec' param 'rank_bound': {params['rank_bound']} "
                                 f"is outside 0..{MAX_LINREC_BOUND}")
        checks.append(Check(name, refs, params))
    return SpecDocument(objects, tuple(checks))


def _parse_params(check: str, raw) -> dict:
    """The check's params, typed by its schema, with defaults filled in."""
    if not isinstance(raw, dict):
        raise SpecParseError(f"params of check {check!r} must be an object")
    schema = CHECKS[check][2]
    unknown = sorted(set(raw) - set(schema))
    if unknown:
        raise SpecParseError(f"check {check!r} has no param {quoted(unknown[0])}; "
                             f"its params are {', '.join(schema) or 'none'}")
    params = {}
    for name, (convert, default) in schema.items():
        value = raw.get(name)
        try:
            params[name] = default if value is None else convert(value)
        except (ValueError, ValidationError) as e:
            raise SpecParseError(f"check {check!r} param {name!r}: {e}") from e
    return params


def _build_object(kind, block, objects):
    try:
        return _BUILDERS[kind](block, objects)
    except (SpecParseError, UnresolvedReference):
        raise
    except (KeyError, TypeError, IndexError, ValueError, OverflowError) as e:
        raise SpecParseError(f"malformed {kind} block: {quoted(e)}") from e


# ---------------------------------------------------------------------------
# checks: fn(objs, params, rng) -> (ok, details), registered in CHECKS below

def _check_pathdual(objs, params, rng):
    Q = objs[0]
    F = field_from_name(params["field"])
    alg, co = verify_pathdual_iso(F, Q, params["max_len"])
    return True, {
        "dim": alg.source.dim,
        "algebra_to_dual_matrix": matrix_json(alg.matrix),
        "coalgebra_to_dual_matrix": matrix_json(co.matrix),
    }


def _check_incidencedual(objs, params, rng):
    P = objs[0]
    F = field_from_name(params["field"])
    alg, co = verify_incidencedual_iso(F, P)
    return True, {"dim": alg.source.dim,
                  "algebra_to_dual_matrix": matrix_json(alg.matrix)}


def _check_semiperfect(objs, params, rng):
    template = objs[0]
    rep = semiperfect_check(template, params["side"], params["radius"], params["bound"])
    details = {"status": rep.status, "side": rep.side, "radius": rep.radius,
               "bound": rep.bound}
    if rep.vertex is not None:
        details["vertex"] = str(rep.vertex)
        details["count"] = rep.count
    if rep.per_vertex is not None:
        details["per_vertex"] = [[str(v), c] for v, c in rep.per_vertex]
    return rep.status == params["expect"], details


def _check_coreflexive(objs, params, rng):
    C = objs[0]
    rep = left_coreflexive_check(C)
    return rep.bijective, {
        "bijective": rep.bijective,
        "kernel_rank": rep.kernel_rank,
        "source_dim": rep.source_dim,
        "target_dim": rep.target_dim,
    }


def _check_unital_dual_compat(objs, params, rng):
    A = objs[0]
    iso = unital_dual_compat(A)
    return True, {"dim": iso.source.dim}


def _check_dual_unitalization(objs, params, rng):
    C = objs[0]
    iso = dual_unitalization_iso(C)
    return True, {"dim": iso.source.dim}


def _check_decompose_injectives(objs, params, rng):
    C = objs[0]
    dec = decompose_injectives(C, params["side"])
    return True, {"side": params["side"], "block_dims": list(dec.block_dims),
                  "certificates": list(dec.certificates)}


def _check_hopf_selfdual(objs, params, rng):
    H = objs[0]
    out = hopf_selfdual_check(H)
    return True, {"block_dims": list(out["block_dims"])}


def _check_lattice_agreement(objs, params, rng):
    M = objs[0]
    out = lattice_agreement_check(M, seed=rng.randrange(1 << 30),
                                  samples=params["samples"])
    return out["agree"] == out["checked"], {
        "checked": out["checked"], "agree": out["agree"],
        "exhaustive": out["exhaustive"],
    }


def _check_linrec(objs, params, rng):
    holder = objs[0]
    F = holder.field
    out = linrec_analyze(F, list(holder.sequence), params["rank_bound"])
    expect = params["expect_order"]
    if isinstance(out, LinRec):
        details = {"order": out.order,
                   "poly": [scalar_str(F, c) for c in out.poly]}
        return expect is None or out.order == expect, details
    details = {"not_within": out.dim, "level": out.level}
    return expect is None, details


def _check_membership(objs, params, rng):
    holder = objs[0]
    out = membership_bounded(holder.carrier(), holder.functional(), params["bound"])
    if isinstance(out, Member):
        return True, {"member": True, "dim": out.dim,
                      "level_dims": list(out.level_dims)}
    return False, {"member": False, "dim": out.dim, "level": out.level}


# param types: each converts a JSON value or raises ValueError

def _count(v) -> int:
    """A nonnegative integer, written as a JSON integer or a decimal string."""
    if isinstance(v, bool) or not isinstance(v, (int, str)):
        raise ValueError(f"expected an integer, got {quoted(v)}")
    n = int(v)
    if n < 0:
        raise ValueError(f"expected a nonnegative integer, got {quoted(n)}")
    return n


def _field_name(v) -> str:
    if not isinstance(v, str):
        raise ValueError(f"expected a field name, got {quoted(v)}")
    return field_from_name(v).name()


def _one_of(*options):
    def convert(v) -> str:
        if v not in options:
            raise ValueError(f"expected one of {', '.join(options)}, got {quoted(v)}")
        return v
    return convert


_SIDE = (_one_of("left", "right"), "right")

# name -> (kind of its one ref, fn(objs, params, rng) -> (ok, details),
#          params schema {param: (type, default)})
CHECKS = {
    "verify_pathdual_iso": ("quiver", _check_pathdual,
                            {"field": (_field_name, "q"), "max_len": (_count, None)}),
    "verify_incidencedual_iso": ("poset", _check_incidencedual,
                                 {"field": (_field_name, "q")}),
    "semiperfect": ("quiver-template", _check_semiperfect,
                    {"side": _SIDE, "radius": (_count, 3), "bound": (_count, 64),
                     "expect": (_one_of("holds", "fails"), "holds")}),
    "coreflexive": ("coalgebra", _check_coreflexive, {}),
    "unital_dual_compat": ("algebra", _check_unital_dual_compat, {}),
    "dual_unitalization_iso": ("coalgebra", _check_dual_unitalization, {}),
    "decompose_injectives": ("coalgebra", _check_decompose_injectives, {"side": _SIDE}),
    "hopf_selfdual": ("bialgebra", _check_hopf_selfdual, {}),
    "lattice_agreement": ("comodule", _check_lattice_agreement,
                          {"samples": (_count, 50)}),
    "linrec": ("functional", _check_linrec,
               {"rank_bound": (_count, 8), "expect_order": (_count, None)}),
    "membership": ("functional", _check_membership, {"bound": (_count, 4)}),
}


def run_check(doc: SpecDocument, check: Check, rng: Random):
    objs = [doc.resolve(r) for r in check.refs]
    return CHECKS[check.name][1](objs, check.params, rng)


# ---------------------------------------------------------------------------
# serializers back to spec blocks, so CLI transformations round-trip

def _write_table(F, table: dict) -> list:
    """Rows [a, b, c, "scalar"] of a table, sorted: inverse of _read_table."""
    def ix(key):
        return key if isinstance(key, tuple) else (key,)
    return [[*ix(outer), *ix(inner), scalar_str(F, c)]
            for outer, terms in sorted(table.items()) for inner, c in sorted(terms.items())]


def _write_scalars(F, values):
    return None if values is None else [scalar_str(F, c) for c in values]


def algebra_block(A: FinAlgebra) -> dict:
    F = A.field
    return {"type": "algebra", "field": F.name(), "dim": A.dim,
            "mult": _write_table(F, A.mult), "unit": _write_scalars(F, A.unit)}


def coalgebra_block(C: FinCoalgebra) -> dict:
    F = C.field
    return {"type": "coalgebra", "field": F.name(), "dim": C.dim,
            "comult": _write_table(F, C.comult), "counit": _write_scalars(F, C.counit)}
