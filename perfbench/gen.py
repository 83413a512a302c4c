"""Seeded benchmark inputs: schema texts, class documents, edit storms.

Everything here is a pure function of a ``random.Random`` built from the
``--seed`` argument, so one seed always yields the same inputs.  The
generators are the repository's own:

* ordered record schemas come from ``repro.corpus.generator.generate_corpus``
  (DFA-based XSDs of the web-XSD mix), wrapped under a ``batch`` root whose
  content is ``record*`` so a document can grow to any size;
* ``xs:all`` schemas are formal content models with an interleave of 6-9
  fields, serialized through the XSD writer;
* schema text is produced by the XSD writer (``write_xsd``), the BonXai
  printer (``print_schema`` over ``bxsd_to_schema``) and, for DTD-shaped
  schemas, a small DTD emitter below;
* records are sampled by ``repro.xsd.generator.DocumentGenerator``; the
  ``invalid`` class applies ``repro.conformance.generate.mutate_document``
  to one record.

(``edit_storm.py`` adds the E15 document of
``benchmarks/bench_e11_validation.py`` and a ``random_op`` patch storm.)
"""

from __future__ import annotations

import random

from repro.bonxai import bxsd_to_schema, print_schema
from repro.conformance.generate import mutate_document
from repro.corpus.generator import generate_corpus
from repro.errors import SchemaError
from repro.regex.ast import (
    Concat,
    Epsilon,
    Optional,
    Plus,
    Star,
    Symbol,
    Union,
    interleave,
    star,
    sym,
)
from repro.translation import dfa_based_to_bxsd, dfa_based_to_xsd
from repro.xmlmodel import XMLDocument, write_element
from repro.xsd import AttributeUse, ContentModel, DFABasedXSD, write_xsd
from repro.xsd.generator import DocumentGenerator

CLASSES = ("repetitive", "unique", "rich", "invalid", "unordered")
"""The document classes; each is defined by one input property."""

ROOT = "batch"
POOL = 64
"""Distinct records sampled per document (the repetitive classes draw
their records from this pool)."""
UNORDERED_FIELDS = (6, 7, 8, 9)
"""``xs:all`` widths: 2^n-state content DFAs; n >= 8 exceeds the dense
table limit, so these schemas run the compatibility path."""


class Schema:
    """One schema as the program sees it: a kind and its text.

    ``model`` is the formal DFA-based XSD the text was written from, used
    only to sample documents; ``record_model`` is the same schema without
    the ``batch`` wrapper (records are sampled from its root).
    """

    __slots__ = ("label", "kind", "text", "ordered", "model", "record_model")

    def __init__(self, label, kind, text, ordered, model, record_model):
        self.label = label
        self.kind = kind
        self.text = text
        self.ordered = ordered
        self.model = model
        self.record_model = record_model


class Doc:
    """One generated document of a class, against one schema."""

    __slots__ = ("cls", "schema", "text", "elements")

    def __init__(self, cls, schema, text, elements):
        self.cls = cls
        self.schema = schema
        self.text = text
        self.elements = elements


# -- schemas ----------------------------------------------------------------

def _wrap(record_model):
    """Put ``record_model``'s root under ``batch`` (content ``root*``)."""
    (root,) = sorted(record_model.start)
    initial = record_model.initial
    batch_state = "batch#"
    transitions = {
        key: target for key, target in record_model.transitions.items()
        if key[0] != initial
    }
    transitions[(initial, ROOT)] = batch_state
    transitions[(batch_state, root)] = record_model.transitions[
        (initial, root)
    ]
    assign = dict(record_model.assign)
    assign[batch_state] = ContentModel(star(sym(root)))
    return DFABasedXSD(
        states=set(record_model.states) | {batch_state},
        alphabet=set(record_model.alphabet) | {ROOT},
        transitions=transitions,
        initial=initial,
        start={ROOT},
        assign=assign,
    )


def _open(record_model):
    """``record_model`` with every type mixed and an optional ``id``, so
    documents may carry distinct ids and text on every element."""
    assign = {
        state: ContentModel(
            model.regex, mixed=True,
            attributes=model.attributes + (AttributeUse("id", required=False),),
        )
        for state, model in record_model.assign.items()
    }
    return DFABasedXSD(
        states=record_model.states, alphabet=record_model.alphabet,
        transitions=record_model.transitions, initial=record_model.initial,
        start=record_model.start, assign=assign,
    )


def schema_text(kind, model):
    """Serialize a formal DFA-based schema as ``kind`` text."""
    if kind == "xsd":
        return write_xsd(dfa_based_to_xsd(model))
    if kind == "bonxai":
        return print_schema(bxsd_to_schema(dfa_based_to_bxsd(model)))
    if kind == "dtd":
        return dtd_text(model)
    raise ValueError(f"unknown schema kind {kind!r}")


def dtd_text(model):
    """DTD declarations for a 1-suffix (DTD-shaped) DFA-based schema.

    Every element name must reach states with one content model; mixed
    content is not emitted (a DTD cannot order children of mixed content).
    """
    by_name = {}
    for (__, name), target in model.transitions.items():
        content = model.assign[target]
        if content.mixed:
            raise ValueError("DTD text cannot carry ordered mixed content")
        known = by_name.setdefault(name, content)
        if known is not content and (
            known.regex != content.regex
            or known.attributes != content.attributes
        ):
            raise ValueError(f"element {name!r} is not 1-suffix")
    lines = []
    for name in sorted(by_name):
        content = by_name[name]
        lines.append(f"<!ELEMENT {name} {_dtd_content(content.regex)}>")
        for use in content.attributes:
            default = "#REQUIRED" if use.required else "#IMPLIED"
            lines.append(f"<!ATTLIST {name} {use.name} CDATA {default}>")
    return "\n".join(lines) + "\n"


def _dtd_content(regex):
    if isinstance(regex, Epsilon):
        return "EMPTY"
    particle = _dtd_particle(regex)
    return particle if particle.startswith("(") else f"({particle})"


def _dtd_particle(regex):
    if isinstance(regex, Symbol):
        return regex.name
    if isinstance(regex, Concat):
        return "(" + ", ".join(map(_dtd_particle, regex.children)) + ")"
    if isinstance(regex, Union):
        return "(" + " | ".join(map(_dtd_particle, regex.children)) + ")"
    suffix = {Star: "*", Plus: "+", Optional: "?"}.get(type(regex))
    if suffix is None:
        raise ValueError(f"no DTD particle for {regex!r}")
    inner = _dtd_particle(regex.child)
    if inner[-1] in "*+?":
        inner = f"({inner})"
    return inner + suffix


def ordered_schema(rng, label, kind, open_content=False):
    """An ordered record schema from the web-XSD corpus generator."""
    family = "dtd_like" if kind == "dtd" else rng.choice(
        ("dtd_like", "parent", "grandparent")
    )
    while True:
        __, record_model = generate_corpus(
            rng, size=1, mix=((family, 1.0),), width=6
        )[0]
        try:
            generator = DocumentGenerator(record_model)
        except SchemaError:  # the sampled schema accepts no documents
            continue
        if len(generator.roots) == 1:
            break
    if open_content:
        record_model = _open(record_model)
    model = _wrap(record_model)
    return Schema(label, kind, schema_text(kind, model), True, model,
                  record_model)


def unordered_schema(label, fields):
    """A record of ``fields`` simple elements under one ``xs:all``."""
    names = [f"f{index}" for index in range(fields)]
    states = {"q0", "rec"} | {f"s_{name}" for name in names}
    transitions = {("q0", "rec"): "rec"}
    assign = {"rec": ContentModel(interleave(*(sym(n) for n in names)))}
    for name in names:
        transitions[("rec", name)] = f"s_{name}"
        assign[f"s_{name}"] = ContentModel(Epsilon(), mixed=True)
    record_model = DFABasedXSD(
        states=states, alphabet=set(names) | {"rec"},
        transitions=transitions, initial="q0", start={"rec"}, assign=assign,
    )
    model = _wrap(record_model)
    return Schema(label, "xsd", schema_text("xsd", model), False, model,
                  record_model)


# -- documents ----------------------------------------------------------------

class RecordSampler:
    """Samples record subtrees (the ``batch`` children) for one schema."""

    def __init__(self, schema):
        self.schema = schema
        self.generator = DocumentGenerator(schema.record_model)

    def record(self, rng):
        return self.generator.generate(rng, max_depth=4, max_children=5).root


def _batch(record_texts):
    return f"<{ROOT}>\n" + "\n".join(record_texts) + f"\n</{ROOT}>\n"


def _count(node):
    return sum(1 for __ in node.iter())


def _pool(sampler, rng, size):
    records = [sampler.record(rng) for __ in range(size)]
    return [(write_element(r), _count(r)) for r in records]


def _fill(pool, rng, target):
    """Draw records from ``pool`` until ``target`` elements (plus root)."""
    texts = []
    elements = 1
    while elements < target:
        text, count = pool[rng.randrange(len(pool))]
        texts.append(text)
        elements += count
    return texts, elements


def repetitive_doc(schema, rng, target):
    """Valid; its records repeat from a pool of POOL, so chunks repeat."""
    texts, elements = _fill(_pool(RecordSampler(schema), rng, POOL), rng,
                            target)
    return Doc("repetitive", schema, _batch(texts), elements)


def unique_doc(schema, rng, target):
    """Valid; every element carries a distinct id and distinct text."""
    sampler = RecordSampler(schema)
    templates = []
    for __ in range(POOL):
        record = sampler.record(rng)
        for node in record.iter():
            node.attributes["id"] = "u\x00"
            node.append_text(" t\x00")
        templates.append((write_element(record).split("\x00"),
                          _count(record)))
    serial = rng.randrange(10 ** 6)
    texts = []
    elements = 1
    while elements < target:
        pieces, count = templates[rng.randrange(len(templates))]
        out = [pieces[0]]
        for piece in pieces[1:]:
            serial += 1
            out.append(f"{serial // 2}")
            out.append(piece)
        texts.append("".join(out))
        elements += count
    return Doc("unique", schema, _batch(texts), elements)


RICH_FEATURES = ("doctype", "comments", "cdata", "entities", "non_ascii")


def rich_doc(schema, rng, target, index):
    """Valid; markup only the char parser handles (DOCTYPE, comments/PIs,
    CDATA, entity references, non-ASCII text).

    Document ``index`` gets two of the features, rotating, so every seed
    carries the same feature mix.
    """
    features = {RICH_FEATURES[index % 5], RICH_FEATURES[(index + 2) % 5]}
    sampler = RecordSampler(schema)
    pool = []
    for __ in range(POOL):
        record = sampler.record(rng)
        count = _count(record)
        record.append_text(" ")  # never self-closing: CDATA goes inside
        if "non_ascii" in features:
            record.append_text(" café über 日本")
        if "entities" in features:
            record.append_text(" a&b <c> & d")
        text = write_element(record)
        if "cdata" in features:
            head, sep, tail = text.rpartition("</")
            text = head + "<![CDATA[x<y & z]]>" + sep + tail
        pool.append((text, count))
    texts, elements = _fill(pool, rng, target)
    if "comments" in features:
        texts = [
            f"<!-- record {i} -->{t}" if i % 7 == 0 else
            (f"<?render page-break?>{t}" if i % 7 == 3 else t)
            for i, t in enumerate(texts)
        ]
    body = _batch(texts)
    if "doctype" in features:
        body = f'<!DOCTYPE {ROOT} SYSTEM "batch.dtd">\n' + body
    return Doc("rich", schema, body, elements)


def invalid_doc(schema, rng, target, is_valid):
    """One seeded schema violation: ``mutate_document`` on one record.

    ``is_valid(text)`` decides whether a one-record document is valid; a
    mutation that leaves its record valid is redrawn.
    """
    sampler = RecordSampler(schema)
    texts, elements = _fill(_pool(sampler, rng, POOL), rng, target)
    names = sorted(schema.model.alphabet - {ROOT}) + ["zzz"]
    attr_names = sorted({
        use.name for model in schema.model.assign.values()
        for use in model.attributes
    }) + ["bogus"]
    position = rng.randrange(len(texts))
    while True:
        record = sampler.record(rng)
        mutant = mutate_document(XMLDocument(record), rng, names,
                                 attr_names).root
        mutant_text = write_element(mutant)
        if not is_valid(_batch([mutant_text])):
            break
    elements += _count(mutant)
    texts.insert(position, mutant_text)
    return Doc("invalid", schema, _batch(texts), elements)


def unordered_doc(schema, rng, target):
    """Valid against an ``xs:all`` schema; fields arrive in any order."""
    texts, elements = _fill(_pool(RecordSampler(schema), rng, POOL), rng,
                            target)
    return Doc("unordered", schema, _batch(texts), elements)


# -- the seeded set -----------------------------------------------------------

def schema_set(rng):
    """The workload's schemas: ordered (XSD/BonXai/DTD) and ``xs:all``.

    Returns ``{"ordered": [...], "open": [...], "unordered": [...]}``;
    ``open`` schemas allow ids and text everywhere (XSD and BonXai only:
    a DTD cannot keep children ordered in mixed content).
    """
    ordered = [
        ordered_schema(rng, f"ordered-{kind}-{i}", kind)
        for i in range(2) for kind in ("xsd", "bonxai", "dtd")
    ]
    open_ = [
        ordered_schema(rng, f"open-{kind}-{i}", kind, open_content=True)
        for i in range(2) for kind in ("xsd", "bonxai")
    ]
    unordered = [
        unordered_schema(f"all-{n}", n) for n in UNORDERED_FIELDS
    ]
    return {"ordered": ordered, "open": open_, "unordered": unordered}


def catalog():
    """The schema catalog: :func:`schema_set` on a fixed stream, so a
    class's figure compares like with like across seeds.  Returns
    ``(families, flat list)``."""
    families = schema_set(seeded(0, "schemas"))
    return families, [s for family in families.values() for s in family]


def class_documents(rng, schemas, sizes, is_valid):
    """One document per ``sizes`` entry in every class.

    Document ``i`` of a class uses schema ``i`` of that class's family
    (cycling), so the schema mix per size is the same for every seed.
    ``is_valid(schema, text)`` is a verdict on a one-record document,
    used to redraw mutations that leave the record valid.
    """
    docs = []
    for index, target in enumerate(sizes):
        ordered = schemas["ordered"][index % len(schemas["ordered"])]
        opened = schemas["open"][index % len(schemas["open"])]
        unordered = schemas["unordered"][index % len(schemas["unordered"])]
        docs.append(repetitive_doc(ordered, rng, target))
        docs.append(unique_doc(opened, rng, target))
        docs.append(rich_doc(opened, rng, target, index))
        docs.append(invalid_doc(
            ordered, rng, target, lambda text, s=ordered: is_valid(s, text)
        ))
        docs.append(unordered_doc(unordered, rng, target))
    return docs


def seeded(seed, stream):
    """A ``random.Random`` for one named stream of one seed."""
    return random.Random(f"{stream}:{seed}")
