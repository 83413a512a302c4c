"""Versioned on-disk regression corpus for conformance failures.

Every failure the sweep finds (after shrinking) — and every bug fixed
by hand — is pinned as one JSON file under ``tests/conformance_corpus/``
and replayed forever by the snapshot suite.  The format is stable and
explicit (schemas serialize structurally, not by repr), so corpus files
survive refactors of the in-memory classes.

Case anatomy (``version`` 1)::

    {
      "version": 1,
      "id": "second-root-drain",
      "case_type": "differential" | "pinned" | "fingerprint"
                 | "regex" | "incremental" | "diff",
      "status": "fixed" | "open",
      "kind": "...",            # oracle disagreement kind (when known)
      "check": "...",           # which comparison failed
      "description": "...",
      "seed": 0, "formalism": "random",        # provenance (optional)
      "schema": {...},          # DFA-based or formal-XSD serialization
      "schema_b": {...},        # second schema (fingerprint cases)
      "document": "<doc/>",     # XML text (differential cases)
      "events": [...],          # raw event list (pinned stream cases)
      "pattern": "a{2,}",       # regex cases
      "patch": "<patch>...",    # patch text (incremental cases)
      "expected": {...}         # what replay asserts, per case_type
    }

Replay semantics by status:

* ``fixed`` — the case must be clean now: the full oracle (or the
  pinned expectations) must hold.  This is the regression guarantee.
* ``open`` — the case documents a live bug: replay asserts the recorded
  disagreement still reproduces, and reports "appears fixed" when it no
  longer does, so the corpus nags until the file is flipped to
  ``fixed``.  Open cases therefore keep exact repro state without
  blocking unrelated work.
"""

from __future__ import annotations

import json
import pathlib

from repro.errors import ReproError
from repro.regex.ast import (
    EMPTY,
    EPSILON,
    UNBOUNDED,
    Concat,
    Counter,
    EmptySet,
    Epsilon,
    Interleave,
    Optional,
    Plus,
    Star,
    Symbol,
    Union,
    concat,
    counter,
    interleave,
    optional,
    plus,
    star,
    sym,
    union,
)
from repro.xsd.content import AttributeUse, ContentModel
from repro.xsd.dfa_based import DFABasedXSD
from repro.xsd.model import XSD
from repro.xsd.typednames import TypedName, split_typed_name

CORPUS_VERSION = 1

CASE_TYPES = (
    "differential", "pinned", "fingerprint", "regex", "incremental",
    "diff",
)

STATUSES = ("fixed", "open")


# -- structural serialization ---------------------------------------------
def regex_to_json(node):
    """A stable structural JSON form of a regex AST."""
    if isinstance(node, Symbol):
        return {"sym": str(node.name)}
    if isinstance(node, Epsilon):
        return {"eps": True}
    if isinstance(node, EmptySet):
        return {"empty": True}
    if isinstance(node, Concat):
        return {"concat": [regex_to_json(c) for c in node.children]}
    if isinstance(node, Union):
        return {"union": [regex_to_json(c) for c in node.children]}
    if isinstance(node, Interleave):
        return {"interleave": [regex_to_json(c) for c in node.children]}
    if isinstance(node, Star):
        return {"star": regex_to_json(node.child)}
    if isinstance(node, Plus):
        return {"plus": regex_to_json(node.child)}
    if isinstance(node, Optional):
        return {"opt": regex_to_json(node.child)}
    if isinstance(node, Counter):
        high = None if node.high is UNBOUNDED else node.high
        return {
            "counter": regex_to_json(node.child),
            "low": node.low,
            "high": high,
        }
    raise TypeError(f"unknown regex node {node!r}")


def regex_from_json(data):
    if "sym" in data:
        return sym(data["sym"])
    if data.get("eps"):
        return EPSILON
    if data.get("empty"):
        return EMPTY
    if "concat" in data:
        return concat(*(regex_from_json(c) for c in data["concat"]))
    if "union" in data:
        return union(*(regex_from_json(c) for c in data["union"]))
    if "interleave" in data:
        return interleave(
            *(regex_from_json(c) for c in data["interleave"])
        )
    if "star" in data:
        return star(regex_from_json(data["star"]))
    if "plus" in data:
        return plus(regex_from_json(data["plus"]))
    if "opt" in data:
        return optional(regex_from_json(data["opt"]))
    if "counter" in data:
        high = data["high"]
        return counter(
            regex_from_json(data["counter"]), data["low"],
            UNBOUNDED if high is None else high,
        )
    raise ValueError(f"unknown regex serialization {data!r}")


def model_to_json(model):
    return {
        "regex": regex_to_json(model.regex),
        "mixed": model.mixed,
        "attributes": [
            [use.name, use.required, use.type_name]
            for use in model.attributes
        ],
    }


def model_from_json(data):
    return ContentModel(
        regex_from_json(data["regex"]),
        mixed=data.get("mixed", False),
        attributes=tuple(
            AttributeUse(name, required=required, type_name=type_name)
            for name, required, type_name in data.get("attributes", ())
        ),
    )


def dfa_to_json(dfa):
    """Serialize the DFA-based corner (the oracle's anchor).

    State identities are internal (the k-suffix constructions use
    Aho-Corasick tuples as states, which JSON cannot key on), so states
    are canonically renamed to strings: the initial state becomes
    ``q0`` and the rest ``s0``, ``s1``, … in repr order.  The language
    is unchanged and the files stay human-readable.
    """
    rename = {dfa.initial: "q0"}
    others = sorted(
        (state for state in dfa.states if state != dfa.initial),
        key=repr,
    )
    for index, state in enumerate(others):
        rename[state] = f"s{index}"
    return {
        "format": "dfa",
        "states": sorted(rename.values()),
        "alphabet": sorted(dfa.alphabet),
        "initial": "q0",
        "start": sorted(dfa.start),
        "transitions": sorted(
            [rename[source], name, rename[target]]
            for (source, name), target in dfa.transitions.items()
        ),
        "assign": {
            rename[state]: model_to_json(model)
            for state, model in dfa.assign.items()
        },
    }


def xsd_to_json(xsd):
    """Serialize a formal XSD (used by fingerprint cases)."""
    return {
        "format": "xsd",
        "ename": sorted(xsd.ename),
        "types": sorted(xsd.types),
        "start": sorted(
            list(split_typed_name(typed)) for typed in xsd.start
        ),
        "rho": {
            type_name: model_to_json(model)
            for type_name, model in sorted(xsd.rho.items())
        },
    }


def schema_from_json(data):
    """Deserialize either schema format back to a live object."""
    if data["format"] == "dfa":
        return DFABasedXSD(
            states=frozenset(data["states"]),
            alphabet=frozenset(data["alphabet"]),
            transitions={
                (source, name): target
                for source, name, target in data["transitions"]
            },
            initial=data["initial"],
            start=frozenset(data["start"]),
            assign={
                state: model_from_json(model)
                for state, model in data["assign"].items()
            },
        )
    if data["format"] == "xsd":
        return XSD(
            ename=frozenset(data["ename"]),
            types=frozenset(data["types"]),
            rho={
                type_name: model_from_json(model)
                for type_name, model in data["rho"].items()
            },
            start={
                TypedName(element, type_name)
                for element, type_name in data["start"]
            },
        )
    raise ValueError(f"unknown schema format {data.get('format')!r}")


# -- the case record -------------------------------------------------------
class CorpusCase:
    """One replayable corpus entry (see the module docstring)."""

    __slots__ = (
        "case_id", "case_type", "status", "kind", "check", "description",
        "seed", "formalism", "schema", "schema_b", "document", "events",
        "pattern", "patch", "expected",
    )

    def __init__(self, case_id, case_type, status="fixed", kind=None,
                 check=None, description="", seed=None, formalism=None,
                 schema=None, schema_b=None, document=None, events=None,
                 pattern=None, patch=None, expected=None):
        if case_type not in CASE_TYPES:
            raise ValueError(f"unknown case_type {case_type!r}")
        if status not in STATUSES:
            raise ValueError(f"unknown status {status!r}")
        self.case_id = case_id
        self.case_type = case_type
        self.status = status
        self.kind = kind
        self.check = check
        self.description = description
        self.seed = seed
        self.formalism = formalism
        self.schema = schema
        self.schema_b = schema_b
        self.document = document
        self.events = events
        self.pattern = pattern
        self.patch = patch
        self.expected = dict(expected or {})

    def to_json(self):
        data = {"version": CORPUS_VERSION, "id": self.case_id,
                "case_type": self.case_type, "status": self.status,
                "description": self.description}
        for key in ("kind", "check", "seed", "formalism", "schema",
                    "schema_b", "document", "events", "pattern", "patch"):
            value = getattr(self, key)
            if value is not None:
                data[key] = value
        if self.expected:
            data["expected"] = self.expected
        return data

    @classmethod
    def from_json(cls, data):
        if data.get("version") != CORPUS_VERSION:
            raise ValueError(
                f"unsupported corpus version {data.get('version')!r}"
            )
        return cls(
            case_id=data["id"],
            case_type=data["case_type"],
            status=data.get("status", "fixed"),
            kind=data.get("kind"),
            check=data.get("check"),
            description=data.get("description", ""),
            seed=data.get("seed"),
            formalism=data.get("formalism"),
            schema=data.get("schema"),
            schema_b=data.get("schema_b"),
            document=data.get("document"),
            events=data.get("events"),
            pattern=data.get("pattern"),
            patch=data.get("patch"),
            expected=data.get("expected"),
        )


def save_case(case, root):
    """Write one case to ``root/<id>.json``; returns the path.

    An existing file with identical content is left alone; differing
    content gets a numeric suffix rather than clobbering history.
    """
    root = pathlib.Path(root)
    root.mkdir(parents=True, exist_ok=True)
    payload = json.dumps(case.to_json(), indent=2, sort_keys=True) + "\n"
    path = root / f"{case.case_id}.json"
    suffix = 1
    while path.exists():
        if path.read_text(encoding="utf-8") == payload:
            return path
        suffix += 1
        path = root / f"{case.case_id}-{suffix}.json"
    path.write_text(payload, encoding="utf-8")
    return path


def load_corpus(root):
    """All cases under ``root``, sorted by file name."""
    root = pathlib.Path(root)
    if not root.is_dir():
        return []
    return [
        CorpusCase.from_json(
            json.loads(path.read_text(encoding="utf-8"))
        )
        for path in sorted(root.glob("*.json"))
    ]


# -- replay ----------------------------------------------------------------
def replay_case(case, oracle=None):
    """Re-execute one corpus case; returns a list of problems (empty=ok)."""
    if case.case_type == "differential":
        return _replay_differential(case, oracle)
    if case.case_type == "pinned":
        return _replay_pinned(case)
    if case.case_type == "fingerprint":
        return _replay_fingerprint(case)
    if case.case_type == "incremental":
        return _replay_incremental(case)
    if case.case_type == "diff":
        return _replay_diff(case)
    return _replay_regex(case)


def _replay_diff(case):
    """Diff certificate shape + machine verification on a pinned pair.

    ``schema``/``schema_b`` are the left/right DFA-based schemas;
    ``expected`` supports:

    * ``equivalent`` (bool) — the verdict.
    * ``certificates`` — a list of per-certificate expectations, matched
      positionally: ``path`` (list), ``kind``, and per-direction
      ``side`` / ``separator_kind`` (``None`` = fallback expected) /
      ``atom`` / ``description_contains``.

    Every emitted separator is re-verified from first principles:
    the diff direction's language (``mine \\ other``) must be contained
    in the separator DFA, which must be disjoint from the other side's
    whole content language — so corpus replay catches both wording and
    soundness regressions.
    """
    from repro.automata.operations import (
        difference,
        intersection,
        is_empty,
        is_subset,
    )
    from repro.diff import schema_diff

    left = schema_from_json(case.schema)
    right = schema_from_json(case.schema_b)
    diff = schema_diff(left, right)
    problems = []
    expected_equivalent = case.expected.get("equivalent")
    if expected_equivalent is not None \
            and diff.equivalent != expected_equivalent:
        problems.append(
            f"expected equivalent={expected_equivalent}, "
            f"got {diff.equivalent}"
        )
        return problems

    expectations = case.expected.get("certificates", ())
    if expectations and len(diff.certificates) < len(expectations):
        problems.append(
            f"expected at least {len(expectations)} certificate(s), "
            f"got {len(diff.certificates)}"
        )
        return problems
    for expected, certificate in zip(expectations, diff.certificates):
        prefix = f"certificate at {certificate.location}"
        if "path" in expected \
                and list(certificate.path) != list(expected["path"]):
            problems.append(
                f"{prefix}: expected path {expected['path']}, "
                f"got {certificate.path}"
            )
        if "kind" in expected and certificate.kind != expected["kind"]:
            problems.append(
                f"{prefix}: expected kind {expected['kind']!r}, "
                f"got {certificate.kind!r}"
            )
        directions = {d.side: d for d in certificate.directions}
        for expected_direction in expected.get("directions", ()):
            side = expected_direction["side"]
            direction = directions.get(side)
            if direction is None:
                problems.append(f"{prefix}: no {side!r} direction")
                continue
            separator_kind = (direction.separator.kind
                              if direction.separator else None)
            if "separator_kind" in expected_direction \
                    and separator_kind != \
                    expected_direction["separator_kind"]:
                problems.append(
                    f"{prefix}/{side}: expected separator kind "
                    f"{expected_direction['separator_kind']!r}, "
                    f"got {separator_kind!r}"
                )
            if "atom" in expected_direction and (
                    direction.separator is None
                    or list(direction.separator.atom or ())
                    != list(expected_direction["atom"])):
                problems.append(
                    f"{prefix}/{side}: expected atom "
                    f"{expected_direction['atom']}, got "
                    f"{direction.separator and direction.separator.atom}"
                )
            for needle in expected_direction.get(
                    "description_contains", ()):
                if needle not in direction.describe():
                    problems.append(
                        f"{prefix}/{side}: description "
                        f"{direction.describe()!r} lacks {needle!r}"
                    )

    # Machine-verify every emitted separator, expected or not.
    for certificate in diff.certificates:
        if certificate.kind != "content":
            continue
        contents = {"left": certificate.left_content,
                    "right": certificate.right_content}
        for direction in certificate.directions:
            if direction.separator is None:
                continue
            mine = contents[direction.side]
            other = contents[direction.other]
            only_mine = difference(mine, other)
            if not is_subset(only_mine, direction.separator.dfa):
                problems.append(
                    f"certificate at {certificate.location}/"
                    f"{direction.side}: separator does not contain the "
                    "difference language"
                )
            if not is_empty(intersection(
                    direction.separator.dfa, other)):
                problems.append(
                    f"certificate at {certificate.location}/"
                    f"{direction.side}: separator intersects the other "
                    "side's language"
                )
    return problems


def _replay_differential(case, oracle):
    from repro.conformance.oracle import DifferentialOracle
    from repro.xmlmodel import parse_document

    if oracle is None:
        oracle = DifferentialOracle()
    problems = []
    try:
        dfa = schema_from_json(case.schema)
    except (ReproError, ValueError, KeyError) as error:
        return [f"schema failed to load: {error}"]
    document = None
    if case.document is not None:
        try:
            document = parse_document(case.document)
        except ReproError as error:
            return [f"document failed to parse: {error}"]

    prepared = oracle.prepare(dfa)
    disagreements = list(prepared.failures)
    disagreements.extend(oracle.check_roundtrips(dfa))
    if document is not None:
        disagreements.extend(oracle.check_document(prepared, document))

    if case.status == "fixed":
        for disagreement in disagreements:
            problems.append(
                f"regressed: {disagreement.kind}/{disagreement.check}: "
                f"{disagreement.detail}"
            )
        expected_valid = case.expected.get("valid")
        if expected_valid is not None and document is not None \
                and prepared.xsd is not None:
            from repro.xsd.validator import validate_xsd

            report = validate_xsd(prepared.xsd, document)
            if report.valid != expected_valid:
                problems.append(
                    f"verdict drifted: expected "
                    f"{'valid' if expected_valid else 'invalid'}, got "
                    f"{'valid' if report.valid else 'invalid'}"
                )
    else:  # open: the recorded disagreement must still reproduce
        if not any(d.kind == case.kind for d in disagreements):
            problems.append(
                "appears fixed: the recorded disagreement "
                f"({case.kind}/{case.check}) no longer reproduces — "
                "flip this case's status to 'fixed'"
            )
    return problems


#: The route a text document took, from the change in the
#: ``engine.dense.docs`` and ``engine.dense.fallbacks`` counters: a dense
#: commit, a dense attempt that fell back, or no dense attempt at all (a
#: schema without dense tables).
_ROUTES = {(1, 0): "dense", (0, 1): "fallback", (0, 0): "dict"}


def _replay_pinned(case):
    """Streaming report expectations; ``expected["path"]`` (``"dense"``,
    ``"fallback"`` or ``"dict"``, see :data:`_ROUTES`) also pins which
    route a text document took."""
    from repro.engine import StreamingValidator, compile_xsd
    from repro.observability import default_registry
    from repro.translation import dfa_based_to_xsd

    problems = []
    schema = schema_from_json(case.schema)
    xsd = (dfa_based_to_xsd(schema)
           if isinstance(schema, DFABasedXSD) else schema)
    validator = StreamingValidator(compile_xsd(xsd))
    if case.events is not None:
        events = [tuple(event) for event in case.events]
        report = validator.validate_events(iter(events))
    else:
        registry = default_registry()
        counters = [registry.counter(f"engine.dense.{name}")
                    for name in ("docs", "fallbacks")]
        before = [counter.value for counter in counters]
        report = validator.validate(case.document)
        route = _ROUTES.get(tuple(
            counter.value - value for counter, value in zip(counters, before)
        ))
        expected = case.expected.get("path")
        if expected is not None and route != expected:
            problems.append(
                f"the document took the {route} path, not the {expected} path"
            )
    return _check_report(case.expected, report, problems)


def _check_report(expected, report, problems):
    if "valid" in expected and report.valid != expected["valid"]:
        problems.append(
            f"expected {'valid' if expected['valid'] else 'invalid'}, "
            f"got {'valid' if report.valid else 'invalid'}: "
            f"{report.violations}"
        )
    count = expected.get("violation_count")
    if count is not None and len(report.violations) != count:
        problems.append(
            f"expected {count} violation(s), got "
            f"{len(report.violations)}: {report.violations}"
        )
    for needle in expected.get("violations_contain", ()):
        if not any(needle in violation for violation in report.violations):
            problems.append(
                f"no violation mentions {needle!r}: {report.violations}"
            )
    return problems


def _replay_incremental(case):
    """Incremental-vs-full agreement on a pinned (schema, doc, patch).

    The patch is applied two ways — to a raw tree revalidated from
    scratch, and through a :class:`ValidatedDocument` — and the two
    reports must agree on verdict, violation multiset, and typing;
    ``expected`` is then checked against the (shared) final report.
    """
    from repro.engine import ValidatedDocument, compile_xsd
    from repro.translation import dfa_based_to_xsd
    from repro.xmlmodel import parse_document, parse_patch
    from repro.xmlmodel.patch import clone_element
    from repro.xmlmodel.tree import XMLDocument
    from repro.xsd.validator import validate_xsd

    schema = schema_from_json(case.schema)
    xsd = (dfa_based_to_xsd(schema)
           if isinstance(schema, DFABasedXSD) else schema)
    try:
        document = parse_document(case.document)
        patch = parse_patch(case.patch)
    except ReproError as error:
        return [f"case failed to load: {error}"]

    full_doc = XMLDocument(clone_element(document.root))
    patch.apply_full(full_doc)
    full = validate_xsd(xsd, full_doc)
    handle = ValidatedDocument(document, compile_xsd(xsd))
    patch.apply_incremental(handle)
    inc = handle.report()

    problems = []
    if handle.valid != (not full.violations):
        problems.append(
            f"verdicts diverge: full="
            f"{'valid' if not full.violations else 'invalid'}, "
            f"incremental={'valid' if handle.valid else 'invalid'}"
        )
    if sorted(inc.violations) != sorted(full.violations):
        problems.append(
            f"violation multisets diverge: full="
            f"{sorted(full.violations)} vs incremental="
            f"{sorted(inc.violations)}"
        )
    if inc.typing != full.typing or list(inc.typing) != list(full.typing):
        problems.append(
            f"typings diverge: full={full.typing} vs "
            f"incremental={inc.typing}"
        )
    return _check_report(case.expected, inc, problems)


def _replay_fingerprint(case):
    from repro.engine import schema_fingerprint

    left = schema_from_json(case.schema)
    right = schema_from_json(case.schema_b)
    equal = schema_fingerprint(left) == schema_fingerprint(right)
    expected_equal = case.expected.get("equal", False)
    if equal != expected_equal:
        return [
            f"fingerprints expected to be "
            f"{'equal' if expected_equal else 'distinct'} but were not"
        ]
    return []


def _replay_regex(case):
    from repro.regex.derivatives import DerivativeMatcher
    from repro.regex.parser import parse_regex
    from repro.regex.printer import to_string

    problems = []
    try:
        regex = parse_regex(case.pattern)
    except ReproError as error:
        return [f"pattern failed to parse: {error}"]
    matcher = DerivativeMatcher(regex)
    for word in case.expected.get("accepts", ()):
        if not matcher.matches(list(word)):
            problems.append(f"should accept {word!r}")
    for word in case.expected.get("rejects", ()):
        if matcher.matches(list(word)):
            problems.append(f"should reject {word!r}")
    printed = case.expected.get("prints_as")
    if printed is not None and to_string(regex) != printed:
        problems.append(
            f"prints as {to_string(regex)!r}, expected {printed!r}"
        )
    equivalent_to = case.expected.get("parses_like")
    if equivalent_to is not None and parse_regex(equivalent_to) != regex:
        problems.append(
            f"{case.pattern!r} no longer parses like {equivalent_to!r}"
        )
    return problems
