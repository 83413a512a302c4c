"""Schema diff: per-element-type difference certificates.

:func:`schema_diff` compares two schemas at the DFA-based corner (every
formalism in the translation square rides its arrows there first) and
turns each diverging element type into a :class:`DiffCertificate`:

* **where** — the ancestor path and the two schemas' states (the XSD
  type / BonXai rule context) at the divergence;
* **why** — per direction (words only the left accepts, words only the
  right accepts), a :class:`~repro.diff.separators.Separator` when a
  small k-piecewise-testable one exists ("left allows 'a'
  eventually-followed-by 'b'; right never does"), otherwise the
  shortest counterexample child-word;
* **proof** — the separator DFA is machine-checkable (contains the
  difference language, disjoint from the other side), and every
  direction carries a *concrete witness document* valid against exactly
  one schema, built deterministically along the divergence path.

The walk itself is :func:`~repro.xsd.equivalence.dfa_xsd_divergences`;
this layer adds the separator search (budget- and span-instrumented)
and the rendering (text and JSON) the ``repro diff`` CLI and the
conformance oracle's round-trip findings share.
"""

from __future__ import annotations

from repro.automata.operations import difference, is_empty, some_word
from repro.diff.separators import find_separator
from repro.errors import ReproError
from repro.observability import current_budget, span
from repro.xmlmodel.tree import XMLDocument, XMLElement
from repro.xmlmodel.writer import write_document
from repro.xsd.equivalence import dfa_xsd_divergences

#: Default cap on certificates per diff — a pathological pair of schemas
#: can diverge at every state pair; the first few certificates carry
#: the signal.
MAX_CERTIFICATES = 8


class DirectionCertificate:
    """One direction of a divergence: words accepted by exactly one side.

    Attributes:
        side: ``left`` or ``right`` — who accepts the extra words.
        separator: a :class:`Separator` containing this side's
            difference language and excluding the *whole* other content
            language, or ``None`` when no small one exists.
        witness_word: a shortest child-word in the difference (always
            present — the fallback certificate).
        witness_document: XML text of a document valid against exactly
            this side's schema, or ``None`` when construction failed.
    """

    __slots__ = ("side", "separator", "witness_word", "witness_document",
                 "note")

    def __init__(self, side, separator, witness_word,
                 witness_document=None, note=None):
        self.side = side
        self.separator = separator
        self.witness_word = list(witness_word)
        self.witness_document = witness_document
        self.note = note

    @property
    def other(self):
        return "right" if self.side == "left" else "left"

    def describe(self):
        """The one-line human-readable difference statement."""
        if self.note is not None:
            return self.note
        if self.separator is not None:
            return self.separator.describe(
                inside=self.side, outside=self.other
            )
        word = " ".join(self.witness_word) or "(empty)"
        return (
            f"no small separator; {self.side} accepts the child-word "
            f"[{word}] which {self.other} rejects"
        )

    def to_json(self):
        data = {
            "side": self.side,
            "witness_word": list(self.witness_word),
            "description": self.describe(),
        }
        if self.separator is not None:
            data["separator"] = self.separator.to_json()
        if self.witness_document is not None:
            data["witness_document"] = self.witness_document
        return data


class DiffCertificate:
    """One diverging element type, with its direction certificates.

    Attributes:
        kind: ``content`` (a synchronized type's languages differ) or
            ``roots`` (the allowed root-name sets differ).
        path: element names from the root to the diverging node.
        left_type / right_type: the schemas' states there (XSD type
            names when the schema came from an XSD), ``None`` for
            ``roots``.
        directions: one or two :class:`DirectionCertificate` objects.
        detail: the underlying divergence one-liner.
        left_content / right_content: the productive-letter-restricted
            content DFAs the certificate was computed from (``None``
            for ``roots``; not serialized) — tests re-verify separators
            against these from first principles.
    """

    __slots__ = ("kind", "path", "left_type", "right_type", "directions",
                 "detail", "left_content", "right_content")

    def __init__(self, kind, path, detail, left_type=None, right_type=None,
                 directions=(), left_content=None, right_content=None):
        self.kind = kind
        self.path = list(path)
        self.detail = detail
        self.left_type = left_type
        self.right_type = right_type
        self.directions = list(directions)
        self.left_content = left_content
        self.right_content = right_content

    @property
    def location(self):
        return "/" + "/".join(self.path)

    def summary(self):
        """The first direction's statement, prefixed with the location."""
        if not self.directions:
            return f"{self.location}: {self.detail}"
        return f"{self.location}: {self.directions[0].describe()}"

    def render(self):
        """Multi-line text rendering (the CLI's default output)."""
        lines = []
        if self.kind == "roots":
            lines.append(f"{self.location or '/'}: {self.detail}")
        else:
            context = ""
            if self.left_type is not None:
                context = (
                    f" (left type {self.left_type!r}, "
                    f"right type {self.right_type!r})"
                )
            lines.append(f"{self.location}{context}:")
        for direction in self.directions:
            lines.append(f"  {direction.describe()}")
            word = " ".join(direction.witness_word) or "(empty)"
            label = (
                "extra root(s)" if self.kind == "roots"
                else "witness child-word"
            )
            lines.append(f"    {label} ({direction.side} only): [{word}]")
            if direction.witness_document is not None:
                lines.append(
                    f"    witness document (valid {direction.side} only):"
                )
                lines.extend(
                    f"      {line}"
                    for line in direction.witness_document.splitlines()
                )
        return lines

    def to_json(self):
        data = {
            "kind": self.kind,
            "path": list(self.path),
            "detail": self.detail,
            "directions": [d.to_json() for d in self.directions],
        }
        if self.left_type is not None:
            data["left_type"] = str(self.left_type)
            data["right_type"] = str(self.right_type)
        return data

    def __repr__(self):
        return f"<DiffCertificate {self.kind} at {self.location}>"


class SchemaDiff:
    """The result of one schema comparison."""

    __slots__ = ("equivalent", "certificates")

    def __init__(self, equivalent, certificates=()):
        self.equivalent = equivalent
        self.certificates = list(certificates)

    def render(self):
        if self.equivalent:
            return ["schemas are equivalent"]
        lines = [
            f"schemas differ ({len(self.certificates)} certificate(s))"
        ]
        for certificate in self.certificates:
            lines.extend(certificate.render())
        return lines

    def to_json(self):
        return {
            "equivalent": self.equivalent,
            "certificates": [c.to_json() for c in self.certificates],
        }


def schema_diff(left, right, max_k=3, max_certificates=MAX_CERTIFICATES,
                witnesses=True):
    """Diff two DFA-based XSDs into difference certificates.

    Args:
        left / right: :class:`~repro.xsd.dfa_based.DFABasedXSD` anchors
            (use the translation arrows to get any formalism here).
        max_k: bound on the separator search (atom length / piecewise
            depth).
        max_certificates: most diverging element types reported.
        witnesses: also build one concrete witness document per
            direction (valid against exactly one schema).

    Returns:
        A :class:`SchemaDiff`; ``equivalent`` is decided by the same
        walk :func:`~repro.xsd.equivalence.dfa_xsd_equivalent` runs, so
        the two verdicts agree by construction.
    """
    budget = current_budget()
    with span("diff.schema", max_k=max_k) as diff_span:
        left_witness = _WitnessBuilder(left) if witnesses else None
        right_witness = _WitnessBuilder(right) if witnesses else None
        certificates = []
        for divergence in dfa_xsd_divergences(
                left, right, limit=max_certificates):
            if budget is not None:
                budget.check_time(where="diff.schema")
            if divergence.kind == "roots":
                certificates.append(_root_certificate(
                    left, right, divergence, left_witness, right_witness
                ))
            else:
                certificates.append(_content_certificate(
                    divergence, max_k, left_witness, right_witness
                ))
        diff_span.set_attribute("certificates", len(certificates))
        diff_span.set_attribute(
            "verdict", "equivalent" if not certificates else "differ"
        )
    return SchemaDiff(not certificates, certificates)


def _content_certificate(divergence, max_k, left_witness, right_witness):
    """Certificates for one diverging content-language pair."""
    directions = []
    sides = (
        ("left", divergence.left_content, divergence.right_content,
         left_witness, divergence.left_state),
        ("right", divergence.right_content, divergence.left_content,
         right_witness, divergence.right_state),
    )
    for side, mine, other, witness_builder, state in sides:
        only_mine = difference(mine, other)
        if is_empty(only_mine):
            continue
        with span("diff.direction", side=side):
            separator = find_separator(only_mine, other, max_k=max_k)
            word = some_word(only_mine)
            document = None
            if witness_builder is not None:
                document = witness_builder.document(divergence.path, word)
        directions.append(DirectionCertificate(
            side, separator, word, document
        ))
    return DiffCertificate(
        "content", divergence.path, divergence.detail,
        left_type=divergence.left_state,
        right_type=divergence.right_state,
        directions=directions,
        left_content=divergence.left_content,
        right_content=divergence.right_content,
    )


def _root_certificate(left, right, divergence, left_witness,
                      right_witness):
    """The certificate for differing allowed-root-name sets."""
    from repro.xsd.equivalence import productive_roots

    left_roots = productive_roots(left)
    right_roots = productive_roots(right)
    directions = []
    for side, mine, others, witness_builder in (
        ("left", left_roots, right_roots, left_witness),
        ("right", right_roots, left_roots, right_witness),
    ):
        only = sorted(mine - others)
        if not only:
            continue
        document = None
        if witness_builder is not None:
            document = witness_builder.document([only[0]], None)
        other = "right" if side == "left" else "left"
        names = ", ".join(repr(name) for name in only)
        directions.append(DirectionCertificate(
            side, None, only, document,
            note=(
                f"{side} allows root element(s) {names}; "
                f"{other} does not"
            ),
        ))
    certificate = DiffCertificate(
        "roots", [], divergence.detail, directions=directions
    )
    return certificate


class _WitnessBuilder:
    """Builds minimal documents realizing a divergence on one schema.

    The document follows the divergence ``path`` from the root: every
    ancestor gets a shortest valid child-word *containing* the next
    path label, the diverging node gets exactly the witness child-word,
    and every other subtree is closed with the productivity fixpoint's
    cheap words — so the result is valid against this schema whenever
    the witness word is in this schema's (restricted) content language.
    """

    def __init__(self, schema):
        from repro.xsd.generator import _GeneratorTables

        self.schema = schema
        try:
            self.tables = _GeneratorTables(schema)
        except ReproError:
            self.tables = None

    def document(self, path, witness_word):
        """XML text of the witness document, or ``None`` on failure.

        ``witness_word=None`` asks for a minimal valid document whose
        root path is ``path`` (used for root-set divergences);
        otherwise the node at the end of ``path`` gets exactly
        ``witness_word`` as its child labels.
        """
        if self.tables is None or not path:
            return None
        try:
            root = self._build_path(path, witness_word)
        except (KeyError, ValueError, ReproError):
            return None
        if root is None:
            return None
        return write_document(XMLDocument(root))

    # -- construction ------------------------------------------------------
    def _build_path(self, path, witness_word):
        state = self.schema.transitions.get(
            (self.schema.initial, path[0])
        )
        if state is None:
            return None
        return self._node(path[0], state, path[1:], witness_word)

    def _node(self, name, state, rest, witness_word):
        if not rest and witness_word is None:
            return self._minimal(name, state)
        node = self._shell(name, state)
        if not rest:
            for child_name in witness_word:
                child_state = self.schema.transitions.get(
                    (state, child_name)
                )
                if child_state is None:
                    return None
                child = self._minimal(child_name, child_state)
                if child is None:
                    return None
                node.append(child)
            return node
        # An ancestor: a shortest valid child-word containing rest[0],
        # with the distinguished occurrence recursing down the path.
        word = self._word_through(state, rest[0])
        if word is None:
            return None
        recursed = False
        for child_name in word:
            child_state = self.schema.transitions.get((state, child_name))
            if child_state is None:
                return None
            if child_name == rest[0] and not recursed:
                recursed = True
                child = self._node(
                    child_name, child_state, rest[1:], witness_word
                )
            else:
                child = self._minimal(child_name, child_state)
            if child is None:
                return None
            node.append(child)
        return node

    def _minimal(self, name, state):
        """A minimal valid subtree rooted at ``name`` (cheap words)."""
        word = self.tables.cheap_words.get(state)
        if word is None:
            return None
        node = self._shell(name, state)
        for child_name in word:
            child_state = self.schema.transitions.get((state, child_name))
            if child_state is None:
                return None
            child = self._minimal(child_name, child_state)
            if child is None:
                return None
            node.append(child)
        return node

    def _shell(self, name, state):
        node = XMLElement(name)
        model = self.schema.assign[state]
        for use in model.attributes:
            if use.required:
                node.attributes[use.name] = "x"
        return node

    def _word_through(self, state, letter):
        """Shortest word of the productive-restricted content language
        containing ``letter``; BFS over (content state, seen letter)."""
        content = self.tables.content_dfas[state]
        allowed = self.tables.productive_letters(state)
        if letter not in allowed:
            return None
        from collections import deque

        start = (content.initial, False)
        parents = {start: None}
        queue = deque([start])
        while queue:
            current = queue.popleft()
            content_state, seen = current
            if seen and content_state in content.accepting:
                word = []
                while parents[current] is not None:
                    previous, name = parents[current]
                    word.append(name)
                    current = previous
                word.reverse()
                return word
            for name in sorted(allowed):
                target = content.step(content_state, name)
                if target is None:
                    continue
                pair = (target, seen or name == letter)
                if pair not in parents:
                    parents[pair] = (current, name)
                    queue.append(pair)
        return None
