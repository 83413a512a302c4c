"""Incremental revalidation of edit streams against a compiled schema.

Production validation traffic is dominated by *small edits to large
documents*: an editor inserts a paragraph, a pipeline patches one
attribute, a sync protocol replaces one subtree.  Re-running the whole
validator per edit costs O(document); the paper's single-type restriction
makes O(edit footprint) possible instead.  By EDC, an element's type is a
function of its parent's type and its own label alone — so an edit to the
children of one element can never change the type (or the verdict) of
anything outside that element's content word and the new subtree itself:

* **insert/delete/replace of a child** re-runs only the touched parent's
  content word against its content-model DFA.  The per-element DFA state
  path recorded at validation time (the memo ``explain`` reads its
  records from) lets even that be partial: states up to the edit offset
  replay from the memo, and only the suffix runs the dense row loop.
* **a new subtree** is typed and checked by the ordinary validator walk —
  its root's type is forced by the parent's type and its label, so the
  walk never looks outside the subtree.
* **attribute and text edits** recheck one element's attribute masks or
  mixedness flag; the content word is untouched.

:class:`ValidatedDocument` is the handle pairing an
:class:`~repro.xmlmodel.tree.XMLDocument` with its
:class:`~repro.engine.compiler.CompiledSchema` and the per-element
provenance (type assignment + DFA state path + locally attributed
violations).  All edits MUST go through its API — mutating the underlying
tree directly leaves the memo stale.  After every edit the handle's
:meth:`report` agrees with a from-scratch run of the tree or streaming
validator on verdict, violation multiset, and typing (the conformance
harness's ``incremental`` leg enforces this on seeded edit storms), and
:meth:`provenance` lists the per-element records ``explain`` prints.

Observability: ``engine.incremental.*`` counters (documents, edits by
operation, nodes typed, memo hits) and ``engine.incremental.build`` /
``engine.incremental.edit`` spans.
"""

from __future__ import annotations

import contextlib
import time

from repro.engine.compiler import CompiledSchema
from repro.errors import SchemaError
from repro.observability import default_registry
from repro.observability.provenance import ElementProvenance, first_divergence
from repro.observability.tracing import span
from repro.xmlmodel.patch import resolve
from repro.xmlmodel.tree import XMLDocument, XMLElement
from repro.xsd.validator import XSDValidationReport


class _NodeState:
    """Per-element provenance: the memo incremental revalidation replays.

    Attributes:
        type_id: the element's compiled type id (unique typing, Def. 2).
        path: the element's slash path (stable: labels never change in
            place — ``replace_subtree`` swaps whole nodes).
        states: content-DFA state path (seen-masks for a bag type);
            ``states[0] == 0`` and one state is appended per *recognized*
            child; the ``dfa_states`` of the element's provenance entry.
        recognized: True iff every child's label is declared under this
            type (only then is the content word checked for acceptance,
            mirroring both reference validators).
        child_viols: "not allowed under" messages, one per unrecognized
            child.
        content_viol: the children-don't-match message, or ``None``.
        text_viol: the may-not-contain-text message, or ``None``.
        attr_viols: missing-required / undeclared attribute messages.
    """

    __slots__ = ("type_id", "path", "states", "recognized", "child_viols",
                 "content_viol", "text_viol", "attr_viols")

    def __init__(self, type_id, path):
        self.type_id = type_id
        self.path = path
        self.states = [0]
        self.recognized = True
        self.child_viols = []
        self.content_viol = None
        self.text_viol = None
        self.attr_viols = []

    def local_violations(self):
        """This element's violations, in the tree validator's order."""
        out = list(self.child_viols)
        if self.content_viol is not None:
            out.append(self.content_viol)
        if self.text_viol is not None:
            out.append(self.text_viol)
        out.extend(self.attr_viols)
        return out


class ValidatedDocument:
    """An XML tree + compiled schema + per-element provenance, editable.

    Args:
        document: an :class:`~repro.xmlmodel.tree.XMLDocument` (or a bare
            :class:`~repro.xmlmodel.tree.XMLElement`, wrapped).  The
            handle takes ownership: edit only through this API.
        schema: a :class:`CompiledSchema`, or a formal
            :class:`~repro.xsd.model.XSD` compiled through the default
            schema cache.

    The initial construction performs one full validation walk (the same
    cost as a single from-scratch validation); every subsequent edit
    revalidates only its footprint.
    """

    __slots__ = ("document", "schema", "_nodes", "_invalid",
                 "_root_declared")

    def __init__(self, document, schema, cache=None):
        if isinstance(document, XMLElement):
            document = XMLDocument(document)
        if not isinstance(schema, CompiledSchema):
            from repro.engine.cache import compile_cached

            schema = compile_cached(schema, cache)
        self.document = document
        self.schema = schema
        self._nodes = {}
        self._invalid = set()
        self._root_declared = False
        registry = default_registry()
        registry.counter("engine.incremental.documents").inc()
        with span("engine.incremental.build") as trace:
            self._build()
            trace.set_attribute("nodes", len(self._nodes))

    # -- initial walk ------------------------------------------------------
    def _build(self):
        self._nodes.clear()
        self._invalid.clear()
        root = self.document.root
        type_id = self.schema.start.get(root.name)
        self._root_declared = type_id is not None
        if self._root_declared:
            self._type_subtree(root, type_id, "/" + root.name)

    def _type_subtree(self, node, type_id, path):
        """Validate and record one subtree top-down (iterative).

        The subtree's root type is forced by the caller (parent type +
        label, per EDC); children resolve through the compiled tables.
        Returns the number of elements typed (skipped subtrees under
        unrecognized children are not typed, matching the reference
        validators).
        """
        types = self.schema.types
        nodes = self._nodes
        typed = 0
        stack = [(node, type_id, path)]
        while stack:
            node, type_id, path = stack.pop()
            state = _NodeState(type_id, path)
            nodes[id(node)] = state
            typed += 1
            compiled = types[type_id]
            attributes = node.attributes
            if attributes or compiled.required_attrs:
                state.attr_viols = compiled.attribute_violations(
                    path, node.name, attributes
                )
            self._check_text(node, compiled, state)
            self._run_content(node, compiled, state, offset=0)
            self._refresh_validity(node, state)
            symbol_ids = compiled.dfa.symbol_ids
            child_types = compiled.child_types
            for child in node.children:
                # A non-child's column -1 reads child_types' trailing -1.
                child_type = child_types[symbol_ids.get(child.name, -1)]
                if child_type >= 0:
                    stack.append((child, child_type, f"{path}/{child.name}"))
        # One content replay per typed element, none from the memo
        # (offset 0); counted once per walk, not per element.
        registry = default_registry()
        registry.counter("engine.incremental.nodes_typed").inc(typed)
        registry.counter("engine.incremental.content_replays").inc(typed)
        return typed

    # -- per-element checks (shared with the streaming compat loop) -------
    def _check_text(self, node, compiled, state):
        if not compiled.mixed and node.has_text():
            state.text_viol = compiled.text_not_allowed(state.path, node.name)
        else:
            state.text_viol = None

    def _run_content(self, node, compiled, state, offset):
        """Re-run the content word from ``offset``, replaying the memo.

        ``state.states[:offset + 1]`` is reused verbatim when the prefix
        is trustworthy (every earlier child was recognized, so the memo
        aligns with child positions); otherwise the word replays from
        the initial state.  The forward loop steps the type's own
        ``ContentDFA`` table at each child's column, or for a bag its
        seen-mask exactly as ``ContentBag.step`` does (the memo is then a
        list of masks).  Returns True iff the memo supplied the prefix;
        callers count replays and memo hits.
        """
        children = node.children
        memo_hit = state.recognized and 0 < offset < len(state.states)
        if memo_hit:
            states = state.states[:offset + 1]
            begin = offset
        else:
            states = [0]
            begin = 0
        current = states[-1]
        recognized = True
        viols = []
        dfa = compiled.dfa
        symbol_ids = dfa.symbol_ids
        child_types = compiled.child_types
        bag = compiled.bag
        for child in children[begin:]:
            column = symbol_ids.get(child.name, -1)
            if child_types[column] < 0:  # -1 reads the trailing -1
                recognized = False
                viols.append(compiled.child_not_allowed(
                    state.path, node.name, child.name
                ))
                continue
            if bag is None:
                current = dfa.table[current][column]
            else:  # a repeated once-member sets the dead bit
                bit = 1 << column
                current |= bag.dead if current & bit & bag.once else bit
            states.append(current)
        accepted = dfa.is_accepting(current)
        state.states = states
        state.recognized = recognized
        state.child_viols = viols
        if recognized and not accepted:
            state.content_viol = compiled.content_mismatch(
                state.path, node.name, [child.name for child in children]
            )
        else:
            state.content_viol = None
        return memo_hit

    # -- edit API ----------------------------------------------------------
    def node_at(self, path):
        """The element at a child-index path (``()`` is the root).

        Raises :class:`~repro.errors.PatchError` when an index is out
        of range, with the offending prefix named
        (:func:`repro.xmlmodel.patch.resolve`).
        """
        return resolve(self.document.root, path)

    def insert_child(self, parent, index, child, text_after=""):
        """Insert ``child`` under ``parent`` at ``index``; revalidate.

        Only the parent's content word (from ``index`` on) and the new
        subtree are revalidated; every element outside that footprint
        keeps its provenance verbatim.
        """
        with self._edit("insert_child") as trace:
            parent.insert(index, child, text_after)
            trace.set_attribute("subtree", sum(1 for __ in child.iter()))
            self._after_child_edit(parent, index, new_child=child)

    def delete_child(self, parent, index):
        """Delete the child at ``index``; revalidate the parent's word.

        Returns the detached subtree (its provenance is dropped — a
        re-inserted subtree is retyped like any new one).
        """
        with self._edit("delete_child"):
            removed = parent.remove_child(index)
            self._purge(removed)
            self._after_child_edit(parent, index)
        return removed

    def replace_subtree(self, node, replacement):
        """Replace ``node`` (possibly the root) with ``replacement``.

        Replacing the root re-runs the whole initial walk (the footprint
        *is* the document); anything else revalidates one content word
        plus the new subtree.  Returns the detached old subtree.
        """
        with self._edit("replace_subtree") as trace:
            trace.set_attribute(
                "subtree", sum(1 for __ in replacement.iter())
            )
            parent = node.parent
            if parent is None:
                if node is not self.document.root:
                    raise SchemaError(
                        "replace_subtree target is not part of this "
                        "document"
                    )
                if replacement.parent is not None:
                    raise SchemaError(
                        f"element <{replacement.name}> already has a "
                        f"parent <{replacement.parent.name}>"
                    )
                self.document.root = replacement
                self._purge(node)
                self._build()
                return node
            self._purge(node)
            index = parent.replace_child(node, replacement)
            self._after_child_edit(parent, index, new_child=replacement)
        return node

    def set_attribute(self, node, name, value):
        """Set (or, with ``value=None``, remove) one attribute.

        Only the touched element's attribute checks re-run; the content
        word and every other element are untouched.
        """
        with self._edit("set_attribute"):
            if value is None:
                node.attributes.pop(name, None)
            else:
                node.attributes[name] = value
            state = self._nodes.get(id(node))
            if state is not None:
                compiled = self.schema.types[state.type_id]
                state.attr_viols = compiled.attribute_violations(
                    state.path, node.name, node.attributes
                )
                self._refresh_validity(node, state)

    def set_text(self, node, text, index=0):
        """Replace the text run at ``index`` (before child ``index``).

        Only the touched element's mixedness check re-runs.
        """
        with self._edit("set_text"):
            if not 0 <= index < len(node.texts):
                raise SchemaError(
                    f"text index {index} out of range for element "
                    f"<{node.name}> with {len(node.children)} child(ren)"
                )
            node.texts[index] = text
            state = self._nodes.get(id(node))
            if state is not None:
                self._check_text(
                    node, self.schema.types[state.type_id], state
                )
                self._refresh_validity(node, state)

    # -- edit plumbing -----------------------------------------------------
    @contextlib.contextmanager
    def _edit(self, op):
        registry = default_registry()
        registry.counter("engine.incremental.edits").inc()
        registry.counter(f"engine.incremental.edits.{op}").inc()
        started = time.perf_counter_ns()
        with span("engine.incremental.edit") as trace:
            trace.set_attribute("op", op)
            yield trace
        registry.histogram("engine.incremental.edit_ns").observe(
            time.perf_counter_ns() - started
        )

    def _after_child_edit(self, parent, index, new_child=None):
        """Revalidate the footprint of a child insert/delete/replace."""
        state = self._nodes.get(id(parent))
        if state is None:
            # The parent lives in a skipped subtree (or under an
            # undeclared root): structurally applied, nothing to check.
            return
        compiled = self.schema.types[state.type_id]
        registry = default_registry()
        registry.counter("engine.incremental.content_replays").inc()
        if self._run_content(parent, compiled, state, offset=index):
            registry.counter("engine.incremental.memo_hits").inc()
        # insert/delete may move character data between runs.
        self._check_text(parent, compiled, state)
        self._refresh_validity(parent, state)
        if new_child is not None:
            column = compiled.dfa.symbol_ids.get(new_child.name, -1)
            child_type = compiled.child_types[column]
            if child_type >= 0:
                self._type_subtree(
                    new_child, child_type, f"{state.path}/{new_child.name}"
                )

    def _purge(self, subtree):
        nodes = self._nodes
        invalid = self._invalid
        for node in subtree.iter():
            key = id(node)
            nodes.pop(key, None)
            invalid.discard(key)

    def _refresh_validity(self, node, state):
        """Keep the invalid-element index in step with ``state``."""
        bad = (
            not state.recognized
            or state.content_viol is not None
            or state.text_viol is not None
            or bool(state.attr_viols)
        )
        if bad:
            self._invalid.add(id(node))
        else:
            self._invalid.discard(id(node))

    # -- reporting ---------------------------------------------------------
    @property
    def valid(self):
        """True iff the current tree conforms (O(1): an indexed check)."""
        return self._root_declared and not self._invalid

    def report(self):
        """An :class:`XSDValidationReport` for the *current* tree.

        Violations and typing agree with a from-scratch run of the tree
        validator (violation order included: both walk the typed nodes
        pre-order and emit each element's violations before its
        children's).  The streaming validator agrees on the multiset.
        """
        report = XSDValidationReport()
        if not self._root_declared:
            report.violations.append(
                self.schema.undeclared_root(self.document.root.name)
            )
            return report
        types = self.schema.types
        for __, typed_path, state in self._typed_nodes():
            report.typing[typed_path] = types[state.type_id].name
            report.violations.extend(state.local_violations())
        return report

    def provenance(self, rule_of=None):
        """One :class:`~repro.observability.ElementProvenance` per typed
        element, in document order (the ``explain`` records).

        Each entry carries the element's type and content state path
        (``tuple(states)``) and, for an invalid element, the first
        reason in the order a streaming pass meets them: a missing
        required attribute, then an undeclared one; the first child not
        allowed; the content model's first divergence; text in
        element-only content.

        Args:
            rule_of: optional ``id(element) -> BXSD rule index`` map
                (:attr:`~repro.bonxai.bxsd.MatchReport.rule_of` of a
                match over this handle's tree) for ``rule_index``.
        """
        if not self._root_declared:
            return []
        types = self.schema.types
        invalid = self._invalid
        entries = []
        for node, typed_path, state in self._typed_nodes():
            compiled = types[state.type_id]
            entry = ElementProvenance(
                state.path, typed_path, node.name, compiled.name
            )
            entry.dfa_states = tuple(state.states)
            if rule_of is not None:
                entry.rule_index = rule_of.get(id(node))
            if id(node) in invalid:
                entry.mark_invalid(self._first_reason(node, compiled, state))
            entries.append(entry)
        return entries

    def _first_reason(self, node, compiled, state):
        """Why an invalid element failed (see :meth:`provenance`)."""
        if state.attr_viols:
            missing, name = compiled.attribute_problems(node.attributes)[0]
            if missing:
                return f"missing required attribute {name!r}"
            return f"undeclared attribute {name!r}"
        if not state.recognized:
            nodes = self._nodes
            child = next(
                child for child in node.children if id(child) not in nodes
            )
            return (
                f"child <{child.name}> is not allowed under <{node.name}> "
                f"(type {compiled.name})"
            )
        if state.content_viol is not None:
            return first_divergence(
                compiled.dfa, [child.name for child in node.children]
            )
        return f"contains text but type {compiled.name} is not mixed"

    def _typed_nodes(self):
        """``(node, typed path, state)`` for every typed element, in
        document order (pre-order; the root must be declared).

        Sibling ordinals count typed (recognized) children only, exactly
        as the reference validators assign them.
        """
        nodes = self._nodes
        root = self.document.root
        stack = [(root, f"/{root.name}[1]")]
        while stack:
            node, typed_path = stack.pop()
            yield node, typed_path, nodes[id(node)]
            ordinals = {}
            typed_children = []
            for child in node.children:
                if id(child) not in nodes:
                    continue
                ordinal = ordinals[child.name] = (
                    ordinals.get(child.name, 0) + 1
                )
                typed_children.append(
                    (child, f"{typed_path}/{child.name}[{ordinal}]")
                )
            stack.extend(reversed(typed_children))

    def provenance_of(self, node):
        """``(type name, DFA state path)`` for one element, or ``None``.

        The state path is the ``dfa_states`` of the element's
        :meth:`provenance` entry (initial state 0, one state per
        recognized child).
        """
        state = self._nodes.get(id(node))
        if state is None:
            return None
        return (
            self.schema.types[state.type_id].name, tuple(state.states)
        )

    def __len__(self):
        """The number of typed elements."""
        return len(self._nodes)

    def __repr__(self):
        return (
            f"<ValidatedDocument root={self.document.root.name} "
            f"typed={len(self._nodes)} valid={self.valid}>"
        )
