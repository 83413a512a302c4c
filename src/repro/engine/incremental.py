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
  content word against its content-model DFA, and only until the run
  rejoins the memo.  The per-element DFA state path recorded at
  validation time (the memo ``explain`` reads its records from) holds
  one state per child position, so the states up to the edit offset are
  reused as they are; the replay steps the type's table from there and
  stops as soon as its state equals the memo's state before the same
  child (the DFA is deterministic, so equal states before equal suffixes
  give equal runs), splicing the memo's tail back in.  A bag's masks
  only grow, so a bag replays to the end of its (narrow) word.
* **a new subtree** is typed and checked by the same one-pass walk that
  opens a document: the column a parent's content step reads names the
  child's type, so the step that checks a child also types it, and the
  walk never looks outside the subtree.
* **attribute and text edits** recheck one element's attribute masks or
  mixedness flag; the content word is untouched.

:class:`ValidatedDocument` is the handle pairing an
:class:`~repro.xmlmodel.tree.XMLDocument` with its
:class:`~repro.engine.compiler.CompiledSchema` and the per-element
provenance (type assignment + DFA state path + locally attributed
violations).  Each element's record lives on the element itself
(:attr:`~repro.xmlmodel.tree.XMLElement.record`), so the memo is the
records alone.  A clean record holds shared immutable empties, and a
leaf whose attributes and text pass shares one read-only record with
every such leaf of its type (:class:`_LeafRecord`): under EDC its
content word is the empty word, so its record is fixed by its type
alone, and the parent's content step records a clean leaf without
walking it.  An edit that must write a shared record first gives its
element a record of its own (:meth:`~ValidatedDocument._unshare`).  No
record holds a slash path or a message whose size grows with the
content word: a record counts its unrecognized children and notes
whether its word is rejected, and :meth:`~ValidatedDocument.report`
writes those messages, deriving each element's path from ``parent``
links.  All edits MUST go through its API — mutating the underlying
tree directly leaves the memo stale — and the newest handle opened on a
tree owns its records: an older one raises
:class:`~repro.errors.SchemaError`.  After every edit the handle's
:meth:`report` agrees with a from-scratch run of the tree or streaming
validator on verdict, violations in order, and typing (the conformance
harness's ``incremental`` leg enforces this on seeded edit storms), and
:meth:`provenance` lists the per-element records ``explain`` prints.
The walk that opens a handle is also the streaming validator's for
every document its dense scan does not commit
(:meth:`ValidatedDocument._walked`), so the two share every check and
message.

Observability: ``engine.incremental.*`` counters (documents, edits and
edits by operation, nodes typed, content replays, memo hits), the
``edit_ns`` histogram, and ``engine.incremental.build`` /
``engine.incremental.edit`` spans.  The instruments are bound once, at
import, from the default registry (so they are registered, at 0, before
their first use), and an edit's plumbing is one slotted scope
(:class:`_EditScope`): an open or an edit looks up no metric by name,
and an edit reads one clock, its span's when a tracer records it.
"""

from __future__ import annotations

from time import perf_counter_ns

from repro.engine.compiler import CompiledSchema
from repro.errors import SchemaError
from repro.observability import default_registry
from repro.observability.budget import current_budget
from repro.observability.provenance import ElementProvenance, first_divergence
from repro.observability.tracing import NULL_SPAN, span
from repro.xmlmodel.parser import _CHECK_EVENTS
from repro.xmlmodel.patch import resolve
from repro.xmlmodel.tree import _LEAF_TEXTS, XMLDocument, XMLElement
from repro.xsd.validator import XSDValidationReport

# The walk reads an ambient ResourceBudget's clock once per this many
# elements: an element is two events (start and end), so this is the
# event loops' stride.
_CHECK_ELEMENTS = _CHECK_EVENTS // 2

_LEAF_STATES = (0,)
"""The state path every element without children shares (the empty
word's).  A child edit splices a record's own list in place, so an edit
that gives a leaf a child first swaps this tuple for a fresh list
(:meth:`ValidatedDocument._replay_content`)."""


# Every open and edit counts into these, bound once from the default
# registry: an open or an edit looks up no metric by name.
_metrics = default_registry()
_DOCUMENTS = _metrics.counter("engine.incremental.documents")
_NODES_TYPED = _metrics.counter("engine.incremental.nodes_typed")
_CONTENT_REPLAYS = _metrics.counter("engine.incremental.content_replays")
_MEMO_HITS = _metrics.counter("engine.incremental.memo_hits")
_EDITS = _metrics.counter("engine.incremental.edits")
_EDITS_BY_OP = {
    op: _metrics.counter(f"engine.incremental.edits.{op}")
    for op in ("insert_child", "delete_child", "replace_subtree",
               "set_attribute", "set_text")
}
_EDIT_NS = _metrics.histogram("engine.incremental.edit_ns")


def _typed_elements(schema, root):
    """``(node, slash path, typed path, type id)`` for every element
    ``schema`` types in the tree at ``root``, in document order
    (pre-order; ``root`` must be named by one of the schema's roots).

    A child is typed iff its parent's type declares a type for its
    label, read from the column its parent's content step reads
    (:meth:`ValidatedDocument._run_content`), so typing depends on the
    schema and the tree alone, not on a walk's memo.  Sibling ordinals
    count typed children only, exactly as the reference validators
    assign them.
    """
    types = schema.types
    stack = [(root, "/" + root.name, f"/{root.name}[1]",
              schema.start[root.name])]
    while stack:
        node, path, typed_path, type_id = stack.pop()
        yield node, path, typed_path, type_id
        compiled = types[type_id]
        symbol_ids = compiled.dfa.symbol_ids
        child_types = compiled.child_types
        ordinals = {}
        typed_children = []
        for child in node.children:
            name = child.name
            child_type = child_types[symbol_ids.get(name, -1)]
            if child_type < 0:  # -1 reads the trailing -1
                continue
            ordinal = ordinals[name] = ordinals.get(name, 0) + 1
            typed_children.append((
                child, f"{path}/{name}", f"{typed_path}/{name}[{ordinal}]",
                child_type,
            ))
        stack.extend(reversed(typed_children))


def _typing_of(schema, root):
    """The typing map of the tree at ``root``: each typed element's
    indexed path to its type name, in document order."""
    types = schema.types
    return {typed_path: types[type_id].name
            for __, __, typed_path, type_id in _typed_elements(schema, root)}


def _clear(subtree):
    """Drop every record in ``subtree``: a walk that skips a subtree (an
    unrecognized child's, or an undeclared root's tree) leaves none of
    an earlier open's behind, and a detached subtree holds none."""
    for node in subtree.iter():
        node.record = None


def _own_record(shared):
    """A writable copy of a shared :class:`_LeafRecord`."""
    state = _NodeState.__new__(_NodeState)
    state.type_id = shared.type_id
    state.states = _LEAF_STATES
    state.strays = 0
    state.rejected = shared.rejected
    state.text_viol = None
    state.attr_viols = ()
    return state


def _count_typed(typed):
    """Count an open's walk of ``typed`` elements (or a root replace's):
    one content replay per typed element, none from the memo (offset
    0); once per walk, not per element."""
    _NODES_TYPED.inc(typed)
    _CONTENT_REPLAYS.inc(typed)


class _EditScope:
    """One edit's plumbing: ``with _EditScope(op) as trace:`` around the
    edit's body.

    Counts ``edits`` and ``edits.{op}`` before the body runs and opens
    the ``engine.incremental.edit`` span, tagged with ``op``.  A clean
    exit observes ``edit_ns`` from one clock: the span's
    ``duration_ns`` when a tracer records it, else two
    ``perf_counter_ns`` reads of its own.  An exit by exception marks
    the span ``error`` and observes nothing.
    """

    __slots__ = ("_span", "_started")

    def __init__(self, op):
        _EDITS.inc()
        _EDITS_BY_OP[op].inc()
        self._span = trace = span("engine.incremental.edit")
        trace.set_attribute("op", op)

    def __enter__(self):
        trace = self._span
        if trace is NULL_SPAN:
            self._started = perf_counter_ns()
            return trace
        self._started = None
        return trace.__enter__()

    def __exit__(self, exc_type, exc, traceback):
        started = self._started
        if started is not None:
            if exc_type is None:
                _EDIT_NS.observe(perf_counter_ns() - started)
            return False
        trace = self._span
        trace.__exit__(exc_type, exc, traceback)
        if exc_type is None:
            _EDIT_NS.observe(trace.duration_ns)
        return False


class _NodeState:
    """Per-element provenance: the memo incremental revalidation replays.

    A record sits in its element's ``record`` slot; a typed element
    holds one, and an untyped one (an unrecognized child, its subtree,
    or a tree under an undeclared root) holds ``None``.  Records are
    built without ``__init__`` (the open walk sets every slot).  A clean
    record shares immutable empties: ``()`` for ``attr_viols``, and
    :data:`_LEAF_STATES` for an element without children.  A leaf whose
    attribute and text checks pass holds no record of its own: it
    shares its type's :class:`_LeafRecord`.  Every writer replaces a
    field, except that a child edit splices the record's own ``states``
    list in place; a writer that finds a shared record swaps in a record
    of the element's own first.  No record holds the element's slash
    path or a message about its content word; those are written when a
    report needs them, the path derived from ``parent`` links
    (:meth:`ValidatedDocument._path`).

    Attributes:
        type_id: the element's compiled type id (unique typing, Def. 2).
        states: content-DFA state path (seen-masks for a bag type),
            aligned with the children: ``states[0] == 0`` and
            ``states[i + 1]`` is the state after child ``i``, where an
            unrecognized child repeats the state before it.  A list, or
            the shared ``(0,)`` for an element without children.  The
            ``dfa_states`` of the element's provenance entry are
            ``states[0]`` plus the entries after its recognized children
            (:meth:`ValidatedDocument._reported_states`).
        strays: the number of children whose label this type declares
            no type for; each is "not allowed under" the element, and
            only a word without them is checked for acceptance,
            mirroring both reference validators.
        rejected: True iff the word has no strays and the content model
            rejects it.
        text_viol: the may-not-contain-text message, or ``None``.
        attr_viols: missing-required / undeclared attribute messages (a
            list), or ``()``.
    """

    __slots__ = ("type_id", "states", "strays", "rejected", "text_viol",
                 "attr_viols")


class _LeafRecord(_NodeState):
    """The read-only record every clean leaf of one type shares.

    A leaf's content word is the empty word, so once its attributes and
    text pass, its record is fixed by its type: states
    :data:`_LEAF_STATES`, no strays, no messages, and ``rejected`` the
    type's verdict on the empty word.  A handle makes one per type, at
    the first leaf of the type its walk meets.  Assignment raises,
    so a writer that misses :meth:`ValidatedDocument._unshare` fails
    loudly instead of editing every other leaf of the type; the writers
    test ``state.__class__ is _LeafRecord``.

    ``admits`` says which leaves of the type a parent's content step
    records without walking them: a leaf with no children and no
    attributes passes every check of a type that requires no attribute
    when the type is mixed (``True``) or the leaf's runs are the shared
    :data:`~repro.xmlmodel.tree._LEAF_TEXTS` (``admits`` is that tuple);
    ``None`` when the type requires an attribute.
    """

    __slots__ = ("admits",)

    def __init__(self, type_id, compiled):
        fill = object.__setattr__
        fill(self, "type_id", type_id)
        fill(self, "states", _LEAF_STATES)
        fill(self, "strays", 0)
        fill(self, "rejected", not compiled.dfa.is_accepting(0))
        fill(self, "text_viol", None)
        fill(self, "attr_viols", ())
        fill(self, "admits", None if compiled.required_attrs else
             True if compiled.mixed else _LEAF_TEXTS)

    def __setattr__(self, name, value):
        raise AttributeError(
            f"a shared leaf record is read-only (set {name!r} on a record "
            "of the element's own)"
        )


class ValidatedDocument:
    """An XML tree + compiled schema + per-element provenance, editable.

    Args:
        document: an :class:`~repro.xmlmodel.tree.XMLDocument` (or a bare
            :class:`~repro.xmlmodel.tree.XMLElement`, wrapped).  The
            handle takes ownership: edit only through this API.
        schema: a :class:`CompiledSchema`, or a formal
            :class:`~repro.xsd.model.XSD` compiled through the default
            schema cache.

    The initial construction performs one walk that checks and types
    each element from its parent's content step, which records a clean
    leaf in place: about 0.4 µs per element on the 6,879-element Figure
    3 document (CPython 3.11.7, two-core x86-64 host, median of 61
    opens), against about 0.8 µs per element for the byte tier's fold
    that builds that tree, and about 4-5x the rate of the streaming
    validator's event route over the same tree's events, which folds
    them into a tree and runs the same walk (perfguard's
    ``build_vs_compat``).
    Every subsequent edit revalidates only its footprint.  The walk reads
    an ambient :class:`~repro.observability.ResourceBudget`'s clock once
    per 32 elements typed, so a runaway open or insert stops with
    ``BudgetExceeded``; a handle whose edit raised it is stale and must
    be reopened.

    The records live on the tree's elements, so one tree holds one
    handle's: the newest handle opened on a tree owns it.  An older
    handle notices in O(1), by the identity of its root's record, and
    its edits, reports and provenance raise
    :class:`~repro.errors.SchemaError`.  So that every open replaces
    an older handle's root record, an open refuses an element that has
    an ancestor holding a record (open a clone of the subtree); a
    handle whose root is undeclared holds no record and reads none, so
    a newer open under its root leaves its answers alone.
    """

    __slots__ = ("document", "schema", "_invalid", "_leaves",
                 "_root_declared", "_root_record", "_typed")

    def __init__(self, document, schema, cache=None):
        if isinstance(document, XMLElement):
            document = XMLDocument(document)
        ancestor = document.root.parent
        while ancestor is not None:
            if ancestor.record is not None:
                raise SchemaError(
                    f"element <{document.root.name}> lies under "
                    f"<{ancestor.name}>, which an open typed: open a "
                    "clone of the subtree"
                )
            ancestor = ancestor.parent
        if not isinstance(schema, CompiledSchema):
            from repro.engine.cache import compile_cached

            schema = compile_cached(schema, cache)
        self.document = document
        self.schema = schema
        self._invalid = set()
        self._leaves = [None] * len(schema.types)
        _DOCUMENTS.inc()
        with span("engine.incremental.build") as trace:
            _count_typed(self._build())
            trace.set_attribute("nodes", self._typed)

    @classmethod
    def _walked(cls, root, schema):
        """A handle over ``root`` made by the one-pass walk alone.

        The streaming validator's entry (it owns ``root``): no
        ``engine.incremental.*`` counter moves and no build span opens,
        for validating a document is not opening one.
        """
        handle = cls.__new__(cls)
        handle.document = XMLDocument(root)
        handle.schema = schema
        handle._invalid = set()
        handle._leaves = [None] * len(schema.types)
        handle._build()
        return handle

    # -- initial walk ------------------------------------------------------
    def _build(self):
        """Walk the whole tree afresh, taking it over from any older
        handle; returns the number of elements typed, which the caller
        counts.  An undeclared root's tree is cleared of records."""
        self._invalid.clear()
        root = self.document.root
        type_id = self.schema.start.get(root.name)
        self._root_declared = type_id is not None
        if type_id is None:
            _clear(root)
            typed = 0
        else:
            typed = self._type_subtree(root, type_id)
        self._typed = typed
        self._root_record = root.record
        return typed

    def _check_owner(self):
        """Raise :class:`~repro.errors.SchemaError` if a newer handle
        opened this handle's tree (it replaced the root's record), so
        the records in it are not this handle's."""
        if self.document.root.record is not self._root_record:
            raise SchemaError(
                "a newer ValidatedDocument was opened on this tree and "
                "owns its records; use that handle, or open a new one"
            )

    def _type_subtree(self, node, type_id):
        """Validate and record one subtree top-down, in one pass.

        The subtree's root type is forced by the caller (parent type +
        label, per EDC); every other element is typed by the content
        step that reads its column (:meth:`_run_content`), which records
        a clean leaf there and pushes every other child with its type.
        Returns the number of elements typed: the root, plus each typed
        element's recognized children (skipped subtrees under
        unrecognized children are not typed, matching the reference
        validators, and hold no record), which the caller counts.  Every
        id it records is fresh (the index was just cleared, or the
        subtree is new), so an invalid element is added to the index
        without a discard.  A leaf whose attributes and text pass gets
        its type's shared :class:`_LeafRecord`, so the empty word is
        judged once per type, not per leaf.  Reads an ambient budget's
        clock once per :data:`_CHECK_ELEMENTS` elements typed, at the
        first element it pops past each stride.
        """
        types = self.schema.types
        invalid = self._invalid
        leaves = self._leaves
        run_content = self._run_content
        new = _NodeState.__new__
        budget = current_budget()
        typed = 1
        check_at = _CHECK_ELEMENTS
        stack = [(node, type_id)]
        pop = stack.pop
        push = stack.append
        while stack:
            node, type_id = pop()
            if budget is not None and typed >= check_at:
                check_at = typed + _CHECK_ELEMENTS
                budget.check_time("engine.validate")
            compiled = types[type_id]
            path = text_viol = None
            attr_viols = ()
            attributes = node.attributes
            if (attributes or compiled.required_attrs) and \
                    compiled.attribute_problems(attributes):
                path = self._path(node)
                attr_viols = compiled.attribute_violations(
                    path, node.name, attributes
                )
            if not compiled.mixed:
                for run in node.texts:
                    if run.strip():
                        text_viol = compiled.text_not_allowed(
                            path or self._path(node), node.name
                        )
                        break
            children = node.children
            if children:
                state = new(_NodeState)
                state.type_id = type_id
                state.attr_viols = attr_viols
                state.text_viol = text_viol
                bad = run_content(node, compiled, state, push) or \
                    attr_viols or text_viol is not None
                typed += len(children) - state.strays
            else:
                state = leaves[type_id]
                if state is None:  # the type's first leaf
                    state = self._leaf_record(type_id)
                if attr_viols or text_viol is not None:
                    state = _own_record(state)
                    state.attr_viols = attr_viols
                    state.text_viol = text_viol
                    bad = True
                else:
                    bad = state.rejected
            node.record = state
            if bad:
                invalid.add(id(node))
        return typed

    def _unshare(self, node, state):
        """``node``'s record, made its own if it is a shared
        :class:`_LeafRecord`; the three writers (:meth:`set_attribute`,
        :meth:`set_text` and the parent's :meth:`_after_child_edit`) call
        this only when they must write.  A new root record is the one
        :meth:`_check_owner` compares."""
        if state.__class__ is _LeafRecord:
            state = node.record = _own_record(state)
            if node is self.document.root:
                self._root_record = state
        return state

    def _path(self, node):
        """``node``'s slash path, from the handle's root down, derived
        from ``parent`` links when a violation message needs it."""
        return node.path_from(self.document.root)

    # -- per-element checks (the open walk inlines all but the content
    # step; the edit API calls them) ------------------------------------
    def _text_violation(self, node, compiled):
        """The may-not-contain-text message for ``node``, or ``None``."""
        if not compiled.mixed and node.has_text():
            return compiled.text_not_allowed(self._path(node), node.name)
        return None

    def _run_content(self, node, compiled, state, push):
        """Run ``node``'s content word from the initial state (opens).

        Steps the type's own ``ContentDFA`` table at each child's column,
        or for a bag its seen-mask exactly as ``ContentBag.step`` does
        (the path is then a list of masks); the two kinds run separate
        loops, so neither tests the kind per child.  Each recognized
        child is typed from the same column.  A clean leaf (no children,
        no attributes, and runs its type admits: :attr:`_LeafRecord.admits`)
        gets its type's shared record here, and joins the invalid index
        when the type rejects the empty word: the walk's own checks
        would find nothing on it.  Every other recognized child is pushed
        (``push``, the open walk's stack append) with its type.  An
        unrecognized child's subtree is cleared of records, and the
        child repeats the state before it, which keeps the path aligned
        with child positions.  Sets the record's ``states``, ``strays``
        and ``rejected``; returns True iff the word holds a stray or is
        rejected.
        """
        states = [0]
        append = states.append
        current = 0
        strays = 0
        dfa = compiled.dfa
        symbol_ids = dfa.symbol_ids
        child_types = compiled.child_types
        leaves = self._leaves
        add_invalid = self._invalid.add
        bag = compiled.bag
        if bag is None:
            table = dfa.table
            for child in node.children:
                column = symbol_ids.get(child.name, -1)
                child_type = child_types[column]
                if child_type < 0:  # -1 reads the trailing -1
                    strays += 1
                    _clear(child)
                else:
                    current = table[current][column]
                    if child.children or child.attributes:
                        push((child, child_type))
                    else:
                        record = leaves[child_type]
                        if record is None:
                            record = self._leaf_record(child_type)
                        admits = record.admits
                        if admits is True or child.texts is admits:
                            child.record = record
                            if record.rejected:
                                add_invalid(id(child))
                        else:
                            push((child, child_type))
                append(current)
        else:
            dead = bag.dead
            once = bag.once
            for child in node.children:
                column = symbol_ids.get(child.name, -1)
                child_type = child_types[column]
                if child_type < 0:
                    strays += 1
                    _clear(child)
                else:
                    # A repeated once-member sets the dead bit.
                    bit = 1 << column
                    current |= dead if current & bit & once else bit
                    if child.children or child.attributes:
                        push((child, child_type))
                    else:
                        record = leaves[child_type]
                        if record is None:
                            record = self._leaf_record(child_type)
                        admits = record.admits
                        if admits is True or child.texts is admits:
                            child.record = record
                            if record.rejected:
                                add_invalid(id(child))
                        else:
                            push((child, child_type))
                append(current)
        state.states = states
        state.strays = strays
        if strays:
            state.rejected = False
            return True
        state.rejected = rejected = not dfa.is_accepting(current)
        return rejected

    def _leaf_record(self, type_id):
        """The type's shared :class:`_LeafRecord`, made at its first
        leaf."""
        record = self._leaves[type_id] = _LeafRecord(
            type_id, self.schema.types[type_id]
        )
        return record

    def _replay_content(self, node, compiled, state, index, delta):
        """Re-step ``node``'s content word after a child edit at ``index``.

        ``delta`` is the edit's change in width: +1 for an insert, 0 for
        a replace, -1 for a delete.  With ``S`` the old (aligned) path,
        ``S[:index + 1]`` still holds; the replay steps the new children
        from ``S[index]`` and, for ordered content, stops at the first
        new position ``i`` (from ``index + 1``, or ``index`` for a
        delete) whose state equals ``S[i - delta]``: the DFA is
        deterministic and the children from there on are the old ones,
        so the rest of the run is ``S[i - delta:]``.  The replayed
        states are spliced into the record's own list in place; a leaf's
        shared :data:`_LEAF_STATES` is first swapped for a fresh list.
        A bag's masks only grow, so a bag replays to the end of its
        word.  Returns the number of children re-stepped.
        """
        states = state.states
        if states is _LEAF_STATES:
            states = state.states = [0]
        children = node.children
        current = states[index]
        fresh = []
        append = fresh.append
        stop = len(states)  # the old path's end, unless the run rejoins
        dfa = compiled.dfa
        symbol_ids = dfa.symbol_ids
        child_types = compiled.child_types
        bag = compiled.bag
        if bag is None:
            table = dfa.table
            shift = 1 - delta  # new path index + shift = old path index
            if delta < 0 and current == states[index + 1]:
                stop = index + 2
            else:
                for position in range(index, len(children)):
                    column = symbol_ids.get(children[position].name, -1)
                    if child_types[column] >= 0:
                        current = table[current][column]
                    append(current)
                    if current == states[position + shift]:
                        stop = position + shift + 1
                        break
        else:
            dead = bag.dead
            once = bag.once
            for position in range(index, len(children)):
                column = symbol_ids.get(children[position].name, -1)
                if child_types[column] >= 0:
                    bit = 1 << column
                    current |= dead if current & bit & once else bit
                append(current)
        states[index + 1:stop] = fresh
        return len(fresh)

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

        Only the parent's content word (from ``index`` until the run
        rejoins the memo) and the new subtree are revalidated; every
        element outside that footprint keeps its provenance verbatim.
        """
        self._check_owner()
        with _EditScope("insert_child") as trace:
            parent.insert(index, child, text_after)
            replayed = self._after_child_edit(parent, index, child,
                                              text_after=text_after)
            if trace is not NULL_SPAN:
                trace.set_attribute(
                    "subtree", sum(1 for __ in child.iter())
                )
                trace.set_attribute("replayed", replayed)

    def delete_child(self, parent, index):
        """Delete the child at ``index``; revalidate the parent's word.

        Returns the detached subtree (its provenance is dropped — a
        re-inserted subtree is retyped like any new one).
        """
        self._check_owner()
        with _EditScope("delete_child") as trace:
            removed = parent.remove_child(index)
            self._purge(removed)
            replayed = self._after_child_edit(parent, index,
                                              old_child=removed)
            if trace is not NULL_SPAN:
                trace.set_attribute("replayed", replayed)
        return removed

    def replace_child(self, parent, index, replacement):
        """Replace ``parent``'s child at ``index`` with ``replacement``.

        Revalidates the parent's word (from ``index`` until the run
        rejoins the memo) plus the new subtree.  Returns the detached
        old subtree.
        """
        self._check_owner()
        with _EditScope("replace_subtree") as trace:
            node = parent.replace_child_at(index, replacement)
            self._after_replace(parent, index, node, replacement, trace)
        return node

    def replace_subtree(self, node, replacement):
        """Replace ``node`` (possibly the root) with ``replacement``.

        Replacing ``document.root`` re-runs the whole initial walk (the
        footprint *is* the document; a parent outside the handle keeps
        the old root); anything else finds ``node`` among its siblings by
        identity and then revalidates as :meth:`replace_child` does.
        Returns the detached old subtree.
        """
        self._check_owner()
        with _EditScope("replace_subtree") as trace:
            if node is self.document.root:
                if replacement.parent is not None:
                    raise SchemaError(
                        f"element <{replacement.name}> already has a "
                        f"parent <{replacement.parent.name}>"
                    )
                if trace is not NULL_SPAN:
                    trace.set_attribute(
                        "subtree", sum(1 for __ in replacement.iter())
                    )
                self.document.root = replacement
                self._purge(node)
                _count_typed(self._build())
                return node
            parent = node.parent
            if parent is None:
                raise SchemaError(
                    "replace_subtree target is not part of this document"
                )
            index = parent.replace_child(node, replacement)
            self._after_replace(parent, index, node, replacement, trace)
        return node

    def set_attribute(self, node, name, value):
        """Set (or, with ``value=None``, remove) one attribute.

        Only the touched element's attribute checks re-run; the content
        word and every other element are untouched.  Writes through
        :meth:`XMLElement.set_attribute
        <repro.xmlmodel.tree.XMLElement.set_attribute>`, so a parsed
        element's shared empty map is swapped for a dict of its own.
        """
        self._check_owner()
        with _EditScope("set_attribute"):
            node.set_attribute(name, value)
            attributes = node.attributes
            state = node.record
            if state is not None and self._root_declared:
                compiled = self.schema.types[state.type_id]
                if compiled.attribute_problems(attributes):
                    state = self._unshare(node, state)
                    state.attr_viols = compiled.attribute_violations(
                        self._path(node), node.name, attributes
                    )
                elif state.attr_viols:  # a shared record's are empty
                    state.attr_viols = ()
                self._refresh_validity(node, state)

    def set_text(self, node, text, index=0):
        """Replace the text run at ``index`` (before child ``index``).

        Only the touched element's mixedness check re-runs.
        """
        self._check_owner()
        with _EditScope("set_text"):
            if not 0 <= index < len(node.texts):
                raise SchemaError(
                    f"text index {index} out of range for element "
                    f"<{node.name}> with {len(node.children)} child(ren)"
                )
            node.set_run(index, text)
            state = node.record
            if state is not None and self._root_declared:
                text_viol = self._text_violation(
                    node, self.schema.types[state.type_id]
                )
                # A shared record's is None: write only a change.
                if text_viol is not None or state.text_viol is not None:
                    state = self._unshare(node, state)
                    state.text_viol = text_viol
                self._refresh_validity(node, state)

    # -- edit plumbing -----------------------------------------------------
    def _after_replace(self, parent, index, node, replacement, trace):
        """Revalidate after ``node`` gave way to ``replacement`` at
        ``index`` under ``parent``."""
        self._purge(node)
        replayed = self._after_child_edit(parent, index, replacement, node)
        if trace is not NULL_SPAN:
            trace.set_attribute(
                "subtree", sum(1 for __ in replacement.iter())
            )
            trace.set_attribute("replayed", replayed)

    def _after_child_edit(self, parent, index, new_child=None,
                          old_child=None, text_after=""):
        """Revalidate the footprint of a child insert/delete/replace.

        ``new_child`` is the inserted or replacing child and
        ``old_child`` the deleted or replaced one (a replace passes
        both).  The stray count changes by those two children alone:
        every child the replay re-steps is the same object under the
        same label.  Whether some text run is non-blank survives
        each of these edits (a delete merges two runs, a replace keeps
        them, an insert adds ``text_after``), so the parent's text is
        re-checked only when an insert brings a non-blank run.  Counts
        one content replay for the parent's word plus one per element
        of the new subtree it types, once.  A new subtree left untyped
        (under an untyped parent, or an unrecognized child) is cleared
        of records.  Returns the number of children the replay
        re-stepped.
        """
        state = parent.record
        if state is None or not self._root_declared:
            # The parent lives in a skipped subtree (or under an
            # undeclared root, whose handle reads no record):
            # structurally applied, nothing to check.
            if new_child is not None:
                _clear(new_child)
            return 0
        if state.__class__ is _LeafRecord:  # a first child under a leaf
            state = self._unshare(parent, state)
        compiled = self.schema.types[state.type_id]
        if index:
            _MEMO_HITS.inc()
        if not compiled.mixed and text_after.strip():
            state.text_viol = compiled.text_not_allowed(
                self._path(parent), parent.name
            )
        symbol_ids = compiled.dfa.symbol_ids
        child_types = compiled.child_types
        strays = state.strays
        if old_child is not None and \
                child_types[symbol_ids.get(old_child.name, -1)] < 0:
            strays -= 1
        child_type = -1
        if new_child is not None:
            child_type = child_types[symbol_ids.get(new_child.name, -1)]
            if child_type < 0:
                strays += 1
        state.strays = strays
        replayed = self._replay_content(
            parent, compiled, state, index,
            (new_child is not None) - (old_child is not None),
        )
        state.rejected = not strays and not compiled.dfa.is_accepting(
            state.states[-1]
        )
        self._refresh_validity(parent, state)
        if child_type < 0:
            if new_child is not None:
                _clear(new_child)
            _CONTENT_REPLAYS.inc()
        else:
            typed = self._type_subtree(new_child, child_type)
            self._typed += typed
            _NODES_TYPED.inc(typed)
            _CONTENT_REPLAYS.inc(1 + typed)
        return replayed

    def _purge(self, subtree):
        """Drop a detached subtree's records and index entries, and its
        typed elements from the handle's count.  A handle whose root is
        undeclared holds no record, so it leaves the subtree alone."""
        if not self._root_declared:
            return
        invalid = self._invalid
        typed = 0
        for node in subtree.iter():
            if node.record is not None:
                typed += 1
                node.record = None
                invalid.discard(id(node))
        self._typed -= typed

    def _refresh_validity(self, node, state):
        """Keep the invalid-element index in step with ``state``."""
        if state.strays or state.rejected or state.text_viol is not None \
                or state.attr_viols:
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
        validator, violation order included (:meth:`_write_violations`,
        which also writes the streaming validator's reports).
        """
        self._check_owner()
        report = XSDValidationReport()
        if not self._root_declared:
            report.violations.append(
                self.schema.undeclared_root(self.document.root.name)
            )
            return report
        report.typing = _typing_of(self.schema, self.document.root)
        self._write_violations(report.violations)
        return report

    def _write_violations(self, out):
        """Append the violations of the current tree to ``out``, in the
        tree validator's order: typed elements pre-order, each one's own
        violations before its children's.

        One pass, with an iterator per open element, that stops after
        the last invalid element (an untyped subtree holds none); a
        clean handle costs one check.
        """
        invalid = self._invalid
        remaining = len(invalid)
        stack = [iter((self.document.root,))] if remaining else []
        while stack:
            for node in stack[-1]:
                if id(node) in invalid:
                    out.extend(self._violations(node))
                    remaining -= 1
                    if not remaining:
                        return
                if node.children:
                    stack.append(iter(node.children))
                    break
            else:
                stack.pop()

    def _violations(self, node):
        """An invalid element's violations, in the tree validator's
        order, under the slash path derived from its ``parent`` links.

        The messages about its content word (one per unrecognized child,
        in child order, or the mismatch that lists every child) are
        written here; the text and attribute ones were written by the
        check that found them.
        """
        state = node.record
        compiled = self.schema.types[state.type_id]
        path = self._path(node)
        out = []
        if state.strays:
            name = node.name
            out.extend(
                compiled.child_not_allowed(path, name, child.name)
                for child in _strays(node, compiled)
            )
        elif state.rejected:
            out.append(compiled.content_mismatch(
                path, node.name, [child.name for child in node.children]
            ))
        if state.text_viol is not None:
            out.append(state.text_viol)
        out.extend(state.attr_viols)
        return out

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
        self._check_owner()
        if not self._root_declared:
            return []
        types = self.schema.types
        invalid = self._invalid
        entries = []
        for node, path, typed_path, type_id in _typed_elements(
                self.schema, self.document.root):
            state = node.record
            compiled = types[type_id]
            entry = ElementProvenance(
                path, typed_path, node.name, compiled.name
            )
            entry.dfa_states = self._reported_states(node, state)
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
        if state.strays:
            child = next(_strays(node, compiled))
            return (
                f"child <{child.name}> is not allowed under <{node.name}> "
                f"(type {compiled.name})"
            )
        if state.rejected:
            return first_divergence(
                compiled.dfa, [child.name for child in node.children]
            )
        return f"contains text but type {compiled.name} is not mixed"

    def provenance_of(self, node):
        """``(type name, DFA state path)`` for one element, or ``None``.

        The state path is the ``dfa_states`` of the element's
        :meth:`provenance` entry (initial state 0, one state per
        recognized child).  ``None`` for an untyped element and for one
        outside this handle's tree.
        """
        self._check_owner()
        state = node.record
        if state is None or not self._root_declared:
            return None
        root = self.document.root
        ancestor = node
        while ancestor is not root:
            ancestor = ancestor.parent
            if ancestor is None:  # another tree's element
                return None
        return (
            self.schema.types[state.type_id].name,
            self._reported_states(node, state),
        )

    def _reported_states(self, node, state):
        """The state path ``node``'s provenance reports: ``states[0]``
        and the entry after each recognized (typed) child, so one state
        per recognized child."""
        states = state.states
        if not state.strays:
            return tuple(states)
        compiled = self.schema.types[state.type_id]
        symbol_ids = compiled.dfa.symbol_ids
        child_types = compiled.child_types
        return (states[0], *[
            after for child, after in zip(node.children, states[1:])
            if child_types[symbol_ids.get(child.name, -1)] >= 0
        ])

    def __len__(self):
        """The number of typed elements (a count the open and the edits
        keep)."""
        return self._typed

    def __repr__(self):
        return (
            f"<ValidatedDocument root={self.document.root.name} "
            f"typed={self._typed} valid={self.valid}>"
        )


def _strays(node, compiled):
    """``node``'s unrecognized children, in order: those whose label its
    type ``compiled`` declares no type for (EDC: the parent's column),
    so no reader trusts a stray's ``record`` slot."""
    symbol_ids = compiled.dfa.symbol_ids
    child_types = compiled.child_types
    return (child for child in node.children
            if child_types[symbol_ids.get(child.name, -1)] < 0)
