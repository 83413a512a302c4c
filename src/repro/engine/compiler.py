"""Lowering formal XSDs to compiled, table-driven form.

The tree validator interprets content models symbolically: every node
re-runs a :class:`~repro.regex.derivatives.DerivativeMatcher` whose states
are regex ASTs (hashing whole expressions per step) and resolves child
types by scanning the content model's symbol list.  This module performs
that work *once per schema* instead of once per node:

* each content model is lowered to its **minimal complete DFA** over the
  erased element names (Definition 3's move: by EDC, matching the erased
  word against the erased expression is equivalent to matching the typed
  word, and by UPA the construction is unambiguous and small);
* the DFA is renumbered to dense integer tables, so one validation step is
  ``row[symbol_id]`` — an integer list index;
* an unordered content model (``xs:all``, BonXai ``&``), whose minimal
  DFA has 2^n states, is compiled to a :class:`ContentBag` instead: a
  seen-mask checked by counting, built in time linear in its members;
* element names, types, and attribute names are interned to small ints;
  declared-attribute sets become bitmasks.

The result, :class:`CompiledSchema`, is immutable and shareable across
threads; :mod:`repro.engine.cache` memoizes it per schema fingerprint and
:mod:`repro.engine.streaming` runs documents against it.
"""

from __future__ import annotations

import time
from array import array

from repro.automata.minimize import minimize
from repro.observability import default_registry
from repro.observability.tracing import span
from repro.regex.ast import Interleave, Optional, Plus, Star, Symbol
from repro.regex.derivatives import to_dfa
from repro.xsd.typednames import split_typed_name

DENSE_STATE_LIMIT = 256
"""Largest per-type DFA (in states) that still gets dense rows.

Dense tables cost ``states x alphabet`` integers per type.  Content
models are tiny in practice: interleaves of single names compile to a
:class:`ContentBag`, which has no rows at all, so the only types past
this limit are large numeric counters (``a{1,256}`` has 258 states)
and interleaves outside the bag shape (``a{2,3} & b{2,3} & ...``).
Such types (and therefore their schema) keep the dict-driven path,
which is O(1) per state in memory."""


class ContentDFA:
    """A minimal complete DFA over a content model's (erased) alphabet.

    States are dense integers with 0 initial; ``table[state][symbol_id]``
    is the successor (always defined — the DFA is complete over its
    alphabet).  Words containing symbols outside the alphabet are rejected,
    mirroring how a derivative step on a foreign symbol yields the empty
    language.

    Attributes:
        symbols: tuple of alphabet symbols, sorted; ``symbol_ids`` inverts.
        table: tuple of per-state tuples of successor state ids.
        accepting: tuple of booleans, indexed by state.
        live: tuple of booleans; ``live[s]`` iff some accepting state is
            reachable from ``s`` (a dead state can never recover).
    """

    __slots__ = ("symbols", "symbol_ids", "table", "accepting", "live")

    def __init__(self, symbols, table, accepting, live):
        self.symbols = symbols
        self.symbol_ids = {name: i for i, name in enumerate(symbols)}
        self.table = table
        self.accepting = accepting
        self.live = live

    def accepts(self, word):
        """True iff the DFA accepts ``word`` (an iterable of symbols)."""
        state = 0
        table = self.table
        ids = self.symbol_ids
        for name in word:
            symbol = ids.get(name)
            if symbol is None:
                return False
            state = table[state][symbol]
        return self.accepting[state]

    def step(self, state, symbol):
        """The successor of ``state`` on alphabet index ``symbol``."""
        return self.table[state][symbol]

    def is_accepting(self, state):
        return self.accepting[state]

    def is_live(self, state):
        return self.live[state]

    def __len__(self):
        return len(self.table)


_MULTIPLICITY = {Optional: (False, False), Star: (False, True),
                 Plus: (True, True)}
"""``(required, repeatable)`` of a bag member wrapped in each operator."""


class ContentBag:
    """An interleave of distinct element names, checked by counting.

    The shape of ``xs:all`` and of BonXai ``&`` under §3.1: every member
    is one element name with multiplicity 1, ``?``, ``*`` or ``+``.  Its
    minimal DFA has up to 2^n states; the bag's state is instead the
    *seen-mask*, bit ``i`` set once ``symbols[i]`` has occurred (the
    counting check of Boneva-Ciucanu-Staworko's unordered schemas, with
    counts capped at "seen").  A second occurrence of a non-repeatable
    member sets the sticky ``dead`` bit; the word is accepted iff every
    required bit is set and the dead bit is not.

    The interface mirrors :class:`ContentDFA`'s (``symbols``,
    ``symbol_ids``, ``step``, ``is_accepting``, ``is_live``, ``accepts``,
    ``len``) with masks for states, the initial state again 0.

    Attributes:
        symbols: the member names, sorted; member ``i`` owns bit ``1 << i``.
        required: mask of the members that must occur (``1`` and ``+``).
        repeatable: mask of the members that may recur (``*`` and ``+``).
        dead: the bit just above the members', set by a forbidden repeat.
    """

    __slots__ = ("symbols", "symbol_ids", "required", "repeatable", "dead")

    def __init__(self, members):
        """``members``: dict name -> ``(required, repeatable)``."""
        self.symbols = tuple(sorted(members))
        self.symbol_ids = {name: i for i, name in enumerate(self.symbols)}
        self.required = self.repeatable = 0
        for index, name in enumerate(self.symbols):
            required, repeatable = members[name]
            if required:
                self.required |= 1 << index
            if repeatable:
                self.repeatable |= 1 << index
        self.dead = 1 << len(self.symbols)

    def step(self, state, symbol):
        bit = 1 << symbol
        if state & bit & ~self.repeatable:
            return state | self.dead
        return state | bit

    def is_accepting(self, state):
        return state & (self.required | self.dead) == self.required

    def is_live(self, state):
        """Every mask without the dead bit can still complete."""
        return not state & self.dead

    def accepts(self, word):
        state = 0
        ids = self.symbol_ids
        for name in word:
            symbol = ids.get(name)
            if symbol is None:
                return False
            state = self.step(state, symbol)
        return self.is_accepting(state)

    def __len__(self):
        """The mask width: one bit per member plus the dead bit."""
        return len(self.symbols) + 1


def bag_members(regex):
    """``{name: (required, repeatable)}`` if ``regex`` has bag shape.

    Bag shape is an :class:`~repro.regex.ast.Interleave` of distinct
    symbols, each bare or under ``?``, ``*`` or ``+``; anything else
    (counters, nested groups, a repeated name) returns ``None``.
    """
    if not isinstance(regex, Interleave):
        return None
    members = {}
    for child in regex.children:
        multiplicity = _MULTIPLICITY.get(type(child))
        if multiplicity is None:
            multiplicity = (True, False)
        else:
            child = child.child
        if not isinstance(child, Symbol) or child.name in members:
            return None
        members[child.name] = multiplicity
    return members


def compile_content(regex):
    """A :class:`ContentBag` for bag-shaped content, else its ContentDFA."""
    members = bag_members(regex)
    if members is not None:
        return ContentBag(members)
    return compile_regex(regex)


def compile_regex(regex, alphabet=None):
    """Compile a regex to a :class:`ContentDFA`.

    Args:
        regex: a :class:`~repro.regex.ast.Regex` (deterministic content
            models stay small; the construction works for any regex).
        alphabet: iterable of symbols; defaults to those in the regex.
    """
    if alphabet is None:
        alphabet = regex.symbols()
    symbols = tuple(sorted(alphabet))
    started = time.perf_counter_ns()
    dfa = minimize(to_dfa(regex, alphabet=symbols))
    default_registry().histogram("engine.compile.minimize_ns").observe(
        time.perf_counter_ns() - started
    )
    # Stable BFS renumbering from the initial state, in symbol order.
    index = {dfa.initial: 0}
    order = [dfa.initial]
    position = 0
    while position < len(order):
        state = order[position]
        position += 1
        for name in symbols:
            target = dfa.transitions[(state, name)]
            if target not in index:
                index[target] = len(order)
                order.append(target)
    table = tuple(
        tuple(index[dfa.transitions[(state, name)]] for name in symbols)
        for state in order
    )
    accepting = tuple(state in dfa.accepting for state in order)
    live = _live_states(table, accepting)
    return ContentDFA(symbols, table, accepting, live)


def _live_states(table, accepting):
    """Backwards reachability from the accepting states."""
    count = len(table)
    predecessors = [[] for __ in range(count)]
    for source, row in enumerate(table):
        for target in row:
            predecessors[target].append(source)
    live = [False] * count
    worklist = [state for state in range(count) if accepting[state]]
    for state in worklist:
        live[state] = True
    while worklist:
        state = worklist.pop()
        for source in predecessors[state]:
            if not live[source]:
                live[source] = True
                worklist.append(source)
    return tuple(live)


class CompiledType:
    """One complex type, lowered to tables.

    Attributes:
        name: the source type name (for diagnostics).
        dfa: the content automaton of the erased content model: its
            :class:`ContentDFA`, or its :class:`ContentBag` when the
            content has bag shape (:func:`bag_members`).
        bag: that :class:`ContentBag`, or ``None`` for ordered content;
            the step loops branch on it.
        children: dict element name -> ``(symbol_id, child_type_id)``; by
            EDC the child type is a function of the element name, so one
            dict lookup replaces the tree validator's symbol scan.
        mixed: whether character data is allowed.
        required_attrs: tuple of required attribute names, in declaration
            order (diagnostic order matches the tree validator).
        declared_mask: bitmask over the schema-wide attribute interning of
            the attributes declared on this type.
        dense: whether this type carries dense tables (bags and small
            DFAs; see :data:`DENSE_STATE_LIMIT`).
        dense_rows: tuple of ``array('i')`` rows, one per DFA state,
            indexed by *schema-wide* element-name id; ``-1`` marks a name
            that is not in this type's alphabet.  ``None`` when not dense
            and for bags.
        dense_bag: for bags, ``(bits, once, required)``: a list mapping
            schema-wide name id to the member's bit (0 for non-members),
            the mask of non-repeatable members and the required mask.
            ``None`` for ordered content.
        child_types: ``array('i')`` mapping schema-wide name id to the
            child's type id (EDC: a function of the name), ``-1`` when the
            name is not a child of this type.  ``None`` when not dense.
        acc_bits: accepting-states bitset — ``acc_bits >> state & 1``;
            for a bag only bit 0 (the empty mask) is meaningful.
        required_set: frozenset of the required attribute names.
        declared_attrs: frozenset of every declared attribute name.
    """

    __slots__ = (
        "name", "dfa", "bag", "children", "mixed", "required_attrs",
        "declared_mask", "dense", "dense_rows", "dense_bag", "child_types",
        "acc_bits", "required_set", "declared_attrs",
    )

    def __init__(self, name, dfa, children, mixed, required_attrs,
                 declared_mask, declared_attrs=frozenset()):
        self.name = name
        self.dfa = dfa
        self.bag = dfa if isinstance(dfa, ContentBag) else None
        self.children = children
        self.mixed = mixed
        self.required_attrs = required_attrs
        self.declared_mask = declared_mask
        self.dense = False
        self.dense_rows = None
        self.dense_bag = None
        self.child_types = None
        if self.bag is not None:
            self.acc_bits = int(self.bag.is_accepting(0))
        else:
            self.acc_bits = 0
            for state, accepting in enumerate(dfa.accepting):
                if accepting:
                    self.acc_bits |= 1 << state
        self.required_set = frozenset(required_attrs)
        self.declared_attrs = declared_attrs

    def build_dense(self, name_ids):
        """Fill the dense tables against a schema-wide name interning."""
        bag = self.bag
        if bag is None and len(self.dfa) > DENSE_STATE_LIMIT:
            return False
        width = len(name_ids)
        child_types = array("i", [-1]) * width
        columns = []  # (schema-wide id, per-type symbol id)
        for element_name, (symbol, child_type) in self.children.items():
            interned = name_ids[element_name]
            child_types[interned] = child_type
            columns.append((interned, symbol))
        self.child_types = child_types
        self.dense = True
        if bag is not None:
            bits = [0] * width
            for interned, symbol in columns:
                bits[interned] = 1 << symbol
            once = (bag.dead - 1) & ~bag.repeatable
            self.dense_bag = (bits, once, bag.required)
            return True
        rows = []
        for row in self.dfa.table:
            dense_row = array("i", [-1]) * width
            for interned, symbol in columns:
                dense_row[interned] = row[symbol]
            rows.append(dense_row)
        self.dense_rows = tuple(rows)
        return True


class CompiledSchema:
    """An immutable, table-driven form of a formal XSD.

    Attributes:
        fingerprint: the :func:`repro.engine.cache.schema_fingerprint` of
            the source schema (``None`` when compiled directly).
        types: tuple of :class:`CompiledType`, indexed by type id.
        type_ids: dict type name -> type id.
        start: dict root element name -> type id (the paper's ``T0``).
        start_names: sorted tuple of allowed root names (diagnostics).
        attr_ids: dict attribute name -> bit position, shared by every
            type's ``declared_mask``.
        names: sorted tuple interning the schema-wide element alphabet
            (every child name of every type, plus the root names).
        name_ids: dict name -> interned id (str keys).
        byte_ids: the same interning with UTF-8 byte-string keys — the
            byte tokenizer looks names up without decoding.
        start_types: ``array('i')`` over the interning: root type id per
            name, ``-1`` for names that cannot be roots.
        dense: True iff *every* type is dense, i.e. the whole schema can
            be validated on the dense fast path.
        dense_types: tuple, indexed by type id, of
            ``(dense_rows, child_types, acc_bits, mixed, declared_attrs,
            required_set, dense_bag)`` — the hot loop unpacks one tuple
            per start tag instead of touching attributes.  ``None`` when
            not dense.
    """

    __slots__ = (
        "fingerprint", "types", "type_ids", "start", "start_names",
        "attr_ids", "names", "name_ids", "byte_ids", "start_types",
        "dense", "dense_types",
    )

    def __init__(self, fingerprint, types, type_ids, start, start_names,
                 attr_ids):
        self.fingerprint = fingerprint
        self.types = types
        self.type_ids = type_ids
        self.start = start
        self.start_names = start_names
        self.attr_ids = attr_ids
        alphabet = set(start)
        for compiled in types:
            alphabet.update(compiled.children)
        self.names = tuple(sorted(alphabet))
        self.name_ids = {name: i for i, name in enumerate(self.names)}
        self.byte_ids = {
            name.encode("utf-8"): i for i, name in enumerate(self.names)
        }
        self.start_types = array("i", [-1]) * len(self.names)
        for name, type_id in start.items():
            self.start_types[self.name_ids[name]] = type_id
        self.dense = all(
            [compiled.build_dense(self.name_ids) for compiled in types]
        )
        self.dense_types = tuple(
            (compiled.dense_rows, compiled.child_types, compiled.acc_bits,
             compiled.mixed, compiled.declared_attrs, compiled.required_set,
             compiled.dense_bag)
            for compiled in types
        ) if self.dense else None

    def type_named(self, name):
        """The :class:`CompiledType` for a source type name."""
        return self.types[self.type_ids[name]]

    def root_type_id(self, element_name):
        """The start type id of a root element name, or ``None``."""
        return self.start.get(element_name)

    def __repr__(self):
        return (
            f"<CompiledSchema types={len(self.types)} "
            f"roots={list(self.start_names)}>"
        )


def compile_xsd(xsd, fingerprint=None):
    """Lower a formal :class:`~repro.xsd.model.XSD` to a CompiledSchema.

    The schema is assumed well-formed (Definition 2: EDC + UPA); ``XSD``
    enforces both at construction time.
    """
    from repro.resilience.faults import probe

    probe("compile")
    registry = default_registry()
    dfa_sizes = registry.histogram("engine.compile.dfa_states")
    with span("engine.compile") as trace:
        if fingerprint is not None:
            trace.set_attribute("schema", fingerprint[:12])
        type_names = tuple(sorted(xsd.types))
        type_ids = {name: i for i, name in enumerate(type_names)}
        attr_ids = {}
        types = []
        dfa_states = 0
        for name in type_names:
            model = xsd.rho[name]
            erased = model.map_symbols(lambda s: split_typed_name(s)[0])
            dfa = compile_content(erased.regex)
            dfa_sizes.observe(len(dfa))
            dfa_states += len(dfa)
            children = {}
            for symbol in model.element_names():
                element_name, target_type = split_typed_name(symbol)
                children[element_name] = (
                    dfa.symbol_ids[element_name], type_ids[target_type]
                )
            required = tuple(
                use.name for use in model.attributes if use.required
            )
            declared_mask = 0
            for use in model.attributes:
                bit = attr_ids.setdefault(use.name, len(attr_ids))
                declared_mask |= 1 << bit
            types.append(
                CompiledType(
                    name=name,
                    dfa=dfa,
                    children=children,
                    mixed=model.mixed,
                    required_attrs=required,
                    declared_mask=declared_mask,
                    declared_attrs=frozenset(
                        use.name for use in model.attributes
                    ),
                )
            )
        registry.counter("engine.compile.schemas").inc()
        registry.counter("engine.compile.types").inc(len(types))
        trace.set_attribute("types", len(types))
        trace.set_attribute("dfa_states", dfa_states)
        start = {}
        for typed in xsd.start:
            element_name, target_type = split_typed_name(typed)
            start[element_name] = type_ids[target_type]
        return CompiledSchema(
            fingerprint=fingerprint,
            types=tuple(types),
            type_ids=type_ids,
            start=start,
            start_names=tuple(sorted(start)),
            attr_ids=attr_ids,
        )


def compile_bonxai(schema):
    """Compile a BonXai schema (parsed or compiled) to a CompiledSchema.

    Rides the existing lowering chain: ``bonxai.compile`` to the formal
    BXSD core, Algorithm 2 to the DFA-based pivot, Algorithm 4 to a formal
    XSD, then :func:`compile_xsd`.  The result validates exactly the
    structural (rule) language of the schema; BonXai-specific extras
    (constraints, rule highlighting) stay with the tree validator.
    """
    from repro.bonxai.compile import CompiledSchema as BonxaiCompiled
    from repro.bonxai.compile import compile_schema
    from repro.translation.bxsd_to_dfa import bxsd_to_dfa_based
    from repro.translation.dfa_to_xsd import dfa_based_to_xsd

    if not isinstance(schema, BonxaiCompiled):
        schema = compile_schema(schema)
    xsd = dfa_based_to_xsd(bxsd_to_dfa_based(schema.bxsd))
    return compile_xsd(xsd)
