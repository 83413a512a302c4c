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
* the DFA is renumbered to dense integer tables over the type's own
  alphabet, so one validation step is ``table[state][column]`` — two
  tuple indexes;
* an unordered content model (``xs:all``, BonXai ``&``), whose minimal
  DFA has 2^n states, is compiled to a :class:`ContentBag` instead: a
  seen-mask checked by counting, built in time linear in its members;
* each element name is one ``str`` object across the schema, and a
  type finds a child's column in its automaton's own ``symbol_ids``
  (EDC makes the child's type a function of that name, kept by column
  in :attr:`CompiledType.child_types`).  The type's :class:`ContentDFA`
  or :class:`ContentBag` is the one copy of its automaton and of that
  map: every loop steps it, and explanations read it.

The result, :class:`CompiledSchema`, is immutable and shareable across
threads; :mod:`repro.engine.cache` memoizes it per schema fingerprint and
:mod:`repro.engine.streaming` runs documents against it.
"""

from __future__ import annotations

from repro.automata.minimize import minimize
from repro.observability import default_registry
from repro.observability.tracing import span
from repro.regex.ast import Interleave, Optional, Plus, Star, Symbol
from repro.regex.derivatives import to_dfa
from repro.xsd.typednames import split_typed_name

class ContentDFA:
    """A minimal complete DFA over a content model's (erased) alphabet.

    States are dense integers with 0 initial; ``table[state][column]``
    is the successor on ``symbols[column]`` (always defined — the DFA is
    complete over its alphabet).  Words containing symbols outside the
    alphabet are rejected, mirroring how a derivative step on a foreign
    symbol yields the empty language.  The validation loops step
    ``table`` and test ``acc_bits`` directly: this object is the only
    copy of the automaton.

    Attributes:
        symbols: tuple of alphabet symbols, sorted; ``symbol_ids`` inverts
            (symbol -> column).
        table: tuple of per-state tuples of successor state ids, one
            entry per column.
        acc_bits: the accepting states as a bitset: state ``s`` accepts
            iff ``acc_bits >> s & 1``.
        live: tuple of booleans; ``live[s]`` iff some accepting state is
            reachable from ``s`` (a dead state can never recover).
    """

    __slots__ = ("symbols", "symbol_ids", "table", "acc_bits", "live")

    def __init__(self, symbols, table, acc_bits, live):
        self.symbols = symbols
        self.symbol_ids = {name: i for i, name in enumerate(symbols)}
        self.table = table
        self.acc_bits = acc_bits
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
        return self.is_accepting(state)

    def step(self, state, symbol):
        """The successor of ``state`` on alphabet index ``symbol``."""
        return self.table[state][symbol]

    def is_accepting(self, state):
        return bool(self.acc_bits >> state & 1)

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
    ``len``) with masks for states, the initial state again 0; the
    validation loops test the masks below directly.

    Attributes:
        symbols: the member names, sorted; member ``i`` owns bit ``1 << i``.
        required: mask of the members that must occur (``1`` and ``+``).
        once: mask of the members that may not recur (``1`` and ``?``).
        dead: the bit just above the members', set by a forbidden repeat.
    """

    __slots__ = ("symbols", "symbol_ids", "required", "once", "dead")

    def __init__(self, members):
        """``members``: dict name -> ``(required, repeatable)``."""
        self.symbols = tuple(sorted(members))
        self.symbol_ids = {name: i for i, name in enumerate(self.symbols)}
        self.required = self.once = 0
        for index, name in enumerate(self.symbols):
            required, repeatable = members[name]
            if required:
                self.required |= 1 << index
            if not repeatable:
                self.once |= 1 << index
        self.dead = 1 << len(self.symbols)

    def step(self, state, symbol):
        bit = 1 << symbol
        if state & bit & self.once:
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
    # minimize numbers the states 0..n-1 breadth-first from the initial
    # state in sorted symbol order: the table's canonical order.
    dfa = minimize(to_dfa(regex, alphabet=symbols))
    transitions = dfa.transitions
    order = range(len(dfa.states))
    table = tuple(
        tuple(transitions[(state, name)] for name in symbols)
        for state in order
    )
    acc_bits = 0
    for state in dfa.accepting:
        acc_bits |= 1 << state
    return ContentDFA(symbols, table, acc_bits, _live_states(table, acc_bits))


def _live_states(table, acc_bits):
    """Backwards reachability from the accepting states."""
    count = len(table)
    predecessors = [[] for __ in range(count)]
    for source, row in enumerate(table):
        for target in row:
            predecessors[target].append(source)
    live = [False] * count
    worklist = [state for state in range(count) if acc_bits >> state & 1]
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
            content has bag shape (:func:`bag_members`).  The one copy:
            the validation loops step its table (or test its masks) and
            explanations (``first_divergence``) replay it.
        bag: that :class:`ContentBag`, or ``None`` for ordered content.
        mixed: whether character data is allowed.
        required_attrs: tuple of required attribute names, in declaration
            order (diagnostic order matches the tree validator).
        child_types: tuple mapping column (a child name's index in
            ``dfa.symbols``, found by ``dfa.symbol_ids.get(name, -1)``)
            to the child's type id (EDC: a function of the name), then a
            trailing ``-1`` that a non-child's column ``-1`` reads:
            ``child_types[column] < 0`` is the one "not a child" test,
            and no loop steps on ``-1``.
        required_set: frozenset of the required attribute names.
        declared_attrs: frozenset of every declared attribute name.
    """

    __slots__ = (
        "name", "dfa", "bag", "mixed", "required_attrs", "child_types",
        "required_set", "declared_attrs",
    )

    def __init__(self, name, dfa, children, mixed, required_attrs,
                 declared_attrs=frozenset()):
        """``children``: dict element name -> child type id."""
        self.name = name
        self.dfa = dfa
        self.bag = dfa if isinstance(dfa, ContentBag) else None
        self.mixed = mixed
        self.required_attrs = required_attrs
        self.required_set = frozenset(required_attrs)
        self.declared_attrs = declared_attrs
        child_types = [-1] * (len(dfa.symbols) + 1)
        for element_name, child_type in children.items():
            child_types[dfa.symbol_ids[element_name]] = child_type
        self.child_types = tuple(child_types)

    # The per-element checks and violation messages ValidatedDocument's
    # walk writes (for opens, edits, and every validation the dense scan
    # does not commit), in the wording of the tree validator.  ``path``
    # is the element's slash path.
    def attribute_problems(self, attributes):
        """The attribute check, as ``(missing, attribute name)`` pairs.

        Missing required attributes (``missing`` true) come first, in
        declaration order, then undeclared ones in document order.
        """
        problems = []
        for name in self.required_attrs:
            if name not in attributes:
                problems.append((True, name))
        declared = self.declared_attrs
        for name in attributes:
            if name not in declared:
                problems.append((False, name))
        return problems

    def attribute_violations(self, path, element, attributes):
        """:meth:`attribute_problems` as violation messages."""
        problems = self.attribute_problems(attributes)
        if not problems:
            return problems
        return [
            f"{path}: element <{element}> is missing required "
            f"attribute {name!r}" if missing else
            f"{path}: element <{element}> has undeclared attribute {name!r}"
            for missing, name in problems
        ]

    def child_not_allowed(self, path, element, child):
        """The violation for a ``child`` this type declares no type for."""
        return (
            f"{path}: element <{child}> is not allowed under <{element}> "
            f"(type {self.name})"
        )

    def content_mismatch(self, path, element, child_names):
        """The violation for a child word the content model rejects."""
        shown = " ".join(child_names)
        return (
            f"{path}: children of <{element}> [{shown or 'none'}] do not "
            f"match the content model of type {self.name}"
        )

    def text_not_allowed(self, path, element):
        """The violation for character data in element-only content."""
        return (
            f"{path}: element <{element}> (type {self.name}) may not "
            f"contain text"
        )


class CompiledSchema:
    """An immutable, table-driven form of a formal XSD.

    Attributes:
        fingerprint: the :func:`repro.engine.cache.schema_fingerprint` of
            the source schema (``None`` when compiled directly).
        types: tuple of :class:`CompiledType`, indexed by type id.
        type_ids: dict type name -> type id.
        start: dict root element name -> type id (the paper's ``T0``).
        start_names: sorted tuple of allowed root names (diagnostics).
        names: sorted tuple of the schema-wide element alphabet (every
            child name of every type, plus the root names).  Each name is
            one ``str`` object, the same one that keys ``start`` and
            every type's ``dfa.symbol_ids``, so lookups with it hit by
            identity.
        byte_ids: dict UTF-8 name bytes -> index in ``names`` — the byte
            tokenizer resolves a tag's name without decoding it.
        dense_types: tuple, indexed by type id, of ``(table, symbol_ids,
            child_types, acc_bits, mixed, declared_attrs, required_set,
            bag)`` — the fused loop unpacks one tuple per tag instead of
            touching attributes.  References, not copies: ``symbol_ids``
            is the type's automaton's own; for ordered content ``table``
            and ``acc_bits`` are the :class:`ContentDFA`'s own and
            ``bag`` is ``None``; for a bag, ``bag`` is the
            :class:`ContentBag`, ``table`` is ``None`` and ``acc_bits``
            is ``1`` iff the empty mask accepts.
    """

    __slots__ = (
        "fingerprint", "types", "type_ids", "start", "start_names",
        "names", "byte_ids", "dense_types",
    )

    dense = True
    """Always ``True``: every type has dense tables.  Kept for code that
    still reads the flag (the repository benchmark)."""

    def __init__(self, fingerprint, types, type_ids, start, names):
        self.fingerprint = fingerprint
        self.types = types
        self.type_ids = type_ids
        self.start = start
        self.start_names = tuple(sorted(start))
        self.names = names
        self.byte_ids = {
            name.encode("utf-8"): i for i, name in enumerate(names)
        }
        self.dense_types = tuple(
            (None, compiled.dfa.symbol_ids, compiled.child_types,
             int(compiled.bag.is_accepting(0)), compiled.mixed,
             compiled.declared_attrs, compiled.required_set, compiled.bag)
            if compiled.bag is not None else
            (compiled.dfa.table, compiled.dfa.symbol_ids,
             compiled.child_types, compiled.dfa.acc_bits, compiled.mixed,
             compiled.declared_attrs, compiled.required_set, None)
            for compiled in types
        )

    def type_named(self, name):
        """The :class:`CompiledType` for a source type name."""
        return self.types[self.type_ids[name]]

    def undeclared_root(self, element_name):
        """The violation for a root element that is not declared."""
        return (
            f"root element <{element_name}> is not declared "
            f"(allowed: {list(self.start_names)})"
        )

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
        # One str object per element name, shared by ``names``, the keys
        # of ``start`` and of every type's children, and the automata's
        # symbols: the loops' dict probes then hit by identity.
        canonical = {}

        def split(typed):
            """``(element name, type id)``, the name canonical."""
            element_name, type_name = split_typed_name(typed)
            return (canonical.setdefault(element_name, element_name),
                    type_ids[type_name])

        start = dict(map(split, xsd.start))
        # By EDC each type's child type is a function of the child name.
        children = {
            name: dict(map(split, xsd.rho[name].element_names()))
            for name in type_names
        }
        types = []
        dfa_states = 0
        for name in type_names:
            model = xsd.rho[name]
            erased = model.map_symbols(lambda typed: split(typed)[0])
            dfa = compile_content(erased.regex)
            dfa_sizes.observe(len(dfa))
            dfa_states += len(dfa)
            types.append(
                CompiledType(
                    name=name,
                    dfa=dfa,
                    children=children[name],
                    mixed=model.mixed,
                    required_attrs=tuple(
                        use.name for use in model.attributes if use.required
                    ),
                    declared_attrs=frozenset(
                        use.name for use in model.attributes
                    ),
                )
            )
        registry.counter("engine.compile.schemas").inc()
        registry.counter("engine.compile.types").inc(len(types))
        trace.set_attribute("types", len(types))
        trace.set_attribute("dfa_states", dfa_states)
        return CompiledSchema(
            fingerprint=fingerprint,
            types=tuple(types),
            type_ids=type_ids,
            start=start,
            names=tuple(sorted(canonical)),
        )


def compile_bonxai(schema):
    """Compile a BonXai schema (parsed or compiled) to a CompiledSchema.

    Rides the existing lowering chain: ``bonxai.compile`` to the formal
    BXSD core, Algorithms 3 and 4 to a formal XSD
    (:func:`~repro.translation.formal_xsd`), then :func:`compile_xsd`.
    The result validates exactly the structural (rule) language of the
    schema; BonXai-specific extras (constraints, rule highlighting) stay
    with the tree validator.
    """
    from repro.bonxai.compile import CompiledSchema as BonxaiCompiled
    from repro.bonxai.compile import compile_schema
    from repro.translation.pipeline import formal_xsd

    if not isinstance(schema, BonxaiCompiled):
        schema = compile_schema(schema)
    return compile_xsd(formal_xsd("bonxai", schema))
