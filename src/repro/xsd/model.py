"""The formal XSD model (Definition 2 of the paper).

An XSchema Definition is ``X = (EName, Types, rho, T0)``: ``rho`` maps each
complex type to a content model over *typed element names* ``a[t]``, and
``T0`` is the set of typed start elements.  Well-formedness enforces:

* **EDC** (Element Declarations Consistent): no content model (and not
  ``T0``) mentions the same element name with two different types.
* **UPA** (Unique Particle Attribution): every content model is a
  deterministic (one-unambiguous) regular expression.
"""

from __future__ import annotations

from repro.errors import EDCViolation, SchemaError
from repro.regex.determinism import check_deterministic
from repro.xsd.content import ContentModel, as_content_model
from repro.xsd.typednames import TypedName, split_typed_name


class XSD:
    """A formal XSD (Definition 2).

    Attributes:
        ename: frozenset of element names.
        types: frozenset of complex type names.
        rho: dict type name -> :class:`ContentModel` whose regex is over
            typed element names ``a[t]``.
        start: frozenset of :class:`TypedName` start elements (``T0``).
    """

    # "__weakref__" lets the schema cache's identity fast path hold a
    # weak reference (repro.engine.cache.SchemaCache._remember).
    __slots__ = ("ename", "types", "rho", "start", "__weakref__")

    def __init__(self, ename, types, rho, start, check=True):
        self.ename = frozenset(ename)
        self.types = frozenset(types)
        self.rho = {
            type_name: as_content_model(model)
            for type_name, model in rho.items()
        }
        self.start = frozenset(
            name if isinstance(name, TypedName) else TypedName(*name)
            for name in start
        )
        if check:
            self.check_well_formed()

    # -- well-formedness ---------------------------------------------------
    def check_well_formed(self):
        """Raise :class:`SchemaError` unless this is a valid Definition-2 XSD."""
        for type_name in self.types:
            if type_name not in self.rho:
                raise SchemaError(f"type {type_name!r} has no content model")
        for type_name in self.rho:
            if type_name not in self.types:
                raise SchemaError(
                    f"content model for undeclared type {type_name!r}"
                )
        self._check_symbols()
        self.check_edc()
        self.check_upa()

    def _check_symbols(self):
        for type_name, model in self.rho.items():
            for symbol in model.element_names():
                element_name, target_type = split_typed_name(symbol)
                if element_name not in self.ename:
                    raise SchemaError(
                        f"type {type_name!r} references unknown element "
                        f"{element_name!r}"
                    )
                if target_type not in self.types:
                    raise SchemaError(
                        f"type {type_name!r} references unknown type "
                        f"{target_type!r}"
                    )
        for typed in self.start:
            element_name, target_type = split_typed_name(typed)
            if element_name not in self.ename:
                raise SchemaError(f"unknown start element {element_name!r}")
            if target_type not in self.types:
                raise SchemaError(f"unknown start type {target_type!r}")

    def check_edc(self):
        """Raise :class:`EDCViolation` on Element-Declarations-Consistent breaches."""
        for type_name, model in self.rho.items():
            _check_consistent(
                model.element_names(),
                f"content model of type {type_name!r}",
            )
        _check_consistent(self.start, "the start elements T0")

    def check_upa(self):
        """Raise :class:`NotDeterministicError` on UPA breaches.

        Thanks to EDC, determinism over typed names coincides with
        determinism over plain element names, so the check runs on the
        erased expression — the same expression the BonXai translation will
        carry verbatim.
        """
        for type_name, model in self.rho.items():
            erased = model.map_symbols(lambda s: split_typed_name(s)[0])
            check_deterministic(erased.regex)

    # -- accessors ----------------------------------------------------------
    def child_type(self, type_name, element_name):
        """The unique type of ``element_name`` inside ``rho(type_name)``.

        Returns ``None`` when the element does not occur there.  Uniqueness
        is EDC.
        """
        for symbol in self.rho[type_name].element_names():
            name, target_type = split_typed_name(symbol)
            if name == element_name:
                return target_type
        return None

    def start_type(self, element_name):
        """The start type of a root element name, or ``None``."""
        for typed in self.start:
            name, target_type = split_typed_name(typed)
            if name == element_name:
                return target_type
        return None

    @property
    def size(self):
        """Paper size measure: number of types plus content-model sizes."""
        return len(self.types) + sum(model.size for model in self.rho.values())

    def reachable_types(self):
        """Types reachable from the start elements."""
        seen = set()
        worklist = []
        for typed in self.start:
            __, type_name = split_typed_name(typed)
            if type_name not in seen:
                seen.add(type_name)
                worklist.append(type_name)
        while worklist:
            type_name = worklist.pop()
            for symbol in self.rho[type_name].element_names():
                __, target = split_typed_name(symbol)
                if target not in seen:
                    seen.add(target)
                    worklist.append(target)
        return frozenset(seen)

    def trimmed(self):
        """An equivalent XSD restricted to reachable types."""
        keep = self.reachable_types()
        return XSD(
            ename=self.ename,
            types=keep,
            rho={t: self.rho[t] for t in keep},
            start=self.start,
            check=False,
        )

    def __repr__(self):
        return (
            f"<XSD types={len(self.types)} elements={len(self.ename)} "
            f"size={self.size}>"
        )


def _check_consistent(symbols, where):
    seen = {}
    for symbol in symbols:
        element_name, type_name = split_typed_name(symbol)
        previous = seen.get(element_name)
        if previous is not None and previous != type_name:
            raise EDCViolation(
                f"element {element_name!r} occurs with types {previous!r} "
                f"and {type_name!r} in {where}"
            )
        seen[element_name] = type_name
