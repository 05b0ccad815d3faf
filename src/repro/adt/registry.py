"""ADT, function, and operator registration.

Paper §4.1: "To add a new ADT, the person responsible for adding the type
begins by writing (and debugging) the code for the type in the E
programming language" and then registers the type, its functions, and
optionally operators with the system. Operators are an alternative
invocation syntax for functions ("CnumPair.val1 + CnumPair.val2" versus
"Add(CnumPair.val1, CnumPair.val2)"), and new operators carry explicit
precedence and associativity as in POSTGRES.

The paper's restrictions are enforced here:

* functions with three or more arguments cannot be defined as infix
  operators;
* functions overloaded within a single ADT (dbclass) may not be defined
  as operators;
* new operator symbols may be any legal identifier or any sequence of
  punctuation characters.
"""

from __future__ import annotations

import string
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from repro.core.types import AdtType, Type
from repro.errors import CatalogError

__all__ = ["AdtFunction", "OperatorDef", "AdtRegistry", "is_valid_operator_symbol"]

#: characters allowed in punctuation operator symbols
_PUNCT = set("+-*/%<>=!&|^~@#?:$.")


def is_valid_operator_symbol(symbol: str) -> bool:
    """True for a legal EXCESS operator symbol: an identifier or a
    sequence of punctuation characters (paper §4.1.2)."""
    if not symbol:
        return False
    if symbol[0] in string.ascii_letters + "_":
        return all(c in string.ascii_letters + string.digits + "_" for c in symbol)
    return all(c in _PUNCT for c in symbol)


@dataclass(frozen=True)
class AdtFunction:
    """A registered ADT function (an E dbclass member function).

    ``param_types`` lists the declared parameter types; ``impl`` is the
    Python callable. ``result_type`` may be any EXTRA type including other
    ADTs or base types.
    """

    adt_name: str
    name: str
    impl: Callable[..., Any] = field(compare=False)
    param_types: tuple[Type, ...] = ()
    result_type: Optional[Type] = None

    @property
    def arity(self) -> int:
        """Number of declared parameters."""
        return len(self.param_types)

    def matches(self, arg_types: Sequence[Type]) -> bool:
        """True when the declared parameters accept ``arg_types``."""
        if len(arg_types) != self.arity:
            return False
        return all(
            declared.is_assignable_from(actual)
            for declared, actual in zip(self.param_types, arg_types)
        )


@dataclass(frozen=True)
class OperatorDef:
    """A registered operator: an alternative invocation syntax for an ADT
    function, with the parse-time properties the paper requires."""

    symbol: str
    adt_name: str
    function_name: str
    precedence: int = 50
    associativity: str = "left"  # "left" | "right"
    fixity: str = "infix"  # "infix" | "prefix"

    def __post_init__(self) -> None:
        if self.associativity not in ("left", "right"):
            raise CatalogError(
                f"operator associativity must be left or right: {self.associativity!r}"
            )
        if self.fixity not in ("infix", "prefix"):
            raise CatalogError(f"operator fixity must be infix or prefix: {self.fixity!r}")


class AdtRegistry:
    """Registry of ADTs, their functions, and their operators."""

    #: bumped by every operator registration, so the interpreter rebuilds
    #: its parse table and lexer symbols only when they may have changed
    #: (a class default: registries pickled before it existed read 0)
    operators_version = 0

    def __init__(self) -> None:
        self._adts: dict[str, AdtType] = {}
        #: (adt_name, function_name) → list of overloads
        self._functions: dict[tuple[str, str], list[AdtFunction]] = {}
        #: operator symbol → list of defs (overloaded across ADTs)
        self._operators: dict[str, list[OperatorDef]] = {}

    # -- ADTs --------------------------------------------------------------------

    def define_adt(
        self,
        name: str,
        py_class: type,
        validator: Optional[Callable[[Any], bool]] = None,
    ) -> AdtType:
        """Register a new abstract data type backed by ``py_class``."""
        if name in self._adts:
            raise CatalogError(f"ADT {name!r} already defined")
        adt = AdtType(name=name, py_class=py_class, validator=validator)
        self._adts[name] = adt
        return adt

    def adt(self, name: str) -> AdtType:
        """Look up an ADT by name."""
        try:
            return self._adts[name]
        except KeyError:
            raise CatalogError(f"unknown ADT {name!r}") from None

    def has_adt(self, name: str) -> bool:
        """True when ``name`` names a registered ADT."""
        return name in self._adts

    def adt_names(self) -> list[str]:
        """All registered ADT names, sorted."""
        return sorted(self._adts)

    def adt_of_value(self, value: Any) -> Optional[AdtType]:
        """The ADT whose class matches ``value``, if any."""
        for adt in self._adts.values():
            if isinstance(value, adt.py_class):
                return adt
        return None

    # -- functions ------------------------------------------------------------------

    def define_function(
        self,
        adt_name: str,
        name: str,
        impl: Callable[..., Any],
        param_types: Sequence[Type],
        result_type: Optional[Type],
    ) -> AdtFunction:
        """Register a function belonging to ``adt_name``.

        Overloads (same name, different parameter lists) are allowed, but
        an overloaded function may not subsequently become an operator.
        """
        self.adt(adt_name)  # validate
        function = AdtFunction(
            adt_name=adt_name,
            name=name,
            impl=impl,
            param_types=tuple(param_types),
            result_type=result_type,
        )
        overloads = self._functions.setdefault((adt_name, name), [])
        for existing in overloads:
            if existing.param_types == function.param_types:
                raise CatalogError(
                    f"function {adt_name}.{name} with identical signature "
                    "already defined"
                )
        overloads.append(function)
        return function

    def functions_named(self, name: str) -> list[AdtFunction]:
        """Every function with ``name`` across all ADTs (for the symmetric
        call syntax ``Add(x, y)`` the paper also accepts)."""
        out: list[AdtFunction] = []
        for (_adt, fn_name), overloads in self._functions.items():
            if fn_name == name:
                out.extend(overloads)
        return out

    def resolve_function(
        self, name: str, arg_types: Sequence[Type]
    ) -> Optional[AdtFunction]:
        """Pick the unique function ``name`` matching ``arg_types``."""
        candidates = [f for f in self.functions_named(name) if f.matches(arg_types)]
        if not candidates:
            return None
        if len(candidates) > 1:
            rendered = ", ".join(str(t) for t in arg_types)
            raise CatalogError(
                f"ambiguous call {name}({rendered}): "
                f"{len(candidates)} candidates"
            )
        return candidates[0]

    def function(self, adt_name: str, name: str) -> list[AdtFunction]:
        """All overloads of ``adt_name.name``."""
        try:
            return list(self._functions[(adt_name, name)])
        except KeyError:
            raise CatalogError(f"unknown function {adt_name}.{name}") from None

    # -- operators -------------------------------------------------------------------

    def register_operator(
        self,
        symbol: str,
        adt_name: str,
        function_name: str,
        precedence: int = 50,
        associativity: str = "left",
        fixity: str = "infix",
    ) -> OperatorDef:
        """Register ``symbol`` as an invocation syntax for an ADT function.

        Enforces the paper's restrictions: the function must exist, must
        not be overloaded within its ADT, and infix operators must have
        exactly two parameters (prefix: exactly one).
        """
        if not is_valid_operator_symbol(symbol):
            raise CatalogError(f"illegal operator symbol {symbol!r}")
        overloads = self.function(adt_name, function_name)
        if len(overloads) > 1:
            raise CatalogError(
                f"function {adt_name}.{function_name} is overloaded and may "
                "not be defined as an operator"
            )
        function = overloads[0]
        if fixity == "infix" and function.arity != 2:
            raise CatalogError(
                f"infix operator requires a 2-argument function; "
                f"{function_name} has {function.arity}"
            )
        if fixity == "prefix" and function.arity != 1:
            raise CatalogError(
                f"prefix operator requires a 1-argument function; "
                f"{function_name} has {function.arity}"
            )
        definition = OperatorDef(
            symbol=symbol,
            adt_name=adt_name,
            function_name=function_name,
            precedence=precedence,
            associativity=associativity,
            fixity=fixity,
        )
        entries = self._operators.setdefault(symbol, [])
        for existing in entries:
            if existing.adt_name == adt_name:
                raise CatalogError(
                    f"operator {symbol!r} already registered for ADT {adt_name!r}"
                )
            if (
                existing.precedence != precedence
                or existing.associativity != associativity
                or existing.fixity != fixity
            ):
                raise CatalogError(
                    f"operator {symbol!r} re-registered with conflicting "
                    "precedence/associativity/fixity"
                )
        entries.append(definition)
        self.operators_version += 1
        return definition

    def operator_defs(self, symbol: str) -> list[OperatorDef]:
        """All registrations (overloads across ADTs) of ``symbol``."""
        return list(self._operators.get(symbol, ()))

    def operator_symbols(self) -> list[str]:
        """Every registered operator symbol (for the lexer)."""
        return sorted(self._operators)

    def operator_parse_info(self, symbol: str) -> Optional[OperatorDef]:
        """Parse-time properties of ``symbol`` (all overloads share them)."""
        entries = self._operators.get(symbol)
        return entries[0] if entries else None

    def resolve_operator(
        self, symbol: str, arg_types: Sequence[Type]
    ) -> Optional[AdtFunction]:
        """Pick the function implementing ``symbol`` for ``arg_types``."""
        matches: list[AdtFunction] = []
        for definition in self._operators.get(symbol, ()):
            for overload in self.function(definition.adt_name, definition.function_name):
                if overload.matches(arg_types):
                    matches.append(overload)
        if not matches:
            return None
        if len(matches) > 1:
            rendered = ", ".join(str(t) for t in arg_types)
            raise CatalogError(
                f"ambiguous operator {symbol!r} over ({rendered})"
            )
        return matches[0]
