"""The EXCESS parser: recursive descent with precedence-climbing
expressions over an extensible operator table.

New ADT operators registered at runtime (paper §4.1.2 requires their
precedence and associativity to be specified at registration) flow into
the parser through :class:`OperatorTable`, so a statement using a fresh
operator parses correctly with no parser changes — the paper's
"dynamically extensible" requirement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ParseError
from repro.excess import ast_nodes as ast
from repro.excess.lexer import Lexer, Token, TokenType

__all__ = ["OperatorTable", "Parser", "parse_script", "parse_statement"]

#: identifiers that name predefined base types in type expressions
_BASE_TYPE_NAMES = {
    "int1", "int2", "int4", "int8", "float4", "float8", "boolean", "text",
    "char",
}

_LITERAL_TYPES = (TokenType.INT, TokenType.FLOAT, TokenType.STRING)

#: statement-starting keywords (used to delimit statements in scripts)
_STATEMENT_STARTERS = {
    "define", "create", "destroy", "drop", "range", "retrieve", "append",
    "delete", "replace", "set", "execute", "grant", "revoke",
}


@dataclass(frozen=True)
class _OpInfo:
    precedence: int
    associativity: str  # "left" | "right"
    fixity: str  # "infix" | "prefix"


class OperatorTable:
    """Parse-time operator properties: precedence, associativity, fixity.

    Pre-loaded with the built-in EXCESS operators; the interpreter adds
    rows for every operator registered through the ADT facility.
    """

    #: comparison precedence level (is/isnot/in/contains live here too)
    COMPARISON = 40

    def __init__(self) -> None:
        self._infix: dict[str, _OpInfo] = {
            "or": _OpInfo(10, "left", "infix"),
            "and": _OpInfo(20, "left", "infix"),
            "=": _OpInfo(40, "left", "infix"),
            "!=": _OpInfo(40, "left", "infix"),
            "<": _OpInfo(40, "left", "infix"),
            "<=": _OpInfo(40, "left", "infix"),
            ">": _OpInfo(40, "left", "infix"),
            ">=": _OpInfo(40, "left", "infix"),
            "+": _OpInfo(50, "left", "infix"),
            "-": _OpInfo(50, "left", "infix"),
            "||": _OpInfo(50, "left", "infix"),
            "*": _OpInfo(60, "left", "infix"),
            "/": _OpInfo(60, "left", "infix"),
            "%": _OpInfo(60, "left", "infix"),
        }
        self._prefix: dict[str, _OpInfo] = {
            "not": _OpInfo(30, "right", "prefix"),
            "-": _OpInfo(70, "right", "prefix"),
        }

    def add_operator(
        self,
        symbol: str,
        precedence: int,
        associativity: str = "left",
        fixity: str = "infix",
    ) -> None:
        """Register a user operator's parse-time properties.

        Overloading an existing symbol keeps the built-in properties (the
        paper overloads ``+`` for Complex without changing its parsing).
        """
        table = self._infix if fixity == "infix" else self._prefix
        if symbol not in table:
            table[symbol] = _OpInfo(precedence, associativity, fixity)

    def infix(self, symbol: str) -> Optional[_OpInfo]:
        """Infix properties of ``symbol`` (None when not infix)."""
        return self._infix.get(symbol)

    def prefix(self, symbol: str) -> Optional[_OpInfo]:
        """Prefix properties of ``symbol`` (None when not prefix)."""
        return self._prefix.get(symbol)

    def punctuation_symbols(self) -> list[str]:
        """All punctuation operator symbols (for the lexer)."""
        out = [s for s in self._infix if not s[0].isalpha()]
        out += [s for s in self._prefix if not s[0].isalpha() and s not in out]
        return out


class Parser:
    """Parses a token stream into EXCESS AST nodes."""

    def __init__(self, tokens: list[Token], operators: Optional[OperatorTable] = None):
        self._tokens = tokens
        self._pos = 0
        self._ops = operators if operators is not None else OperatorTable()
        #: token index -> literal slot: the n-th INT/FLOAT/STRING token
        #: of the script is slot n, wherever the grammar consumes it
        literals = [i for i, t in enumerate(tokens) if t.type in _LITERAL_TYPES]
        self._slots = {index: slot for slot, index in enumerate(literals)}
        #: the literal values by slot (what ``Lexer.shape`` must agree with)
        self.literals = tuple(tokens[i].value for i in literals)

    # -- token plumbing ----------------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        index = min(self._pos + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def _next(self) -> Token:
        token = self._peek()
        if token.type is not TokenType.EOF:
            self._pos += 1
        return token

    def _error(self, message: str, token: Optional[Token] = None) -> ParseError:
        token = token if token is not None else self._peek()
        return ParseError(message, token.line, token.column)

    def _expect(self, token_type: TokenType, what: str = "") -> Token:
        token = self._peek()
        if token.type is not token_type:
            raise self._error(
                f"expected {what or token_type.value}, found {token.text!r}"
            )
        return self._next()

    def _expect_keyword(self, *words: str) -> Token:
        token = self._peek()
        if not token.is_keyword(*words):
            raise self._error(
                f"expected {' or '.join(repr(w) for w in words)}, "
                f"found {token.text!r}"
            )
        return self._next()

    def _accept_keyword(self, *words: str) -> Optional[Token]:
        if self._peek().is_keyword(*words):
            return self._next()
        return None

    def _expect_ident(self, what: str = "identifier") -> Token:
        token = self._peek()
        if token.type is not TokenType.IDENT:
            raise self._error(f"expected {what}, found {token.text!r}")
        return self._next()

    def _accept(self, token_type: TokenType) -> Optional[Token]:
        if self._peek().type is token_type:
            return self._next()
        return None

    @staticmethod
    def _at(node: ast.Node, token: Token) -> ast.Node:
        node.line = token.line
        node.column = token.column
        return node

    # -- entry points --------------------------------------------------------------

    def parse_script(self) -> ast.Script:
        """Parse a whole script (statements separated by semicolons)."""
        statements: list[ast.Statement] = []
        while True:
            while self._accept(TokenType.SEMI):
                pass
            if self._peek().type is TokenType.EOF:
                break
            statements.append(self.parse_statement())
        return ast.Script(statements=statements)

    def parse_statement(self) -> ast.Statement:
        """Parse exactly one statement."""
        token = self._peek()
        if token.type is TokenType.IDENT and token.text.lower() == "add":
            # `add <member> to group <name>`; "add" is not reserved so the
            # paper's Add() ADT function stays usable in expressions.
            return self._parse_add_to_group()
        if token.type is TokenType.IDENT and token.text.lower() == "alter":
            return self._parse_alter_type()
        if token.type is TokenType.IDENT and token.text.lower() == "analyze":
            # `analyze [SetName]`; "analyze" is not reserved so it stays
            # usable as an ordinary identifier
            self._next()
            name: Optional[str] = None
            if self._peek().type is TokenType.IDENT:
                name = self._next().text
            return self._at(ast.Analyze(set_name=name), token)
        if token.type is TokenType.IDENT and token.text.lower() in (
            "begin", "commit", "abort"
        ):
            # transaction statements; the words are not reserved
            word = self._next().text.lower()
            if word == "begin":
                extra = self._peek()
                if (
                    extra.type is TokenType.IDENT
                    and extra.text.lower() in ("transaction", "work")
                ):
                    self._next()
                return self._at(ast.BeginTransaction(), token)
            if word == "commit":
                return self._at(ast.CommitTransaction(), token)
            return self._at(ast.AbortTransaction(), token)
        if token.type is not TokenType.KEYWORD:
            raise self._error(f"expected a statement, found {token.text!r}")
        word = token.text
        if word == "define":
            return self._parse_define()
        if word == "create":
            return self._parse_create()
        if word == "destroy":
            self._next()
            name = self._expect_ident("object name")
            return self._at(ast.DestroyNamed(name=name.text), token)
        if word == "drop":
            return self._parse_drop_index()
        if word == "range":
            return self._parse_range()
        if word == "retrieve":
            return self._parse_retrieve_or_setop()
        if word == "explain":
            start = self._next()
            inner = self.parse_statement()
            return self._at(ast.Explain(statement=inner), start)
        if word == "append":
            return self._parse_append()
        if word == "delete":
            return self._parse_delete()
        if word == "replace":
            return self._parse_replace()
        if word == "set":
            return self._parse_set()
        if word == "execute":
            return self._parse_execute()
        if word == "grant":
            return self._parse_grant()
        if word == "revoke":
            return self._parse_revoke()
        raise self._error(f"unexpected keyword {word!r} at statement start")

    # -- DDL -----------------------------------------------------------------------

    def _parse_define(self) -> ast.Statement:
        start = self._expect_keyword("define")
        if self._peek().is_keyword("type"):
            return self._parse_define_type(start)
        if self._peek().is_keyword("function", "fixed"):
            return self._parse_define_function(start)
        if self._peek().is_keyword("procedure"):
            return self._parse_define_procedure(start)
        raise self._error("expected 'type', 'function', or 'procedure'")

    def _parse_define_type(self, start: Token) -> ast.DefineType:
        self._expect_keyword("type")
        name = self._expect_ident("type name")
        self._expect_keyword("as")
        self._expect(TokenType.LPAREN, "'('")
        attributes: list[ast.AttributeDecl] = []
        if self._peek().type is not TokenType.RPAREN:
            while True:
                attributes.append(self._parse_attribute_decl())
                if not self._accept(TokenType.COMMA):
                    break
        self._expect(TokenType.RPAREN, "')'")
        parents: list[str] = []
        renames: list[ast.RenameClause] = []
        if self._accept_keyword("inherits"):
            while True:
                parents.append(self._expect_ident("parent type name").text)
                if not self._accept(TokenType.COMMA):
                    break
        if self._accept_keyword("with"):
            while True:
                rename_tok = self._expect_keyword("rename")
                parent = self._expect_ident("parent type").text
                self._expect(TokenType.DOT, "'.'")
                attribute = self._expect_ident("attribute").text
                self._expect_keyword("to")
                new_name = self._expect_ident("new attribute name").text
                renames.append(
                    self._at(
                        ast.RenameClause(
                            parent=parent, attribute=attribute, new_name=new_name
                        ),
                        rename_tok,
                    )
                )
                if not self._accept(TokenType.COMMA):
                    break
        return self._at(
            ast.DefineType(
                name=name.text,
                attributes=attributes,
                parents=parents,
                renames=renames,
            ),
            start,
        )

    def _parse_attribute_decl(self) -> ast.AttributeDecl:
        name = self._expect_ident("attribute name")
        self._expect(TokenType.COLON, "':'")
        component = self._parse_component()
        return self._at(
            ast.AttributeDecl(name=name.text, component=component), name
        )

    def _parse_component(self) -> ast.ComponentExpr:
        """``[own | ref | own ref] <type-expr>`` (default own)."""
        token = self._peek()
        semantics = "own"
        if self._accept_keyword("own"):
            semantics = "own ref" if self._accept_keyword("ref") else "own"
        elif self._accept_keyword("ref"):
            semantics = "ref"
        type_expr = self._parse_type_expr()
        return self._at(
            ast.ComponentExpr(semantics=semantics, type=type_expr), token
        )

    def _parse_type_expr(self) -> ast.TypeExpr:
        token = self._peek()
        if token.type is TokenType.LBRACE:
            self._next()
            element = self._parse_component()
            self._expect(TokenType.RBRACE, "'}'")
            return self._at(ast.SetTypeExpr(element=element), token)
        if token.type is TokenType.LBRACKET:
            self._next()
            length: Optional[int] = None
            if self._peek().type is TokenType.INT:
                length = int(self._next().value)
            self._expect(TokenType.RBRACKET, "']'")
            element = self._parse_component()
            return self._at(
                ast.ArrayTypeExpr(element=element, length=length), token
            )
        if token.type is TokenType.LPAREN:
            self._next()
            attributes: list[ast.AttributeDecl] = []
            if self._peek().type is not TokenType.RPAREN:
                while True:
                    attributes.append(self._parse_attribute_decl())
                    if not self._accept(TokenType.COMMA):
                        break
            self._expect(TokenType.RPAREN, "')'")
            return self._at(ast.TupleTypeExpr(attributes=attributes), token)
        if token.is_keyword("enum"):
            self._next()
            self._expect(TokenType.LPAREN, "'('")
            labels: list[str] = []
            while True:
                labels.append(self._expect_ident("enum label").text)
                if not self._accept(TokenType.COMMA):
                    break
            self._expect(TokenType.RPAREN, "')'")
            return self._at(ast.EnumTypeExpr(labels=labels), token)
        ident = self._expect_ident("type name")
        lowered = ident.text.lower()
        if lowered in _BASE_TYPE_NAMES:
            param: Optional[int] = None
            if lowered == "char":
                self._expect(TokenType.LPAREN, "'(' after char")
                param = int(self._expect(TokenType.INT, "char length").value)
                self._expect(TokenType.RPAREN, "')'")
            return self._at(ast.BaseTypeExpr(name=lowered, param=param), ident)
        return self._at(ast.NamedTypeExpr(name=ident.text), ident)

    def _parse_create(self) -> ast.Statement:
        start = self._expect_keyword("create")
        if self._peek().is_keyword("index"):
            self._next()
            self._expect_keyword("on")
            set_name = self._expect_ident("set name").text
            self._expect(TokenType.LPAREN, "'('")
            attribute = self._expect_ident("attribute").text
            self._expect(TokenType.RPAREN, "')'")
            kind = "btree"
            if self._accept_keyword("using"):
                kind_tok = self._expect_ident("index kind")
                kind = kind_tok.text.lower()
            return self._at(
                ast.CreateIndex(set_name=set_name, attribute=attribute, kind=kind),
                start,
            )
        if self._peek().is_keyword("user"):
            self._next()
            name = self._expect_ident("user name").text
            return self._at(ast.CreateUser(name=name), start)
        if self._peek().is_keyword("group"):
            self._next()
            name = self._expect_ident("group name").text
            return self._at(ast.CreateGroup(name=name), start)
        component = self._parse_component()
        name = self._expect_ident("object name").text
        key: list[str] = []
        if self._accept_keyword("key"):
            self._expect(TokenType.LPAREN, "'('")
            while True:
                key.append(self._expect_ident("key attribute").text)
                if not self._accept(TokenType.COMMA):
                    break
            self._expect(TokenType.RPAREN, "')'")
        return self._at(
            ast.CreateNamed(name=name, component=component, key=key), start
        )

    def _parse_drop_index(self) -> ast.DropIndex:
        start = self._expect_keyword("drop")
        self._expect_keyword("index")
        self._expect_keyword("on")
        set_name = self._expect_ident("set name").text
        self._expect(TokenType.LPAREN, "'('")
        attribute = self._expect_ident("attribute").text
        self._expect(TokenType.RPAREN, "')'")
        kind = "btree"
        if self._accept_keyword("using"):
            kind = self._expect_ident("index kind").text.lower()
        return self._at(
            ast.DropIndex(set_name=set_name, attribute=attribute, kind=kind), start
        )

    # -- range / from ------------------------------------------------------------------

    def _parse_range(self) -> ast.RangeDecl:
        start = self._expect_keyword("range")
        self._expect_keyword("of")
        variable = self._expect_ident("range variable").text
        self._expect_keyword("is")
        universal = bool(self._accept_keyword("every"))
        source = self._parse_range_source()
        return self._at(
            ast.RangeDecl(variable=variable, source=source, universal=universal),
            start,
        )

    def _parse_range_source(self) -> ast.Expression:
        """A range specification: a path or an iterator function call."""
        ident = self._expect_ident("range specification")
        if self._peek().type is TokenType.LPAREN:
            return self._parse_call(ident)
        return self._parse_path_from(ident)

    def _parse_from_clauses(self) -> list[ast.FromClause]:
        clauses: list[ast.FromClause] = []
        if not self._accept_keyword("from"):
            return clauses
        while True:
            token = self._peek()
            variable = self._expect_ident("range variable").text
            self._expect_keyword("in")
            universal = bool(self._accept_keyword("every"))
            source = self._parse_range_source()
            clauses.append(
                self._at(
                    ast.FromClause(
                        variable=variable, source=source, universal=universal
                    ),
                    token,
                )
            )
            if not self._accept(TokenType.COMMA):
                break
        return clauses

    def _parse_where(self) -> Optional[ast.Expression]:
        if self._accept_keyword("where"):
            return self.parse_expression()
        return None

    # -- DML ----------------------------------------------------------------------------

    def _parse_retrieve_or_setop(self) -> ast.Statement:
        """A retrieve, optionally followed by union/intersect/minus
        combinators (left-associative)."""
        first = self._parse_retrieve()
        terms: list[tuple] = []
        while self._peek().is_keyword("union", "intersect", "minus"):
            op = self._next().text
            terms.append((op, self._parse_retrieve()))
        if not terms:
            return first
        node = ast.SetOperation(left=first, terms=terms)
        node.line, node.column = first.line, first.column
        return node

    def _parse_retrieve(self) -> ast.Retrieve:
        start = self._expect_keyword("retrieve")
        unique = bool(self._accept_keyword("unique"))
        into: Optional[str] = None
        if self._accept_keyword("into"):
            into = self._expect_ident("result name").text
        self._expect(TokenType.LPAREN, "'(' before target list")
        targets: list[ast.TargetItem] = []
        while True:
            targets.append(self._parse_target_item())
            if not self._accept(TokenType.COMMA):
                break
        self._expect(TokenType.RPAREN, "')' after target list")
        from_clauses = self._parse_from_clauses()
        where = self._parse_where()
        order: list[ast.SortKey] = []
        if self._accept_keyword("sort"):
            self._expect_keyword("by")
            while True:
                key_token = self._peek()
                expression = self.parse_expression()
                descending = False
                if self._accept_keyword("desc"):
                    descending = True
                else:
                    self._accept_keyword("asc")
                order.append(
                    self._at(
                        ast.SortKey(
                            expression=expression, descending=descending
                        ),
                        key_token,
                    )
                )
                if not self._accept(TokenType.COMMA):
                    break
        return self._at(
            ast.Retrieve(
                targets=targets,
                into=into,
                from_clauses=from_clauses,
                where=where,
                unique=unique,
                order=order,
            ),
            start,
        )

    def _parse_target_item(self) -> ast.TargetItem:
        token = self._peek()
        label: Optional[str] = None
        if (
            token.type is TokenType.IDENT
            and self._peek(1).type is TokenType.OP
            and self._peek(1).text == "="
        ):
            label = self._next().text
            self._next()  # '='
        expression = self.parse_expression()
        return self._at(ast.TargetItem(expression=expression, label=label), token)

    def _parse_append(self) -> ast.Append:
        start = self._expect_keyword("append")
        self._accept_keyword("to")
        target = self._parse_path()
        self._expect(TokenType.LPAREN, "'('")
        assignments: list[ast.Assignment] = []
        expression: Optional[ast.Expression] = None
        if (
            self._peek().type is TokenType.IDENT
            and self._peek(1).type is TokenType.OP
            and self._peek(1).text == "="
        ):
            while True:
                attr = self._expect_ident("attribute").text
                eq = self._expect(TokenType.OP, "'='")
                if eq.text != "=":
                    raise self._error("expected '=' in assignment", eq)
                value = self.parse_expression()
                assignments.append(ast.Assignment(attribute=attr, expression=value))
                if not self._accept(TokenType.COMMA):
                    break
        else:
            expression = self.parse_expression()
        self._expect(TokenType.RPAREN, "')'")
        from_clauses = self._parse_from_clauses()
        where = self._parse_where()
        return self._at(
            ast.Append(
                target=target,
                assignments=assignments,
                expression=expression,
                from_clauses=from_clauses,
                where=where,
            ),
            start,
        )

    def _parse_delete(self) -> ast.Delete:
        start = self._expect_keyword("delete")
        variable = self._expect_ident("range variable").text
        from_clauses = self._parse_from_clauses()
        where = self._parse_where()
        return self._at(
            ast.Delete(variable=variable, from_clauses=from_clauses, where=where),
            start,
        )

    def _parse_replace(self) -> ast.Replace:
        start = self._expect_keyword("replace")
        target = self._parse_path()
        self._expect(TokenType.LPAREN, "'('")
        assignments: list[ast.Assignment] = []
        while True:
            attr = self._expect_ident("attribute").text
            eq = self._expect(TokenType.OP, "'='")
            if eq.text != "=":
                raise self._error("expected '=' in assignment", eq)
            value = self.parse_expression()
            assignments.append(ast.Assignment(attribute=attr, expression=value))
            if not self._accept(TokenType.COMMA):
                break
        self._expect(TokenType.RPAREN, "')'")
        from_clauses = self._parse_from_clauses()
        where = self._parse_where()
        return self._at(
            ast.Replace(
                target=target,
                assignments=assignments,
                from_clauses=from_clauses,
                where=where,
            ),
            start,
        )

    def _parse_set(self) -> ast.SetStatement:
        start = self._expect_keyword("set")
        target = self._parse_path()
        eq = self._expect(TokenType.OP, "'='")
        if eq.text != "=":
            raise self._error("expected '=' in set statement", eq)
        expression = self.parse_expression()
        from_clauses = self._parse_from_clauses()
        where = self._parse_where()
        return self._at(
            ast.SetStatement(
                target=target,
                expression=expression,
                from_clauses=from_clauses,
                where=where,
            ),
            start,
        )

    # -- functions / procedures ------------------------------------------------------------

    def _parse_param_list(self) -> list[ast.ParamDecl]:
        self._expect(TokenType.LPAREN, "'('")
        params: list[ast.ParamDecl] = []
        if self._peek().type is not TokenType.RPAREN:
            while True:
                token = self._expect_ident("parameter name")
                if self._accept_keyword("in"):
                    type_name = self._expect_ident("type name").text
                    params.append(
                        self._at(
                            ast.ParamDecl(name=token.text, type_name=type_name),
                            token,
                        )
                    )
                else:
                    self._expect(TokenType.COLON, "':' or 'in'")
                    component = self._parse_component()
                    params.append(
                        self._at(
                            ast.ParamDecl(name=token.text, component=component),
                            token,
                        )
                    )
                if not self._accept(TokenType.COMMA):
                    break
        self._expect(TokenType.RPAREN, "')'")
        return params

    def _parse_define_function(self, start: Token) -> ast.DefineFunction:
        fixed = bool(self._accept_keyword("fixed"))
        self._expect_keyword("function")
        name = self._expect_ident("function name").text
        params = self._parse_param_list()
        self._expect_keyword("returns")
        returns = self._parse_component()
        self._expect_keyword("as")
        body = self._parse_retrieve()
        return self._at(
            ast.DefineFunction(
                name=name, params=params, returns=returns, body=body, fixed=fixed
            ),
            start,
        )

    def _parse_define_procedure(self, start: Token) -> ast.DefineProcedure:
        self._expect_keyword("procedure")
        name = self._expect_ident("procedure name").text
        params = self._parse_param_list()
        self._expect_keyword("as")
        body = self.parse_statement()
        return self._at(
            ast.DefineProcedure(name=name, params=params, body=body), start
        )

    def _parse_execute(self) -> ast.ExecuteProcedure:
        start = self._expect_keyword("execute")
        name = self._expect_ident("procedure name").text
        self._expect(TokenType.LPAREN, "'('")
        args: list[ast.Expression] = []
        if self._peek().type is not TokenType.RPAREN:
            while True:
                args.append(self.parse_expression())
                if not self._accept(TokenType.COMMA):
                    break
        self._expect(TokenType.RPAREN, "')'")
        from_clauses = self._parse_from_clauses()
        where = self._parse_where()
        return self._at(
            ast.ExecuteProcedure(
                name=name, args=args, from_clauses=from_clauses, where=where
            ),
            start,
        )

    # -- authorization ---------------------------------------------------------------------

    def _parse_principal(self) -> str:
        token = self._peek()
        if token.is_keyword("group", "user"):
            self._next()
            return self._expect_ident("principal").text
        return self._expect_ident("principal").text

    def _parse_grant(self) -> ast.GrantStatement:
        start = self._expect_keyword("grant")
        priv_token = self._next()
        if priv_token.type not in (TokenType.IDENT, TokenType.KEYWORD):
            raise self._error("expected a privilege", priv_token)
        self._expect_keyword("on")
        object_name = self._expect_ident("object name").text
        self._expect_keyword("to")
        principal = self._parse_principal()
        return self._at(
            ast.GrantStatement(
                privilege=priv_token.text, object_name=object_name,
                principal=principal,
            ),
            start,
        )

    def _parse_revoke(self) -> ast.RevokeStatement:
        start = self._expect_keyword("revoke")
        priv_token = self._next()
        if priv_token.type not in (TokenType.IDENT, TokenType.KEYWORD):
            raise self._error("expected a privilege", priv_token)
        self._expect_keyword("on")
        object_name = self._expect_ident("object name").text
        self._expect_keyword("from")
        principal = self._parse_principal()
        return self._at(
            ast.RevokeStatement(
                privilege=priv_token.text, object_name=object_name,
                principal=principal,
            ),
            start,
        )

    def _parse_alter_type(self) -> ast.AlterType:
        start = self._expect_ident("'alter'")
        self._expect_keyword("type")
        name = self._expect_ident("type name").text
        adds: list[ast.AttributeDecl] = []
        drops: list[str] = []
        while True:
            token = self._peek()
            if token.type is TokenType.IDENT and token.text.lower() == "add":
                self._next()
                self._expect(TokenType.LPAREN, "'('")
                while True:
                    adds.append(self._parse_attribute_decl())
                    if not self._accept(TokenType.COMMA):
                        break
                self._expect(TokenType.RPAREN, "')'")
            elif token.is_keyword("drop"):
                self._next()
                self._expect(TokenType.LPAREN, "'('")
                while True:
                    drops.append(self._expect_ident("attribute").text)
                    if not self._accept(TokenType.COMMA):
                        break
                self._expect(TokenType.RPAREN, "')'")
            else:
                break
        if not adds and not drops:
            raise self._error("alter type requires an add or drop clause")
        return self._at(
            ast.AlterType(name=name, adds=adds, drops=drops), start
        )

    def _parse_add_to_group(self) -> ast.AddToGroup:
        start = self._expect_ident("'add'")
        member = self._expect_ident("user or group").text
        self._expect_keyword("to")
        self._expect_keyword("group")
        group = self._expect_ident("group name").text
        return self._at(ast.AddToGroup(member=member, group=group), start)

    # -- expressions -----------------------------------------------------------------------

    def parse_expression(self, min_precedence: int = 0) -> ast.Expression:
        """Precedence-climbing expression parser."""
        left = self._parse_unary()
        while True:
            token = self._peek()
            symbol = self._infix_symbol(token)
            if symbol is None:
                return left
            info = self._ops.infix(symbol)
            precedence = info.precedence if info else OperatorTable.COMPARISON
            if precedence < min_precedence:
                return left
            left = self._parse_infix(left, symbol, precedence, info)

    def _infix_symbol(self, token: Token) -> Optional[str]:
        """The infix operator symbol starting at ``token``, if any."""
        if token.type is TokenType.OP:
            return token.text if self._ops.infix(token.text) else token.text
        if token.is_keyword("and", "or", "is", "isnot", "contains", "in"):
            return token.text
        if token.is_keyword("not") and self._peek(1).is_keyword("in"):
            return "not-in"
        return None

    def _parse_infix(
        self,
        left: ast.Expression,
        symbol: str,
        precedence: int,
        info: Optional[_OpInfo],
    ) -> ast.Expression:
        token = self._next()
        if symbol == "not-in":
            self._next()  # consume 'in'
            collection = self._parse_path()
            return self._at(
                ast.SetMembership(element=left, collection=collection, negated=True),
                token,
            )
        if symbol == "in":
            collection = self._parse_path()
            return self._at(
                ast.SetMembership(element=left, collection=collection), token
            )
        if symbol == "contains":
            if not isinstance(left, ast.Path):
                raise self._error("'contains' requires a path on the left", token)
            element = self.parse_expression(OperatorTable.COMPARISON + 1)
            return self._at(
                ast.SetMembership(element=element, collection=left), token
            )
        if symbol in ("is", "isnot"):
            if self._accept_keyword("null"):
                right: ast.Expression = self._at(ast.NullLiteral(), token)
            else:
                right = self.parse_expression(OperatorTable.COMPARISON + 1)
            return self._at(ast.BinaryOp(op=symbol, left=left, right=right), token)
        if info is None:
            raise self._error(f"unknown operator {symbol!r}", token)
        next_min = precedence + 1 if info.associativity == "left" else precedence
        right = self.parse_expression(next_min)
        return self._at(ast.BinaryOp(op=symbol, left=left, right=right), token)

    def _parse_unary(self) -> ast.Expression:
        token = self._peek()
        if token.is_keyword("not"):
            self._next()
            operand = self.parse_expression(self._ops.prefix("not").precedence)
            return self._at(ast.UnaryOp(op="not", operand=operand), token)
        if token.type is TokenType.OP:
            info = self._ops.prefix(token.text)
            if info is not None:
                self._next()
                operand = self.parse_expression(info.precedence)
                return self._at(ast.UnaryOp(op=token.text, operand=operand), token)
        return self._parse_primary()

    def _parse_primary(self) -> ast.Expression:
        token = self._peek()
        if token.type in _LITERAL_TYPES:
            literal = ast.Literal(value=token.value, slot=self._slots[self._pos])
            self._next()
            return self._at(literal, token)
        if token.is_keyword("true", "false"):
            self._next()
            return self._at(ast.Literal(value=token.value), token)
        if token.is_keyword("null"):
            self._next()
            return self._at(ast.NullLiteral(), token)
        if token.type is TokenType.LPAREN:
            self._next()
            inner = self.parse_expression()
            self._expect(TokenType.RPAREN, "')'")
            return inner
        if token.type is TokenType.IDENT:
            ident = self._next()
            if self._peek().type is TokenType.LPAREN:
                call = self._parse_call(ident)
                steps = self._parse_steps()
                if steps:
                    return self._at(
                        ast.SuffixPath(base=call, steps=steps), ident
                    )
                return call
            return self._parse_path_from(ident)
        raise self._error(f"expected an expression, found {token.text!r}")

    def _parse_call(self, name: Token) -> ast.Expression:
        """``Name(...)`` — a function call or aggregate; an ``over`` or a
        ``where`` inside the parentheses makes it an aggregate."""
        self._expect(TokenType.LPAREN, "'('")
        args: list[ast.Expression] = []
        over: Optional[ast.Path] = None
        where: Optional[ast.Expression] = None
        if self._peek().type is not TokenType.RPAREN:
            args.append(self.parse_expression())
            while self._accept(TokenType.COMMA):
                args.append(self.parse_expression())
            if self._accept_keyword("over"):
                over = self._parse_path()
            if self._accept_keyword("where"):
                where = self.parse_expression()
        self._expect(TokenType.RPAREN, "')'")
        if over is not None or where is not None:
            if len(args) != 1:
                raise self._error(
                    "aggregates take exactly one argument expression", name
                )
            return self._at(
                ast.Aggregate(
                    name=name.text, argument=args[0], over=over, where=where
                ),
                name,
            )
        return self._at(ast.FunctionCall(name=name.text, args=args), name)

    def _parse_path(self) -> ast.Path:
        root = self._expect_ident("path")
        return self._parse_path_from(root)

    def _parse_steps(self) -> list[ast.PathStep]:
        steps: list[ast.PathStep] = []
        while True:
            if self._accept(TokenType.DOT):
                attr = self._expect_ident("attribute name")
                steps.append(
                    self._at(ast.AttributeStep(name=attr.text), attr)
                )
            elif self._peek().type is TokenType.LBRACKET:
                bracket = self._next()
                index = self.parse_expression()
                self._expect(TokenType.RBRACKET, "']'")
                steps.append(self._at(ast.IndexStep(index=index), bracket))
            else:
                return steps

    def _parse_path_from(self, root: Token) -> ast.Path:
        steps = self._parse_steps()
        return self._at(ast.Path(root=root.text, steps=steps), root)


def parse_script(
    text: str, operators: Optional[OperatorTable] = None
) -> ast.Script:
    """Tokenize and parse a whole script."""
    table = operators if operators is not None else OperatorTable()
    lexer = Lexer(text, extra_symbols=table.punctuation_symbols())
    return Parser(lexer.tokens(), table).parse_script()


def parse_statement(
    text: str, operators: Optional[OperatorTable] = None
) -> ast.Statement:
    """Tokenize and parse exactly one statement."""
    table = operators if operators is not None else OperatorTable()
    lexer = Lexer(text, extra_symbols=table.punctuation_symbols())
    parser = Parser(lexer.tokens(), table)
    statement = parser.parse_statement()
    trailing = parser._peek()
    while trailing.type is TokenType.SEMI:
        parser._next()
        trailing = parser._peek()
    if trailing.type is not TokenType.EOF:
        raise ParseError(
            f"unexpected input after statement: {trailing.text!r}",
            trailing.line,
            trailing.column,
        )
    return statement
