"""Simply typed lambda terms with products and typed constants.

This module provides the object-level term language used by the rest of
the package: parsing and printing of types and terms, type checking,
goal-directed inhabitation search, delta-rule signatures, and exhaustive
one-step reduction graphs with termination/confluence reporting.

Surface syntax (UTF-8, ASCII-friendly):

* types:  atoms ``A``, products ``A * B`` (binds tighter), arrows
  ``A -> B`` (right-associative)
* terms:  ``\\x:T. t`` abstraction, ``t u`` application, ``(t, u)`` pair,
  ``p1 t`` / ``p2 t`` projections, integer literals as constants of the
  builtin numeral atom ``N``, and infix ``+`` / ``*`` as sugar for the
  curried builtin constants.

``p1`` and ``p2`` are reserved words.  Bound-variable identity is
alpha-equivalence; the canonical printer renames binders positionally so
that alpha-equivalent terms print identically.
"""

from __future__ import annotations

import functools
import re
from collections import deque
from typing import AbstractSet, Callable, Iterable, Iterator, Mapping, Optional, Sequence, Union

from .record import Record

__all__ = [
    "Ty",
    "TyAtom",
    "TyArrow",
    "TyProd",
    "NAT",
    "Tm",
    "Var",
    "Const",
    "Lam",
    "App",
    "Pair",
    "Proj",
    "PatVar",
    "PatLit",
    "DeltaRule",
    "Signature",
    "TermError",
    "TermParseError",
    "TermTypeError",
    "SignatureError",
    "parse_type",
    "parse_term",
    "parse_context",
    "parse_signature",
    "print_type",
    "print_term",
    "canonical_print",
    "free_vars",
    "substitute",
    "typecheck",
    "term_sort_key",
    "infer_inhabitants",
    "inhabitant_texts",
    "curry_howard_translate",
    "ReductionGraph",
    "GraphReport",
    "reduction_graph",
    "DEFAULT_NODE_CAP",
]

DEFAULT_NODE_CAP = 10_000

_RESERVED_WORDS = frozenset({"p1", "p2", "rule"})
_NUMERAL_RE = re.compile(r"[0-9]+\Z")
_POSITIONAL_RE = re.compile(r"x[1-9][0-9]*\Z")  # what _positional_name prints unprimed


class TermError(Exception):
    """Base class for errors raised by the term language."""


class TermParseError(TermError):
    """Raised on malformed type/term/signature text, with position info."""

    def __init__(self, message: str, line: Optional[int] = None, col: Optional[int] = None):
        if line is not None:
            message = f"line {line}, col {col}: {message}"
        super().__init__(message)
        self.line = line
        self.col = col


class TermTypeError(TermError):
    """Raised when a term fails to type-check."""


class SignatureError(TermError):
    """Raised when a constant signature or delta rule is ill-formed."""


# ---------------------------------------------------------------------------
# Types


class Ty(Record):
    """Base class of simple types (atoms, arrows, binary products).

    A type node is built by its positional ``__init__``, which also takes
    the hash of its fields into the ``_hash`` slot; it reads each child's
    slot, so it costs the same at any depth.  Equality is
    :class:`~fincat.record.Record`'s, over the fields.
    """

    __slots__ = ("_hash",)

    def __hash__(self) -> int:
        return self._hash


class TyAtom(Ty):
    __slots__ = ("name",)
    name: str

    def __init__(self, name: str):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_hash", hash(name))


class TyArrow(Ty):
    __slots__ = ("src", "dst")
    src: Ty
    dst: Ty

    def __init__(self, src: Ty, dst: Ty):
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "dst", dst)
        object.__setattr__(self, "_hash", hash((src._hash, dst._hash)))


class TyProd(Ty):
    __slots__ = ("left", "right")
    left: Ty
    right: Ty

    def __init__(self, left: Ty, right: Ty):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "_hash", hash((left._hash, right._hash)))


#: Builtin atom inhabited by the integer-literal constants.
NAT = TyAtom("N")


def print_type(ty: Ty) -> str:
    """Render ``ty`` with minimal parentheses (``*`` binds tighter than ``->``)."""
    return _print_ty(ty, 0)


def _print_ty(ty: Ty, level: int) -> str:
    if isinstance(ty, TyAtom):
        return ty.name
    if isinstance(ty, TyProd):
        text = f"{_print_ty(ty.left, 1)} * {_print_ty(ty.right, 2)}"
        return f"({text})" if level > 1 else text
    if isinstance(ty, TyArrow):
        text = f"{_print_ty(ty.src, 1)} -> {_print_ty(ty.dst, 0)}"
        return f"({text})" if level > 0 else text
    raise TypeError(f"not a type: {ty!r}")


# ---------------------------------------------------------------------------
# Terms


class Tm(Record):
    """Base class of terms; each caches its hash, taken when it is built as
    a type node's is, and its :func:`_canonical` pair."""

    __slots__ = ("_hash", "_printed")

    def __hash__(self) -> int:
        return self._hash


class Var(Tm):
    __slots__ = ("name",)
    name: str

    def __init__(self, name: str):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_hash", hash(name))
        object.__setattr__(self, "_printed", None)


class Const(Tm):
    __slots__ = ("name",)
    name: str

    def __init__(self, name: str):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_hash", hash(name))
        object.__setattr__(self, "_printed", None)


class Lam(Tm):
    __slots__ = ("var", "ty", "body")
    var: str
    ty: Ty
    body: Tm

    def __init__(self, var: str, ty: Ty, body: Tm):
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "ty", ty)
        object.__setattr__(self, "body", body)
        object.__setattr__(self, "_hash", hash((var, ty._hash, body._hash)))
        object.__setattr__(self, "_printed", None)


class App(Tm):
    __slots__ = ("fn", "arg")
    fn: Tm
    arg: Tm

    def __init__(self, fn: Tm, arg: Tm):
        object.__setattr__(self, "fn", fn)
        object.__setattr__(self, "arg", arg)
        object.__setattr__(self, "_hash", hash((fn._hash, arg._hash)))
        object.__setattr__(self, "_printed", None)


class Pair(Tm):
    __slots__ = ("left", "right")
    left: Tm
    right: Tm

    def __init__(self, left: Tm, right: Tm):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "_hash", hash((left._hash, right._hash)))
        object.__setattr__(self, "_printed", None)


class Proj(Tm):
    __slots__ = ("index", "body")
    index: int
    body: Tm

    def __init__(self, index: int, body: Tm):
        if index not in (1, 2):
            raise ValueError(f"projection index must be 1 or 2, got {index}")
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "body", body)
        object.__setattr__(self, "_hash", hash((index, body._hash)))
        object.__setattr__(self, "_printed", None)


def is_numeral(name: str) -> bool:
    return bool(_NUMERAL_RE.match(name))


_LVL_TERM, _LVL_SUM, _LVL_PROD, _LVL_APP, _LVL_ATOM = 0, 1, 2, 3, 4

# builtin infix operator -> (its own level, left operand level, right operand level)
_INFIX = {"+": (_LVL_SUM, _LVL_SUM, _LVL_PROD), "*": (_LVL_PROD, _LVL_PROD, _LVL_APP)}


def print_term(t: Tm) -> str:
    """Render ``t`` with minimal parentheses, keeping its own binder names."""
    return _render(t, None)[0]


def _render(t: Tm, avoid: Optional[AbstractSet[str]]) -> tuple[str, int, set[str], set[str]]:
    """Print ``t`` with minimal parentheses in one pass: the text, its λ
    count, the free names met and the binder names printed.  With ``avoid``
    None binders keep their own names, else the one at nesting depth ``d``
    prints as ``_positional_name(d, avoid)``."""
    env: dict[str, Optional[str]] = {}
    free: set[str] = set()
    used: set[str] = set()
    lams = 0

    def go(t: Tm, level: int, depth: int) -> str:
        nonlocal lams
        kind = type(t)
        if kind is App:
            fn = t.fn
            infix = type(fn) is App and type(fn.fn) is Const and _INFIX.get(fn.fn.name)
            if infix:
                natural, left_level, right_level = infix
                text = f"{go(fn.arg, left_level, depth)} {fn.fn.name} {go(t.arg, right_level, depth)}"
            else:
                natural = _LVL_APP
                text = f"{go(fn, _LVL_APP, depth)} {go(t.arg, _LVL_ATOM, depth)}"
        elif kind is Var:
            name = env.get(t.name)
            if name is None:
                free.add(t.name)
                return t.name
            return name
        elif kind is Lam:
            lams += 1
            name = t.var if avoid is None else _positional_name(depth + 1, avoid)
            used.add(name)
            outer = env.get(t.var)
            env[t.var] = name
            natural = _LVL_TERM
            text = f"\\{name}:{print_type(t.ty)}. {go(t.body, _LVL_TERM, depth + 1)}"
            env[t.var] = outer  # None: unbound again
        elif kind is Pair:
            return f"({go(t.left, _LVL_TERM, depth)}, {go(t.right, _LVL_TERM, depth)})"
        elif kind is Proj:
            natural = _LVL_APP
            text = f"p{t.index} {go(t.body, _LVL_ATOM, depth)}"
        elif kind is Const:
            return f"({t.name})" if t.name in _INFIX else t.name
        else:
            raise TypeError(f"not a term: {t!r}")
        return f"({text})" if natural < level else text

    return go(t, _LVL_TERM, 0), lams, free, used


def _positional_name(depth: int, avoid: AbstractSet[str]) -> str:
    """``x<depth>``, primed until it is not in ``avoid``."""
    name = f"x{depth}"
    while name in avoid:
        name += "'"
    return name


def free_vars(t: Tm) -> frozenset[str]:
    if isinstance(t, Var):
        return frozenset((t.name,))
    if isinstance(t, Const):
        return frozenset()
    if isinstance(t, Lam):
        return free_vars(t.body) - {t.var}
    if isinstance(t, App):
        return free_vars(t.fn) | free_vars(t.arg)
    if isinstance(t, Pair):
        return free_vars(t.left) | free_vars(t.right)
    if isinstance(t, Proj):
        return free_vars(t.body)
    raise TypeError(f"not a term: {t!r}")


def canonical_print(t: Tm) -> str:
    """Canonical text of ``t``: its print with the binder at nesting depth
    ``d`` named ``x<d>``, primed past the free variables of the whole term.

    Two terms are alpha-equivalent iff their canonical prints are equal;
    this string is the node key in reduction graphs.  It is cached on ``t``.
    """
    return _canonical(t)[0]


def _canonical(t: Tm) -> tuple[str, int]:
    """``(canonical print, λ count)`` of ``t``, cached on the node.  Binders
    are printed again, primed past the free names, only when a free name
    equals an unprimed binder name."""
    if t._printed is None:
        text, lams, free, used = _render(t, frozenset())
        if not free.isdisjoint(used):
            text, lams, _, _ = _render(t, free)
        object.__setattr__(t, "_printed", (text, lams))
    return t._printed


def substitute(t: Tm, name: str, replacement: Tm) -> Tm:
    """Capture-avoiding substitution of ``replacement`` for ``Var(name)``."""
    return substitute_many(t, {name: replacement})


def substitute_many(t: Tm, mapping: Mapping[str, Tm]) -> Tm:
    """Simultaneous capture-avoiding substitution."""
    mapping = {k: v for k, v in mapping.items() if v != Var(k)}
    if not mapping:
        return t
    if isinstance(t, Var):
        return mapping.get(t.name, t)
    if isinstance(t, Const):
        return t
    if isinstance(t, App):
        return App(substitute_many(t.fn, mapping), substitute_many(t.arg, mapping))
    if isinstance(t, Pair):
        return Pair(substitute_many(t.left, mapping), substitute_many(t.right, mapping))
    if isinstance(t, Proj):
        return Proj(t.index, substitute_many(t.body, mapping))
    if isinstance(t, Lam):
        inner = {k: v for k, v in mapping.items() if k != t.var and k in free_vars(t.body)}
        if not inner:
            return t
        incoming = frozenset().union(*(free_vars(v) for v in inner.values()))
        var = t.var
        body = t.body
        if var in incoming:
            avoid = incoming | free_vars(body) | set(inner)
            fresh = var
            while fresh in avoid:
                fresh += "'"
            body = substitute_many(body, {var: Var(fresh)})
            var = fresh
        return Lam(var, t.ty, substitute_many(body, inner))
    raise TypeError(f"not a term: {t!r}")


def term_sort_key(t: Tm) -> tuple[int, int, str]:
    """Deterministic order: fewest lambdas, then shortest print, then text."""
    text, lams = _canonical(t)
    return (lams, len(text), text)


# ---------------------------------------------------------------------------
# Tokenizer and parsers

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<arrow>->)
      | (?P<mapsto>\|->)
      | (?P<int>[0-9]+)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_']*)
      | (?P<sym>[\\λ:.(),+*{}=])
    """,
    re.VERBOSE,
)


class _Token(Record):
    __slots__ = ("kind", "text", "line", "col")
    kind: str  # "arrow" | "int" | "ident" | "sym" | "eof"
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, line_start = 1, 0
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise TermParseError(
                f"unexpected character {text[pos]!r}", line, pos - line_start + 1
            )
        kind = m.lastgroup or ""
        chunk = m.group()
        if kind != "ws":
            if kind == "mapsto":
                raise TermParseError("'|->' is not valid in term syntax", line, pos - line_start + 1)
            tok_text = "\\" if chunk == "λ" else chunk
            tokens.append(_Token(kind, tok_text, line, pos - line_start + 1))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            line_start = pos + chunk.rindex("\n") + 1
        pos = m.end()
    last_line = line
    tokens.append(_Token("eof", "", last_line, len(text) - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, text: str, constants: frozenset[str] = frozenset()):
        self._tokens = _tokenize(text)
        self._pos = 0
        self._constants = constants

    def peek(self) -> _Token:
        return self._tokens[self._pos]

    def next(self) -> _Token:
        tok = self._tokens[self._pos]
        self._pos += 1
        return tok

    def at(self, kind: str, text: Optional[str] = None) -> bool:
        tok = self.peek()
        return tok.kind == kind and (text is None or tok.text == text)

    def expect(self, kind: str, text: Optional[str] = None) -> _Token:
        tok = self.peek()
        if not self.at(kind, text):
            want = text if text is not None else kind
            raise TermParseError(f"expected {want!r}, found {tok.text or 'end of input'!r}", tok.line, tok.col)
        return self.next()

    def expect_end(self) -> None:
        tok = self.peek()
        if tok.kind != "eof":
            raise TermParseError(f"unexpected trailing input {tok.text!r}", tok.line, tok.col)

    # -- types --------------------------------------------------------

    def type_(self) -> Ty:
        left = self._type_prod()
        if self.at("arrow"):
            self.next()
            return TyArrow(left, self.type_())
        return left

    def _type_prod(self) -> Ty:
        ty = self._type_atom()
        while self.at("sym", "*"):
            self.next()
            ty = TyProd(ty, self._type_atom())
        return ty

    def _type_atom(self) -> Ty:
        tok = self.peek()
        if tok.kind == "ident":
            self.next()
            return TyAtom(tok.text)
        if self.at("sym", "("):
            self.next()
            ty = self.type_()
            self.expect("sym", ")")
            return ty
        raise TermParseError(f"expected a type, found {tok.text or 'end of input'!r}", tok.line, tok.col)

    # -- terms --------------------------------------------------------

    def term(self) -> Tm:
        if self.at("sym", "\\"):
            self.next()
            name_tok = self.expect("ident")
            if name_tok.text in _RESERVED_WORDS:
                raise TermParseError(
                    f"{name_tok.text!r} is reserved and cannot bind a variable",
                    name_tok.line,
                    name_tok.col,
                )
            self.expect("sym", ":")
            ty = self.type_()
            self.expect("sym", ".")
            return Lam(name_tok.text, ty, self.term())
        return self._sum()

    def _sum(self) -> Tm:
        t = self._product()
        while self.at("sym", "+"):
            self.next()
            t = App(App(Const("+"), t), self._product())
        return t

    def _product(self) -> Tm:
        t = self._application()
        while self.at("sym", "*"):
            self.next()
            t = App(App(Const("*"), t), self._application())
        return t

    def _application(self) -> Tm:
        t = self._operand()
        while self._at_operand_start():
            t = App(t, self._operand())
        return t

    def _at_operand_start(self) -> bool:
        tok = self.peek()
        return tok.kind in ("int", "ident") or (tok.kind == "sym" and tok.text == "(")

    def _operand(self) -> Tm:
        tok = self.peek()
        if tok.kind == "ident" and tok.text in ("p1", "p2"):
            self.next()
            return Proj(int(tok.text[1]), self._operand())
        return self._atom()

    def _atom(self) -> Tm:
        tok = self.peek()
        if tok.kind == "int":
            self.next()
            return Const(tok.text)
        if tok.kind == "ident":
            self.next()
            if tok.text in self._constants:
                return Const(tok.text)
            return Var(tok.text)
        if self.at("sym", "("):
            self.next()
            if self.peek().kind == "sym" and self.peek().text in ("+", "*"):
                op = self.next().text
                self.expect("sym", ")")
                return Const(op)
            t = self.term()
            if self.at("sym", ","):
                self.next()
                u = self.term()
                self.expect("sym", ")")
                return Pair(t, u)
            self.expect("sym", ")")
            return t
        raise TermParseError(f"expected a term, found {tok.text or 'end of input'!r}", tok.line, tok.col)


def _depth_guarded(parse: Callable) -> Callable:
    """Report input nested past the interpreter's recursion limit as a parse error."""

    @functools.wraps(parse)
    def guarded(*args, **kwargs):
        try:
            return parse(*args, **kwargs)
        except RecursionError:
            raise TermParseError("input nested too deeply") from None

    return guarded


@_depth_guarded
def parse_type(text: str) -> Ty:
    parser = _Parser(text)
    ty = parser.type_()
    parser.expect_end()
    return ty


@_depth_guarded
def parse_term(text: str, sig: Optional["Signature"] = None) -> Tm:
    """Parse a term; identifiers declared in ``sig`` become constants."""
    constants = sig.constant_names if sig is not None else Signature.BUILTIN_NAMES
    parser = _Parser(text, constants)
    t = parser.term()
    parser.expect_end()
    return t


@_depth_guarded
def parse_context(text: str) -> list[tuple[str, Ty]]:
    """Parse a context literal like ``{f: A' -> A, b: B}`` (``{}`` is empty)."""
    parser = _Parser(text)
    parser.expect("sym", "{")
    ctx: list[tuple[str, Ty]] = []
    seen: set[str] = set()
    if not parser.at("sym", "}"):
        while True:
            name_tok = parser.expect("ident")
            if name_tok.text in _RESERVED_WORDS:
                raise TermParseError(
                    f"{name_tok.text!r} is reserved", name_tok.line, name_tok.col
                )
            if name_tok.text in seen:
                raise TermParseError(
                    f"duplicate hypothesis {name_tok.text!r}", name_tok.line, name_tok.col
                )
            seen.add(name_tok.text)
            parser.expect("sym", ":")
            ctx.append((name_tok.text, parser.type_()))
            if parser.at("sym", ","):
                parser.next()
                continue
            break
    parser.expect("sym", "}")
    parser.expect_end()
    return ctx


# ---------------------------------------------------------------------------
# Signatures and delta rules


class Pattern(Record):
    """Base class of delta-rule argument patterns."""

    __slots__ = ()


class PatVar(Pattern):
    name: str


class PatLit(Pattern):
    const: str


class DeltaRule(Record):
    head: str
    patterns: tuple[Pattern, ...]
    rhs: Tm

    def arity(self) -> int:
        return len(self.patterns)


class Signature:
    """Typed constants plus delta rules.

    The builtin constants are always present: every integer literal is a
    constant of the numeral atom ``N``, and ``+`` / ``*`` are binary
    operations on ``N`` whose delta steps fire only when both arguments
    are literals.  User rules, by contrast, match structurally: a variable
    pattern matches an arbitrary argument term, while a literal pattern
    matches exactly that constant.

    Rules are validated at construction time to be type-preserving.
    """

    BUILTIN_CONSTANTS: Mapping[str, Ty] = {
        "+": TyArrow(NAT, TyArrow(NAT, NAT)),
        "*": TyArrow(NAT, TyArrow(NAT, NAT)),
    }
    BUILTIN_NAMES = frozenset(BUILTIN_CONSTANTS)

    def __init__(
        self,
        constants: Optional[Mapping[str, Ty]] = None,
        rules: Sequence[DeltaRule] = (),
    ):
        merged = dict(self.BUILTIN_CONSTANTS)
        for name, ty in (constants or {}).items():
            if is_numeral(name):
                raise SignatureError(f"numeral {name!r} cannot be redeclared")
            merged[name] = ty
        self._constants = merged
        self._rules_by_head: dict[str, list[DeltaRule]] = {}
        for rule in rules:
            self._validate_rule(rule)
            self._rules_by_head.setdefault(rule.head, []).append(rule)

    @property
    def constant_names(self) -> frozenset[str]:
        return frozenset(self._constants)

    def constant_type(self, name: str) -> Ty:
        if is_numeral(name):
            return NAT
        try:
            return self._constants[name]
        except KeyError:
            raise TermTypeError(f"undeclared constant {name!r}") from None

    def has_constant(self, name: str) -> bool:
        return is_numeral(name) or name in self._constants

    def rules_for(self, head: str) -> tuple[DeltaRule, ...]:
        return tuple(self._rules_by_head.get(head, ()))

    def _validate_rule(self, rule: DeltaRule) -> None:
        if not self.has_constant(rule.head):
            raise SignatureError(f"rule head {rule.head!r} is not a declared constant")
        result_ty = self.constant_type(rule.head)
        env: dict[str, Ty] = {}
        for i, pat in enumerate(rule.patterns, start=1):
            if not isinstance(result_ty, TyArrow):
                raise SignatureError(
                    f"rule for {rule.head!r} has more arguments than its type allows"
                )
            arg_ty = result_ty.src
            result_ty = result_ty.dst
            if isinstance(pat, PatVar):
                if pat.name in env:
                    raise SignatureError(
                        f"rule for {rule.head!r} repeats pattern variable {pat.name!r}"
                    )
                if self.has_constant(pat.name):
                    raise SignatureError(
                        f"pattern variable {pat.name!r} shadows a declared constant"
                    )
                env[pat.name] = arg_ty
            elif isinstance(pat, PatLit):
                lit_ty = self.constant_type(pat.const)
                if lit_ty != arg_ty:
                    raise SignatureError(
                        f"rule for {rule.head!r}: literal pattern {pat.const!r} has type "
                        f"{print_type(lit_ty)}, expected {print_type(arg_ty)} at position {i}"
                    )
            else:
                raise SignatureError(f"unknown pattern {pat!r}")
        rhs_ty = typecheck(rule.rhs, env, self)
        if rhs_ty != result_ty:
            raise SignatureError(
                f"rule for {rule.head!r} is not type-preserving: right side has type "
                f"{print_type(rhs_ty)}, expected {print_type(result_ty)}"
            )


def parse_signature(text: str) -> Signature:
    """Parse signature text: ``name : T`` declarations and ``rule f(...) = t`` lines.

    Blank lines and ``#`` comments are ignored.  Declarations may appear in
    any order relative to the rules that use them.
    """
    decl_lines: list[tuple[int, str]] = []
    rule_lines: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("rule ") or line == "rule":
            rule_lines.append((lineno, line))
        else:
            decl_lines.append((lineno, line))

    constants: dict[str, Ty] = {}
    for lineno, line in decl_lines:
        name_part, sep, ty_part = line.partition(":")
        if not sep:
            raise TermParseError("expected 'name : type'", lineno, 1)
        name = name_part.strip()
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_']*", name) or name in _RESERVED_WORDS:
            raise TermParseError(f"bad constant name {name!r}", lineno, 1)
        if name in constants:
            raise TermParseError(f"constant {name!r} declared twice", lineno, 1)
        try:
            constants[name] = parse_type(ty_part)
        except TermParseError as exc:
            raise TermParseError(f"in declaration of {name!r}: {exc}", lineno, 1) from None

    base = Signature(constants)
    rules: list[DeltaRule] = []
    for lineno, line in rule_lines:
        try:
            rules.append(_parse_rule(line, base))
        except (TermParseError, SignatureError) as exc:
            raise SignatureError(f"line {lineno}: {exc}") from None
    return Signature(constants, rules)


@_depth_guarded
def _parse_rule(line: str, sig: Signature) -> DeltaRule:
    parser = _Parser(line, sig.constant_names)
    head_tok = parser.expect("ident")
    if head_tok.text != "rule":
        raise TermParseError("rule lines must start with 'rule'", head_tok.line, head_tok.col)
    name_tok = parser.expect("ident")
    parser.expect("sym", "(")
    patterns: list[Pattern] = []
    if not parser.at("sym", ")"):
        while True:
            tok = parser.peek()
            if tok.kind == "int":
                parser.next()
                patterns.append(PatLit(tok.text))
            elif tok.kind == "ident":
                parser.next()
                if sig.has_constant(tok.text):
                    patterns.append(PatLit(tok.text))
                else:
                    patterns.append(PatVar(tok.text))
            else:
                raise TermParseError(
                    f"expected a pattern, found {tok.text or 'end of input'!r}", tok.line, tok.col
                )
            if parser.at("sym", ","):
                parser.next()
                continue
            break
    parser.expect("sym", ")")
    parser.expect("sym", "=")
    rhs = parser.term()
    parser.expect_end()
    return DeltaRule(name_tok.text, tuple(patterns), rhs)


# ---------------------------------------------------------------------------
# Type checking


def typecheck(
    t: Tm,
    ctx: Union[Mapping[str, Ty], Sequence[tuple[str, Ty]], None] = None,
    sig: Optional[Signature] = None,
) -> Ty:
    """Return the type of ``t`` under ``ctx``, or raise :class:`TermTypeError`."""
    if sig is None:
        sig = _EMPTY_SIGNATURE
    env: dict[str, Ty] = dict(ctx or {})
    return _typecheck(t, env, sig)


def _typecheck(t: Tm, env: dict[str, Ty], sig: Signature, memo: Optional[dict] = None) -> Ty:
    """The type of ``t`` under ``env``.  ``memo``, when given, holds the
    types of the compound terms typed in the empty context, keyed by the
    term: each such subterm is looked up there and typed once."""
    if isinstance(t, Var):
        try:
            return env[t.name]
        except KeyError:
            raise TermTypeError(f"unbound variable {t.name!r}") from None
    if isinstance(t, Const):
        return sig.constant_type(t.name)
    if memo is not None:
        if env:
            memo = None
        else:
            ty = memo.get(t)
            if ty is not None:
                return ty
    if isinstance(t, Lam):
        inner = dict(env)
        inner[t.var] = t.ty
        ty = TyArrow(t.ty, _typecheck(t.body, inner, sig))
    elif isinstance(t, App):
        fn_ty = _typecheck(t.fn, env, sig, memo)
        if not isinstance(fn_ty, TyArrow):
            raise TermTypeError(
                f"cannot apply {print_term(t.fn)} of non-arrow type {print_type(fn_ty)}"
            )
        arg_ty = _typecheck(t.arg, env, sig, memo)
        if arg_ty != fn_ty.src:
            raise TermTypeError(
                f"argument {print_term(t.arg)} has type {print_type(arg_ty)}, "
                f"expected {print_type(fn_ty.src)}"
            )
        ty = fn_ty.dst
    elif isinstance(t, Pair):
        ty = TyProd(_typecheck(t.left, env, sig, memo), _typecheck(t.right, env, sig, memo))
    elif isinstance(t, Proj):
        body_ty = _typecheck(t.body, env, sig, memo)
        if not isinstance(body_ty, TyProd):
            raise TermTypeError(
                f"cannot project from {print_term(t.body)} of non-product type "
                f"{print_type(body_ty)}"
            )
        ty = body_ty.left if t.index == 1 else body_ty.right
    else:
        raise TypeError(f"not a term: {t!r}")
    if memo is not None:
        memo[t] = ty
    return ty


_EMPTY_SIGNATURE = Signature()


# ---------------------------------------------------------------------------
# Inhabitation search


def infer_inhabitants(
    ctx: Sequence[tuple[str, Ty]], goal: Ty, depth: int
) -> list[Tm]:
    """All beta-normal inhabitants of ``goal`` under ``ctx`` with tree depth <= ``depth``.

    Search is goal-directed: arrow and product goals are solved by
    introduction forms and, like atomic goals, by neutral terms built from
    context hypotheses via application and projection.

    Every binder is named by ``_fresh_binder`` from the length of the
    context it extends, so alpha-equivalent results are equal terms.  The
    search (see :class:`_Search`) finds each term once, as an entry; each
    entry's node is then built once, from its children's, and each result
    keeps its text cached for :func:`canonical_print`.
    """
    found, created = _inhabitants(ctx, goal, depth)
    nodes: dict[int, Tm] = {}
    for shape, _, _ in created:  # after its children, which are the tuple fields
        kind, *fields = shape
        nodes[id(shape)] = kind(*(nodes[id(f[0])] if type(f) is tuple else f for f in fields))
    terms = []
    for shape, text, lams in found:
        term = nodes[id(shape)]
        object.__setattr__(term, "_printed", (text, lams))
        terms.append(term)
    return terms


def inhabitant_texts(ctx: Sequence[tuple[str, Ty]], goal: Ty, depth: int) -> list[str]:
    """The canonical prints of :func:`infer_inhabitants`, in its order,
    found with no term built."""
    return [text for _, text, _ in _inhabitants(ctx, goal, depth)[0]]


def _inhabitants(
    ctx: Sequence[tuple[str, Ty]], goal: Ty, depth: int
) -> tuple[list[tuple], Iterable[tuple]]:
    """The search's result entries with their canonical texts, in
    :func:`term_sort_key` order, and every entry it created, in creation
    order."""
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    ctx_t = tuple(ctx)
    names = [name for name, _ in ctx_t]
    if len(set(names)) != len(names):
        raise ValueError(f"context has duplicate hypothesis names: {names}")
    # A free name spelled like a positional binder name can prime the
    # binders (see _canonical), so then the search marks every name in its
    # text and _unmark names them once the whole result is known.
    primed = any(_POSITIONAL_RE.match(name) for name in names)
    search = _Search(ctx_t, primed)
    found = search.run(goal, depth)
    if primed:
        found = [(shape, _unmark(text, names), lams) for shape, text, lams in found]
    found.sort(key=lambda entry: (entry[2], len(entry[1]), entry[1]))
    return found, search.interned.values()


_BINDER_MARK_RE = re.compile("\x00([0-9]+)\x00")


def _unmark(text: str, names: Iterable[str]) -> str:
    """The canonical text of a result printed with ``\\0<d>\\0`` for the
    binder at nesting depth d and ``\\1<name>\\1`` for each of the
    hypotheses ``names``: the binders are primed past the free names when
    one is a binder's name."""
    free = {name for name in names if f"\x01{name}\x01" in text}
    depths = {int(d) for d in _BINDER_MARK_RE.findall(text)}
    avoid = free if any(f"x{d}" in free for d in depths) else frozenset()
    for d in depths:
        text = text.replace(f"\x00{d}\x00", _positional_name(d, avoid))
    return text.replace("\x01", "")


class _Slot:
    """The terms found for one (context, goal) pair, all inhabitants or only
    the neutral ones, in height order: ``terms[ends[h - 1]:ends[h]]`` have
    height exactly ``h``.  Each term is kept as the entry ``(shape, text,
    λ count)``, its shape being its constructor and fields with child
    entries in place of child terms, such as ``(App, fn, arg)``."""

    __slots__ = ("budget", "terms", "ends", "parts")

    def __init__(self) -> None:
        self.budget = 0  # the greatest height asked of this pair
        self.terms: list[tuple] = []
        self.ends = [0]
        self.parts: tuple = ()

    def level(self, height: int) -> list[tuple]:
        return self.terms[self.ends[height - 1] : self.ends[height]]

    def upto(self, height: int) -> list[tuple]:
        return self.terms[: self.ends[height]]


class _Search:
    """One call's inhabitant search, bottom-up by height, with no recursion.

    :meth:`run` first plans: from the goal's slot down, it finds every
    (context, goal) slot and the greatest height asked of it.  It then
    fills: for ``h = 1, 2, …``, every slot gets its terms of exact height
    ``h``, each combined from a child of height ``h - 1`` and children of
    height at most ``h - 1``.  So no term is found at two heights.  Entries
    are interned for the call, so a subterm met in several contexts is one
    entry, and no term node is built.

    The binder that extends the context to length ``n`` prints as
    ``x<n - len(ctx)>``, its canonical name in any result unless a free
    name primes it, so a term's text is its children's texts joined.  With
    ``marked``, binders and hypotheses print as marks for :func:`_unmark`.
    """

    def __init__(self, ctx: tuple[tuple[str, Ty], ...], marked: bool):
        self.base = len(ctx)
        self.root = ctx
        self.binder = "\x00{}\x00" if marked else "x{}"
        texts = {name: f"\x01{name}\x01" if marked else name for name, _ in ctx}
        # context -> (neutral types sorted by print, each variable's text)
        self.contexts = {ctx: (_neutral_types(ty for _, ty in ctx), texts)}
        self.slots: dict[tuple, _Slot] = {}
        self.neutral: list[_Slot] = []
        self.every: list[_Slot] = []
        self.interned: dict[tuple, tuple] = {}

    def run(self, goal: Ty, depth: int) -> list[tuple]:
        """Every inhabitant of ``goal`` of height at most ``depth``, as entries."""
        queue: list[tuple] = []
        root = self._need(True, self.root, goal, depth, queue)
        # Slots are planned from ``depth`` down until no slot asks for a
        # lower budget.  A slot queued for the next pass may be raised to
        # this pass's budget by a neutral twin, and is then planned here; its
        # stale entry below is skipped, so each slot is planned once, at its
        # greatest height.
        budget = depth
        while queue:
            below: list[tuple] = []
            for every, ctx, ty, slot in queue:  # the queue grows by neutral twins
                if slot.budget != budget:
                    continue
                if every:
                    slot.parts = self._plan_every(ctx, ty, budget, queue, below)
                else:
                    slot.parts = self._plan_neutral(ctx, ty, budget, below)
            queue = below
            budget -= 1
        # Every term of height h >= 2 has a child of height exactly h - 1, so
        # once a height adds no term to any slot, no greater height can.
        grew = True
        height = 0
        while grew and height < depth:
            height += 1
            grew = False
            # neutral slots first: an "every" slot takes its neutral twin's level
            for slots, level in ((self.neutral, self._neutral_level), (self.every, self._every_level)):
                for slot in slots:
                    if slot.budget >= height:
                        found = level(slot.parts, height)
                        grew = grew or bool(found)
                        slot.terms += found
                        slot.ends.append(len(slot.terms))
        for slot in self.slots.values():
            slot.parts = ()  # the slots refer to each other in cycles
        return root.terms

    # -- planning --------------------------------------------------------

    def _need(self, every: bool, ctx: tuple, goal: Ty, budget: int, queue: list) -> _Slot:
        key = (every, ctx, goal)
        slot = self.slots.get(key)
        if slot is None:
            slot = self.slots[key] = _Slot()
            (self.every if every else self.neutral).append(slot)
        if slot.budget < budget:
            slot.budget = budget
            queue.append((every, ctx, goal, slot))
        return slot

    def _plan_every(self, ctx: tuple, goal: Ty, budget: int, queue: list, below: list) -> tuple:
        neutral = self._need(False, ctx, goal, budget, queue)
        lam = pair = None
        if budget >= 2 and isinstance(goal, TyArrow):
            var = _fresh_binder(ctx)
            inner = ctx + ((var, goal.src),)
            if inner not in self.contexts:
                closure, texts = self.contexts[ctx]
                texts = {**texts, var: self.binder.format(len(inner) - self.base)}
                self.contexts[inner] = (_neutral_types((*closure, goal.src)), texts)
            prefix = f"\\{self.contexts[inner][1][var]}:{print_type(goal.src)}. "
            lam = (var, goal.src, prefix, self._need(True, inner, goal.dst, budget - 1, below))
        if budget >= 2 and isinstance(goal, TyProd):
            pair = (
                self._need(True, ctx, goal.left, budget - 1, below),
                self._need(True, ctx, goal.right, budget - 1, below),
            )
        return neutral, lam, pair

    def _plan_neutral(self, ctx: tuple, goal: Ty, budget: int, below: list) -> tuple:
        closure, texts = self.contexts[ctx]
        heads = [self._var(name, texts[name]) for name, ty in ctx if ty == goal]
        apps, projs = [], []
        if budget >= 2:
            for ty in closure:
                if isinstance(ty, TyArrow) and ty.dst == goal:
                    fns = self._need(False, ctx, ty, budget - 1, below)
                    apps.append((fns, self._need(True, ctx, ty.src, budget - 1, below)))
                if isinstance(ty, TyProd) and ty.left == goal:
                    projs.append((1, self._need(False, ctx, ty, budget - 1, below)))
                if isinstance(ty, TyProd) and ty.right == goal:
                    projs.append((2, self._need(False, ctx, ty, budget - 1, below)))
        return heads, apps, projs

    # -- filling ---------------------------------------------------------

    def _neutral_level(self, parts: tuple, height: int) -> list[tuple]:
        heads, apps, projs = parts
        if height == 1:
            return heads
        out: list[tuple] = []
        for fns, args in apps:
            for fn in fns.level(height - 1):
                out += [self._app(fn, arg) for arg in args.upto(height - 1)]
            for fn in fns.upto(height - 2):
                out += [self._app(fn, arg) for arg in args.level(height - 1)]
        for index, bodies in projs:
            out += [self._proj(index, body) for body in bodies.level(height - 1)]
        return out

    def _every_level(self, parts: tuple, height: int) -> list[tuple]:
        neutral, lam, pair = parts
        out = neutral.level(height)
        if height >= 2 and lam is not None:
            var, ty, prefix, bodies = lam
            out += [self._lam(var, ty, prefix, body) for body in bodies.level(height - 1)]
        if height >= 2 and pair is not None:
            lefts, rights = pair
            for left in lefts.level(height - 1):
                out += [self._pair(left, right) for right in rights.upto(height - 1)]
            for left in lefts.upto(height - 2):
                out += [self._pair(left, right) for right in rights.level(height - 1)]
        return out

    # -- interned entries ------------------------------------------------

    def _var(self, name: str, text: str) -> tuple:
        key = (Var, name)
        entry = self.interned.get(key)
        if entry is None:
            entry = self.interned[key] = ((Var, name), text, 0)
        return entry

    def _app(self, fn: tuple, arg: tuple) -> tuple:
        key = (App, id(fn), id(arg))
        entry = self.interned.get(key)
        if entry is None:
            text = f"{fn[1]} {_argument_text(arg)}"
            entry = self.interned[key] = ((App, fn, arg), text, fn[2] + arg[2])
        return entry

    def _proj(self, index: int, body: tuple) -> tuple:
        key = (Proj, index, id(body))
        entry = self.interned.get(key)
        if entry is None:
            text = f"p{index} {_argument_text(body)}"
            entry = self.interned[key] = ((Proj, index, body), text, body[2])
        return entry

    def _lam(self, var: str, ty: Ty, prefix: str, body: tuple) -> tuple:
        key = (Lam, var, ty, id(body))
        entry = self.interned.get(key)
        if entry is None:
            entry = self.interned[key] = ((Lam, var, ty, body), prefix + body[1], body[2] + 1)
        return entry

    def _pair(self, left: tuple, right: tuple) -> tuple:
        key = (Pair, id(left), id(right))
        entry = self.interned.get(key)
        if entry is None:
            text = f"({left[1]}, {right[1]})"
            entry = self.interned[key] = ((Pair, left, right), text, left[2] + right[2])
        return entry


def _argument_text(entry: tuple) -> str:
    """An entry's text as an application or projection argument: a
    variable or a pair as it is, anything else in parentheses."""
    shape, text, _ = entry
    return text if shape[0] in (Var, Pair) else f"({text})"


def _neutral_types(types: Iterable[Ty]) -> tuple[Ty, ...]:
    """Every type a neutral term over hypotheses of ``types`` can have: those
    types and, recursively, arrow targets and product components, sorted by
    print for determinism."""
    seen: set[Ty] = set()
    stack = list(types)
    while stack:
        ty = stack.pop()
        if ty in seen:
            continue
        seen.add(ty)
        if isinstance(ty, TyArrow):
            stack.append(ty.dst)
        elif isinstance(ty, TyProd):
            stack.append(ty.left)
            stack.append(ty.right)
    return tuple(sorted(seen, key=print_type))


def _fresh_binder(ctx: tuple[tuple[str, Ty], ...]) -> str:
    return _positional_name(len(ctx) + 1, {name for name, _ in ctx} | _RESERVED_WORDS)


# ---------------------------------------------------------------------------
# Propositional reading


def curry_howard_translate(
    goal: Ty, ctx: Sequence[tuple[str, Ty]] = ()
) -> str:
    """Propositional reading: arrows become →, products ∧, atoms letters.

    Letters are assigned from P, Q, R, ... in first-occurrence order,
    scanning the context hypotheses (in order) and then the goal.  The
    hypotheses, if any, are appended after ``from``.
    """
    letters = _assign_letters([ty for _, ty in ctx] + [goal])
    goal_text = _prop(goal, letters, 0, True)
    if not ctx:
        return goal_text
    hyps = ", ".join(_prop(ty, letters, 0, False) for _, ty in ctx)
    return f"{goal_text} from {hyps}"


def _assign_letters(types: Sequence[Ty]) -> dict[str, str]:
    def letter_stream() -> Iterator[str]:
        base = "PQRSTUVWXYZ"
        yield from base
        suffix = 1
        while True:
            for ch in base:
                yield f"{ch}{suffix}"
            suffix += 1

    stream = letter_stream()
    letters: dict[str, str] = {}

    def scan(ty: Ty) -> None:
        if isinstance(ty, TyAtom):
            if ty.name not in letters:
                letters[ty.name] = next(stream)
        elif isinstance(ty, TyArrow):
            scan(ty.src)
            scan(ty.dst)
        elif isinstance(ty, TyProd):
            scan(ty.left)
            scan(ty.right)

    for ty in types:
        scan(ty)
    return letters


def _prop(ty: Ty, letters: Mapping[str, str], level: int, spaced: bool) -> str:
    if isinstance(ty, TyAtom):
        return letters[ty.name]
    if isinstance(ty, TyProd):
        text = f"{_prop(ty.left, letters, 1, False)}∧{_prop(ty.right, letters, 2, False)}"
        return f"({text})" if level > 1 else text
    if isinstance(ty, TyArrow):
        arrow = " → " if spaced else "→"
        text = f"{_prop(ty.src, letters, 1, False)}{arrow}{_prop(ty.dst, letters, 0, False)}"
        return f"({text})" if level > 0 else text
    raise TypeError(f"not a type: {ty!r}")


# ---------------------------------------------------------------------------
# One-step reduction


def _spine(t: Tm) -> tuple[Tm, list[Tm]]:
    args: list[Tm] = []
    while isinstance(t, App):
        args.append(t.arg)
        t = t.fn
    args.reverse()
    return t, args


def _contractions_at(t: Tm, sig: Signature) -> list[Tm]:
    """All single-step contractions of a redex rooted exactly at ``t``."""
    out: list[Tm] = []
    if isinstance(t, App) and isinstance(t.fn, Lam):
        out.append(substitute(t.fn.body, t.fn.var, t.arg))
    if isinstance(t, Proj) and isinstance(t.body, Pair):
        out.append(t.body.left if t.index == 1 else t.body.right)
    head, args = _spine(t)
    if isinstance(head, Const):
        if (
            head.name in ("+", "*")
            and len(args) == 2
            and all(isinstance(a, Const) and is_numeral(a.name) for a in args)
        ):
            x, y = (int(a.name) for a in args)  # type: ignore[union-attr]
            value = x + y if head.name == "+" else x * y
            out.append(Const(str(value)))
        for rule in sig.rules_for(head.name):
            if rule.arity() != len(args):
                continue
            env: dict[str, Tm] = {}
            ok = True
            for pat, arg in zip(rule.patterns, args):
                if isinstance(pat, PatVar):
                    env[pat.name] = arg
                elif arg != Const(pat.const):  # literal patterns match exactly
                    ok = False
                    break
            if ok:
                out.append(substitute_many(rule.rhs, env))
    return out


def _distinct_reducts(t: Tm, sig: Signature, memo: dict) -> list[Tm]:
    """All terms obtained by contracting exactly one redex anywhere in ``t``:
    beta redexes, projections of pairs, and delta redexes from ``sig``.

    The result has no alpha-duplicates (the first term of each canonical
    print is kept) and is sorted by canonical print, which each returned
    term keeps cached.  The reducts of each distinct subterm are memoised in
    ``memo``."""
    out: dict[str, Tm] = {}
    for t2 in _reducts(t, sig, memo):
        out.setdefault(canonical_print(t2), t2)
    return [out[key] for key in sorted(out)]


def _reducts(t: Tm, sig: Signature, memo: dict) -> list[Tm]:
    """Every one-step reduct of ``t``, in walk order: the contractions at
    ``t``, then each child's reducts put back in place, children left to
    right.  Each distinct subterm's list is built once per ``memo``."""
    found = memo.get(t)
    if found is None:
        found = _contractions_at(t, sig)
        kind = type(t)
        if kind is Lam:
            found += [Lam(t.var, t.ty, r) for r in _reducts(t.body, sig, memo)]
        elif kind is App:
            found += [App(r, t.arg) for r in _reducts(t.fn, sig, memo)]
            found += [App(t.fn, r) for r in _reducts(t.arg, sig, memo)]
        elif kind is Pair:
            found += [Pair(r, t.right) for r in _reducts(t.left, sig, memo)]
            found += [Pair(t.left, r) for r in _reducts(t.right, sig, memo)]
        elif kind is Proj:
            found += [Proj(t.index, r) for r in _reducts(t.body, sig, memo)]
        memo[t] = found
    return found


# ---------------------------------------------------------------------------
# Reduction graphs


class ReductionGraph(Record):
    """Exhaustive one-step reduction graph rooted at a single term.

    Node keys are canonical prints.  ``edges`` lists successors for every
    expanded node; when ``truncated`` is true some discovered nodes were
    never expanded and are absent from ``edges``.
    """

    root: str
    nodes: Mapping[str, Tm]
    edges: Mapping[str, tuple[str, ...]]
    normal_forms: tuple[str, ...]
    truncated: bool
    term_type: Ty

    def descendants(self, key: str) -> frozenset[str]:
        """All nodes reachable from ``key`` (including itself) along edges."""
        seen = {key}
        stack = [key]
        while stack:
            for nxt in self.edges.get(stack.pop(), ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return frozenset(seen)


class GraphReport(Record):
    """Summary flags for a reduction graph.

    Each flag is ``None`` when the graph was truncated at the node cap and
    the property is therefore indeterminate.
    """

    terminating: Optional[bool]
    unique_nf: Optional[bool]
    locally_confluent_on_graph: Optional[bool]
    truncated: bool
    node_count: int
    normal_forms: tuple[str, ...]

    def summary(self) -> str:
        def show(flag: Optional[bool]) -> str:
            return "indeterminate" if flag is None else ("yes" if flag else "no")

        lines = [
            f"nodes: {self.node_count}",
            f"normal forms: {', '.join(self.normal_forms) if self.normal_forms else '(none)'}",
            f"terminating: {show(self.terminating)}",
            f"unique normal form: {show(self.unique_nf)}",
            f"locally confluent on graph: {show(self.locally_confluent_on_graph)}",
        ]
        if self.truncated:
            lines.append("warning: graph truncated at the node cap")
        return "\n".join(lines)


def reduction_graph(
    t: Tm,
    sig: Optional[Signature] = None,
    node_cap: int = DEFAULT_NODE_CAP,
) -> tuple[ReductionGraph, GraphReport]:
    """Exhaustively close ``t`` under one-step reduction, up to ``node_cap`` nodes.

    Every edge is checked for type preservation; each distinct compound
    subterm outside every binder is typed once per call, and each distinct
    subterm's reducts are computed once.  The report flags are computed
    from the finished graph; if the cap is hit the graph is truncated and
    all three flags are indeterminate (``None``).
    """
    if node_cap < 1:
        raise ValueError(f"node_cap must be >= 1, got {node_cap}")
    if sig is None:
        sig = _EMPTY_SIGNATURE
    types: dict[Tm, Ty] = {}  # per compound subterm outside every binder, of any node
    root_ty = _typecheck(t, {}, sig, types)

    root_key = canonical_print(t)
    nodes: dict[str, Tm] = {root_key: t}
    edges: dict[str, tuple[str, ...]] = {}
    queue: deque[str] = deque([root_key])
    truncated = False
    reducts: dict[Tm, list[Tm]] = {}  # per distinct subterm, for every node
    while queue:
        key = queue.popleft()
        term = nodes[key]
        succ_keys: list[str] = []
        fresh: dict[str, Tm] = {}
        for succ in _distinct_reducts(term, sig, reducts):
            skey = canonical_print(succ)
            succ_ty = _typecheck(succ, {}, sig, types)
            if succ_ty != root_ty:
                raise RuntimeError(
                    f"subject reduction violated: {key} -> {skey} "
                    f"changed type to {print_type(succ_ty)}"
                )
            succ_keys.append(skey)
            if skey not in nodes:
                fresh.setdefault(skey, succ)
        if len(nodes) + len(fresh) > node_cap:
            truncated = True
            break
        for skey, succ in fresh.items():
            nodes[skey] = succ
            queue.append(skey)
        edges[key] = tuple(sorted(set(succ_keys)))

    normal_forms = tuple(sorted(k for k, succs in edges.items() if not succs))
    graph = ReductionGraph(
        root=root_key,
        nodes=nodes,
        edges=edges,
        normal_forms=normal_forms,
        truncated=truncated,
        term_type=root_ty,
    )
    if truncated:
        return graph, GraphReport(None, None, None, True, len(nodes), normal_forms)
    terminating = _is_acyclic(edges)
    unique_nf = len(normal_forms) == 1
    # Newman's lemma: a terminating graph is confluent iff it is locally
    # confluent, and every node here is reached from the root, so it is
    # locally confluent iff the root has one normal form.
    report = GraphReport(
        terminating=terminating,
        unique_nf=unique_nf,
        locally_confluent_on_graph=unique_nf if terminating else _locally_confluent(graph),
        truncated=False,
        node_count=len(nodes),
        normal_forms=normal_forms,
    )
    return graph, report


def _is_acyclic(edges: Mapping[str, tuple[str, ...]]) -> bool:
    WHITE, GREY, BLACK = 0, 1, 2
    color = {k: WHITE for k in edges}
    for start in sorted(edges):
        if color[start] != WHITE:
            continue
        stack: list[tuple[str, int]] = [(start, 0)]
        color[start] = GREY
        while stack:
            node, i = stack.pop()
            succs = edges.get(node, ())
            if i < len(succs):
                stack.append((node, i + 1))
                nxt = succs[i]
                state = color.get(nxt, BLACK)
                if state == GREY:
                    return False
                if state == WHITE:
                    color[nxt] = GREY
                    stack.append((nxt, 0))
            else:
                color[node] = BLACK
    return True


def _locally_confluent(graph: ReductionGraph) -> bool:
    """Every branching pair of one-step reducts rejoins somewhere in the
    graph.  :func:`reduction_graph` asks this only of a graph with a cycle."""
    desc_cache: dict[str, frozenset[str]] = {}

    def desc(key: str) -> frozenset[str]:
        if key not in desc_cache:
            desc_cache[key] = graph.descendants(key)
        return desc_cache[key]

    for key in sorted(graph.edges):
        succs = graph.edges[key]
        for i in range(len(succs)):
            for j in range(i + 1, len(succs)):
                if not desc(succs[i]) & desc(succs[j]):
                    return False
    return True
