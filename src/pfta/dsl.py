"""Line-oriented text format for parametric fault tree models.

One statement per line; `--` starts a comment.  Statements:

    model <name>
    type <T> = {v1, v2, ...}
    basic <Name>(<p>:<T>, ...) rate <float>
    event <Name>(<p>:<T>, ...) = <gate-expr>
    top <Name> = <gate-expr>

    gate-expr := and(<ref>, ...) | or(<ref>, ...)
               | and forall(<p>:<T>, ...) <ref>
               | or forall(<p>:<T>, ...) <ref>
               | vote(<k>:<n>) forall(<p>:<T>) <ref>
    ref       := <Name> | <Name>(<arg>, ...)      -- arg: parameter or integer

A parameter is declared by the one `forall` clause that quantifies it, at
the referenced input event, which thereby becomes a replicator; every
gate kind reads it as its replicas (`or forall` fails like `vote(n:n)`).
Declarations may appear in any order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import prod

from .errors import DslError
from .model import (
    EventNode,
    EventRef,
    FailureRate,
    Gate,
    IDENTIFIER,
    KIND_BASIC,
    KIND_INTERNAL,
    KIND_TOP,
    Parameter,
    ParamType,
    PftModel,
)

_TOKEN = re.compile(rf"\s*(-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?|{IDENTIFIER.pattern}|[(){{}}=:,])")
_INTEGER = re.compile(r"-?\d+")


@dataclass
class _Tok:
    text: str
    column: int


def _tokenize(line: str, lineno: int) -> list[_Tok]:
    code = line.split("--", 1)[0]
    toks: list[_Tok] = []
    pos = 0
    while pos < len(code):
        m = _TOKEN.match(code, pos)
        if m is None:
            rest = code[pos:].strip()
            if not rest:
                break
            raise DslError(f"unexpected character {rest[0]!r}", lineno, pos + 1)
        toks.append(_Tok(m.group(1), m.start(1) + 1))
        pos = m.end()
    return toks


class _Cursor:
    """Token stream over one statement line."""

    def __init__(self, toks: list[_Tok], lineno: int):
        self.toks = toks
        self.lineno = lineno
        self.i = 0

    def peek(self) -> str | None:
        return self.toks[self.i].text if self.i < len(self.toks) else None

    def next(self, what: str = "token") -> _Tok:
        if self.i >= len(self.toks):
            raise DslError(f"expected {what} at end of line", self.lineno)
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expect(self, text: str) -> _Tok:
        tok = self.next(repr(text))
        if tok.text != text:
            raise DslError(f"expected {text!r}, got {tok.text!r}", self.lineno, tok.column)
        return tok

    def ident(self, what: str = "identifier") -> _Tok:
        tok = self.next(what)
        if not IDENTIFIER.fullmatch(tok.text):
            raise DslError(f"expected {what}, got {tok.text!r}", self.lineno, tok.column)
        return tok

    def integer(self, what: str = "integer") -> int:
        tok = self.next(what)
        if not _INTEGER.fullmatch(tok.text):
            raise DslError(f"expected {what}, got {tok.text!r}", self.lineno, tok.column)
        return int(tok.text)

    def number(self, what: str = "number") -> float:
        tok = self.next(what)
        try:
            return float(tok.text)
        except ValueError:
            raise DslError(f"expected {what}, got {tok.text!r}", self.lineno, tok.column) from None

    def done(self) -> None:
        if self.i < len(self.toks):
            tok = self.toks[self.i]
            raise DslError(f"unexpected trailing {tok.text!r}", self.lineno, tok.column)


@dataclass
class _RawGate:
    kind: str
    k: int | None
    n: int | None
    forall: list[tuple[str, str]]  # (param, type) pairs
    refs: list[tuple[str, list[int | str], int]]  # name, args, column
    lineno: int


class _Builder:
    """Collects declarations, then resolves references into a PftModel.

    `finish` records every parameter's type and every `forall` before it
    resolves any reference, so no check depends on declaration order.
    """

    def __init__(self) -> None:
        self.name = ""
        self.types: list[ParamType] = []
        self.basics: list[tuple[str, list[tuple[str, str]], float, int]] = []
        self.eventdecls: list[tuple[str, list[tuple[str, str]], _RawGate, str, int]] = []
        self.seen: dict[str, int] = {}
        self.type_map: dict[str, ParamType] = {}
        self.params: dict[str, str] = {}  # parameter -> its one type
        self.formals_of: dict[str, tuple[str, ...]] = {}
        self.owner: dict[str, tuple[str, int]] = {}  # parameter -> (replicator, forall line)

    def declare(self, name: str, lineno: int, column: int) -> None:
        if name in self.seen:
            raise DslError(
                f"duplicate declaration of {name} (first on line {self.seen[name]})",
                lineno,
                column,
            )
        self.seen[name] = lineno

    def note_param(self, pname: str, tname: str, lineno: int, where: str) -> None:
        if tname not in self.type_map:
            raise DslError(f"unknown type {tname} in {where}", lineno)
        prev = self.params.setdefault(pname, tname)
        if prev != tname:
            raise DslError(
                f"parameter {pname} used with type {tname} in {where} "
                f"but previously with type {prev}",
                lineno,
            )

    def finish(self) -> PftModel:
        self.type_map = {t.name: t for t in self.types}
        for cname, formals, _lam, lineno in self.basics:
            self.formals_of[cname] = tuple(p for p, _ in formals)
            for pname, tname in formals:
                self.note_param(pname, tname, lineno, f"basic {cname}")
        for cname, formals, _raw, _kind, lineno in self.eventdecls:
            self.formals_of[cname] = tuple(p for p, _ in formals)
            for pname, tname in formals:
                self.note_param(pname, tname, lineno, f"event {cname}")
        for cname, _formals, raw, _kind, _lineno in self.eventdecls:
            for pname, tname in raw.forall:
                self.note_param(pname, tname, raw.lineno, f"forall of {cname}")
                self.owner.setdefault(pname, (raw.refs[0][0], raw.lineno))

        gates = [self._resolve_gate(cname, raw) for cname, _f, raw, _k, _l in self.eventdecls]
        events = [EventNode(cname, KIND_BASIC, self.formals_of[cname])
                  for cname, _f, _lam, _l in self.basics]
        events += [EventNode(cname, kind, self.formals_of[cname])
                   for cname, _f, _raw, kind, _l in self.eventdecls]
        return PftModel(
            name=self.name,
            types=tuple(self.types),
            params=tuple(Parameter(p, t) for p, t in self.params.items()),
            events=tuple(events),
            gates=tuple(gates),
            rates=tuple(FailureRate(cname, lam) for cname, _f, lam, _l in self.basics),
        )

    def _resolve_gate(self, cname: str, raw: _RawGate) -> Gate:
        lineno = raw.lineno
        forall = [p for p, _ in raw.forall]
        outer = set(self.formals_of[cname])
        refs: list[EventRef] = []
        for rname, rargs, column in raw.refs:
            if rname not in self.formals_of:
                raise DslError(f"unknown event {rname}", lineno, column)
            formals = self.formals_of[rname]
            if len(rargs) != len(formals):
                raise DslError(
                    f"{rname} takes {len(formals)} parameters, got {len(rargs)}",
                    lineno,
                    column,
                )
            for arg, formal in zip(rargs, formals):
                ftype = self.params[formal]
                if isinstance(arg, int):
                    if arg not in self.type_map[ftype].values:
                        raise DslError(
                            f"constant {arg} is not a value of type {ftype}",
                            lineno,
                            column,
                        )
                else:
                    if arg not in self.params:
                        raise DslError(f"unknown parameter {arg}", lineno, column)
                    if self.params[arg] != ftype:
                        raise DslError(
                            f"parameter {arg} of type {self.params[arg]} passed to "
                            f"{rname} where type {ftype} is expected",
                            lineno,
                            column,
                        )
                    if arg in forall and arg != formal:
                        raise DslError(
                            f"forall parameter {arg} must match the formal "
                            f"parameter name {formal} of {rname}",
                            lineno,
                            column,
                        )
                    if arg not in outer and arg not in forall \
                            and self.owner.get(arg, (rname,))[0] != rname:
                        raise DslError(
                            f"parameter {arg} is not in scope here",
                            lineno,
                            column,
                        )
            refs.append(EventRef(rname, tuple(rargs)))

        for pname in forall:
            prev_at, prev_line = self.owner[pname]
            if prev_line != lineno:
                raise DslError(
                    f"parameter {pname} already declared at {prev_at} "
                    f"(line {prev_line})",
                    lineno,
                )
            if pname not in self.formals_of[refs[0].event]:
                raise DslError(
                    f"forall parameter {pname} is not a formal parameter "
                    f"of {refs[0].event}",
                    lineno,
                )
        if raw.kind == "kofn" and forall:
            n = prod(len(self.type_map[self.params[p]].values) for p in forall)
            if raw.n != n:
                raise DslError(
                    f"vote({raw.k}:{raw.n}) of {cname} disagrees with the "
                    f"{n} replicas of {refs[0].event}",
                    lineno,
                )
        return Gate(kind=raw.kind, output=cname, inputs=tuple(refs), k=raw.k,
                    forall=tuple(forall))


def _parse_params(cur: _Cursor) -> list[tuple[str, str]]:
    """Parse `(p:T, q:U)`; cursor sits on the opening parenthesis."""
    out: list[tuple[str, str]] = []
    cur.expect("(")
    while True:
        pname = cur.ident("parameter name").text
        cur.expect(":")
        tname = cur.ident("type name").text
        if pname in [p for p, _ in out]:
            raise DslError(f"parameter {pname} repeated", cur.lineno)
        out.append((pname, tname))
        if cur.peek() == ",":
            cur.next()
            continue
        cur.expect(")")
        return out


def _parse_ref(cur: _Cursor) -> tuple[str, list[int | str], int]:
    tok = cur.ident("event name")
    args: list[int | str] = []
    if cur.peek() == "(":
        cur.next()
        while True:
            nxt = cur.next("argument")
            if _INTEGER.fullmatch(nxt.text):
                args.append(int(nxt.text))
            elif IDENTIFIER.fullmatch(nxt.text):
                args.append(nxt.text)
            else:
                raise DslError(f"expected argument, got {nxt.text!r}", cur.lineno, nxt.column)
            if cur.peek() == ",":
                cur.next()
                continue
            cur.expect(")")
            break
    return tok.text, args, tok.column


def _parse_ref_list(cur: _Cursor) -> list[tuple[str, list[int | str], int]]:
    """A parenthesized, comma-separated list of event references."""
    cur.expect("(")
    refs = [_parse_ref(cur)]
    while cur.peek() == ",":
        cur.next()
        refs.append(_parse_ref(cur))
    cur.expect(")")
    return refs


def _parse_gate_expr(cur: _Cursor) -> _RawGate:
    tok = cur.ident("gate kind")
    kind, k, n = tok.text, None, None
    if kind == "vote":
        cur.expect("(")
        k = cur.integer("k")
        cur.expect(":")
        n = cur.integer("n")
        cur.expect(")")
        kind = "kofn"
    elif kind not in ("and", "or"):
        raise DslError(f"expected and/or/vote, got {kind!r}", cur.lineno, tok.column)
    if cur.peek() == "forall":
        cur.next()
        forall = _parse_params(cur)
        return _RawGate(kind, k, n, forall, [_parse_ref(cur)], cur.lineno)
    # bare reference list; structural checks are left to the model
    return _RawGate(kind, k, n, [], _parse_ref_list(cur), cur.lineno)


def parse_model(text: str) -> PftModel:
    """Parse a fault tree document into a PftModel.

    Raises `DslError` for text it cannot read and `ModelInvalidError` for
    a model that is not well formed.
    """
    b = _Builder()
    for lineno, line in enumerate(text.splitlines(), start=1):
        toks = _tokenize(line, lineno)
        if not toks:
            continue
        cur = _Cursor(toks, lineno)
        head = cur.next("statement")
        if head.text == "model":
            b.name = cur.ident("model name").text
            cur.done()
        elif head.text == "type":
            name = cur.ident("type name")
            b.declare(name.text, lineno, name.column)
            cur.expect("=")
            cur.expect("{")
            values = [cur.integer("type value")]
            while cur.peek() == ",":
                cur.next()
                values.append(cur.integer("type value"))
            cur.expect("}")
            cur.done()
            if len(set(values)) != len(values):
                raise DslError(f"type {name.text} has repeated values", lineno)
            b.types.append(ParamType(name.text, tuple(values)))
        elif head.text == "basic":
            name = cur.ident("event name")
            b.declare(name.text, lineno, name.column)
            formals = _parse_params(cur) if cur.peek() == "(" else []
            if cur.peek() != "rate":
                raise DslError(f"missing failure rate for {name.text}", lineno)
            cur.next()
            lam = cur.number("failure rate")
            cur.done()
            b.basics.append((name.text, formals, lam, lineno))
        elif head.text in ("event", "top"):
            name = cur.ident("event name")
            b.declare(name.text, lineno, name.column)
            formals = []
            if head.text == "event" and cur.peek() == "(":
                formals = _parse_params(cur)
            cur.expect("=")
            raw = _parse_gate_expr(cur)
            cur.done()
            kind = KIND_TOP if head.text == "top" else KIND_INTERNAL
            b.eventdecls.append((name.text, formals, raw, kind, lineno))
        else:
            raise DslError(
                f"expected model/type/basic/event/top, got {head.text!r}",
                lineno,
                head.column,
            )
    return b.finish()


def _format_ref(ref: EventRef) -> str:
    if not ref.args:
        return ref.event
    return ref.event + "(" + ", ".join(str(a) for a in ref.args) + ")"


def _format_formals(model: PftModel, class_name: str) -> str:
    ev = model.event_map[class_name]
    if not ev.formal_params:
        return ""
    parts = [f"{p}:{model.param_map[p].type_name}" for p in ev.formal_params]
    return "(" + ", ".join(parts) + ")"


def serialize_model(model: PftModel) -> str:
    """Render a model as a document that parses back to an equal model."""
    lines: list[str] = []
    if model.name:
        lines.append(f"model {model.name}")
    for t in model.types:
        lines.append(f"type {t.name} = {{{', '.join(str(v) for v in t.values)}}}")
    for e in model.events:
        if e.kind != KIND_BASIC:
            continue
        lines.append(
            f"basic {e.class_name}{_format_formals(model, e.class_name)} "
            f"rate {model.rate_map[e.class_name]!r}"
        )
    for e in model.events:
        if e.kind == KIND_BASIC:
            continue
        gate = model.gate_map[e.class_name]
        keyword = "top" if e.kind == KIND_TOP else "event"
        head = f"{keyword} {e.class_name}"
        if e.kind != KIND_TOP:
            head += _format_formals(model, e.class_name)
        lines.append(f"{head} = {_format_gate(model, gate)}")
    return "\n".join(lines) + "\n"


def _format_gate(model: PftModel, gate: Gate) -> str:
    if gate.forall:
        quant = ", ".join(f"{p}:{model.param_map[p].type_name}" for p in gate.forall)
        rest = f" forall({quant}) {_format_ref(gate.inputs[0])}"
    else:
        rest = "(" + ", ".join(_format_ref(r) for r in gate.inputs) + ")"
    if gate.kind != "kofn":
        return gate.kind + rest
    n = prod(len(model.param_values(p)) for p in gate.forall) if gate.forall else len(gate.inputs)
    return f"vote({gate.k}:{n}){rest}"
