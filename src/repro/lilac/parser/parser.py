"""Recursive-descent parser for the Lilac concrete syntax.

The grammar follows Figure 7 of the paper, with the concrete spellings used
throughout its examples::

    gen "flopoco" comp FPAdd[#W]<G:1>(
        val_i: interface[G],
        l: [G, G+1] #W, r: [G, G+1] #W
    ) -> (o: [G+#L, G+#L+1] #W) with { some #L where #L > 0; };

    comp Shift[#W, #N]<G:1>(input: [G, G+1] #W)
        -> (out: [G+#N, G+#N+1] #W) where #N >= 0 {
      bundle<#i> w[#N+1]: [G+#i, G+#i+1] #W;
      w{0} = input;
      for #k in 0..#N {
        r := new Reg[#W]<G+#k>(w{#k});
        w{#k+1} = r.out;
      }
      out = w{#N};
    }

Interval bounds are written relative to the component's event; both ``G+e``
and the tick form ``'G+e`` are accepted.  Bundle and array-port elements are
indexed with braces (``w{#k}``) to keep brackets free for parameter lists.
"""

from __future__ import annotations

from typing import List, Optional

from ...params import (
    CAnd,
    CBool,
    CCmp,
    CNot,
    COr,
    Constraint,
    PAccess,
    PBin,
    PExpr,
    PInstOut,
    PInt,
    PIte,
    PUn,
    PVar,
)
from ..ast import (
    Access,
    Cmd,
    CmdAssert,
    CmdAssume,
    CmdBundle,
    CmdConnect,
    CmdFor,
    CmdIf,
    CmdInst,
    CmdInvoke,
    CmdLet,
    CmdOutBind,
    COMP,
    Component,
    ConstSig,
    EventDef,
    EXTERN,
    GEN,
    Interval,
    OutParamDef,
    ParamDef,
    PortDef,
    Program,
    Signature,
)
from .lexer import Token, tokenize


class ParseError(Exception):
    def __init__(self, message: str, token: Token):
        super().__init__(f"{token.line}:{token.column}: {message} (at {token.text!r})")
        self.token = token


class Parser:
    def __init__(self, source: str):
        self.tokens = tokenize(source)
        self.pos = 0

    # Token plumbing -------------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def at(self, kind: str, offset: int = 0) -> bool:
        return self.peek(offset).kind == kind

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind != "EOF":
            self.pos += 1
        return token

    def expect(self, kind: str) -> Token:
        if not self.at(kind):
            raise ParseError(f"expected {kind!r}", self.peek())
        return self.advance()

    def accept(self, kind: str) -> Optional[Token]:
        if self.at(kind):
            return self.advance()
        return None

    def expect_name(self) -> Token:
        """Accept an identifier; also allow ``in`` (a keyword used as a
        port name throughout the paper's figures)."""
        if self.at("in"):
            return self.advance()
        return self.expect("IDENT")

    # Program --------------------------------------------------------------

    def parse_program(self) -> Program:
        program = Program()
        while not self.at("EOF"):
            program.define(self.parse_component())
        return program

    def parse_component(self) -> Component:
        if self.accept("extern"):
            self.accept("comp")
            sig = self.parse_signature(kind=EXTERN)
            self.expect(";")
            return Component(sig)
        if self.accept("gen"):
            tool = self.expect("STRING").text
            self.accept("comp")
            sig = self.parse_signature(kind=GEN, gen_tool=tool)
            self.expect(";")
            return Component(sig)
        self.expect("comp")
        sig = self.parse_signature(kind=COMP)
        self.expect("{")
        body = self.parse_commands()
        self.expect("}")
        return Component(sig, body)

    # Signature -------------------------------------------------------------

    def parse_signature(self, kind: str, gen_tool: Optional[str] = None) -> Signature:
        name = self.expect("IDENT").text
        params: List[ParamDef] = []
        if self.accept("["):
            while not self.at("]"):
                params.append(ParamDef(self.expect("PARAM").text))
                if not self.accept(","):
                    break
            self.expect("]")
        event = EventDef("G", 1)
        if self.accept("<"):
            ev_name = self.expect("IDENT").text
            self.expect(":")
            delay = self.parse_pexpr()
            self.expect(">")
            event = EventDef(ev_name, delay)
        self.expect("(")
        inputs = self.parse_ports(event.name)
        self.expect(")")
        outputs: List[PortDef] = []
        if self.accept("->"):
            self.expect("(")
            outputs = self.parse_ports(event.name)
            self.expect(")")
        out_params: List[OutParamDef] = []
        if self.accept("with"):
            self.expect("{")
            while self.accept("some"):
                pname = self.expect("PARAM").text
                constraints: List[Constraint] = []
                if self.accept("where"):
                    constraints.append(self.parse_constraint())
                    while self.accept(","):
                        constraints.append(self.parse_constraint())
                self.expect(";")
                out_params.append(OutParamDef(pname, constraints))
            self.expect("}")
        where: List[Constraint] = []
        if self.accept("where"):
            where.append(self.parse_constraint())
            while self.accept(","):
                where.append(self.parse_constraint())
        return Signature(
            name,
            params=params,
            event=event,
            inputs=inputs,
            outputs=outputs,
            out_params=out_params,
            where=where,
            kind=kind,
            gen_tool=gen_tool,
        )

    def parse_ports(self, event_name: str) -> List[PortDef]:
        ports: List[PortDef] = []
        while not self.at(")"):
            name = self.expect_name().text
            size: Optional[PExpr] = None
            if self.accept("["):
                size = self.parse_pexpr()
                self.expect("]")
            self.expect(":")
            if self.accept("interface"):
                self.expect("[")
                self.accept("'")
                self.expect("IDENT")
                self.expect("]")
                ports.append(
                    PortDef(name, Interval(0, 1), 1, size=size, interface=True)
                )
            else:
                interval = self.parse_interval(event_name)
                width = self.parse_pexpr()
                ports.append(PortDef(name, interval, width, size=size))
            if not self.accept(","):
                break
        return ports

    def parse_interval(self, event_name: str) -> Interval:
        self.expect("[")
        start = self.parse_event_offset(event_name)
        self.expect(",")
        end = self.parse_event_offset(event_name)
        self.expect("]")
        return Interval(start, end)

    def parse_event_offset(self, event_name: str) -> PExpr:
        """Parse ``G``, ``'G``, ``G+e``, or a bare expression (offset 0)."""
        self.accept("'")
        if self.at("IDENT") and self.peek().text == event_name:
            self.advance()
            if self.accept("+"):
                return self.parse_pexpr()
            if self.accept("-"):
                return PBin("-", PInt(0), self.parse_pexpr())
            return PInt(0)
        return self.parse_pexpr()

    # Commands ---------------------------------------------------------------

    def parse_commands(self) -> List[Cmd]:
        cmds: List[Cmd] = []
        while not self.at("}") and not self.at("EOF"):
            cmds.extend(self.parse_command())
        return cmds

    def parse_command(self) -> List[Cmd]:
        if self.accept("let"):
            name = self.expect("PARAM").text
            self.expect("=")
            expr = self.parse_pexpr()
            self.expect(";")
            return [CmdLet(name, expr)]
        if self.at("PARAM"):
            name = self.advance().text
            self.expect(":=")
            expr = self.parse_pexpr()
            self.expect(";")
            return [CmdOutBind(name, expr)]
        if self.accept("bundle"):
            index_vars: List[str] = []
            if self.accept("<"):
                index_vars.append(self.expect("PARAM").text)
                while self.accept(","):
                    index_vars.append(self.expect("PARAM").text)
                self.expect(">")
            name = self.expect("IDENT").text
            self.expect("[")
            sizes = [self.parse_pexpr()]
            while self.accept(","):
                sizes.append(self.parse_pexpr())
            self.expect("]")
            self.expect(":")
            interval = self.parse_interval("G")
            width = self.parse_pexpr()
            self.expect(";")
            return [CmdBundle(name, index_vars, sizes, interval, width)]
        if self.accept("for"):
            var = self.expect("PARAM").text
            self.expect("in")
            lo = self.parse_pexpr()
            self.expect("..")
            hi = self.parse_pexpr()
            self.expect("{")
            body = self.parse_commands()
            self.expect("}")
            return [CmdFor(var, lo, hi, body)]
        if self.accept("if"):
            cond = self.parse_constraint()
            self.expect("{")
            then = self.parse_commands()
            self.expect("}")
            otherwise: List[Cmd] = []
            if self.accept("else"):
                if self.at("if"):
                    otherwise = self.parse_command()
                else:
                    self.expect("{")
                    otherwise = self.parse_commands()
                    self.expect("}")
            return [CmdIf(cond, then, otherwise)]
        if self.accept("assume"):
            constraint = self.parse_constraint()
            self.expect(";")
            return [CmdAssume(constraint)]
        if self.accept("assert"):
            constraint = self.parse_constraint()
            self.expect(";")
            return [CmdAssert(constraint)]
        # Remaining forms start with an identifier: instantiation,
        # invocation, combined new+invoke, or a connection.
        return self.parse_ident_command()

    def parse_ident_command(self) -> List[Cmd]:
        start = self.pos
        name = self.expect("IDENT").text
        if self.accept(":="):
            if self.accept("new"):
                comp = self.expect("IDENT").text
                args: List[PExpr] = []
                if self.accept("["):
                    while not self.at("]"):
                        args.append(self.parse_pexpr())
                        if not self.accept(","):
                            break
                    self.expect("]")
                if self.at("<"):
                    # Combined instantiate+invoke (Figure 5a's Mux).
                    offset = self.parse_invoke_event()
                    call_args = self.parse_call_args()
                    self.expect(";")
                    inst = f"{name}!inst"
                    return [
                        CmdInst(inst, comp, args),
                        CmdInvoke(name, inst, offset, call_args),
                    ]
                self.expect(";")
                return [CmdInst(name, comp, args)]
            instance = self.expect("IDENT").text
            offset = self.parse_invoke_event()
            call_args = self.parse_call_args()
            self.expect(";")
            return [CmdInvoke(name, instance, offset, call_args)]
        # Connection: acc = acc ;
        self.pos = start
        dst = self.parse_access()
        self.expect("=")
        if self.at("NUMBER"):
            value = int(self.advance().text)
            self.expect(";")
            return [CmdConnect(dst, ConstSig(value))]
        src = self.parse_access()
        self.expect(";")
        return [CmdConnect(dst, src)]

    def parse_invoke_event(self) -> PExpr:
        self.expect("<")
        self.accept("'")
        # Event name followed by optional offset; also allow a bare offset.
        if self.at("IDENT") and self.peek(1).kind in ("+", ">", "-"):
            self.advance()
            if self.accept("+"):
                offset = self.parse_pexpr()
            elif self.accept("-"):
                offset = PBin("-", PInt(0), self.parse_pexpr())
            else:
                offset = PInt(0)
        else:
            offset = self.parse_pexpr()
        self.expect(">")
        return offset

    def parse_call_args(self) -> List:
        self.expect("(")
        args = []
        while not self.at(")"):
            if self.at("NUMBER"):
                args.append(ConstSig(int(self.advance().text)))
            else:
                args.append(self.parse_access())
            if not self.accept(","):
                break
        self.expect(")")
        return args

    def parse_access(self) -> Access:
        base = self.expect_name().text
        field: Optional[str] = None
        if self.accept("."):
            field = self.expect_name().text
        indices: List[PExpr] = []
        while self.accept("{"):
            indices.append(self.parse_pexpr())
            self.expect("}")
        return Access(base, field=field, indices=indices)

    # Parameter expressions ---------------------------------------------------

    def parse_pexpr(self) -> PExpr:
        """Expression with optional ternary: ``C ? P : P``."""
        start = self.pos
        try:
            cond = self.parse_plain_constraint()
            if self.accept("?"):
                then = self.parse_pexpr()
                self.expect(":")
                other = self.parse_pexpr()
                return PIte(cond, then, other)
        except ParseError:
            pass
        self.pos = start
        return self.parse_arith()

    def parse_arith(self) -> PExpr:
        expr = self.parse_term()
        while self.at("+") or self.at("-"):
            op = self.advance().kind
            expr = PBin(op, expr, self.parse_term())
        return expr

    def parse_term(self) -> PExpr:
        expr = self.parse_factor()
        while self.at("*") or self.at("/") or self.at("%"):
            op = self.advance().kind
            expr = PBin(op, expr, self.parse_factor())
        return expr

    def parse_factor(self) -> PExpr:
        if self.at("NUMBER"):
            return PInt(int(self.advance().text))
        if self.at("PARAM"):
            return PVar(self.advance().text)
        if self.at("log2") or self.at("exp2"):
            op = self.advance().kind
            self.expect("(")
            arg = self.parse_pexpr()
            self.expect(")")
            return PUn(op, arg)
        if self.accept("("):
            expr = self.parse_pexpr()
            self.expect(")")
            return expr
        if self.accept("-"):
            return PBin("-", PInt(0), self.parse_factor())
        if self.at("IDENT"):
            name = self.advance().text
            if self.accept("["):
                args = []
                while not self.at("]"):
                    args.append(self.parse_pexpr())
                    if not self.accept(","):
                        break
                self.expect("]")
                self.expect("::")
                out = self.expect("PARAM").text
                return PAccess(name, args, out)
            self.expect("::")
            out = self.expect("PARAM").text
            return PInstOut(name, out)
        raise ParseError("expected parameter expression", self.peek())

    # Constraints ---------------------------------------------------------------

    def parse_constraint(self) -> Constraint:
        """Constraint with optional ternary: ``C ? C1 : C2`` desugars to
        ``(C & C1) | (!C & C2)`` (used by Figure 9b's latency formulas)."""
        cond = self.parse_c_or()
        if self.accept("?"):
            then = self.parse_constraint()
            self.expect(":")
            other = self.parse_constraint()
            return COr(CAnd(cond, then), CAnd(CNot(cond), other))
        return cond

    def parse_plain_constraint(self) -> Constraint:
        return self.parse_c_or()

    def parse_c_or(self) -> Constraint:
        lhs = self.parse_c_and()
        while self.at("|") or self.at("||"):
            self.advance()
            lhs = COr(lhs, self.parse_c_and())
        return lhs

    def parse_c_and(self) -> Constraint:
        lhs = self.parse_c_not()
        while self.at("&") or self.at("&&"):
            self.advance()
            lhs = CAnd(lhs, self.parse_c_not())
        return lhs

    def parse_c_not(self) -> Constraint:
        if self.accept("!"):
            return CNot(self.parse_c_not())
        if self.accept("true"):
            return CBool(True)
        if self.accept("false"):
            return CBool(False)
        # Parenthesized constraint vs parenthesized arithmetic: backtrack.
        if self.at("("):
            start = self.pos
            self.advance()
            try:
                inner = self.parse_constraint()
                if self.accept(")") and not self._at_cmp():
                    return inner
            except ParseError:
                pass
            self.pos = start
        return self.parse_comparison()

    def _at_cmp(self) -> bool:
        return self.peek().kind in ("==", "!=", "<=", ">=", "<", ">")

    def parse_comparison(self) -> Constraint:
        lhs = self.parse_arith()
        if not self._at_cmp():
            raise ParseError("expected comparison operator", self.peek())
        op = self.advance().kind
        rhs = self.parse_arith()
        return CCmp(op, lhs, rhs)


def parse_program(source: str) -> Program:
    """Parse Lilac source text into a :class:`Program`."""
    return Parser(source).parse_program()


def parse_component(source: str) -> Component:
    """Parse a single component definition."""
    program = Parser(source).parse_program()
    if len(program) != 1:
        raise ValueError(f"expected exactly one component, got {len(program)}")
    return next(iter(program))
