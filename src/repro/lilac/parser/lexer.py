"""Lexer for the Lilac concrete syntax.

Token kinds:

* ``IDENT``  — component/instance/port names (``FPU``, ``add``)
* ``PARAM``  — parameter names including the hash (``#W``, ``#L``)
* ``NUMBER`` — integer literals
* ``STRING`` — double-quoted generator tool names (``"flopoco"``)
* punctuation/operator tokens, keyed by their spelling

Comments run from ``//`` to end of line.
"""

from __future__ import annotations

from typing import List, NamedTuple


class LexError(Exception):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class Token(NamedTuple):
    kind: str
    text: str
    line: int
    column: int


KEYWORDS = {
    "comp",
    "extern",
    "gen",
    "new",
    "with",
    "where",
    "some",
    "let",
    "bundle",
    "for",
    "in",
    "if",
    "else",
    "assume",
    "assert",
    "interface",
    "true",
    "false",
    "log2",
    "exp2",
}

# Longest-match first.
SYMBOLS = [
    "::",
    ":=",
    "..",
    "->",
    "==",
    "!=",
    "<=",
    ">=",
    "&&",
    "||",
    "(",
    ")",
    "[",
    "]",
    "{",
    "}",
    "<",
    ">",
    ",",
    ";",
    ":",
    "=",
    "+",
    "-",
    "*",
    "/",
    "%",
    ".",
    "?",
    "&",
    "|",
    "!",
    "'",
]


def tokenize(source: str) -> List[Token]:
    tokens: List[Token] = []
    line = 1
    column = 1
    index = 0
    length = len(source)

    def error(message: str):
        raise LexError(message, line, column)

    while index < length:
        char = source[index]
        if char == "\n":
            index += 1
            line += 1
            column = 1
            continue
        if char in " \t\r":
            index += 1
            column += 1
            continue
        if source.startswith("//", index):
            while index < length and source[index] != "\n":
                index += 1
            continue
        if char == '"':
            end = source.find('"', index + 1)
            if end < 0:
                error("unterminated string literal")
            text = source[index + 1 : end]
            tokens.append(Token("STRING", text, line, column))
            column += end - index + 1
            index = end + 1
            continue
        if char == "#":
            start = index
            index += 1
            while index < length and (source[index].isalnum() or source[index] == "_"):
                index += 1
            if index == start + 1:
                error("expected parameter name after '#'")
            text = source[start:index]
            tokens.append(Token("PARAM", text, line, column))
            column += index - start
            continue
        if char.isdigit():
            start = index
            while index < length and source[index].isdigit():
                index += 1
            text = source[start:index]
            tokens.append(Token("NUMBER", text, line, column))
            column += index - start
            continue
        if char.isalpha() or char == "_":
            start = index
            while index < length and (source[index].isalnum() or source[index] == "_"):
                index += 1
            text = source[start:index]
            kind = text if text in KEYWORDS else "IDENT"
            tokens.append(Token(kind, text, line, column))
            column += index - start
            continue
        for symbol in SYMBOLS:
            if source.startswith(symbol, index):
                tokens.append(Token(symbol, symbol, line, column))
                index += len(symbol)
                column += len(symbol)
                break
        else:
            error(f"unexpected character {char!r}")
    tokens.append(Token("EOF", "", line, column))
    return tokens
