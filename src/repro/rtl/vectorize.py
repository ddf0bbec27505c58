"""Mega-lane vectorized simulation backend: netlist → numpy column kernels.

The third codegen target (after the scalar and SWAR generators of
:mod:`repro.rtl.compile`).  Where the batched SWAR backend packs K lanes
into one CPython bignum — and saturates between 16 and 64 lanes because
every operation's cost grows with the packed integer's limb count — this
generator gives every net a *word-packed column*: one value per lane,
stored contiguously, so a single vectorized operation advances thousands
of lanes at fixed per-op overhead.

Each net ≤ 64 bits wide is one ``numpy`` array of dtype ``uint64`` and
shape ``(lanes,)``; combinational cells become one or two whole-column
ufunc calls (``+``, ``&``, ``np.where``, ...).  All arithmetic is exact
under the unsigned mod-2^width contract: uint64 wraps mod 2^64 and an
explicit mask narrows to the net width, division and modulo route
through ``np.floor_divide``/``np.remainder`` with a ``where=`` guard so
x/0 == 0, and shift amounts that would be C-level undefined behavior
(>= 64) are folded to constant zero columns at generation time.  Every
integer literal is materialized as a ``np.uint64`` scalar in the
prelude, which keeps numpy 1.x from promoting wide masks to float64 and
satisfies NEP 50 on 2.x.  Nets wider than 64 bits are lists of word
columns (only multi-word arithmetic drops to per-lane loops, the same
escape hatch the SWAR generator uses), and FIFOs keep one deque per
lane.

numpy is an optional dependency (the ``vector`` extra).  Without it,
building a vector program raises :class:`SimBackendUnavailable`; a
:class:`~repro.driver.session.CompileSession` asked for ``vector``
then degrades to ``compiled`` along
:data:`~repro.rtl.compile.BACKEND_FALLBACKS`.

**Requirement: generated code never writes into a column.**  Every
emitted statement rebinds a slot or register to a fresh (or shared,
unmodified) column and never mutates one in place.  Three things rely
on it: a register latch is a single reference copy, constant columns
are shared across slots and cycles, and ``run`` keeps each cycle's
output columns by reference until it builds the traces at the end of
the run (:func:`~repro.rtl.simulate.run_lanes`) — an in-place write
would silently rewrite earlier cycles' outputs.  The vector tests run
the kernels over columns marked read-only to hold generators to it.

:class:`VectorCompiledSimulator` presents the same vectorized surface as
:class:`~repro.rtl.compile.BatchedCompiledSimulator` (per-lane poke
lists, one output dict per lane) and is gated by the very same
:func:`~repro.rtl.compile.differential_check` contract: bit-identical,
lane for lane, to K independent interpreter runs.  Generated kernels
persist through the ``codegen`` pseudo-stage of the disk cache, keyed
``(structural_hash, "vector", lanes, CODEGEN_VERSION)``.
"""

from __future__ import annotations

import threading
import time
from array import array
from collections import deque
from itertools import repeat
from typing import Dict, List, Optional, Sequence, Tuple

from .netlist import Cell, Module, NetlistError, comb_topo_order
from .simulate import lane_major, random_stimulus_batch, run_lanes

#: Lane-column word width: nets at or below it are one uint64 column,
#: wider nets a list of word columns.
VECTOR_WORD = 64

#: Mask of one full machine word.
_WORD_MASK = (1 << VECTOR_WORD) - 1

#: The codegen-store backend tag of this module's kernels.
_BACKEND_TAG = "vector"


def _nwords(width: int) -> int:
    """How many 64-bit words a value of ``width`` bits occupies."""
    return (width + VECTOR_WORD - 1) // VECTOR_WORD


class SimBackendUnavailable(NetlistError):
    """A simulation backend's required runtime support is not installed.

    Raised when a vector program is built without numpy.  Sessions
    catch it and fall back one rung down ``BACKEND_FALLBACKS``.
    """


_NUMPY = None
_NUMPY_PROBED = False


def _numpy():
    """The numpy module, or None when not installed (probed once)."""
    global _NUMPY, _NUMPY_PROBED
    if not _NUMPY_PROBED:
        try:
            import numpy
            _NUMPY = numpy
        except ImportError:
            _NUMPY = None
        _NUMPY_PROBED = True
    return _NUMPY


def _require_numpy() -> None:
    """Raise :class:`SimBackendUnavailable` unless numpy is importable."""
    if _numpy() is None:
        raise SimBackendUnavailable(
            "the vector backend needs numpy, which is not installed; "
            "install the 'vector' extra: pip install 'lilac-repro[vector]'"
        )


class _VecConsts:
    """Constant pool for one vector compilation.

    Scalars (masks, shift amounts, flip patterns) and full lane columns
    (constant cells, the zero column) are emitted once in the generated
    prelude and threaded into the step functions as keyword defaults, so
    the hot loop reads them as ``LOAD_FAST``.
    """

    def __init__(self):
        self._scalars: Dict[int, str] = {}
        self._columns: Dict[int, str] = {}
        self._wides: Dict[Tuple[int, int], str] = {}
        self.defs: List[str] = []

    def _fresh(self, hint: str) -> str:
        name = f"_{hint}"
        if any(line.startswith(f"{name} = ") for line in self.defs):
            name = f"_{hint}x{len(self.defs)}"
        return name

    def scalar(self, value: int, hint: str, uses: set) -> str:
        """A ``np.uint64`` scalar."""
        name = self._scalars.get(value)
        if name is None:
            name = self._fresh(hint)
            self._scalars[value] = name
            self.defs.append(f"{name} = _np.uint64({hex(value)})")
        uses.add(name)
        return name

    def mask(self, width: int, uses: set) -> str:
        return self.scalar((1 << width) - 1, f"M{width}", uses)

    def column(self, value: int, hint: str, uses: set) -> str:
        """A whole packed column holding ``value`` in every lane."""
        name = self._columns.get(value)
        if name is None:
            name = self._fresh(hint)
            self._columns[value] = name
            self.defs.append(
                f"{name} = _np.full(_LANES, _np.uint64({hex(value)}))"
            )
        uses.add(name)
        return name

    def zeros(self, uses: set) -> str:
        return self.column(0, "Z", uses)

    def wide_words(self, value: int, n_words: int, hint: str,
                   uses: set) -> str:
        """A multi-word constant: a list of ``n_words`` full columns
        holding the value's 64-bit words."""
        key = (value, n_words)
        name = self._wides.get(key)
        if name is None:
            name = self._fresh(hint)
            self._wides[key] = name
            words = ", ".join(
                f"_np.full(_LANES, _np.uint64("
                f"{hex((value >> (VECTOR_WORD * i)) & _WORD_MASK)}))"
                for i in range(n_words)
            )
            self.defs.append(f"{name} = [{words}]")
        uses.add(name)
        return name


def _generate_vector_source(
    module: Module, slot: Dict[str, int], lanes: int
) -> Tuple[str, List[str], List[int], List[str], List[int]]:
    """Generate the lane-column evaluate/latch pair.

    The invariants every emitted statement preserves (exactly as in the
    SWAR generator): lane values are *clean* — strictly below
    ``2^width`` — and columns are never written into, only rebound (the
    module docstring's requirement).
    """
    consts = _VecConsts()
    uses_ev: set = set()
    uses_lt: set = set()
    div_helpers = set()

    def wide(net) -> bool:
        return net.width > VECTOR_WORD

    def lanes_of(net, uses: set) -> str:
        """Expression yielding an iterable of the net's per-lane ints."""
        expr = f"s[{slot[net.name]}]"
        if not wide(net):
            return f"{expr}.tolist()"
        div_helpers.add("_wunpack")
        uses.add("_wunpack")
        return f"_wunpack({expr})"

    def pk(listcomp: str, uses: set) -> str:
        """Pack a list-comprehension of clean ints into a column."""
        uses.add("_np")
        uses.add("_U64")
        return f"_np.array({listcomp}, _U64)"

    def pk_wide(listcomp: str, n_words: int, uses: set) -> str:
        """Pack clean per-lane ints into a multi-word column list."""
        div_helpers.add("_wpack")
        uses.add("_wpack")
        return f"_wpack({listcomp}, {n_words})"

    # -- whole-column kernels (every pin at most one word) --------------

    def comb_packed(cell: Cell) -> List[str]:
        pins, kind = cell.pins, cell.kind
        out = pins["out"]
        so = slot[out.name]
        wo = out.width
        uses_ev.add("_np")

        def sl(pin: str) -> str:
            return f"s[{slot[pins[pin].name]}]"

        def w(pin: str) -> int:
            return pins[pin].width

        def emit(expr: str, need_mask: bool) -> List[str]:
            if need_mask:
                expr = f"({expr}) & {consts.mask(wo, uses_ev)}"
            return [f"    s[{so}] = {expr}"]

        def zeros() -> List[str]:
            return [f"    s[{so}] = {consts.zeros(uses_ev)}"]

        if kind == "const":
            value = int(cell.params["value"]) & ((1 << wo) - 1)
            return [
                f"    s[{so}] = {consts.column(value, f'V{so}', uses_ev)}"
            ]
        if kind == "add":
            # uint64 wraps mod 2^64, so a 64-bit out needs no mask.
            need = wo < VECTOR_WORD and wo < max(w("a"), w("b")) + 1
            return emit(f"{sl('a')} + {sl('b')}", need)
        if kind == "sub":
            return emit(f"{sl('a')} - {sl('b')}", wo < VECTOR_WORD)
        if kind == "mul":
            # Low bits of the wrapped product are exact for wo <= 64.
            need = wo < VECTOR_WORD and w("a") + w("b") > wo
            return emit(f"{sl('a')} * {sl('b')}", need)
        if kind == "div":
            div_helpers.add("_vdiv")
            uses_ev.add("_vdiv")
            return emit(f"_vdiv({sl('a')}, {sl('b')})", w("a") > wo)
        if kind == "mod":
            div_helpers.add("_vmod")
            uses_ev.add("_vmod")
            return emit(
                f"_vmod({sl('a')}, {sl('b')})", min(w("a"), w("b")) > wo
            )
        if kind == "and":
            return emit(
                f"{sl('a')} & {sl('b')}", min(w("a"), w("b")) > wo
            )
        if kind in ("or", "xor"):
            op = "|" if kind == "or" else "^"
            return emit(
                f"{sl('a')} {op} {sl('b')}", max(w("a"), w("b")) > wo
            )
        if kind == "not":
            flip_width = max(w("a"), wo)
            flip = consts.scalar(
                (1 << flip_width) - 1, f"F{flip_width}", uses_ev
            )
            return emit(f"{sl('a')} ^ {flip}", w("a") > wo)
        if kind == "eq":
            uses_ev.add("_U64")
            return emit(f"({sl('a')} == {sl('b')}).astype(_U64)", False)
        if kind == "lt":
            uses_ev.add("_U64")
            return emit(f"({sl('a')} < {sl('b')}).astype(_U64)", False)
        if kind == "mux":
            cond = sl("sel")
            if w("sel") > 1:
                cond = f"{cond} & {consts.scalar(1, 'K1', uses_ev)}"
            return emit(
                f"_np.where({cond}, {sl('a')}, {sl('b')})",
                max(w("a"), w("b")) > wo,
            )
        if kind == "shl":
            amount = int(cell.params["amount"])
            if amount >= wo:  # masked away entirely (also: >=64 is UB)
                return zeros()
            if amount == 0:
                return emit(sl("a"), w("a") > wo)
            shift = consts.scalar(amount, f"A{amount}", uses_ev)
            need = wo < VECTOR_WORD and w("a") + amount > wo
            return emit(f"{sl('a')} << {shift}", need)
        if kind == "shr":
            amount = int(cell.params["amount"])
            if amount >= w("a"):
                return zeros()
            if amount == 0:
                return emit(sl("a"), w("a") > wo)
            shift = consts.scalar(amount, f"A{amount}", uses_ev)
            return emit(f"{sl('a')} >> {shift}", w("a") - amount > wo)
        if kind == "slice":
            lsb = int(cell.params["lsb"])
            if lsb >= w("a"):
                return zeros()
            if lsb == 0:
                return emit(sl("a"), w("a") > wo)
            shift = consts.scalar(lsb, f"A{lsb}", uses_ev)
            return emit(f"{sl('a')} >> {shift}", w("a") - lsb > wo)
        if kind == "concat":
            wb = w("b")
            if wb >= wo:  # a's bits are entirely above the out mask
                return emit(sl("b"), wb > wo)
            shift = consts.scalar(wb, f"A{wb}", uses_ev)
            need = wo < VECTOR_WORD and w("a") + wb > wo
            return emit(f"({sl('a')} << {shift}) | {sl('b')}", need)
        raise NetlistError(f"cannot vector-compile cell kind {kind!r}")

    # -- multi-word columns for wide nets -------------------------------
    #
    # A net wider than one machine word is a Python list of ceil(w/64)
    # uint64 columns (little-endian words, clean: the top word carries
    # only the residual bits).  The structural kinds below stay fully
    # vectorized at the word level; only genuinely multi-word arithmetic
    # (add/sub/mul/div/mod/lt on wide values) drops to the per-lane
    # fallback, which converts through ``_wpack``/``_wunpack``.

    WIDE_VECTOR_KINDS = frozenset(
        ("const", "slice", "shr", "shl", "concat",
         "and", "or", "xor", "not", "mux", "eq")
    )

    def comb_wide(cell: Cell) -> List[str]:
        pins, kind = cell.pins, cell.kind
        out = pins["out"]
        so = slot[out.name]
        wo = out.width
        nwo = _nwords(wo)
        uses_ev.add("_np")

        def word(pin: str, index: int) -> str:
            net = pins[pin]
            base = f"s[{slot[net.name]}]"
            return f"{base}[{index}]" if wide(net) else base

        def window(pin: str, pos: int) -> Optional[str]:
            """Bits ``[pos, pos + 64)`` of the pin's clean value (a
            negative ``pos`` places the value upward); None == zero."""
            wa = pins[pin].width
            na = _nwords(wa)
            quot, sh = divmod(pos, VECTOR_WORD)
            terms = []
            if 0 <= quot < na:
                term = word(pin, quot)
                if sh:
                    shift = consts.scalar(sh, f"A{sh}", uses_ev)
                    term = f"({term} >> {shift})"
                terms.append(term)
            if sh and 0 <= quot + 1 < na:
                # uint64 << wraps, which is exactly window truncation.
                up = consts.scalar(
                    VECTOR_WORD - sh, f"A{VECTOR_WORD - sh}", uses_ev
                )
                terms.append(f"({word(pin, quot + 1)} << {up})")
            if not terms:
                return None
            return " | ".join(terms)

        def finish(words: List[Optional[str]], src_top: int) -> List[str]:
            """Assemble out words; mask the top word when the source can
            carry bits past ``wo`` inside it (word windows already
            truncate at word granularity, so ``wo % 64 == 0`` is free).
            """
            residual = wo % VECTOR_WORD
            if src_top > wo and residual and words[-1] is not None:
                mask = consts.mask(residual, uses_ev)
                words[-1] = f"({words[-1]}) & {mask}"
            exprs = [
                expr if expr is not None else consts.zeros(uses_ev)
                for expr in words
            ]
            if not wide(out):
                return [f"    s[{so}] = {exprs[0]}"]
            return [f"    s[{so}] = [{', '.join(exprs)}]"]

        def w(pin: str) -> int:
            return pins[pin].width

        if kind == "const":
            value = int(cell.params["value"]) & ((1 << wo) - 1)
            return [
                f"    s[{so}] = "
                f"{consts.wide_words(value, nwo, f'W{so}', uses_ev)}"
            ]
        if kind in ("slice", "shr"):
            offset = int(
                cell.params["lsb" if kind == "slice" else "amount"]
            )
            words = [
                window("a", offset + VECTOR_WORD * j) for j in range(nwo)
            ]
            return finish(words, w("a") - offset)
        if kind == "shl":
            amount = int(cell.params["amount"])
            words = [
                window("a", VECTOR_WORD * j - amount) for j in range(nwo)
            ]
            return finish(words, w("a") + amount)
        if kind == "concat":
            wb = w("b")
            words = []
            for j in range(nwo):
                parts = [
                    part
                    for part in (
                        window("a", VECTOR_WORD * j - wb),
                        window("b", VECTOR_WORD * j),
                    )
                    if part is not None
                ]
                words.append(" | ".join(parts) if parts else None)
            return finish(words, w("a") + wb)
        if kind in ("and", "or", "xor"):
            op = {"and": "&", "or": "|", "xor": "^"}[kind]
            words = []
            for j in range(nwo):
                a_word = window("a", VECTOR_WORD * j)
                b_word = window("b", VECTOR_WORD * j)
                if a_word is not None and b_word is not None:
                    words.append(f"{a_word} {op} {b_word}")
                elif kind == "and":
                    words.append(None)  # missing operand word == zero
                else:
                    words.append(a_word if a_word is not None else b_word)
            src_top = (
                min(w("a"), w("b")) if kind == "and" else max(w("a"), w("b"))
            )
            return finish(words, src_top)
        if kind == "not":
            flip_width = max(w("a"), wo)
            na = _nwords(w("a"))
            words: List[Optional[str]] = []
            for j in range(nwo):
                flip = (
                    ((1 << flip_width) - 1) >> (VECTOR_WORD * j)
                ) & _WORD_MASK
                a_word = window("a", VECTOR_WORD * j)
                if a_word is None:
                    words.append(
                        consts.column(flip, f"V{so}w{j}", uses_ev)
                        if flip else None
                    )
                elif flip:
                    scalar = consts.scalar(flip, f"F{flip:x}", uses_ev)
                    words.append(f"{a_word} ^ {scalar}")
                else:
                    words.append(a_word)
            return finish(words, flip_width)
        if kind == "mux":
            sel = pins["sel"]
            cond = word("sel", 0)
            if sel.width > 1:
                cond = f"{cond} & {consts.scalar(1, 'K1', uses_ev)}"
            zeros = consts.zeros(uses_ev)
            words = []
            for j in range(nwo):
                a_word = window("a", VECTOR_WORD * j) or zeros
                b_word = window("b", VECTOR_WORD * j) or zeros
                words.append(f"_np.where({cond}, {a_word}, {b_word})")
            return finish(words, max(w("a"), w("b")))
        if kind == "eq":
            uses_ev.add("_U64")
            zero = consts.scalar(0, "K0", uses_ev)
            terms = []
            for j in range(max(_nwords(w("a")), _nwords(w("b")))):
                a_word = window("a", VECTOR_WORD * j)
                b_word = window("b", VECTOR_WORD * j)
                if a_word is None and b_word is None:
                    continue
                if a_word is None:
                    terms.append(f"({b_word} == {zero})")
                elif b_word is None:
                    terms.append(f"({a_word} == {zero})")
                else:
                    terms.append(f"({a_word} == {b_word})")
            joined = " & ".join(terms) if terms else "True"
            flag = f"({joined}).astype(_U64)"
            if not wide(out):
                return [f"    s[{so}] = {flag}"]
            zeros = consts.zeros(uses_ev)
            exprs = [flag] + [zeros] * (nwo - 1)
            return [f"    s[{so}] = [{', '.join(exprs)}]"]
        raise NetlistError(
            f"cannot word-vectorize cell kind {kind!r}"
        )  # pragma: no cover - dispatch guards membership

    # -- per-lane loop: multi-word arithmetic -----------------------------

    def comb_lanes(cell: Cell) -> List[str]:
        pins, kind = cell.pins, cell.kind
        out = pins["out"]
        so = slot[out.name]
        omask = (1 << out.width) - 1
        binary = {
            "add": f"(_p + _q) & {omask}",
            "sub": f"(_p - _q) & {omask}",
            "mul": f"(_p * _q) & {omask}",
            "div": f"(_p // _q if _q else 0) & {omask}",
            "mod": f"(_p % _q if _q else 0) & {omask}",
            "lt": "1 if _p < _q else 0",
        }
        if kind not in binary:
            raise NetlistError(f"cannot vector-compile cell kind {kind!r}")
        listcomp = (
            f"[{binary[kind]} for _p, _q in "
            f"zip({lanes_of(pins['a'], uses_ev)},"
            f" {lanes_of(pins['b'], uses_ev)})]"
        )
        if wide(out):
            packed = pk_wide(listcomp, _nwords(out.width), uses_ev)
        else:
            packed = pk(listcomp, uses_ev)
        return [f"    s[{so}] = {packed}"]

    # -- sequential cells ----------------------------------------------

    reg_cells = sorted(
        name for name, c in module.cells.items() if c.kind in ("reg", "regen")
    )
    fifo_cells = sorted(
        name for name, c in module.cells.items() if c.kind == "fifo"
    )
    reg_index = {name: i for i, name in enumerate(reg_cells)}
    fifo_index = {name: i for i, name in enumerate(fifo_cells)}
    # Pre-masked to q width (the SWAR generator's convention): clean
    # columns are the packed invariant and the extra bits are
    # unobservable either way.
    reg_inits = [
        int(module.cells[name].params.get("init", 0))
        & ((1 << module.cells[name].pins["q"].width) - 1)
        for name in reg_cells
    ]
    fifo_depths = [
        int(module.cells[name].params.get("depth", 2)) for name in fifo_cells
    ]

    def reg_storage_wide(name: str) -> bool:
        pins = module.cells[name].pins
        return max(pins["d"].width, pins["q"].width) > VECTOR_WORD

    ev: List[str] = []
    for name in reg_cells:
        cell = module.cells[name]
        q, d = cell.pins["q"], cell.pins["d"]
        i = reg_index[name]
        sq = slot[q.name]
        if not reg_storage_wide(name):
            if d.width <= q.width:
                ev.append(f"    s[{sq}] = r[{i}]")
            else:
                ev.append(
                    f"    s[{sq}] = r[{i}]"
                    f" & {consts.mask(q.width, uses_ev)}"
                )
        else:
            # Wide storage is a multi-word column list clean to
            # max(d, q) width; evaluate extracts q's words.
            max_w = max(d.width, q.width)
            if wide(q):
                nq = _nwords(q.width)
                words = [f"r[{i}][{j}]" for j in range(nq)]
                residual = q.width % VECTOR_WORD
                if max_w > q.width and residual:
                    mask = consts.mask(residual, uses_ev)
                    words[-1] = f"{words[-1]} & {mask}"
                ev.append(f"    s[{sq}] = [{', '.join(words)}]")
            elif q.width == VECTOR_WORD:
                ev.append(f"    s[{sq}] = r[{i}][0]")
            else:
                mask = consts.mask(q.width, uses_ev)
                ev.append(f"    s[{sq}] = r[{i}][0] & {mask}")
    for name in fifo_cells:
        cell = module.cells[name]
        pins = cell.pins
        index = fifo_index[name]
        od = pins["out_data"]
        od_mask = (1 << od.width) - 1
        depth = fifo_depths[index]
        ev.append(f"    _q = f[{index}]")
        ev.append(
            f"    s[{slot[pins['in_ready'].name]}] = "
            f"{pk(f'[1 if len(_fq) < {depth} else 0 for _fq in _q]', uses_ev)}"
        )
        ev.append(
            f"    s[{slot[pins['out_valid'].name]}] = "
            f"{pk('[1 if _fq else 0 for _fq in _q]', uses_ev)}"
        )
        head = f"[(_fq[0] & {od_mask}) if _fq else 0 for _fq in _q]"
        if wide(od):
            ev.append(
                f"    s[{slot[od.name]}] = "
                f"{pk_wide(head, _nwords(od.width), uses_ev)}"
            )
        else:
            ev.append(f"    s[{slot[od.name]}] = {pk(head, uses_ev)}")
    for cell in comb_topo_order(module):
        if all(pin.width <= VECTOR_WORD for pin in cell.pins.values()):
            ev.extend(comb_packed(cell))
        elif cell.kind in WIDE_VECTOR_KINDS:
            ev.extend(comb_wide(cell))
        else:
            ev.extend(comb_lanes(cell))
    if not ev:
        ev.append("    pass")

    def storage_words(name: str) -> int:
        pins = module.cells[name].pins
        return _nwords(max(pins["d"].width, pins["q"].width))

    def d_word(d, index: int, uses: set) -> str:
        """Word ``index`` of the latched d value (wide storage)."""
        sd = slot[d.name]
        if wide(d):
            if index < _nwords(d.width):
                return f"s[{sd}][{index}]"
        elif index == 0:
            return f"s[{sd}]"
        return consts.zeros(uses)

    lt: List[str] = []
    for name in reg_cells:
        cell = module.cells[name]
        d = cell.pins["d"]
        i = reg_index[name]
        storage_wide = reg_storage_wide(name)
        if cell.kind == "reg":
            if not storage_wide:
                lt.append(f"    r[{i}] = s[{slot[d.name]}]")
            else:
                words = [
                    d_word(d, j, uses_lt) for j in range(storage_words(name))
                ]
                lt.append(f"    r[{i}] = [{', '.join(words)}]")
        else:  # regen
            en = cell.pins["en"]
            uses_lt.add("_np")
            cond = f"s[{slot[en.name]}]"
            if en.width > 1:
                cond = f"{cond} & {consts.scalar(1, 'K1', uses_lt)}"
            if storage_wide:
                lt.append(f"    _c = {cond}")
                words = [
                    f"_np.where(_c, {d_word(d, j, uses_lt)}, r[{i}][{j}])"
                    for j in range(storage_words(name))
                ]
                lt.append(f"    r[{i}] = [{', '.join(words)}]")
            else:
                lt.append(
                    f"    r[{i}] = _np.where({cond}, "
                    f"s[{slot[d.name]}], r[{i}])"
                )
    for name in fifo_cells:
        cell = module.cells[name]
        pins = cell.pins
        lt.append(
            f"    for _fq, _to, _vo, _vi, _ri, _dv in zip("
            f"f[{fifo_index[name]}], "
            f"{lanes_of(pins['out_ready'], uses_lt)}, "
            f"{lanes_of(pins['out_valid'], uses_lt)}, "
            f"{lanes_of(pins['in_valid'], uses_lt)}, "
            f"{lanes_of(pins['in_ready'], uses_lt)}, "
            f"{lanes_of(pins['in_data'], uses_lt)}):"
        )
        lt.append("        if _fq and _to & _vo & 1:")
        lt.append("            _fq.popleft()")
        lt.append("        if _vi & _ri & 1:")
        lt.append("            _fq.append(_dv)")
    if not lt:
        lt.append("    pass")

    # -- assemble -------------------------------------------------------
    prelude = [
        "import numpy as _np", "", "_U64 = _np.uint64", f"_LANES = {lanes}"
    ]
    prelude += consts.defs
    helper_names = sorted(div_helpers)
    if "_vdiv" in div_helpers:
        prelude += [
            "",
            "",
            "def _vdiv(a, b, _Z0=_np.uint64(0)):",
            "    out = _np.zeros_like(a)",
            "    _np.floor_divide(a, b, out=out, where=b != _Z0)",
            "    return out",
        ]
    if "_vmod" in div_helpers:
        prelude += [
            "",
            "",
            "def _vmod(a, b, _Z0=_np.uint64(0)):",
            "    out = _np.zeros_like(a)",
            "    _np.remainder(a, b, out=out, where=b != _Z0)",
            "    return out",
        ]
    if "_wpack" in div_helpers:
        prelude += [
            "",
            "",
            "def _wpack(vals, n):",
            "    return [_np.array([(v >> (64 * i)) & "
            f"{hex(_WORD_MASK)} for v in vals], _U64)",
            "            for i in range(n)]",
        ]
    if "_wunpack" in div_helpers:
        prelude += [
            "",
            "",
            "def _wunpack(words):",
            "    out = words[0].tolist()",
            "    for i in range(1, len(words)):",
            "        shift = 64 * i",
            "        out = [o | (v << shift)",
            "               for o, v in zip(out, words[i].tolist())]",
            "    return out",
        ]

    def signature(uses: set) -> str:
        extras = sorted(uses - set(helper_names)) + [
            h for h in helper_names if h in uses
        ]
        defaults = "".join(f", {n}={n}" for n in extras)
        return f"(s, r, f{defaults}):"

    source = "\n".join(
        prelude
        + ["", "", f"def _evaluate{signature(uses_ev)}"]
        + ev
        + ["", "", f"def _latch{signature(uses_lt)}"]
        + lt
    ) + "\n"
    return source, reg_cells, reg_inits, fifo_cells, fifo_depths


class VectorNetlist:
    """One netlist's vector step code plus its layout (memo-shared)."""

    __slots__ = (
        "structural_hash",
        "slot_of",
        "n_slots",
        "reg_cells",
        "reg_inits",
        "fifo_cells",
        "fifo_depths",
        "evaluate",
        "latch",
        "source",
        "compile_seconds",
        "lanes",
        "from_store",
    )

    def __init__(
        self,
        structural_hash: str,
        slot_of: Dict[str, int],
        reg_cells: List[str],
        reg_inits: List[int],
        fifo_cells: List[str],
        fifo_depths: List[int],
        evaluate,
        latch,
        source: str,
        compile_seconds: float,
        lanes: int,
        from_store: bool = False,
    ):
        self.structural_hash = structural_hash
        self.slot_of = slot_of
        self.n_slots = len(slot_of)
        self.reg_cells = reg_cells
        self.reg_inits = reg_inits
        self.fifo_cells = fifo_cells
        self.fifo_depths = fifo_depths
        self.evaluate = evaluate
        self.latch = latch
        self.source = source
        self.compile_seconds = compile_seconds
        self.lanes = lanes
        self.from_store = from_store

    def __repr__(self):
        return (
            f"VectorNetlist({self.structural_hash}, {self.n_slots} slots, "
            f"lanes={self.lanes})"
        )


#: (structural hash, lanes) → VectorNetlist, process-wide.
_VMEMO: Dict[Tuple[str, int], VectorNetlist] = {}
_VMEMO_LOCK = threading.Lock()


def _generate_vector_payload(
    module: Module, structural: str, lanes: int
) -> Dict:
    slot = {name: index for index, name in enumerate(sorted(module.nets))}
    (source, reg_cells, reg_inits,
     fifo_cells, fifo_depths) = _generate_vector_source(module, slot, lanes)
    return {
        "structural_hash": structural,
        "backend": _BACKEND_TAG,
        "lanes": lanes,
        "stride": 0,
        "source": source,
        "slot_of": slot,
        "reg_cells": reg_cells,
        "reg_inits": reg_inits,
        "fifo_cells": fifo_cells,
        "fifo_depths": fifo_depths,
    }


def _materialize_vector(
    payload: Dict, module_name: str, start: float, from_store: bool
) -> VectorNetlist:
    namespace: Dict[str, object] = {}
    code = compile(
        payload["source"],
        f"<vector:{module_name}:{payload['structural_hash']}"
        f":x{payload['lanes']}>",
        "exec",
    )
    exec(code, namespace)
    return VectorNetlist(
        payload["structural_hash"],
        payload["slot_of"],
        payload["reg_cells"],
        payload["reg_inits"],
        payload["fifo_cells"],
        payload["fifo_depths"],
        namespace["_evaluate"],
        namespace["_latch"],
        payload["source"],
        time.perf_counter() - start,
        lanes=payload["lanes"],
        from_store=from_store,
    )


def compile_vector_netlist(
    module: Module,
    lanes: int,
    store=None,
) -> VectorNetlist:
    """Compile a flat module to lane-column step code (memoized).

    Raises :class:`SimBackendUnavailable` when numpy is not installed.
    ``store`` is the same duck-typed codegen store ``compile_netlist``
    takes (``load`` gains the backend tag argument:
    ``load(structural_hash, lanes, backend)``), so vector kernels share
    the persistent ``codegen`` pseudo-stage with the scalar and SWAR
    generators.
    """
    from .compile import valid_codegen_payload

    lanes = int(lanes)
    if lanes < 1:
        raise NetlistError(f"lanes must be >= 1, got {lanes}")
    _require_numpy()
    structural = module.structural_hash()
    key = (structural, lanes)
    with _VMEMO_LOCK:
        cached = _VMEMO.get(key)
    if cached is not None:
        return cached
    start = time.perf_counter()
    payload = None
    if store is not None:
        payload = store.load(structural, lanes, _BACKEND_TAG)
        if payload is not None and not valid_codegen_payload(
            payload, structural, lanes, _BACKEND_TAG
        ):
            payload = None
    loaded = payload is not None
    if payload is None:
        payload = _generate_vector_payload(module, structural, lanes)
    compiled = _materialize_vector(payload, module.name, start, loaded)
    if store is not None and not loaded:
        store.save(payload)
    with _VMEMO_LOCK:
        return _VMEMO.setdefault(key, compiled)


def clear_vector_memo() -> None:
    """Drop every memoized vector compilation (mainly for tests)."""
    with _VMEMO_LOCK:
        _VMEMO.clear()


class VectorCompiledSimulator:
    """K stimulus lanes behind word-packed column step functions.

    The vectorized sibling of
    :class:`~repro.rtl.compile.BatchedCompiledSimulator`, with the same
    surface — ``poke`` takes ``{port: [v0..vK-1]}``, ``peek`` returns
    per-lane lists, ``step``/``run`` exchange one dict per lane — and
    the same contract: lanes never interact, outputs are bit-identical
    to K independent single-lane runs (the vector
    :func:`~repro.rtl.compile.differential_check` gate asserts it).
    Unlike SWAR, throughput keeps scaling to thousands of lanes because
    each kernel touches a contiguous column at fixed per-op overhead.
    """

    def __init__(
        self,
        module: Module,
        lanes: int,
        codegen_store=None,
        flavor: Optional[str] = None,
    ):
        from .compile import _flattened, _mask_literal

        # ``flavor`` survives only for callers that still pass it: the
        # kernels are numpy's, whatever else is asked for is an error.
        if flavor not in (None, "numpy"):
            raise NetlistError(
                f"unknown vector flavor {flavor!r}; the vector backend "
                f"only has numpy kernels"
            )
        self.flavor = "numpy"
        self.module = _flattened(module)
        self.lanes = int(lanes)
        if self.lanes < 1:
            raise NetlistError(f"lanes must be >= 1, got {lanes!r}")
        self.program = compile_vector_netlist(
            self.module, self.lanes, store=codegen_store
        )
        np = self._np = _numpy()
        slot_of = self.program.slot_of
        # slot index → word count, for every net wider than one word
        # (such a slot holds that many uint64 columns).
        self._wide_slots: Dict[int, int] = {
            slot_of[net.name]: _nwords(net.width)
            for net in self.module.nets.values()
            if net.width > VECTOR_WORD
        }
        # Columns are rebound, never mutated, so every packed slot can
        # share one zero column until first written (wide slots
        # likewise share it per word).
        zeros = np.zeros(self.lanes, np.uint64)
        self._slots: List[object] = []
        for index in range(self.program.n_slots):
            n_words = self._wide_slots.get(index)
            self._slots.append(zeros if n_words is None else [zeros] * n_words)
        self._regs: List[object] = []
        for name, init in zip(self.program.reg_cells, self.program.reg_inits):
            pins = self.module.cells[name].pins
            storage_width = max(pins["d"].width, pins["q"].width)
            if storage_width > VECTOR_WORD:
                self._regs.append([
                    np.full(
                        self.lanes,
                        np.uint64(
                            (init >> (VECTOR_WORD * word)) & _WORD_MASK
                        ),
                    )
                    for word in range(_nwords(storage_width))
                ])
            else:
                self._regs.append(np.full(self.lanes, np.uint64(init)))
        self._fifos: List[List[deque]] = [
            [deque() for _ in range(self.lanes)]
            for _ in self.program.fifo_depths
        ]
        self._evaluate = self.program.evaluate
        self._latch = self.program.latch
        self._input_slots = {
            name: (slot_of[net.name], _mask_literal(net.width))
            for name, net in self.module.inputs()
        }
        self._output_slots = [
            (
                name,
                slot_of[net.name],
                slot_of[net.name] in self._wide_slots,
            )
            for name, net in self.module.outputs()
        ]
        self.cycle = 0

    # ------------------------------------------------------------------

    def _column(self, values: Sequence[int], mask: int):
        """A fresh packed column of masked lane values."""
        return self._np.array(
            [int(value) & mask for value in values], self._np.uint64
        )

    def _pack_wide(self, values: Sequence[int], mask: int, n_words: int):
        """Masked lane ints → little-endian uint64 word columns."""
        np = self._np
        size = VECTOR_WORD // 8 * n_words
        raw = b"".join(
            [(int(value) & mask).to_bytes(size, "little") for value in values]
        )
        words = np.frombuffer(raw, "<u8").reshape(len(values), n_words)
        return list(np.ascontiguousarray(words.T, np.uint64))

    def _unpack_wide(self, words) -> List[int]:
        """Word columns back to per-lane Python ints."""
        size = VECTOR_WORD // 8 * len(words)
        # One little-endian byte string per lane, then one int each.
        fields = (
            self._np.stack(words, axis=1).astype("<u8", copy=False)
            .view(f"V{size}").ravel().tolist()
        )
        return list(map(int.from_bytes, fields, repeat("little")))

    def _lanes_of(self, value, is_wide: bool) -> List[int]:
        """Per-lane Python ints of one slot's current column."""
        return self._unpack_wide(value) if is_wide else value.tolist()

    def poke(self, inputs: Dict[str, Sequence[int]]) -> None:
        """Drive ports with per-lane value lists (one value per lane)."""
        slots = self._slots
        for name, values in inputs.items():
            entry = self._input_slots.get(name)
            if entry is None:
                raise NetlistError(
                    f"{self.module.name}: no input port {name!r}"
                )
            if len(values) != self.lanes:
                raise NetlistError(
                    f"{self.module.name}: port {name!r} got {len(values)} "
                    f"values for {self.lanes} lanes"
                )
            index, mask = entry
            n_words = self._wide_slots.get(index)
            if n_words is None:
                slots[index] = self._column(values, mask)
            else:
                slots[index] = self._pack_wide(values, mask, n_words)

    def _poke_vectors(self, vectors: Sequence[Dict[str, int]]) -> None:
        """Per-lane input dicts; lanes may drive different port subsets
        (a port a lane omits keeps that lane's previous value)."""
        if len(vectors) != self.lanes:
            raise NetlistError(
                f"{self.module.name}: got {len(vectors)} input vectors "
                f"for {self.lanes} lanes"
            )
        slots = self._slots
        first = vectors[0]
        uniform = all(vector.keys() == first.keys() for vector in vectors)
        if uniform:
            for name in first:
                entry = self._input_slots.get(name)
                if entry is None:
                    raise NetlistError(
                        f"{self.module.name}: no input port {name!r}"
                    )
                index, mask = entry
                n_words = self._wide_slots.get(index)
                if n_words is None:
                    slots[index] = self._column(
                        [vector[name] for vector in vectors], mask
                    )
                else:
                    slots[index] = self._pack_wide(
                        [vector[name] for vector in vectors], mask, n_words
                    )
            return
        names = set(first)
        for vector in vectors[1:]:
            names.update(vector)
        for name in names:
            entry = self._input_slots.get(name)
            if entry is None:
                raise NetlistError(
                    f"{self.module.name}: no input port {name!r}"
                )
            index, mask = entry
            n_words = self._wide_slots.get(index)
            old = self._lanes_of(slots[index], n_words is not None)
            merged = [
                (int(vector[name]) & mask)
                if name in vector
                else int(old[lane])
                for lane, vector in enumerate(vectors)
            ]
            if n_words is None:
                slots[index] = self._column(merged, mask)
            else:
                slots[index] = self._pack_wide(merged, mask, n_words)

    def evaluate(self) -> None:
        self._evaluate(self._slots, self._regs, self._fifos)

    def peek(self, name: str) -> List[int]:
        net = self.module.ports.get(name)
        if net is None:
            raise NetlistError(f"{self.module.name}: no port {name!r}")
        return self._unpack_slot(self.program.slot_of[net.name])

    def peek_net(self, net_name: str) -> List[int]:
        index = self.program.slot_of.get(net_name)
        if index is None:
            raise NetlistError(f"{self.module.name}: no net {net_name!r}")
        return self._unpack_slot(index)

    def _unpack_slot(self, index: int) -> List[int]:
        return self._lanes_of(self._slots[index], index in self._wide_slots)

    def tick(self) -> None:
        self._latch(self._slots, self._regs, self._fifos)
        self.cycle += 1

    def step(
        self, vectors: Optional[Sequence[Dict[str, int]]] = None
    ) -> List[Dict[str, int]]:
        """One cycle for every lane; returns one output dict per lane."""
        if vectors:
            self._poke_vectors(vectors)
        slots = self._slots
        self._evaluate(slots, self._regs, self._fifos)
        columns = [
            (name, self._lanes_of(slots[index], is_wide))
            for name, index, is_wide in self._output_slots
        ]
        outputs = [
            {name: column[lane] for name, column in columns}
            for lane in range(self.lanes)
        ]
        self._latch(slots, self._regs, self._fifos)
        self.cycle += 1
        return outputs

    def _feed(self, index: int, mask: int, values: List[int]):
        """Per-cycle columns of one input port from its lane-major
        values (see ``run_lanes``)."""
        np = self._np
        cycles = len(values) // self.lanes
        n_words = self._wide_slots.get(index)
        if n_words is not None:
            # Split into words one cycle at a time: a whole-run word
            # table for 256-/512-bit ports costs more memory than it
            # saves time.
            return (
                self._pack_wide(values[cycle::cycles], mask, n_words)
                for cycle in range(cycles)
            )
        try:
            table = np.frombuffer(array("Q", values), np.uint64)
        except (OverflowError, TypeError):  # negative, too wide, not int
            table = np.array(
                [int(value) & mask for value in values], np.uint64
            )
        # One contiguous lane column per cycle.
        columns = table.reshape(self.lanes, cycles).T.copy()
        columns &= np.uint64(mask)
        return columns

    def _readers(self):
        """Per output port: (name, slot, take, finish) for ``run_lanes``.

        Packed columns are kept by reference (generated code never
        writes into one); wide ports are joined to lane ints each cycle.
        """
        stack = self._np.stack

        def lane_values(columns) -> List[int]:
            return stack(columns, axis=1).ravel().tolist()

        return [
            (name, index, self._unpack_wide, lane_major)
            if is_wide else (name, index, None, lane_values)
            for name, index, is_wide in self._output_slots
        ]

    def run(
        self, input_streams: Sequence[List[Dict[str, int]]]
    ) -> List[List[Dict[str, int]]]:
        """Feed K equal-length streams; returns K per-lane traces
        (whole-run marshalling, see :func:`run_lanes`)."""
        return run_lanes(self, input_streams)

    def run_random(
        self, cycles: int, seed: int = 0, bias: float = 0.0
    ) -> List[List[Dict[str, int]]]:
        """Seeded per-lane stimulus (lane seeds via derive_lane_seed)."""
        return self.run(
            random_stimulus_batch(self.module, cycles, self.lanes, seed, bias)
        )

    def run_batch(
        self, input_streams: Sequence[List[Dict[str, int]]]
    ) -> List[List[Dict[str, int]]]:
        """Alias for :meth:`run` (the uniform batch surface)."""
        return self.run(input_streams)

    def run_random_batch(
        self, cycles: int, lanes: int, seed: int = 0, bias: float = 0.0
    ) -> List[List[Dict[str, int]]]:
        if int(lanes) != self.lanes:
            raise NetlistError(
                f"{self.module.name}: simulator compiled for {self.lanes} "
                f"lanes, asked to run {lanes}"
            )
        return self.run_random(cycles, seed, bias)


# Register with the backend vocabulary on import (repro.rtl imports this
# module unconditionally, so ``--sim-backend vector`` is always a valid
# spelling; numpy's availability is checked at compile time instead).
def _register() -> None:
    from . import compile as _compile

    _compile.SIM_BACKENDS["vector"] = VectorCompiledSimulator
    _compile.SIM_BACKEND_VERSIONS["vector"] = 1


_register()
