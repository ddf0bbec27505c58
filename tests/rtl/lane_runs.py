"""Shared checks for the engines' whole-run ``run()``.

``run()`` marshals a whole run at once (the lane engines through
``repro.rtl.simulate.run_lanes``, the scalar engine through its
generated ``_run`` loop) while ``step()`` marshals one cycle at a time;
for any stimulus a caller can hand in, both must return the same traces
and leave the engine in the same state.  The lane forms take one stream
per lane, the one-lane forms a single stream.
"""

import random

from repro.rtl import Module, random_stimulus, random_stimulus_batch


def _assert_same_traces(traces, expected):
    """Equal traces of plain ints, with keys in the same order."""
    assert traces == expected
    assert [[list(outputs) for outputs in trace] for trace in traces] == [
        [list(outputs) for outputs in trace] for trace in expected
    ]
    assert all(
        type(value) is int
        for trace in traces
        for outputs in trace
        for value in outputs.values()
    )


def _assert_same_state(ran, stepped, cycles):
    assert ran.cycle == stepped.cycle == cycles
    for port in ran.module.ports:
        assert ran.peek(port) == stepped.peek(port), port
    assert ran.step() == stepped.step()


def assert_run_matches_steps(make_engine, streams):
    """``run`` on one fresh engine vs one ``step`` per cycle on another:
    equal traces of plain ints, then equal cycle counts, port values and
    next step."""
    ran, stepped = make_engine(), make_engine()
    traces = ran.run(streams)
    expected = [[] for _ in streams]
    for vectors in zip(*streams):
        for trace, outputs in zip(expected, stepped.step(vectors)):
            trace.append(outputs)
    _assert_same_traces(traces, expected)
    _assert_same_state(ran, stepped, len(streams[0]))


def assert_stream_run_matches_steps(make_engine, make_stream):
    """The one-lane form: ``make_stream()`` returns a fresh iterable of
    input dicts each call (a generator, say), so ``run`` and the
    ``step`` loop each get their own."""
    ran, stepped = make_engine(), make_engine()
    trace = ran.run(make_stream())
    expected = [stepped.step(inputs) for inputs in make_stream()]
    _assert_same_traces([trace], [expected])
    _assert_same_state(ran, stepped, len(expected))


def _pushed(streams, module, seed, forms):
    """Copies of ``streams`` with every value rewritten by one of
    ``forms``; ``int(v) & mask`` must still give what ``step`` pokes."""
    rng = random.Random(seed)
    widths = {name: net.width for name, net in module.inputs()}
    return [
        [
            {
                name: rng.choice(forms)(rng, value, widths[name])
                for name, value in vector.items()
            }
            for vector in stream
        ]
        for stream in streams
    ]


def _over_width(rng, value, width):
    # Below 2^64 for ports of up to 60 bits.
    return value | (rng.randrange(1, 8) << width)


def _negative(rng, value, width):
    return value - (rng.randrange(1, 8) << width)


def _beyond_a_word(rng, value, width):
    return value | (rng.getrandbits(16) << max(width, 64))


def _bool(rng, value, width):
    return bool(value & 1)


def _float(rng, value, width):
    return float(value)


#: The keys of :func:`lane_run_cases`.
LANE_RUN_CASES = (
    "random",
    "over-width",
    "out-of-range",
    "bools",
    "floats",
    "port-omitted-first",
    "port-omitted-in-one-lane",
    "port-omitted-in-every-lane",
    "zero-cycles",
)


def lane_run_cases(module, lanes, seed, cycles=12):
    """Named stimulus cases the whole-run path must treat like ``step``.

    On a module without input ports every dict is empty, so the cases
    that rewrite or omit a port drive the random stream unchanged.
    """
    streams = random_stimulus_batch(module, cycles, lanes, seed)
    port = next(iter(streams[0][0]), None)

    def omitted(lane_cycles):
        copies = [[dict(vector) for vector in stream] for stream in streams]
        for lane, cycle in lane_cycles:
            copies[lane][cycle].pop(port, None)
        return copies

    return {
        "random": streams,
        "over-width": _pushed(streams, module, seed, (_over_width,)),
        "out-of-range": _pushed(
            streams, module, seed, (_over_width, _negative, _beyond_a_word)
        ),
        "bools": _pushed(streams, module, seed, (_bool,)),
        "floats": _pushed(streams, module, seed, (_float,)),
        "port-omitted-first": omitted([(0, 0)]),
        "port-omitted-in-one-lane": omitted([(lanes - 1, cycles // 2)]),
        "port-omitted-in-every-lane": omitted(
            [(lane, cycles // 2) for lane in range(lanes)]
        ),
        "zero-cycles": [[] for _ in range(lanes)],
    }


#: The keys of :func:`stream_run_cases`.
STREAM_RUN_CASES = (
    "random",
    "over-width",
    "out-of-range",
    "bools",
    "floats",
    "port-omitted-first",
    "port-omitted-mid-run",
    "empty-dict",
    "generator",
    "zero-cycles",
)


def stream_run_cases(module, seed, cycles=12):
    """The one-lane form of :func:`lane_run_cases`: named factories of
    single streams (see :func:`assert_stream_run_matches_steps`)."""
    lane = lane_run_cases(module, 1, seed, cycles)
    stream = lane["random"][0]

    def changed(cycle, change):
        copies = [dict(vector) for vector in stream]
        change(copies[cycle])
        return copies

    streams = {name: lane[name][0] for name in (
        "random", "over-width", "out-of-range", "bools", "floats",
        "port-omitted-first", "zero-cycles",
    )}
    streams["port-omitted-mid-run"] = changed(
        cycles // 2, lambda vector: vector.pop(next(iter(vector), None), None)
    )
    streams["empty-dict"] = changed(cycles // 2, dict.clear)
    cases = {name: (lambda s=s: s) for name, s in streams.items()}
    cases["generator"] = lambda: (dict(vector) for vector in stream)
    return cases


def free_running_counter(width=8) -> Module:
    """A module without input ports: a register counting up from 3."""
    module = Module("free_counter")
    out = module.add_output("out", width)
    q = module.fresh_net(width, "q")
    module.add_cell(
        "add", {"a": q, "b": module.constant(1, width), "out": out}
    )
    module.add_cell("reg", {"d": out, "q": q}, {"init": 3})
    module.validate()
    return module


def sink(width=8) -> Module:
    """A module without output ports: its inputs only feed a register."""
    module = Module("sink")
    a = module.add_input("a", width)
    b = module.add_input("b", width)
    module.register(module.binop("xor", a, b))
    module.validate()
    return module
