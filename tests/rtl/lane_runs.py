"""Shared checks for the lane engines' whole-run ``run()``.

``run()`` marshals a whole run at once (``repro.rtl.simulate.run_lanes``)
while ``step()`` marshals one cycle at a time; for any stimulus a caller
can hand in, both must return the same traces and leave the engine in
the same state.
"""

import random

from repro.rtl import random_stimulus_batch


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
    assert traces == expected
    assert all(
        type(value) is int
        for trace in traces
        for outputs in trace
        for value in outputs.values()
    )
    assert ran.cycle == stepped.cycle == len(streams[0])
    for port in ran.module.ports:
        assert ran.peek(port) == stepped.peek(port), port
    assert ran.step() == stepped.step()


def _pushed(streams, module, seed, forms):
    """Copies of ``streams`` with every value moved out of its port's
    range by one of ``forms`` (each keeps the value's low ``width``
    bits, so masking recovers it)."""
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


#: The keys of :func:`lane_run_cases`.
LANE_RUN_CASES = (
    "random",
    "over-width",
    "out-of-range",
    "port-omitted-first",
    "port-omitted-in-one-lane",
    "port-omitted-in-every-lane",
    "zero-cycles",
)


def lane_run_cases(module, lanes, seed, cycles=12):
    """Named stimulus cases the whole-run path must treat like ``step``."""
    streams = random_stimulus_batch(module, cycles, lanes, seed)
    port = next(iter(streams[0][0]))

    def omitted(lane_cycles):
        copies = [[dict(vector) for vector in stream] for stream in streams]
        for lane, cycle in lane_cycles:
            del copies[lane][cycle][port]
        return copies

    return {
        "random": streams,
        "over-width": _pushed(streams, module, seed, (_over_width,)),
        "out-of-range": _pushed(
            streams, module, seed, (_over_width, _negative, _beyond_a_word)
        ),
        "port-omitted-first": omitted([(0, 0)]),
        "port-omitted-in-one-lane": omitted([(lanes - 1, cycles // 2)]),
        "port-omitted-in-every-lane": omitted(
            [(lane, cycles // 2) for lane in range(lanes)]
        ),
        "zero-cycles": [[] for _ in range(lanes)],
    }
