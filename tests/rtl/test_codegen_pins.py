"""Every generated program is pinned to ``CODEGEN_VERSION``.

A persisted codegen entry is keyed by ``(structural_hash, backend,
lanes, CODEGEN_VERSION)``, so a generator that changes what it emits
without a version bump lets a warm store serve the old program.  This
table pins the hash of every payload the three generators write for the
catalog: the six designs at ``-O0`` and ``-O2``, each as the scalar
program, the SWAR program at 3 and 64 lanes and the vector program at 3
and 64 lanes.  The generators are called directly, without ``exec``, so
the vector rows are checked where numpy is not installed too.

After a deliberate generator change: bump ``CODEGEN_VERSION`` in
``repro/rtl/compile.py``, print the new table with
``PYTHONPATH=src python -m tests.rtl.test_codegen_pins``, and paste it
over ``PINS`` together with the new ``PINNED_VERSION``.
"""

import hashlib
import json

import pytest

from repro.designs.catalog import DESIGNS, design_point
from repro.driver import CompileSession
from repro.rtl.compile import CODEGEN_VERSION, _flattened, _generate_payload
from repro.rtl.vectorize import _generate_vector_payload

#: The ``CODEGEN_VERSION`` the table below was pinned at.
PINNED_VERSION = 8

#: ``(design, opt level, backend, lanes)`` for every pinned program.
PROGRAMS = [
    (name, level, backend, lanes)
    for name in sorted(DESIGNS)
    for level in (0, 2)
    for backend, lanes in (
        ("scalar", None), ("swar", 3), ("swar", 64),
        ("vector", 3), ("vector", 64),
    )
]

#: program id → the first 16 hex digits of the sha256 of its payload.
PINS = {
    "blas -O0 scalar": "c52faa89d89fe5e4",
    "blas -O0 swar x3": "9247c975a4b48be0",
    "blas -O0 swar x64": "aef163f650d5c5b9",
    "blas -O0 vector x3": "57a36cc0e116c7e9",
    "blas -O0 vector x64": "4d909cfe7d557ccb",
    "blas -O2 scalar": "fd31c5364cb37740",
    "blas -O2 swar x3": "535ac5bf94f51d26",
    "blas -O2 swar x64": "20234312f8f4e7e5",
    "blas -O2 vector x3": "7a298b94f49dbdcc",
    "blas -O2 vector x64": "489344b8428ac6af",
    "fft -O0 scalar": "300aec47ca30eff1",
    "fft -O0 swar x3": "33a50eabb70d1690",
    "fft -O0 swar x64": "e855fe8206485b69",
    "fft -O0 vector x3": "0e01107d4530ccd2",
    "fft -O0 vector x64": "04e059746ded5b9a",
    "fft -O2 scalar": "0ce69b6d8e4ed682",
    "fft -O2 swar x3": "62b1f9fcc70fc771",
    "fft -O2 swar x64": "ed4e492975c86dfa",
    "fft -O2 vector x3": "d7037500d64fd545",
    "fft -O2 vector x64": "53c0a53f0f66078b",
    "flofft -O0 scalar": "ebc10f6f5df61f0a",
    "flofft -O0 swar x3": "58a30af3aaebea41",
    "flofft -O0 swar x64": "b6b454d392ee405f",
    "flofft -O0 vector x3": "92d4a35ef97cb83e",
    "flofft -O0 vector x64": "6a2907afb5f879d3",
    "flofft -O2 scalar": "2fc235e2600ef22d",
    "flofft -O2 swar x3": "b2962a11d583de6b",
    "flofft -O2 swar x64": "4322f24b8c4776d4",
    "flofft -O2 vector x3": "44c2aea189a559eb",
    "flofft -O2 vector x64": "7920bade8ffaf041",
    "fpu -O0 scalar": "2f4c266c5b172ec6",
    "fpu -O0 swar x3": "0823c6f7e86c0332",
    "fpu -O0 swar x64": "5dd113ab3a875aee",
    "fpu -O0 vector x3": "4a06bb7ea722f7e7",
    "fpu -O0 vector x64": "d5e1aaa353e5e06c",
    "fpu -O2 scalar": "8907c0639e2b82b2",
    "fpu -O2 swar x3": "3d18feaf5e22a153",
    "fpu -O2 swar x64": "a8db736e7f90f0b0",
    "fpu -O2 vector x3": "dff349bb9a108ede",
    "fpu -O2 vector x64": "f519a7e55f31591b",
    "gbp -O0 scalar": "b88eea4e8e14dabe",
    "gbp -O0 swar x3": "d5eb984f72703d71",
    "gbp -O0 swar x64": "6ccf38ded96022bc",
    "gbp -O0 vector x3": "a58167870bce18e7",
    "gbp -O0 vector x64": "cf81a20236f158ea",
    "gbp -O2 scalar": "0ebdf06edac67886",
    "gbp -O2 swar x3": "a12f6dec0e1f364e",
    "gbp -O2 swar x64": "a28ee6bc4c439b84",
    "gbp -O2 vector x3": "89506b3437c74ad5",
    "gbp -O2 vector x64": "7b2431588249bc55",
    "risc -O0 scalar": "85b445d0137cbf0d",
    "risc -O0 swar x3": "cf5ff2212e966ce8",
    "risc -O0 swar x64": "7c89685a5cb1caef",
    "risc -O0 vector x3": "a9e6c7c446e5440f",
    "risc -O0 vector x64": "467f0e65c85ee52b",
    "risc -O2 scalar": "5e268ff373d84891",
    "risc -O2 swar x3": "a3d421a5727cd696",
    "risc -O2 swar x64": "7a2c3be66e5b916f",
    "risc -O2 vector x3": "ae0f551c4d9e566b",
    "risc -O2 vector x64": "bcbca3d0f8ab6426",
}


def program_id(name, level, backend, lanes) -> str:
    return f"{name} -O{level} {backend}" + (f" x{lanes}" if lanes else "")


_MODULES = {}


def _module(name, level):
    if (name, level) not in _MODULES:
        source, component, generators, params = design_point(name)
        optimized = CompileSession(opt_level=level).optimize(
            source, component, params, generators
        )
        _MODULES[name, level] = _flattened(optimized.value.module)
    return _MODULES[name, level]


def payload_hash(name, level, backend, lanes) -> str:
    module = _module(name, level)
    key = module.structural_hash()
    if backend == "vector":
        payload = _generate_vector_payload(module, key, lanes)
    else:
        payload = _generate_payload(module, key, lanes)
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def test_the_table_was_pinned_at_this_codegen_version():
    assert CODEGEN_VERSION == PINNED_VERSION, (
        f"CODEGEN_VERSION is {CODEGEN_VERSION} but the table was pinned at "
        f"{PINNED_VERSION}: re-pin it (see this module's docstring)"
    )
    assert sorted(PINS) == sorted(program_id(*p) for p in PROGRAMS)


@pytest.mark.parametrize(
    "program", PROGRAMS, ids=[program_id(*p) for p in PROGRAMS]
)
def test_generated_program_is_pinned(program):
    name = program_id(*program)
    actual = payload_hash(*program)
    assert actual == PINS.get(name), (
        f"{name}: the generated program hashes to {actual}, not the "
        f"pinned {PINS.get(name)}. A generator changed what it emits: "
        f"bump CODEGEN_VERSION and re-pin (see this module's docstring)"
    )


if __name__ == "__main__":
    print(f"PINNED_VERSION = {CODEGEN_VERSION}")
    print("PINS = {")
    for program in PROGRAMS:
        print(f"    {program_id(*program)!r}: {payload_hash(*program)!r},")
    print("}")
